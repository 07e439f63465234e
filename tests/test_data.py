"""Synthetic generator guarantees and container round-trips."""

import binascii
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frn.data import (
    GenSpec,
    GenerationError,
    IngestError,
    MAGIC,
    equal_mean_latents,
    gen_equal_mean,
    gen_gaussian,
    gen_pose_permutation,
    generate,
    ingest,
    manifest_path,
    save_dataset,
)
from frn.episodes import evaluate, make_head_fn
from frn.head import HeadParams

import reference_ops as refops


def spec(kind, **kw):
    base = dict(n_classes=4, items_per_class=6, r=4, d=12, noise_sigma=0.05, kind=kind, seed=3)
    base.update(kw)
    return GenSpec(**base)


class TestGenSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            GenSpec(2, 2, 2, 2, 0.0, "mystery")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            spec("gaussian-prototype", noise_sigma=-1.0)


class TestGaussian:
    def test_zero_noise_gives_identical_items(self):
        ds = gen_gaussian(spec("gaussian-prototype", noise_sigma=0.0))
        for maps in ds.classes.values():
            for m in maps[1:]:
                np.testing.assert_array_equal(m.values, maps[0].values)

    def test_deterministic_given_seed(self):
        a = gen_gaussian(spec("gaussian-prototype"))
        b = gen_gaussian(spec("gaussian-prototype"))
        for cid in a.classes:
            for ma, mb in zip(a.classes[cid], b.classes[cid]):
                np.testing.assert_array_equal(ma.values, mb.values)

    def test_zero_noise_fully_separable(self):
        ds = gen_gaussian(spec("gaussian-prototype", noise_sigma=0.0, n_classes=6))
        for kind in ("frn", "proto", "dsn"):
            report = evaluate(ds, make_head_fn(kind, HeadParams()), n=4, k=1, q=2,
                              trials=30, seed=0)
            assert report.accuracy_mean == 1.0, kind

    def test_moderate_noise_between_chance_and_perfect(self):
        # measured: sigma=0.25 against unit-norm prototype rows lands ~0.76
        ds = gen_gaussian(spec("gaussian-prototype", noise_sigma=0.25, seed=5, items_per_class=10))
        report = evaluate(ds, make_head_fn("frn", HeadParams()), n=4, k=1, q=4,
                          trials=150, seed=1)
        assert 0.3 < report.accuracy_mean < 0.98


class TestPosePermutation:
    def test_requires_r_at_least_two(self):
        with pytest.raises(GenerationError):
            gen_pose_permutation(spec("pose-permutation", r=1))

    def test_items_are_row_permutations_of_signature(self):
        ds = gen_pose_permutation(spec("pose-permutation", noise_sigma=0.0))
        for maps in ds.classes.values():
            ref = {tuple(np.round(row, 12)) for row in maps[0].values}
            for m in maps[1:]:
                rows = {tuple(np.round(row, 12)) for row in m.values}
                assert rows == ref

    def test_reconstruction_head_beats_location_sensitive_oracle(self):
        # oracle: nearest flattened-vector prototype, which keys on location.
        # random permutations keep ~Poisson(1) fixed points, so the oracle
        # retains a small edge over the 0.2 chance rate (measured ~0.40 at
        # r=16) while the reconstruction head is untouched by the shuffling
        ds = gen_pose_permutation(
            spec("pose-permutation", n_classes=5, items_per_class=12, r=16, d=24,
                 noise_sigma=0.02, seed=7)
        )

        def flat_oracle(episode):
            protos = []
            for pool in episode.support:
                protos.append(pool.values.reshape(pool.k, -1).mean(axis=0))
            protos = np.vstack(protos)
            logits = []
            for qm, _ in episode.queries:
                qf = qm.values.reshape(-1)
                logits.append(-((protos - qf) ** 2).sum(axis=1))
            return np.vstack(logits)

        frn_rep = evaluate(ds, make_head_fn("frn", HeadParams()), n=5, k=1, q=4,
                           trials=100, seed=2)
        flat_rep = evaluate(ds, flat_oracle, n=5, k=1, q=4, trials=100, seed=2)
        assert frn_rep.accuracy_mean >= 0.9
        assert flat_rep.accuracy_mean <= 0.5

    def test_average_pool_head_also_succeeds(self):
        # class means differ here, so pooling is enough; the equal-mean
        # construction below is what separates the two heads
        ds = gen_pose_permutation(
            spec("pose-permutation", n_classes=5, items_per_class=12, r=6, d=12,
                 noise_sigma=0.02, seed=8)
        )
        rep = evaluate(ds, make_head_fn("proto", HeadParams()), n=5, k=1, q=4,
                       trials=100, seed=3)
        assert rep.accuracy_mean >= 0.9


class TestEqualMean:
    def test_infeasible_shapes_rejected(self):
        with pytest.raises(GenerationError):
            gen_equal_mean(spec("equal-mean-multiset", r=8, n_classes=5, d=10))
        with pytest.raises(GenerationError):
            gen_equal_mean(spec("equal-mean-multiset", r=1))

    def test_class_means_identical_before_noise(self):
        s = spec("equal-mean-multiset", n_classes=5, r=8, d=16)
        latents = equal_mean_latents(s)
        sums = np.stack([lat.sum(axis=0) for lat in latents])
        spread = np.max(np.abs(sums - sums.mean(axis=0)))
        assert spread <= 1e-6

    def test_classes_are_distinct_multisets(self):
        s = spec("equal-mean-multiset", n_classes=4, r=4, d=12)
        latents = equal_mean_latents(s)
        for i in range(len(latents)):
            for j in range(i + 1, len(latents)):
                di = np.sort(np.linalg.norm(latents[i], axis=1))
                dj = np.sort(np.linalg.norm(latents[j], axis=1))
                # perturbed rows have norm sqrt(1 + delta^2), shared rows norm 1;
                # the perturbation directions differ, so multisets differ
                assert not np.allclose(latents[i].sum(axis=0) - latents[j].sum(axis=0),
                                       np.ones(12))
                assert np.allclose(di, dj)  # same norm profile by construction
                assert not any(
                    np.allclose(latents[i][0], latents[j][perm_row])
                    for perm_row in range(4)
                )

    def test_pooled_head_blind_reconstruction_head_not(self):
        s = spec("equal-mean-multiset", n_classes=5, items_per_class=10, r=8, d=16,
                 noise_sigma=0.05, seed=11)
        ds = gen_equal_mean(s)
        frn_rep = evaluate(ds, make_head_fn("frn", HeadParams()), n=5, k=1, q=4,
                           trials=150, seed=4)
        proto_rep = evaluate(ds, make_head_fn("proto", HeadParams()), n=5, k=1, q=4,
                             trials=150, seed=4)
        assert frn_rep.accuracy_mean >= 0.9
        assert abs(proto_rep.accuracy_mean - 0.2) <= 3 * proto_rep.ci95_halfwidth

    def test_dsn_near_chance_ctx_above(self):
        s = spec("equal-mean-multiset", n_classes=5, items_per_class=10, r=8, d=16,
                 noise_sigma=0.05, seed=12)
        ds = gen_equal_mean(s)
        dsn_rep = evaluate(ds, make_head_fn("dsn", HeadParams()), n=5, k=1, q=4,
                           trials=150, seed=5)
        ctx_rep = evaluate(ds, make_head_fn("ctx", HeadParams()), n=5, k=1, q=4,
                           trials=150, seed=5)
        assert abs(dsn_rep.accuracy_mean - 0.2) <= 5 * dsn_rep.ci95_halfwidth
        assert ctx_rep.accuracy_mean >= 0.2 + 3 * ctx_rep.ci95_halfwidth


class TestGenerate:
    def test_dispatch(self):
        for kind in ("gaussian-prototype", "pose-permutation", "equal-mean-multiset"):
            ds = generate(spec(kind, d=16, r=4, n_classes=4))
            assert ds.n_classes == 4


class TestContainer:
    def test_roundtrip(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        loaded = ingest(path)
        assert refops.class_counts(loaded) == refops.class_counts(ds)
        for cid in ds.classes:
            for a, b in zip(ds.classes[cid], loaded.classes[cid]):
                np.testing.assert_array_equal(a.values, b.values)

    def test_roundtrip_f32(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data32.frnt"
        save_dataset(path, ds, dtype=np.float32)
        loaded = ingest(path)
        assert refops.class_counts(loaded) == refops.class_counts(ds)
        for cid in ds.classes:
            for a, b in zip(ds.classes[cid], loaded.classes[cid]):
                assert b.values.dtype == np.float32  # the container's dtype, not upcast
                np.testing.assert_array_equal(a.values.astype(np.float32), b.values)

    def test_ingest_casts_once_to_a_requested_dtype(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data32.frnt"
        save_dataset(path, ds, dtype=np.float32)
        native = ingest(path)
        wide = ingest(path, np.float64)
        for cid in ds.classes:
            for a, b in zip(native.classes[cid], wide.classes[cid]):
                assert b.values.dtype == np.float64
                np.testing.assert_array_equal(a.values.astype(np.float64), b.values)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ingested_items_own_writable_memory(self, tmp_path, dtype):
        # every item is copied out of the bytes read from the file, so no
        # map keeps that buffer alive
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds, dtype=dtype)
        for maps in ingest(path).classes.values():
            for m in maps:
                assert m.values.flags.owndata and m.values.flags.writeable
                m.values[0, 0] += 1.0

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_ingest_rejects_a_dtype_other_than_f32_or_f64(self, tmp_path, dtype):
        # cast item by item, int32 read a gaussian container as all-zero maps
        # and float16 rounded every value, each then widened to float64
        path = tmp_path / "data.frnt"
        save_dataset(path, gen_gaussian(spec("gaussian-prototype")))
        for where in (path, tmp_path / "absent.frnt"):  # raised before the file is opened
            with pytest.raises(ValueError, match=f"unsupported dtype {np.dtype(dtype)}"):
                ingest(where, dtype)

    def test_a_value_past_the_requested_range_reports_its_offset(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        ds.classes[1][0].values[1, 2] = 1e300  # item 6 of (4, 12) maps: flat index 302
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        assert ingest(path).classes[1][0].values[1, 2] == 1e300
        with pytest.raises(IngestError, match="flat index 302 once cast to float32") as err:
            ingest(path, np.float32)
        assert err.value.byte_offset == len(MAGIC) + 24 + 302 * 8

    def test_bytes_after_the_checksum_report_their_offset(self, tmp_path):
        path = tmp_path / "data.frnt"
        save_dataset(path, gen_gaussian(spec("gaussian-prototype")))
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 17)
        with pytest.raises(IngestError, match="17 bytes follow the checksum") as err:
            ingest(path)
        assert err.value.byte_offset == size

    @pytest.mark.parametrize("rank", [0, 2, 4, 9])
    def test_a_rank_other_than_three_reports_offset_16(self, tmp_path, rank):
        # otherwise well formed: dims, payload and a valid CRC
        dims = (2,) * rank
        body = MAGIC + struct.pack("<III", 1, 2, rank) + struct.pack(f"<{rank}I", *dims)
        body += np.zeros(dims, dtype="<f8").tobytes()
        path = tmp_path / "rank.frnt"
        path.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(IngestError, match=f"must be rank 3, got rank {rank}") as err:
            ingest(path)
        assert err.value.byte_offset == 16

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.frnt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 40)
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert err.value.byte_offset == 0

    def test_bad_version_offset(self, tmp_path):
        path = tmp_path / "bad.frnt"
        blob = MAGIC + struct.pack("<III", 99, 2, 1) + struct.pack("<I", 1)
        path.write_bytes(blob + b"\x00" * 12)
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert err.value.byte_offset == 8

    def test_truncation_detected(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IngestError):
            ingest(path)

    def test_corruption_detected_by_crc(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert "checksum" in str(err.value)

    def test_non_finite_payload_reports_byte_offset(self, tmp_path):
        import binascii as _crc

        tensor = np.zeros((2, 2, 2), dtype="<f8")
        tensor[1, 0, 1] = np.nan  # flat index 5
        header = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", 2, 2, 2)
        body = header + tensor.tobytes()
        path = tmp_path / "nan.frnt"
        path.write_bytes(body + struct.pack("<I", _crc.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert err.value.byte_offset == len(header) + 5 * 8

    def test_overflowing_dims_report_payload_offset(self, tmp_path):
        # dims (2^32-1, 2^32-1, 2) wrap around in int64; the CRC is valid
        big = 2**32 - 1
        body = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", big, big, 2)
        path = tmp_path / "huge.frnt"
        path.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert err.value.byte_offset == len(MAGIC) + 12 + 3 * 4
        assert "payload" in str(err.value)

    @pytest.mark.parametrize("dims", [(3, 0, 4), (3, 2, 0), (0, 2, 4)])
    def test_zero_size_dimension_reports_its_offset(self, tmp_path, dims):
        # a well-formed container (valid CRC, empty payload) and a manifest
        # with one row per item
        body = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", *dims)
        path = tmp_path / "empty.frnt"
        path.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        rows = ["item_index,class_id"] + [f"{i},{i % 2}" for i in range(dims[0])]
        manifest_path(path).write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert err.value.byte_offset == len(MAGIC) + 12 + 4 * dims.index(0)
        assert "size 0" in str(err.value)

    def test_missing_manifest(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        manifest_path(path).unlink()
        with pytest.raises(IngestError):
            ingest(path)

    @pytest.mark.parametrize("row", ["x,0", "0,1.5", "0"])
    def test_malformed_manifest_row(self, tmp_path, row):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        lines = manifest_path(path).read_text().splitlines()
        manifest_path(path).write_text("\n".join([lines[0], row] + lines[2:]) + "\n")
        with pytest.raises(IngestError):
            ingest(path)

    def test_incomplete_manifest(self, tmp_path):
        ds = gen_gaussian(spec("gaussian-prototype"))
        path = tmp_path / "data.frnt"
        save_dataset(path, ds)
        lines = manifest_path(path).read_text().strip().splitlines()
        manifest_path(path).write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(IngestError):
            ingest(path)


@pytest.fixture(scope="module")
def saved_container(tmp_path_factory):
    """A small f64 container, its manifest beside it, and the container's bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "data.frnt"
    save_dataset(path, gen_gaussian(spec("gaussian-prototype", n_classes=2, items_per_class=2,
                                         r=2, d=3)))
    return path, path.read_bytes()


class TestContainerFuzzed:
    """Every damaged container raises IngestError with a byte offset, nothing else."""

    @staticmethod
    def _ingest_raises(path, blob):
        path.write_bytes(blob)
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert err.value.byte_offset is not None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_truncated_at_any_length(self, saved_container, data):
        path, blob = saved_container
        cut = data.draw(st.integers(0, len(blob) - 1))
        self._ingest_raises(path, blob[:cut])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_any_single_bit_flipped(self, saved_container, data):
        path, blob = saved_container
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        self._ingest_raises(path, bytes(flipped))
