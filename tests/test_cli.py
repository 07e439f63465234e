"""End-to-end CLI runs: generation, evaluation, benchmark, training, and
the exit-code contract."""

import binascii
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from frn.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SAMPLING, main
from frn.data import MAGIC, manifest_path
from frn.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def run(argv):
    return main(argv)


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.frnt"
    code = run([
        "gen", "--kind", "gaussian-prototype", "--classes", "6", "--items", "8",
        "--r", "2", "--d", "6", "--sigma", "0.0", "--seed", "3",
        "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


class TestGen:
    def test_writes_container_and_manifest(self, dataset):
        assert dataset.exists()
        assert Path(str(dataset) + ".labels.csv").exists()


class TestEval:
    def test_perfect_on_noiseless_data(self, dataset, tmp_path):
        out = tmp_path / "eval_out"
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "5",
            "--shot", "1", "--query", "3", "--trials", "50", "--seed", "0",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "eval.json").read_text())
        assert payload["report"]["accuracy_mean"] == 1.0
        assert payload["config_hash"]
        assert "config_hash" in (out / "eval.txt").read_text()

    def test_byte_identical_reruns(self, dataset, tmp_path):
        args = [
            "eval", "--head", "proto", "--data", str(dataset), "--way", "4",
            "--shot", "1", "--query", "3", "--trials", "20", "--seed", "7",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == EXIT_OK
        assert run(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "eval.json").read_bytes() == (out2 / "eval.json").read_bytes()

    def test_f32_precision_runs(self, dataset, tmp_path):
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "2", "--trials", "10", "--seed", "0",
            "--precision", "f32", "--out", str(tmp_path / "f32"),
        ])
        assert code == EXIT_OK

    def test_missing_data_is_io_error(self, tmp_path):
        code = run([
            "eval", "--head", "frn", "--data", str(tmp_path / "nope.frnt"),
            "--trials", "10", "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_non_integer_manifest_row_is_io_error(self, dataset, tmp_path):
        lines = manifest_path(dataset).read_text().splitlines()
        manifest_path(dataset).write_text("\n".join([lines[0], "x,0"] + lines[2:]) + "\n")
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_overflowing_dims_are_io_error(self, dataset, tmp_path):
        # dims (2^32-1, 2^32-1, 2) wrap around in int64; the CRC is valid
        big = 2**32 - 1
        body = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", big, big, 2)
        dataset.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("dims", [(3, 0, 4), (3, 2, 0), (0, 2, 4)])
    def test_zero_size_dimension_is_io_error(self, dataset, tmp_path, dims):
        body = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", *dims)
        dataset.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        rows = ["item_index,class_id"] + [f"{i},{i % 2}" for i in range(dims[0])]
        manifest_path(dataset).write_text("\n".join(rows) + "\n")
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_infeasible_way_is_sampling_error(self, dataset, tmp_path):
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "40",
            "--trials", "10", "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_SAMPLING

    def test_all_heads_run(self, dataset, tmp_path):
        for head in ("frn", "proto", "dsn", "ctx"):
            code = run([
                "eval", "--head", head, "--data", str(dataset), "--way", "3",
                "--shot", "1", "--query", "2", "--trials", "10", "--seed", "1",
                "--out", str(tmp_path / head),
            ])
            assert code == EXIT_OK, head


class TestToF32:
    @staticmethod
    def _dataset(dtype):
        import numpy as np

        from frn.episodes import Dataset

        rng = np.random.default_rng(0)
        items = rng.standard_normal((24, 2, 6)).astype(dtype)
        return Dataset.from_arrays(items, [i % 4 for i in range(24)])

    @staticmethod
    def _episode(ds):
        from frn.episodes import sample_episode, trial_rng

        return sample_episode(ds, 3, 2, 2, trial_rng(0, 0))

    def test_f32_episode_is_shared_not_copied(self):
        import numpy as np

        from frn.cli import _to_f32

        episode = self._episode(self._dataset(np.float32))
        out = _to_f32(episode)
        assert out is episode  # an all-float32 episode passes through
        for new, old in zip(out.support, episode.support):
            assert np.shares_memory(new.values, old.values)
        for (new, _), (old, _) in zip(out.queries, episode.queries):
            assert np.shares_memory(new.values, old.values)

    def test_f64_episode_becomes_f32(self):
        import numpy as np

        from frn.cli import _to_f32

        episode = self._episode(self._dataset(np.float64))
        out = _to_f32(episode)
        assert {p.values.dtype for p in out.support} == {np.dtype(np.float32)}
        assert {qm.values.dtype for qm, _ in out.queries} == {np.dtype(np.float32)}
        np.testing.assert_array_equal(
            out.support[0].values, episode.support[0].values.astype(np.float32)
        )
        assert [y for _, y in out.queries] == [y for _, y in episode.queries]

    def test_evaluate_leaves_dataset_unchanged(self):
        import numpy as np

        from frn.cli import _to_f32
        from frn.episodes import evaluate, make_head_fn
        from frn.head import HeadParams

        ds = self._dataset(np.float32)
        maps = [m for cid in sorted(ds.classes) for m in ds.classes[cid]]
        before = [m.values.copy() for m in maps]
        for m in maps:
            m.values.flags.writeable = False  # a head writing into them raises
        heads = [make_head_fn(kind, HeadParams()) for kind in ("frn", "proto", "dsn", "ctx")]
        heads += [make_head_fn("frn", HeadParams(), formulation=f) for f in ("direct", "woodbury")]
        for inner in heads:
            evaluate(ds, lambda ep, _inner=inner: _inner(_to_f32(ep)), n=3, k=2, q=2,
                     trials=3, seed=0)
        for m, old in zip(maps, before):
            np.testing.assert_array_equal(m.values, old)


class TestContainerPrecision:
    """An f32 container scores and trains as an f64 one holding the same values."""

    @staticmethod
    def _containers(tmp_path):
        from frn.data import GenSpec, generate, ingest, save_dataset

        ds = generate(GenSpec(6, 8, 2, 6, 0.05, "gaussian-prototype", 3))
        dirs = {}
        for tag in ("f32", "f64"):
            dirs[tag] = tmp_path / tag
            dirs[tag].mkdir()
        save_dataset(dirs["f32"] / "data.frnt", ds, dtype=np.float32)
        rounded = ingest(dirs["f32"] / "data.frnt")
        save_dataset(dirs["f64"] / "data.frnt", rounded, dtype=np.float64)
        return dirs

    def test_eval_in_f64_is_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for where in self._containers(tmp_path).values():
            monkeypatch.chdir(where)  # the same --data text in both configs
            code = run([
                "eval", "--head", "frn", "--data", "data.frnt", "--way", "3", "--shot", "2",
                "--query", "3", "--trials", "6", "--precision", "f64", "--seed", "0",
                "--out", "out",
            ])
            assert code == EXIT_OK
            outputs.append((where / "out" / "eval.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_pretrain_then_train_are_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for where in self._containers(tmp_path).values():
            monkeypatch.chdir(where)
            assert run(["pretrain", "--data", "data.frnt", "--steps", "3", "--batch-size", "8",
                        "--embed-dim", "4", "--seed", "0", "--out", "pre"]) == EXIT_OK
            assert run(["train", "--head", "frn", "--data", "data.frnt",
                        "--from", "pre/checkpoint.bin", "--way", "3", "--shot", "1",
                        "--query", "2", "--episodes", "3", "--val-every", "3",
                        "--val-trials", "4", "--val-query", "3", "--seed", "0",
                        "--out", "fine"]) == EXIT_OK
            outputs.append([(where / run_dir / name).read_bytes()
                            for run_dir in ("pre", "fine")
                            for name in ("checkpoint.bin", "history.jsonl")])
        assert outputs[0] == outputs[1]


class TestBench:
    def test_small_benchmark(self, tmp_path):
        out = tmp_path / "bench_out"
        code = run([
            "bench", "--b", "2", "--shot", "1", "--r", "4", "--d", "8",
            "--iters", "5", "--warmup", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "bench.json").read_text())
        assert payload["direct"]["iterations"] == 5
        assert payload["config_hash"]
        assert payload["seed"] == 0

    def test_bad_shape_is_config_error(self, tmp_path):
        code = run([
            "bench", "--b", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_CONFIG


class TestTrainAndCheckpoints:
    def test_train_then_eval_from_checkpoint(self, dataset, tmp_path):
        train_out = tmp_path / "train_out"
        code = run([
            "train", "--head", "frn", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "3", "--episodes", "8", "--lr", "0.02",
            "--embed-dim", "4", "--val-every", "4", "--val-trials", "10",
            "--val-query", "3", "--seed", "0", "--out", str(train_out),
        ])
        assert code == EXIT_OK
        ckpt = train_out / "checkpoint.bin"
        assert ckpt.exists()
        history = (train_out / "history.jsonl").read_text().strip().splitlines()
        assert json.loads(history[0])["event"] == "config"
        assert len(history) == 1 + 8
        for line in history[1:]:
            entry = json.loads(line)
            assert entry["ce"] + entry["aux"] == pytest.approx(entry["loss"], rel=1e-12)

        eval_out = tmp_path / "eval_ckpt"
        code = run([
            "eval", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
            "--shot", "1", "--query", "2", "--trials", "10", "--seed", "0",
            "--out", str(eval_out),
        ])
        assert code == EXIT_OK
        payload = json.loads((eval_out / "eval.json").read_text())
        assert payload["report"]["accuracy_mean"] >= 0.9

    def test_eval_from_checkpoint_scores_in_f32(self, dataset, tmp_path, monkeypatch):
        import numpy as np

        import frn.head
        from frn.training import save_checkpoint

        rng = np.random.default_rng(0)
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(ckpt, {
            "embed_weight": rng.standard_normal((6, 4)), "embed_bias": np.zeros(4),
            "alpha": np.float64(0.0), "beta": np.float64(0.0), "gamma": np.float64(0.25),
        }, {"train_config": {"head": "frn"}})
        seen = []
        original = frn.head.reconstruct

        def spy(q_batch, pool, *args, **kwargs):
            seen.append((np.asarray(q_batch).dtype, pool.values.dtype))
            return original(q_batch, pool, *args, **kwargs)

        monkeypatch.setattr(frn.head, "reconstruct", spy)
        code = run([
            "eval", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
            "--shot", "1", "--query", "2", "--trials", "4", "--seed", "0",
            "--precision", "f32", "--out", str(tmp_path / "eval_f32"),
        ])
        assert code == EXIT_OK
        assert seen and set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}

    def test_fixed_scalars_flagged_through(self, dataset, tmp_path):
        out = tmp_path / "fixed"
        code = run([
            "train", "--head", "frn", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "2", "--episodes", "4", "--embed-dim", "4",
            "--fix-alpha", "--fix-beta", "--val-every", "0",
            "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        from frn.training import load_checkpoint

        params, meta = load_checkpoint(out / "checkpoint.bin")
        assert float(params["alpha"]) == 0.0
        assert float(params["beta"]) == 0.0
        assert meta["train_config"]["learn_alpha"] is False

    def test_pretrain_then_finetune(self, dataset, tmp_path):
        pre_out = tmp_path / "pre"
        code = run([
            "pretrain", "--data", str(dataset), "--steps", "10",
            "--batch-size", "16", "--embed-dim", "4", "--seed", "0",
            "--out", str(pre_out),
        ])
        assert code == EXIT_OK
        assert (pre_out / "checkpoint.bin").exists()
        assert (pre_out / "pretrain.json").exists()

        fine_out = tmp_path / "fine"
        code = run([
            "train", "--head", "frn", "--data", str(dataset),
            "--from", str(pre_out / "checkpoint.bin"), "--way", "3",
            "--shot", "1", "--query", "2", "--episodes", "4", "--embed-dim", "4",
            "--val-every", "0", "--seed", "0", "--out", str(fine_out),
        ])
        assert code == EXIT_OK

    @pytest.mark.parametrize("embed_dim", [[], ["--embed-dim", "5"]])
    def test_ctx_finetunes_from_an_embedding_of_another_width(self, dataset, tmp_path, embed_dim):
        # the ctx projections act on the trained features: the checkpoint's
        # width (4), not --embed-dim or the data's d (6)
        pre_out = tmp_path / "pre"
        assert run(["pretrain", "--data", str(dataset), "--steps", "2", "--batch-size", "8",
                    "--embed-dim", "4", "--seed", "0", "--out", str(pre_out)]) == EXIT_OK
        out = tmp_path / "ctx"
        code = run([
            "train", "--head", "ctx", "--data", str(dataset),
            "--from", str(pre_out / "checkpoint.bin"), "--way", "3", "--shot", "1",
            "--query", "2", "--episodes", "2", "--val-every", "2", "--val-trials", "4", "--val-query", "2",
            "--seed", "0", "--out", str(out), *embed_dim,
        ])
        assert code == EXIT_OK
        params, _ = load_checkpoint(out / "checkpoint.bin")
        assert params["ctx_key"].shape == params["ctx_value"].shape == (4, 4)

    def test_ctx_training_runs(self, dataset, tmp_path):
        out = tmp_path / "ctx"
        code = run([
            "train", "--head", "ctx", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "2", "--episodes", "3", "--embed-dim", "4",
            "--val-every", "0", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK


def _f64_tensor(name, shape):
    return {"name": name, "dtype": "f64", "shape": shape}


#: checkpoints with a valid checksum whose structure is broken:
#: (header, payload, declared header length or None for the true one)
BAD_CHECKPOINTS = {
    "no_tensors_key": ({"precision": "f64"}, b"", None),
    "header_past_end": ({"tensors": []}, b"", 4096),
    "short_payload": ({"tensors": [_f64_tensor("w", [2, 2])]}, bytes(8 * 3), None),
    "negative_shape": ({"tensors": [_f64_tensor("w", [-1, 2])]}, bytes(8 * 2), None),
    "trailing_bytes": ({"tensors": [_f64_tensor("w", [2])]}, bytes(8 * 3), None),
}


class TestBadCheckpoint:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_rejected_as_io_error(self, dataset, tmp_path, case):
        header, payload, header_len = BAD_CHECKPOINTS[case]
        header_bytes = json.dumps(header).encode("utf-8")
        if header_len is None:
            header_len = len(header_bytes)
        body = struct.pack("<II", CHECKPOINT_VERSION, header_len) + header_bytes + payload
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(CHECKPOINT_MAGIC + body + struct.pack("<I", binascii.crc32(body)))
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)
        code = run([
            "eval", "--data", str(dataset), "--from", str(ckpt), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    # well-formed files whose tensors do not fit the command or the data (d = 6):
    # (extra eval flags, tensors, words the error must name)
    UNFIT = {
        "no_embed_weight": ([], {"embed_bias": (4,)}, ["'embed_weight'"]),
        "ctx_without_value": (["--head", "ctx"], {"embed_weight": (6, 4), "embed_bias": (4,),
                                                  "ctx_key": (4, 4)}, ["'ctx_value'"]),
        "embed_rows_not_d": ([], {"embed_weight": (5, 4), "embed_bias": (4,)},
                             ["'embed_weight'", "(5, 4)", "(6, 4)"]),
    }

    @pytest.mark.parametrize("case", sorted(UNFIT))
    def test_unfit_tensors_rejected_as_io_error(self, dataset, tmp_path, capsys, case):
        flags, shapes, named = self.UNFIT[case]
        ckpt = tmp_path / "unfit.bin"
        save_checkpoint(ckpt, {n: np.ones(shape) for n, shape in shapes.items()})
        code = run(["eval", "--data", str(dataset), "--from", str(ckpt), "--trials", "10",
                    "--seed", "0", "--out", str(tmp_path / "x")] + flags)
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert all(word in err for word in named), err

    def test_train_from_unfit_embedding_is_io_error(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "unfit.bin"
        save_checkpoint(ckpt, {"embed_weight": np.ones((5, 4)), "embed_bias": np.zeros(4)})
        code = run(["train", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
                    "--query", "2", "--episodes", "2", "--embed-dim", "4", "--val-every", "0",
                    "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == EXIT_IO
        assert "(5, 4)" in capsys.readouterr().err
