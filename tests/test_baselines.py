"""Baseline head contracts and their consistency with the reconstruction head."""

import collections
import math
import threading
import warnings

import numpy as np
import pytest

from frn import autodiff as ad
from frn import baselines, head, training
from frn.baselines import (
    CtxParams,
    ProjectionConfig,
    ctx_distances,
    ctx_scores,
    dsn_distances,
    dsn_residual,
    dsn_scores,
    proto_distances,
    proto_scores,
)
from frn.head import (
    FeatureMap,
    HeadParams,
    SupportPool,
    frn_distances,
    reconstruct_direct,
    reconstruct_woodbury,
)
from frn.linalg import add_ridge, gram, spd_solve

import reference_ops as refops
from reference_ops import ctx_attention, proto_prototype, softmax


# Per-query loops: the reference the batched heads are checked against.


def per_query_proto(maps, pools, gamma):
    rows = []
    for q in maps:
        qv = q.mean(axis=0).astype(np.float64)
        dists = np.array(
            [float(np.sum((qv - proto_prototype(p).astype(np.float64)) ** 2)) for p in pools]
        )
        rows.append(-gamma * dists / pools[0].d)
    return np.vstack(rows)


def per_query_dsn(maps, pools, lam, gamma):
    rows = []
    for q in maps:
        qv = q.mean(axis=0)
        dists = []
        for pool in pools:
            p = pool.values.reshape(pool.k, pool.r, pool.d).mean(axis=1)
            w = spd_solve(add_ridge(gram(p, "outer"), lam), (qv[None, :] @ p.T).T).T
            resid = qv - (w @ p)[0]
            dists.append(float(np.sum(resid.astype(np.float64) ** 2)))
        rows.append(-gamma * np.array(dists) / pools[0].d)
    return np.vstack(rows)


def per_query_ctx(maps, pools, params, gamma):
    rows = []
    for q in maps:
        dists = []
        for pool in pools:
            q2, q2_bar = refops.ctx_reconstruct(q, pool.values, params)
            diff = (q2 - q2_bar).astype(np.float64)
            dists.append(float(np.sum(diff * diff) / q.shape[0]))
        rows.append(-gamma * np.array(dists) / pools[0].d)
    return np.vstack(rows)


def random_episode(rng, dtype):
    n, k, r = int(rng.integers(2, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 8))
    d, b = int(rng.integers(2, 20)), int(rng.integers(1, 9))
    pools = [
        SupportPool(class_id=c, k=k, values=rng.standard_normal((k * r, d)).astype(dtype))
        for c in range(n)
    ]
    maps = rng.standard_normal((b, r, d)).astype(dtype)
    return maps, pools


class TestBatchedAgainstPerQuery:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_proto_bit_identical(self, dtype):
        rng = np.random.default_rng(30)
        for _ in range(40):
            maps, pools = random_episode(rng, dtype)
            got = proto_scores(maps.reshape(-1, maps.shape[2]), pools, gamma=0.7)
            assert np.array_equal(got, per_query_proto(maps, pools, 0.7))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ctx_bit_identical(self, dtype):
        rng = np.random.default_rng(31)
        for i in range(40):
            maps, pools = random_episode(rng, dtype)
            d = maps.shape[2]
            params = CtxParams.identity() if i % 2 else refops.random_ctx_params(d, rng=rng)
            got = ctx_scores(maps.reshape(-1, d), pools, params, gamma=0.7)
            assert np.array_equal(got, per_query_ctx(maps, pools, params, 0.7))

    def test_ctx_pools_of_different_sizes_share_the_attention_buffer(self):
        rng = np.random.default_rng(36)
        pools = [SupportPool(c, k, rng.standard_normal((k * 4, 6))) for c, k in enumerate((3, 1, 2))]
        maps = rng.standard_normal((5, 4, 6))
        for params in (CtxParams.identity(), refops.random_ctx_params(6, 3, 5, rng=rng)):
            got = ctx_scores(maps.reshape(-1, 6), pools, params, gamma=0.7)
            assert np.array_equal(got, per_query_ctx(maps, pools, params, 0.7))

    def test_dsn_within_float64_rounding(self):
        # one solve with b right-hand sides need not round like b solves
        rng = np.random.default_rng(32)
        cfg = ProjectionConfig()
        for _ in range(40):
            maps, pools = random_episode(rng, np.float64)
            got = dsn_scores(maps.reshape(-1, maps.shape[2]), pools, gamma=0.7)
            ref = per_query_dsn(maps, pools, cfg.lambda_fixed, 0.7)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def kernel_distances(kernel):
    """(b, n) errors of one frn kernel, whichever side the shapes pick."""
    return lambda q, pools: np.column_stack(
        [kernel(q, pool, HeadParams(0.3, 0.2)).sq_errors for pool in pools])


class TestReadOnlyInputs:
    """In-place arithmetic in the heads must touch only arrays they made."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_head_scores_read_only_arrays_unchanged(self, dtype):
        rng = np.random.default_rng(34)
        for _ in range(10):
            maps, pools = random_episode(rng, dtype)
            d = maps.shape[2]
            random_proj = refops.random_ctx_params(d, rng=rng)
            # frn on the side the shapes pick, and each kernel called directly
            heads = {
                "frn": lambda q, p: frn_distances(q, p, HeadParams(0.3, 0.2)),
                "frn direct": kernel_distances(reconstruct_direct),
                "frn woodbury": kernel_distances(reconstruct_woodbury),
                "proto": lambda q, p: proto_scores(q, p, 0.7),
                "dsn": lambda q, p: dsn_scores(q, p, gamma=0.7),
                # with identity projections the head's q2 is the caller's stack itself
                "ctx identity": lambda q, p: ctx_scores(q, p, CtxParams.identity(), 0.7),
                "ctx random": lambda q, p: ctx_scores(q, p, random_proj, 0.7),
            }
            q = maps.reshape(-1, d)
            frozen_q = q.copy()
            frozen_q.flags.writeable = False
            frozen_pools = []
            for p in pools:
                values = p.values.copy()
                values.flags.writeable = False
                frozen_pools.append(SupportPool(p.class_id, p.k, values))
            assert not frozen_pools[0].values.flags.writeable
            kept_q, kept_pools = q.copy(), [p.values.copy() for p in pools]
            for name, score in heads.items():
                assert np.array_equal(score(frozen_q, frozen_pools), score(q, pools)), name
            assert np.array_equal(q, kept_q)
            assert all(np.array_equal(p.values, v) for p, v in zip(pools, kept_pools))


class TestAnEmptyQueryBatch:
    @pytest.mark.parametrize("score", [
        lambda q, pools: proto_scores(q, pools, 0.7),
        lambda q, pools: dsn_scores(q, pools, gamma=0.7),
        lambda q, pools: ctx_scores(q, pools, CtxParams.identity(), 0.7),
    ], ids=["proto", "dsn", "ctx"])
    def test_scores_no_query(self, score):
        rng = np.random.default_rng(35)
        pools = [SupportPool(c, 2, rng.standard_normal((6, 8))) for c in range(3)]
        assert score(np.empty((0, 8)), pools).shape == (0, 3)


class TestProto:
    def test_single_shot_prototype_is_pooled_support(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((3, 4))
        pool = SupportPool(class_id=0, k=1, values=vals)
        np.testing.assert_allclose(proto_prototype(pool), vals.mean(axis=0))

    def test_query_at_prototype_wins(self):
        rng = np.random.default_rng(1)
        pools = [
            SupportPool(class_id=c, k=2, values=rng.standard_normal((4, 3)))
            for c in range(3)
        ]
        proto0 = proto_prototype(pools[0])
        q = FeatureMap(values=np.tile(proto0, (2, 1)))
        dists = proto_distances(q, pools)
        assert dists.shape == (1, 3)
        assert dists[0, 0] == pytest.approx(0.0, abs=1e-12)
        logits = proto_scores(q, pools, gamma=1.0)
        assert np.argmax(logits[0]) == 0

    def test_nearer_prototype_wins(self):
        pools = [
            SupportPool(class_id=0, k=1, values=np.zeros((1, 2))),
            SupportPool(class_id=1, k=1, values=np.array([[2.0, 0.0]])),
        ]
        q = FeatureMap(values=np.array([[1.1, 0.0]]))
        dists = proto_distances(q, pools)[0]
        assert dists[1] < dists[0]
        np.testing.assert_allclose(dists, [1.1**2, 0.9**2], atol=1e-12)

    def test_logit_normalized_by_channels(self):
        pools = [
            SupportPool(class_id=0, k=1, values=np.zeros((1, 4))),
            SupportPool(class_id=1, k=1, values=np.ones((1, 4))),
        ]
        q = FeatureMap(values=np.ones((1, 4)) * 2.0)
        logits = proto_scores(q, pools, gamma=1.0)
        np.testing.assert_allclose(logits, -proto_distances(q, pools) / 4)

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((4, 3))
        pool = SupportPool(class_id=0, k=1, values=vals)
        q = FeatureMap(values=rng.standard_normal((4, 3)))
        q_perm = FeatureMap(values=q.values[rng.permutation(4)])
        d1 = proto_distances(q, [pool])
        d2 = proto_distances(q_perm, [pool])
        np.testing.assert_allclose(d1, d2, atol=1e-12)


class TestDsn:
    def test_query_in_span_has_tiny_residual(self):
        rng = np.random.default_rng(3)
        supports = rng.standard_normal((3, 6))
        q = 0.3 * supports[0] - 1.2 * supports[2]
        assert dsn_residual(q, supports, lam=1e-8) <= 1e-6

    def test_orthogonal_query(self):
        supports = np.array([[1.0, 0.0]])
        q = np.array([0.0, 1.0])
        assert dsn_residual(q, supports, lam=1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_projection_oracle_in_r3(self):
        # supports e1, e2; q = (1,1,1): residual -> ||(0,0,1)||^2 = 1 as lam -> 0
        supports = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        q = np.ones(3)
        assert dsn_residual(q, supports, lam=1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_matches_svd_projection_oracle(self):
        # oracle: orthonormal basis for the row space via SVD, then the
        # squared norm of the component outside that subspace
        rng = np.random.default_rng(4)
        for _ in range(50):
            k, d = int(rng.integers(1, 5)), int(rng.integers(5, 12))
            supports = rng.standard_normal((k, d))
            q = rng.standard_normal(d)
            _, sv, vt = np.linalg.svd(supports, full_matrices=False)
            basis = vt[sv > 1e-12]
            resid_oracle = float(np.sum((q - basis.T @ (basis @ q)) ** 2))
            assert dsn_residual(q, supports, lam=1e-8) == pytest.approx(resid_oracle, abs=1e-5)

    def test_consistency_with_reconstruction_head_at_r1(self):
        # pooled r=1 maps make the two heads solve the same ridge problem
        rng = np.random.default_rng(5)
        for _ in range(50):
            k, d = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            lam_fixed = 0.01
            vals = rng.standard_normal((k, d))
            pool = SupportPool(class_id=0, k=k, values=vals)
            q = FeatureMap(values=rng.standard_normal((1, d)))
            alpha = math.log(lam_fixed * d / k)  # makes (k*1/d) e^alpha = lam_fixed
            params = HeadParams(alpha=alpha, beta=0.0)
            frn_err = frn_distances(q, [pool], params)[0, 0]
            dsn_err = dsn_distances(q, [pool], ProjectionConfig(lambda_fixed=lam_fixed))[0]
            assert abs(frn_err - dsn_err) <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(lambda_fixed=0.0)

    def test_scores_shape(self):
        rng = np.random.default_rng(6)
        pools = [SupportPool(class_id=c, k=2, values=rng.standard_normal((4, 5))) for c in range(3)]
        q = FeatureMap(values=rng.standard_normal((2, 5)))
        logits = dsn_scores(q, pools, gamma=2.0)
        assert logits.shape == (1, 3)
        assert abs(softmax(logits).sum() - 1.0) <= 1e-6


class TestCtx:
    def test_single_key_softmax(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((1, 4))
        pool = SupportPool(class_id=0, k=1, values=s)
        q = FeatureMap(values=rng.standard_normal((3, 4)))
        q2, q2_bar = refops.ctx_reconstruct(q.values, pool.values, CtxParams.identity())
        np.testing.assert_allclose(q2_bar, np.tile(s, (3, 1)), atol=1e-12)

    def test_attention_concentrates_on_matching_row(self):
        scale = 20.0
        rows = scale * np.array([[1.0, 0.0], [0.0, 1.0]])
        pool = SupportPool(class_id=0, k=2, values=rows)
        q = np.array([rows[1]])
        attn = ctx_attention(q, pool.values)
        assert attn[0, 1] > 0.999

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        attn = ctx_attention(rng.standard_normal((5, 3)), rng.standard_normal((7, 3)))
        assert np.all(attn >= 0)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_projections_are_given_together(self):
        assert CtxParams.identity() == CtxParams()
        assert CtxParams().key_proj is None and CtxParams().value_proj is None
        with pytest.raises(ValueError):
            CtxParams(key_proj=np.eye(2))
        with pytest.raises(ValueError):
            CtxParams(value_proj=np.eye(2))

    def test_projected_scores_run(self):
        rng = np.random.default_rng(9)
        params = refops.random_ctx_params(d=5, rng=rng)
        pools = [SupportPool(class_id=c, k=2, values=rng.standard_normal((4, 5))) for c in range(3)]
        q = FeatureMap(values=rng.standard_normal((2, 5)))
        logits = ctx_scores(q, pools, params, gamma=1.0)
        assert logits.shape == (1, 3)
        assert abs(softmax(logits).sum() - 1.0) <= 1e-6

    def test_matching_support_scores_best(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 6))
        pools = [
            SupportPool(class_id=0, k=2, values=np.vstack([a, a]) / 1.0),
            SupportPool(class_id=1, k=2, values=rng.standard_normal((8, 6))),
        ]
        q = FeatureMap(values=a)
        dists = ctx_distances(q, pools, CtxParams.identity())[0]
        assert dists[0] < dists[1]

    @staticmethod
    def normalise_then_multiply(maps, pools):
        """Float64 mean squared errors with the weights normalised before the
        product by the values, as the benchmark's reference writes them."""
        q = maps.astype(np.float64)
        out = np.empty((len(q), len(pools)))
        for c, pool in enumerate(pools):
            s = pool.values.astype(np.float64)
            logits = q @ s.T / math.sqrt(q.shape[2])
            attn = np.exp(logits - logits.max(axis=2, keepdims=True))
            attn /= attn.sum(axis=2, keepdims=True)
            diff = q - attn @ s
            out[:, c] = (diff * diff).sum(axis=(1, 2)) / q.shape[1]
        return out

    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_extreme_logits_match_the_normalised_reference(self, dtype, rel):
        n, k, r, d, b = 3, 2, 4, 6, 5
        scale = math.sqrt(3e3 * math.sqrt(d) / d)  # logits of about ±1e4
        for seed in range(10):
            rng = np.random.default_rng(40 + seed)
            values = scale * rng.standard_normal((n, k * r, d))
            maps = scale * rng.standard_normal((b, r, d))
            maps[0, 0] = 3.0 * values[0, 0]  # one key dominates by far
            maps[1, 0] *= 1e-4  # logits near zero: weights spread over the pool
            maps, values = maps.astype(dtype), values.astype(dtype)
            pools = [SupportPool(class_id=c, k=k, values=values[c]) for c in range(n)]
            logits = np.einsum("brd,nkd->brnk", maps.astype(np.float64), values.astype(np.float64))
            assert 5e3 <= np.abs(logits).max() / math.sqrt(d) <= 5e4
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ctx_distances(maps.reshape(-1, d), pools, CtxParams.identity())
            assert np.all(np.isfinite(got))
            ref = self.normalise_then_multiply(maps, pools)
            assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))

    def test_grad_step_forms_each_class_logits_once(self, monkeypatch):
        # the backward reuses the forward's weights instead of recomputing them:
        # each class's logits are formed once for each query, in whatever chunks
        calls = []
        ctx_exp = baselines._ctx_exp

        def spy(q1, keys_t, out=None, sums=None):
            calls.append((id(keys_t), len(q1)))
            return ctx_exp(q1, keys_t, out, sums)

        monkeypatch.setattr(baselines, "_ctx_exp", spy)
        rng = np.random.default_rng(11)
        n, kr, r, b, d = 4, 6, 3, 5, 7
        queries, pools = rng.standard_normal((b * r, d)), rng.standard_normal((n, kr, d))
        w = rng.standard_normal((b, n))

        def loss(v):
            wk, wv = v["key"], v["value"]
            errors = ad.ctx_errors(ad.matmul(queries, wk), ad.matmul(queries, wv),
                                   ad.matmul(pools, wk), ad.matmul(pools, wv), r)
            return refops.vsum(ad.mul(errors, w))

        params = {"key": rng.standard_normal((d, d)), "value": rng.standard_normal((d, d))}
        _, grads = training.grad(loss, params)
        rows = collections.Counter()
        for key, n_rows in calls:
            rows[key] += n_rows
        assert len(rows) == n and set(rows.values()) == {b}
        assert all(np.any(g != 0) for g in grads.values())


class TestThreadedCtxPass:
    @staticmethod
    def _cases(dtype):
        rng = np.random.default_rng(60)
        for b in range(1, 8):  # b = 1, and b below 2 and 3 workers: uneven and empty chunks
            r, d = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            # pools of different kr each take their own part of the shared weight buffer
            pools = [SupportPool(c, k, rng.standard_normal((k * r, d)).astype(dtype))
                     for c, k in enumerate((3, 1, 4))]
            params = CtxParams() if b % 2 else refops.random_ctx_params(d, d_k=3, d_v=5, rng=rng)
            yield rng.standard_normal((b * r, d)).astype(dtype), pools, params

    @staticmethod
    def _projected(q, pools, params):
        maps = q.reshape(-1, pools[0].r, pools[0].d)
        q1, q2 = baselines._ctx_project(maps, params)
        keys, values = zip(*(baselines._ctx_project(p.values, params) for p in pools))
        return q1, q2, keys, values

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_for_any_worker_count(self, workers, dtype, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 1)
        cases = list(self._cases(dtype))
        serial = [ctx_distances(q, pools, params) for q, pools, params in cases]
        threads = set()
        sq_rows = baselines._sq_rows

        def spy(resid, out):
            threads.add(threading.get_ident())
            return sq_rows(resid, out)

        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(baselines, "_sq_rows", spy)
        for (q, pools, params), want in zip(cases, serial):
            assert np.array_equal(ctx_distances(q, pools, params), want)
            r = pools[0].r
            for i in range(len(q) // r):  # each query alone gives its row's bits
                one = ctx_distances(q[i * r : (i + 1) * r], pools, params)
                assert np.array_equal(one[0], want[i])
        # with more than one worker, chunks after the first ran on other threads
        assert (len(threads) > 1) == (workers > 1)

    def test_a_single_query_runs_on_the_caller(self, monkeypatch):
        # one chunk wakes no worker: the caller scores it, as it did serially
        monkeypatch.setattr(head, "_WORKERS", 2)
        q, pools, params = next(self._cases(np.float64))
        assert len(q) == pools[0].r
        submitted = []
        monkeypatch.setattr(head, "_submit", lambda fn, *args: submitted.append(fn))
        ctx_distances(q, pools, params)
        baselines.ctx_errors(*self._projected(q, pools, params), keep=[])
        assert submitted == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_keep_gives_the_scoring_bits_and_each_pools_arrays(self, workers, dtype, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", workers)
        for q, pools, params in self._cases(dtype):
            q1, q2, keys, values = self._projected(q, pools, params)
            kept = []
            err = baselines.ctx_errors(q1, q2, keys, values, keep=kept)
            assert np.array_equal(err, baselines.ctx_errors(q1, q2, keys, values))
            assert len(kept) == len(pools)
            for (e, sums, resid), s1, s2 in zip(kept, keys, values, strict=True):
                # one serial pass over the whole stack: what the backward needs
                e_ref, sums_ref = baselines._ctx_exp(q1, baselines._ctx_keys(q1, s1),
                                                     *refops.ctx_buffers(q1, s1))
                resid_ref = e_ref @ s2
                resid_ref /= sums_ref
                resid_ref -= q2
                for got, want in ((e, e_ref), (sums, sums_ref), (resid, resid_ref)):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
