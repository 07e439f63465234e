"""Reconstruction head contracts: closed-form solution, both formulations,
scoring, and the algebraic invariants they must satisfy."""

import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frn import head
from frn.head import (
    FeatureMap,
    HeadParams,
    SupportPool,
    choose_formulation,
    effective_lambda,
    episode_logits,
    reconstruct,
    reconstruct_direct,
    reconstruct_woodbury,
    reconstruction_weights,
)
from frn.linalg import NumericalError, ShapeError, add_ridge, gram, spd_inverse

from reference_ops import softmax


def random_pool(rng, k, r, d, class_id=0, scale=None):
    scale = scale if scale is not None else 1.0 / math.sqrt(d)
    return SupportPool(class_id=class_id, k=k, values=rng.standard_normal((k * r, d)) * scale)


class TestEffectiveLambda:
    def test_resnet_shapes(self):
        p = HeadParams(alpha=0.0)
        assert effective_lambda(p, k=5, r=25, d=640) == pytest.approx(0.1953125)

    def test_balanced_case(self):
        p = HeadParams(alpha=0.0)
        assert effective_lambda(p, k=1, r=7, d=7) == 1.0

    def test_plug_in_arithmetic(self):
        p = HeadParams(alpha=math.log(2.0))
        assert effective_lambda(p, k=2, r=1, d=2) == pytest.approx(2.0)

    def test_floor(self):
        p = HeadParams(alpha=-100.0)
        assert effective_lambda(p, k=1, r=1, d=1) == head.LAMBDA_FLOOR

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            effective_lambda(HeadParams(), k=0, r=1, d=1)


class TestHeadParams:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            HeadParams(gamma=0.0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            HeadParams(alpha=float("nan"))

    def test_rho(self):
        assert HeadParams(beta=0.0).rho == 1.0
        assert HeadParams(beta=1.0).rho == pytest.approx(math.e)


class TestReconstructExamples:
    def test_identity_support(self):
        # S = I2 with k=2, r=1, d=2 gives lam = 1, so Q_bar = Q / 2
        pool = SupportPool(class_id=0, k=2, values=np.eye(2))
        recs = reconstruct_direct(np.array([[1.0, 0.0]]), pool, HeadParams())
        assert len(recs) == 1
        np.testing.assert_allclose(recs[0].q_bar, [[0.5, 0.0]], atol=1e-14)
        assert recs[0].sq_error == pytest.approx(0.25, abs=1e-14)

    def test_exact_membership_limit(self):
        # a query equal to a support row is reconstructed almost exactly
        rng = np.random.default_rng(0)
        s = rng.standard_normal((4, 3))
        pool = SupportPool(class_id=0, k=4, values=s)
        lam_target = 1e-8
        alpha = math.log(lam_target * 3 / 4)
        recs = reconstruct_direct(s[1:2], pool, HeadParams(alpha=alpha))
        assert recs[0].sq_error <= 1e-6

    def test_against_normal_equations_oracle(self):
        # oracle: explicit 2x2 inversion of (S^T S + lam I), q_hat = (S^T S) x
        # with S = [[1,0],[1,1],[0,1]], Q = [[2,1]], lam = 3/2:
        #   S^T S = [[2,1],[1,2]], x = inv([[3.5,1],[1,3.5]]) @ [2,1]
        #   q_hat = [1.2, 0.8], error = 0.8^2 + 0.2^2 = 0.68
        s = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        pool = SupportPool(class_id=0, k=3, values=s)
        recs = reconstruct_direct(np.array([[2.0, 1.0]]), pool, HeadParams())
        assert recs[0].sq_error == pytest.approx(0.68, abs=1e-12)

        m = s.T @ s + 1.5 * np.eye(2)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
        x = inv @ np.array([2.0, 1.0])
        q_hat = s.T @ s @ x
        expected = float(np.sum((np.array([2.0, 1.0]) - q_hat) ** 2))
        assert recs[0].sq_error == pytest.approx(expected, abs=1e-12)

    def test_woodbury_matches_direct_on_examples(self):
        pool = SupportPool(class_id=0, k=2, values=np.eye(2))
        q = np.array([[1.0, 0.0]])
        d = reconstruct_direct(q, pool, HeadParams())[0]
        w = reconstruct_woodbury(q, pool, HeadParams())[0]
        np.testing.assert_allclose(w.q_bar, d.q_bar, atol=1e-14)
        assert w.sq_error == pytest.approx(d.sq_error, abs=1e-14)

    def test_zero_support(self):
        pool = SupportPool(class_id=0, k=1, values=np.zeros((2, 3)))
        q = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 1.0]])
        rec = reconstruct_woodbury(q, pool, HeadParams())[0]
        np.testing.assert_array_equal(rec.q_bar, np.zeros((2, 3)))
        assert rec.sq_error == pytest.approx(np.sum(q**2) / 2)

    def test_shape_mismatch(self):
        pool = SupportPool(class_id=0, k=1, values=np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            reconstruct_direct(np.ones((2, 4)), pool, HeadParams())


class TestChooseFormulation:
    def test_wide_features_pick_direct(self):
        assert choose_formulation(k=1, r=25, d=640) == "direct"

    def test_large_pool_picks_woodbury(self):
        assert choose_formulation(k=5, r=25, d=64) == "woodbury"

    def test_tie_goes_to_woodbury(self):
        assert choose_formulation(k=1, r=25, d=25) == "woodbury"


class TestScoringTakesTheChosenSide:
    # (k, r, d, side): d > kr, kr > d, and the tie kr = d
    @pytest.mark.parametrize("k,r,d,side", [
        (2, 3, 9, "direct"), (3, 3, 5, "woodbury"), (2, 3, 6, "woodbury"),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_errors_are_the_kernels_bit_for_bit(self, k, r, d, side, dtype):
        assert choose_formulation(k, r, d) == side
        chosen, other = reconstruct_direct, reconstruct_woodbury
        if side == "woodbury":
            chosen, other = other, chosen
        rng = np.random.default_rng(k * 100 + d)
        pools = [SupportPool(c, k, rng.standard_normal((k * r, d)).astype(dtype)) for c in range(3)]
        q = rng.standard_normal((4 * r, d)).astype(dtype)
        params = HeadParams(alpha=0.4, beta=-0.3)
        want = np.column_stack([chosen(q, pool, params).sq_errors for pool in pools])
        # the two sides round differently, so bit equality tells them apart
        assert not np.array_equal(
            want, np.column_stack([other(q, pool, params).sq_errors for pool in pools]))
        assert np.array_equal(head.frn_distances(q, pools, params), want)
        for c, pool in enumerate(pools):
            recs, ref = reconstruct(q, pool, params), chosen(q, pool, params)
            assert np.array_equal(recs.sq_errors, want[:, c])
            assert all(np.array_equal(a.q_bar, b.q_bar) for a, b in zip(recs, ref, strict=True))


    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pools_of_mixed_shot_score_on_their_own_sides(self, workers, dtype, monkeypatch):
        # r = 3, d = 10: 1-, 2- and 3-shot pools score on the direct side
        # (in one pass), 4- and 5-shot pools on woodbury; columns keep pool order
        monkeypatch.setattr(head, "_WORKERS", workers)
        r, d, shots = 3, 10, (4, 1, 5, 3, 2, 1)
        rng = np.random.default_rng(31)
        pools = [SupportPool(c, k, rng.standard_normal((k * r, d)).astype(dtype))
                 for c, k in enumerate(shots)]
        assert {choose_formulation(k, r, d) for k in shots[1::2]} == {"direct"}
        assert {choose_formulation(k, r, d) for k in shots[:4:2]} == {"woodbury"}
        q = rng.standard_normal((6 * r, d)).astype(dtype)
        params = HeadParams(alpha=-0.2, beta=0.3)
        got = head.frn_distances(q, pools, params)
        kernels = {"direct": reconstruct_direct, "woodbury": reconstruct_woodbury}
        for c, pool in enumerate(pools):
            kernel = kernels[choose_formulation(pool.k, r, d)]
            assert np.array_equal(got[:, c], kernel(q, pool, params).sq_errors), c

    # the chooser picks the other side for each of these shapes: each kernel
    # keeps its own, or criterion 1 would compare a side with itself
    @pytest.mark.parametrize("kernel,k,r,d,side", [
        (reconstruct_direct, 3, 3, 5, "direct"), (reconstruct_direct, 2, 3, 6, "direct"),
        (reconstruct_woodbury, 2, 3, 9, "woodbury"),
    ])
    def test_each_single_pool_kernel_keeps_its_side(self, kernel, k, r, d, side, monkeypatch):
        assert choose_formulation(k, r, d) != side
        ran = []
        for name in ("_direct_step", "_woodbury_factor"):
            def spy(*args, _run=getattr(head, name), _name=name):
                ran.append(_name)
                return _run(*args)

            monkeypatch.setattr(head, name, spy)
        rng = np.random.default_rng(k * 10 + d)
        kernel(rng.standard_normal((4 * r, d)), random_pool(rng, k, r, d), HeadParams())
        assert ran and set(ran) == {"_direct_step" if side == "direct" else "_woodbury_factor"}


class TestFormulationEquivalence:
    def test_random_instances_f64(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            r = int(rng.integers(1, 9))
            d = int(rng.integers(1, 33))
            pool = random_pool(rng, k, r, d)
            q = rng.standard_normal((2 * r, d)) / math.sqrt(d)
            params = HeadParams(alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2))
            for rd, rw in zip(
                reconstruct_direct(q, pool, params), reconstruct_woodbury(q, pool, params)
            ):
                np.testing.assert_allclose(rd.q_bar, rw.q_bar, atol=1e-10)
                assert rd.sq_error == pytest.approx(rw.sq_error, abs=1e-10)

    def test_random_instances_f32(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            r = int(rng.integers(1, 9))
            d = int(rng.integers(1, 33))
            vals = (rng.standard_normal((k * r, d)) / math.sqrt(d)).astype(np.float32)
            pool = SupportPool(class_id=0, k=k, values=vals)
            q = (rng.standard_normal((r, d)) / math.sqrt(d)).astype(np.float32)
            params = HeadParams(alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1))
            rd = reconstruct_direct(q, pool, params)[0]
            rw = reconstruct_woodbury(q, pool, params)[0]
            assert rd.q_bar.dtype == np.float32
            np.testing.assert_allclose(rd.q_bar, rw.q_bar, atol=1e-4)


class TestShotDuplicationInvariance:
    def test_duplicated_pool_gives_same_reconstruction(self):
        # lam doubles with the pool because of the kr/d rescale, which makes
        # (2 S^T S + 2 lam I)^-1 (2 S^T S) = (S^T S + lam I)^-1 (S^T S)
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            r = int(rng.integers(1, 6))
            d = int(rng.integers(1, 17))
            pool = random_pool(rng, k, r, d)
            doubled = SupportPool(class_id=0, k=2 * k, values=np.vstack([pool.values, pool.values]))
            q = rng.standard_normal((r, d)) / math.sqrt(d)
            params = HeadParams(alpha=rng.uniform(-1, 1))
            a = reconstruct(q, pool, params)[0]
            b = reconstruct(q, doubled, params)[0]
            assert np.max(np.abs(a.q_bar - b.q_bar)) <= 1e-10


class TestBatchingExactness:
    def test_batched_equals_per_query_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            r = int(rng.integers(1, 7))
            d = int(rng.integers(1, 25))
            b = int(rng.integers(2, 6))
            pool = random_pool(rng, k, r, d)
            queries = rng.standard_normal((b * r, d)) / math.sqrt(d)
            params = HeadParams(alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1))
            for fn in (reconstruct_direct, reconstruct_woodbury):
                batched = fn(queries, pool, params)
                for i, rec in enumerate(batched):
                    single = fn(queries[i * r : (i + 1) * r].copy(), pool, params)[0]
                    assert np.array_equal(rec.q_bar, single.q_bar)
                    assert rec.sq_error == single.sq_error


def per_block_direct(q, pool, params):
    """The per-query product loop the direct head ran before it scored in
    kr space: [(q_bar, sq_error)] per r-row block, kept as the reference."""
    r, d, s = pool.r, pool.d, pool.values
    rho = np.asarray(params.rho, dtype=s.dtype)
    m_inv = spd_inverse(add_ridge(gram(s, "outer"), effective_lambda(params, pool.k, r, d)))
    st_ = np.ascontiguousarray(s.T)
    out = []
    for i in range(0, q.shape[0], r):
        block = q[i : i + r]
        q_bar = (((block @ st_) @ m_inv) @ s) * rho
        diff = (block - q_bar).astype(np.float64, copy=False)
        out.append((q_bar, float(np.sum(diff * diff) / r)))
    return out


def per_block_woodbury(q, pool, params):
    """The per-query loop of the woodbury head, kept as the reference: from
    X = (S^T S + lam I)^-1 and P = (1 - rho) I + rho lam X, Q_bar =
    rho ((Q X) S^T) S and the error ||Q P||^2 / r, since Q - Q_bar = Q P."""
    r, d, s = pool.r, pool.d, pool.values
    rho, lam = params.rho, effective_lambda(params, pool.k, r, d)
    x = spd_inverse(add_ridge(gram(s, "inner"), lam))
    p = add_ridge(x * (rho * lam), 1.0 - rho)
    out = []
    for i in range(0, q.shape[0], r):
        block = q[i : i + r]
        q_bar = (((block @ x) @ s.T) @ s) * np.asarray(rho, dtype=s.dtype)
        resid = (block @ p).astype(np.float64, copy=False)
        out.append((q_bar, float(np.sum(resid * resid) / r)))
    return out


class TestAgainstPerBlockLoops:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_q_bar_and_woodbury_errors_are_bit_identical(self, dtype):
        rng = np.random.default_rng(17)
        for _ in range(40):
            k, r, b = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
            d = int(rng.integers(1, 40))
            pool = SupportPool(0, k, (rng.standard_normal((k * r, d)) / math.sqrt(d)).astype(dtype))
            q = (rng.standard_normal((b * r, d)) / math.sqrt(d)).astype(dtype)
            params = HeadParams(alpha=rng.uniform(-2, 2), beta=rng.uniform(-1, 1))
            direct = reconstruct_direct(q, pool, params)
            wood = reconstruct_woodbury(q, pool, params)
            assert len(direct) == len(wood) == b
            for i, ((qd, _), (qw, ew)) in enumerate(
                zip(per_block_direct(q, pool, params), per_block_woodbury(q, pool, params))
            ):
                assert direct[i].q_bar.dtype == dtype
                assert np.array_equal(direct[i].q_bar, qd)
                assert np.array_equal(wood[i].q_bar, qw)
                assert wood.sq_errors[i] == ew and wood[i].sq_error == ew

    def test_result_is_a_sequence_of_reconstructions(self):
        rng = np.random.default_rng(18)
        assert choose_formulation(2, 3, 9) == "direct"  # the side whose Q_bar is formed on indexing
        pool = random_pool(rng, 2, 3, 9, class_id=4)
        recs = reconstruct(rng.standard_normal((12, 9)), pool, HeadParams())
        assert recs.sq_errors.shape == (4,) and recs.sq_errors.dtype == np.float64
        assert [rec.class_id for rec in recs] == [4] * 4
        assert np.array_equal(recs[-1].q_bar, recs[3].q_bar)
        assert [rec.sq_error for rec in recs] == list(recs.sq_errors)
        with pytest.raises(IndexError):
            recs[4]


class TestQueriesAndPoolsOfTwoDtypes:
    @pytest.mark.parametrize("q_dtype, s_dtype", [(np.float32, np.float64),
                                                  (np.float64, np.float32)])
    def test_the_per_block_bits_in_float64(self, q_dtype, s_dtype):
        # a pass computes in the common dtype of its queries and pools; with
        # one pool dtype, rho is in that dtype, as the per-block loops take it
        rng = np.random.default_rng(19)
        for _ in range(30):
            k, r, b = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
            d = int(rng.integers(1, 40))
            pools = [SupportPool(c, k, random_pool(rng, k, r, d).values.astype(s_dtype))
                     for c in range(3)]
            q = (rng.standard_normal((b * r, d)) / math.sqrt(d)).astype(q_dtype)
            params = HeadParams(alpha=rng.uniform(-2, 2), beta=rng.uniform(-1, 1))
            dist = head.frn_distances(q, pools, params)
            side = choose_formulation(k, r, d)
            for c, pool in enumerate(pools):
                direct = reconstruct_direct(q, pool, params)
                wood = reconstruct_woodbury(q, pool, params)
                chosen = direct if side == "direct" else wood
                assert np.array_equal(dist[:, c], chosen.sq_errors)
                for i, ((qd, _), (qw, ew)) in enumerate(
                    zip(per_block_direct(q, pool, params), per_block_woodbury(q, pool, params),
                        strict=True)
                ):
                    assert direct[i].q_bar.dtype == wood[i].q_bar.dtype == np.float64
                    assert np.array_equal(direct[i].q_bar, qd)
                    assert np.array_equal(wood[i].q_bar, qw)
                    assert wood.sq_errors[i] == ew


class TestAnEmptyQueryBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scores_no_query_and_factors_every_pool_once(self, workers, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", workers)
        rng = np.random.default_rng(36)
        # kr = 6 < d = 8 scores on the direct side, kr = 9 >= d on woodbury
        pools = [random_pool(rng, 2, 3, 8, class_id=0), random_pool(rng, 3, 3, 8, class_id=1)]
        factored = []
        for name in ("_direct_factor", "_woodbury_factor"):
            def spy(*args, name=name, factor=getattr(head, name)):
                factored.append(name)
                return factor(*args)

            monkeypatch.setattr(head, name, spy)
        q = np.empty((0, 8))
        for kernel, name in ((reconstruct_direct, "_direct_factor"),
                             (reconstruct_woodbury, "_woodbury_factor")):
            for pool in pools:
                factored.clear()
                recs = kernel(q, pool, HeadParams())
                assert len(recs) == 0 and list(recs) == [] and recs.sq_errors.shape == (0,)
                assert factored == [name]
        factored.clear()
        assert head.frn_distances(q, pools, HeadParams()).shape == (0, 2)
        assert factored == ["_direct_factor", "_woodbury_factor"]


class TestReconstructionWeights:
    @pytest.mark.parametrize("q_dtype, s_dtype", [(np.float32, np.float32), (np.float64, np.float64),
                                                  (np.float32, np.float64), (np.float64, np.float32)])
    def test_the_per_query_products_bit_for_bit(self, q_dtype, s_dtype):
        # W_i = (Q_i S^T) M^-1, with the C-ordered S^T and M^-1 the direct
        # side's factor, as one query alone would form it
        rng = np.random.default_rng(37)
        for _ in range(20):
            k, r, b = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
            d = int(rng.integers(1, 40))
            pool = SupportPool(0, k, random_pool(rng, k, r, d).values.astype(s_dtype))
            q = (rng.standard_normal((b * r, d)) / math.sqrt(d)).astype(q_dtype)
            params = HeadParams(alpha=rng.uniform(-2, 2), beta=rng.uniform(-1, 1))
            m_inv, _ = head._direct_factor(pool.values, effective_lambda(params, k, r, d))
            st_ = np.ascontiguousarray(pool.values.T)
            ws = reconstruction_weights(q, pool, params)
            assert len(ws) == b
            for i, w in enumerate(ws):
                ref = np.matmul(np.matmul(q[i * r : (i + 1) * r], st_), m_inv)
                assert w.dtype == ref.dtype == np.result_type(q_dtype, s_dtype)
                assert np.array_equal(w, ref)


class TestQueryStackOncePerEpisode:
    @pytest.mark.parametrize("formulation", ["direct", "woodbury"])
    def test_validated_and_squared_once_for_all_pools(self, formulation, monkeypatch):
        # kr = 6 < d = 8 scores on the direct side, kr = 6 > d = 5 on woodbury
        d = {"direct": 8, "woodbury": 5}[formulation]
        assert choose_formulation(2, 3, d) == formulation
        rng = np.random.default_rng(19)
        pools = [random_pool(rng, 2, 3, d, class_id=c) for c in range(4)]
        q = rng.standard_normal((5 * 3, d))
        params = HeadParams(alpha=0.3, beta=0.2)
        expected = head.frn_distances(q, pools, params)
        calls = {"validate": 0, "square": 0}
        as_matrix, row_dots = head.as_matrix, head._row_dots

        def counted_as_matrix(*args, **kwargs):
            calls["validate"] += 1
            return as_matrix(*args, **kwargs)

        def counted_row_dots(a, b):
            calls["square"] += a is b
            return row_dots(a, b)

        monkeypatch.setattr(head, "as_matrix", counted_as_matrix)
        monkeypatch.setattr(head, "_row_dots", counted_row_dots)
        assert np.array_equal(head.frn_distances(q, pools, params), expected)
        # woodbury reduces each pool's residual and never needs ||Q||^2
        assert calls == {"validate": 1, "square": 1 if formulation == "direct" else 0}


def _score_in_child(q, pool, expected):
    """Forked child: score again; exit code 1 unless the bits match the parent's."""
    if not np.array_equal(reconstruct_direct(q, pool, HeadParams()).sq_errors, expected):
        raise SystemExit(1)


class TestThreadedDirectKernel:
    @staticmethod
    def _cases(dtype, mixed=False):
        rng = np.random.default_rng(22 if mixed else 21)
        for b in range(1, 8):  # 2 and 3 workers get uneven and empty chunks
            k, r = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            # mixed: pools of 1 to 4 shots at one (r, d), all on the direct side
            shots = (4, 1, 3, 2) if mixed else (k,) * 3
            d = max(shots) * r + int(rng.integers(1, 30))
            assert choose_formulation(max(shots), r, d) == "direct"  # frn_distances runs the pass
            pools = [
                SupportPool(c, k, (rng.standard_normal((k * r, d)) / math.sqrt(d)).astype(dtype))
                for c, k in enumerate(shots)
            ]
            q = (rng.standard_normal((b * r, d)) / math.sqrt(d)).astype(dtype)
            params = HeadParams(alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1), gamma=0.5)
            yield q, pools, params

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_for_any_worker_count(self, workers, dtype, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 1)
        serial = [
            (head.frn_distances(q, pools, p), episode_logits(q, pools, p))
            for q, pools, p in self._cases(dtype)
        ]
        threads = set()
        row_dots = head._row_dots

        def spy(a, b):
            threads.add(threading.get_ident())
            return row_dots(a, b)

        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_row_dots", spy)
        for (q, pools, p), (dist, logits) in zip(self._cases(dtype), serial):
            assert np.array_equal(head.frn_distances(q, pools, p), dist)
            assert np.array_equal(episode_logits(q, pools, p), logits)
            for pool in pools:
                recs = reconstruct_direct(q, pool, p)
                assert recs[0].q_bar.dtype == dtype
                for rec, (q_bar, _) in zip(recs, per_block_direct(q, pool, p), strict=True):
                    assert np.array_equal(rec.q_bar, q_bar)
        # with more than one worker, chunks after the first ran on other threads
        assert (len(threads) > 1) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3, 8])  # 8 is more than any case's b
    def test_any_block_size_gives_the_serial_bits(self, block, workers, monkeypatch):
        # several pools, of one shot or of several, score in one pass
        cases = [*self._cases(np.float32), *self._cases(np.float32, mixed=True)]
        monkeypatch.setattr(head, "_WORKERS", 1)
        serial = [head.frn_distances(q, pools, p) for q, pools, p in cases]
        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_BLOCK", block)
        for (q, pools, p), dist in zip(cases, serial):
            assert np.array_equal(head.frn_distances(q, pools, p), dist)
            for c, pool in enumerate(pools):
                recs = reconstruct_direct(q, pool, p)
                assert np.array_equal(recs.sq_errors, dist[:, c])
                for rec, (q_bar, _) in zip(recs, per_block_direct(q, pool, p), strict=True):
                    assert np.array_equal(rec.q_bar, q_bar)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slices_of_the_query_stack_give_the_unsliced_bits(self, workers, monkeypatch):
        # with no byte allowance the pass holds only one pool's A at once, so
        # it takes the stack in slices of b / n queries
        cases = [*self._cases(np.float32), *self._cases(np.float64, mixed=True)]
        whole = [head.frn_distances(q, pools, p) for q, pools, p in cases]
        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_PASS_BYTES", 0)
        for (q, pools, p), dist in zip(cases, whole):
            assert np.array_equal(head.frn_distances(q, pools, p), dist)

    def test_memory_does_not_grow_with_the_pool_count(self, monkeypatch):
        # many one-pool-sized A's at once would scale with the class count,
        # as when the whole base set is scored against every base class
        monkeypatch.setattr(head, "_PASS_BYTES", 0)
        rng = np.random.default_rng(26)
        k, r, d, b, n_pools = 8, 5, 64, 200, 16
        pools = [random_pool(rng, k, r, d, class_id=c) for c in range(n_pools)]
        q = rng.standard_normal((b * r, d))
        # the parent held one pool's A = Q S^T and W over the whole stack at once
        one_a = b * r * k * r * q.itemsize
        # the pass also copies each S^T and keeps each pool's kr x kr
        # factor, which is smaller, since kr < d on the direct side
        supports = sum(p.values.nbytes for p in pools)
        head.frn_distances(q, pools, HeadParams())  # start the executor's threads
        tracemalloc.start()
        try:
            head.frn_distances(q, pools, HeadParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding A and W for every pool at once would peak near 11 MB here
        assert peak < 2 * (one_a + supports)

    @pytest.mark.parametrize("n_pools", [1, 2, 5])
    def test_an_episode_dispatches_twice_whatever_its_pool_count(self, n_pools, monkeypatch):
        # one pass over every direct pool: one phase-1 and one phase-2 dispatch
        # per worker thread, not two per pool
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(25)
        pools = [random_pool(rng, 2, 3, 16, class_id=c) for c in range(n_pools)]
        q = rng.standard_normal((12 * 3, 16))
        submitted, submit = [], head._submit

        def counted(fn, *args):
            submitted.append(fn)
            return submit(fn, *args)

        monkeypatch.setattr(head, "_submit", counted)
        head.frn_distances(q, pools, HeadParams())
        assert len(submitted) == 2

    def test_each_block_is_taken_once_under_contention(self, monkeypatch):
        # more workers than cores take one-query blocks with a short switch
        # interval: a block taken twice or skipped breaks the count or the bits
        cases = list(self._cases(np.float64))
        monkeypatch.setattr(head, "_WORKERS", 1)
        serial = [head.frn_distances(q, pools, p) for q, pools, p in cases]
        monkeypatch.setattr(head, "_WORKERS", 3)
        monkeypatch.setattr(head, "_BLOCK", 1)
        taken, lock = [], threading.Lock()
        products = head._query_products

        def counted(q, st, a):
            with lock:
                taken.append(len(q))
            products(q, st, a)

        monkeypatch.setattr(head, "_query_products", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for (q, pools, p), want in zip(cases, serial):
                for _ in range(5):
                    taken.clear()
                    assert np.array_equal(head.frn_distances(q, pools, p), want)
                    assert taken == [1] * (len(q) // pools[0].r * len(pools))
        finally:
            sys.setswitchinterval(interval)

    def test_a_factor_error_is_raised_after_every_block(self, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 2)
        monkeypatch.setattr(head, "_BLOCK", 1)
        rng = np.random.default_rng(23)
        pool, b = random_pool(rng, 2, 3, 16), 6
        q = rng.standard_normal((b * 3, 16))
        finished = []
        products = head._query_products

        def slow_products(*args):
            time.sleep(0.01)  # the caller's factor fails long before the workers end
            products(*args)
            finished.append(1)

        def failing_factor(*args):
            raise NumericalError("Cholesky factorization failed at pivot 0", pivot=0)

        monkeypatch.setattr(head, "_query_products", slow_products)
        monkeypatch.setattr(head, "_direct_factor", failing_factor)
        with pytest.raises(NumericalError) as info:
            reconstruct_direct(q, pool, HeadParams())
        assert info.value.pivot == 0
        assert len(finished) == b

    def test_the_factor_overlaps_the_query_products(self, monkeypatch):
        # the factor waits, bounded, for a worker's first block: a kernel that
        # factored the pool before phase 1 started would time out here
        monkeypatch.setattr(head, "_WORKERS", 2)
        caller = threading.get_ident()
        started, overlapped = threading.Event(), []
        products, factor = head._query_products, head._direct_factor

        def worker_products(*args):
            if threading.get_ident() != caller:
                started.set()
            products(*args)

        def waiting_factor(*args):
            overlapped.append(started.wait(timeout=10))
            return factor(*args)

        monkeypatch.setattr(head, "_query_products", worker_products)
        monkeypatch.setattr(head, "_direct_factor", waiting_factor)
        rng = np.random.default_rng(24)
        pool = random_pool(rng, 2, 3, 16)
        q = rng.standard_normal((4 * 3, 16))
        errs = reconstruct_direct(q, pool, HeadParams()).sq_errors
        monkeypatch.setattr(head, "_WORKERS", 1)
        monkeypatch.setattr(head, "_direct_factor", factor)
        assert overlapped == [True]
        assert np.array_equal(errs, reconstruct_direct(q, pool, HeadParams()).sq_errors)

    def test_concurrent_callers_share_the_executor(self, monkeypatch):
        # more workers than cores and callers racing for the executor's first
        # build: every caller still gets the serial bits for its own queries
        cases = list(self._cases(np.float64))
        monkeypatch.setattr(head, "_WORKERS", 1)
        serial = [head.frn_distances(q, pools, p) for q, pools, p in cases]
        monkeypatch.setattr(head, "_WORKERS", 3)
        monkeypatch.setattr(head, "_executor", None)
        results = [[] for _ in cases]

        def caller(i):
            q, pools, p = cases[i]
            for _ in range(5):
                results[i].append(head.frn_distances(q, pools, p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got, want in zip(results, serial):
            assert len(got) == 5 and all(np.array_equal(g, want) for g in got)

    def test_callers_errstate_holds_in_a_worker_chunk(self, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 2)
        pool = SupportPool(0, 1, np.ones((2, 8), dtype=np.float32))
        q = np.ones((4, 8), dtype=np.float32)
        q[2:] = 3e38  # only the second query, a worker's chunk, overflows Q S^T
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            reconstruct_direct(q, pool, HeadParams())
        with np.errstate(over="ignore", invalid="ignore"):
            errs = reconstruct_direct(q, pool, HeadParams()).sq_errors
        assert np.isfinite(errs[0])

    # newer Pythons warn on any fork of a process that has threads; this
    # fork is the case under test
    @pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks:DeprecationWarning")
    def test_a_forked_child_can_score(self, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(22)
        pool = random_pool(rng, 1, 3, 12)
        q = rng.standard_normal((4 * 3, 12))
        expected = reconstruct_direct(q, pool, HeadParams()).sq_errors  # threads now exist
        child = multiprocessing.get_context("fork").Process(
            target=_score_in_child, args=(q, pool, expected)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestThreadedWoodburyPass:
    @staticmethod
    def _cases(dtype, mixed=False):
        rng = np.random.default_rng(28 if mixed else 27)
        for b in range(1, 8):  # b = 1, and b below 2 and 3 workers: uneven and empty chunks
            k, r = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            # mixed: 1- to 4-shot pools at one (r, d), the 1-shot ones on the direct side
            shots = (4, 1, 3, 1, 2) if mixed else (k,) * 3
            d = r + 1 if mixed else int(rng.integers(1, k * r + 1))  # kr >= d from two shots up
            assert {choose_formulation(k, r, d) for k in shots} == (
                {"direct", "woodbury"} if mixed else {"woodbury"})
            pools = [
                SupportPool(c, k, (rng.standard_normal((k * r, d)) / math.sqrt(d)).astype(dtype))
                for c, k in enumerate(shots)
            ]
            q = (rng.standard_normal((b * r, d)) / math.sqrt(d)).astype(dtype)
            params = HeadParams(alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1), gamma=0.5)
            yield q, pools, params

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_for_any_worker_count(self, workers, dtype, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 1)
        serial = [
            (head.frn_distances(q, pools, p), episode_logits(q, pools, p))
            for q, pools, p in self._cases(dtype)
        ]
        threads = set()
        sq_rows = head._sq_rows

        def spy(resid):
            threads.add(threading.get_ident())
            return sq_rows(resid)

        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_sq_rows", spy)
        for (q, pools, p), (dist, logits) in zip(self._cases(dtype), serial):
            assert np.array_equal(head.frn_distances(q, pools, p), dist)
            assert np.array_equal(episode_logits(q, pools, p), logits)
            for c, pool in enumerate(pools):
                recs = reconstruct_woodbury(q, pool, p)
                assert np.array_equal(recs.sq_errors, dist[:, c])
                assert recs[0].q_bar.dtype == dtype
                for rec, (q_bar, err) in zip(recs, per_block_woodbury(q, pool, p), strict=True):
                    assert np.array_equal(rec.q_bar, q_bar) and rec.sq_error == err
        # with more than one worker, chunks after the first ran on other threads
        assert (len(threads) > 1) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mixed_shot_pools_run_one_pass_in_pool_order(self, workers, dtype, monkeypatch):
        passes, run = [], head._pass

        def counted(q, pools, direct, *args, **kwargs):
            passes.append(([p.class_id for p in pools], list(direct)))
            return run(q, pools, direct, *args, **kwargs)

        monkeypatch.setattr(head, "_pass", counted)
        monkeypatch.setattr(head, "_WORKERS", workers)
        kernels = {"direct": reconstruct_direct, "woodbury": reconstruct_woodbury}
        for q, pools, p in self._cases(dtype, mixed=True):
            passes.clear()
            got = head.frn_distances(q, pools, p)
            sides = [choose_formulation(pool.k, pool.r, pool.d) for pool in pools]
            assert passes == [(list(range(len(pools))), [side == "direct" for side in sides])]
            for c, (pool, side) in enumerate(zip(pools, sides)):
                assert np.array_equal(got[:, c], kernels[side](q, pool, p).sq_errors), c
            # the single-pool kernels are each a pass over one pool
            passes.clear()
            reconstruct_woodbury(q, pools[0], p)
            assert passes == [([0], [False])]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slices_of_a_mixed_side_stack_give_the_unsliced_bits(self, workers, monkeypatch):
        # with no byte allowance the two 1-shot direct pools take the stack in
        # halves, and the woodbury pools are scored slice by slice with them
        cases = [*self._cases(np.float32, mixed=True), *self._cases(np.float64, mixed=True)]
        whole = [head.frn_distances(q, pools, p) for q, pools, p in cases]
        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_PASS_BYTES", 0)
        for (q, pools, p), dist in zip(cases, whole):
            assert np.array_equal(head.frn_distances(q, pools, p), dist)

    @pytest.mark.parametrize("n_pools", [1, 2, 5])
    def test_an_episode_dispatches_once_whatever_its_pool_count(self, n_pools, monkeypatch):
        # one pass over every woodbury pool: one dispatch per worker thread
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(29)
        pools = [random_pool(rng, 3, 3, 6, class_id=c) for c in range(n_pools)]
        assert choose_formulation(3, 3, 6) == "woodbury"
        q = rng.standard_normal((12 * 3, 6))
        submitted, submit = [], head._submit

        def counted(fn, *args):
            submitted.append(fn)
            return submit(fn, *args)

        monkeypatch.setattr(head, "_submit", counted)
        head.frn_distances(q, pools, HeadParams())
        assert len(submitted) == 1

    def test_a_mixed_side_episode_dispatches_twice(self, monkeypatch):
        # one pass over the pools of both sides: phase 1's blocks and phase 2's
        # chunks, not a woodbury pass and a direct pass of their own
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(32)
        pools = [random_pool(rng, k, 3, 8, class_id=c) for c, k in enumerate((1, 3, 2, 4))]
        assert [choose_formulation(p.k, 3, 8) for p in pools] == ["direct", "woodbury"] * 2
        q = rng.standard_normal((6 * 3, 8))
        submitted, submit = [], head._submit

        def counted(fn, *args):
            submitted.append(fn)
            return submit(fn, *args)

        monkeypatch.setattr(head, "_submit", counted)
        head.frn_distances(q, pools, HeadParams())
        assert len(submitted) == 2

    @pytest.mark.parametrize("n_queries, waits", [(1, 0), (8, 1)])
    def test_only_a_dispatch_is_waited_for(self, n_queries, waits, monkeypatch):
        # a woodbury-only pass has no phase-1 block, and one query one chunk:
        # a phase with nothing submitted does not wait
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(33)
        pools = [random_pool(rng, 3, 3, 6, class_id=c) for c in range(2)]
        calls, wait = [], head.wait

        def counted(futures):
            calls.append(len(futures))
            return wait(futures)

        monkeypatch.setattr(head, "wait", counted)
        head.frn_distances(rng.standard_normal((n_queries * 3, 6)), pools, HeadParams())
        assert calls == [1] * waits

    def test_a_single_query_runs_on_the_caller(self, monkeypatch):
        # one chunk wakes no worker: the caller scores it, as it did serially
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(31)
        pools = [random_pool(rng, 3, 3, 6, class_id=c) for c in range(2)]
        q = rng.standard_normal((3, 6))
        submitted = []
        monkeypatch.setattr(head, "_submit", lambda fn, *args: submitted.append(fn))
        head.frn_distances(q, pools, HeadParams())
        reconstruct_woodbury(q, pools[0], HeadParams())
        assert submitted == []

    def test_a_factor_error_is_raised_before_any_dispatch(self, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(30)
        pools = [random_pool(rng, 3, 3, 6, class_id=c) for c in range(3)]
        q = rng.standard_normal((8 * 3, 6))
        submitted, inverses = [], []
        inverse = head.spd_inverse

        def failing_last_inverse(*args):
            inverses.append(1)
            if len(inverses) == len(pools):
                raise NumericalError("Cholesky factorization failed at pivot 0", pivot=0)
            return inverse(*args)

        monkeypatch.setattr(head, "_submit", lambda fn, *args: submitted.append(fn))
        monkeypatch.setattr(head, "spd_inverse", failing_last_inverse)
        with pytest.raises(NumericalError) as info:
            head.frn_distances(q, pools, HeadParams())
        assert info.value.pivot == 0 and len(inverses) == len(pools)
        assert submitted == []


class TestOneScratchPerPass:
    # (shots, r, d, dtype): eval-wide's episode, all direct, and a mixed-side one
    SHAPES = {
        "eval-wide": ((5,) * 5, 25, 640, np.float32),
        "mixed-side": ((1, 5, 2, 5, 1), 25, 64, np.float64),
    }
    #: bytes past the named buffers: the factors, and each step's temporaries
    MARGIN = 1 << 19

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_peak_is_a_per_direct_pool_and_one_scratch(self, shape, monkeypatch):
        # on one thread, so the peak does not hang on how the chunks overlap
        monkeypatch.setattr(head, "_WORKERS", 1)
        shots, r, d, dtype = self.SHAPES[shape]
        rng = np.random.default_rng(33)
        pools = [SupportPool(c, k, (rng.standard_normal((k * r, d)) / math.sqrt(d)).astype(dtype))
                 for c, k in enumerate(shots)]
        q = (rng.standard_normal((75 * r, d)) / math.sqrt(d)).astype(dtype)
        sides = [choose_formulation(k, r, d) == "direct" for k in shots]
        kr = sum(k * r for k, side in zip(shots, sides) if side)
        width = max(k * r if side else d for k, side in zip(shots, sides))
        # one slice: A and S^T over the direct pools, and one scratch of the widest pool side
        bound = q.nbytes + (75 * r * kr + kr * d + 75 * r * width) * q.itemsize + self.MARGIN
        tracemalloc.start()
        try:
            head.frn_distances(q, pools, HeadParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("pass_bytes", [head._PASS_BYTES, 0])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_mixed_side_episode_is_each_pool_scored_alone(self, dtype, workers, pass_bytes,
                                                           monkeypatch):
        # r 5, d 12: the 1- and 2-shot pools score direct, their W in 25- and
        # 50-wide prefixes of 60-wide scratch rows; the 5-shot ones woodbury.
        # A pool scored alone has a scratch as wide as its own side.
        r, d, shots = 5, 12, (1, 5, 2, 5, 1)
        rng = np.random.default_rng(34)
        pools = [SupportPool(c, k, (rng.standard_normal((k * r, d)) / math.sqrt(d)).astype(dtype))
                 for c, k in enumerate(shots)]
        q = (rng.standard_normal((9 * r, d)) / math.sqrt(d)).astype(dtype)
        params = HeadParams(alpha=-0.3, beta=0.2)
        sides = [choose_formulation(k, r, d) for k in shots]
        assert sides == ["direct", "woodbury", "direct", "woodbury", "direct"]
        kernels = {"direct": reconstruct_direct, "woodbury": reconstruct_woodbury}
        monkeypatch.setattr(head, "_WORKERS", 1)
        alone = [kernels[side](q, pool, params).sq_errors for pool, side in zip(pools, sides)]
        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_PASS_BYTES", pass_bytes)
        got = head.frn_distances(q, pools, params)
        for c, errs in enumerate(alone):
            assert np.array_equal(got[:, c], errs), c


# (in_span, alpha, beta): random queries, or queries within 1e-4 of the
# span of the support rows under a small ridge, where the error cancels
REGIMES = st.one_of(
    st.tuples(st.just(False), st.floats(-2, 2), st.floats(-1, 1)),
    st.tuples(st.just(True), st.floats(-8, -2), st.just(0.0)),
)


class TestDirectErrorsProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(1, 4),
        r=st.integers(1, 6),
        extra_d=st.integers(1, 40),
        b=st.integers(1, 4),
        regime=REGIMES,
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_eps_bound_of_f64_solve(self, k, r, extra_d, b, regime, dtype, seed):
        in_span, alpha, beta = regime
        kr, d = k * r, k * r + extra_d
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((kr, d)) / math.sqrt(d)
        if in_span:
            q = rng.standard_normal((b * r, kr)) @ s + 1e-4 * rng.standard_normal((b * r, d))
        else:
            q = rng.standard_normal((b * r, d)) / math.sqrt(d)
        s, q = s.astype(dtype), q.astype(dtype)
        params = HeadParams(alpha=alpha, beta=beta)
        errs = reconstruct_direct(q, SupportPool(0, k, s), params).sq_errors

        s64, q64 = s.astype(np.float64), q.astype(np.float64)
        lam = effective_lambda(params, k, r, d)
        w = np.linalg.solve(s64 @ s64.T + lam * np.eye(kr), s64 @ q64.T).T
        resid = (q64 - params.rho * w @ s64).reshape(b, r * d)
        ref = np.sum(resid**2, axis=1) / r
        bound = 256 * np.finfo(dtype).eps * np.sum(q64.reshape(b, -1) ** 2, axis=1) / r
        assert np.all(errs >= 0)
        assert np.all(np.abs(errs - ref) <= bound), (np.abs(errs - ref) / bound).max()


class TestRidgeOptimality:
    def test_closed_form_beats_perturbations(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            k, r, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 9))
            pool = random_pool(rng, k, r, d, scale=1.0)
            q = rng.standard_normal((r, d))
            params = HeadParams(alpha=rng.uniform(-1, 1))
            lam = effective_lambda(params, k, r, d)
            w = reconstruction_weights(q, pool, params)[0]

            def objective(wmat):
                return float(np.sum((q - wmat @ pool.values) ** 2) + lam * np.sum(wmat**2))

            base = objective(w)
            for _ in range(20):
                assert base <= objective(w + 1e-3 * rng.standard_normal(w.shape)) + 1e-12


class TestSupportPermutationInvariance:
    def test_row_permutation_leaves_reconstruction_unchanged(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            k, r, d = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 17))
            pool = random_pool(rng, k, r, d)
            perm = rng.permutation(k * r)
            permuted = SupportPool(class_id=0, k=k, values=pool.values[perm])
            q = rng.standard_normal((r, d)) / math.sqrt(d)
            params = HeadParams(alpha=rng.uniform(-1, 1))
            a = reconstruct_woodbury(q, pool, params)[0]
            b = reconstruct_woodbury(q, permuted, params)[0]
            # S^T S is permutation-invariant up to float addition order
            np.testing.assert_allclose(a.q_bar, b.q_bar, atol=1e-12)
            assert a.sq_error == pytest.approx(b.sq_error, abs=1e-12)


class TestNormDamping:
    def test_reconstruction_norm_bounded_by_top_singular_value(self):
        # with rho = 1, the map Q -> Q_bar has operator norm
        # sigma_max^2 / (sigma_max^2 + lam), checked against an SVD oracle
        rng = np.random.default_rng(16)
        for _ in range(100):
            k, r, d = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            pool = random_pool(rng, k, r, d, scale=1.0)
            q = rng.standard_normal((r, d))
            params = HeadParams(alpha=rng.uniform(-1, 1))
            lam = effective_lambda(params, pool.k, r, d)
            smax = np.linalg.svd(pool.values, compute_uv=False).max()
            bound = smax**2 / (smax**2 + lam)
            rec = reconstruct(q, pool, params)[0]
            assert np.linalg.norm(rec.q_bar) <= bound * np.linalg.norm(q) + 1e-9


class TestClassScores:
    def test_two_class_softmax_arithmetic(self):
        # softmax(-0.1, -0.3) = (0.549834..., 0.450166...)
        probs = softmax(np.array([-0.1, -0.3]))
        np.testing.assert_allclose(probs, [0.5498339973124778, 0.4501660026875221], atol=1e-12)

    def test_softmax_leaves_its_argument_unchanged(self):
        rng = np.random.default_rng(22)
        for dtype in (np.float64, np.float32):
            logits = rng.standard_normal((3, 4, 5)).astype(dtype)
            before = logits.copy()
            probs = softmax(logits)
            np.testing.assert_array_equal(logits, before)
            assert probs.dtype == np.float64 and not np.shares_memory(probs, logits)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_empty_pool_list_rejected(self):
        q = FeatureMap(values=np.ones((1, 2)))
        with pytest.raises(ValueError):
            episode_logits(q, [], HeadParams())

    def test_pools_disagreeing_in_resolution_rejected(self):
        rng = np.random.default_rng(21)
        pools = [random_pool(rng, 1, 2, 4), random_pool(rng, 2, 1, 4, class_id=1)]
        # same rows and channels, but r = 2 against r = 1
        with pytest.raises(ShapeError, match="disagree"):
            head._check_pools(pools)

    def test_episode_logits_matches_per_query(self):
        rng = np.random.default_rng(20)
        pools = [
            SupportPool(class_id=c, k=2, values=rng.standard_normal((4, 5)))
            for c in range(3)
        ]
        queries = [FeatureMap(values=rng.standard_normal((2, 5))) for _ in range(4)]
        batched = episode_logits(np.vstack([q.values for q in queries]), pools, HeadParams())
        assert batched.shape == (4, 3)
        for i, q in enumerate(queries):
            single = episode_logits(q, pools, HeadParams())
            np.testing.assert_array_equal(batched[i], single[0])


class TestTypes:
    def test_feature_map_validation(self):
        with pytest.raises(ShapeError):
            FeatureMap(values=np.ones(3))

    def test_support_pool_from_maps(self):
        maps = [FeatureMap(values=np.ones((2, 3))) for _ in range(4)]
        pool = SupportPool.from_maps(7, maps)
        assert (pool.k, pool.r, pool.d) == (4, 2, 3)
        assert pool.class_id == 7

    def test_support_pool_shape_mismatch(self):
        maps = [FeatureMap(values=np.ones((2, 3))), FeatureMap(values=np.ones((3, 3)))]
        with pytest.raises(ShapeError):
            SupportPool.from_maps(0, maps)
