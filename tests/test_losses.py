"""Loss identities of the terms training runs: cross-entropy from logits
(``autodiff.cross_entropy_logits``) and the orthogonality term
(``training._aux_term``)."""

import math

import numpy as np
import pytest

from frn import autodiff as ad
from frn.training import AUX_SCALE, _aux_term


def cross_entropy(logits, labels) -> float:
    return float(ad.cross_entropy_logits(np.atleast_2d(logits), np.asarray(labels)).value)


def aux_orthogonality(pools, scale=AUX_SCALE) -> float:
    return float(_aux_term([np.asarray(p, dtype=np.float64) for p in pools], scale).value)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        logits = np.log([1.0 - 1e-12, 1e-12])
        assert cross_entropy(logits, [0]) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_over_five(self):
        logits = np.log([0.2] * 5)
        assert cross_entropy(logits, [3]) == pytest.approx(math.log(5), abs=1e-9)

    def test_two_query_average(self):
        # p(true) = 0.5 and 0.25: (ln 2 + ln 4) / 2
        logits = np.log([[0.5, 0.5], [0.25, 0.75]])
        out = cross_entropy(logits, [0, 0])
        assert out == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)

    def test_computed_from_logits_not_probs(self):
        # extreme logits would underflow any probability-based formula
        logits = np.array([0.0, -800.0])
        assert cross_entropy(logits, [1]) == pytest.approx(800.0, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.standard_normal(4)
            assert cross_entropy(logits, [int(rng.integers(0, 4))]) >= 0.0


class TestAuxOrthogonality:
    def test_orthogonal_pools_give_zero(self):
        pools = [np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 2.0, 0.0]])]
        assert aux_orthogonality(pools) == pytest.approx(0.0, abs=1e-12)

    def test_identical_unit_vectors(self):
        # one row per class, same unit vector: each ordered pair contributes
        # ||S_i S_j^T||^2 = 1, so the loss is 0.03 * 2 = 0.06
        v = np.array([[0.6, 0.8]])
        assert aux_orthogonality([v.copy(), v.copy()]) == pytest.approx(0.06, abs=1e-12)

    def test_single_class_is_zero(self):
        assert aux_orthogonality([np.ones((2, 3))]) == 0.0

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        pools = [rng.standard_normal((3, 4)) for _ in range(3)]
        base = aux_orthogonality(pools)
        scaled = [p * rng.uniform(0.1, 10.0, size=(p.shape[0], 1)) for p in pools]
        assert aux_orthogonality(scaled) == pytest.approx(base, abs=1e-9)

    def test_zero_row_stays_finite(self):
        pools = [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 1.0]])]
        assert math.isfinite(aux_orthogonality(pools))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pools = [rng.standard_normal((2, 3)) for _ in range(3)]
            assert aux_orthogonality(pools) >= 0.0


class TestRowNormalize:
    """The row normalization the orthogonality term applies to each pool."""

    def test_unit_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        out = ad.row_normalize(x).value
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_maps_to_zero(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = ad.row_normalize(x).value
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8])
