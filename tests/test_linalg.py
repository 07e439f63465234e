"""Matrix primitive contracts: products, SPD solves, Gram symmetry.

The products tested are those of the autodiff ``matmul`` node, from which
every training graph is built.
"""

import numpy as np
import pytest

from frn import autodiff as ad
from frn import linalg

import reference_ops as refops


def matmul(a, b):
    return ad.matmul(a, b).value


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_orthogonal_rows(self):
        out = matmul(np.array([[1.0, 0.0]]), np.array([[0.0], [5.0]]))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_hand_computed_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_associativity_on_well_conditioned_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal((6, 5))
            b = rng.standard_normal((5, 7))
            c = rng.standard_normal((7, 4))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-4, atol=1e-10)


class TestSpdSolve:
    def test_scaled_identity(self):
        x = linalg.spd_solve(2.0 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(x, 0.5 * np.eye(2))

    def test_two_by_two_against_explicit_inverse(self):
        # inv([[2,1],[1,2]]) = [[2,-1],[-1,2]] / 3, so x = [2/3, -1/3]
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([[1.0], [0.0]])
        x = linalg.spd_solve(a, b)
        np.testing.assert_allclose(x, [[2.0 / 3.0], [-1.0 / 3.0]], atol=1e-14)

    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 4))
        np.testing.assert_allclose(linalg.spd_solve(np.eye(3), b), b, atol=1e-14)

    def test_residual_bound_f64(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            g = rng.standard_normal((n, n))
            a = g @ g.T + np.eye(n)
            b = rng.standard_normal((n, int(rng.integers(1, 5))))
            x = linalg.spd_solve(a, b)
            resid = np.linalg.norm(a @ x - b)
            assert resid <= 1e-10 * max(np.linalg.norm(b), 1e-300)

    def test_residual_bound_f32(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            g = rng.standard_normal((n, n)).astype(np.float32)
            a = (g @ g.T + np.eye(n, dtype=np.float32)).astype(np.float32)
            a = ((a + a.T) / 2).astype(np.float32)
            b = rng.standard_normal((n, 3)).astype(np.float32)
            x = linalg.spd_solve(a, b)
            assert x.dtype == np.float32
            resid = np.linalg.norm(a @ x - b)
            assert resid <= 1e-4 * np.linalg.norm(b)

    def test_non_positive_pivot_reports_index(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(linalg.NumericalError) as err:
            linalg.spd_solve(a, np.eye(2))
        assert err.value.pivot == 1

    def test_asymmetric_rejected(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            linalg.spd_solve(a, np.eye(2))

    def test_shape_errors(self):
        with pytest.raises(linalg.ShapeError):
            linalg.spd_solve(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(linalg.ShapeError):
            linalg.spd_solve(np.eye(2), np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        # with a NaN pair this matrix used to factor "successfully" into NaNs
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(linalg.NumericalError, match="non-finite"):
            linalg.spd_solve(a, np.ones((3, 1)))


class TestCOrderedResults:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_result_is_c_ordered_in_the_input_dtype(self, dtype):
        # LAPACK leaves potrs's solution in Fortran order; a stacked product
        # by a Fortran-ordered right operand runs about twice as long
        rng = np.random.default_rng(8)
        for n in (1, 4, 17):
            s = rng.standard_normal((n, n + 2))
            a = linalg.add_ridge(linalg.gram(s, "outer"), 0.5).astype(dtype)
            for m in (1, 3, n):  # one right-hand side, and many
                b = rng.standard_normal((n, m)).astype(dtype)
                x = linalg.spd_solve(a, b)
                assert x.flags.c_contiguous and x.dtype == dtype, (n, m)
                np.testing.assert_allclose(a @ x, b, atol=1e-3 if dtype == np.float32 else 1e-10)
            inv = linalg.spd_inverse(a)
            assert inv.flags.c_contiguous and inv.dtype == dtype
            for out in (linalg.gram(s, "outer"), linalg.gram(s, "inner"),
                        linalg.add_ridge(np.asfortranarray(a), 1.0)):
                assert out.flags.c_contiguous


class TestSpdInverse:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_the_mirrored_potri_inverse(self, dtype):
        # potrf then potri, the lower triangle mirrored: exactly symmetric,
        # C-ordered, in the input dtype, and an inverse to the bound of the
        # spd_solve residual tests
        rng = np.random.default_rng(5)
        for n in (1, 3, 17, 125):
            s = rng.standard_normal((n, n + 2))
            a = linalg.add_ridge(linalg.gram(s, "outer"), 0.5).astype(dtype)
            inv = linalg.spd_inverse(a)
            assert inv.flags.c_contiguous and inv.dtype == dtype
            assert np.array_equal(inv, refops.potri_inverse(a))
            assert np.array_equal(inv, inv.T)
            resid = np.linalg.norm(inv.astype(np.float64) @ a.astype(np.float64) - np.eye(n))
            assert resid <= (1e-10 if dtype == np.float64 else 1e-4) * np.linalg.norm(np.eye(n))

    def test_non_positive_pivot_reports_index(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(linalg.NumericalError) as err:
            linalg.spd_inverse(a)
        assert err.value.pivot == 1

    def test_non_square_is_a_shape_error(self):
        for shape in ((2, 3), (3,)):
            with pytest.raises(linalg.ShapeError):
                linalg.spd_inverse(np.ones(shape))


class TestGram:
    def test_identity_both_modes(self):
        np.testing.assert_array_equal(linalg.gram(np.eye(2), "outer"), np.eye(2))
        np.testing.assert_array_equal(linalg.gram(np.eye(2), "inner"), np.eye(2))

    def test_row_vector(self):
        s = np.array([[1.0, 1.0]])
        np.testing.assert_array_equal(linalg.gram(s, "outer"), [[2.0]])
        np.testing.assert_array_equal(linalg.gram(s, "inner"), [[1.0, 1.0], [1.0, 1.0]])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            for mode in ("outer", "inner"):
                g = linalg.gram(s, mode)
                assert np.array_equal(g, g.T)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            linalg.gram(np.eye(2), "sideways")


class TestSolveRoundTrip:
    def test_solve_then_multiply_reproduces_rhs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            g = rng.standard_normal((n, n))
            a = g @ g.T + np.eye(n)
            b = rng.standard_normal((n, 2))
            x = linalg.spd_solve(a, b)
            np.testing.assert_allclose(a @ x, b, atol=1e-10 * (1 + np.abs(b).max()))


class TestValidation:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(linalg.ShapeError):
            linalg.as_matrix(np.ones(3))

    def test_as_matrix_rejects_non_finite(self):
        with pytest.raises(linalg.NumericalError):
            linalg.as_matrix(np.array([[1.0, np.nan]]))

    def test_resolve_dtype(self):
        assert linalg.resolve_dtype("f32") == np.float32
        assert linalg.resolve_dtype("f64") == np.float64
        # only the two precision names: a dtype object is not one
        for bad in ("f16", "float32", np.float32, np.dtype(np.float64)):
            with pytest.raises(ValueError):
                linalg.resolve_dtype(bad)

    def test_add_ridge_does_not_mutate(self):
        a = np.zeros((2, 2))
        out = linalg.add_ridge(a, 0.5)
        np.testing.assert_array_equal(a, np.zeros((2, 2)))
        np.testing.assert_array_equal(out, 0.5 * np.eye(2))
