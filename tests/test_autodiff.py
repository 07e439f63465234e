"""Gradient checks for every autodiff op against central finite differences."""

import numpy as np
import pytest

from frn import autodiff as ad


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, x, rtol=1e-6, atol=1e-8):
    """build(Var) -> scalar Var; compares backward() grad to finite diff."""
    v = ad.Var(np.array(x, dtype=np.float64))
    loss = build(v)
    ad.backward(loss)

    def f(arr):
        return float(ad.value_of(build(ad.Var(arr))))

    fd = finite_diff(f, np.array(x, dtype=np.float64))
    np.testing.assert_allclose(v.grad, fd, rtol=rtol, atol=atol)


class TestElementwise:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        bias = rng.standard_normal(4)
        check_op(lambda v: ad.vsum(ad.mul(ad.add(v, bias), ad.add(v, bias))), x)
        # gradient w.r.t. the broadcast operand
        vb = ad.Var(bias)
        vx = ad.Var(x)
        loss = ad.vsum(ad.mul(ad.add(vx, vb), ad.add(vx, vb)))
        ad.backward(loss)
        fd = finite_diff(
            lambda b: float(np.sum((x + b) ** 2)), bias.copy()
        )
        np.testing.assert_allclose(vb.grad, fd, rtol=1e-6, atol=1e-8)

    def test_mul_div(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, size=(2, 3))
        check_op(lambda v: ad.vsum(ad.div(ad.mul(v, v), ad.add(v, 3.0))), x)

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_op(lambda v: ad.vsum(ad.exp(v)), x)
        check_op(lambda v: ad.vsum(ad.log(v)), x)
        check_op(lambda v: ad.vsum(ad.sqrt(v)), x)

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        check_op(lambda v: ad.vsum(ad.mul(ad.vsum(v, axis=1, keepdims=True), v)), x)
        check_op(lambda v: ad.mean(ad.mul(v, v)), x)

    def test_operator_sugar(self):
        x = ad.Var(np.array(2.0))
        y = ad.Var(np.array(3.0))
        loss = (x * y - 1.0) / 5.0 + (-x)
        ad.backward(loss)
        assert loss.value == pytest.approx(-1.0)
        assert x.grad == pytest.approx(3.0 / 5.0 - 1.0)
        assert y.grad == pytest.approx(2.0 / 5.0)


class TestMatrixOps:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_op(lambda v: ad.vsum(ad.mul(ad.matmul(v, b), ad.matmul(v, b))), a)
        check_op(lambda v: ad.vsum(ad.mul(ad.matmul(a, v), ad.matmul(a, v))), b)

    def test_transpose(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        check_op(lambda v: ad.vsum(ad.mul(ad.transpose(v), ad.transpose(v))), a)

    def test_add_scaled_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        s = 0.7
        check_op(lambda v: ad.vsum(ad.mul(ad.add_scaled_identity(v, s), 2.0)), a)
        vs = ad.Var(np.array(s))
        loss = ad.vsum(ad.mul(ad.add_scaled_identity(ad.Var(a), vs), ad.add_scaled_identity(a, vs)))
        ad.backward(loss)
        fd = finite_diff(
            lambda sv: float(np.sum((a + sv * np.eye(3)) ** 2)), np.array(s)
        )
        np.testing.assert_allclose(vs.grad, fd, rtol=1e-6, atol=1e-8)

    def test_spd_solve_grads(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3))
        spd = g @ g.T + 3.0 * np.eye(3)
        b = rng.standard_normal((3, 2))
        # grad through the right-hand side
        check_op(lambda v: ad.vsum(ad.mul(ad.spd_solve(spd, v), ad.spd_solve(spd, v))), b)
        # grad through the (symmetrized) matrix: build A = M + M^T to keep the
        # perturbed matrix symmetric for the finite-difference probe
        m0 = g @ g.T / 2 + 1.5 * np.eye(3)

        def build(v):
            a_sym = ad.add(v, ad.transpose(v))
            return ad.vsum(ad.mul(ad.spd_solve(a_sym, b), ad.spd_solve(a_sym, b)))

        check_op(build, m0, rtol=1e-5, atol=1e-7)

    def test_concat_and_column_stack(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 3))

        def build(v):
            stacked = ad.concat_rows([v, b])
            return ad.vsum(ad.mul(stacked, stacked))

        check_op(build, a)

        c1 = rng.standard_normal(4)

        def build_cols(v):
            mat = ad.column_stack([v, ad.mul(v, 2.0)])
            return ad.vsum(ad.mul(mat, mat))

        check_op(build_cols, c1)


class TestFusedOps:
    def test_block_sqnorm(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))

        def build(v):
            e = ad.block_sqnorm(v, 2)
            return ad.vsum(ad.mul(e, e))

        check_op(build, x)

    def test_block_mean_rows(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 3))

        def build(v):
            m = ad.block_mean_rows(v, 3)
            return ad.vsum(ad.mul(m, m))

        check_op(build, x)
        v = ad.Var(x)
        out = ad.block_mean_rows(v, 3)
        np.testing.assert_allclose(out.value, x.reshape(2, 3, 3).mean(axis=1))

    def test_pairwise_sqdist(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 4))
        check_op(lambda v: ad.vsum(ad.mul(ad.pairwise_sqdist(v, b), 1.5)), a)
        check_op(lambda v: ad.vsum(ad.mul(ad.pairwise_sqdist(a, v), 1.5)), b)
        va = ad.Var(a)
        out = ad.pairwise_sqdist(va, b)
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(out.value, expected)

    def test_row_normalize(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3)) + 0.5
        check_op(lambda v: ad.vsum(ad.mul(ad.row_normalize(v), np.arange(12.0).reshape(4, 3))), x)

    def test_row_normalize_zero_row(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        v = ad.Var(x)
        out = ad.row_normalize(v)
        np.testing.assert_allclose(out.value, [[0.0, 0.0], [0.6, 0.8]])
        ad.backward(ad.vsum(ad.mul(out, np.ones((2, 2)))))
        np.testing.assert_array_equal(v.grad[0], [0.0, 0.0])

    def test_row_softmax(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))
        check_op(lambda v: ad.vsum(ad.mul(ad.row_softmax(v), w)), x)
        out = ad.row_softmax(ad.Var(x))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_cross_entropy_logits(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        check_op(lambda v: ad.cross_entropy_logits(v, labels), logits)
        val = float(ad.value_of(ad.cross_entropy_logits(ad.Var(logits), labels)))
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        expected = np.mean(lse - logits[np.arange(4), labels])
        assert val == pytest.approx(expected, abs=1e-12)


class TestClosedFormTrainingNodes:
    @pytest.mark.parametrize("formulation", ["direct", "woodbury"])
    def test_ridge_recon_errors_grads(self, formulation):
        rng = np.random.default_rng(16)
        n, kr, r, d, b = 3, 4, 2, 5, 2
        q = rng.standard_normal((b * r, d))
        s = rng.standard_normal((n, kr, d))
        w = rng.standard_normal((b, n))

        def build(q_, s_, lam_, rho_):
            return ad.vsum(ad.mul(ad.ridge_recon_errors(q_, s_, lam_, rho_, r, formulation), w))

        check_op(lambda v: build(v, s, 0.6, 1.3), q)
        check_op(lambda v: build(q, v, 0.6, 1.3), s)
        check_op(lambda v: build(q, s, v, 1.3), np.array(0.6))
        check_op(lambda v: build(q, s, 0.6, v), np.array(1.3))

    def test_ridge_recon_errors_values(self):
        # each entry is ||Q_i - rho Q_i H_c||^2 / r with H_c = (S^T S + lam I)^-1 S^T S
        rng = np.random.default_rng(17)
        n, kr, r, d, b = 2, 3, 2, 4, 3
        q = rng.standard_normal((b * r, d))
        s = rng.standard_normal((n, kr, d))
        expected = np.empty((b, n))
        for c in range(n):
            hat = np.linalg.solve(s[c].T @ s[c] + 0.5 * np.eye(d), s[c].T @ s[c])
            diff = q - 0.9 * q @ hat
            expected[:, c] = (diff.reshape(b, -1) ** 2).sum(axis=1) / r
        for formulation in ("direct", "woodbury"):
            out = ad.ridge_recon_errors(q, s, 0.5, 0.9, r, formulation).value
            np.testing.assert_allclose(out, expected, rtol=1e-10)
        with pytest.raises(ValueError):
            ad.ridge_recon_errors(q, s, 0.5, 0.9, r, "cholesky")

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 1, 5), (1, 3, 2)])  # n*kr > d, n*kr <= d, one class
    def test_cross_class_orthogonality(self, shape):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(shape)
        check_op(lambda v: ad.cross_class_orthogonality(v), x)
        expected = sum(
            np.sum((x[i] @ x[j].T) ** 2)
            for i in range(shape[0]) for j in range(shape[0]) if i != j
        )
        value = float(ad.cross_class_orthogonality(x).value)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_stack(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        check_op(lambda v: ad.vsum(ad.mul(ad.stack([v, b, v]), ad.stack([b, v, a]))), a)


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        x = ad.Var(np.array(3.0))
        y = ad.mul(x, x)  # x^2
        z = ad.add(y, ad.mul(x, 2.0))  # x^2 + 2x
        ad.backward(z)
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_first_gradient_is_an_owned_copy(self):
        # concat_rows hands each part a view of its own gradient
        x = ad.Var(np.ones((2, 2)))
        out = ad.concat_rows([x, np.zeros((1, 2))])
        ad.backward(ad.vsum(ad.mul(out, 3.0)))
        assert x.grad.flags.owndata and x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            ad.backward(ad.Var(np.ones(3)))

    def test_composed_solve_chain(self):
        # d/d lam of sum( (G + lam I)^-1 G ) via the full graph
        rng = np.random.default_rng(15)
        g = rng.standard_normal((4, 3))
        gram = g.T @ g

        def build(lam_var):
            a = ad.add_scaled_identity(gram, lam_var)
            hat = ad.spd_solve(a, gram)
            return ad.vsum(hat)

        lam0 = np.array(0.8)
        v = ad.Var(lam0)
        ad.backward(build(v))
        fd = finite_diff(lambda lv: float(ad.value_of(build(ad.Var(lv)))), lam0, h=1e-6)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-6, atol=1e-9)
