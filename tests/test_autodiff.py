"""Gradient checks for every autodiff op, and for the test-only ops of
``reference_ops``, against central finite differences."""

import ast
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from frn import autodiff as ad
from frn import head
from frn.baselines import CtxParams, ctx_distances, proto_distances
from frn.head import HeadParams, SupportPool

import reference_ops as refops


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
        check_op(lambda v: refops.vsum(ad.mul(ad.add(v, bias), ad.add(v, bias))), x)
        # gradient w.r.t. the broadcast operand
        vb = ad.Var(bias)
        vx = ad.Var(x)
        loss = refops.vsum(ad.mul(ad.add(vx, vb), ad.add(vx, vb)))
        ad.backward(loss)
        fd = finite_diff(
            lambda b: float(np.sum((x + b) ** 2)), bias.copy()
        )
        np.testing.assert_allclose(vb.grad, fd, rtol=1e-6, atol=1e-8)

    def test_mul_div(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, size=(2, 3))
        check_op(lambda v: refops.vsum(ad.mul(ad.mul(v, v), ad.add(v, 3.0))), x)

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_op(lambda v: refops.vsum(ad.exp(v)), x)

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        check_op(lambda v: refops.vsum(ad.mul(refops.vsum(v, axis=1, keepdims=True), v)), x)


class TestMatrixOps:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_op(lambda v: refops.vsum(ad.mul(ad.matmul(v, b), ad.matmul(v, b))), a)
        check_op(lambda v: refops.vsum(ad.mul(ad.matmul(a, v), ad.matmul(a, v))), b)
        # a stack of left operands: the right operand's gradient sums over it
        stack = rng.standard_normal((2, 3, 4))
        check_op(lambda v: refops.vsum(ad.mul(ad.matmul(stack, v), ad.matmul(stack, v))), b)
        check_op(lambda v: refops.vsum(ad.mul(ad.matmul(v, b), ad.matmul(v, b))), stack)

    def test_transpose(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        check_op(lambda v: refops.vsum(ad.mul(refops.transpose(v), refops.transpose(v))), a)

    def test_add_scaled_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        s = 0.7
        check_op(lambda v: refops.vsum(ad.mul(refops.add_scaled_identity(v, s), 2.0)), a)
        vs = ad.Var(np.array(s))
        loss = refops.vsum(ad.mul(refops.add_scaled_identity(ad.Var(a), vs), refops.add_scaled_identity(a, vs)))
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
        check_op(lambda v: refops.vsum(ad.mul(refops.spd_solve(spd, v), refops.spd_solve(spd, v))), b)
        # grad through the (symmetrized) matrix: build A = M + M^T to keep the
        # perturbed matrix symmetric for the finite-difference probe
        m0 = g @ g.T / 2 + 1.5 * np.eye(3)

        def build(v):
            a_sym = ad.add(v, refops.transpose(v))
            return refops.vsum(ad.mul(refops.spd_solve(a_sym, b), refops.spd_solve(a_sym, b)))

        check_op(build, m0, rtol=1e-5, atol=1e-7)

    def test_concat_and_column_stack(self):
        rng = np.random.default_rng(8)
        c1 = rng.standard_normal(4)

        def build_cols(v):
            mat = refops.column_stack([v, ad.mul(v, 2.0)])
            return refops.vsum(ad.mul(mat, mat))

        check_op(build_cols, c1)


class _MatmulCounter(np.ndarray):
    """An array that counts the matrix products it is an operand of."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            type(self).calls += 1
        inputs = tuple(np.asarray(x) if isinstance(x, _MatmulCounter) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestAffine:
    @pytest.mark.parametrize("shape", [(6, 4), (3, 5, 4)])  # rows, and a stack of pools
    def test_grads(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        weights = rng.standard_normal(shape[:-1] + (3,))

        def build(x_, w_, b_):
            h = ad.affine(x_, w_, b_)
            return refops.vsum(ad.mul(ad.mul(h, h), weights))

        check_op(lambda v: build(v, w, b), x)
        check_op(lambda v: build(x, v, b), w)
        check_op(lambda v: build(x, w, v), b)
        np.testing.assert_array_equal(ad.affine(x, w, b).value, x @ w + b)

    @pytest.mark.parametrize("x_is_var, products", [(False, 1), (True, 2)])
    def test_constant_x_gets_no_product(self, x_is_var, products):
        # W takes part in the forward product, and in the backward only in x's
        # gradient g W^T, which a constant x does not need
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        w = ad.Var(np.zeros((4, 3)))
        w.value = rng.standard_normal((4, 3)).view(_MatmulCounter)
        _MatmulCounter.calls = 0
        xin = ad.Var(x) if x_is_var else x
        ad.backward(refops.vsum(ad.affine(xin, w, ad.Var(np.zeros(3)))))
        assert _MatmulCounter.calls == products
        np.testing.assert_allclose(w.grad, np.repeat(x.sum(axis=0)[:, None], 3, axis=1))


class TestFusedOps:
    def test_block_sqnorm(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))

        def build(v):
            e = refops.block_sqnorm(v, 2)
            return refops.vsum(ad.mul(e, e))

        check_op(build, x)

    def test_block_mean_rows(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 3))

        def build(v):
            m = ad.block_mean_rows(v, 3)
            return refops.vsum(ad.mul(m, m))

        check_op(build, x)
        v = ad.Var(x)
        out = ad.block_mean_rows(v, 3)
        np.testing.assert_allclose(out.value, x.reshape(2, 3, 3).mean(axis=1))

    def test_block_mean_rows_over_a_stack(self):
        # dsn pools an (n, k*r, d) stack of embedded supports in one node
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 6, 3))

        def build(v):
            m = ad.block_mean_rows(v, 3)
            return refops.vsum(ad.mul(m, m))

        check_op(build, x)
        for c in range(2):
            np.testing.assert_array_equal(ad.block_mean_rows(x, 3).value[c],
                                          ad.block_mean_rows(x[c], 3).value)

    def test_row_normalize(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3)) + 0.5
        check_op(lambda v: refops.vsum(ad.mul(ad.row_normalize(v), np.arange(12.0).reshape(4, 3))), x)

    def test_row_normalize_zero_row(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        v = ad.Var(x)
        out = ad.row_normalize(v)
        np.testing.assert_allclose(out.value, [[0.0, 0.0], [0.6, 0.8]])
        ad.backward(refops.vsum(ad.mul(out, np.ones((2, 2)))))
        np.testing.assert_array_equal(v.grad[0], [0.0, 0.0])

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
            return refops.vsum(ad.mul(ad.ridge_recon_errors(q_, s_, lam_, rho_, r, formulation), w))

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

    @pytest.mark.parametrize("n,k,r,d,b", [(3, 2, 2, 4, 3), (1, 1, 3, 2, 2), (4, 3, 1, 5, 2)])
    def test_proto_distances(self, n, k, r, d, b):
        rng = np.random.default_rng(20 + n)
        q = rng.standard_normal((b * r, d))
        s = rng.standard_normal((n, k * r, d))
        pools = [SupportPool(class_id=c, k=k, values=s[c]) for c in range(n)]
        assert np.array_equal(ad.proto_distances(q, s, r, k).value, proto_distances(q, pools))
        w = rng.standard_normal((b, n))
        check_op(lambda v: refops.vsum(ad.mul(ad.proto_distances(v, s, r, k), w)), q)
        check_op(lambda v: refops.vsum(ad.mul(ad.proto_distances(q, v, r, k), w)), s)

    @pytest.mark.parametrize("mode", ["identity", "square", "d_k != d_v"])
    def test_ctx_errors_forward_is_the_heads(self, mode):
        rng = np.random.default_rng(21)
        n, k, r, d, b = 3, 2, 3, 5, 4
        params = {"identity": CtxParams.identity(), "square": refops.random_ctx_params(d, rng=rng),
                  "d_k != d_v": refops.random_ctx_params(d, d_k=3, d_v=6, rng=rng)}[mode]
        maps = rng.standard_normal((b, r, d))
        pools = [SupportPool(class_id=c, k=k, values=rng.standard_normal((k * r, d))) for c in range(n)]

        def project(x):  # as the head projects: the identity attends with x itself
            return (x, x) if params.key_proj is None else (x @ params.key_proj, x @ params.value_proj)

        q1, q2 = project(maps)
        keys, values = (np.stack(t) for t in zip(*(project(p.values) for p in pools)))
        got = ad.ctx_errors(q1.reshape(b * r, -1), q2.reshape(b * r, -1), keys, values, r).value
        assert np.array_equal(got, ctx_distances(maps.reshape(b * r, d), pools, params))

    @pytest.mark.parametrize("n", [1, 3])
    def test_ctx_errors_grads(self, n):
        rng = np.random.default_rng(22 + n)
        kr, r, d_k, d_v, b = 4, 2, 3, 5, 3
        ops = {"q1": rng.standard_normal((b * r, d_k)), "q2": rng.standard_normal((b * r, d_v)),
               "keys": rng.standard_normal((n, kr, d_k)), "values": rng.standard_normal((n, kr, d_v))}
        w = rng.standard_normal((b, n))
        for name in ops:
            def build(v, _name=name):
                args = {**ops, _name: v}
                return refops.vsum(ad.mul(ad.ctx_errors(args["q1"], args["q2"], args["keys"], args["values"], r), w))

            check_op(build, ops[name])

    def test_stack(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        check_op(lambda v: refops.vsum(ad.mul(ad.stack([v, b, v]), ad.stack([b, v, a]))), a)


class TestOneWoodburyFactor:
    @staticmethod
    def _case(n):
        rng = np.random.default_rng(40 + n)
        k, r, d = 3, 4, 7  # kr = 12 > d: the woodbury side
        assert head.choose_formulation(k, r, d) == "woodbury"
        s = rng.standard_normal((n, k * r, d)) / np.sqrt(d)
        q = rng.standard_normal((5 * r, d)) / np.sqrt(d)
        params = HeadParams(alpha=-0.3, beta=0.2)
        return q, s, params, head.effective_lambda(params, k, r, d), r

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_eval_and_training_form_each_pool_side_through_it(self, n, monkeypatch):
        q, s, params, lam, r = self._case(n)
        calls, factor = [], head._woodbury_factor

        def spy(*args):
            calls.append(args[1:])
            return factor(*args)

        monkeypatch.setattr(head, "_woodbury_factor", spy)
        pools = [SupportPool(c, len(s[c]) // r, s[c]) for c in range(n)]
        head.frn_distances(q, pools, params)
        assert calls == [(lam, params.rho)] * n
        calls.clear()
        ad.ridge_recon_errors(q, s, lam, params.rho, r, "woodbury")
        assert calls == [(lam, params.rho)] * n

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_eval_and_training_errors_agree(self, n):
        q, s, params, lam, r = self._case(n)
        pools = [SupportPool(c, len(s[c]) // r, s[c]) for c in range(n)]
        trained = ad.ridge_recon_errors(q, s, lam, params.rho, r, "woodbury").value
        np.testing.assert_allclose(trained, head.frn_distances(q, pools, params), rtol=1e-12)


class TestThreadedWoodburyNode:
    # the backward forms dQ in blocks of head._BLOCK queries across the CPUs
    # while the caller forms dS, dlam and drho: b from 1 to 20 gives one
    # block, full blocks and a partial last block
    @staticmethod
    def _cases():
        rng = np.random.default_rng(31)
        for b in range(1, 21):
            n, r = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            kr, d = 2 * r, int(rng.integers(1, 2 * r + 1))  # kr >= d: the woodbury side
            yield (rng.standard_normal((b * r, d)), rng.standard_normal((n, kr, d)),
                   rng.uniform(0.2, 2.0), rng.uniform(0.5, 1.5), r, rng.standard_normal((b, n)))

    @staticmethod
    def _run(q, s, lam, rho, r, ge):
        err, grads = ad._woodbury_errors(q, s, lam, rho, r)
        return [err, *grads(ge)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_for_any_worker_count(self, workers, monkeypatch):
        monkeypatch.setattr(head, "_WORKERS", 1)
        serial = [self._run(*case) for case in self._cases()]
        submitted, submit = [], head._submit

        def counted(fn, *args):
            submitted.append(fn)
            return submit(fn, *args)

        monkeypatch.setattr(head, "_WORKERS", workers)
        monkeypatch.setattr(head, "_submit", counted)
        for case, expected in zip(self._cases(), serial, strict=True):
            got = self._run(*case)
            assert all(np.array_equal(x, y) for x, y in zip(got, expected, strict=True))
        assert bool(submitted) == (workers > 1)

    def test_dispatched_gradients_match_central_differences(self, monkeypatch):
        # criterion 4's check: 1e-5 relative wherever the difference exceeds 1e-8
        monkeypatch.setattr(head, "_WORKERS", 2)
        rng = np.random.default_rng(32)
        n, kr, r, d, b = 3, 4, 2, 3, head._BLOCK + 3
        ops = [rng.standard_normal((b * r, d)), rng.standard_normal((n, kr, d)),
               np.array(0.7), np.array(1.2)]
        w = rng.standard_normal((b, n))

        def loss(args):
            return refops.vsum(ad.mul(ad.ridge_recon_errors(*args, r, "woodbury"), w))

        for i, x in enumerate(ops):
            v = ad.Var(x)
            ad.backward(loss([*ops[:i], v, *ops[i + 1:]]))
            fd = finite_diff(lambda a, _i=i: float(loss([*ops[:_i], a, *ops[_i + 1:]]).value), x)
            big = np.abs(fd) > 1e-8
            assert big.any()
            np.testing.assert_array_less(np.abs(v.grad - fd)[big],
                                         1e-5 * np.maximum(np.abs(v.grad), np.abs(fd))[big])


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        x = ad.Var(np.array(3.0))
        y = ad.mul(x, x)  # x^2
        z = ad.add(y, ad.mul(x, 2.0))  # x^2 + 2x
        ad.backward(z)
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_first_gradient_is_an_owned_copy(self):
        # stack hands each part a view of its own gradient
        x = ad.Var(np.ones((2, 2)))
        out = ad.stack([x, np.zeros((2, 2))])
        ad.backward(refops.vsum(ad.mul(out, 3.0)))
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
            a = refops.add_scaled_identity(gram, lam_var)
            hat = refops.spd_solve(a, gram)
            return refops.vsum(hat)

        lam0 = np.array(0.8)
        v = ad.Var(lam0)
        ad.backward(build(v))
        fd = finite_diff(lambda lv: float(ad.value_of(build(ad.Var(lv)))), lam0, h=1e-6)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-6, atol=1e-9)


def _callers(tree, module: str | None, modules: set) -> set:
    """(module, name) pairs that the code of ``tree`` loads by name or as a
    module attribute. ``module`` is the tree's own module, or None.

    A load of a name that an enclosing function binds (an argument or an
    assignment) is a local variable, not a caller.
    """
    refs = {}  # local name -> the (module, name) it stands for, or the module
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and module:
            refs[node.name] = (module, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "frn") and node.level <= 1:
            for a in node.names:  # from . import head / from frn import autodiff as ad
                refs[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom):
            owner = node.module.removeprefix("frn.") if node.level == 0 else node.module
            for a in node.names:  # from .head import reconstruct / from frn.head import ...
                refs[a.asname or a.name] = (owner, a.name)
    used = set()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            bound = bound | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            bound |= {a.arg for a in (args.vararg, args.kwarg) if a}
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            if isinstance(refs.get(node.id), tuple):
                used.add(refs[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and refs.get(node.value.id) in modules and node.value.id not in bound):
            used.add((refs[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return used


def _attribute_loads(tree, classes):
    """(owner, attribute) for each attribute load in ``tree``. The owner is
    the name of one of ``classes`` when the attribute is read from it by
    name, else None. Reads from an imported name, such as a module, are
    left out."""
    imported = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    loads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            owner = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", None)
            if owner in classes:
                loads.add((owner, node.attr))
            elif not (isinstance(value, ast.Name) and owner in imported):
                loads.add((None, node.attr))
    return loads


def test_every_public_function_has_a_caller_in_src():
    # helpers that only tests call belong in reference_ops. Callers are the
    # package's own code, the acceptance suite and the console script. A
    # public method or property of a class is called by a load of its name
    # in the package, the acceptance suite or perfbench, read from the class
    # itself or from a value of unknown type.
    package = Path(ad.__file__).parent
    root = package.parent.parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    public = {(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    members = {(module, node.name, item.name) for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    used = set()
    for module, tree in trees.items():
        used |= _callers(tree, module, set(trees))
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    used |= _callers(acceptance, None, set(trees))
    used |= {(node.module.removeprefix("frn."), a.name) for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("frn.")
             for a in node.names}
    scripts = re.findall(r'^\w+\s*=\s*"frn\.(\w+):(\w+)"', (root / "pyproject.toml").read_text(), re.M)
    used |= set(scripts)
    # head.reconstruct has no caller in the package, but the benchmark wraps
    # it by name for its head.reconstruct span; it goes when that span does
    # (ROADMAP item 2)
    used |= {("head", "reconstruct")}
    callers = [*trees.values(), acceptance,
               *(ast.parse(path.read_text()) for path in (root / "perfbench").glob("*.py"))]
    classes = {c for _, c, _ in members}
    loaded = set().union(*(_attribute_loads(tree, classes) for tree in callers))
    uncalled = sorted(public - used) + sorted(f"{m}.{c}.{n}" for m, c, n in members
                                              if not {(c, n), (None, n)} & loaded)
    assert scripts and not uncalled, uncalled


def test_every_private_function_is_loaded_in_src():
    # no linter runs in CI: a private function, or a private method, that a
    # change leaves with no load in the package fails here. cli._to_f32 has
    # none, but the benchmark calls it for its episodes.transform span; it
    # goes when that call does (ROADMAP item 2)
    package = Path(ad.__file__).parent
    workloads = ast.parse((package.parent.parent / "perfbench" / "workloads.py").read_text())
    assert any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_to_f32"
               for node in ast.walk(workloads))
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    private = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    methods = {(module, node.name, item.name) for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and item.name.startswith("_") and not item.name.endswith("__")}
    used = set().union(*(_callers(tree, module, set(trees)) for module, tree in trees.items()))
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = sorted(f"{m}.{n}" for m, n in private - used - {("cli", "_to_f32")})
    dead += sorted(f"{m}.{c}.{n}" for m, c, n in methods if n not in attrs)
    assert not dead, dead


def test_every_import_in_src_is_used():
    # no linter runs in CI: an import that a change leaves unused fails here.
    # The benchmark wraps these two names in the modules that would call
    # them, so they stay imported while they are SPAN_TARGETS entries, and
    # go when those spans do (ROADMAP item 2)
    package = Path(ad.__file__).parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", package.parent.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {("autodiff", "_spd_solve_np"), ("head", "spd_solve")}
    targets = {(m.removeprefix("frn."), a) for m, a, _ in spans.SPAN_TARGETS}
    assert wrapped <= targets, wrapped - targets
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in wrapped:
                        unused.append(f"{path.stem}: {name}")
    assert not unused, unused
