"""Training contracts: gradient correctness, optimizer behavior, the two
training regimes, and checkpoint round-trips."""

import math

import numpy as np
import pytest

from frn import autodiff as ad
from frn import baselines, head, linalg, training
from frn.baselines import ProjectionConfig
from frn.episodes import Dataset, sample_episode, trial_rng
from frn.head import FeatureMap, HeadParams, SupportPool, choose_formulation, effective_lambda
from frn.linalg import add_ridge, spd_solve
from frn.training import (
    GAMMA_FLOOR,
    EmbeddingModel,
    GradientError,
    PretrainConfig,
    TrainConfig,
    episode_loss_graph,
    grad,
    init_params,
    load_checkpoint,
    make_eval_head_fn,
    meta_train,
    pretrain,
    pretrain_accuracy,
    save_checkpoint,
    sgd_step,
)

import reference_ops as refops


def gaussian_dataset(n_classes=8, items=10, r=2, d_in=6, sigma=0.15, seed=0):
    rng = np.random.default_rng(seed)
    classes = {}
    for c in range(n_classes):
        proto = rng.standard_normal((r, d_in))
        classes[c] = [
            FeatureMap(values=proto + sigma * rng.standard_normal((r, d_in)))
            for _ in range(items)
        ]
    return Dataset(classes=classes)


def fd_grad(loss_of, x0, h=1e-4):
    x0 = np.array(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat, gf = x0.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_of(x0)
        flat[i] = orig - h
        fm = loss_of(x0)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def assert_grad_close(analytic, numeric, rel=1e-5, floor=1e-8):
    analytic = np.asarray(analytic).reshape(-1)
    numeric = np.asarray(numeric).reshape(-1)
    for a, n in zip(analytic, numeric):
        if abs(n) > floor:
            assert abs(a - n) <= rel * max(abs(a), abs(n)), (a, n)


class TestGradEntryPoint:
    def test_gamma_gradient_is_exactly_minus_error(self):
        e = 0.37

        def loss_fn(v):
            return ad.mul(v["gamma"], -e)

        _, grads = grad(loss_fn, {"gamma": np.array(1.3)})
        assert float(grads["gamma"]) == -e

    def test_beta_gradient_equals_reconstruction_sum(self):
        # Q_bar scales as exp(beta), so d(sum Q_bar)/d beta = sum Q_bar
        rng = np.random.default_rng(0)
        s = rng.standard_normal((4, 3))
        q = rng.standard_normal((2, 3))
        lam = 4 * 2 / 3

        def loss_fn(v):
            g = ad.matmul(refops.transpose(s), s)
            hat = refops.spd_solve(refops.add_scaled_identity(g, lam), g)
            q_bar = ad.mul(ad.matmul(q, hat), ad.exp(v["beta"]))
            return refops.vsum(q_bar)

        value, grads = grad(loss_fn, {"beta": np.array(0.4)})
        assert float(grads["beta"]) == pytest.approx(value, rel=1e-12)

    def test_non_finite_param_named(self):
        with pytest.raises(GradientError) as err:
            grad(lambda v: refops.vsum(v["w"]), {"w": np.array([1.0, np.inf])})
        assert err.value.parameter == "w"

    def test_non_finite_loss_flagged(self):
        def loss_fn(v):
            return refops.vsum(ad.exp(ad.mul(v["x"], 1000.0)))  # exp(2000) overflows

        with np.errstate(all="ignore"), pytest.raises(GradientError):
            grad(loss_fn, {"x": np.array(2.0)})

    def test_unused_parameter_gets_zero_gradient(self):
        _, grads = grad(lambda v: refops.vsum(ad.mul(v["a"], v["a"])), {"a": np.array(2.0), "b": np.array(5.0)})
        assert float(grads["b"]) == 0.0


def episode_fd_check(head, learn_names, seed, rel=1e-5, **overrides):
    """Finite-difference check of the full episode loss for one head kind."""
    ds = gaussian_dataset(n_classes=5, items=6, r=2, d_in=5, sigma=0.4, seed=seed)
    settings = dict(head=head, way=3, shot=2, query=3, embed_dim=4, use_aux=True, seed=seed)
    cfg = TrainConfig(**{**settings, **overrides})
    rng = np.random.default_rng(seed)
    params = init_params(cfg, ds.d, rng)
    # move off the zero init so nothing is at a symmetric point
    params["alpha"] = np.array(0.3)
    params["beta"] = np.array(-0.2)
    params["gamma"] = np.array(0.7)
    episode = sample_episode(ds, cfg.way, cfg.shot, cfg.query, trial_rng(seed, 0))
    d = params["embed_weight"].shape[1]

    tracked = {n: np.array(params[n], dtype=np.float64) for n in learn_names}
    constants = {n: v for n, v in params.items() if n not in learn_names}

    def loss_fn(variables):
        merged = dict(variables)
        for n, v in constants.items():
            merged.setdefault(n, v)
        return episode_loss_graph(merged, episode, cfg, d)

    _, grads = grad(loss_fn, tracked)

    for name in learn_names:
        def scalar_loss(x, _name=name):
            probe = dict(tracked)
            probe[_name] = x
            merged = {n: ad.Var(v) for n, v in probe.items()}
            for n, v in constants.items():
                merged.setdefault(n, v)
            return float(ad.value_of(episode_loss_graph(merged, episode, cfg, d)))

        numeric = fd_grad(scalar_loss, tracked[name])
        assert_grad_close(grads[name], numeric, rel=rel)


class TestEpisodeGradients:
    def test_frn_scalars_and_embedding(self):
        episode_fd_check("frn", ["alpha", "beta", "gamma", "embed_weight", "embed_bias"], seed=1)

    def test_frn_direct_formulation(self):
        # kr = 1 * 2 < d = 6: training takes the kr x kr side, which the case
        # above (kr = d = 4, a tie that goes to woodbury) never reaches
        assert choose_formulation(1, 2, 6) == "direct"
        episode_fd_check(
            "frn", ["alpha", "beta", "gamma", "embed_weight", "embed_bias"], seed=17,
            shot=1, embed_dim=6,
        )

    def test_proto(self):
        episode_fd_check("proto", ["gamma", "embed_weight", "embed_bias"], seed=2)

    def test_dsn(self):
        episode_fd_check("dsn", ["gamma", "embed_weight", "embed_bias"], seed=3)

    def test_ctx_projections(self):
        episode_fd_check("ctx", ["gamma", "ctx_key", "ctx_value", "embed_weight"], seed=4)

    def test_dummy_map_gradients(self):
        rng = np.random.default_rng(5)
        r, d, n_classes = 2, 4, 3
        batch = rng.standard_normal((4 * r, d))
        labels = np.array([0, 2, 1, 0])
        state = {
            "gamma": np.array(0.8),
            **{f"dummy_{c}": rng.standard_normal((r, d)) * 0.5 for c in range(n_classes)},
        }

        def loss_fn(v):
            logits = training._pretrain_logits_graph(v, batch, r, d, n_classes, 1.0)
            return ad.cross_entropy_logits(logits, labels)

        _, grads = grad(loss_fn, state)
        for name in state:
            def scalar_loss(x, _name=name):
                probe = {n: ad.Var(v if n != _name else x) for n, v in state.items()}
                logits = training._pretrain_logits_graph(probe, batch, r, d, n_classes, 1.0)
                return float(ad.value_of(ad.cross_entropy_logits(logits, labels)))

            assert_grad_close(grads[name], fd_grad(scalar_loss, state[name]))


# The per-class reconstruction graph and the pairwise orthogonality loop that
# training built before it had one node per loss term, kept as references.


def per_class_error(q_emb, s_emb, lam, rho, r, formulation):
    """Per-query reconstruction errors against one class pool, op by op."""
    if formulation == "woodbury":
        g = ad.matmul(refops.transpose(s_emb), s_emb)
        hat = refops.spd_solve(refops.add_scaled_identity(g, lam), g)
        q_bar = ad.matmul(q_emb, hat)
    else:
        m = ad.matmul(s_emb, refops.transpose(s_emb))
        a = refops.add_scaled_identity(m, lam)
        t1 = ad.matmul(q_emb, refops.transpose(s_emb))
        t2 = refops.spd_solve(a, refops.transpose(t1))
        q_bar = ad.matmul(refops.transpose(t2), s_emb)
    if rho is not None:
        q_bar = ad.mul(q_bar, rho)
    return ad.mul(refops.block_sqnorm(refops.sub(q_emb, q_bar), r), 1.0 / r)


def pairwise_aux_term(support_embs, scale):
    normalized = [ad.row_normalize(s) for s in support_embs]
    terms = None
    for i, si in enumerate(normalized):
        for j, sj in enumerate(normalized):
            if i == j:
                continue
            cross = ad.matmul(si, refops.transpose(sj))
            t = refops.vsum(ad.mul(cross, cross))
            terms = t if terms is None else ad.add(terms, t)
    if terms is None:
        return ad.Var(np.float64(0.0))
    return ad.mul(terms, scale)


def per_class_episode_loss(variables, episode, cfg, d):
    """The frn episode loss with one sub-graph per class and per class pair."""
    support, queries, labels, k, r = training._episode_arrays(episode)
    q_emb = training._embed(queries, variables, 1.0)
    s_embs = [training._embed(s, variables, 1.0) for s in support]
    lam = ad.mul(ad.exp(variables["alpha"]), k * r / d)
    rho = ad.exp(variables["beta"])
    errs = [per_class_error(q_emb, s, lam, rho, r, choose_formulation(k, r, d)) for s in s_embs]
    logits = ad.mul(ad.mul(refops.column_stack(errs), variables["gamma"]), -1.0)
    loss = ad.cross_entropy_logits(logits, labels)
    return ad.add(loss, pairwise_aux_term(s_embs, training.AUX_SCALE))


def per_class_pretrain_logits(variables, batch, r, d, n_classes):
    q_emb = training._embed(batch, variables, 1.0)
    errs = [
        per_class_error(q_emb, variables[f"dummy_{c}"], r / d, None, r, "woodbury")
        for c in range(n_classes)
    ]
    return ad.mul(ad.mul(refops.column_stack(errs), variables["gamma"]), -1.0)


FUSED_REL = 1e-12


def assert_fused_matches(fused, reference):
    """Largest deviation within FUSED_REL of the reference's largest magnitude."""
    fused, reference = np.asarray(fused), np.asarray(reference)
    assert fused.shape == reference.shape
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(fused - reference)) <= FUSED_REL * scale, (fused, reference)


def value_and_grads(loss_fn, params):
    variables = {n: ad.Var(np.array(v, dtype=np.float64)) for n, v in params.items()}
    loss = loss_fn(variables)
    ad.backward(loss)
    return float(loss.value), {n: v.grad for n, v in variables.items()}


class TestFusedNodesMatchPerClassGraph:
    """One ridge node and one orthogonality node per episode give the loss
    and gradients of the per-class graph to 1e-12 relative."""

    # (formulation, way, shot, embed_dim): each formulation on the side of
    # the kr vs d divide that choose_formulation picks it for, with n*kr <= d and > d
    @pytest.mark.parametrize("formulation,way,shot,embed_dim", [
        ("direct", 3, 1, 6), ("direct", 4, 2, 6), ("woodbury", 3, 2, 4), ("woodbury", 3, 3, 5),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_episode_loss_and_gradients(self, formulation, way, shot, embed_dim, seed):
        r = 2
        assert choose_formulation(shot, r, embed_dim) == formulation
        ds = gaussian_dataset(n_classes=5, items=8, r=r, d_in=5, sigma=0.4, seed=30 + seed)
        cfg = TrainConfig(head="frn", way=way, shot=shot, query=3, embed_dim=embed_dim,
                          use_aux=True, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, ds.d, rng)
        params["alpha"] = np.array(rng.uniform(-0.5, 0.5))
        params["beta"] = np.array(rng.uniform(-0.5, 0.5))
        params["gamma"] = np.array(rng.uniform(0.3, 1.5))
        episode = sample_episode(ds, way, shot, cfg.query, trial_rng(seed, 0))

        fused, fused_grads = value_and_grads(
            lambda v: episode_loss_graph(v, episode, cfg, embed_dim), params)
        ref, ref_grads = value_and_grads(
            lambda v: per_class_episode_loss(v, episode, cfg, embed_dim), params)
        assert_fused_matches(fused, ref)
        for name in ("embed_weight", "embed_bias", "alpha", "beta", "gamma"):
            assert_fused_matches(fused_grads[name], ref_grads[name])

    @pytest.mark.parametrize("seed", range(3))
    def test_pretrain_loss_and_gradients_with_unit_rho(self, seed):
        # rho=None: rho = 1 with no scaling node, as pretraining calls it
        rng = np.random.default_rng(40 + seed)
        r, d_in, d, n_classes = 3, 4, 5, 4
        batch = rng.standard_normal((5 * r, d_in))
        labels = rng.integers(0, n_classes, size=5)
        params = {
            "embed_weight": rng.standard_normal((d_in, d)) / 2,
            "embed_bias": 0.1 * rng.standard_normal(d),
            "gamma": np.array(rng.uniform(0.3, 1.5)),
            **{f"dummy_{c}": 0.7 * rng.standard_normal((r, d)) for c in range(n_classes)},
        }

        def fused_loss(v):
            logits = training._pretrain_logits_graph(v, batch, r, d, n_classes, 1.0)
            return ad.cross_entropy_logits(logits, labels)

        def ref_loss(v):
            return ad.cross_entropy_logits(per_class_pretrain_logits(v, batch, r, d, n_classes), labels)

        fused, fused_grads = value_and_grads(fused_loss, params)
        ref, ref_grads = value_and_grads(ref_loss, params)
        assert_fused_matches(fused, ref)
        for name in params:
            assert_fused_matches(fused_grads[name], ref_grads[name])

    @pytest.mark.parametrize("n,kr,d", [(2, 1, 3), (3, 2, 3), (4, 3, 5), (2, 3, 8), (5, 1, 2)])
    def test_nodes_given_plain_arrays(self, n, kr, d):
        # criterion 10 calls _aux_term with a list of arrays, not Vars
        rng = np.random.default_rng(n * 100 + kr * 10 + d)
        pools = [rng.standard_normal((kr, d)) for _ in range(n)]
        assert_fused_matches(training._aux_term(pools, 0.03).value,
                             pairwise_aux_term(pools, 0.03).value)
        r, b = 1, 3
        q = rng.standard_normal((b * r, d))
        for formulation in ("direct", "woodbury"):
            fused = ad.ridge_recon_errors(q, pools, 0.4, 0.8, r, formulation).value
            ref = np.column_stack(
                [per_class_error(q, s, 0.4, 0.8, r, formulation).value for s in pools])
            assert_fused_matches(fused, ref)


def residual_errors(q, s, lam, rho, r):
    """(b, n) errors ||Q_i - rho Q_i H_c||^2 / r from each class's float64 (b*r, d) residual."""
    b, d = q.shape[0] // r, q.shape[1]
    out = np.empty((b, len(s)))
    for c, sc in enumerate(s):
        g = sc.T @ sc
        res = q - rho * q @ np.linalg.solve(g + lam * np.eye(d), g)
        out[:, c] = (res.reshape(b, -1) ** 2).sum(axis=1) / r
    return out


def assert_node_matches_references(formulation, params, n, r, rng, fixed_lam=None):
    """The node's errors within 1e-12 of the float64 residual, and its loss and
    gradients within FUSED_REL of the per-class graph.

    ``params`` holds q and s0..s{n-1}, and lam and rho when they are learned;
    otherwise lam is ``fixed_lam`` and rho is 1 with no node.
    """
    lam = params.get("lam", fixed_lam)
    rho = params.get("rho")
    s = np.stack([params[f"s{c}"] for c in range(n)])

    errs = ad.ridge_recon_errors(params["q"], s, lam, rho, r, formulation).value
    ref = residual_errors(params["q"], s, lam, 1.0 if rho is None else rho, r)
    assert np.max(np.abs(errs - ref)) <= 1e-12 * np.max(ref)

    w = rng.standard_normal(errs.shape)

    def fused(v):
        stack = ad.stack([v[f"s{c}"] for c in range(n)])
        return refops.vsum(ad.mul(ad.ridge_recon_errors(
            v["q"], stack, v.get("lam", lam), v.get("rho"), r, formulation), w))

    def per_class(v):
        return refops.vsum(ad.mul(refops.column_stack([
            per_class_error(v["q"], v[f"s{c}"], v.get("lam", lam), v.get("rho"), r, formulation)
            for c in range(n)]), w))

    value, grads = value_and_grads(fused, params)
    ref_value, ref_grads = value_and_grads(per_class, params)
    assert_fused_matches(value, ref_value)
    for name in params:
        assert_fused_matches(grads[name], ref_grads[name])


class TestWoodburyNodeAtBenchmarkShapes:
    """The woodbury node at the benchmark's train shapes (r25, d64): a meta
    step of 5-way 5-shot with 15 queries per class, and a pretrain step of
    32 queries against 20 dummy maps (kr = 25, lam = r/d fixed, rho = 1)."""

    @pytest.mark.parametrize("b,n,kr", [(75, 5, 125), (32, 20, 25)])
    def test_values_and_gradients(self, b, n, kr):
        r, d = 25, 64
        rng = np.random.default_rng(b * n)
        params = {"q": rng.standard_normal((b * r, d)),
                  **{f"s{c}": 0.5 * rng.standard_normal((kr, d)) for c in range(n)}}
        if kr > d:  # lam = exp(alpha) kr/d and rho = exp(beta) at alpha = 0.3, beta = -0.2
            params.update(lam=np.array(np.exp(0.3) * kr / d), rho=np.array(np.exp(-0.2)))
        assert_node_matches_references("woodbury", params, n, r, rng, fixed_lam=r / d)

    def test_nearly_in_span_queries_within_rounding_bound(self):
        # each S_c has orthonormal rows, so G_c has eigenvalues 1 (on its
        # span) and 0; rho = 1 + lam makes P_c vanish on the span. Queries
        # built from S_c's rows plus 1e-7 noise then have errors near 0
        # against class c, and the forward's rounding, about
        # eps ||Q_i||^2 ||P_c||^2, is all that is left. The constant 16 was
        # fixed before this test was first run.
        r, d, kr, n, per_class = 5, 32, 10, 4, 3
        lam, b = 0.5, n * per_class
        rho = 1.0 + lam
        rng = np.random.default_rng(23)
        s = np.stack([np.linalg.qr(rng.standard_normal((d, kr)))[0].T for _ in range(n)])
        labels = np.repeat(np.arange(n), per_class)
        q = np.concatenate([rng.standard_normal((r, kr)) @ s[c] + 1e-7 * rng.standard_normal((r, d))
                            for c in labels])
        errs = ad.ridge_recon_errors(q, s, lam, rho, r, "woodbury").value
        ref = residual_errors(q, s, lam, rho, r)

        eye = np.eye(d)
        p_sq = np.array([np.sum((eye - rho * np.linalg.solve(sc.T @ sc + lam * eye, sc.T @ sc)) ** 2)
                         for sc in s])
        q_sq = (q.reshape(b, -1) ** 2).sum(axis=1)
        bound = 16 * np.finfo(np.float64).eps * np.outer(q_sq, p_sq) / r
        assert np.all(ref[np.arange(b), labels] < 1e-10 * q_sq / r)
        assert np.all(np.abs(errs - ref) <= bound)


class TestDirectNodeAtPaperShapes:
    """The direct node in the paper's ResNet-12 regime (r25, d640): 5-way
    1-shot and 5-shot pools (kr = 25 and 125 < d) against a few queries."""

    @pytest.mark.parametrize("kr", [25, 125])
    def test_values_and_gradients(self, kr):
        r, d, n, b = 25, 640, 5, 4
        rng = np.random.default_rng(kr)
        params = {"q": rng.standard_normal((b * r, d)),
                  **{f"s{c}": 0.5 * rng.standard_normal((kr, d)) for c in range(n)},
                  "lam": np.array(np.exp(0.3) * kr / d), "rho": np.array(np.exp(-0.2))}
        assert_node_matches_references("direct", params, n, r, rng)


class TestDirectNodeNearlyInSpan:
    def test_nearly_in_span_queries_within_rounding_bound(self):
        # as the woodbury case: each S_c has orthonormal rows, so G_c = I and
        # rho = 1 + lam makes rho W_c S_c the projection onto S_c's span.
        # Queries built from S_c's rows plus 1e-7 noise then have errors near
        # 0 against class c, where the kr-space identity cancels. The bound is
        # head's 256 eps ||Q_i||^2 / r, times rho^2 for the identity's largest
        # term, fixed before this test was first run; the node must not clamp.
        r, d, kr, n, per_class = 5, 32, 10, 4, 3
        lam, b = 0.5, n * per_class
        rho = 1.0 + lam
        rng = np.random.default_rng(29)
        s = np.stack([np.linalg.qr(rng.standard_normal((d, kr)))[0].T for _ in range(n)])
        labels = np.repeat(np.arange(n), per_class)
        in_span = [rng.standard_normal((r, kr)) @ s[c] for c in labels]
        q = np.concatenate([x + 1e-7 * rng.standard_normal((r, d)) for x in in_span])
        errs = ad.ridge_recon_errors(q, s, lam, rho, r, "direct").value
        ref = residual_errors(q, s, lam, rho, r)

        q_sq = (q.reshape(b, -1) ** 2).sum(axis=1)
        bound = 256 * np.finfo(np.float64).eps * max(rho, 1.0) ** 2 * q_sq / r
        assert np.all(ref[np.arange(b), labels] < 1e-10 * q_sq / r)
        assert np.all(np.abs(errs - ref) <= bound[:, None])
        # exactly in span, what is left is rounding, and some of it is negative
        exact = ad.ridge_recon_errors(np.concatenate(in_span), s, lam, rho, r, "direct").value
        assert np.all(np.abs(exact[np.arange(b), labels]) <= bound)
        assert np.any(exact[np.arange(b), labels] < 0)


class TestDirectNodeIsTheEvalStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_errors_equal_eval_bit_for_bit_where_positive(self, seed):
        # the same lam and rho that eval derives from HeadParams; queries in
        # the last class's span give errors that eval clamps at 0
        rng = np.random.default_rng(60 + seed)
        k, r, n, b = int(rng.integers(1, 4)), int(rng.integers(1, 6)), 3, 5
        d = k * r + int(rng.integers(1, 30))
        s = rng.standard_normal((n, k * r, d)) / math.sqrt(d)
        q = rng.standard_normal((b * r, d)) / math.sqrt(d)
        q[-r:] = rng.standard_normal((r, k * r)) @ s[-1]
        params = HeadParams(alpha=rng.uniform(-8, 1), beta=rng.uniform(-0.5, 0.5))
        lam = effective_lambda(params, k, r, d)
        pools = [SupportPool(c, k, s[c]) for c in range(n)]

        evaluated = head.frn_distances(q, pools, params)
        trained = ad.ridge_recon_errors(q, s, lam, params.rho, r, "direct").value
        positive = evaluated > 0
        assert positive.sum() >= b * n - 1
        assert np.array_equal(trained[positive], evaluated[positive])
        assert np.all(trained[~positive] <= 0)


class TestDirectNodeFactorsOncePerClass:
    # kr = 1 * 2 < d = 6, so frn trains on the direct side and dsn always does;
    # at shot 2 and d = 3 (kr = 4 > d) frn trains on the woodbury side, and a
    # pretrain step scores its batch against one woodbury dummy map per class
    @pytest.mark.parametrize("kind", ["frn", "dsn", "woodbury", "pretrain"])
    def test_one_factor_per_class_and_no_solve_in_a_step(self, kind, monkeypatch):
        # a solve counts through any name the program calls one by, unless it
        # runs inside spd_inverse, whose own solve is the factor
        ds = gaussian_dataset(n_classes=5, items=6, r=2, d_in=5, seed=8)
        calls = {"factor": 0, "inverse": 0, "solve": 0}
        open_inverses = []
        for name, owner, attr in (("factor", head, "_direct_factor"), ("inverse", head, "spd_inverse"),
                                  ("solve", head, "spd_solve"), ("solve", baselines, "spd_solve"),
                                  ("solve", linalg, "spd_solve"), ("solve", ad, "_spd_solve_np")):
            def counted(*args, _name=name, _fn=getattr(owner, attr)):
                calls[_name] += _name != "solve" or not any(open_inverses)
                open_inverses.append(_name == "inverse")
                try:
                    return _fn(*args)
                finally:
                    open_inverses.pop()

            monkeypatch.setattr(owner, attr, counted)
        if kind == "pretrain":
            pretrain(ds, PretrainConfig(steps=1, batch_size=4, embed_dim=6))
            assert calls == {"factor": 0, "inverse": len(ds.classes), "solve": 0}
            return
        woodbury = kind == "woodbury"
        cfg = TrainConfig(head="dsn" if kind == "dsn" else "frn", way=4, shot=2 if woodbury else 1,
                          query=2, embed_dim=3 if woodbury else 6)
        assert choose_formulation(cfg.shot, 2, cfg.embed_dim) == ("woodbury" if woodbury else "direct")
        params = init_params(cfg, ds.d, np.random.default_rng(0))
        episode = sample_episode(ds, cfg.way, cfg.shot, cfg.query, trial_rng(0, 0))
        grad(lambda v: episode_loss_graph(v, episode, cfg, cfg.embed_dim), params)
        assert calls == {"factor": 0 if woodbury else cfg.way, "inverse": cfg.way, "solve": 0}


def per_pool_episode_loss(variables, episode, cfg, d):
    """The proto, dsn or ctx episode loss with the queries and each support pool
    embedded by their own matmul and add nodes, the pools stacked afterwards."""
    support, queries, labels, k, r = training._episode_arrays(episode)
    w, b = variables["embed_weight"], variables["embed_bias"]
    q_emb = ad.add(ad.matmul(queries, w), b)
    s_embs = [ad.add(ad.matmul(s, w), b) for s in support]
    s_stack = ad.stack(s_embs)
    if cfg.head == "proto":
        dists = ad.proto_distances(q_emb, s_stack, r, k)
    elif cfg.head == "dsn":
        pooled = ad.stack([ad.block_mean_rows(s, r) for s in s_embs])
        dists = ad.ridge_recon_errors(ad.block_mean_rows(q_emb, r), pooled,
                                      ProjectionConfig().lambda_fixed, None, 1, "direct")
    else:
        wk, wv = variables["ctx_key"], variables["ctx_value"]
        dists = ad.ctx_errors(ad.matmul(q_emb, wk), ad.matmul(q_emb, wv),
                              ad.matmul(s_stack, wk), ad.matmul(s_stack, wv), r)
    loss = ad.cross_entropy_logits(ad.mul(ad.mul(dists, variables["gamma"]), -1.0 / d), labels)
    return ad.add(loss, pairwise_aux_term(s_embs, training.AUX_SCALE))


class TestEmbeddingNodeMatchesPerPoolGraph:
    """One affine node for the queries and one for the stacked supports give
    the loss and gradients of per-pool embedding to FUSED_REL (frn is covered
    by TestFusedNodesMatchPerClassGraph)."""

    @pytest.mark.parametrize("kind", ["proto", "dsn", "ctx"])
    @pytest.mark.parametrize("way,shot,r,embed_dim", [(3, 2, 2, 4), (5, 3, 3, 7)])
    def test_episode_loss_and_gradients(self, kind, way, shot, r, embed_dim):
        ds = gaussian_dataset(n_classes=6, items=8, r=r, d_in=5, sigma=0.4, seed=way + r)
        cfg = TrainConfig(head=kind, way=way, shot=shot, query=3, embed_dim=embed_dim, use_aux=True)
        rng = np.random.default_rng(way * shot)
        params = init_params(cfg, ds.d, rng)
        params["embed_bias"] = 0.1 * rng.standard_normal(embed_dim)
        params["gamma"] = np.array(rng.uniform(0.3, 1.5))
        params = {n: v for n, v in params.items() if n not in ("alpha", "beta")}
        episode = sample_episode(ds, way, shot, cfg.query, trial_rng(way, shot))

        fused, fused_grads = value_and_grads(
            lambda v: episode_loss_graph(v, episode, cfg, embed_dim), params)
        ref, ref_grads = value_and_grads(
            lambda v: per_pool_episode_loss(v, episode, cfg, embed_dim), params)
        assert_fused_matches(fused, ref)
        for name in params:
            assert_fused_matches(fused_grads[name], ref_grads[name])


class TestSgd:
    def test_zero_lr_leaves_parameters_bit_identical(self):
        rng = np.random.default_rng(6)
        params = {"w": rng.standard_normal((3, 3)), "gamma": np.array(0.5)}
        before = {n: v.copy() for n, v in params.items()}
        grads = {n: rng.standard_normal(v.shape) for n, v in params.items()}
        sgd_step(params, grads, {}, lr=0.0)
        for n in params:
            assert np.array_equal(params[n], before[n])

    def test_weight_decay_only_touches_embedding_weight(self):
        params = {
            "embed_weight": np.ones((2, 2)),
            "embed_bias": np.ones(2),
            "alpha": np.array(1.0),
            "beta": np.array(1.0),
            "gamma": np.array(1.0),
        }
        zero_grads = {n: np.zeros_like(v) for n, v in params.items()}
        sgd_step(params, zero_grads, {}, lr=0.1)
        # g = WEIGHT_DECAY * 1, and the Nesterov step is g + MOMENTUM * g
        decayed = 1.0 - 0.1 * (1.0 + training.MOMENTUM) * training.WEIGHT_DECAY
        assert np.all(params["embed_weight"] < 1.0)
        np.testing.assert_allclose(params["embed_weight"], decayed, rtol=1e-15)
        for name in ("embed_bias", "alpha", "beta", "gamma"):
            np.testing.assert_array_equal(params[name], np.ones_like(params[name]))

    def test_momentum_accumulates(self):
        assert training.MOMENTUM == 0.9
        params = {"w": np.array(0.0)}
        velocity = {}
        for _ in range(2):
            sgd_step(params, {"w": np.array(1.0)}, velocity, lr=1.0)
        # Nesterov, g = 1: v1 = 1, p1 = -(1 + 0.9 v1) = -1.9;
        # v2 = 1.9, p2 = -1.9 - (1 + 0.9 v2) = -4.61
        assert float(velocity["w"]) == pytest.approx(1.9)
        assert float(params["w"]) == pytest.approx(-4.61)


class TestMetaTrain:
    def test_learns_separable_data(self):
        ds_base = gaussian_dataset(n_classes=8, items=12, r=2, d_in=6, sigma=0.1, seed=7)
        ds_val = gaussian_dataset(n_classes=6, items=12, r=2, d_in=6, sigma=0.1, seed=8)
        cfg = TrainConfig(
            head="frn", way=5, shot=1, query=5, episodes=60, lr=0.02,
            val_every=20, val_trials=40, val_query=5, embed_dim=4, seed=0,
        )
        result = meta_train(ds_base, ds_val, cfg)
        assert not result.aborted
        assert result.best_val_accuracy >= 0.95

    def test_mask_keeps_alpha_beta_fixed(self):
        ds = gaussian_dataset(n_classes=5, items=8, seed=9)
        cfg = TrainConfig(
            head="frn", way=3, shot=1, query=3, episodes=10, lr=0.05,
            val_every=0, learn_alpha=False, learn_beta=False, learn_gamma=False,
            embed_dim=4, seed=1,
        )
        result = meta_train(ds, ds, cfg)
        assert float(result.params["alpha"]) == 0.0
        assert float(result.params["beta"]) == 0.0
        assert float(result.params["gamma"]) == pytest.approx(1.0 / 4)

    def test_abort_on_divergence_returns_last_finite(self):
        ds = gaussian_dataset(n_classes=5, items=8, seed=10)
        cfg = TrainConfig(
            head="frn", way=3, shot=1, query=3, episodes=50, lr=1e12,
            val_every=0, embed_dim=4, seed=2,
        )
        result = meta_train(ds, ds, cfg)
        assert result.aborted
        for v in result.params.values():
            assert np.all(np.isfinite(v))
        assert any("event" in h for h in result.history)

    @pytest.mark.parametrize("use_aux", [True, False])
    def test_history_records_loss_terms(self, use_aux):
        ds = gaussian_dataset(n_classes=5, items=8, seed=18)
        cfg = TrainConfig(head="frn", way=3, shot=1, query=3, episodes=4,
                          val_every=0, embed_dim=4, use_aux=use_aux, seed=5)
        for h in meta_train(ds, ds, cfg).history:
            assert h["ce"] + h["aux"] == pytest.approx(h["loss"], rel=1e-12)
            assert h["ce"] > 0.0
            assert (h["aux"] > 0.0) if use_aux else (h["aux"] == 0.0)

    # lr 1e12 aborts at step 1; a fixed gamma keeps its initial 1/d
    @pytest.mark.parametrize("lr,learn_gamma", [(0.05, True), (1e12, True), (0.05, False)])
    def test_history_records_gamma(self, lr, learn_gamma):
        ds = gaussian_dataset(n_classes=5, items=8, seed=10)
        cfg = TrainConfig(head="frn", way=3, shot=1, query=3, episodes=6, lr=lr,
                          val_every=0, embed_dim=4, learn_gamma=learn_gamma, seed=2)
        result = meta_train(ds, ds, cfg)
        assert result.aborted == (lr > 1.0)
        assert all(h["gamma"] >= GAMMA_FLOOR for h in result.history)
        assert result.history[-1]["gamma"] == float(result.params["gamma"])
        if not learn_gamma:
            assert all(h["gamma"] == 0.25 for h in result.history)

    def test_lr_drops_tenfold_at_half_and_three_quarters(self):
        ds = gaussian_dataset(n_classes=5, items=8, seed=19)
        cfg = TrainConfig(head="frn", way=3, shot=1, query=3, episodes=10, lr=0.05,
                          val_every=0, embed_dim=4, seed=6)
        lrs = [h["lr"] for h in meta_train(ds, ds, cfg).history]
        assert lrs == [0.05] * 5 + [0.05 / 10] * 2 + [0.05 / 10 / 10] * 3  # drops at 5, 7

    def test_validation_data_of_another_width_is_rejected_before_step_0(self, monkeypatch):
        ds_base = gaussian_dataset(n_classes=5, items=8, d_in=6, seed=12)
        ds_val = gaussian_dataset(n_classes=5, items=8, d_in=4, seed=13)
        cfg = TrainConfig(head="frn", way=3, shot=1, query=2, episodes=4,
                          val_every=2, val_trials=2, embed_dim=4, seed=0)
        sampled = []
        monkeypatch.setattr(training, "sample_episode", lambda *a: sampled.append(a))
        with pytest.raises(ValueError, match="validation data has 4 channels, training data has 6"):
            meta_train(ds_base, ds_val, cfg)
        assert sampled == []

    def test_history_records_losses(self):
        ds = gaussian_dataset(n_classes=5, items=8, seed=11)
        cfg = TrainConfig(head="proto", way=3, shot=1, query=3, episodes=5,
                          val_every=0, embed_dim=4, seed=3)
        result = meta_train(ds, ds, cfg)
        assert len(result.history) == 5
        assert all(math.isfinite(h["loss"]) for h in result.history)


def reference_pretrain_accuracy(result, ds, scale=1.0):
    """Per-item dummy-map classifier with its own woodbury solve per class,
    on embedded features times ``scale``."""
    idx_of = {cid: i for i, cid in enumerate(result.class_ids)}
    r = ds.r
    lam = r / result.embedding.d
    hats = []
    for mc in result.dummy_maps:
        g = mc.T @ mc
        hats.append(spd_solve(add_ridge((g + g.T) / 2, lam), g))
    correct = 0
    total = 0
    for cid, maps in ds.classes.items():
        for m in maps:
            q = result.embedding.apply(m.values) * scale
            errs = [float(np.sum((q - q @ hat) ** 2) / r) for hat in hats]
            correct += int(np.argmin(errs) == idx_of[cid])
            total += 1
    return correct / total


class TestPretrain:
    def test_reaches_high_held_in_accuracy(self):
        ds = gaussian_dataset(n_classes=8, items=12, r=2, d_in=6, sigma=0.1, seed=12)
        cfg = PretrainConfig(steps=150, batch_size=32, lr=0.1, embed_dim=4, seed=0)
        result = pretrain(ds, cfg)
        assert not result.aborted
        assert pretrain_accuracy(result, ds) >= 0.9

    @pytest.mark.parametrize("seed,sigma,steps", [(0, 0.4, 20), (1, 0.3, 40), (2, 0.6, 40)])
    def test_accuracy_matches_per_item_reference(self, seed, sigma, steps):
        ds = gaussian_dataset(n_classes=6, items=8, r=3, d_in=6, sigma=sigma, seed=20 + seed)
        cfg = PretrainConfig(steps=steps, batch_size=16, lr=0.1, embed_dim=5, seed=seed)
        result = pretrain(ds, cfg)
        assert pretrain_accuracy(result, ds) == reference_pretrain_accuracy(result, ds)

    def test_wide_embedding_scores_at_the_scale_pretraining_used(self, monkeypatch):
        # at d >= 256 pretraining scales features by 1/sqrt(d)
        ds = gaussian_dataset(n_classes=6, items=8, r=3, d_in=6, sigma=0.6, seed=26)
        result = pretrain(ds, PretrainConfig(steps=20, batch_size=16, lr=0.1, embed_dim=300, seed=0))
        scale = 1.0 / math.sqrt(300)
        scored = []
        original = training.frn_distances
        monkeypatch.setattr(training, "frn_distances",
                            lambda q, *rest: scored.append(q) or original(q, *rest))
        assert pretrain_accuracy(result, ds) == reference_pretrain_accuracy(result, ds, scale)
        np.testing.assert_array_equal(scored[0], np.vstack(
            [result.embedding.apply(m.values) * scale for maps in ds.classes.values() for m in maps]))

    def test_loss_decreases_over_first_ten_steps(self):
        ds = gaussian_dataset(n_classes=6, items=10, r=2, d_in=6, sigma=0.05, seed=13)
        cfg = PretrainConfig(steps=12, batch_size=48, lr=0.05, embed_dim=4, seed=1)
        result = pretrain(ds, cfg)
        losses = [h["loss"] for h in result.history]
        assert losses[10] < losses[0]

    @pytest.mark.parametrize("lr", [0.05, 1e12])  # 1e12 drives gamma to the floor, then aborts
    def test_history_records_clamped_gamma(self, lr):
        ds = gaussian_dataset(n_classes=4, items=6, seed=14)
        result = pretrain(ds, PretrainConfig(steps=5, lr=lr, embed_dim=4, seed=2))
        assert result.aborted == (lr > 1.0)
        assert all(h["gamma"] >= GAMMA_FLOOR for h in result.history)
        assert result.history[-1]["gamma"] == result.gamma
        if lr > 1.0:
            assert result.history[0]["gamma"] == GAMMA_FLOOR

    def test_lr_drops_tenfold_at_six_and_eight_and_a_half_tenths(self):
        ds = gaussian_dataset(n_classes=4, items=6, seed=14)
        result = pretrain(ds, PretrainConfig(steps=10, embed_dim=4, seed=2))
        lrs = [h["lr"] for h in result.history]
        assert lrs == [0.05] * 6 + [0.05 / 10] * 2 + [0.05 / 10 / 10] * 2  # drops at 6, 8

    def test_dummy_maps_distinct_and_discardable(self):
        ds = gaussian_dataset(n_classes=4, items=6, seed=14)
        result = pretrain(ds, PretrainConfig(steps=5, embed_dim=4, seed=2))
        assert result.dummy_maps.shape[0] == 4
        assert not np.allclose(result.dummy_maps[0], result.dummy_maps[1])
        init = result.as_init()
        assert "dummy_0" not in init
        assert set(init) == {"embed_weight", "embed_bias", "alpha", "beta", "gamma"}
        assert float(init["alpha"]) == 0.0 and float(init["beta"]) == 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        params = {
            "embed_weight": rng.standard_normal((4, 3)),
            "gamma": np.array(0.25),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"config_hash": "abc123", "rng_state": {"seed": 7}})
        loaded, meta = load_checkpoint(path)
        assert meta["config_hash"] == "abc123"
        assert meta["rng_state"] == {"seed": 7}
        assert meta["precision"] == "f64"
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(training.CheckpointError):
            load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))}, {})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(training.CheckpointError):
            load_checkpoint(path)


class TestEvalHeadFn:
    def test_trained_params_power_evaluation(self):
        ds = gaussian_dataset(n_classes=6, items=8, sigma=0.05, seed=16)
        cfg = TrainConfig(head="frn", way=3, shot=1, query=3, episodes=5,
                          val_every=0, embed_dim=4, seed=4)
        result = meta_train(ds, ds, cfg)
        head_fn = make_eval_head_fn(result.params, cfg)
        episode = sample_episode(ds, 3, 1, 2, trial_rng(0, 0))
        logits = head_fn(episode)
        assert logits.shape == (6, 3)

    def test_embedding_model_apply(self):
        emb = EmbeddingModel(weight=np.eye(3) * 2.0, bias=np.ones(3))
        out = emb.apply(np.ones((2, 3)))
        np.testing.assert_array_equal(out, np.full((2, 3), 3.0))
