"""Episode sampling determinism, evaluation statistics, and report formats."""

import json

import numpy as np
import pytest

from frn.episodes import (
    Dataset,
    EvalReport,
    EvaluationError,
    SamplingError,
    evaluate,
    make_head_fn,
    sample_episode,
    trial_rng,
)
from frn import head
from frn.baselines import CtxParams, ctx_scores
from frn.head import FeatureMap, HeadParams, SupportPool, episode_logits
from frn.training import EmbeddingModel, feature_transform

import reference_ops as refops


def toy_dataset(n_classes=6, items=8, r=2, d=4, sigma=0.1, seed=0):
    """Well-separated class prototypes plus small noise."""
    rng = np.random.default_rng(seed)
    classes = {}
    for c in range(n_classes):
        proto = rng.standard_normal((r, d)) * 2.0
        classes[c] = [
            FeatureMap(values=proto + sigma * rng.standard_normal((r, d)))
            for _ in range(items)
        ]
    return Dataset(classes=classes)


class TestDataset:
    def test_meta(self):
        ds = toy_dataset()
        assert (ds.r, ds.d, ds.n_classes) == (2, 4, 6)
        assert refops.class_counts(ds) == {c: 8 for c in range(6)}

    def test_shape_consistency_enforced(self):
        classes = {
            0: [FeatureMap(values=np.ones((2, 3)))],
            1: [FeatureMap(values=np.ones((3, 3)))],
        }
        with pytest.raises(Exception):
            Dataset(classes=classes)


class TestSampling:
    def test_exact_partition(self):
        ds = toy_dataset(n_classes=3, items=4)
        ep = sample_episode(ds, n=3, k=1, q=3, rng=trial_rng(0, 0))
        assert len(ep.support) == 3
        assert len(ep.queries) == 9
        # support and query items within a class are disjoint samples
        for pool in ep.support:
            local = pool.class_id
            pool_rows = pool.values
            for qm, y in ep.queries:
                if y == local:
                    assert not np.array_equal(qm.values, pool_rows[: qm.values.shape[0]])

    def test_same_seed_same_episode(self):
        ds = toy_dataset()
        a = sample_episode(ds, 5, 1, 3, trial_rng(42, 7))
        b = sample_episode(ds, 5, 1, 3, trial_rng(42, 7))
        assert a.source_classes == b.source_classes
        for pa, pb in zip(a.support, b.support):
            np.testing.assert_array_equal(pa.values, pb.values)
        for (qa, ya), (qb, yb) in zip(a.queries, b.queries):
            assert ya == yb
            np.testing.assert_array_equal(qa.values, qb.values)

    def test_different_trials_differ(self):
        ds = toy_dataset()
        a = sample_episode(ds, 5, 1, 3, trial_rng(42, 0))
        b = sample_episode(ds, 5, 1, 3, trial_rng(42, 1))
        same = a.source_classes == b.source_classes and all(
            np.array_equal(pa.values, pb.values) for pa, pb in zip(a.support, b.support)
        )
        assert not same

    def test_shape_counts(self):
        ds = toy_dataset(n_classes=8, items=20, r=3, d=5)
        ep = sample_episode(ds, n=5, k=1, q=15, rng=trial_rng(0, 0))
        assert len(ep.support) == 5
        assert all(p.values.shape == (3, 5) for p in ep.support)
        assert len(ep.queries) == 75

    def test_infeasible_way(self):
        ds = toy_dataset(n_classes=3)
        with pytest.raises(SamplingError):
            sample_episode(ds, n=4, k=1, q=1, rng=trial_rng(0, 0))

    def test_infeasible_items(self):
        ds = toy_dataset(n_classes=4, items=3)
        with pytest.raises(SamplingError):
            sample_episode(ds, n=3, k=2, q=2, rng=trial_rng(0, 0))

    def test_too_few_ways(self):
        ds = toy_dataset()
        with pytest.raises(SamplingError):
            sample_episode(ds, n=1, k=1, q=1, rng=trial_rng(0, 0))


class TestEvaluate:
    def test_chance_level_for_constant_head(self):
        ds = toy_dataset(n_classes=8, items=6)

        def head_fn(episode):
            logits = np.zeros((len(episode.queries), episode.n))
            logits[:, 0] = 1.0
            return logits

        report = evaluate(ds, head_fn, n=4, k=1, q=4, trials=1000, seed=1)
        assert abs(report.accuracy_mean - 0.25) <= 3 * report.ci95_halfwidth

    def test_separable_data_perfect_accuracy(self):
        ds = toy_dataset(sigma=0.0, seed=5)
        head_fn = make_head_fn("frn", HeadParams())
        report = evaluate(ds, head_fn, n=5, k=1, q=2, trials=50, seed=2)
        assert report.accuracy_mean == 1.0
        assert report.ci95_halfwidth == 0.0

    def test_report_invariants(self):
        ds = toy_dataset()
        head_fn = make_head_fn("frn", HeadParams())
        report = evaluate(ds, head_fn, n=3, k=1, q=2, trials=20, seed=3)
        assert report.trials == 20
        assert 0.0 <= report.accuracy_mean <= 1.0
        expected_ci = 1.96 * report.per_trial.std(ddof=1) / np.sqrt(20)
        assert report.ci95_halfwidth == pytest.approx(expected_ci)

    def test_deterministic_given_seed(self):
        ds = toy_dataset()
        head_fn = make_head_fn("frn", HeadParams())
        a = evaluate(ds, head_fn, n=3, k=1, q=2, trials=10, seed=9)
        b = evaluate(ds, head_fn, n=3, k=1, q=2, trials=10, seed=9)
        np.testing.assert_array_equal(a.per_trial, b.per_trial)

    def test_trials_minimum(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            evaluate(ds, lambda ep: None, n=3, k=1, q=2, trials=1, seed=0)

    def test_error_reports_completed_trials(self):
        ds = toy_dataset()
        calls = {"n": 0}

        def flaky(episode):
            calls["n"] += 1
            if calls["n"] == 4:
                raise RuntimeError("boom")
            return np.zeros((len(episode.queries), episode.n))

        with pytest.raises(EvaluationError) as err:
            evaluate(ds, flaky, n=3, k=1, q=2, trials=10, seed=0)
        assert err.value.completed_trials == 3

    @pytest.mark.parametrize("bad", [
        lambda ep: np.zeros((1, ep.n)),  # one row for every query
        lambda ep: np.zeros((len(ep.queries), ep.n - 2)),  # too few columns
        lambda ep: np.full((len(ep.queries), ep.n), np.nan),
        lambda ep: np.zeros(len(ep.queries)),  # 1-D
    ], ids=["one-row", "three-columns", "nan", "1-d"])
    def test_logits_of_the_wrong_shape_or_not_finite_fail_the_trial(self, bad):
        # each would otherwise read an accuracy of about 1 / n, or escape as
        # numpy's AxisError
        ds = toy_dataset()
        with pytest.raises(EvaluationError, match=r"trial 0 .*shape \(") as err:
            evaluate(ds, bad, n=5, k=1, q=3, trials=4, seed=0)
        assert err.value.completed_trials == 0

    def test_class_permutation_equivariance(self):
        ds = toy_dataset()
        ep = sample_episode(ds, 4, 2, 3, trial_rng(11, 0))
        head_fn = make_head_fn("frn", HeadParams())
        logits = head_fn(ep)
        perm = np.array([2, 0, 3, 1])
        # relabel pools under perm and rebuild the episode
        from frn.episodes import Episode
        from frn.head import SupportPool

        permuted_support = [None] * ep.n
        for pool in ep.support:
            permuted_support[perm[pool.class_id]] = SupportPool(
                class_id=int(perm[pool.class_id]), k=pool.k, values=pool.values
            )
        permuted = Episode(
            n=ep.n,
            k=ep.k,
            q=ep.q,
            support=permuted_support,
            queries=[(qm, int(perm[y])) for qm, y in ep.queries],
        )
        logits_perm = head_fn(permuted)
        np.testing.assert_allclose(logits_perm, logits[:, np.argsort(perm)], atol=0)
        labels = np.array([y for _, y in ep.queries])
        labels_perm = np.array([y for _, y in permuted.queries])
        acc = np.mean(np.argmax(logits, axis=1) == labels)
        acc_perm = np.mean(np.argmax(logits_perm, axis=1) == labels_perm)
        assert acc == acc_perm


class TestReportSerialization:
    def test_json_fields(self):
        report = EvalReport(
            trials=3,
            accuracy_mean=0.5,
            ci95_halfwidth=0.1,
            per_trial=np.array([0.4, 0.5, 0.6]),
            rng_seed=7,
            scores_sha256="ab" * 32,
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["trials"] == 3
        assert data["rng_seed"] == 7
        assert data["per_trial"] == [0.4, 0.5, 0.6]
        assert data["scores_sha256"] == "ab" * 32

    def test_text_table(self):
        report = EvalReport(
            trials=3,
            accuracy_mean=0.5,
            ci95_halfwidth=0.1,
            per_trial=np.array([0.4, 0.5, 0.6]),
            rng_seed=7,
            scores_sha256="ab" * 32,
        )
        text = report.to_text()
        assert "accuracy_mean" in text and "0.500000" in text


class TestScoresDigest:
    def test_one_logits_last_bit_or_dtype_changes_the_digest(self):
        ds = toy_dataset()
        base = make_head_fn("frn", HeadParams())

        def run(edit=lambda logits: logits):
            calls = iter(range(5))

            def head_fn(episode):
                logits = base(episode)
                return edit(logits) if next(calls) == 3 else logits

            return evaluate(ds, head_fn, n=3, k=1, q=2, trials=5, seed=4)

        ref = run()
        assert len(ref.scores_sha256) == 64 and run().scores_sha256 == ref.scores_sha256

        def last_bit(logits):
            out = logits.copy()
            out[1, 2] = np.nextafter(out[1, 2], np.inf)
            return out

        edits = [last_bit, lambda x: x.view(np.int64)]
        digests = {run(edit).scores_sha256 for edit in edits}
        assert len(digests) == 2 and ref.scores_sha256 not in digests
        # a result of any shape but (b, n) fails its trial, so it is never digested
        with pytest.raises(EvaluationError, match="trial 3"):
            run(lambda x: x[:, :, None])
        # the accuracies are unchanged: only the digest shows the last bit
        np.testing.assert_array_equal(run(last_bit).per_trial, ref.per_trial)

    @pytest.mark.parametrize("k", [1, 3])  # kr = 2 < d: direct; kr = 6 > d = 4: woodbury
    def test_stable_across_reruns_and_worker_counts(self, k, monkeypatch):
        ds = toy_dataset(items=10)
        digests = set()
        for workers in (1, 2, 3, 1):
            monkeypatch.setattr(head, "_WORKERS", workers)
            for kind in ("frn", "ctx"):
                report = evaluate(ds, make_head_fn(kind, HeadParams()), n=3, k=k, q=4, trials=3, seed=6)
                digests.add((kind, report.scores_sha256))
        assert len(digests) == 2


class TestHeadFactory:
    def test_all_kinds_run(self):
        ds = toy_dataset()
        ep = sample_episode(ds, 3, 2, 2, trial_rng(0, 0))
        for kind in ("frn", "proto", "dsn", "ctx"):
            logits = make_head_fn(kind, HeadParams())(ep)
            assert logits.shape == (6, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_head_fn("svm")

    def test_transform_applied(self):
        ds = toy_dataset()
        ep = sample_episode(ds, 3, 1, 2, trial_rng(0, 0))
        base = make_head_fn("frn", HeadParams())(ep)
        scaled = make_head_fn("frn", HeadParams(), transform=lambda v: v * 2.0)(ep)
        assert not np.allclose(base, scaled)

    def test_transform_of_query_stack_equals_per_map(self):
        # the head function transforms all queries in one call on a (b, r, d)
        # stack; numpy runs one product per map, so nothing may change
        ds = toy_dataset()
        ep = sample_episode(ds, 3, 2, 3, trial_rng(0, 1))
        rng = np.random.default_rng(5)
        # 256 channels: the features are scaled by 1/sqrt(256)
        transform = feature_transform(EmbeddingModel.random(ds.d, 256, rng))
        ctx = refops.random_ctx_params(256, rng=rng)
        pools = [
            SupportPool(class_id=p.class_id, k=p.k, values=transform(p.values))
            for p in ep.support
        ]
        queries = np.vstack([transform(qm.values) for qm, _ in ep.queries])
        for kind, expected in (
            ("frn", episode_logits(queries, pools, HeadParams())),
            ("ctx", ctx_scores(queries, pools, ctx, gamma=1.0)),
        ):
            head_fn = make_head_fn(kind, HeadParams(), ctx_params=ctx, transform=transform)
            assert np.array_equal(head_fn(ep), expected), kind
