"""The benchmark under perfbench/ wraps program functions by module and name
from outside the package; every name it patches must still resolve."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    yield module
    sys.modules.pop("spans", None)


def test_instrument_patches_and_restores_every_target(spans):
    targets = [(m, a) for m, a, _ in spans.SPAN_TARGETS]
    targets += [("frn.training", "trial_rng"), ("frn.training", "sgd_step"),
                ("frn.training", "make_eval_head_fn")]
    before = {t: getattr(*spans._resolve(*t)) for t in targets}
    with spans.Recorder().instrument(True):
        for t in targets:
            assert getattr(*spans._resolve(*t)) is not before[t], t
    for t in targets:
        assert getattr(*spans._resolve(*t)) is before[t], t


def test_every_head_runs_through_the_wrapped_names(spans, monkeypatch):
    # head functions are built before the names are swapped: a scorer bound
    # at build time would escape the spans and the benchmark's checks
    import numpy as np

    import frn.episodes
    from frn.data import GenSpec, generate
    from frn.head import HeadParams
    from frn.training import EmbeddingModel, feature_transform

    ds = generate(GenSpec(6, 6, 2, 4, 0.05, "gaussian-prototype", 0))
    heads = {
        kind: frn.episodes.make_head_fn(kind, HeadParams())
        for kind in ("frn", "proto", "dsn", "ctx")
    }
    transform = feature_transform(EmbeddingModel.random(4, 4, np.random.default_rng(0)), False)
    heads["frn+transform"] = frn.episodes.make_head_fn("frn", HeadParams(), transform=transform)
    recorder = spans.Recorder()
    with recorder.instrument(True):
        for head_fn in heads.values():
            frn.episodes.evaluate(ds, head_fn, n=3, k=1, q=2, trials=2, seed=0)
    names = {s[0] for s in recorder.spans}
    for name in ("head.score", "baselines.proto", "baselines.dsn", "baselines.ctx",
                 "episodes.transform"):
        assert name in names, name

    episode = frn.episodes.sample_episode(ds, 3, 1, 2, frn.episodes.trial_rng(0, 0))
    before = heads["frn"](episode)
    original = frn.episodes.episode_logits
    monkeypatch.setattr(frn.episodes, "episode_logits", lambda *a, **k: original(*a, **k) * 2.0)
    assert not np.array_equal(heads["frn"](episode), before)


@pytest.mark.parametrize("formulation, solve", [("direct", "linalg.spd_inverse"),
                                                 ("woodbury", "linalg.spd_solve")])
def test_frn_scores_through_the_wrapped_linalg_names(spans, formulation, solve):
    # the benchmark's layer table reads these spans; scoring that goes
    # around the wrapped names would leave its head and linalg rows empty
    import frn.episodes
    from frn.data import GenSpec, generate
    from frn.head import HeadParams

    ds = generate(GenSpec(6, 6, 2, 4, 0.05, "gaussian-prototype", 0))
    head_fn = frn.episodes.make_head_fn("frn", HeadParams(), formulation=formulation)
    recorder = spans.Recorder()
    with recorder.instrument(True):
        frn.episodes.evaluate(ds, head_fn, n=3, k=1, q=2, trials=2, seed=0)
    names = {s[0] for s in recorder.spans}
    for name in ("head.reconstruct", f"head.{formulation}", "linalg.gram", solve):
        assert name in names, name


def test_training_solves_run_through_the_wrapped_names(spans):
    # the fused training nodes solve inside the graph build and inside
    # backward; solves that went around autodiff._spd_solve_np would leave
    # the benchmark's linalg.spd_solve count and its autodiff self times wrong
    from dataclasses import replace

    from frn.data import GenSpec, generate
    from frn.training import PretrainConfig, TrainConfig, meta_train, pretrain

    ds = generate(GenSpec(5, 6, 2, 4, 0.05, "gaussian-prototype", 0))
    cfg = TrainConfig(head="frn", way=3, shot=2, query=2, episodes=2, val_every=0, embed_dim=4)
    runs = {
        "pretrain": lambda: pretrain(ds, PretrainConfig(steps=2, batch_size=4, embed_dim=4)),
        "meta_train": lambda: meta_train(ds, ds, cfg),
        "meta_train direct": lambda: meta_train(ds, ds, replace(cfg, shot=1, embed_dim=6)),
    }
    for label, run in runs.items():
        recorder = spans.Recorder()
        with recorder.instrument(True):
            run()
        names = [s[0] for s in recorder.spans]
        solve_parents = {names[s[3]] for s in recorder.spans if s[0] == "linalg.spd_solve"}
        for name in ("autodiff.forward", "autodiff.backward"):
            assert name in names, (label, name)
            assert name in solve_parents, (label, name)


def test_benchmark_selftest_passes():
    # every workload end to end at tiny sizes: a src/ change that breaks a
    # workload or a wrapped name fails here, not only in the benchmark
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest passed"


def test_traced_spans_stay_nested_with_direct_worker_threads(spans, monkeypatch):
    # the direct kernel runs chunks of queries on worker threads; they must
    # call no wrapped name, or spans from two threads would interleave on the
    # recorder's one stack and the layer table's self times would go wrong
    import frn.episodes
    import frn.head
    from frn.data import GenSpec, generate
    from frn.head import HeadParams

    monkeypatch.setattr(frn.head, "_WORKERS", 2)  # dispatch even on a one-CPU box
    ds = generate(GenSpec(6, 8, 3, 24, 0.05, "gaussian-prototype", 0))
    head_fn = frn.episodes.make_head_fn("frn", HeadParams(), formulation="direct")
    recorder = spans.Recorder()
    with recorder.instrument(True):
        frn.episodes.evaluate(ds, head_fn, n=3, k=2, q=4, trials=3, seed=0)
    names = [s[0] for s in recorder.spans]
    # each pool's factor is made once, on the calling thread, and no chunk adds a span
    assert names.count("head.direct") == names.count("linalg.gram") == 3 * 3  # trials x pools
    assert names.count("linalg.spd_inverse") == names.count("head.direct")
    assert min(recorder.self_times()) >= 0
    for name, start, end, parent, _ in recorder.spans:
        if parent >= 0:
            _, p_start, p_end, _, _ = recorder.spans[parent]
            assert p_start <= start <= end <= p_end, name
