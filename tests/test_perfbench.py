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
    transform = feature_transform(EmbeddingModel.random(4, 4, np.random.default_rng(0)))
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


# r = 2, d = 4: 1-shot pools (kr = 2 < d) score on the direct side and
# 2-shot pools (kr = d = 4, a tie) on woodbury; either way all of an
# episode's pools score in one pass inside head.score, with no per-pool
# head span, and each side's factor inverts and solves nothing
@pytest.mark.parametrize("shot, formulation, solve", [
    pytest.param(1, "direct", "linalg.spd_inverse", id="direct-linalg.spd_inverse"),
    pytest.param(2, "woodbury", "linalg.spd_inverse", id="woodbury-linalg.spd_inverse"),
])
def test_frn_scores_through_the_wrapped_linalg_names(spans, shot, formulation, solve):
    # the benchmark's layer table reads these spans; scoring that goes
    # around the wrapped names would leave its head and linalg rows empty
    import frn.episodes
    from frn.data import GenSpec, generate
    from frn.head import HeadParams, choose_formulation

    assert choose_formulation(shot, 2, 4) == formulation
    ds = generate(GenSpec(6, 6, 2, 4, 0.05, "gaussian-prototype", 0))
    head_fn = frn.episodes.make_head_fn("frn", HeadParams())
    recorder = spans.Recorder()
    with recorder.instrument(True):
        frn.episodes.evaluate(ds, head_fn, n=3, k=shot, q=2, trials=2, seed=0)
    names = {s[0] for s in recorder.spans}
    for name in ("head.score", "linalg.gram", solve):
        assert name in names, name
    assert not names & {"head.reconstruct", "head.direct", "head.woodbury", "linalg.spd_solve"}


def test_training_solves_run_through_the_wrapped_names(spans):
    # both training nodes invert each class once in the graph build, through
    # head's spd_inverse, and their backwards reuse M^-1 instead of solving;
    # a factor that went around the wrapped name would leave the benchmark's
    # linalg counts and its autodiff self times wrong. spd_inverse runs
    # potri, so without validation no step solves at all.
    from collections import Counter
    from dataclasses import replace

    from frn.data import GenSpec, generate
    from frn.training import PretrainConfig, TrainConfig, meta_train, pretrain

    ds = generate(GenSpec(5, 6, 2, 4, 0.05, "gaussian-prototype", 0))
    cfg = TrainConfig(head="frn", way=3, shot=2, query=2, episodes=2, val_every=0, embed_dim=4)
    # (run, classes per step): pretraining scores against every base class
    runs = {
        "pretrain": (lambda: pretrain(ds, PretrainConfig(steps=2, batch_size=4, embed_dim=4)), 5),
        "meta_train": (lambda: meta_train(ds, ds, cfg), cfg.way),
        "meta_train direct": (lambda: meta_train(ds, ds, replace(cfg, shot=1, embed_dim=6)), cfg.way),
    }
    for label, (run, classes) in runs.items():
        recorder = spans.Recorder()
        with recorder.instrument(True):
            run()
        names = [s[0] for s in recorder.spans]

        def ancestors(span):
            while span[3] >= 0:
                yield span[3]
                span = recorder.spans[span[3]]

        for name in ("autodiff.forward", "autodiff.backward"):
            assert name in names, (label, name)
        assert "linalg.spd_solve" not in names, label
        steps = [i for i, name in enumerate(names) if name == "autodiff.forward"]
        assert len(steps) == 2, label
        inverses = [s for s in recorder.spans if s[0] == "linalg.spd_inverse"]
        owners = [next((i for i in ancestors(s) if names[i] == "autodiff.forward"), None)
                  for s in inverses]
        assert Counter(owners) == {i: classes for i in steps}, label
        assert not any(names[i] == "autodiff.backward" for s in inverses for i in ancestors(s)), label


def test_benchmark_selftest_passes():
    # every workload end to end at tiny sizes: a src/ change that breaks a
    # workload or a wrapped name fails here, not only in the benchmark
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest passed"


def test_traced_spans_stay_nested_with_direct_worker_threads(spans, monkeypatch):
    # the frn pass and the ctx head run chunks (and the frn pass blocks)
    # of queries on worker threads; they must call no
    # wrapped name, or spans from two threads would interleave on the
    # recorder's one stack and the layer table's self times would go wrong
    import threading

    import frn.episodes
    import frn.head
    from frn.data import GenSpec, generate
    from frn.head import HeadParams, choose_formulation

    monkeypatch.setattr(frn.head, "_WORKERS", 2)  # dispatch even on a one-CPU box
    submitted, submit = [], frn.head._submit

    def counted(fn, *args):
        submitted.append(fn)
        return submit(fn, *args)

    monkeypatch.setattr(frn.head, "_submit", counted)
    # (head, d, the factor's inverse): 2-shot pools at r = 3 have kr = 6
    runs = {"direct": ("frn", 24, "linalg.spd_inverse"),
            "woodbury": ("frn", 4, "linalg.spd_inverse"),
            "ctx": ("ctx", 24, None)}
    assert choose_formulation(2, 3, 24) == "direct" and choose_formulation(2, 3, 4) == "woodbury"
    for label, (kind, d, solve) in runs.items():
        ds = generate(GenSpec(6, 8, 3, d, 0.05, "gaussian-prototype", 0))
        head_fn = frn.episodes.make_head_fn(kind, HeadParams())
        recorder = spans.Recorder()
        caller, threads, record = threading.get_ident(), set(), recorder.span

        def span(name, fn, record=record, threads=threads):
            traced = record(name, fn)

            def on_thread(*args, **kwargs):
                threads.add(threading.get_ident())
                return traced(*args, **kwargs)

            return on_thread

        monkeypatch.setattr(recorder, "span", span)
        submitted.clear()
        with recorder.instrument(True):
            frn.episodes.evaluate(ds, head_fn, n=3, k=2, q=4, trials=3, seed=0)
        assert submitted, label  # workers ran queries
        assert threads == {caller}, label  # no worker recorded a span
        names = [s[0] for s in recorder.spans]
        if solve is None:
            assert "baselines.ctx" in names and not any(n.startswith("linalg.") for n in names)
        else:
            # each pool's factor is made once, on the calling thread, and
            # stays in the span of the call that made it (the pass makes
            # it while the workers form the query products)
            assert names.count("linalg.gram") == names.count(solve) == 3 * 3, label  # trials x pools
            for name, _, _, parent, _ in recorder.spans:
                if name in ("linalg.gram", solve):
                    assert parent >= 0 and names[parent] == "head.score", (label, name)
        assert min(recorder.self_times()) >= 0, label
        for name, start, end, parent, _ in recorder.spans:
            if parent >= 0:
                _, p_start, p_end, _, _ = recorder.spans[parent]
                assert p_start <= start <= end <= p_end, (label, name)
