"""The benchmark under perfbench/ wraps program functions by module and name
from outside the package; every name it patches must still resolve."""

import importlib
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
