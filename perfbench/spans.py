"""In-memory spans and op boundaries for the benchmark.

The benchmark never edits the program. It wraps the program's public
functions from outside, replacing each name in the module where its
caller looks it up (``frn.head.spd_inverse`` is the name ``frn.head``
calls, ``frn.linalg.spd_inverse`` is not), and restores them afterwards.

Two kinds of record are kept, both plain lists appended in start order:

* ops: one unit of user-visible work,
  ``[kind, label, round, start, end, ref]``. An eval episode runs from
  ``sample_episode`` entry to the head function's return; a training step
  from ``trial_rng`` (the first call of every pretrain and meta-train
  step) to the return of ``sgd_step``. Op boundaries are stamped in every
  run, traced or not. ``ref`` is the time of the reference kernel run
  right after the op closed, when one is set.
* spans: one call of a wrapped layer function,
  ``[name, start, end, parent, op]``. Spans exist only in traced rounds.
  A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

clock = time.perf_counter

#: (module, attribute, span name): the layer functions a traced round
#: wraps. A span name's prefix up to the first dot is its layer.
SPAN_TARGETS = (
    ("frn.episodes", "sample_episode", "episodes.sample"),
    ("frn.training", "sample_episode", "episodes.sample"),
    ("frn.cli", "_to_f32", "episodes.transform"),
    ("frn.training", "EmbeddingModel.apply", "episodes.transform"),
    ("frn.episodes", "episode_logits", "head.score"),
    ("frn.head", "reconstruct", "head.reconstruct"),
    ("frn.head", "reconstruct_direct", "head.direct"),
    ("frn.head", "reconstruct_woodbury", "head.woodbury"),
    ("frn.head", "gram", "linalg.gram"),
    ("frn.baselines", "gram", "linalg.gram"),
    ("frn.head", "spd_inverse", "linalg.spd_inverse"),
    ("frn.head", "spd_solve", "linalg.spd_solve"),
    ("frn.linalg", "spd_solve", "linalg.spd_solve"),
    ("frn.baselines", "spd_solve", "linalg.spd_solve"),
    ("frn.autodiff", "_spd_solve_np", "linalg.spd_solve"),
    ("frn.baselines", "proto_scores", "baselines.proto"),
    ("frn.baselines", "dsn_scores", "baselines.dsn"),
    ("frn.baselines", "ctx_scores", "baselines.ctx"),
    # training.grad builds the graph and calls autodiff.backward; with
    # backward and the solves as child spans, its self time is the forward pass
    ("frn.training", "grad", "autodiff.forward"),
    ("frn.autodiff", "backward", "autodiff.backward"),
    ("frn.training", "sgd_step", "training.sgd"),
    ("frn.training", "evaluate", "training.validate"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(replacements):
    """Set ``owner.name = make(original)`` for each entry; restore on exit."""
    saved = []
    try:
        for module, attr, make in replacements:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Recorder:
    """Ops and spans of one benchmark run, kept in memory until it ends."""

    def __init__(self):
        self.ops: list[list] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1  # index of the open op, -1 between ops
        self.label = ""  # head name of the evaluate call in progress
        self.round = -1
        self.step_kind = ""  # op kind a training step opens
        self.reference = None  # run after each op closes, outside the op's time

    def open_op(self, kind: str):
        self.op = len(self.ops)
        self.ops.append([kind, self.label, self.round, clock(), None, None])

    def close_op(self):
        if self.op >= 0:
            op = self.ops[self.op]
            op[4] = clock()
            self.op = -1
            if self.reference is not None:
                self.reference()
                op[5] = clock() - op[4]

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def opening(self, kind: str | None, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open_op(kind or self.step_kind)
            return fn(*args, **kwargs)

        return wrapper

    def closing(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.close_op()
            return out

        return wrapper

    def instrument(self, traced: bool):
        """Context that installs the op boundaries, plus every span if ``traced``."""
        wrap = {}
        if traced:
            for module, attr, name in SPAN_TARGETS:
                wrap[(module, attr)] = [functools.partial(self.span, name)]
        boundaries = {
            ("frn.episodes", "sample_episode"): functools.partial(self.opening, "episode"),
            ("frn.training", "trial_rng"): functools.partial(self.opening, None),
            ("frn.training", "sgd_step"): self.closing,
            # validation head functions close their episode when they return
            ("frn.training", "make_eval_head_fn"): lambda make: functools.wraps(make)(
                lambda *a, **k: self.closing(make(*a, **k))
            ),
        }
        for key, make in boundaries.items():
            wrap.setdefault(key, []).append(make)  # boundary outermost

        def compose(makers):
            def make(fn):
                for m in makers:
                    fn = m(fn)
                return fn

            return make

        return patched([(m, a, compose(makers)) for (m, a), makers in wrap.items()])

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write_jsonl(self, path, t0: float):
        """Write ops then spans, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for i, (kind, label, rnd, start, end, ref) in enumerate(self.ops):
                fh.write(json.dumps({
                    "type": "op", "id": i, "kind": kind, "label": label, "round": rnd,
                    "start": start - t0, "end": None if end is None else end - t0, "ref": ref,
                }) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "type": "span", "id": i, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent, "op": op,
                }) + "\n")
