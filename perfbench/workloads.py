"""The benchmark's workloads: set-up, measured rounds, checks and metrics.

A run sets up its workload several times (data generation, container
save and ingest, warm-up), then repeats rounds until the measured time
reaches ``seconds``:

* eval rounds call ``frn.episodes.evaluate`` once per head, all heads on
  the same episodes, exactly as ``frn eval`` does;
* a train round runs ``pretrain`` and then ``meta_train`` from its
  ``as_init()``, with periodic validation.

An op is the unit a user waits for: one episode scored by every head of
the workload, or one meta-train step. A traced run alternates untraced
and traced rounds; end-to-end figures come from the untraced ones only.
In untraced rounds a fixed reference kernel runs after every op, and an
op's cost is its time over that of the reference beside it.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import frn.cli
from frn.data import GenSpec, generate, ingest, save_dataset
from frn.episodes import EvaluationError, evaluate, make_head_fn
from frn.head import HeadParams
from frn.training import PretrainConfig, TrainConfig, meta_train, pretrain

import checks
from spans import Recorder, clock

SETUP_REPEATS = 11
#: float32 product chains and Python-level loop steps of one reference run
REF_PRODUCTS = 20
REF_STEPS = 2000
#: episodes per head and round whose logits are checked against the reference
CHECKED_EPISODES = 1


@dataclass(frozen=True)
class EvalWorkload:
    data: GenSpec
    precision: str  # of the saved dataset and of the heads, as `frn gen|eval --precision`
    heads: tuple[str, ...]
    accurate: tuple[str, ...]  # heads that must reach ACCURATE on every round
    blind: tuple[str, ...]  # heads that must stay within 3 CI of chance
    way: int = 5
    shot: int = 5
    query: int = 15
    trials: int = 16  # episodes per head and round


@dataclass(frozen=True)
class TrainWorkload:
    base: GenSpec
    val: GenSpec
    pretrain: PretrainConfig
    train: TrainConfig


ACCURATE = 0.9


def _equal_mean(n_classes, items, r, d, sigma=0.05, seed=0):
    return GenSpec(n_classes, items, r, d, sigma, "equal-mean-multiset", seed)


WORKLOADS = {
    # kr = 125 < d = 640: the direct formulation, ResNet-12-sized maps in f32
    "eval-wide": EvalWorkload(
        data=GenSpec(10, 24, 25, 640, 0.05, "gaussian-prototype"),
        precision="f32", heads=("frn",), accurate=("frn",), blind=(),
        trials=16,
    ),
    # kr = 125 > d = 64: the woodbury formulation and all three baselines in f64
    "eval-heads": EvalWorkload(
        data=_equal_mean(20, 24, 25, 64),
        precision="f64", heads=("frn", "proto", "dsn", "ctx"),
        accurate=("frn", "ctx"), blind=("proto", "dsn"), trials=32,
    ),
    # pretrain against 20 dummy maps, then episodic fine-tuning of the frn head
    "train": TrainWorkload(
        base=_equal_mean(20, 24, 25, 64),
        val=_equal_mean(10, 24, 25, 64),
        pretrain=PretrainConfig(steps=30, batch_size=32, embed_dim=64),
        train=TrainConfig(
            head="frn", way=5, shot=5, query=15, episodes=40, val_every=20,
            val_trials=10, val_query=15, embed_dim=64,
        ),
    ),
}

#: the same workloads at sizes small enough for the self-test
TINY = {
    "eval-wide": replace(
        WORKLOADS["eval-wide"], data=GenSpec(6, 8, 4, 48, 0.05, "gaussian-prototype"),
        shot=2, query=3, trials=3,
    ),
    # 3 trials give too rough a CI for the blind check; selftest.py shows
    # it failing on an accurate head instead
    "eval-heads": replace(
        WORKLOADS["eval-heads"], data=_equal_mean(6, 8, 4, 16, sigma=0.02),
        query=3, trials=3, blind=(),
    ),
    "train": TrainWorkload(
        base=_equal_mean(6, 8, 4, 16, sigma=0.02),
        val=_equal_mean(5, 8, 4, 16, sigma=0.02),
        pretrain=PretrainConfig(steps=3, batch_size=8, embed_dim=16),
        train=TrainConfig(
            head="frn", way=5, shot=2, query=3, episodes=4, val_every=2,
            val_trials=3, val_query=3, embed_dim=16,
        ),
    ),
}


class Reference:
    """A fixed kernel whose time follows only the machine's speed.

    On a shared box the speed of one core drifts by a third within
    minutes, and with it every op time. The kernel is benchmark code
    with fixed inputs, so no change to the program moves it; timed right
    after each op, it sees the same machine speed the op saw. It mixes
    what the workloads spend their time on: float32 products of
    eval-wide's shapes, and small numpy calls made from a Python loop.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.q = rng.standard_normal((25, 640)).astype(np.float32)
        self.s = rng.standard_normal((125, 640)).astype(np.float32)
        self.st = np.ascontiguousarray(self.s.T)
        self.rows = rng.standard_normal((REF_STEPS, 16))

    def __call__(self) -> float:
        for _ in range(REF_PRODUCTS):
            (self.q @ self.st) @ self.s
        total = 0.0
        for row in self.rows:
            total += float(row @ row)
        return total


def round_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


#: round_seed indices of the datasets and the warm-up episodes, beyond any round's
DATA_SEEDS = {"eval": 90_001, "base": 90_002, "val": 90_003, "warm-up": 90_004}


# ---------------------------------------------------------------------------
# one run


@dataclass
class Tally:
    """Ops and checks attempted and failed in a run."""

    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Run:
    def __init__(self, name: str, workload, seed: int, workdir: Path):
        self.name = name
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.rec = Recorder()
        self.reference = Reference()
        self.tally = Tally()
        self.rounds: list[tuple[int, bool, float, float]] = []  # index, traced, start, end
        self.setup: dict[str, list[float]] = {}

    # -- set-up ------------------------------------------------------------

    def _dataset(self, spec: GenSpec, precision: str, tag: str, parts: dict):
        t0 = clock()
        ds = generate(replace(spec, seed=round_seed(self.seed, DATA_SEEDS[tag])))
        t1 = clock()
        path = self.workdir / f"{tag}.frnt"
        save_dataset(path, ds, dtype=np.float32 if precision == "f32" else np.float64)
        t2 = clock()
        ds = ingest(path)
        t3 = clock()
        for key, dt in (("data.generate_s", t1 - t0), ("data.save_s", t2 - t1), ("data.ingest_s", t3 - t2)):
            parts[key] = parts.get(key, 0.0) + dt
        return ds

    def set_up(self):
        for _ in range(SETUP_REPEATS):
            parts = {}
            t0 = clock()
            if isinstance(self.w, EvalWorkload):
                self.ds = self._dataset(self.w.data, self.w.precision, "eval", parts)
                for head in self.w.heads:
                    evaluate(self.ds, self._head_fn(head, []), self.w.way, self.w.shot,
                             self.w.query, trials=2, seed=round_seed(self.seed, DATA_SEEDS["warm-up"]))
            else:
                self.base = self._dataset(self.w.base, "f64", "base", parts)
                self.val = self._dataset(self.w.val, "f64", "val", parts)
                pre = pretrain(self.base, replace(self.w.pretrain, steps=2))
                meta_train(self.base, self.val,
                           replace(self.w.train, episodes=2, val_every=2, val_trials=2),
                           init=pre.as_init())
            parts["setup_s"] = clock() - t0
            for key, value in parts.items():
                self.setup.setdefault(key, []).append(value)

    # -- rounds --------------------------------------------------------------

    def _head_fn(self, head: str, captured: list):
        """The head function of `frn eval --head HEAD --precision P`, closing the op."""
        inner = make_head_fn(head, HeadParams(gamma=1.0 / self.w.data.d))
        f32 = self.w.precision == "f32"
        rec = self.rec

        def head_fn(episode):
            logits = inner(frn.cli._to_f32(episode) if f32 else episode)
            rec.close_op()
            if len(captured) < CHECKED_EPISODES:
                captured.append((episode, logits))
            return logits

        return head_fn

    def _eval_round(self, index: int):
        seed = round_seed(self.seed, index)
        outcome = []
        for head in self.w.heads:
            self.rec.label = head
            captured = []
            try:
                report = evaluate(self.ds, self._head_fn(head, captured), self.w.way,
                                  self.w.shot, self.w.query, trials=self.w.trials, seed=seed)
            except EvaluationError:
                traceback.print_exc(file=sys.stderr)
                report = None
            outcome.append((head, report, captured))
        return outcome

    def _check_eval(self, index: int, outcome):
        chance = 1.0 / self.w.way
        gamma = 1.0 / self.w.data.d
        for head, report, captured in outcome:
            where = f"round {index} head {head}"
            self.tally.check(report is not None, f"{where}: evaluate failed")
            for episode, logits in captured:
                self.tally.check(
                    checks.logits_match(head, episode, logits, gamma, self.w.precision),
                    f"{where}: logits differ from the float64 reference",
                )
            if report is None:
                continue
            if head in self.w.accurate:
                self.tally.check(report.accuracy_mean >= ACCURATE,
                                 f"{where}: accuracy {report.accuracy_mean:.3f} < {ACCURATE}")
            if head in self.w.blind:
                self.tally.check(abs(report.accuracy_mean - chance) <= 3 * report.ci95_halfwidth,
                                 f"{where}: accuracy {report.accuracy_mean:.3f} is not chance")

    def _train_round(self, index: int, traced: bool):
        seed = round_seed(self.seed, index)
        run_pretrain = self.rec.span("training.pretrain", pretrain) if traced else pretrain
        run_meta = self.rec.span("training.meta_train", meta_train) if traced else meta_train
        self.rec.step_kind = "pretrain_step"
        pre = run_pretrain(self.base, replace(self.w.pretrain, seed=seed))
        self.rec.step_kind = "meta_step"
        res = run_meta(self.base, self.val, replace(self.w.train, seed=seed), init=pre.as_init())
        return pre, res

    def _check_train(self, index: int, outcome):
        pre, res = outcome
        where = f"round {index}"
        self.tally.check(not pre.aborted, f"{where}: pretrain aborted")
        self.tally.check(not res.aborted, f"{where}: meta_train aborted")
        losses = [h["loss"] for h in pre.history + res.history if "loss" in h]
        self.tally.check(all(np.isfinite(losses)), f"{where}: non-finite loss")
        val = [h["val_accuracy"] for h in res.history if "val_accuracy" in h]
        final = val[-1] if val else float("nan")
        self.tally.check(final > 1.0 / self.w.train.way,
                         f"{where}: final validation accuracy {final:.3f} is not above chance")

    def measure(self, seconds: float, trace: bool):
        """Repeat rounds until their time reaches ``seconds``.

        With ``trace``, rounds alternate untraced and traced, and each
        kind gets half of ``seconds``.
        """
        is_eval = isinstance(self.w, EvalWorkload)
        spent = {False: 0.0, True: 0.0}
        share = seconds / 2 if trace else seconds
        index = 0
        while spent[False] < share or (trace and spent[True] < share) or index < 2:
            traced = trace and index % 2 == 1
            self.rec.round = index
            n_ops = len(self.rec.ops)
            outcome = None
            self.rec.reference = None if traced else self.reference
            with self.rec.instrument(traced):
                t0 = clock()
                try:
                    outcome = self._eval_round(index) if is_eval else self._train_round(index, traced)
                except Exception:  # a broken program must still give a result
                    traceback.print_exc(file=sys.stderr)
                t1 = clock()
            self.rec.op = -1  # an op a failure left open stays unfinished
            self.rounds.append((index, traced, t0, t1))
            spent[traced] += t1 - t0
            for op in self.rec.ops[n_ops:]:
                self.tally.check(op[4] is not None, f"round {index}: {op[0]} did not finish")
            if outcome is None:
                self.tally.check(False, f"round {index} raised")
            elif is_eval:
                self._check_eval(index, outcome)
            else:
                self._check_train(index, outcome)
            index += 1


# ---------------------------------------------------------------------------
# metrics


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


class OpTimes(NamedTuple):
    times: list[float]  # op durations (s)
    costs: list[float]  # op costs, in reference-kernel times
    mean_cost: float  # mean op duration over mean reference time
    measured: float  # time of the rounds (s)
    rounds: list[float]  # round durations (s)


def op_times(run: Run, traced: bool) -> OpTimes:
    """Op durations and costs of one kind of round.

    An op's cost is the sum over its parts (its head calls) of each
    part's duration over the time of the reference run that followed it;
    the parts of an eval-heads op lie seconds apart, so each is set
    against the machine speed of its own moment. Ops with a part that had
    no reference run have no cost. The reference runs are taken out of
    the measured and the round time.
    """
    chosen = {i for i, tr, *_ in run.rounds if tr == traced}
    ops = [op for op in run.rec.ops if op[2] in chosen and op[4] is not None]
    ref = {i: 0.0 for i in chosen}
    for op in ops:
        ref[op[2]] += op[5] or 0.0
    rounds = [t1 - t0 - ref[i] for i, tr, t0, t1 in run.rounds if tr == traced]
    if isinstance(run.w, EvalWorkload):
        # one op: the same trial scored by every head of the workload
        per_trial: dict[tuple, list[list]] = {}
        counters: dict[tuple, int] = {}
        for kind, label, rnd, start, end, after in ops:
            if kind != "episode":
                continue
            n = counters.get((rnd, label), 0)
            counters[(rnd, label)] = n + 1
            per_trial.setdefault((rnd, n), []).append([end - start, after])
        parts = [v for v in per_trial.values() if len(v) == len(run.w.heads)]
    else:
        parts = [[[op[4] - op[3], op[5]]] for op in ops if op[0] == "meta_step"]
    referenced = [v for v in parts if all(r for _, r in v)]
    refs = [r for v in referenced for _, r in v]
    return OpTimes(
        times=[sum(t for t, _ in v) for v in parts],
        costs=[sum(t / r for t, r in v) for v in referenced],
        mean_cost=(sum(t for v in referenced for t, _ in v) / len(referenced)
                   / statistics.fmean(refs)) if refs else 0.0,
        measured=sum(rounds),
        rounds=rounds,
    )


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The bounded metrics: those that repeat on a box whose speed drifts.

    An op's time moves with the machine's speed, its cost (in reference
    kernel times) does not; the op times themselves are in ``named``.
    The p95 of the cost is left out: within an op the machine's speed
    changes too, and the cost's tail measures that more than the program.
    """
    ops = op_times(run, traced=False)
    return {
        "setup_s": (_median(run.setup["setup_s"]), "s"),
        "op_cost.p50": (_pct(ops.costs, 50), "ref"),
        "op_cost.mean": (ops.mean_cost, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def named(run: Run) -> dict[str, tuple[float, str]]:
    """The workload's figures under the names users know them by."""
    untraced = {i for i, tr, *_ in run.rounds if not tr}
    ops = [op for op in run.rec.ops if op[2] in untraced and op[4] is not None]
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op[0], []).append(op[4] - op[3])
    timing = op_times(run, traced=False)
    times, measured = timing.times, timing.measured
    out = dict(end_to_end(run))
    out["ops"] = (len(times), "count")
    out["ops_per_s"] = (len(times) / measured if measured else 0.0, "1/s")
    out["op_ms.min"] = (1e3 * min(times) if times else 0.0, "ms")
    out["op_ms.p50"] = (1e3 * _pct(times, 50), "ms")
    out["op_ms.p95"] = (1e3 * _pct(times, 95), "ms")
    out["op_cost.p95"] = (_pct(timing.costs, 95), "ref")
    out["ref_ms.p50"] = (1e3 * _pct([op[5] for op in ops if op[5]], 50), "ms")
    out["round_s"] = (_median(timing.rounds), "s")
    episodes = by_kind.get("episode", [])
    if isinstance(run.w, EvalWorkload):
        out["episodes_per_s"] = (len(episodes) / measured if measured else 0.0, "1/s")
    else:
        out["train_s"] = out["round_s"]
        out["pretrain_step_ms.p50"] = (1e3 * _pct(by_kind.get("pretrain_step", []), 50), "ms")
        out["meta_step_ms.p50"] = out["op_ms.p50"]
        out["meta_step_ms.p95"] = out["op_ms.p95"]
    prefix = "" if isinstance(run.w, EvalWorkload) else "validation."
    out[prefix + "episode_ms.p50"] = (1e3 * _pct(episodes, 50), "ms")
    out[prefix + "episode_ms.p95"] = (1e3 * _pct(episodes, 95), "ms")
    t = run.tally
    out["fail_ratio"] = (t.failed / t.attempted if t.attempted else 1.0, "ratio")
    return out


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced rounds.

    Times (ms, s) are given for layers every workload runs. A layer only
    some workloads run is given as its share of the traced wall time,
    which reads 0 where it does not run; its per-call times are in
    ``layer_table``.
    """
    spans = run.rec.spans
    self_t = run.rec.self_times()
    traced_rounds = [(t1 - t0) for i, tr, t0, t1 in run.rounds if tr]
    wall = sum(traced_rounds) or 1.0
    n_rounds = max(len(traced_rounds), 1)
    names = [s[0] for s in spans]

    def per_call(name):
        return [self_t[i] for i, n in enumerate(names) if n == name]

    def per_op(prefix):
        """Self time of the spans named ``prefix``* summed per op, for ops that have any."""
        sums: dict[int, float] = {}
        for i, s in enumerate(spans):
            if s[0].startswith(prefix) and s[4] >= 0:
                sums[s[4]] = sums.get(s[4], 0.0) + self_t[i]
        return list(sums.values())

    def share(name):
        return (sum(per_call(name)) / wall, "ratio")

    def calls(name):
        return (names.count(name) / n_rounds, "count/round")

    def p50_ms(values):
        return (1e3 * _pct(values, 50), "ms")

    factors = ("linalg.spd_inverse", "linalg.spd_solve")
    outermost_factor = [
        s[2] - s[1] for s in spans
        if s[0] in factors and not (s[3] >= 0 and spans[s[3]][0] in factors)
    ]
    validate = sum(s[2] - s[1] for s in spans if s[0] == "training.validate")
    untraced_ops = op_times(run, traced=False).times
    traced_ops = op_times(run, traced=True).times
    base = float(np.mean(untraced_ops)) if untraced_ops else 0.0
    return {
        "data.generate_s": (_median(run.setup["data.generate_s"]), "s"),
        "data.save_s": (_median(run.setup["data.save_s"]), "s"),
        "data.ingest_s": (_median(run.setup["data.ingest_s"]), "s"),
        "episodes.sample_ms.p50": p50_ms(per_call("episodes.sample")),
        "episodes.sample.share": share("episodes.sample"),
        "episodes.transform.share": share("episodes.transform"),
        "head.score_ms.p50": p50_ms(per_op("head.")),
        "head.reconstruct.calls": calls("head.reconstruct"),
        "head.direct.calls": calls("head.direct"),
        "head.woodbury.calls": calls("head.woodbury"),
        "linalg.gram_ms.p50": p50_ms(per_call("linalg.gram")),
        "linalg.factor_ms.p50": p50_ms(outermost_factor),
        "linalg.spd_solve.calls": calls("linalg.spd_solve"),
        "baselines.proto.share": share("baselines.proto"),
        "baselines.dsn.share": share("baselines.dsn"),
        "baselines.ctx.share": share("baselines.ctx"),
        "autodiff.forward.share": share("autodiff.forward"),
        "autodiff.backward.share": share("autodiff.backward"),
        "training.sgd.share": share("training.sgd"),
        # validation's whole time, episodes included, not its self time
        "training.validate.share": (validate / wall, "ratio"),
        "tracing.overhead": (float(np.mean(traced_ops)) / base - 1.0 if base and traced_ops else 0.0, "ratio"),
    }


def layer_table(run: Run) -> list[str]:
    """Self time per layer and per span name over the traced rounds.

    Each row gives the self time, its share of the traced wall time and
    the calls per round; a span row also the median self time of one call.
    """
    self_t = run.rec.self_times()
    traced_rounds = [t1 - t0 for i, tr, t0, t1 in run.rounds if tr]
    wall = sum(traced_rounds) or 1.0
    n_rounds = max(len(traced_rounds), 1)
    groups: dict[str, list[float]] = {}
    for i, s in enumerate(run.rec.spans):
        groups.setdefault(s[0].split(".")[0], []).append(self_t[i])
        groups.setdefault(s[0], []).append(self_t[i])
    layers = sorted((k for k in groups if "." not in k), key=lambda k: -sum(groups[k]))
    lines = [f"{'layer / span':<22}{'self_s':>10}{'share':>8}{'calls/round':>13}{'p50_ms':>10}"]
    for layer in layers:
        for key in [layer] + sorted((k for k in groups if k.startswith(layer + ".")),
                                    key=lambda k: -sum(groups[k])):
            t = groups[key]
            row = f"{sum(t):>10.4f}{sum(t) / wall:>8.1%}{len(t) / n_rounds:>13.1f}"
            if key == layer:
                lines.append(f"{layer:<22}{row}")
            else:
                lines.append(f"{'  ' + key:<22}{row}{1e3 * _pct(t, 50):>10.4f}")
    covered = sum(sum(groups[k]) for k in layers)
    lines.append(f"{'(no span)':<22}{wall - covered:>10.4f}{(wall - covered) / wall:>8.1%}")
    return lines


def execute(name: str, seed: int, seconds: float, trace: bool, out_root: Path, workloads=None):
    """Set up and measure one workload; returns the finished Run."""
    workload = (workloads or WORKLOADS)[name]
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        run = Run(name, workload, seed, workdir)
        run.set_up()
        run.measure(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run
