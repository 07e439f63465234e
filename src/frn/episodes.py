"""Episodic sampling and evaluation.

Episodes are n-way k-shot tasks: n classes drawn without replacement,
k support items and q query items per class, drawn without replacement
within the class. Evaluation runs many independent trials and reports
mean accuracy with a normal-approximation 95% confidence interval
(1.96 * sample std / sqrt(trials)).

Randomness uses the counter-based Philox generator keyed by
(seed, trial), so every trial has its own substream and results are
identical no matter how trials are scheduled. A report's
``scores_sha256`` digests every trial's logits, bits, dtype and shape, so
two runs that report equal digests scored every query identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import baselines
from .head import FeatureMap, HeadParams, SupportPool, episode_logits
from .linalg import ShapeError


class SamplingError(ValueError):
    """An episode request the dataset cannot satisfy."""


class EvaluationError(RuntimeError):
    """A trial failed; ``completed_trials`` holds the progress made."""

    def __init__(self, message: str, completed_trials: int):
        super().__init__(message)
        self.completed_trials = completed_trials


@dataclass
class Dataset:
    """Labeled feature maps grouped by class, all sharing (r, d)."""

    classes: dict[int, list[FeatureMap]]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("dataset needs at least one class")
        shapes = set()
        for cid, maps in self.classes.items():
            if not maps:
                raise ValueError(f"class {cid} has no items")
            shapes.update((m.r, m.d) for m in maps)
        if len(shapes) != 1:
            raise ShapeError(f"feature maps disagree in shape: {sorted(shapes)}")
        self._r, self._d = shapes.pop()

    @property
    def r(self) -> int:
        return self._r

    @property
    def d(self) -> int:
        return self._d

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @classmethod
    def from_arrays(cls, items: np.ndarray, labels: Sequence[int]) -> "Dataset":
        """Build from an (n_items, r, d) array and per-item class ids."""
        items = np.asarray(items)
        if items.ndim != 3:
            raise ShapeError(f"items must be (n, r, d), got shape {items.shape}")
        if len(labels) != items.shape[0]:
            raise ValueError(f"{len(labels)} labels for {items.shape[0]} items")
        classes: dict[int, list[FeatureMap]] = {}
        for x, y in zip(items, labels):
            classes.setdefault(int(y), []).append(FeatureMap(values=np.array(x)))
        return cls(classes=classes)


@dataclass(frozen=True)
class Episode:
    """One sampled n-way k-shot task with episode-local labels in [0, n)."""

    n: int
    k: int
    q: int
    support: list[SupportPool]
    queries: list[tuple[FeatureMap, int]]
    source_classes: tuple[int, ...] = ()


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent counter-based substream for one trial of one run."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(trial)]))


def sample_episode(ds: Dataset, n: int, k: int, q: int, rng: np.random.Generator) -> Episode:
    """Draw an episode uniformly without replacement; deterministic given rng."""
    if n < 2:
        raise SamplingError(f"episodes need at least 2 ways, got n={n}")
    if k < 1 or q < 1:
        raise SamplingError(f"shot and query counts must be >= 1, got k={k}, q={q}")
    if ds.n_classes < n:
        raise SamplingError(f"dataset has {ds.n_classes} classes, episode needs {n}")
    class_ids = sorted(ds.classes)
    chosen = [class_ids[i] for i in rng.choice(len(class_ids), size=n, replace=False)]
    support = []
    queries: list[tuple[FeatureMap, int]] = []
    for local, cid in enumerate(chosen):
        items = ds.classes[cid]
        if len(items) < k + q:
            raise SamplingError(
                f"class {cid} has {len(items)} items, episode needs k+q={k + q}"
            )
        perm = rng.permutation(len(items))
        support.append(SupportPool.from_maps(local, [items[i] for i in perm[:k]]))
        queries.extend((items[i], local) for i in perm[k : k + q])
    return Episode(n=n, k=k, q=q, support=support, queries=queries,
                   source_classes=tuple(chosen))


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary over independent episode trials.

    ``scores_sha256`` is the hex SHA-256 of each trial's logits in trial
    order: for each, its dtype and shape as text, then its C-ordered bytes.
    """

    trials: int
    accuracy_mean: float
    ci95_halfwidth: float
    per_trial: np.ndarray
    rng_seed: int
    scores_sha256: str

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "accuracy_mean": self.accuracy_mean,
            "ci95_halfwidth": self.ci95_halfwidth,
            "rng_seed": self.rng_seed,
            "per_trial": [float(a) for a in self.per_trial],
            "scores_sha256": self.scores_sha256,
        }

    def to_text(self) -> str:
        lines = [
            f"{'trials':<18}{self.trials}",
            f"{'accuracy_mean':<18}{self.accuracy_mean:.6f}",
            f"{'ci95_halfwidth':<18}{self.ci95_halfwidth:.6f}",
            f"{'rng_seed':<18}{self.rng_seed}",
        ]
        return "\n".join(lines)


def evaluate(
    ds: Dataset,
    head_fn: Callable[[Episode], np.ndarray],
    n: int,
    k: int,
    q: int,
    trials: int,
    seed: int,
) -> EvalReport:
    """Run ``trials`` independent episodes and summarize query accuracy.

    ``head_fn`` maps an episode to a (num_queries, n) array of finite
    logits (any monotone score works; only the argmax matters here). A
    trial whose head fails, or returns any other shape or a non-finite
    value, raises ``EvaluationError``.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a confidence interval, got {trials}")
    accs = np.empty(trials, dtype=np.float64)
    digest = hashlib.sha256()
    for t in range(trials):
        try:
            episode = sample_episode(ds, n, k, q, trial_rng(seed, t))
            logits = np.asarray(head_fn(episode))
            want = (len(episode.queries), n)
            if logits.shape != want or not np.all(np.isfinite(logits)):
                raise ValueError(f"head returned logits of shape {logits.shape}, "
                                 f"not {want} finite values")
        except Exception as exc:
            raise EvaluationError(
                f"trial {t} failed after {t} complete trials: {exc}", completed_trials=t
            ) from exc
        labels = np.array([y for _, y in episode.queries])
        accs[t] = float(np.mean(np.argmax(logits, axis=1) == labels))
        digest.update(f"{logits.dtype.str}{logits.shape}".encode())
        digest.update(np.ascontiguousarray(logits).tobytes())
    mean = float(accs.mean())
    ci = float(1.96 * accs.std(ddof=1) / np.sqrt(trials))
    return EvalReport(
        trials=trials,
        accuracy_mean=mean,
        ci95_halfwidth=ci,
        per_trial=accs,
        rng_seed=int(seed),
        scores_sha256=digest.hexdigest(),
    )


def make_head_fn(
    kind: str,
    params: HeadParams | None = None,
    *,
    ctx_params=None,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Callable[[Episode], np.ndarray]:
    """Build an episode-to-logits function for one of the head kinds.

    The head function stacks the episode's query maps into one array and
    makes one scoring call for the whole episode. ``transform`` is applied
    to that (b, r, d) stack and to every support pool's values before
    scoring; pass an embedding or a feature rescale here. The frn head
    reconstructs on the side the shapes pick (``head.choose_formulation``)
    and dsn projects with the default ``ProjectionConfig``.
    """
    params = params or HeadParams()
    cparams = ctx_params or baselines.CtxParams.identity()
    # scorers are looked up at call time, so a function swapped into
    # its module after this returns is the one that runs
    scorers = {
        "frn": lambda q, pools: episode_logits(q, pools, params),
        "proto": lambda q, pools: baselines.proto_scores(q, pools, params.gamma),
        "dsn": lambda q, pools: baselines.dsn_scores(q, pools, params.gamma),
        "ctx": lambda q, pools: baselines.ctx_scores(q, pools, cparams, params.gamma),
    }
    if kind not in scorers:
        raise ValueError(f"unknown head kind {kind!r}; expected frn, proto, dsn or ctx")
    score = scorers[kind]

    def head_fn(episode: Episode) -> np.ndarray:
        queries = np.stack([qm.values for qm, _ in episode.queries])
        pools = episode.support
        if transform is not None:
            queries = transform(queries)
            pools = [
                SupportPool(class_id=p.class_id, k=p.k, values=transform(p.values))
                for p in pools
            ]
        return score(queries.reshape(-1, queries.shape[-1]), pools)

    return head_fn
