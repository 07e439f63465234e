"""Gradient-based optimization of head parameters and a linear embedding.

The embedding stands in for a feature extractor: a per-location affine map
from raw (r, d_in) inputs to (r, d) feature maps. Training differentiates
the full episode loss (cross-entropy plus optional orthogonality term)
through the closed-form reconstruction using the reverse-mode engine in
``autodiff``; no iterative inner solver is involved. Every head's graph
has one node per loss term. The ones that score every query against every
class pool are:

* frn: ``autodiff.ridge_recon_errors``, on the side
  ``head.choose_formulation`` picks from the episode's shapes, with the
  ridge weight ``head.effective_lambda`` gives, as eval does: below
  ``LAMBDA_FLOOR`` it is that constant, so alpha gets no gradient
  through it there. Pretraining runs it against the dummy maps on the
  woodbury side, where lambda is a constant.
* dsn: the same node on pooled maps (r = 1, rho = 1), on the direct side.
* proto and ctx: ``autodiff.proto_distances`` and ``autodiff.ctx_errors``,
  whose forwards are the eval heads' own.

``autodiff.cross_class_orthogonality`` is the orthogonality term of all
class pairs. ctx trains its key and value projections; only an untrained
eval head scores with ``CtxParams()``, the identity.

``feature_scale`` alone decides how features are scaled, for training,
pretraining, the heads that evaluate them and ``pretrain_accuracy``, from
the embedding's width d alone: by 1/sqrt(d) when d >= 256, else not at
all. lambda = (kr/d) exp(alpha) does not scale with the features, so the
scale is part of the model, fixed by its width.

Two regimes are provided:

* ``meta_train``: episodic training on sampled n-way k-shot tasks with
  periodic validation; returns the best-validation parameters.
* ``pretrain``: non-episodic minibatch classification over all base
  classes, where each class is represented by a learnable dummy feature
  map that acts as its support pool. Alpha and beta stay fixed at zero;
  gamma remains learnable. The dummy maps are discarded afterwards.

Both run one SGD loop, ``_descend``, with Nesterov momentum ``MOMENTUM``
and weight decay ``WEIGHT_DECAY`` on the embedding weight matrix only. The
learning rate drops tenfold at steps int(0.5 T) and int(0.75 T) of T
episodes (``META_LR_DECAY_AT``) and int(0.6 T) and int(0.85 T) of T
pretrain steps (``PRETRAIN_LR_DECAY_AT``). ``AUX_SCALE`` scales the
orthogonality term, ``DUMMY_INIT_SCALE`` the initial dummy maps, and dsn
trains at its eval head's ``ProjectionConfig().lambda_fixed``.
"""

from __future__ import annotations

import binascii
import json
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .baselines import CtxParams, ProjectionConfig
from .episodes import Dataset, Episode, SamplingError, evaluate, make_head_fn, sample_episode, trial_rng
from .head import LAMBDA_FLOOR, HeadParams, SupportPool, choose_formulation, frn_distances
from .linalg import NumericalError

GAMMA_FLOOR = 1e-6
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
META_LR_DECAY_AT = (0.5, 0.75)
PRETRAIN_LR_DECAY_AT = (0.6, 0.85)
AUX_SCALE = 0.03
DUMMY_INIT_SCALE = 0.1


class GradientError(ArithmeticError):
    """A loss or gradient came out non-finite; ``parameter`` names the culprit."""

    def __init__(self, message: str, parameter: str = "loss"):
        super().__init__(message)
        self.parameter = parameter


def grad(loss_fn: Callable[[dict], ad.Var], params: dict[str, np.ndarray]):
    """Evaluate ``loss_fn`` on Var-wrapped parameters and return its gradients.

    Returns ``(loss_value, grads)`` where grads maps each parameter name to
    an array of the parameter's shape (zeros if the loss does not depend on
    it). Raises GradientError on a non-finite loss or gradient.
    """
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise GradientError(f"parameter {name!r} is non-finite", parameter=name)
    variables = {name: ad.Var(np.asarray(value, dtype=np.float64)) for name, value in params.items()}
    loss = loss_fn(variables)
    value = float(ad.value_of(loss))
    if not math.isfinite(value):
        raise GradientError(f"loss is non-finite ({value!r})", parameter="loss")
    ad.backward(loss)
    grads = {}
    for name, var in variables.items():
        g = var.grad if var.grad is not None else np.zeros_like(var.value)
        if not np.all(np.isfinite(g)):
            raise GradientError(f"gradient of {name!r} is non-finite", parameter=name)
        grads[name] = g
    return value, grads


# ---------------------------------------------------------------------------
# embedding


@dataclass
class EmbeddingModel:
    """Per-location affine map from raw inputs to feature maps."""

    weight: np.ndarray  # (d_in, d)
    bias: np.ndarray  # (d,)

    @classmethod
    def random(cls, d_in: int, d: int, rng) -> "EmbeddingModel":
        return cls(
            weight=rng.standard_normal((d_in, d)) / math.sqrt(d_in),
            bias=np.zeros(d),
        )

    @property
    def d(self) -> int:
        return self.weight.shape[1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values @ self.weight + self.bias


DOWNSCALE_DIM_THRESHOLD = 256


def feature_scale(d: int) -> float:
    """The factor d-channel features are scaled by: 1/sqrt(d) iff d >= 256, else 1.

    Wide embeddings (the paper's ResNet-12 at d 640) train unstably
    without it; narrow ones (Conv-4 at d 64) need none.
    """
    return 1.0 / math.sqrt(d) if d >= DOWNSCALE_DIM_THRESHOLD else 1.0


def feature_transform(embedding: EmbeddingModel) -> Callable[[np.ndarray], np.ndarray]:
    """Embedding application scaled by ``feature_scale`` of its width, in the input's dtype."""
    scale = feature_scale(embedding.d)

    def transform(values: np.ndarray) -> np.ndarray:
        out = embedding.apply(values)
        return (out * scale if scale != 1.0 else out).astype(values.dtype, copy=False)

    return transform


# ---------------------------------------------------------------------------
# episode loss graphs


@dataclass
class TrainConfig:
    head: str = "frn"
    way: int = 5
    shot: int = 1
    query: int = 15
    episodes: int = 200
    lr: float = 0.05
    val_every: int = 50
    val_trials: int = 100
    val_query: int = 16
    val_way: int | None = None  # defaults to the training way
    embed_dim: int | None = None  # the embedding's width, which alone sets feature_scale
    learn_alpha: bool = True
    learn_beta: bool = True
    learn_gamma: bool = True
    use_aux: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, episodes=0, val_every=0, val_way=2)
        for name, low in (("val_trials", 2), ("val_query", 1)):  # what validation needs
            if self.val_every > 0 and getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low} when val_every > 0, got {getattr(self, name)}")


def _check_counts(cfg, **least):
    """Raise ValueError on an ``lr`` not finite and positive, naming the first
    field of ``least`` given below its least value, or an ``embed_dim`` below 1."""
    if not 0 < cfg.lr < math.inf:  # a NaN fails both comparisons
        raise ValueError(f"learning rate must be finite and positive, got {cfg.lr!r}")
    for name, low in {**least, "embed_dim": 1}.items():
        value = getattr(cfg, name)
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _episode_arrays(episode: Episode):
    support = [pool.values for pool in episode.support]
    queries = np.vstack([qm.values for qm, _ in episode.queries])
    labels = np.array([y for _, y in episode.queries])
    r = episode.support[0].r
    k = episode.k
    return support, queries, labels, k, r


def _embed(x: np.ndarray, variables: dict, scale: float):
    w = variables.get("embed_weight")
    h = ad.Var(x) if w is None else ad.affine(x, w, variables.get("embed_bias", 0.0))
    return ad.mul(h, scale) if scale != 1.0 else h


def _scalar(variables: dict, name: str, default: float):
    return variables.get(name, np.float64(default))


def _aux_term(supports, scale: float):
    """``scale`` times the cross-class orthogonality of the row-normalised pools.

    ``supports`` is the (n, kr, d) pool stack: a Var, or arrays that
    ``np.asarray`` stacks to that shape.
    """
    return ad.mul(ad.cross_class_orthogonality(ad.row_normalize(supports)), scale)


def episode_loss_graph(variables: dict, episode: Episode, cfg: TrainConfig, d: int, terms=None):
    """Build the full loss graph for one episode; returns the loss Var.

    ``variables`` holds Vars for the learnable parameters and may omit
    fixed ones (omitted head scalars default to alpha=0, beta=0, gamma
    from the config-independent default 1). A ``terms`` dict receives the
    forward values of the two loss terms, ``ce`` and ``aux`` (0.0 when
    the orthogonality term is off).
    """
    support, queries, labels, k, r = _episode_arrays(episode)
    scale = feature_scale(d)
    q_emb = _embed(queries, variables, scale)
    s_stack = _embed(np.stack(support), variables, scale)  # (n, kr, d)
    gamma = _scalar(variables, "gamma", 1.0)

    if cfg.head == "frn":
        alpha = _scalar(variables, "alpha", 0.0)
        beta = _scalar(variables, "beta", 0.0)
        lam = ad.mul(ad.exp(alpha), k * r / d)
        if lam.value < LAMBDA_FLOOR:  # eval's ``effective_lambda``: the floor, a constant
            lam = LAMBDA_FLOOR
        rho = ad.exp(beta)
        dists = ad.ridge_recon_errors(q_emb, s_stack, lam, rho, r, choose_formulation(k, r, d))
    elif cfg.head == "proto":
        dists = ad.proto_distances(q_emb, s_stack, r, k)
    elif cfg.head == "dsn":
        # the ridge residual of the pooled maps: r = 1 and rho = 1
        dists = ad.ridge_recon_errors(ad.block_mean_rows(q_emb, r), ad.block_mean_rows(s_stack, r),
                                      ProjectionConfig().lambda_fixed, None, 1, "direct")
    elif cfg.head == "ctx":
        wk, wv = variables["ctx_key"], variables["ctx_value"]
        dists = ad.ctx_errors(ad.matmul(q_emb, wk), ad.matmul(q_emb, wv),
                              ad.matmul(s_stack, wk), ad.matmul(s_stack, wv), r)
    else:
        raise ValueError(f"unknown head kind {cfg.head!r}")
    # the baselines' logits are normalised by the channel count d
    logits = ad.mul(ad.mul(dists, gamma), -1.0 if cfg.head == "frn" else -1.0 / d)

    loss = ce = ad.cross_entropy_logits(logits, labels)
    aux = 0.0
    if cfg.use_aux and len(support) >= 2:
        aux_term = _aux_term(s_stack, AUX_SCALE)
        loss = ad.add(ce, aux_term)
        aux = float(aux_term.value)
    if terms is not None:
        terms.update(ce=float(ce.value), aux=aux)
    return loss


# ---------------------------------------------------------------------------
# SGD


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
):
    """One in-place Nesterov SGD update with momentum ``MOMENTUM``.

    Weight decay ``WEIGHT_DECAY`` touches ``embed_weight`` only.
    """
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=True)
        if name == "embed_weight":
            g += WEIGHT_DECAY * p
        v = velocity.setdefault(name, np.zeros_like(p))
        v *= MOMENTUM
        v += g
        step = g + MOMENTUM * v
        params[name] = p - lr * step


def _descend(state, constants, lr, steps, decay_at, step_loss, after_step=None):
    """The SGD loop of both training regimes; returns ``(state, history, aborted)``.

    ``state`` holds the learned parameters and ``constants`` the fixed ones.
    The learning rate ``lr`` drops tenfold at step int(f * steps) for each f
    in ``decay_at``. Step t calls ``step_loss(t)`` for ``(loss_fn, terms)``:
    ``loss_fn`` builds the loss from all parameters, the learned ones as
    Vars, and fills ``terms`` for the history entry. After the ``sgd_step``
    and the ``GAMMA_FLOOR`` clamp, ``after_step(t, params, entry)`` may add
    to the entry. A non-finite loss or gradient ends the loop with an
    ``aborted_non_finite`` entry and the last finite state.
    """
    decay_steps = {int(f * steps) for f in decay_at}
    velocity: dict[str, np.ndarray] = {}
    history: list[dict] = []
    last_finite = {n: v.copy() for n, v in state.items()}
    for step in range(steps):
        if step in decay_steps and step > 0:
            lr /= 10.0
        loss_fn, terms = step_loss(step)
        try:
            with np.errstate(all="ignore"):
                loss_value, grads = grad(lambda variables: loss_fn({**constants, **variables}), state)
        except (GradientError, NumericalError):
            history.append({"step": step, "event": "aborted_non_finite", "lr": lr,
                            "gamma": float({**constants, **last_finite}["gamma"])})
            return last_finite, history, True
        last_finite = {n: v.copy() for n, v in state.items()}
        sgd_step(state, grads, velocity, lr)
        if "gamma" in state:
            state["gamma"] = np.maximum(state["gamma"], GAMMA_FLOOR)
        params = {**constants, **state}
        entry = {"step": step, "loss": loss_value, **terms, "gamma": float(params["gamma"]), "lr": lr}
        if after_step is not None:
            after_step(step, params, entry)
        history.append(entry)
    return state, history, False


def _learnable_names(cfg: TrainConfig) -> list[str]:
    names = ["embed_weight", "embed_bias"]
    if cfg.head == "frn":
        if cfg.learn_alpha:
            names.append("alpha")
        if cfg.learn_beta:
            names.append("beta")
    if cfg.learn_gamma:
        names.append("gamma")
    if cfg.head == "ctx":
        names.extend(["ctx_key", "ctx_value"])
    return names


def init_params(
    cfg: TrainConfig, d_in: int, rng, width: int | None = None
) -> dict[str, np.ndarray]:
    """Fresh parameter set: zero head scalars, gamma = 1/d, random (d_in, d) embedding.

    d is ``cfg.embed_dim or d_in``. The ctx projections act on the
    features that are trained, so they are (width, width), where
    ``width`` (default d) is the width of the embedding actually trained.
    """
    d = cfg.embed_dim or d_in
    emb = EmbeddingModel.random(d_in, d, rng)
    params = {
        "embed_weight": emb.weight,
        "embed_bias": emb.bias,
        "alpha": np.float64(0.0),
        "beta": np.float64(0.0),
        "gamma": np.float64(1.0 / d),
    }
    if cfg.head == "ctx":
        w = width or d
        params["ctx_key"] = rng.standard_normal((w, w)) / math.sqrt(w)
        params["ctx_value"] = rng.standard_normal((w, w)) / math.sqrt(w)
    return params


def head_params_from(params: dict[str, np.ndarray]) -> HeadParams:
    return HeadParams(
        alpha=float(params.get("alpha", 0.0)),
        beta=float(params.get("beta", 0.0)),
        gamma=max(float(params.get("gamma", 1.0)), GAMMA_FLOOR),
    )


def make_eval_head_fn(params: dict[str, np.ndarray], head: str | TrainConfig):
    """The ``head`` kind's eval function on trained ``params``, at the
    embedding's feature scale; a TrainConfig stands for its ``head``."""
    kind = head.head if isinstance(head, TrainConfig) else head
    emb = EmbeddingModel(weight=params["embed_weight"], bias=params["embed_bias"])
    ctx = None
    if kind == "ctx":
        ctx = CtxParams(key_proj=params["ctx_key"], value_proj=params["ctx_value"])
    return make_head_fn(kind, head_params_from(params), ctx_params=ctx, transform=feature_transform(emb))


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    best_val_accuracy: float
    history: list[dict]
    aborted: bool = False


VAL_SEED_OFFSET = 1000003


def meta_train(
    ds_base: Dataset,
    ds_val: Dataset,
    cfg: TrainConfig,
    init: dict[str, np.ndarray] | None = None,
) -> TrainResult:
    """Episodic SGD on sampled tasks, tracking the best validation accuracy.

    Each history entry records the loss and its two terms, ``ce`` and
    ``aux`` (the scaled orthogonality term, 0.0 when it is off), and gamma
    after the ``GAMMA_FLOOR`` clamp.

    On a non-finite loss or gradient the run aborts and returns the last
    finite parameters. Fixed head scalars (per the learn_* mask) are held
    as constants, so they keep their initial values exactly. Validation
    data must have the base data's width, and if validation will run, the
    classes and items its episodes need: else SamplingError, before any step.
    A set ``embed_dim`` must be the width of ``init``'s embed_weight, and
    every ``init`` tensor finite: else ValueError, before any step.
    """
    if ds_val.d != ds_base.d:
        raise ValueError(f"validation data has {ds_val.d} channels, training data has {ds_base.d}")
    if 0 < cfg.val_every <= cfg.episodes:
        way, need = cfg.val_way or cfg.way, cfg.shot + cfg.val_query
        if len(ds_val.classes) < way:
            raise SamplingError(f"validation data has {len(ds_val.classes)} classes, "
                                f"validation episodes need {way}")
        for cid, items in sorted(ds_val.classes.items()):
            if len(items) < need:
                raise SamplingError(f"validation class {cid} has {len(items)} items, "
                                    f"validation episodes need shot+val_query={need}")
    rng = np.random.default_rng(cfg.seed)
    width = init["embed_weight"].shape[-1] if init and "embed_weight" in init else None
    if width is not None and cfg.embed_dim not in (None, width):
        raise ValueError(f"embed_dim is {cfg.embed_dim}, but init's embed_weight is {width} wide")
    params = init_params(cfg, ds_base.d, rng, width)
    if init:
        for name, value in init.items():
            params[name] = np.array(value, dtype=np.float64)
            if not np.isfinite(params[name]).all():
                raise ValueError(f"init tensor {name!r} is not finite")
    learnable = _learnable_names(cfg)
    constants = {n: v for n, v in params.items() if n not in learnable}
    state = {n: np.array(params[n], dtype=np.float64) for n in learnable}
    d = state["embed_weight"].shape[1]
    best_val, best_params = -1.0, None

    def step_loss(step):
        episode = sample_episode(ds_base, cfg.way, cfg.shot, cfg.query, trial_rng(cfg.seed, step))
        terms = {}
        return (lambda variables: episode_loss_graph(variables, episode, cfg, d, terms)), terms

    def validate(step, current, entry):
        nonlocal best_val, best_params
        if not (cfg.val_every and (step + 1) % cfg.val_every == 0):
            return
        report = evaluate(
            ds_val,
            make_eval_head_fn(current, cfg.head),
            n=cfg.val_way or cfg.way,
            k=cfg.shot,
            q=cfg.val_query,
            trials=cfg.val_trials,
            seed=cfg.seed + VAL_SEED_OFFSET,
        )
        entry["val_accuracy"] = report.accuracy_mean
        if report.accuracy_mean > best_val:
            best_val = report.accuracy_mean
            best_params = {n: v.copy() for n, v in current.items()}

    state, history, aborted = _descend(state, constants, cfg.lr, cfg.episodes, META_LR_DECAY_AT,
                                       step_loss, validate)
    final = {**constants, **state}
    if best_val < 0:
        best_params = final
        best_val = float("nan")
    return TrainResult(
        params=final,
        best_params=best_params,
        best_val_accuracy=best_val,
        history=history,
        aborted=aborted,
    )


# ---------------------------------------------------------------------------
# pre-training with dummy class maps


@dataclass
class PretrainConfig:
    steps: int = 300
    batch_size: int = 32
    lr: float = 0.05
    embed_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, steps=0, batch_size=1)


@dataclass
class PretrainResult:
    embedding: EmbeddingModel
    gamma: float
    dummy_maps: np.ndarray  # (n_classes, r, d); discarded by downstream training
    class_ids: tuple[int, ...]
    history: list[dict]
    aborted: bool = False

    def as_init(self) -> dict[str, np.ndarray]:
        """Initial parameters for episodic fine-tuning (dummy maps dropped)."""
        return {
            "embed_weight": self.embedding.weight.copy(),
            "embed_bias": self.embedding.bias.copy(),
            "alpha": np.float64(0.0),
            "beta": np.float64(0.0),
            "gamma": np.float64(self.gamma),
        }


def _pretrain_logits_graph(variables: dict, batch: np.ndarray, r: int, d: int, n_classes: int, scale: float):
    q_emb = _embed(batch, variables, scale)
    dummies = ad.stack([variables[f"dummy_{c}"] for c in range(n_classes)])
    # one dummy map per class (shot 1), alpha = beta = 0: lam = r/d, rho = 1
    errs = ad.ridge_recon_errors(q_emb, dummies, r / d, None, r, "woodbury")
    return ad.mul(ad.mul(errs, variables["gamma"]), -1.0)


def pretrain(ds_base: Dataset, cfg: PretrainConfig) -> PretrainResult:
    """Non-episodic classification against learnable dummy feature maps.

    Every base class gets a learnable (r, d) matrix acting as its support
    pool; logits are reconstruction errors against it. alpha and beta are
    fixed at zero (so rho = 1 and lam = r/d); gamma is learned, and each
    history entry records it after the ``GAMMA_FLOOR`` clamp, with the
    accuracy of the batch's logits before the step.
    """
    rng = np.random.default_rng(cfg.seed)
    class_ids = tuple(sorted(ds_base.classes))
    items: list[tuple[np.ndarray, int]] = []
    for idx, cid in enumerate(class_ids):
        for m in ds_base.classes[cid]:
            items.append((m.values, idx))
    d_in = ds_base.d
    d = cfg.embed_dim or d_in
    r = ds_base.r
    scale = feature_scale(d)

    emb = EmbeddingModel.random(d_in, d, rng)
    state: dict[str, np.ndarray] = {
        "embed_weight": emb.weight,
        "embed_bias": emb.bias,
        "gamma": np.float64(1.0 / d),
    }
    for c in range(len(class_ids)):
        state[f"dummy_{c}"] = DUMMY_INIT_SCALE * rng.standard_normal((r, d)) / math.sqrt(d)

    def step_loss(step):
        srng = trial_rng(cfg.seed, step)
        idx = srng.choice(len(items), size=min(cfg.batch_size, len(items)), replace=False)
        batch = np.vstack([items[i][0] for i in idx])
        labels = np.array([items[i][1] for i in idx])
        terms = {}

        def loss_fn(variables):
            logits = _pretrain_logits_graph(variables, batch, r, d, len(class_ids), scale)
            terms["batch_accuracy"] = float(np.mean(np.argmax(logits.value, axis=1) == labels))
            return ad.cross_entropy_logits(logits, labels)

        return loss_fn, terms

    state, history, aborted = _descend(state, {}, cfg.lr, cfg.steps, PRETRAIN_LR_DECAY_AT, step_loss)
    dummy = np.stack([state[f"dummy_{c}"] for c in range(len(class_ids))])
    return PretrainResult(
        embedding=EmbeddingModel(weight=state["embed_weight"], bias=state["embed_bias"]),
        gamma=float(state["gamma"]),
        dummy_maps=dummy,
        class_ids=class_ids,
        history=history,
        aborted=aborted,
    )


def pretrain_accuracy(result: PretrainResult, ds: Dataset) -> float:
    """Top-1 accuracy of the dummy-map classifier over a dataset.

    The features are scaled as pretraining scaled them, by ``feature_scale``
    of the embedding's width. Each dummy map is a one-shot support pool
    scored with the pretraining head's alpha = beta = 0, on the side
    ``frn_distances`` picks from the shapes. Pretraining itself
    runs the woodbury node; the two sides differ only by rounding.
    """
    transform = feature_transform(result.embedding)
    idx_of = {cid: i for i, cid in enumerate(result.class_ids)}
    queries, labels = [], []
    for cid, maps in ds.classes.items():
        queries.extend(transform(m.values) for m in maps)
        labels.extend([idx_of[cid]] * len(maps))
    pools = [SupportPool(class_id=i, k=1, values=mc) for i, mc in enumerate(result.dummy_maps)]
    dists = frn_distances(np.vstack(queries), pools, HeadParams())
    return float(np.mean(np.argmin(dists, axis=1) == np.array(labels)))


# ---------------------------------------------------------------------------
# checkpoint container

CHECKPOINT_MAGIC = b"FRNCKPT1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or corrupt checkpoint file."""


def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict | None = None):
    """Write a versioned binary container with tensors, rng state and config hash."""
    meta = dict(meta or {})
    tensors = []
    payloads = []
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        tensors.append({"name": name, "dtype": "f64", "shape": list(arr.shape)})
        payloads.append(arr.tobytes())  # tobytes always emits C order
    header = {
        "precision": meta.pop("precision", "f64"),
        "config_hash": meta.pop("config_hash", ""),
        "rng_state": meta.pop("rng_state", None),
        "extra": meta,
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes + b"".join(payloads)
    crc = binascii.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + body + struct.pack("<I", crc))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and meta of a checkpoint; CheckpointError if it is damaged
    or a tensor holds a non-finite value."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 12 or blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    body, crc_stored = blob[8:-4], struct.unpack("<I", blob[-4:])[0]
    if binascii.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path} failed its checksum")
    version, header_len = struct.unpack("<II", body[:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset = 8 + header_len
    if offset > len(body):
        raise CheckpointError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(body[8:offset].decode("utf-8"))
        specs = [(spec["name"], spec["dtype"], tuple(int(n) for n in spec["shape"]))
                 for spec in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path} has a malformed header: {exc!r}") from exc
    params = {}
    for name, dtype, shape in specs:
        if dtype != "f64":
            raise CheckpointError(f"{path}: tensor {name!r} has dtype {dtype!r}; only 'f64' is read")
        if any(n < 0 for n in shape):
            raise CheckpointError(f"{path}: tensor {name!r} has a negative shape {shape}")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(body):
            raise CheckpointError(f"{path}: tensor {name!r} is truncated at byte {len(CHECKPOINT_MAGIC) + offset}")
        params[name] = np.frombuffer(body[offset : offset + nbytes], dtype=np.float64).reshape(shape).copy()
        finite = np.isfinite(params[name]).reshape(-1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise CheckpointError(f"{path}: tensor {name!r} has a non-finite value at flat index {bad}"
                                  f" (byte {len(CHECKPOINT_MAGIC) + offset + 8 * bad})")
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{path}: {len(body) - offset} bytes follow the last tensor")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: header 'extra' is not a JSON object")
    if not isinstance(extra.get("train_config") or {}, dict):
        raise CheckpointError(f"{path}: header 'train_config' is not a JSON object")
    meta = {
        "precision": header.get("precision", "f64"),
        "config_hash": header.get("config_hash", ""),
        "rng_state": header.get("rng_state"),
        **extra,
    }
    return params, meta
