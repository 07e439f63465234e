"""Command-line entry point: dataset generation, training, evaluation and
the formulation latency benchmark.

Every artifact embeds the config hash and seed, and a rerun with the
same config and seed reproduces identical metric values (latency numbers
are the one exemption). Exit codes: 0 success, 2 config error, 3 IO
error, 4 numerical error, 5 sampling error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .bench import BenchConfig, run_benchmark
from .data import GEN_KINDS, GenSpec, GenerationError, IngestError, generate, ingest, save_dataset
from .episodes import EvaluationError, SamplingError, evaluate, make_head_fn
from .head import HeadParams
from .linalg import NumericalError, ShapeError, resolve_dtype
from .training import (
    CheckpointError,
    GradientError,
    PretrainConfig,
    TrainConfig,
    load_checkpoint,
    make_eval_head_fn,
    meta_train,
    pretrain,
    save_checkpoint,
)


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_SAMPLING = 5


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, required=True, help="output directory")

    gen = sub.add_parser("gen", help="generate a synthetic dataset container")
    gen.add_argument("--kind", choices=GEN_KINDS, default="gaussian-prototype")
    gen.add_argument("--classes", type=int, default=8)
    gen.add_argument("--items", type=int, default=20)
    gen.add_argument("--r", type=int, default=4)
    gen.add_argument("--d", type=int, default=16)
    gen.add_argument("--sigma", type=float, default=0.05)
    gen.add_argument("--precision", choices=("f32", "f64"), default="f64")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, required=True, help="container file path")

    ev = sub.add_parser("eval", help="episodic evaluation of a head")
    ev.add_argument("--head", choices=("frn", "proto", "dsn", "ctx"), default=None)
    ev.add_argument("--data", type=str, required=True)
    ev.add_argument("--from", dest="from_ckpt", type=str, default=None)
    ev.add_argument("--way", type=int, default=5)
    ev.add_argument("--shot", type=int, default=1)
    ev.add_argument("--query", type=int, default=16)
    ev.add_argument("--trials", type=int, default=1000)
    ev.add_argument("--precision", choices=("f32", "f64"), default="f64")
    ev.add_argument("--formulation", choices=("auto", "direct", "woodbury"), default="auto")
    add_common(ev)

    bench = sub.add_parser("bench", help="latency benchmark of both formulations")
    bench.add_argument("--b", type=int, default=16)
    bench.add_argument("--shot", type=int, default=1, help="k")
    bench.add_argument("--r", type=int, default=25)
    bench.add_argument("--d", type=int, default=640)
    bench.add_argument("--iters", type=int, default=200)
    bench.add_argument("--warmup", type=int, default=20)
    bench.add_argument("--precision", choices=("f32", "f64"), default="f32")
    add_common(bench)

    def add_train_flags(p):
        p.add_argument("--head", choices=("frn", "proto", "dsn", "ctx"), default="frn")
        p.add_argument("--data", type=str, required=True)
        p.add_argument("--val-data", type=str, default=None,
                       help="validation container (defaults to --data)")
        p.add_argument("--from", dest="from_ckpt", type=str, default=None)
        p.add_argument("--way", type=int, default=5)
        p.add_argument("--shot", type=int, default=1)
        p.add_argument("--query", type=int, default=15)
        p.add_argument("--episodes", type=int, default=200)
        p.add_argument("--lr", type=float, default=0.05)
        p.add_argument("--embed-dim", type=int, default=None)
        p.add_argument("--downscale-features", action="store_true", default=None)
        p.add_argument("--fix-alpha", action="store_true")
        p.add_argument("--fix-beta", action="store_true")
        p.add_argument("--fix-gamma", action="store_true")
        p.add_argument("--no-aux", action="store_true")
        p.add_argument("--val-every", type=int, default=50)
        p.add_argument("--val-trials", type=int, default=100)
        p.add_argument("--val-query", type=int, default=16)
        p.add_argument("--formulation", choices=("auto", "direct", "woodbury"), default="auto")
        add_common(p)

    train = sub.add_parser("train", help="episodic meta-training")
    add_train_flags(train)

    pre = sub.add_parser("pretrain", help="non-episodic pre-training with dummy class maps")
    pre.add_argument("--data", type=str, required=True)
    pre.add_argument("--steps", type=int, default=300)
    pre.add_argument("--batch-size", type=int, default=32)
    pre.add_argument("--lr", type=float, default=0.05)
    pre.add_argument("--embed-dim", type=int, default=None)
    pre.add_argument("--downscale-features", action="store_true", default=None)
    add_common(pre)

    return parser


def _load_dataset(path: str, dtype):
    """The container's maps, cast once to the ``dtype`` the command computes in."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset container {path} does not exist")
    return ingest(p, dtype)


def cmd_gen(args) -> int:
    spec = GenSpec(
        n_classes=args.classes,
        items_per_class=args.items,
        r=args.r,
        d=args.d,
        noise_sigma=args.sigma,
        kind=args.kind,
        seed=args.seed,
    )
    ds = generate(spec)
    dtype = np.float32 if args.precision == "f32" else np.float64
    save_dataset(args.out, ds, dtype=dtype)
    meta = {
        "command": "gen",
        "config": dataclasses.asdict(spec),
        "seed": args.seed,
    }
    meta["config_hash"] = config_hash(meta["config"])
    print(_json_dumps(meta), end="")
    return EXIT_OK


def _eval_config(args) -> dict:
    return {
        "command": "eval",
        "head": args.head or "frn",
        "data": args.data,
        "from": args.from_ckpt,
        "way": args.way,
        "shot": args.shot,
        "query": args.query,
        "trials": args.trials,
        "precision": args.precision,
        "formulation": args.formulation,
        "seed": args.seed,
    }


def cmd_eval(args) -> int:
    ds = _load_dataset(args.data, resolve_dtype(args.precision))
    cfg = _eval_config(args)
    chash = config_hash(cfg)

    if args.from_ckpt:
        params, meta = load_checkpoint(args.from_ckpt)
        train_cfg_dict = meta.get("train_config") or {}
        head_kind = args.head or train_cfg_dict.get("head", "frn")
        tc = TrainConfig(
            head=head_kind,
            formulation=args.formulation,
            downscale_features=train_cfg_dict.get("downscale_features"),
        )
        required = ("embed_weight", "embed_bias") + (("ctx_key", "ctx_value") if head_kind == "ctx" else ())
        _check_tensors(args.from_ckpt, params, ds.d, required)
        head_fn = make_eval_head_fn(params, tc)
    else:
        head_kind = args.head or "frn"
        gamma = 1.0 / ds.d
        base_fn_params = HeadParams(gamma=gamma)
        head_fn = make_head_fn(head_kind, base_fn_params, formulation=args.formulation)

    report = evaluate(ds, head_fn, n=args.way, k=args.shot, q=args.query,
                      trials=args.trials, seed=args.seed)
    payload = {
        "command": "eval",
        "config": cfg,
        "config_hash": chash,
        "seed": args.seed,
        "report": report.to_dict(),
    }
    out_dir = Path(args.out)
    _write(out_dir, "eval.json", _json_dumps(payload))
    _write(
        out_dir,
        "eval.txt",
        f"config_hash       {chash}\n" + report.to_text() + "\n",
    )
    print(f"accuracy {report.accuracy_mean:.4f} +/- {report.ci95_halfwidth:.4f} "
          f"({report.trials} trials)")
    return EXIT_OK


def _check_tensors(path, params: dict, d_in: int, required=()):
    """Raise CheckpointError naming a ``required`` tensor the file lacks, or a
    tensor whose shape does not fit data with ``d_in`` channels:
    embed_weight (d_in, d), embed_bias (d,), ctx_key and ctx_value (d, *)."""
    for name in required:
        if name not in params:
            raise CheckpointError(f"{path} has no tensor {name!r}")
    weight = params.get("embed_weight")
    d = weight.shape[-1] if weight is not None and weight.ndim else None
    for name, want in (("embed_weight", (d_in, d)), ("embed_bias", (d,)),
                       ("ctx_key", (d, None)), ("ctx_value", (d, None))):
        shape = params[name].shape if name in params else want  # an absent tensor passes
        if len(shape) != len(want) or any(n != w for n, w in zip(shape, want) if w is not None):
            want_text = "(" + ", ".join("*" if w is None else str(w) for w in want) + ")"
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}, expected {want_text}")


def _to_f32(episode):
    """The episode with float32 maps; an episode that has only float32 maps is returned as is.

    ``frn eval`` loads its data in the compute dtype, so its episodes need
    no conversion; this serves callers that hold an episode of other data.
    """
    from .episodes import Episode
    from .head import FeatureMap, SupportPool

    arrays = [p.values for p in episode.support] + [qm.values for qm, _ in episode.queries]
    if all(a.dtype == np.float32 for a in arrays):
        return episode
    # no head writes into episode arrays, so float32 data is shared, not copied
    support = [
        SupportPool(class_id=p.class_id, k=p.k, values=p.values.astype(np.float32, copy=False))
        for p in episode.support
    ]
    queries = [
        (FeatureMap(values=qm.values.astype(np.float32, copy=False)), y)
        for qm, y in episode.queries
    ]
    return Episode(n=episode.n, k=episode.k, q=episode.q, support=support,
                   queries=queries, source_classes=episode.source_classes)


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        b=args.b,
        k=args.shot,
        r=args.r,
        d=args.d,
        iterations=args.iters,
        warmup=args.warmup,
        precision=args.precision,
        seed=args.seed,
    )
    report = run_benchmark(cfg)
    payload = report.to_dict()
    payload["command"] = "bench"
    payload["seed"] = args.seed
    payload["config_hash"] = config_hash(payload["config"])
    out_dir = Path(args.out)
    _write(out_dir, "bench.json", _json_dumps(payload))
    _write(out_dir, "bench.txt",
           f"config_hash       {payload['config_hash']}\n" + report.to_text() + "\n")
    print(report.to_text())
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        head=args.head,
        way=args.way,
        shot=args.shot,
        query=args.query,
        episodes=args.episodes,
        lr=args.lr,
        val_every=args.val_every,
        val_trials=args.val_trials,
        val_query=args.val_query,
        embed_dim=args.embed_dim,
        downscale_features=args.downscale_features,
        learn_alpha=not args.fix_alpha,
        learn_beta=not args.fix_beta,
        learn_gamma=not args.fix_gamma,
        formulation=args.formulation,
        use_aux=not args.no_aux,
        seed=args.seed,
    )


def _write_run(out_dir: Path, command: str, cfg_dict: dict, params: dict, train_config: dict,
               result, **summary):
    """Write checkpoint.bin, history.jsonl and <command>.json of a Train- or PretrainResult."""
    chash, seed, steps = config_hash(cfg_dict), cfg_dict["seed"], len(result.history)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        out_dir / "checkpoint.bin",
        params,
        {"config_hash": chash, "rng_state": {"seed": seed, "steps": steps}, "train_config": train_config},
    )
    with open(out_dir / "history.jsonl", "w") as fh:
        fh.write(json.dumps({"event": "config", "config_hash": chash, "seed": seed},
                            sort_keys=True) + "\n")
        for entry in result.history:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    summary.update(command=command, config=cfg_dict, config_hash=chash, seed=seed,
                   aborted=result.aborted, steps_run=steps)
    _write(out_dir, f"{command}.json", _json_dumps(summary))


def cmd_train(args) -> int:
    ds_base = _load_dataset(args.data, np.float64)
    ds_val = _load_dataset(args.val_data, np.float64) if args.val_data else ds_base
    cfg = _train_config(args)
    cfg_dict = dataclasses.asdict(cfg)

    init = None
    if args.from_ckpt:
        init, _ = load_checkpoint(args.from_ckpt)
        init = {n: v for n, v in init.items() if not n.startswith("dummy_")}
        _check_tensors(args.from_ckpt, init, ds_base.d)

    result = meta_train(ds_base, ds_val, cfg, init=init)
    _write_run(Path(args.out), "train", cfg_dict, result.best_params, cfg_dict, result,
               best_val_accuracy=result.best_val_accuracy)
    print(f"best validation accuracy {result.best_val_accuracy:.4f} "
          f"({'aborted' if result.aborted else 'completed'})")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    ds = _load_dataset(args.data, np.float64)
    cfg = PretrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        lr=args.lr,
        embed_dim=args.embed_dim,
        downscale_features=args.downscale_features,
        seed=args.seed,
    )
    cfg_dict = dataclasses.asdict(cfg)
    result = pretrain(ds, cfg)
    _write_run(Path(args.out), "pretrain", cfg_dict, result.as_init(),
               {"head": "frn", "downscale_features": cfg.downscale_features},
               result, final_gamma=result.gamma)
    print(f"pretrain finished in {len(result.history)} steps "
          f"({'aborted' if result.aborted else 'completed'})")
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "train": cmd_train,
    "pretrain": cmd_pretrain,
}


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (SamplingError,)):
        return EXIT_SAMPLING
    if isinstance(exc, EvaluationError):
        cause = exc.__cause__
        return EXIT_SAMPLING if isinstance(cause, SamplingError) else EXIT_NUMERICAL
    if isinstance(exc, (NumericalError, GradientError, ShapeError)):
        return EXIT_NUMERICAL
    if isinstance(exc, (OSError, IngestError, CheckpointError)):
        return EXIT_IO
    if isinstance(exc, (GenerationError, ValueError)):
        return EXIT_CONFIG
    return EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - map everything to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
