"""Benchmark of the frn package: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload eval-wide --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The lines before it give the same figures
under the names in perfbench/README.md, and the environment block. Full
results, and with ``--trace 1`` the spans, go to ``.perfbench_out/``.
"""

import os

# One BLAS thread, set before numpy loads either OpenBLAS. On a 2-core
# shared box a 5-shot wide episode took 116-118 ms over 3 runs at 1 thread
# and 330-369 ms at the default 2; only 1 thread repeats within a tenth.
PINNED_BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(PINNED_BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def import_program():
    """Import the benchmark's modules with ``frn`` taken from the checkout's ``src/``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import frn
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the frn package from {src}: {exc}")
    if Path(frn.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: frn was imported from {frn.__file__}, not from {src}")
    return workloads


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def result(run, trace: bool, env: dict) -> dict:
    """Apply the BLAS checks and build the result; the last output line is its summary."""
    import checks
    import workloads

    for label, ok in checks.blas_pinned(env).items():
        run.tally.check(ok, f"{label} OpenBLAS runs {env['openblas'][label]['threads']} threads")
    metrics = workloads.per_layer(run) if trace else workloads.end_to_end(run)
    return {
        "workload": run.name,
        "seed": run.seed,
        "trace": int(trace),
        "environment": env,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in workloads.named(run).items()},
        "failures": run.tally.failures,
        "summary": {
            "correct": run.tally.failed == 0,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("eval-wide", "eval-heads", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    import checks

    trace = bool(args.trace)
    run = workloads.execute(args.workload, args.seed, args.seconds, trace, OUT)
    env = checks.environment(PINNED_BLAS_THREADS)
    res = result(run, trace, env)

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(res, indent=2) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(run.rounds)}  results in {out_dir.relative_to(ROOT)}")
    for name, m in res["named"].items():
        print(f"  {name:<28}{_fmt(m['value']):>14} {m['unit']}")
    if trace:
        run.rec.write_jsonl(out_dir / "spans.jsonl", run.rounds[0][2])
        table = workloads.layer_table(run)
        (out_dir / "layers.txt").write_text("\n".join(table) + "\n")
        print("  self time per layer, traced rounds:")
        for line in table:
            print("    " + line)
        for name, m in res["summary"]["metrics"].items():
            print(f"  {name:<28}{_fmt(m['value']):>14} {m['unit']}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(res["summary"]))
    return 0 if res["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
