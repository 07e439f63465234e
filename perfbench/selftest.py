"""Self-test of the benchmark at tiny sizes, from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload end to end, untraced and traced, and requires no
   failure and exactly the metrics BENCHMARK.json declares, all finite.
2. Shows that each output check catches bad output: eval-wide with
   logits off by 0.1% must fail the reference check, and eval-heads must
   fail the accuracy check when a blind head (proto) is required to be
   accurate, and the chance check when an accurate head (frn) is
   required to be blind.
3. Runs run.py in a directory holding only BENCHMARK.json and
   perfbench/, where it must exit non-zero without printing a result.

Exits 0 when all of these hold, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run  # pins the BLAS threads before numpy loads

TINY_SECONDS = 0.05


def main() -> int:
    workloads = run.import_program()
    import checks
    import frn.episodes

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    env = checks.environment(run.PINNED_BLAS_THREADS)
    out = run.OUT / "selftest"
    problems = []

    def execute(name, trace, tiny=workloads.TINY):
        done = workloads.execute(name, 0, TINY_SECONDS, trace, out, tiny)
        return run.result(done, trace, env)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            summary = execute(workload, trace)["summary"]
            where = f"{workload} trace={int(trace)}"
            if not summary["correct"] or summary["failed"]:
                problems.append(f"{where}: {summary['failed']} of {summary['attempted']} failed")
            if list(summary["metrics"]) != declared[trace]:
                problems.append(f"{where}: metrics {list(summary['metrics'])} != {declared[trace]}")
            if not all(math.isfinite(m["value"]) for m in summary["metrics"].values()):
                problems.append(f"{where}: a metric is not finite")
            print(f"{where}: attempted {summary['attempted']} failed {summary['failed']}")

    def expect_failure(what, res, message):
        summary = res["summary"]
        print(f"{what}: attempted {summary['attempted']} failed {summary['failed']}")
        if summary["correct"] or not any(message in f for f in res["failures"]):
            problems.append(f"{what} passed the check that should catch it ({message!r})")

    original = frn.episodes.episode_logits
    frn.episodes.episode_logits = lambda *a, **k: original(*a, **k) * 1.001
    try:
        expect_failure("eval-wide with wrong logits", execute("eval-wide", False),
                       "logits differ from the float64 reference")
    finally:
        frn.episodes.episode_logits = original
    heads = workloads.TINY["eval-heads"]
    for what, wrong, message in (
        ("eval-heads with proto required accurate", replace(heads, accurate=("proto",)),
         f"< {workloads.ACCURATE}"),
        ("eval-heads with frn required blind", replace(heads, blind=("frn",)), "is not chance"),
    ):
        expect_failure(what, execute("eval-heads", False, {"eval-heads": wrong}), message)

    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    print(f"bare directory: exit {proc.returncode}, {len(proc.stdout)} bytes of output")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without the program did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("PROBLEM: " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
