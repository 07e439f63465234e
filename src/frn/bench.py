"""Latency micro-benchmark for the two reconstruction formulations.

Times batched scoring of b queries against a single (k*r, d) support
pool for both the direct (kr x kr solve) and woodbury (d x d solve)
paths at a fixed precision (float32 by default, matching the usual
deep-feature setting). The direct time is its scoring cost: it never
forms the reconstruction Q_bar. Warm-up iterations are discarded and the
monotonic clock is used. The timed loop calls each path from one thread,
but the direct path splits its query-side products across the CPUs
available to the process, and either path's BLAS calls may start
threads of their own; the report records the direct path's worker count
and ``OPENBLAS_NUM_THREADS``, so timings taken under different settings
can be told apart.

The report carries data only; it asserts nothing about which path wins.
The two paths are cross-checked on their squared-error outputs once
before timing, so a benchmark run cannot silently compare two
computations that disagree.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import head
from .head import HeadParams, SupportPool, reconstruct_direct, reconstruct_woodbury
from .linalg import NumericalError, resolve_dtype


@dataclass(frozen=True)
class BenchConfig:
    b: int = 16
    k: int = 1
    r: int = 25
    d: int = 640
    iterations: int = 200
    warmup: int = 20
    precision: str = "f32"
    seed: int = 0

    def __post_init__(self):
        if min(self.b, self.k, self.r, self.d) < 1:
            raise ValueError("b, k, r, d must all be >= 1")
        if self.iterations < 1 or self.warmup < 0:
            raise ValueError("iterations must be >= 1 and warmup >= 0")


@dataclass(frozen=True)
class PathTiming:
    median_ns: float
    p95_ns: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "median_ns": self.median_ns,
            "p95_ns": self.p95_ns,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    direct: PathTiming
    woodbury: PathTiming
    equivalence_max_delta: float
    #: the direct path's worker count at this b, and OPENBLAS_NUM_THREADS (None if unset)
    threads: dict

    def to_dict(self) -> dict:
        return {
            "config": {
                "b": self.config.b,
                "k": self.config.k,
                "r": self.config.r,
                "d": self.config.d,
                "iterations": self.config.iterations,
                "warmup": self.config.warmup,
                "precision": self.config.precision,
                "seed": self.config.seed,
            },
            "direct": self.direct.to_dict(),
            "woodbury": self.woodbury.to_dict(),
            "equivalence_max_delta": self.equivalence_max_delta,
            "threads": dict(self.threads),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        c = self.config
        lines = [
            f"shapes            b={c.b} k={c.k} r={c.r} d={c.d} ({c.precision})",
            f"iterations        {c.iterations} (+{c.warmup} warmup)",
            f"direct median     {self.direct.median_ns / 1e6:.3f} ms  "
            f"p95 {self.direct.p95_ns / 1e6:.3f} ms",
            f"woodbury median   {self.woodbury.median_ns / 1e6:.3f} ms  "
            f"p95 {self.woodbury.p95_ns / 1e6:.3f} ms",
            f"equivalence delta {self.equivalence_max_delta:.3e}",
            f"direct workers    {self.threads['direct_workers']}  "
            f"OPENBLAS_NUM_THREADS {self.threads['OPENBLAS_NUM_THREADS']}",
        ]
        return "\n".join(lines)


def _time_path(fn, queries, pool, params, iterations, warmup):
    for _ in range(warmup):
        fn(queries, pool, params)
    samples = np.empty(iterations, dtype=np.float64)
    for i in range(iterations):
        t0 = time.perf_counter_ns()
        fn(queries, pool, params)
        samples[i] = time.perf_counter_ns() - t0
    return PathTiming(
        median_ns=float(np.median(samples)),
        p95_ns=float(np.percentile(samples, 95)),
        iterations=iterations,
    )


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Time both formulations on one random instance of the configured shape."""
    dtype = resolve_dtype(cfg.precision)
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / math.sqrt(cfg.d)
    pool = SupportPool(
        class_id=0,
        k=cfg.k,
        values=(rng.standard_normal((cfg.k * cfg.r, cfg.d)) * scale).astype(dtype),
    )
    queries = (rng.standard_normal((cfg.b * cfg.r, cfg.d)) * scale).astype(dtype)
    params = HeadParams()

    errs_d = reconstruct_direct(queries, pool, params).sq_errors
    errs_w = reconstruct_woodbury(queries, pool, params).sq_errors
    delta = float(np.max(np.abs(errs_d - errs_w)))
    tol = 1e-4 if dtype == np.float32 else 1e-10
    if delta > tol * max(1.0, float(np.max(np.abs(errs_d)))):
        raise NumericalError(
            f"formulations disagree before timing: max |delta sq_error| = {delta:.3e}"
        )

    direct = _time_path(reconstruct_direct, queries, pool, params, cfg.iterations, cfg.warmup)
    wood = _time_path(reconstruct_woodbury, queries, pool, params, cfg.iterations, cfg.warmup)
    threads = {
        "direct_workers": min(head._WORKERS, cfg.b),  # one chunk of queries each
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    return BenchReport(config=cfg, direct=direct, woodbury=wood, equivalence_max_delta=delta,
                       threads=threads)
