"""Output checks and the environment block of every benchmark result.

The references below are written from the paper's formulas in float64
with ``numpy.linalg.solve`` (LU), independently of the program's
Cholesky-based code, and batch all queries of a class at once.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
from pathlib import Path

import numpy as np
import scipy

#: criterion 1's formulation-equivalence tolerances, as a share of the
#: largest reference logit magnitude of the episode
TOLERANCE = {"f32": 1e-4, "f64": 1e-10}

#: the fixed ridge weight of the dsn head (``ProjectionConfig`` default)
DSN_LAMBDA = 0.01


def _arrays(episode, precision: str):
    """Support pools (n, k*r, d) and queries (b, r, d) as float64, seen in ``precision``."""
    cast = np.float32 if precision == "f32" else np.float64
    pools = np.stack([p.values.astype(cast).astype(np.float64) for p in episode.support])
    queries = np.stack([q.values.astype(cast).astype(np.float64) for q, _ in episode.queries])
    return pools, queries


def reference_logits(head: str, episode, gamma: float, precision: str) -> np.ndarray:
    """(b, n) logits of ``head`` on ``episode`` with ``HeadParams(gamma=gamma)``."""
    pools, queries = _arrays(episode, precision)
    b, r, d = queries.shape
    kr = pools.shape[1]
    out = np.empty((b, len(pools)))
    for c, s in enumerate(pools):
        if head == "frn":  # alpha = beta = 0: lam = kr/d, rho = 1
            lam = max(kr / d, 1e-8)
            q = queries.reshape(b * r, d)
            w = np.linalg.solve(s @ s.T + lam * np.eye(kr), s @ q.T).T
            diff = (q - w @ s).reshape(b, r * d)
            out[:, c] = -gamma * np.einsum("ij,ij->i", diff, diff) / r
        elif head == "proto":
            proto = s.mean(axis=0)
            dist = ((queries.mean(axis=1) - proto) ** 2).sum(axis=1)
            out[:, c] = -gamma * dist / d
        elif head == "dsn":
            p = s.reshape(episode.k, r, d).mean(axis=1)
            qv = queries.mean(axis=1)
            w = np.linalg.solve(p @ p.T + DSN_LAMBDA * np.eye(len(p)), p @ qv.T).T
            out[:, c] = -gamma * ((qv - w @ p) ** 2).sum(axis=1) / d
        elif head == "ctx":  # identity projections
            logits = queries @ s.T / math.sqrt(d)
            attn = np.exp(logits - logits.max(axis=2, keepdims=True))
            attn /= attn.sum(axis=2, keepdims=True)
            diff = queries - attn @ s
            out[:, c] = -gamma * (diff * diff).sum(axis=(1, 2)) / r / d
        else:
            raise ValueError(f"no reference for head {head!r}")
    return out


def logits_match(head: str, episode, logits, gamma: float, precision: str) -> bool:
    ref = reference_logits(head, episode, gamma, precision)
    got = np.asarray(logits, dtype=np.float64)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return False
    return float(np.max(np.abs(got - ref))) <= TOLERANCE[precision] * float(np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# environment

#: (label, shared-library glob under site-packages, symbol suffix). numpy
#: does its GEMMs in the first, scipy's LAPACK potrf/potrs run in the second.
_OPENBLAS = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs/libscipy_openblas*.so", ""),
)


def _openblas(site: Path, pattern: str, suffix: str) -> dict:
    paths = sorted(site.glob(pattern))
    if not paths:
        return {"library": pattern, "config": None, "threads": None}
    lib = ctypes.CDLL(str(paths[0]))  # already loaded: dlopen returns the same handle
    get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return {
        "library": paths[0].name,
        "config": get_config().decode(),
        "threads": int(get_threads()),
    }


def environment(pinned_threads: int) -> dict:
    """Versions, core count and each OpenBLAS library's read-back thread count."""
    site = Path(np.__file__).resolve().parent.parent
    blas = {label: _openblas(site, pattern, suffix) for label, pattern, suffix in _OPENBLAS}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads_pinned": pinned_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": blas,
    }


def blas_pinned(env: dict) -> dict[str, bool]:
    """One check per OpenBLAS library: its read-back count is the pinned value."""
    return {
        label: info["threads"] == env["blas_threads_pinned"]
        for label, info in env["openblas"].items()
    }
