"""Dense real-matrix primitives sized for feature-map reconstruction.

Matrices are plain numpy arrays: 2-D, row-major, float32 or float64.
Validation happens at the boundaries via :func:`as_matrix`; the
operations below assume validated inputs but still check shapes cheaply.
Every matrix returned is C-ordered, the solves' included (see ``spd_solve``).

All functions are pure and never mutate their arguments, so they are safe
to call from multiple threads. ``blas_threads`` and ``blas_threads_at``
read and set, for the process as a whole, the thread count of the
OpenBLAS builds bundled in numpy's and scipy's wheels; under any other
BLAS they find no library and change nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs

DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class NumericalError(ArithmeticError):
    """A numerical failure such as a non-positive pivot or non-finite data.

    ``pivot`` is the zero-based index of the failing Cholesky pivot when
    the error came from a factorization, else None. A failing pivot on a
    ridge-regularized system usually means the regularizer is too small
    or the input is corrupt.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def resolve_dtype(precision: str) -> np.dtype:
    """Map 'f32'/'f64' to a numpy float dtype."""
    try:
        return np.dtype(DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}; expected 'f32' or 'f64'") from None


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D contiguous float array; any dtype but
    float32 and float64 becomes float64.

    Raises ShapeError for non-2-D input and NumericalError if any entry
    is NaN or infinite.
    """
    arr = np.asarray(a)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = int(arr.size - np.isfinite(arr).sum())
        raise NumericalError(f"{name} contains {bad} non-finite entries")
    return np.ascontiguousarray(arr)


def gram(s: np.ndarray, mode: str = "outer") -> np.ndarray:
    """Gram matrix of ``s``: outer is s @ s.T, inner is s.T @ s.

    The result is symmetrized by averaging with its transpose so that
    a[i, j] == a[j, i] holds exactly.
    """
    s = np.asarray(s)
    if mode == "outer":
        g = s @ np.swapaxes(s, -1, -2)
    elif mode == "inner":
        g = np.swapaxes(s, -1, -2) @ s
    else:
        raise ValueError(f"gram mode must be 'outer' or 'inner', got {mode!r}")
    return (g + np.swapaxes(g, -1, -2)) / 2


_SYM_TOL = 1e-6


def _cholesky(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of the square float matrix ``a``, its upper
    triangle zeroed, after the checks ``spd_solve`` documents."""
    scale = np.max(np.abs(a)) if a.size else 0.0
    if not np.isfinite(scale):
        raise NumericalError(f"{name} matrix contains non-finite entries")
    if scale and np.max(np.abs(a - a.T)) > _SYM_TOL * scale:
        raise ValueError(f"{name} requires a symmetric matrix")
    c, info = get_lapack_funcs("potrf", (a,))(a, lower=1, clean=1, overwrite_a=False)
    if info != 0:
        raise NumericalError(
            f"Cholesky factorization failed at pivot {info - 1}; "
            "the system is not positive-definite (regularizer too small?)",
            pivot=info - 1,
        )
    return c


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive-definite A via Cholesky; X is C-ordered.

    Both operands are 2-D. A must be symmetric to within ``1e-6 * max|A|``;
    a non-finite A, or a non-positive pivot, raises NumericalError, which
    carries a failed pivot's zero-based index. LAPACK leaves X in Fortran
    order; a stacked (75, 25, 64) @ (64, 64) product by such a 64 x 64 X
    took 1.7-2.9 times as long as by its C-ordered copy, to the same bits.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"spd_solve needs a square matrix, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise ShapeError(f"spd_solve right-hand side mismatch: {a.shape} vs {b.shape}")

    dtype = np.result_type(a.dtype, b.dtype)
    if dtype not in (np.float32, np.float64):
        dtype = np.float64
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    c = _cholesky(a, "spd_solve")
    x, info = get_lapack_funcs("potrs", (c,))(c, b, lower=1)
    if info != 0:
        raise NumericalError(f"triangular solve failed with LAPACK code {info}")
    return np.ascontiguousarray(x)  # potrs leaves X in Fortran order


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, C-ordered: products with it run twice as fast.

    The checks and the pivot error are ``spd_solve``'s. LAPACK ``potrf``
    then ``potri`` leave A^-1 in the lower triangle, which is mirrored
    exactly, so the result is symmetric to the bit. At one BLAS thread this
    took 50 against 66 us at 64 x 64 in float64, 140 against 199 us at
    125 x 125 in float32 and 9.7 against 20.9 ms at 640 x 640 in float64,
    where ``spd_solve(a, I)`` was used; the two differ by about 1e-15
    relative in float64.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"spd_inverse needs a square matrix, got {a.shape}")
    c = _cholesky(a, "spd_inverse")
    x, info = get_lapack_funcs("potri", (c,))(c, lower=1, overwrite_c=True)
    if info != 0:
        raise NumericalError(f"Cholesky inverse failed with LAPACK code {info}")
    # the factor's upper triangle is zero, so x + x^T is A^-1 off the
    # diagonal and twice it on the diagonal, which is then put back
    out = np.add(x, x.T, out=np.empty(a.shape, x.dtype))
    out.flat[:: len(out) + 1] = x.diagonal()
    return out


def add_ridge(a: np.ndarray, lam: float) -> np.ndarray:
    """A C-ordered copy of the square ``a`` with ``lam``, in its dtype, added along
    the diagonal through a strided view (2.4 against 5.1 us fancy-indexed at 64 x 64)."""
    out = np.array(a, order="C")
    diagonal = out.reshape(-1)[:: len(out) + 1]
    diagonal += np.asarray(lam, dtype=out.dtype)
    return out


#: (package, shared-library glob in its wheel's ``<package>.libs``, symbol
#: suffix). numpy does its GEMMs in the first, scipy's LAPACK potrf, potrs
#: and potri run in the second. Only these bundled builds are found: under
#: another BLAS (conda's, MKL, a system OpenBLAS) the thread counts are left
#: alone.
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "libscipy_openblas*.so", ""),
)


@functools.cache
def _openblas() -> dict:
    """The (get, set) thread-count functions of each bundled OpenBLAS the
    process has loaded, by package."""
    found = {}
    for package, pattern, suffix in _OPENBLAS:
        libs = Path(sys.modules[package].__file__).resolve().parent.parent / f"{package}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                # RTLD_NOLOAD opens only a library already loaded, so the
                # copy the package uses, not another version beside it
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}")
                            for op in ("get", "set"))
            except (OSError, AttributeError):  # not loaded, or another build
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found[package] = get, put
            break
    return found


def blas_threads() -> dict[str, int]:
    """The read-back thread count of each bundled OpenBLAS found, by package."""
    return {label: int(get()) for label, (get, _) in _openblas().items()}


@contextmanager
def blas_threads_at(n: int):
    """Run the block with each bundled OpenBLAS found at ``n`` threads, then
    restore the counts they had."""
    before = blas_threads()
    for _, put in _openblas().values():
        put(n)
    try:
        yield
    finally:
        for package, (_, put) in _openblas().items():
            put(before[package])
