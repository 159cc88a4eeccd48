"""Dense float64 kernels: input checks, Frobenius norm and LAPACK singular
values.

Everything here is a pure function on plain numpy arrays. Matrices are 2-D
float64 arrays in row-major order, vectors are 1-D float64 arrays. All kernels
are deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "as_matrix",
    "as_vector",
    "require_finite",
    "frobenius_norm",
    "singular_values",
]


def as_matrix(a) -> np.ndarray:
    """``a`` as a row-major float64 matrix with positive dims, in one pass.

    A row-major float64 input comes back as itself, without a copy; any
    other layout or dtype is copied once, so a reduction over the result
    adds its entries in the same order whatever the input's layout.
    """
    a = np.asarray(a, dtype=np.float64, order="C")
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a 2-D matrix with positive dims, got shape {a.shape}")
    return a


def as_vector(w) -> np.ndarray:
    """``w`` as a contiguous float64 vector with positive dim, in one pass."""
    w = np.asarray(w, dtype=np.float64, order="C")
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"expected a 1-D vector with positive dim, got shape {w.shape}")
    return w


def require_finite(name: str, arr: np.ndarray) -> None:
    """Reject NaN/Inf at task and optimizer boundaries."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entries in {name}")


def frobenius_norm(a) -> float:
    r = np.asarray(a, dtype=np.float64).ravel()
    return math.sqrt(float(np.dot(r, r)))


def _raise_svd_nonconvergence(err, flag):
    raise LinAlgError("SVD did not converge")


# The floating-point error state np.linalg.svd runs its gufunc under, built
# once: numpy's errstate would rebuild this object on every call. Fields it
# does not name (the ufunc buffer size) keep their import-time values, which
# do not change a result's bits.
_SVD_ERRSTATE = _make_extobj(call=_raise_svd_nonconvergence, invalid="call",
                             over="ignore", divide="ignore", under="ignore")


def singular_values(a) -> np.ndarray:
    """Singular values of a matrix, descending, as a float64 vector.

    The same LAPACK gufunc, signature and floating-point error state as
    ``np.linalg.svd(a, compute_uv=False)`` on a float64 matrix, so the
    result has the same bits; only numpy's Python wrapper around it is
    skipped. Any real input is read as float64 in any layout. A NaN entry
    raises ``LinAlgError("SVD did not converge")``; an infinite one gives
    NaNs. The error state is set per call on numpy's context variable, as
    ``np.errstate`` does, which keeps it thread-local and restores the
    caller's on return.
    """
    token = _extobj_contextvar.set(_SVD_ERRSTATE)
    try:
        return _umath_linalg.svd(a, signature="d->d")
    finally:
        _extobj_contextvar.reset(token)
