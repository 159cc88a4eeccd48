"""Dense float64 kernels: Frobenius norm, LAPACK singular values and
one-sided Jacobi SVD.

Everything here is a pure function on plain numpy arrays. Matrices are 2-D
float64 arrays in row-major order, vectors are 1-D float64 arrays. All kernels
are deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "SvdConvergenceError",
    "SvdResult",
    "as_matrix",
    "as_vector",
    "require_finite",
    "frobenius_norm",
    "singular_values",
    "jacobi_svd",
]

# One-sided Jacobi: rotations are skipped once the column coupling falls below
# this relative threshold; a sweep with no rotations means convergence.
_JACOBI_REL_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60


class SvdConvergenceError(RuntimeError):
    """Raised when the Jacobi sweeps fail to converge within the sweep cap."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = u @ diag(s) @ vt with s sorted descending.

    u is (m, k), s is (k,), vt is (k, n) with k = min(m, n).
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


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


def _complete_orthonormal(u: np.ndarray, missing: list[int]) -> None:
    """Fill the listed columns of u with an orthonormal completion, in place."""
    m = u.shape[0]
    filled = [i for i in range(u.shape[1]) if i not in missing]
    basis = [u[:, i] for i in filled]
    slot = 0
    for k in range(m):
        if slot >= len(missing):
            break
        cand = np.zeros(m)
        cand[k] = 1.0
        for _ in range(2):  # twice for numerical safety
            for b in basis:
                cand -= float(b @ cand) * b
        nrm = float(np.linalg.norm(cand))
        if nrm > 0.5:
            cand /= nrm
            u[:, missing[slot]] = cand
            basis.append(cand)
            slot += 1
    if slot < len(missing):
        raise SvdConvergenceError("failed to complete an orthonormal basis")


def jacobi_svd(a) -> SvdResult:
    """One-sided Jacobi SVD with cyclic sweeps.

    The working matrix is stored transposed so each column lives in a
    contiguous row. Wide inputs are factorized through their transpose.
    Ties between equal singular values keep the rotation output order
    (stable descending sort), so the result is deterministic.
    """
    a = as_matrix(a)
    require_finite("jacobi_svd input", a)
    m, n = a.shape
    if m < n:
        res = jacobi_svd(a.T)
        return SvdResult(u=res.vt.T.copy(), s=res.s, vt=res.u.T.copy())

    # wt[i] is column i of the working matrix; vt_rows[i] accumulates the
    # right singular vector attached to that column.
    wt = np.ascontiguousarray(a.T, dtype=np.float64).copy()
    vt_rows = np.eye(n)

    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                wp = wt[p]
                wq = wt[q]
                apq = float(wp @ wq)
                app = float(wp @ wp)
                aqq = float(wq @ wq)
                if abs(apq) <= _JACOBI_REL_TOL * math.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                new_p = c * wp - s * wq
                wt[q] = s * wp + c * wq
                wt[p] = new_p
                new_vp = c * vt_rows[p] - s * vt_rows[q]
                vt_rows[q] = s * vt_rows[p] + c * vt_rows[q]
                vt_rows[p] = new_vp
        if not rotated:
            break
    else:
        raise SvdConvergenceError(
            f"one-sided Jacobi did not converge within {_JACOBI_MAX_SWEEPS} sweeps"
        )

    norms = np.sqrt(np.sum(wt * wt, axis=1))
    order = np.argsort(-norms, kind="stable")
    s_vals = norms[order]
    wt = wt[order]
    vt_rows = vt_rows[order]

    u = np.zeros((m, n))
    tiny = max(m, n) * np.finfo(np.float64).eps * (s_vals[0] if s_vals[0] > 0.0 else 1.0)
    degenerate = []
    for i in range(n):
        if s_vals[i] > tiny:
            u[:, i] = wt[i] / s_vals[i]
        else:
            degenerate.append(i)
    if degenerate:
        _complete_orthonormal(u, degenerate)

    return SvdResult(u=u, s=s_vals, vt=vt_rows)
