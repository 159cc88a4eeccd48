"""One-sided Jacobi SVD (Hestenes, 1958): the tests' independent SVD oracle.

lanton takes every SVD from LAPACK. The tests check those results against
this second route, which shares no code with LAPACK: cyclic sweeps of plane
rotations on the columns, in plain numpy. It is slow and accurate, and
deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lanton.linalg import as_matrix, require_finite

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
