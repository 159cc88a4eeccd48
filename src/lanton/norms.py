"""Per-group primal and dual norms for the three parameter families.

Layers fall into three groups:

* ``HIDDEN``        -- weight matrices updated with orthogonalized momentum.
                       Primal norm: sqrt(d_in/d_out) * spectral.
                       Dual norm:   sqrt(d_out/d_in) * nuclear.
* ``EMBEDDING_HEAD`` -- weight-sharing matrices updated with signed momentum.
                       Primal norm: d_in * max-abs-entry.
                       Dual norm (default): (1/d_in) * entrywise l1, the exact
                       dual of the primal above, so the pairing identity
                       <b, lmo(b)> = -dual(b) holds. An alternate dual, the
                       max column abs-sum induced norm, is selectable; the two
                       disagree and both are kept available on purpose.
* ``VECTOR_NORM``    -- gain/bias vectors.
                       Primal norm: rms. Dual norm: sqrt(d) * euclidean.

The spectral and nuclear norms read their singular values from
``linalg.singular_values``: LAPACK's SVD gufunc called straight, with the bits
of ``np.linalg.svd(x, compute_uv=False)`` but without its Python wrapper,
which on an 8x8 matrix costs about a quarter of the call.

Zero inputs return exactly 0; there are no epsilon floors here because a zero
norm is meaningful (a noiseless or converged layer).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .linalg import as_matrix, as_vector, singular_values

__all__ = ["Group", "nuclear_norm", "rms_norm", "dual_norm", "primal_norm"]


class Group(Enum):
    HIDDEN = "hidden"
    EMBEDDING_HEAD = "embedding_head"
    VECTOR_NORM = "vector_norm"

    def __init__(self, value: str):
        # rank: the number of dims of the group's layers, 1 for vectors, else
        # 2. A member attribute, not a property, as the norms and oracles read
        # it on every call.
        self.rank = 1 if value == "vector_norm" else 2


def nuclear_norm(a) -> float:
    """Sum of singular values (dual of the spectral norm)."""
    return _nuclear(as_matrix(a))


def _nuclear(a: np.ndarray) -> float:
    # Trusts a checked matrix (see as_matrix): the LAPACK singular values
    # and their sum (the reduction ndarray.sum wraps), nothing else.
    return float(np.add.reduce(singular_values(a)))


def rms_norm(w) -> float:
    """(1/sqrt(d)) * euclidean norm; the all-ones vector has rms norm 1."""
    w = as_vector(w)
    return float(np.linalg.norm(w)) / math.sqrt(w.shape[0])


def _check_group_shape(group: Group, x) -> np.ndarray:
    """x as a row-major float64 array of the group's rank, in one pass."""
    return as_vector(x) if group.rank == 1 else as_matrix(x)


def dual_norm(group: Group, x, embedding_dual: str = "default") -> float:
    """Dual norm of x under the norm attached to its group.

    For ``EMBEDDING_HEAD``, ``embedding_dual`` selects between the
    duality-consistent scaled entrywise l1 ("default") and the max column
    abs-sum induced norm ("alternate").

    This function validates x: one conversion to a row-major float64 array
    and one rank and size check, which cost nothing more when x already is
    one (as every array the optimizer step and the noise sampler pass is).
    The norm is computed from that array alone, so any input layout or
    dtype gives the bits of its row-major float64 copy.
    """
    x = _check_group_shape(group, x)
    if group is Group.HIDDEN:
        d_out, d_in = x.shape
        return math.sqrt(d_out / d_in) * _nuclear(x)
    if group is Group.EMBEDDING_HEAD:
        d_in = x.shape[1]
        if embedding_dual == "default":
            return float(np.abs(x).sum()) / d_in
        if embedding_dual == "alternate":
            return float(np.abs(x).sum(axis=0).max())
        raise ValueError(f"embedding_dual must be 'default' or 'alternate', got {embedding_dual!r}")
    # VECTOR_NORM
    return math.sqrt(x.shape[0]) * float(np.linalg.norm(x))


def primal_norm(group: Group, x) -> float:
    """Primal norm of x under the norm attached to its group.

    The unit ball of this norm is the feasible set the group's linear
    minimization oracle optimizes over.
    """
    x = _check_group_shape(group, x)
    if group is Group.HIDDEN:
        d_out, d_in = x.shape
        top = float(singular_values(x)[0])
        return math.sqrt(d_in / d_out) * top
    if group is Group.EMBEDDING_HEAD:
        d_in = x.shape[1]
        return d_in * float(np.abs(x).max())
    return rms_norm(x)
