"""Linear minimization oracles over the unit balls of the per-group norms.

For a direction b and the group's norm ball K = {x : ||x|| <= 1}, the oracle
returns argmin_{x in K} <b, x>, i.e. the extreme point most anti-aligned
with b:

* HIDDEN:          -sqrt(d_out/d_in) * polar_factor(b)
* EMBEDDING_HEAD:  -(1/d_in) * sign(b), with sign(0) = 0
* VECTOR_NORM:     -sqrt(d) * b / ||b||_2

The hidden-group polar factor U V^T is approximated with Newton-Schulz
iterations (the production path) or computed exactly from LAPACK's SVD
(the oracle path used for testing). A zero direction maps to the zero
element: a layer with zero momentum should not move.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_matrix, frobenius_norm, require_finite, singular_values
from .norms import Group

__all__ = [
    "QUINTIC_COEFFS",
    "NS_SIGMA_ENVELOPE",
    "NS_SPECTRAL_ENVELOPE",
    "newton_schulz",
    "polar_exact",
    "lmo",
    "ns_envelope_cases",
    "measure_ns_envelope",
]

# Quintic iteration X <- aX + b(XX^T)X + c(XX^T)^2 X. These coefficients
# maximize the slope at zero; the iteration lands singular values in a band
# around 1 instead of converging to 1 exactly.
QUINTIC_COEFFS = (3.4445, -4.7750, 2.0315)

# The same coefficients as read-only 0-d float64 arrays: an in-place product
# with one skips the conversion numpy makes of a Python float on every call,
# and gives the same bits.
_QUINTIC = np.array(QUINTIC_COEFFS)
_QUINTIC.flags.writeable = False
_QUINTIC_ARRAYS = tuple(_QUINTIC[i, ...] for i in range(len(QUINTIC_COEFFS)))

DEFAULT_NS_STEPS = 5

# Regression envelope for the 5-step quintic iteration, measured by
# measure_ns_envelope() over the seeded sweep returned by ns_envelope_cases()
# (sizes 4..256, condition numbers 1..1e4) with output singular values taken
# from linalg.singular_values (LAPACK). Frozen: acceptance criterion 3 requires
# the sweep to give these values to 7 digits, and on a mismatch prints the
# lines to paste here.
NS_SIGMA_ENVELOPE = (1.279996e-02, 1.202354e+00)
NS_SPECTRAL_ENVELOPE = (6.881399e-01, 1.202354e+00)


def newton_schulz(a, steps: int = DEFAULT_NS_STEPS) -> np.ndarray:
    """Approximate the polar factor of a nonzero matrix.

    The input is first divided by its max-abs entry and then by the Frobenius
    norm of that quotient (plus 1e-12), which guarantees the starting spectral
    norm is at most 1. Doing the reduction through the max-abs entry makes the
    iterate, and therefore the output, bit-identical across exact positive
    rescalings of the input. Tall matrices run through their transpose so the
    Gram products stay small.

    This function validates its input: one conversion to a row-major
    float64 matrix (see ``as_matrix``), a no-op for the matrix ``lmo``
    hands it, and the zero check that the max-abs scale gives for free.
    Any input layout or dtype gives the bits of its row-major float64 copy.
    The result is a new array, sharing no memory with the input.
    """
    a = as_matrix(a)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise ValueError("newton_schulz: zero matrix has no polar factor")
    ca, cb, cc = _QUINTIC_ARRAYS
    x = a / scale
    x /= frobenius_norm(x) + 1e-12
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    # The iterate and the three products live in arrays made for this call
    # (so threads share nothing), updated in place. np.dot reaches the same
    # BLAS calls as @ without the ufunc machinery, and the update keeps the
    # float order of x = ca*x + cb*gx + cc*(g @ gx).
    k, n = x.shape
    g = np.empty((k, k))
    gx = np.empty((k, n))
    ggx = np.empty((k, n))
    for _ in range(steps):
        np.dot(x, x.T, g)
        np.dot(g, x, gx)
        np.dot(g, gx, ggx)
        if x.flags.c_contiguous:
            x *= ca
        else:
            # A tall input's transposed view: its first products read the
            # view and this update copies it to row-major, the layouts the
            # iterate of that expression had. From k = 16 BLAS may sum a
            # product of another layout in another order.
            x = np.multiply(x, ca, order="C")
        gx *= cb
        x += gx
        ggx *= cc
        x += ggx
    return x.T if transposed else x


def polar_exact(a) -> np.ndarray:
    """Exact polar factor U V^T from LAPACK's reduced SVD.

    Singular values below 1e-12 times the largest are dropped from the
    product, so rank-deficient inputs map to the polar factor of their
    leading subspace. A non-finite entry raises ``ValueError``.
    """
    a = as_matrix(a)
    require_finite("polar_exact input", a)
    if not np.count_nonzero(a):
        raise ValueError("polar_exact: zero matrix has no polar factor")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-12 * s[0]
    return u[:, keep] @ vt[keep, :]


def lmo(group: Group, b, ns_steps: int = DEFAULT_NS_STEPS, oracle: bool = False) -> np.ndarray:
    """Extreme point of the group's unit norm ball minimizing <b, x>.

    This function validates b once: one conversion to a row-major float64
    array and one rank check. Newton-Schulz then receives that array, so
    its own conversion is a no-op. Any input layout or dtype gives the bits
    of its row-major float64 copy.
    """
    b = np.asarray(b, dtype=np.float64, order="C")
    if b.ndim != group.rank:
        raise ValueError(f"group {group.value} expects {group.rank} dims, got shape {b.shape}")
    if group is Group.VECTOR_NORM:
        nrm = float(np.linalg.norm(b))
        if nrm == 0.0:
            return np.zeros_like(b)
        return -math.sqrt(b.shape[0]) * b / nrm
    if group is Group.EMBEDDING_HEAD:
        return -np.sign(b) / b.shape[1]
    # HIDDEN
    if not np.count_nonzero(b):
        return np.zeros_like(b)
    d_out, d_in = b.shape
    polar = polar_exact(b) if oracle else newton_schulz(b, steps=ns_steps)
    return -math.sqrt(d_out / d_in) * polar


def ns_envelope_cases():
    """Seeded matrices spanning sizes 4..256 and condition numbers 1..1e4.

    Yields (label, matrix) pairs. This is the fixed population behind the
    pinned envelope constants; tests replay it verbatim.
    """
    specs = []
    for size in (4, 8, 16, 32, 64):
        for cond in (1.0, 1e2, 1e4):
            for seed in (0, 1):
                specs.append(((size, size), cond, seed))
    for size in (128, 256):
        for cond in (1.0, 1e2, 1e4):
            specs.append(((size, size), cond, 0))
    for shape in ((8, 32), (96, 64), (16, 4)):
        for cond in (1.0, 1e2):
            specs.append((shape, cond, 0))

    for shape, cond, seed in specs:
        m, n = shape
        k = min(m, n)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9001, m, n, int(cond), seed))))
        qu, _ = np.linalg.qr(rng.standard_normal((m, k)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, k)))
        svals = np.logspace(0.0, -math.log10(cond), k) if cond > 1.0 else np.ones(k)
        label = f"{m}x{n}_cond{cond:g}_seed{seed}"
        yield label, qu @ (svals[:, None] * qv.T)


def measure_ns_envelope(steps: int = DEFAULT_NS_STEPS):
    """Run the envelope sweep and return its extreme output singular values.

    Returns ``(sigma_low, sigma_high), (spectral_low, spectral_high)``, the
    shape of ``NS_SIGMA_ENVELOPE`` and ``NS_SPECTRAL_ENVELOPE``. The largest
    singular value over the sweep is the high end of both.
    """
    smallest = []
    largest = []
    for _, a in ns_envelope_cases():
        s = singular_values(newton_schulz(a, steps=steps))
        smallest.append(float(s[-1]))
        largest.append(float(s[0]))
    high = max(largest)
    return (min(smallest), high), (min(largest), high)
