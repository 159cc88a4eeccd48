"""Post-hoc checks of the tracker and rate-ratio bounds on instrumented runs.

Given a telemetry stream from a run with twin-gradient tracking at interval 1
and the run's layers, whose ``LayerSpec``s hold their noise radii, the
tracker obeys deterministic and probabilistic envelopes:

* upper (deterministic, from the triangle inequality):
      H_t <= 4 * sigma_hi^2 * (1 - beta2^t)
* lower (probabilistic, holds for t >= t0 = log 2 / log(1/beta2)):
      H_t >= sigma_lo^2 * (1 - beta2^t) / C2

where C2 is a norm-equivalence constant between the layer's dual norm and the
Frobenius norm. Upper-bound violations are hard failures; lower-bound
violations are counted and reported as a frequency to compare against the
confidence parameter delta. The rate ratio alpha_l / alpha_max is likewise
bounded below by

    alpha_r = min( alpha / sqrt(alpha^2 + 4 sigma_hi_max^2),
                   1 / (2 sqrt(C2) kappa) )

with kappa the largest sigma_hi/sigma_lo over layers (0/0 counts as 1).

All functions are pure consumers of the telemetry as
:class:`harness.RunColumns`: the columns ``harness.read_columns`` reads from
a seed CSV, or that ``harness.columns_of`` builds from a run's records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import Group
from .optimizer import LayerSpec

__all__ = [
    "BoundParams",
    "default_equivalence_constants",
    "h_bounds_check",
    "alpha_ratio_envelope",
    "noise_range_estimate",
]

# Relative slack for the deterministic upper bound: covers float accumulation
# only, the mathematical bound is strict.
_FP_SLACK = 1e-9


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the tracker and ratio bound checks; ``layers`` are
    the run's layers, whose specs hold their noise radii."""

    c1: float
    c2: float
    delta: float
    beta2: float
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not 0 < self.c1 <= self.c2:
            raise ValueError("need 0 < c1 <= c2")
        if self.c2 < 1.0:
            raise ValueError("c2 must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must be in [0, 1)")


def default_equivalence_constants(group: Group, shape) -> tuple[float, float]:
    """Tightest standard constants with c1 * dual <= frobenius <= c2 * dual.

    Hidden layers use the nuclear/Frobenius relation with the rank bounded by
    min(d_out, d_in); the other groups use the exact finite-dimensional
    constants of their definitions. c2 is clamped to 1 from below because the
    bound checks assume c2 >= 1; clamping only loosens the lower envelope.
    """
    if group is Group.HIDDEN:
        d_out, d_in = shape
        s = math.sqrt(d_out / d_in)
        rank = min(d_out, d_in)
        return 1.0 / (s * math.sqrt(rank)), max(1.0, 1.0 / s)
    if group is Group.EMBEDDING_HEAD:
        d_out, d_in = shape
        return d_in / math.sqrt(d_out * d_in), max(1.0, float(d_in))
    d = shape[0]
    return 1.0 / math.sqrt(d), 1.0


def tracker_burn_in(beta2: float) -> float:
    """First step index from which the lower envelope applies."""
    if beta2 == 0.0:
        return 0.0
    return math.log(2.0) / math.log(1.0 / beta2)


def beta2_theory_floor(sigma_lo: float, sigma_hi: float, c2: float,
                       total_steps: int, delta: float) -> float | None:
    """Smallest beta2 for which the probabilistic lower envelope is claimed.

    Returns None for noiseless layers where the requirement is vacuous. The
    floor 1 - sigma_lo^4 / (32 (2 c2 sigma_hi^2 - sigma_lo^2)^2 log(4T/delta))
    is taken with sigma_hi^4 cancelled, so radii whose squares leave float
    range still give it.
    """
    if sigma_lo == 0.0:
        return None
    r2 = (sigma_lo / sigma_hi) ** 2
    return 1.0 - r2 * r2 / (32.0 * (2.0 * c2 - r2) ** 2 * math.log(4.0 * total_steps / delta))


def _steps(columns) -> int:
    """The number of steps in ``columns``, which must be at least one."""
    if not len(columns.losses):
        raise ValueError("empty record stream")
    return len(columns.losses)


def _h_rows(columns, layer_major) -> np.ndarray:
    """The tracker values as a (layers x steps) float64 array, one
    contiguous row per layer. The first NaN raises: layer by layer if
    ``layer_major``, else step by step."""
    rows = columns.h.T.copy()
    nan = np.isnan(rows)
    if nan.any():
        if layer_major:
            i, t = np.argwhere(nan)[0]
        else:
            t, i = np.argwhere(nan.T)[0]
        raise ValueError(f"layer {columns.layers[i]}: missing tracker telemetry at step {t}")
    return rows


def h_bounds_check(columns, params: BoundParams) -> dict:
    """Check the two-sided tracker envelope on one run.

    Expects the columns of a twin-gradient run with tracker interval 1, so
    the number of tracker updates behind row t (step t, 0-based) is t + 1.
    Returns a report keyed by fixed field names; any upper-bound violation is
    a hard failure of the deterministic envelope. A NaN raises at the first
    one met layer by layer, each layer in step order.
    """
    total = _steps(columns)
    names = columns.layers
    by_name = {spec.name: spec for spec in params.layers}
    for name in names:
        if name not in by_name:
            raise ValueError(f"layer {name}: not among the bound parameters' layers")
    specs = [by_name[name] for name in names]
    beta2 = params.beta2
    c2 = params.c2
    t0 = tracker_burn_in(beta2)
    # The steps past the burn-in (step + 1 >= t0) and their fill
    # 1 - beta2^(step+1), shared by every layer. The fills are Python
    # powers: numpy's may round apart.
    first = min(total, max(0, math.ceil(t0) - 1))
    fills = np.array([1.0 - beta2 ** (step + 1) for step in range(first, total)], dtype=np.float64)
    n_checked = len(fills)
    hs = _h_rows(columns, layer_major=True)[:, first:]
    upper_k = np.array([4.0 * spec.sigma_hi * spec.sigma_hi for spec in specs])[:, None]
    lower_k = np.array([spec.sigma_lo * spec.sigma_lo for spec in specs])[:, None]
    # Each bound in the order of its scalar form, one (layers x steps) array.
    with np.errstate(all="ignore"):
        upper_viol = np.count_nonzero(hs > upper_k * fills * (1.0 + _FP_SLACK) + 1e-15, axis=1)
        lower_viol = np.count_nonzero(hs < lower_k * fills / c2 * (1.0 - _FP_SLACK) - 1e-15, axis=1)
    report_layers = []
    for spec, up, low in zip(specs, upper_viol.tolist(), lower_viol.tolist()):
        lo, hi = spec.sigma_lo, spec.sigma_hi
        report_layers.append({
            "layer": spec.name,
            "sigma_lo": lo,
            "sigma_hi": hi,
            "steps_checked": n_checked,
            "upper_violations": up,
            "lower_violation_rate": (low / n_checked) if n_checked else 0.0,
            "beta2_theory_floor": beta2_theory_floor(lo, hi, c2, total, params.delta),
        })
    return {"t0": t0, "beta2": beta2, "delta": params.delta, "layers": report_layers}


def compute_alpha_r(alpha: float, params: BoundParams) -> float:
    """Lower envelope for the rate ratio given the layers' noise radii."""
    sigma_hi_max = max(spec.sigma_hi for spec in params.layers)
    kappas = []
    for spec in params.layers:
        lo, hi = spec.sigma_lo, spec.sigma_hi
        if lo > 0.0:
            kappas.append(hi / lo)
        elif hi == 0.0:
            kappas.append(1.0)
        else:
            kappas.append(math.inf)
    kappa = max(kappas)
    first = alpha / math.sqrt(alpha * alpha + 4.0 * sigma_hi_max * sigma_hi_max)
    second = 0.0 if math.isinf(kappa) else 1.0 / (2.0 * math.sqrt(params.c2) * kappa)
    return min(first, second)


def alpha_ratio_envelope(columns, params: BoundParams, alpha: float,
                         layer_groups: dict[str, str] | None = None) -> dict:
    """Observed rate-ratio range against the computed lower envelope.

    Asserts ratio <= 1 on every row (hard failure otherwise, at the first
    NaN or ratio past 1 in step order) and reports the per-step min/max
    ratio plus the fraction of steps whose minimum falls below alpha_r.
    """
    total = _steps(columns)
    alpha_r = compute_alpha_r(alpha, params)
    ratio = columns.ratio
    # Not <= 1 is a NaN or a ratio past 1.
    bad = ~(ratio <= 1.0)
    if bad.any():
        t, i = np.argwhere(bad)[0]
        name, value = columns.layers[i], float(ratio[t, i])
        if math.isnan(value):
            raise ValueError(f"layer {name}: missing ratio telemetry at step {t}")
        raise ValueError(f"layer {name}: ratio {value} > 1 at step {t}")
    below = 0
    min_ratio, max_ratio = math.inf, -math.inf
    if ratio.size:
        # The first of equal extremes in step order, as the builtins keep
        # it: 0.0 and -0.0 are equal but print apart.
        flat = ratio.ravel()
        min_ratio = float(flat[flat.argmin()])
        max_ratio = float(flat[flat.argmax()])
        below = int(np.count_nonzero(ratio.min(axis=1) < alpha_r))
    return {
        "alpha_r": alpha_r,
        "min_ratio": min_ratio,
        "max_ratio": max_ratio,
        "steps": total,
        "frac_below_alpha_r": below / total,
        "layer_groups": dict(layer_groups) if layer_groups else None,
    }


def noise_range_estimate(columns, beta2: float,
                         layer_groups: dict[str, str] | None = None) -> dict:
    """Per-layer summary of the dual-norm gradient deltas seen by the tracker.

    The emitted telemetry carries the tracker value H, not the raw deltas, so
    the deltas are reconstructed from consecutive H values through the update
    recursion (valid for interval-1 runs): d_t = sqrt(max(0, H_t -
    beta2*H_{t-1}) / (1 - beta2)), with H_{-1} = 0. Reports min/mean/max
    per layer over the whole run, whose steps [0, n) the report names as
    its window, plus group-aggregated means. A NaN raises at the first one
    met step by step. ``beta2`` must be below 1.
    """
    total = _steps(columns)
    if not beta2 < 1.0:
        raise ValueError(f"beta2 {beta2} is not below 1")
    names = columns.layers
    hs = _h_rows(columns, layer_major=False)
    prev = np.zeros_like(hs)
    prev[:, 1:] = hs[:, :-1]
    with np.errstate(all="ignore"):
        diff = hs - beta2 * prev
        # Python's max(0.0, x), which maps NaN (inf - inf) to 0.0 where
        # np.maximum would keep it.
        deltas = np.sqrt(np.where(diff > 0.0, diff, 0.0) / (1.0 - beta2))
    per_layer = [{"layer": name, "min": float(row.min()), "mean": float(row.mean()),
                  "max": float(row.max())} for name, row in zip(names, deltas)]
    groups = None
    if layer_groups:
        acc: dict[str, list[np.ndarray]] = {}
        for name, row in zip(names, deltas):
            acc.setdefault(layer_groups[name], []).append(row)
        # The mean over each group's layer-major concatenation.
        groups = {g: float(np.concatenate(rows).mean()) for g, rows in sorted(acc.items())}
    return {"window": [0, total], "layers": per_layer, "group_means": groups}
