"""Post-hoc checks of the tracker and rate-ratio bounds on instrumented runs.

Given a telemetry stream from a run with twin-gradient tracking at interval 1
and a known noise profile, the tracker obeys deterministic and probabilistic
envelopes:

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

All functions are pure consumers of the record stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import Group
from .tasks import NoiseProfile

__all__ = [
    "BoundParams",
    "default_equivalence_constants",
    "h_bounds_check",
    "alpha_ratio_envelope",
    "noise_range_estimate",
    "rank_correlation",
]

# Relative slack for the deterministic upper bound: covers float accumulation
# only, the mathematical bound is strict.
_FP_SLACK = 1e-9


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the tracker and ratio bound checks."""

    c1: float
    c2: float
    delta: float
    beta2: float
    profile: NoiseProfile

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

    Returns None for noiseless layers where the requirement is vacuous.
    """
    if sigma_lo == 0.0:
        return None
    denom = 32.0 * (2.0 * c2 * sigma_hi ** 2 - sigma_lo ** 2) ** 2 * math.log(4.0 * total_steps / delta)
    return 1.0 - sigma_lo ** 4 / denom


def h_bounds_check(records, params: BoundParams) -> dict:
    """Check the two-sided tracker envelope on one run.

    Expects records from a twin-gradient run with tracker interval 1, so the
    number of tracker updates behind a record at step t (0-based) is t + 1.
    Returns a report keyed by fixed field names; any upper-bound violation is
    a hard failure of the deterministic envelope.
    """
    if not records:
        raise ValueError("empty record stream")
    names = list(records[0].layers)
    for name in names:
        if name not in params.profile.radii:
            raise ValueError(f"layer {name}: missing noise radii in profile")
    beta2 = params.beta2
    t0 = tracker_burn_in(beta2)
    total = len(records)
    report_layers = []
    for name in names:
        lo, hi = params.profile.radii[name]
        upper_viol = 0
        lower_viol = 0
        checked = 0
        for rec in records:
            h = rec.layers[name].h
            if math.isnan(h):
                raise ValueError(f"layer {name}: missing tracker telemetry at step {rec.step}")
            n_upd = rec.step + 1
            if n_upd < t0:
                continue
            checked += 1
            fill = 1.0 - beta2 ** n_upd
            upper = 4.0 * hi * hi * fill
            if h > upper * (1.0 + _FP_SLACK) + 1e-15:
                upper_viol += 1
            lower = lo * lo * fill / params.c2
            if h < lower * (1.0 - _FP_SLACK) - 1e-15:
                lower_viol += 1
        report_layers.append({
            "layer": name,
            "sigma_lo": lo,
            "sigma_hi": hi,
            "steps_checked": checked,
            "upper_violations": upper_viol,
            "lower_violation_rate": (lower_viol / checked) if checked else 0.0,
            "beta2_theory_floor": beta2_theory_floor(lo, hi, params.c2, total, params.delta),
        })
    return {"t0": t0, "beta2": beta2, "delta": params.delta, "layers": report_layers}


def compute_alpha_r(alpha: float, params: BoundParams) -> float:
    """Lower envelope for the rate ratio given the noise profile."""
    sigma_hi_max = max(hi for _, hi in params.profile.radii.values())
    kappas = []
    for lo, hi in params.profile.radii.values():
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


def alpha_ratio_envelope(records, params: BoundParams, alpha: float,
                         layer_groups: dict[str, str] | None = None) -> dict:
    """Observed rate-ratio range against the computed lower envelope.

    Asserts ratio <= 1 on every record (hard failure otherwise) and reports
    the per-step min/max ratio plus the fraction of steps whose minimum falls
    below alpha_r.
    """
    if not records:
        raise ValueError("empty record stream")
    alpha_r = compute_alpha_r(alpha, params)
    min_ratio = math.inf
    max_ratio = -math.inf
    below = 0
    for rec in records:
        step_min = math.inf
        for name, stats in rec.layers.items():
            r = stats.ratio
            if math.isnan(r):
                raise ValueError(f"layer {name}: missing ratio telemetry at step {rec.step}")
            if r > 1.0:
                raise ValueError(f"layer {name}: ratio {r} > 1 at step {rec.step}")
            step_min = min(step_min, r)
            min_ratio = min(min_ratio, r)
            max_ratio = max(max_ratio, r)
        if step_min < alpha_r:
            below += 1
    return {
        "alpha_r": alpha_r,
        "min_ratio": min_ratio,
        "max_ratio": max_ratio,
        "steps": len(records),
        "frac_below_alpha_r": below / len(records),
        "layer_groups": dict(layer_groups) if layer_groups else None,
    }


def noise_range_estimate(records, beta2: float,
                         layer_groups: dict[str, str] | None = None) -> dict:
    """Per-layer summary of the dual-norm gradient deltas seen by the tracker.

    The emitted telemetry carries the tracker value H, not the raw deltas, so
    the deltas are reconstructed from consecutive H values through the update
    recursion (valid for interval-1 runs): d_t = sqrt((H_t - beta2*H_{t-1}) /
    (1 - beta2)). Reports min/mean/max per layer over the whole run, whose
    steps [0, last step + 1) the report names as its window, plus
    group-aggregated means.
    """
    if not records:
        raise ValueError("empty record stream")
    if records[0].step < 0:
        raise ValueError(f"step {records[0].step} < 0: the tracker recursion starts at step 0")
    names = list(records[0].layers)
    deltas: dict[str, list[float]] = {name: [] for name in names}
    prev_h = {name: 0.0 for name in names}
    for rec in records:
        for name in names:
            h = rec.layers[name].h
            if math.isnan(h):
                raise ValueError(f"layer {name}: missing tracker telemetry at step {rec.step}")
            num = h - beta2 * prev_h[name]
            deltas[name].append(math.sqrt(max(0.0, num) / (1.0 - beta2)))
            prev_h[name] = h
    per_layer = []
    for name in names:
        vals = np.asarray(deltas[name])
        per_layer.append({
            "layer": name,
            "min": float(vals.min()),
            "mean": float(vals.mean()),
            "max": float(vals.max()),
        })
    groups = None
    if layer_groups:
        acc: dict[str, list[float]] = {}
        for name in names:
            acc.setdefault(layer_groups[name], []).extend(deltas[name])
        groups = {g: float(np.mean(v)) for g, v in sorted(acc.items())}
    return {"window": [0, records[-1].step + 1], "layers": per_layer, "group_means": groups}


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_correlation(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("rank_correlation needs two equal-length 1-D arrays of length >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    if denom == 0.0:
        raise ValueError("rank correlation undefined for constant input")
    return float(np.dot(rx, ry)) / denom
