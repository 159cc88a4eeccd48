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
from itertools import compress

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


def _missing_h(records, names) -> None:
    """Raise at the first record, and in it the first of ``names``, whose
    tracker value is NaN (a layer a record lacks raises ``KeyError``)."""
    for rec in records:
        for name in names:
            if math.isnan(rec.layers[name].h):
                raise ValueError(f"layer {name}: missing tracker telemetry at step {rec.step}")


def _h_columns(records, names) -> list[list[float]]:
    """Each layer's tracker values over the stream. A stream with a NaN or a
    gap is walked record by record instead, to raise where ``_missing_h``
    meets the first one."""
    try:
        columns = [[rec.layers[name].h for rec in records] for name in names]
    except KeyError:
        _missing_h(records, names)
        raise
    # A column's sum is NaN if one of its values is (or if it holds +inf
    # and -inf, which _missing_h lets through).
    if any(math.isnan(sum(column)) for column in columns):
        _missing_h(records, names)
    return columns


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
    c2 = params.c2
    t0 = tracker_burn_in(beta2)
    total = len(records)
    # The records past the burn-in and their fill 1 - beta2^(t+1), shared
    # by every layer.
    checked = [rec.step + 1 >= t0 for rec in records]
    fills = [1.0 - beta2 ** (rec.step + 1) for rec, c in zip(records, checked) if c]
    n_checked = len(fills)
    up_slack = 1.0 + _FP_SLACK
    lo_slack = 1.0 - _FP_SLACK
    report_layers = []
    for name in names:
        lo, hi = params.profile.radii[name]
        hs = _h_columns(records, [name])[0]
        upper_k = 4.0 * hi * hi
        lower_k = lo * lo
        upper_viol = 0
        lower_viol = 0
        for h, fill in zip(compress(hs, checked), fills):
            if h > upper_k * fill * up_slack + 1e-15:
                upper_viol += 1
            if h < lower_k * fill / c2 * lo_slack - 1e-15:
                lower_viol += 1
        report_layers.append({
            "layer": name,
            "sigma_lo": lo,
            "sigma_hi": hi,
            "steps_checked": n_checked,
            "upper_violations": upper_viol,
            "lower_violation_rate": (lower_viol / n_checked) if n_checked else 0.0,
            "beta2_theory_floor": beta2_theory_floor(lo, hi, c2, total, params.delta),
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
        ratios = [stats.ratio for stats in rec.layers.values()]
        step_min = min(ratios, default=math.inf)
        step_max = max(ratios, default=-math.inf)
        # min and max may skip a NaN, the sum does not. Only a step with a
        # NaN or a ratio past 1 is walked row by row, to name the layer.
        if step_max > 1.0 or math.isnan(sum(ratios)):
            for name, stats in rec.layers.items():
                r = stats.ratio
                if math.isnan(r):
                    raise ValueError(f"layer {name}: missing ratio telemetry at step {rec.step}")
                if r > 1.0:
                    raise ValueError(f"layer {name}: ratio {r} > 1 at step {rec.step}")
        min_ratio = min(min_ratio, step_min)
        max_ratio = max(max_ratio, step_max)
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
    keep = 1.0 - beta2
    deltas: dict[str, list[float]] = {}
    sqrt = math.sqrt
    for name, hs in zip(names, _h_columns(records, names)):
        column = []
        prev = 0.0
        for h in hs:
            column.append(sqrt(max(0.0, h - beta2 * prev) / keep))
            prev = h
        deltas[name] = column
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
