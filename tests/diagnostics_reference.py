"""Record-walk statements of the three run diagnostics, kept as the
reference that ``lanton.diagnostics`` must match byte for byte.

These are the versions that walk every record and every value in Python:
``h_bounds_check`` one layer at a time, ``alpha_ratio_envelope`` and
``noise_range_estimate`` one step at a time. The shared constants and the
scalar helpers come from ``lanton.diagnostics``.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from lanton.diagnostics import (
    _FP_SLACK,
    BoundParams,
    beta2_theory_floor,
    compute_alpha_r,
    tracker_burn_in,
)


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
    radii = {spec.name: (spec.sigma_lo, spec.sigma_hi) for spec in params.layers}
    for name in names:
        if name not in radii:
            raise ValueError(f"layer {name}: not among the bound parameters' layers")
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
        lo, hi = radii[name]
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
