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

All functions are pure consumers of the telemetry: a record stream, or the
columns ``harness.read_columns`` reads from a seed CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .harness import RunColumns
from .norms import Group
from .tasks import NoiseProfile

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

    Returns None for noiseless layers where the requirement is vacuous. The
    floor 1 - sigma_lo^4 / (32 (2 c2 sigma_hi^2 - sigma_lo^2)^2 log(4T/delta))
    is taken with sigma_hi^4 cancelled, so radii whose squares leave float
    range still give it.
    """
    if sigma_lo == 0.0:
        return None
    r2 = (sigma_lo / sigma_hi) ** 2
    return 1.0 - r2 * r2 / (32.0 * (2.0 * c2 - r2) ** 2 * math.log(4.0 * total_steps / delta))


def _layout(records) -> tuple[list[str], list[int]]:
    """The layer names and the step numbers of a record stream (the names
    from its first record) or of :class:`RunColumns` (steps 0 to n-1)."""
    if isinstance(records, RunColumns):
        names, steps = list(records.layers), range(len(records.losses))
    else:
        names, steps = list(records[0].layers) if records else [], [rec.step for rec in records]
    if not steps:
        raise ValueError("empty record stream")
    return names, steps


def _h_rows(records, names, steps, layer_major) -> np.ndarray:
    """The tracker values as a (layers x steps) float64 array, one
    contiguous row per layer in ``names`` order. The first NaN, or layer a
    record lacks, raises: layer by layer if ``layer_major``, else step by
    step (a lacking layer as ``KeyError``)."""
    if isinstance(records, RunColumns):
        rows = records.h.T.copy()
    else:
        try:
            flat = [rec.layers[name].h for rec in records for name in names]
        except KeyError:
            # Rebuilt with NaN in the gaps, to be told apart where one is met.
            flat = [rec.layers[name].h if name in rec.layers else math.nan
                    for rec in records for name in names]
        rows = np.fromiter(flat, np.float64, len(flat)).reshape(len(records), len(names)).T.copy()
    nan = np.isnan(rows)
    if nan.any():
        if layer_major:
            i, t = np.argwhere(nan)[0]
        else:
            t, i = np.argwhere(nan.T)[0]
        name = names[i]
        if not isinstance(records, RunColumns) and name not in records[t].layers:
            raise KeyError(name)
        raise ValueError(f"layer {name}: missing tracker telemetry at step {steps[t]}")
    return rows


def h_bounds_check(records, params: BoundParams) -> dict:
    """Check the two-sided tracker envelope on one run.

    Expects records from a twin-gradient run with tracker interval 1, so the
    number of tracker updates behind a record at step t (0-based) is t + 1.
    Returns a report keyed by fixed field names; any upper-bound violation is
    a hard failure of the deterministic envelope. A NaN or a missing layer
    raises at the first one met layer by layer, each layer in step order.
    """
    names, steps = _layout(records)
    radii = params.profile.radii
    for name in names:
        if name not in radii:
            raise ValueError(f"layer {name}: missing noise radii in profile")
    beta2 = params.beta2
    c2 = params.c2
    t0 = tracker_burn_in(beta2)
    total = len(steps)
    # The steps past the burn-in and their fill 1 - beta2^(t+1), shared by
    # every layer. The fills are Python powers: numpy's may round apart.
    checked = [step + 1 >= t0 for step in steps]
    fills = np.array([1.0 - beta2 ** (step + 1) for step, c in zip(steps, checked) if c],
                     dtype=np.float64)
    n_checked = len(fills)
    hs = _h_rows(records, names, steps, layer_major=True)
    hs = hs[:, np.array(checked, dtype=bool)]
    upper_k = np.array([4.0 * radii[name][1] * radii[name][1] for name in names])[:, None]
    lower_k = np.array([radii[name][0] * radii[name][0] for name in names])[:, None]
    # Each bound in the order of its scalar form, one (layers x steps) array.
    with np.errstate(all="ignore"):
        upper_viol = np.count_nonzero(hs > upper_k * fills * (1.0 + _FP_SLACK) + 1e-15, axis=1)
        lower_viol = np.count_nonzero(hs < lower_k * fills / c2 * (1.0 - _FP_SLACK) - 1e-15, axis=1)
    report_layers = []
    for name, up, low in zip(names, upper_viol.tolist(), lower_viol.tolist()):
        lo, hi = radii[name]
        report_layers.append({
            "layer": name,
            "sigma_lo": lo,
            "sigma_hi": hi,
            "steps_checked": n_checked,
            "upper_violations": up,
            "lower_violation_rate": (low / n_checked) if n_checked else 0.0,
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


def _ratio_values(records):
    """Every ratio in step order, as a flat float64 array; how many each
    step lists (records may list different layers); and ``locate(k)``, the
    layer, step index and ratio of the k-th value."""
    if isinstance(records, RunColumns):
        names, ratios = records.layers, records.ratio.ravel()
        counts = np.full(len(records.losses), len(names), np.intp)
        return ratios, counts, lambda k: (names[k % len(names)], k // len(names), float(ratios[k]))
    values = [stats.ratio for rec in records for stats in rec.layers.values()]
    counts = np.fromiter(map(len, map(attrgetter("layers"), records)), np.intp, len(records))

    def locate(k):
        # The first record whose cumulative count passes the index.
        ends = np.cumsum(counts)
        t = int(np.searchsorted(ends, k, side="right"))
        name, stats = list(records[t].layers.items())[k - int(ends[t] - counts[t])]
        return name, t, stats.ratio

    return np.fromiter(values, np.float64, len(values)), counts, locate


def alpha_ratio_envelope(records, params: BoundParams, alpha: float,
                         layer_groups: dict[str, str] | None = None) -> dict:
    """Observed rate-ratio range against the computed lower envelope.

    Asserts ratio <= 1 on every record (hard failure otherwise, at the first
    NaN or ratio past 1 in step order) and reports the per-step min/max
    ratio plus the fraction of steps whose minimum falls below alpha_r.
    """
    _, steps = _layout(records)
    alpha_r = compute_alpha_r(alpha, params)
    ratios, counts, locate = _ratio_values(records)
    with np.errstate(all="ignore"):
        # Not <= 1 is a NaN or a ratio past 1.
        ok = ratios <= 1.0
        if not ok.all():
            name, t, ratio = locate(int(ok.argmin()))
            if math.isnan(ratio):
                raise ValueError(f"layer {name}: missing ratio telemetry at step {steps[t]}")
            raise ValueError(f"layer {name}: ratio {ratio} > 1 at step {steps[t]}")
        below = 0
        min_ratio, max_ratio = math.inf, -math.inf
        if ratios.size:
            # The first of equal extremes, as the builtins keep it: 0.0 and
            # -0.0 are equal but print apart.
            min_ratio = float(ratios[ratios.argmin()])
            max_ratio = float(ratios[ratios.argmax()])
            # A record without layers has minimum inf, never below alpha_r.
            starts = (np.cumsum(counts) - counts)[counts > 0]
            below = int(np.count_nonzero(np.minimum.reduceat(ratios, starts) < alpha_r))
    return {
        "alpha_r": alpha_r,
        "min_ratio": min_ratio,
        "max_ratio": max_ratio,
        "steps": len(steps),
        "frac_below_alpha_r": below / len(steps),
        "layer_groups": dict(layer_groups) if layer_groups else None,
    }


def noise_range_estimate(records, beta2: float,
                         layer_groups: dict[str, str] | None = None) -> dict:
    """Per-layer summary of the dual-norm gradient deltas seen by the tracker.

    The emitted telemetry carries the tracker value H, not the raw deltas, so
    the deltas are reconstructed from consecutive H values through the update
    recursion (valid for interval-1 runs): d_t = sqrt(max(0, H_t -
    beta2*H_{t-1}) / (1 - beta2)), with H_{-1} = 0. Reports min/mean/max
    per layer over the whole run, whose steps [0, last step + 1) the report
    names as its window, plus group-aggregated means. A NaN or a missing
    layer raises at the first one met step by step. ``beta2`` must be
    below 1.
    """
    names, steps = _layout(records)
    if steps[0] < 0:
        raise ValueError(f"step {steps[0]} < 0: the tracker recursion starts at step 0")
    if not beta2 < 1.0:
        raise ValueError(f"beta2 {beta2} is not below 1")
    hs = _h_rows(records, names, steps, layer_major=False)
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
    return {"window": [0, steps[-1] + 1], "layers": per_layer, "group_means": groups}
