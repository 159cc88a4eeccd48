"""Noise-adaptive layer-wise LMO optimizer and reference baselines.

Each step runs three phases per layer:

1. momentum:   B <- beta1 * B + (1 - beta1) * G  (first step sets B = G)
2. direction:  O <- lmo(group, B)
3. rate:       a variance tracker H accumulates squared dual-norm gradient
               differences; the scaling alpha_l = alpha / sqrt(alpha^2 + H)
               is compared against its group maximum, and the base learning
               rate is multiplied by sqrt(alpha_l / alpha_max). Noisier
               layers therefore move with smaller steps while the least
               noisy layer in every group keeps the full rate.

The tracker difference is either the previous step's gradient ("option I",
no extra gradient evaluations) or an independent twin gradient at the same
point ("option II"). Tracker updates run every `noise_update_interval`
steps; ratios are frozen in between because H does not change.

The step mode is ``cfg.mode``: "raw" applies eta_t * sqrt(ratio)
uniformly, while "practical" folds in the per-group rate scales used for
transformer-style stacks (hidden_scale * sqrt(max(d_in, d_out)) for hidden
layers, r1 for embedding/head layers, r2 for vector layers).

Decoupled weight decay, when enabled, multiplies parameters by
(1 - eta_t * weight_decay) with the base rate before the update is added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .checks import CHECKS, ConfigError, check_integer, check_string
from .lmo import DEFAULT_NS_STEPS, lmo
from .norms import Group, dual_norm

__all__ = [
    "LayerSpec",
    "LantonConfig",
    "OPTIONS",
    "LantonState",
    "LayerStats",
    "TelemetryFlags",
    "GradientError",
    "init_state",
    "cosine_schedule_lr",
    "update_noise_tracker",
    "alpha_and_ratio",
    "lanton_step",
    "baseline_step",
    "needs_twins",
    "BASELINE_KINDS",
    "KINDS",
    "MODES",
    "CSV_UNSAFE",
    "check_layer_name",
]

BASELINE_KINDS = ("fixed_rate_lmo", "signum", "sgd")
KINDS = ("lanton",) + BASELINE_KINDS
MODES = ("raw", "practical")

# Characters a layer name must not hold: the name is a field of each
# telemetry CSV row, so a comma or a line break would split the row.
CSV_UNSAFE = ",\n\r"


def check_layer_name(name: str, path: str = "name") -> str:
    """``name``, if it is a string a CSV row can hold as a field; else a
    ConfigError at ``path``."""
    check_string(name, path)
    if any(c in name for c in CSV_UNSAFE):
        raise ConfigError(path, f"{name!r}: a comma or line break would break the CSV")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(path, f"{name!r}: UTF-8 cannot encode it, so the CSV cannot hold it") from None
    return name


class GradientError(ValueError):
    """A gradient carried NaN/Inf entries; the message names the layer."""


@dataclass(frozen=True)
class LayerSpec:
    """Shape, group membership and optional curvature bound of one layer."""

    name: str
    shape: tuple[int, ...]
    group: Group
    smoothness: float | None = None

    def __post_init__(self):
        check_layer_name(self.name)
        if any(d < 1 for d in self.shape):
            raise ValueError(f"layer {self.name}: dims must be >= 1, got {self.shape}")
        if len(self.shape) != self.group.rank:
            raise ValueError(f"layer {self.name}: group {self.group.value} needs a {self.group.rank}-D shape")
        if self.smoothness is not None and self.smoothness < 0:
            raise ValueError(f"layer {self.name}: smoothness must be >= 0")


def _option(json_type: type, default, **bounds):
    """A LantonConfig field that is also a key of a config's optimizer section:
    its JSON type (float, int, bool or str), its default and the bounds that
    type's check takes."""
    return field(default=default, metadata={"type": json_type, "bounds": bounds})


@dataclass(frozen=True)
class LantonConfig:
    """The optimizer kind, its step mode, its hyperparameters and its schedule.

    Every field but ``total_steps`` is an optimizer option (see ``OPTIONS``):
    a config file's ``optimizer`` section takes the same names, defaults and
    bounds, and ``__post_init__`` checks them for both kinds of caller. A
    failed check raises :class:`ConfigError` naming the field. The config is
    frozen, so a checked config cannot change under the step; derive another
    with ``dataclasses.replace``, which checks it again.
    """

    total_steps: int
    kind: str = _option(str, "lanton", choices=KINDS)
    mode: str = _option(str, "raw", choices=MODES)
    beta1: float = _option(float, 0.95, lo=0.0, hi=1.0, hi_open=True)
    beta2: float = _option(float, 0.9, lo=0.0, hi=1.0, hi_open=True)
    # None ties the scaling knee to the momentum window: alpha = 1 - beta1.
    alpha: float | None = _option(float, None, lo=0.0, lo_open=True)
    eta_max: float = _option(float, 5e-3, lo=0.0, lo_open=True)
    eta_min: float = _option(float, 5e-4, lo=0.0, lo_open=True)  # and <= eta_max
    warmup_steps: int = _option(int, 0, lo=0)  # and < total_steps
    weight_decay: float = _option(float, 0.0, lo=0.0)
    r1: float = _option(float, 300.0, lo=0.0, lo_open=True)
    r2: float = _option(float, 1.0, lo=0.0, lo_open=True)
    hidden_scale: float = _option(float, 0.2, lo=0.0, lo_open=True)
    noise_option: str = _option(str, "I", choices=("I", "II"))
    noise_update_interval: int = _option(int, 10, lo=1)
    ns_steps: int = _option(int, DEFAULT_NS_STEPS, lo=1)
    oracle_polar: bool = _option(bool, False)
    embedding_dual: str = _option(str, "default", choices=("default", "alternate"))

    def __post_init__(self):
        check_integer(self.total_steps, "total_steps", lo=1)
        for f in OPTIONS:
            value = getattr(self, f.name)
            if f.name == "alpha" and value is None:
                value = 1.0 - self.beta1
            object.__setattr__(self, f.name, CHECKS[f.metadata["type"]](value, f.name, **f.metadata["bounds"]))
        if self.eta_min > self.eta_max:
            raise ConfigError("eta_min", f"eta_min {self.eta_min} > eta_max {self.eta_max}")
        if self.warmup_steps >= self.total_steps:
            raise ConfigError("warmup_steps", f"must be < total_steps ({self.total_steps})")


# The optimizer options, in the order they are checked: the whole optimizer
# section of a config.
OPTIONS = tuple(f for f in fields(LantonConfig) if f.metadata)


@dataclass
class LantonState:
    """Mutable per-run optimizer state."""

    layers: tuple[LayerSpec, ...]
    momentum: dict[str, np.ndarray | None]
    h: dict[str, float]
    prev_grad: dict[str, np.ndarray | None]
    t: int = 0
    _by_name: dict[str, LayerSpec] = field(default_factory=dict, repr=False)

    def layer(self, name: str) -> LayerSpec:
        return self._by_name[name]


def init_state(layers) -> LantonState:
    layers = tuple(layers)
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        raise ValueError("layer names must be unique")
    return LantonState(
        layers=layers,
        momentum={l.name: None for l in layers},
        h={l.name: 0.0 for l in layers},
        prev_grad={l.name: None for l in layers},
        t=0,
        _by_name={l.name: l for l in layers},
    )


def cosine_schedule_lr(t: int, cfg: LantonConfig) -> float:
    """Base learning rate at step t: linear warmup, then cosine decay.

    During warmup the rate ramps as eta_max * (t + 1) / warmup_steps. After
    warmup the cosine runs from eta_max down to eta_min over the remaining
    total_steps - warmup_steps steps.
    """
    if t < 0 or t > cfg.total_steps:
        raise ValueError(f"step {t} outside [0, {cfg.total_steps}]")
    if t < cfg.warmup_steps:
        return cfg.eta_max * (t + 1) / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    rel = t - cfg.warmup_steps
    return cfg.eta_min + 0.5 * (cfg.eta_max - cfg.eta_min) * (1.0 + math.cos(rel * math.pi / span))


def update_noise_tracker(state: LantonState, layer_name: str, g_t, other, cfg: LantonConfig) -> float:
    """Fold one squared dual-norm gradient difference into the layer tracker.

    The step calls it only on tracker-update steps
    (``t % noise_update_interval == 0``). ``other`` is the previous gradient
    (option I) or the twin gradient (option II); passing None skips the
    update, which is how option I's first step behaves.
    """
    spec = state.layer(layer_name)
    h = state.h[layer_name]
    if other is None:
        return h
    g_t = np.asarray(g_t, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    if g_t.shape != tuple(spec.shape) or other.shape != g_t.shape:
        raise ValueError(
            f"layer {layer_name}: tracker shapes {g_t.shape}/{other.shape} "
            f"do not match spec {spec.shape}"
        )
    diff = dual_norm(spec.group, g_t - other, embedding_dual=cfg.embedding_dual)
    h = cfg.beta2 * h + (1.0 - cfg.beta2) * diff * diff
    state.h[layer_name] = h
    return h


def alpha_and_ratio(state: LantonState, cfg: LantonConfig):
    """Per-layer scaling alpha_l = alpha / sqrt(alpha^2 + H) and its ratio
    to the group maximum. At least one layer per group has ratio exactly 1.
    """
    alphas = {
        l.name: cfg.alpha / math.sqrt(cfg.alpha * cfg.alpha + state.h[l.name])
        for l in state.layers
    }
    group_max: dict[Group, float] = {}
    for l in state.layers:
        cur = group_max.get(l.group)
        if cur is None or alphas[l.name] > cur:
            group_max[l.group] = alphas[l.name]
    ratios = {l.name: alphas[l.name] / group_max[l.group] for l in state.layers}
    return alphas, ratios


class LayerStats(NamedTuple):
    """Telemetry of one layer from one step; its fields, in order, are a seed
    CSV's telemetry columns. A named tuple, built without a setattr per field."""

    eta_eff: float
    ratio: float
    h: float
    dual_grad_norm: float


@dataclass(frozen=True)
class TelemetryFlags:
    """The switchable ``LayerStats`` columns (``eta_eff`` is always on); one
    switched off is NaN, and a switched-off dual norm is never computed."""

    ratio: bool = True
    h: bool = True
    dual_grad_norm: bool = True


def _check_grads(state: LantonState, grads, what: str = "gradient") -> dict[str, np.ndarray]:
    """The gradients as float64 arrays, once their cover, shapes and values
    pass; ``what`` names them in the error messages.

    This is the step's validation of its gradients: one conversion, one
    shape check and one finiteness check per array. The per-layer calls the
    step then makes (``update_noise_tracker``, ``lmo``, ``dual_norm``) still
    check their own inputs, as public functions must, but on row-major
    float64 arrays (every array the harness passes, and every momentum)
    each of those checks is a no-op conversion and a shape comparison.
    """
    names = {l.name for l in state.layers}
    if set(grads) != names:
        raise ValueError(f"{what}s for {sorted(set(grads))} do not cover layers {sorted(names)}")
    out = {}
    for spec in state.layers:
        g = np.asarray(grads[spec.name], dtype=np.float64)
        if g.shape != tuple(spec.shape):
            raise ValueError(f"layer {spec.name}: {what} shape {g.shape} != {spec.shape}")
        if np.count_nonzero(np.isfinite(g)) != g.size:
            raise GradientError(f"non-finite {what} in layer {spec.name}")
        out[spec.name] = g
    return out


def _effective_lr(spec: LayerSpec, eta_base: float, ratio: float, cfg: LantonConfig) -> float:
    if cfg.mode == "raw":
        return eta_base * math.sqrt(ratio)
    if spec.group is Group.HIDDEN:
        d_out, d_in = spec.shape
        return cfg.hidden_scale * eta_base * math.sqrt(max(d_in, d_out) * ratio)
    if spec.group is Group.EMBEDDING_HEAD:
        return cfg.r1 * eta_base * math.sqrt(ratio)
    return cfg.r2 * eta_base * math.sqrt(ratio)


def needs_twins(cfg: LantonConfig, t: int) -> bool:
    """Whether step t takes a twin gradient: lanton's tracker-update steps
    under option II."""
    return cfg.kind == "lanton" and cfg.noise_option == "II" and t % cfg.noise_update_interval == 0


def _step(state: LantonState, grads, cfg: LantonConfig, twins, params, telemetry: TelemetryFlags):
    """One step of the kind ``cfg.kind``: momentum, direction, rate, decay
    and telemetry.

    Only lanton tracks noise; the other kinds move at ratio 1. The sign and
    gradient directions are not unit-ball oracle outputs, so the practical
    per-group scales do not apply to them: they move at the base rate.
    The gradients and lanton's twins are checked before the step writes any
    state.
    """
    kind = cfg.kind
    grads = _check_grads(state, grads)
    if needs_twins(cfg, state.t):
        if twins is None:
            raise ValueError("option II needs twin gradients on tracker-update steps")
        twins = _check_grads(state, twins, "twin gradient")
    if cfg.weight_decay > 0.0 and params is None:
        raise ValueError("params are required when weight_decay > 0")
    eta_base = cosine_schedule_lr(state.t, cfg)

    if kind != "sgd":
        for spec in state.layers:
            b = state.momentum[spec.name]
            g = grads[spec.name]
            state.momentum[spec.name] = g.copy() if b is None else cfg.beta1 * b + (1.0 - cfg.beta1) * g

    ratios = None
    if kind == "lanton":
        if state.t % cfg.noise_update_interval == 0:
            others = twins if cfg.noise_option == "II" else state.prev_grad
            for spec in state.layers:
                update_noise_tracker(state, spec.name, grads[spec.name], others[spec.name], cfg)
        if cfg.noise_option == "I":
            for spec in state.layers:
                state.prev_grad[spec.name] = grads[spec.name].copy()
        _, ratios = alpha_and_ratio(state, cfg)

    oracle = kind in ("lanton", "fixed_rate_lmo")
    off = {f.name: math.nan for f in fields(telemetry) if not getattr(telemetry, f.name)}
    deltas = {}
    stats = {}
    for spec in state.layers:
        g = grads[spec.name]
        ratio = 1.0 if ratios is None else ratios[spec.name]
        if oracle:
            # The oracle output already points down the anti-gradient (it
            # minimizes <B, x> over the unit ball), so the descent step adds it.
            o = lmo(spec.group, state.momentum[spec.name], ns_steps=cfg.ns_steps, oracle=cfg.oracle_polar)
            eta_eff = _effective_lr(spec, eta_base, ratio, cfg)
        else:
            o = -np.sign(state.momentum[spec.name]) if kind == "signum" else -g
            eta_eff = eta_base
        delta = eta_eff * o
        if cfg.weight_decay > 0.0:
            delta = delta - eta_base * cfg.weight_decay * np.asarray(params[spec.name], dtype=np.float64)
        deltas[spec.name] = delta
        dgn = dual_norm(spec.group, g, embedding_dual=cfg.embedding_dual) if telemetry.dual_grad_norm else math.nan
        st = LayerStats(eta_eff, ratio, state.h[spec.name], dgn)
        stats[spec.name] = st._replace(**off) if off else st

    state.t += 1
    return deltas, stats


# Both step functions run _step and differ only in the kinds they take. They
# stay two names because perfbench/tracer.py times each, and attributes the
# dual norms the step computes, by these names.


def lanton_step(state: LantonState, grads, cfg: LantonConfig, twins=None, params=None,
                telemetry: TelemetryFlags = TelemetryFlags()):
    """Advance the optimizer one step; ``cfg.kind`` must be ``"lanton"``.

    Returns ``(deltas, stats)``: per-layer parameter increments (add them to
    the parameters) and per-layer :class:`LayerStats`. ``twins`` is required
    on tracker-update steps under option II. ``params`` is required whenever
    weight_decay > 0, since the decay term is part of the returned delta.
    ``telemetry`` says which columns of the stats are recorded.
    """
    if cfg.kind != "lanton":
        raise ValueError(f"lanton_step takes kind 'lanton', got {cfg.kind!r}")
    return _step(state, grads, cfg, twins, params, telemetry)


def baseline_step(state: LantonState, grads, cfg: LantonConfig, params=None,
                  telemetry: TelemetryFlags = TelemetryFlags()):
    """One step of the reference baseline ``cfg.kind``, sharing the schedule
    and state layout.

    * ``fixed_rate_lmo`` -- the LMO update with the noise ratio forced to 1.
    * ``signum``         -- momentum followed by -eta_t * sign(B) everywhere.
    * ``sgd``            -- plain X <- X - eta_t * G.
    """
    if cfg.kind not in BASELINE_KINDS:
        raise ValueError(f"baseline_step takes a kind of {list(BASELINE_KINDS)}, got {cfg.kind!r}")
    return _step(state, grads, cfg, None, params, telemetry)
