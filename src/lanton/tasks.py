"""Desk-scale objectives with controlled layer-wise smoothness and noise.

Two task families:

* :class:`QuadraticTask` -- f(X) = sum_l 0.5 * L_l * ||X_l - A_l||_F^2, so
  each layer is exactly L_l-smooth and the gradient map is linear.
* :class:`MlpTask`       -- a two-weight tanh network with mean-squared-error
  loss on a seeded synthetic regression dataset.

Stochastic gradients add synthetic noise whose dual norm is drawn uniformly
from a per-layer interval [sigma_lo, sigma_hi], so every draw respects the
two-sided bound by construction. Sign symmetrization (flip with probability
one half) makes the noise exactly zero-mean.

Random streams are derived from (seed, purpose, layer index) seed sequences,
one independent stream per layer and purpose, so replay is deterministic and
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import ConfigError
from .linalg import require_finite
from .norms import Group, dual_norm
from .optimizer import LayerSpec

__all__ = [
    "NoiseProfile",
    "QuadraticTask",
    "Dataset",
    "MlpTask",
    "quadratic_value_grad",
    "mlp_value_grad",
    "value_grad",
    "sample_dual_noise",
    "perturb_gradients",
    "gen_dataset",
    "noise_streams",
    "layered_quadratic",
    "mlp_layers",
    "transformer_layers",
    "heterogeneous_layers",
    "TRANSFORMER_NOISE_RADII",
]

# Purposes for stream derivation; fixed codes keep replay stable.
_PURPOSE_NOISE = 1
_PURPOSE_TARGETS = 2
_PURPOSE_INIT = 3
_PURPOSE_DATA = 4

# Noise radii (sigma_lo, sigma_hi) of the transformer preset: query-key,
# value-output and feed-forward layer roles carry very different measured
# noise scales despite sharing one norm group.
TRANSFORMER_NOISE_RADII = {
    "qk": (0.003, 0.026),
    "vo": (0.009, 0.117),
    "mlp": (0.018, 0.107),
}


def _stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index))))


def noise_streams(seed: int, layers) -> dict[str, np.random.Generator]:
    """One independent noise generator per layer, derived from the run seed."""
    return {spec.name: _stream(seed, _PURPOSE_NOISE, i) for i, spec in enumerate(layers)}


@dataclass(frozen=True)
class NoiseProfile:
    """Per-layer dual-norm noise radii (sigma_lo, sigma_hi)."""

    radii: dict[str, tuple[float, float]]

    def __post_init__(self):
        for name, (lo, hi) in self.radii.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"layer {name}: noise radii must be finite")
            if lo < 0 or lo > hi:
                raise ValueError(f"layer {name}: need 0 <= sigma_lo <= sigma_hi, got ({lo}, {hi})")


@dataclass(frozen=True)
class QuadraticTask:
    """Sum of per-layer quadratics 0.5 * L_l * ||X_l - A_l||_F^2."""

    layers: tuple[LayerSpec, ...]
    targets: dict[str, np.ndarray]
    noise: NoiseProfile

    def __post_init__(self):
        for spec in self.layers:
            if spec.smoothness is None or spec.smoothness <= 0:
                raise ValueError(f"layer {spec.name}: quadratic task needs smoothness > 0")
            a = self.targets[spec.name]
            if a.shape != tuple(spec.shape):
                raise ValueError(f"layer {spec.name}: target shape {a.shape} != {spec.shape}")
            require_finite(f"target {spec.name}", a)
            if spec.name not in self.noise.radii:
                raise ValueError(f"layer {spec.name}: missing noise radii")

    def initial_params(self) -> dict[str, np.ndarray]:
        return {spec.name: np.zeros(spec.shape) for spec in self.layers}


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, input_dim)
    labels: np.ndarray    # (n, output_dim)

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        require_finite("features", self.features)
        require_finite("labels", self.labels)


def mlp_layers(widths) -> tuple[LayerSpec, ...]:
    """The two weight layers of the MLP with these (input, hidden, output) widths."""
    i, h, o = widths
    return (
        LayerSpec("w1", (h, i), Group.HIDDEN),
        LayerSpec("w2", (o, h), Group.HIDDEN),
    )


@dataclass(frozen=True)
class MlpTask:
    """Two-layer tanh network w2 @ tanh(w1 @ x) trained with mean squared error."""

    widths: tuple[int, int, int]
    dataset: Dataset
    noise: NoiseProfile
    seed: int = 0

    def __post_init__(self):
        if any(w < 1 for w in self.widths):
            raise ValueError("widths must be >= 1")
        i, _, o = self.widths
        if self.dataset.features.shape[1] != i or self.dataset.labels.shape[1] != o:
            raise ValueError("dataset dims do not match widths")
        for name in ("w1", "w2"):
            if name not in self.noise.radii:
                raise ValueError(f"missing noise radii for {name}")

    @property
    def layers(self) -> tuple[LayerSpec, ...]:
        return mlp_layers(self.widths)

    def initial_params(self) -> dict[str, np.ndarray]:
        i, h, o = self.widths
        g1 = _stream(self.seed, _PURPOSE_INIT, 0)
        g2 = _stream(self.seed, _PURPOSE_INIT, 1)
        return {
            "w1": g1.standard_normal((h, i)) / math.sqrt(i),
            "w2": g2.standard_normal((o, h)) / math.sqrt(h),
        }


def quadratic_value_grad(task: QuadraticTask, x: dict[str, np.ndarray]):
    """Exact loss and per-layer gradients of the quadratic objective."""
    loss = 0.0
    grads = {}
    for spec in task.layers:
        xi = np.asarray(x[spec.name], dtype=np.float64)
        if xi.shape != tuple(spec.shape):
            raise ValueError(f"layer {spec.name}: shape {xi.shape} != {spec.shape}")
        diff = xi - task.targets[spec.name]
        loss += 0.5 * spec.smoothness * float((diff * diff).sum())
        grads[spec.name] = spec.smoothness * diff
    return loss, grads


def _scratch(work: dict, key: str, shape) -> np.ndarray:
    """The workspace's float64 array under ``key``, made on first use or when
    the shape it needs changes."""
    buf = work.get(key)
    if buf is None or buf.shape != shape:
        buf = work[key] = np.empty(shape)
    return buf


def mlp_value_grad(task: MlpTask, params: dict[str, np.ndarray], work: dict | None = None):
    """Forward pass, MSE loss and exact backpropagated gradients.

    ``work`` is an optional workspace, a dict that keeps the two (n, h)
    arrays of the pass between calls. A caller that passes the same dict on
    every step saves allocating them, and paging them in again, each time;
    one dict must not be shared by concurrent calls. Without it the arrays
    are fresh. The returned gradients never alias the workspace.
    """
    i, h, o = task.widths
    w1 = np.asarray(params["w1"], dtype=np.float64)
    w2 = np.asarray(params["w2"], dtype=np.float64)
    if w1.shape != (h, i) or w2.shape != (o, h):
        raise ValueError(f"param shapes {w1.shape}/{w2.shape} do not match widths {task.widths}")
    x = task.dataset.features
    y = task.dataset.labels
    n = x.shape[0]
    if work is None:
        work = {}
    hidden = np.matmul(x, w1.T, out=_scratch(work, "mlp_hidden", (n, h)))
    np.tanh(hidden, out=hidden)
    pred = hidden @ w2.T                  # (n, o)
    resid = pred - y
    loss = float(np.mean(resid * resid))
    # d loss / d pred
    r = resid * (2.0 / (n * o))
    g_w2 = r.T @ hidden
    g_hidden = np.matmul(r, w2, out=_scratch(work, "mlp_g_hidden", (n, h)))
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)  # tanh' = 1 - tanh^2
    g_hidden *= hidden
    g_w1 = g_hidden.T @ x
    return loss, {"w1": g_w1, "w2": g_w2}


def value_grad(task, x, work: dict | None = None):
    """Exact loss and per-layer gradients; ``work`` is the MLP's optional
    workspace (see :func:`mlp_value_grad`), which the quadratic ignores."""
    if isinstance(task, QuadraticTask):
        return quadratic_value_grad(task, x)
    if isinstance(task, MlpTask):
        return mlp_value_grad(task, x, work)
    raise TypeError(f"unsupported task type {type(task).__name__}")


def sample_dual_noise(group: Group, shape, sigma_lo: float, sigma_hi: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Noise element whose dual norm is uniform on [sigma_lo, sigma_hi].

    Entries are drawn i.i.d. standard normal and rescaled so the dual norm
    equals the drawn radius exactly (a zero draw is resampled). A zero upper
    radius returns the exact zero element without consuming the stream.
    """
    if sigma_lo < 0 or sigma_lo > sigma_hi:
        raise ValueError(f"need 0 <= sigma_lo <= sigma_hi, got ({sigma_lo}, {sigma_hi})")
    if sigma_hi == 0.0:
        return np.zeros(shape)
    # rng.uniform(lo, hi) is lo + (hi - lo) * u on the same double u, so this
    # draws the same bits from the same stream position, without the wrapper;
    # like uniform, it rejects a span that is not finite.
    span = sigma_hi - sigma_lo
    if not math.isfinite(span):
        raise OverflowError(f"noise radii ({sigma_lo}, {sigma_hi}) span no finite range")
    radius = sigma_lo + span * rng.random()
    while True:
        sample = rng.standard_normal(shape)
        nrm = dual_norm(group, sample)
        if nrm > 0.0:
            break
    if radius == 0.0:
        return np.zeros(shape)
    return sample * (radius / nrm)


def perturb_gradients(layers, exact_grads, noise: NoiseProfile,
                      rngs: dict[str, np.random.Generator], twin: bool = False):
    """Add sign-symmetrized dual-norm noise to exact gradients.

    With ``twin=True`` two independently perturbed copies are returned, both
    evaluated at the same point. Each layer's draws come from its own stream,
    in the order noise sample, sign; then the twin's noise sample, sign.
    """
    outs = [dict() for _ in range(2 if twin else 1)]
    for spec in layers:
        lo, hi = noise.radii[spec.name]
        rng = rngs[spec.name]
        shape = tuple(spec.shape)
        g = np.asarray(exact_grads[spec.name], dtype=np.float64)
        for out in outs:
            e = sample_dual_noise(spec.group, shape, lo, hi, rng)
            # random() < 0.5 reads the double that uniform() would; g - e is
            # g + (-e) to the bit, as negation is exact.
            out[spec.name] = g - e if hi > 0.0 and rng.random() < 0.5 else g + e
    return (outs[0], outs[1]) if twin else outs[0]


def gen_dataset(widths, n_samples: int, label_noise: float, seed: int) -> Dataset:
    """Synthetic regression data from a seeded tanh teacher network with the
    MLP's (input, hidden, output) widths. A ``label_noise`` whose noisy
    labels overflow is a ``ConfigError`` at ``label_noise``."""
    i, h, o = widths
    if min(n_samples, i, h, o) < 1:
        raise ValueError("dataset sizes must be >= 1")
    if label_noise < 0:
        raise ValueError("label_noise must be >= 0")
    rng = _stream(seed, _PURPOSE_DATA, 0)
    x = rng.standard_normal((n_samples, i))
    t1 = rng.standard_normal((h, i)) / math.sqrt(i)
    t2 = rng.standard_normal((o, h)) / math.sqrt(h)
    y = np.tanh(x @ t1.T) @ t2.T
    if label_noise > 0.0:
        # An overflow here is the ConfigError below, not a warning on stderr.
        with np.errstate(over="ignore"):
            y = y + label_noise * rng.standard_normal(y.shape)
        if not np.isfinite(y).all():
            raise ConfigError("label_noise", f"{label_noise} overflows the labels")
    return Dataset(features=x, labels=y)


def layered_quadratic(layers, seed: int) -> QuadraticTask:
    """Quadratic over ``(LayerSpec, (sigma_lo, sigma_hi))`` pairs; layer i's
    target is drawn from the seed's i-th target stream (unit norm in mean)."""
    specs = tuple(spec for spec, _ in layers)
    targets = {}
    for i, spec in enumerate(specs):
        a = _stream(seed, _PURPOSE_TARGETS, i).standard_normal(spec.shape)
        targets[spec.name] = a / math.sqrt(a.size)
    return QuadraticTask(specs, targets, NoiseProfile({spec.name: radii for spec, radii in layers}))


def transformer_layers(shape, smoothness: float):
    """``(LayerSpec, (sigma_lo, sigma_hi))`` pairs of the transformer preset:
    hidden layers with the per-role noise radii."""
    return [(LayerSpec(name, tuple(shape), Group.HIDDEN, smoothness), radii)
            for name, radii in sorted(TRANSFORMER_NOISE_RADII.items())]


def heterogeneous_layers(n_layers: int, spread: float, sigma_hi_base: float,
                         lo_frac: float, shape, smoothness: float):
    """``(LayerSpec, (sigma_lo, sigma_hi))`` pairs of the heterogeneous preset:
    hidden layers whose upper noise radii span a `spread` factor."""
    if n_layers < 2:
        raise ValueError("need at least 2 layers")
    layers = []
    for i in range(n_layers):
        hi = sigma_hi_base * spread ** (i / (n_layers - 1))
        layers.append((LayerSpec(f"layer{i}", tuple(shape), Group.HIDDEN, smoothness), (lo_frac * hi, hi)))
    return layers
