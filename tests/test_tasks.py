import json
import math
import sys

import numpy as np
import pytest

from lanton.diagnostics import default_equivalence_constants
from lanton.harness import build_task, parse_config
from lanton.norms import Group, dual_norm
from lanton.optimizer import LayerSpec
from lanton.tasks import (
    Dataset,
    MlpTask,
    QuadraticTask,
    gen_dataset,
    mlp_layers,
    mlp_value_grad,
    noise_streams,
    perturb_gradients,
    quadratic_value_grad,
    sample_dual_noise,
    value_grad,
)


_NOISELESS = {"w1": (0.0, 0.0), "w2": (0.0, 0.0)}


def _quad_task(shapes, smoothness=1.0, seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    targets = {}
    for i, (name, group, shape) in enumerate(shapes):
        layers.append(LayerSpec(name, shape, group, smoothness=smoothness))
        targets[name] = rng.standard_normal(shape)
    return QuadraticTask(tuple(layers), targets)


def _preset_task(**section):
    """The quadratic preset task the config parser builds from ``section``."""
    cfg = parse_config(json.dumps({"task": {"kind": "quadratic", **section}, "optimizer": {}}))
    return build_task(cfg.task_section)


def _central_diff(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


class TestQuadratic:
    def test_minimum(self):
        task = _quad_task([("a", Group.HIDDEN, (3, 3)), ("v", Group.VECTOR_NORM, (4,))])
        loss, grads = quadratic_value_grad(task, dict(task.targets))
        assert loss == 0.0
        for g in grads.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_single_layer_example(self):
        layers = (LayerSpec("a", (2, 2), Group.HIDDEN, smoothness=2.0),)
        targets = {"a": np.zeros((2, 2))}
        task = QuadraticTask(layers, targets)
        x = {"a": np.array([[1.0, 0.0], [0.0, 0.0]])}
        loss, grads = quadratic_value_grad(task, x)
        assert loss == pytest.approx(1.0)
        assert np.array_equal(grads["a"], np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_gradient_matches_finite_differences(self):
        task = _quad_task([("a", Group.HIDDEN, (3, 2))], smoothness=1.7, seed=5)
        rng = np.random.default_rng(6)
        x = {"a": rng.standard_normal((3, 2))}
        _, grads = quadratic_value_grad(task, x)
        fd = _central_diff(lambda xa: quadratic_value_grad(task, {"a": xa})[0], x["a"])
        assert np.allclose(fd, grads["a"], rtol=1e-7, atol=1e-10)

    def test_shape_mismatch(self):
        task = _quad_task([("a", Group.HIDDEN, (3, 2))])
        with pytest.raises(ValueError):
            quadratic_value_grad(task, {"a": np.zeros((2, 3))})

    def test_smoothness_constant_in_dual_norm(self):
        # gradient map is linear, so the layer obeys its curvature bound with
        # the group's frobenius-to-dual equivalence constant
        task = _quad_task([("a", Group.HIDDEN, (4, 4))], smoothness=2.5, seed=7)
        c1, _ = default_equivalence_constants(Group.HIDDEN, (4, 4))
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal((4, 4))
            y = rng.standard_normal((4, 4))
            _, gx = quadratic_value_grad(task, {"a": x})
            _, gy = quadratic_value_grad(task, {"a": y})
            lhs = dual_norm(Group.HIDDEN, gx["a"] - gy["a"])
            assert lhs <= 2.5 * np.linalg.norm(x - y) / c1 * (1.0 + 1e-12)


class TestSampleDualNoise:
    @pytest.mark.parametrize("group", list(Group))
    def test_zero_radii(self, group):
        shape = (5,) if group is Group.VECTOR_NORM else (3, 4)
        rng = np.random.default_rng(0)
        out = sample_dual_noise(LayerSpec("l", shape, group, None, 0.0, 0.0), rng)
        assert np.array_equal(out, np.zeros(shape))

    @pytest.mark.parametrize("group", list(Group))
    def test_exact_radius(self, group):
        shape = (5,) if group is Group.VECTOR_NORM else (3, 4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = sample_dual_noise(LayerSpec("l", shape, group, None, 2.0, 2.0), rng)
            assert dual_norm(group, out) == pytest.approx(2.0, rel=1e-12)

    def test_radius_uniform_on_interval(self):
        # Kolmogorov-Smirnov against U[1,3] at the 1% level
        rng = np.random.default_rng(2)
        n = 10_000
        radii = np.array([
            dual_norm(Group.VECTOR_NORM, sample_dual_noise(LayerSpec("l", (6,), Group.VECTOR_NORM, None, 1.0, 3.0), rng))
            for _ in range(n)
        ])
        assert radii.min() >= 1.0 - 1e-12
        assert radii.max() <= 3.0 + 1e-12
        xs = np.sort(radii)
        cdf = (xs - 1.0) / 2.0
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max())
        assert ks <= 1.628 / math.sqrt(n)

    def test_invalid_radii(self):
        # The sampler reads its radii from the LayerSpec, which refuses
        # reversed, negative and non-finite radii before any draw is made.
        for radii, message in (
            ((2.0, 1.0), "layer a: need 0 <= sigma_lo <= sigma_hi, got (2.0, 1.0)"),
            ((-1.0, 1.0), "layer a: need 0 <= sigma_lo <= sigma_hi, got (-1.0, 1.0)"),
            ((0.0, math.inf), "layer a: noise radii must be finite"),
            ((math.nan, 1.0), "layer a: noise radii must be finite"),
            ((0.0, math.nan), "layer a: noise radii must be finite"),
            ((1.0, math.inf), "layer a: noise radii must be finite"),
            ((math.inf, math.inf), "layer a: noise radii must be finite"),
        ):
            with pytest.raises(ValueError) as info:
                LayerSpec("a", (4,), Group.VECTOR_NORM, None, *radii)
            assert str(info.value) == message


class TestStochasticGrad:
    def test_zero_radii_exact(self):
        task = _quad_task([("a", Group.HIDDEN, (3, 3))])
        rngs = noise_streams(0, task.layers)
        x = {"a": np.ones((3, 3))}
        _, exact = quadratic_value_grad(task, x)
        noisy = perturb_gradients(task.layers, exact, rngs)
        assert np.array_equal(noisy["a"], exact["a"])

    def test_twin_identical_when_noiseless(self):
        task = _quad_task([("a", Group.HIDDEN, (3, 3))])
        rngs = noise_streams(0, task.layers)
        _, exact = quadratic_value_grad(task, {"a": np.ones((3, 3))})
        g, tw = perturb_gradients(task.layers, exact, rngs, twin=True)
        assert np.array_equal(g["a"], tw["a"])

    def test_twin_noise_independent(self):
        task = _preset_task(preset="transformer")
        rngs = noise_streams(0, task.layers)
        _, exact = quadratic_value_grad(task, task.initial_params())
        g, tw = perturb_gradients(task.layers, exact, rngs, twin=True)
        for name in g:
            assert not np.array_equal(g[name], tw[name])

    def test_unbiased_monte_carlo(self):
        # per-entry bias within 3 standard errors over 1e5 draws
        spec = LayerSpec("e", (3, 4), Group.EMBEDDING_HEAD, sigma_lo=0.5, sigma_hi=1.5)
        rng = np.random.default_rng(42)
        rngs = {"e": rng}
        exact = {"e": np.zeros((3, 4))}
        n = 100_000
        acc = np.zeros((3, 4))
        acc_sq = np.zeros((3, 4))
        for _ in range(n):
            g = perturb_gradients([spec], exact, rngs)["e"]
            acc += g
            acc_sq += g * g
        mean = acc / n
        std = np.sqrt(np.maximum(acc_sq / n - mean ** 2, 0.0))
        assert np.all(np.abs(mean) <= 3.0 * std / math.sqrt(n))


class TestMlp:
    def _task(self, widths=(2, 2, 1), n=16, seed=0, label_noise=0.0):
        ds = gen_dataset(widths, n, label_noise, seed)
        return MlpTask(mlp_layers(widths, _NOISELESS), dataset=ds, seed=seed)

    def test_zero_weights_zero_targets(self):
        ds = Dataset(features=np.ones((4, 2)), labels=np.zeros((4, 1)))
        task = MlpTask(mlp_layers((2, 2, 1), _NOISELESS), dataset=ds)
        params = {"w1": np.zeros((2, 2)), "w2": np.zeros((1, 2))}
        loss, grads = mlp_value_grad(task, params)
        assert loss == 0.0
        assert np.array_equal(grads["w1"], np.zeros((2, 2)))
        assert np.array_equal(grads["w2"], np.zeros((1, 2)))

    def test_gradients_match_finite_differences(self):
        task = self._task()
        params = task.initial_params()
        _, grads = mlp_value_grad(task, params)
        for name in ("w1", "w2"):
            def f(w, name=name):
                p = {k: v.copy() for k, v in params.items()}
                p[name] = w
                return mlp_value_grad(task, p)[0]

            fd = _central_diff(f, params[name])
            assert np.allclose(fd, grads[name], rtol=1e-5, atol=1e-8)

    def test_dataset_duplication_invariance(self):
        task = self._task(n=8)
        ds = task.dataset
        doubled = Dataset(features=np.vstack([ds.features, ds.features]),
                          labels=np.vstack([ds.labels, ds.labels]))
        task2 = MlpTask(task.layers, dataset=doubled, seed=task.seed)
        params = task.initial_params()
        l1, g1 = mlp_value_grad(task, params)
        l2, g2 = mlp_value_grad(task2, params)
        assert l1 == pytest.approx(l2, rel=1e-14)
        for name in g1:
            assert np.allclose(g1[name], g2[name], rtol=1e-13, atol=1e-16)

    def test_param_shape_check(self):
        task = self._task()
        with pytest.raises(ValueError):
            mlp_value_grad(task, {"w1": np.zeros((3, 2)), "w2": np.zeros((1, 2))})

    def test_reused_workspace_matches_fresh_calls(self):
        task = self._task(widths=(5, 12, 3), n=40)
        rng = np.random.default_rng(11)
        work = {}
        kept = []
        for _ in range(8):
            params = {k: rng.standard_normal(v.shape) for k, v in task.initial_params().items()}
            loss, grads = value_grad(task, params, work)
            fresh_loss, fresh = mlp_value_grad(task, params)
            assert loss == fresh_loss
            for name, g in grads.items():
                assert np.array_equal(g, fresh[name])
                assert not any(np.shares_memory(g, buf) for buf in work.values())
            kept.append((grads, fresh))
        buffers = {k: id(v) for k, v in work.items()}
        assert len(buffers) == 2
        # Later calls leave earlier results alone and keep the same arrays.
        value_grad(task, task.initial_params(), work)
        assert {k: id(v) for k, v in work.items()} == buffers
        for grads, fresh in kept:
            assert all(np.array_equal(grads[k], fresh[k]) for k in fresh)

    def test_workspace_follows_sample_count(self):
        small, large = self._task(n=8), self._task(n=24)
        work = {}
        for task in (small, large, small):
            params = task.initial_params()
            loss, grads = mlp_value_grad(task, params, work)
            fresh_loss, fresh = mlp_value_grad(task, params)
            assert loss == fresh_loss
            assert all(np.array_equal(grads[k], fresh[k]) for k in fresh)

    def test_quadratic_ignores_workspace(self):
        task = _preset_task(preset="transformer")
        work = {}
        x = {spec.name: np.ones(spec.shape) for spec in task.layers}
        loss, _ = value_grad(task, x, work)
        assert work == {}
        assert loss == quadratic_value_grad(task, x)[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_reused_workspace_takes_no_page_faults(self):
        # The benchmark's MLP size: each (n, h) array is 1 MB, which a fresh
        # allocation pages in again (about 480 faults a call without reuse).
        import resource

        task = self._task(widths=(32, 128, 8), n=1024)
        params = task.initial_params()
        work = {}
        value_grad(task, params, work)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            value_grad(task, params, work)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 64 * 20


class TestGenDataset:
    def test_same_seed_identical(self):
        d1 = gen_dataset((3, 5, 2), 32, 0.1, 7)
        d2 = gen_dataset((3, 5, 2), 32, 0.1, 7)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)

    def test_seed_changes_data(self):
        assert not np.array_equal(gen_dataset((3, 5, 2), 32, 0.0, 1).features,
                                  gen_dataset((3, 5, 2), 32, 0.0, 2).features)

    @pytest.mark.parametrize("widths,n,label_noise,message", [
        ((3, 0, 2), 4, 0.0, "dataset sizes must be >= 1"),
        ((3, 5, 2), 0, 0.0, "dataset sizes must be >= 1"),
        ((3, 5, 2), 4, -0.1, "label_noise must be >= 0"),
        ((3, 5, 2), 64, 1e308, r"^label_noise: 1e\+308 overflows the labels$"),
    ])
    def test_bad_sizes_and_label_noise_raise(self, widths, n, label_noise, message):
        with pytest.raises(ValueError, match=message):
            gen_dataset(widths, n, label_noise, 0)

    def test_zero_label_noise_labels_are_teacher_outputs(self):
        # replay the generator stream: features, then the two teacher weights
        ds = gen_dataset((3, 4, 2), 16, 0.0, 9)
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=9, spawn_key=(4, 0))))
        x = g.standard_normal((16, 3))
        t1 = g.standard_normal((4, 3)) / math.sqrt(3)
        t2 = g.standard_normal((2, 4)) / math.sqrt(4)
        assert np.array_equal(ds.features, x)
        assert np.array_equal(ds.labels, np.tanh(x @ t1.T) @ t2.T)


class TestPresets:
    # The config parser holds the presets' defaults: 8x8 hidden layers of
    # smoothness 1; six heterogeneous layers whose upper radii go from 0.003
    # up a factor of 100, each with a lower radius a third of its upper.

    def test_transformer_preset_layers(self):
        task = _preset_task(preset="transformer")
        assert {l.name for l in task.layers} == {"qk", "vo", "mlp"}
        radii = {l.name: (l.sigma_lo, l.sigma_hi) for l in task.layers}
        assert radii["qk"] == (0.003, 0.026)
        assert radii["vo"] == (0.009, 0.117)
        assert radii["mlp"] == (0.018, 0.107)
        assert all(l.group is Group.HIDDEN for l in task.layers)
        assert all(l.shape == (8, 8) and l.smoothness == 1.0 for l in task.layers)

    def test_heterogeneous_spread(self):
        task = _preset_task(preset="heterogeneous")
        assert len(task.layers) == 6
        assert all(l.shape == (8, 8) and l.smoothness == 1.0 for l in task.layers)
        his = [l.sigma_hi for l in task.layers]
        assert his[0] == 0.003
        assert his[-1] / his[0] == pytest.approx(100.0, rel=1e-12)
        assert all(b > a for a, b in zip(his, his[1:]))
        assert all(l.sigma_lo == (1.0 / 3.0) * hi for l, hi in zip(task.layers, his))

    def test_targets_deterministic(self):
        t1 = _preset_task(preset="transformer", seed=4)
        t2 = _preset_task(preset="transformer", seed=4)
        for name in t1.targets:
            assert np.array_equal(t1.targets[name], t2.targets[name])


def test_noise_profile_validation():
    # A task's noise profile, the (sigma_lo, sigma_hi) of each layer, is
    # checked as its LayerSpecs are built, and the error names the layer.
    for radii in ((2.0, 1.0), (-1.0, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="^layer w2: "):
            mlp_layers((2, 3, 1), {"w1": (0.0, 0.0), "w2": radii})


@pytest.mark.parametrize("layers", [
    mlp_layers((2, 3, 1), _NOISELESS)[:1],
    mlp_layers((2, 3, 1), _NOISELESS)[::-1],
    mlp_layers((2, 3, 1), _NOISELESS) + mlp_layers((2, 3, 1), _NOISELESS)[1:],
    (mlp_layers((2, 3, 1), _NOISELESS)[0], mlp_layers((2, 4, 1), _NOISELESS)[1]),
    (mlp_layers((2, 3, 1), _NOISELESS)[0], LayerSpec("w2", (1, 3), Group.EMBEDDING_HEAD)),
    (mlp_layers((2, 3, 1), _NOISELESS)[0], LayerSpec("w2", (3,), Group.VECTOR_NORM)),
    (LayerSpec("v1", (3, 2), Group.HIDDEN), mlp_layers((2, 3, 1), _NOISELESS)[1]),
    (mlp_layers((2, 3, 1), _NOISELESS)[0], LayerSpec("w2", (1, 3), Group.HIDDEN, smoothness=1.0)),
])
def test_mlp_task_takes_only_mlp_layers(layers):
    # The layers must be mlp_layers of one set of widths: two hidden layers
    # named w1 and w2, in that order, whose hidden widths agree.
    ds = Dataset(features=np.ones((4, 2)), labels=np.zeros((4, 1)))
    with pytest.raises(ValueError, match="^layers are not the mlp_layers of one set of widths$"):
        MlpTask(tuple(layers), dataset=ds)
    noisy = mlp_layers((2, 3, 1), {"w1": (0.1, 0.2), "w2": (0.0, 0.3)})
    assert MlpTask(noisy, dataset=ds).widths == (2, 3, 1)
