import math

import numpy as np
import pytest

from lanton.checks import ConfigError
from lanton.norms import Group, dual_norm
from lanton.optimizer import (
    GradientError,
    LantonConfig,
    LayerSpec,
    alpha_and_ratio,
    baseline_step,
    cosine_schedule_lr,
    init_state,
    lanton_step,
    needs_twins,
    update_noise_tracker,
)


def _cfg(**kw):
    base = dict(total_steps=1000, eta_max=5e-3, eta_min=5e-4)
    base.update(kw)
    return LantonConfig(**base)


def _hidden_layers(n=2, shape=(3, 3)):
    return [LayerSpec(f"l{i}", shape, Group.HIDDEN, smoothness=1.0) for i in range(n)]


def _snapshot(state):
    copy = lambda d: {k: None if v is None else v.copy() for k, v in d.items()}
    return state.t, dict(state.h), copy(state.momentum), copy(state.prev_grad)


def _assert_unchanged(state, before):
    """The step counter, trackers, momenta and previous gradients equal a snapshot."""
    assert (state.t, state.h) == before[:2]
    for now, then in ((state.momentum, before[2]), (state.prev_grad, before[3])):
        assert set(now) == set(then)
        for k, v in then.items():
            assert (v is None and now[k] is None) or np.array_equal(now[k], v)


class TestCosineSchedule:
    def test_warmup_end_is_eta_max(self):
        cfg = _cfg(total_steps=1300, warmup_steps=300)
        assert cosine_schedule_lr(300, cfg) == pytest.approx(5e-3, rel=1e-15)

    def test_final_step_is_eta_min(self):
        cfg = _cfg(total_steps=1300, warmup_steps=300)
        assert cosine_schedule_lr(1300, cfg) == pytest.approx(5e-4, rel=1e-12)

    def test_midpoint(self):
        cfg = _cfg(total_steps=1300, warmup_steps=300)
        assert cosine_schedule_lr(800, cfg) == pytest.approx(2.75e-3, rel=1e-12)

    def test_warmup_ramp(self):
        cfg = _cfg(total_steps=1300, warmup_steps=300)
        for s in (0, 1, 150, 299):
            assert cosine_schedule_lr(s, cfg) == pytest.approx(5e-3 * (s + 1) / 300)

    def test_monotone_nonincreasing_after_warmup(self):
        cfg = _cfg(total_steps=500, warmup_steps=50)
        vals = [cosine_schedule_lr(t, cfg) for t in range(50, 501)]
        assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        cfg = _cfg(total_steps=10)
        with pytest.raises(ValueError):
            cosine_schedule_lr(-1, cfg)
        with pytest.raises(ValueError):
            cosine_schedule_lr(11, cfg)


class TestNoiseTracker:
    def test_single_update(self):
        cfg = _cfg(beta2=0.9, noise_update_interval=1)
        state = init_state([LayerSpec("v", (4,), Group.VECTOR_NORM)])
        g1 = np.zeros(4)
        g0 = np.zeros(4)
        g1[0] = 0.5  # dual norm sqrt(4)*0.5 = 1
        h = update_noise_tracker(state, "v", g1, g0, cfg)
        assert h == pytest.approx(0.1, rel=1e-15)

    def test_closed_form_constant_difference(self):
        cfg = _cfg(beta2=0.9, noise_update_interval=1)
        state = init_state([LayerSpec("v", (4,), Group.VECTOR_NORM)])
        g1 = np.zeros(4)
        g1[0] = 1.5
        c = dual_norm(Group.VECTOR_NORM, g1) ** 2
        for k in range(1, 300):
            update_noise_tracker(state, "v", g1, np.zeros(4), cfg)
            state.t += 1
            assert state.h["v"] == pytest.approx(c * (1.0 - 0.9 ** k), rel=1e-12)

    def test_interval_skips(self):
        # The step owns the interval: off-interval steps leave H unchanged.
        cfg = _cfg(beta2=0.9, noise_option="II", noise_update_interval=10)
        state = init_state([LayerSpec("v", (4,), Group.VECTOR_NORM)])
        state.t = 7
        lanton_step(state, {"v": np.ones(4)}, cfg, twins={"v": np.zeros(4)})
        assert state.h["v"] == 0.0
        state.t = 10
        lanton_step(state, {"v": np.ones(4)}, cfg, twins={"v": np.zeros(4)})
        assert state.h["v"] > 0.0

    def test_none_other_is_noop(self):
        cfg = _cfg(noise_update_interval=1)
        state = init_state([LayerSpec("v", (4,), Group.VECTOR_NORM)])
        assert update_noise_tracker(state, "v", np.ones(4), None, cfg) == 0.0

    def test_shape_mismatch(self):
        cfg = _cfg(noise_update_interval=1)
        state = init_state([LayerSpec("v", (4,), Group.VECTOR_NORM)])
        with pytest.raises(ValueError):
            update_noise_tracker(state, "v", np.ones(3), np.zeros(3), cfg)


class TestAlphaRatio:
    def test_noiseless_alpha_is_one(self):
        cfg = _cfg(alpha=0.05)
        state = init_state(_hidden_layers(1))
        alphas, ratios = alpha_and_ratio(state, cfg)
        assert alphas["l0"] == pytest.approx(1.0, rel=1e-12)
        assert ratios["l0"] == 1.0

    def test_h_three_alpha_squared_gives_half(self):
        cfg = _cfg(alpha=0.05)
        state = init_state(_hidden_layers(1))
        state.h["l0"] = 3.0 * cfg.alpha ** 2
        alphas, _ = alpha_and_ratio(state, cfg)
        assert alphas["l0"] == pytest.approx(0.5, rel=1e-12)

    def test_group_ratios(self):
        cfg = _cfg(alpha=0.05)
        state = init_state(_hidden_layers(2))
        state.h["l1"] = 3.0 * cfg.alpha ** 2
        _, ratios = alpha_and_ratio(state, cfg)
        assert ratios["l0"] == 1.0
        assert ratios["l1"] == pytest.approx(0.5, rel=1e-12)

    def test_ratio_bounds_and_group_max(self):
        cfg = _cfg(alpha=0.1)
        layers = _hidden_layers(4) + [LayerSpec("v0", (5,), Group.VECTOR_NORM),
                                      LayerSpec("v1", (5,), Group.VECTOR_NORM)]
        state = init_state(layers)
        rng = np.random.default_rng(0)
        for name in state.h:
            state.h[name] = float(rng.uniform(0.0, 0.3))
        _, ratios = alpha_and_ratio(state, cfg)
        assert all(0.0 < r <= 1.0 for r in ratios.values())
        hidden = [ratios[f"l{i}"] for i in range(4)]
        vec = [ratios["v0"], ratios["v1"]]
        assert max(hidden) == 1.0
        assert max(vec) == 1.0


class TestLantonStep:
    def test_first_step_momentum_is_gradient(self):
        cfg = _cfg(beta1=0.95)
        state = init_state(_hidden_layers(1))
        g = np.arange(9.0).reshape(3, 3) + 1.0
        lanton_step(state, {"l0": g}, cfg)
        assert np.array_equal(state.momentum["l0"], g)

    def test_momentum_recursion(self):
        cfg = _cfg(beta1=0.9, noise_update_interval=1, noise_option="I")
        state = init_state(_hidden_layers(1))
        g0 = np.eye(3)
        g1 = np.ones((3, 3))
        lanton_step(state, {"l0": g0}, cfg)
        lanton_step(state, {"l0": g1}, cfg)
        assert np.allclose(state.momentum["l0"], 0.9 * g0 + 0.1 * g1, atol=0)

    def test_noiseless_equals_fixed_rate_baseline(self):
        # identical twins keep H at zero, so every ratio is exactly 1
        cfg = _cfg(noise_option="II", noise_update_interval=1)
        rng = np.random.default_rng(2)
        layers = _hidden_layers(3)
        s1 = init_state(layers)
        s2 = init_state(layers)
        for _ in range(5):
            grads = {l.name: rng.standard_normal(l.shape) for l in layers}
            d1, st1 = lanton_step(s1, grads, cfg, twins=dict(grads))
            d2, st2 = baseline_step("fixed_rate_lmo", s2, grads, cfg)
            for name in d1:
                assert np.array_equal(d1[name], d2[name])
                assert st1[name].ratio == 1.0 and st2[name].ratio == 1.0

    def test_practical_mode_hidden_lr(self):
        # option I skips the tracker on the first step, so the preset H holds
        cfg = _cfg(eta_max=0.1, eta_min=0.1, hidden_scale=0.2, noise_option="I",
                   noise_update_interval=1, oracle_polar=True)
        layers = _hidden_layers(2, shape=(2, 2))
        state = init_state(layers)
        state.h["l1"] = 15.0 * cfg.alpha ** 2  # alpha_l = 1/4 -> ratio 0.25
        grads = {l.name: np.eye(2) for l in layers}
        _, stats = lanton_step(state, grads, cfg, mode="practical")
        assert stats["l1"].eta_eff == pytest.approx(0.2 * 0.1 * math.sqrt(2 * 0.25), rel=1e-9)
        assert stats["l0"].eta_eff == pytest.approx(0.2 * 0.1 * math.sqrt(2.0), rel=1e-9)

    def test_practical_mode_group_scales(self):
        cfg = _cfg(eta_max=0.1, eta_min=0.1, r1=300.0, r2=1.0, noise_option="II",
                   noise_update_interval=1)
        layers = [LayerSpec("e", (2, 2), Group.EMBEDDING_HEAD),
                  LayerSpec("v", (3,), Group.VECTOR_NORM)]
        state = init_state(layers)
        grads = {"e": np.ones((2, 2)), "v": np.ones(3)}
        _, stats = lanton_step(state, grads, cfg, mode="practical", twins=dict(grads))
        assert stats["e"].eta_eff == pytest.approx(300.0 * 0.1, rel=1e-12)
        assert stats["v"].eta_eff == pytest.approx(1.0 * 0.1, rel=1e-12)

    def test_degenerate_momentum_option_two(self):
        # beta1 = 0 makes B the raw gradient; identical twins keep H at 0
        cfg = _cfg(beta1=0.0, noise_option="II", noise_update_interval=1)
        state = init_state(_hidden_layers(2))
        rng = np.random.default_rng(3)
        for _ in range(3):
            grads = {l.name: rng.standard_normal(l.shape) for l in state.layers}
            _, stats = lanton_step(state, grads, cfg, twins=dict(grads))
            for st in stats.values():
                assert st.h == 0.0 and st.ratio == 1.0

    def test_raw_delta_is_eta_times_lmo(self):
        cfg = _cfg(eta_max=0.01, eta_min=0.01, noise_option="II",
                   noise_update_interval=1, oracle_polar=True)
        state = init_state(_hidden_layers(1, shape=(2, 2)))
        g = np.diag([2.0, 0.5])
        deltas, _ = lanton_step(state, {"l0": g}, cfg, twins={"l0": g.copy()})
        # lmo of a positive diagonal is -I; descent step adds it
        assert np.allclose(deltas["l0"], -0.01 * np.eye(2), atol=1e-15)

    def test_nan_gradient_names_layer(self):
        cfg = _cfg()
        state = init_state(_hidden_layers(2))
        grads = {"l0": np.zeros((3, 3)), "l1": np.full((3, 3), np.nan)}
        with pytest.raises(GradientError, match="l1"):
            lanton_step(state, grads, cfg)

    def test_missing_twin_rejected(self):
        cfg = _cfg(noise_option="II", noise_update_interval=1)
        state = init_state(_hidden_layers(1))
        with pytest.raises(ValueError, match="twin"):
            lanton_step(state, {"l0": np.ones((3, 3))}, cfg)

    def test_twin_not_required_off_interval(self):
        cfg = _cfg(noise_option="II", noise_update_interval=5)
        state = init_state(_hidden_layers(1))
        g = {"l0": np.ones((3, 3))}
        lanton_step(state, g, cfg, twins={"l0": np.ones((3, 3))})  # t=0 updates
        lanton_step(state, g, cfg)  # t=1 skips the tracker
        assert state.t == 2

    def test_weight_decay_needs_params(self):
        cfg = _cfg(weight_decay=0.1)
        state = init_state(_hidden_layers(1))
        with pytest.raises(ValueError, match="params"):
            lanton_step(state, {"l0": np.ones((3, 3))}, cfg)

    def test_weight_decay_uses_base_rate(self):
        cfg = _cfg(eta_max=0.01, eta_min=0.01, weight_decay=0.5, noise_option="II",
                   noise_update_interval=1, oracle_polar=True)
        state = init_state(_hidden_layers(1, shape=(2, 2)))
        params = {"l0": np.full((2, 2), 2.0)}
        g = np.diag([1.0, 1.0])
        deltas, _ = lanton_step(state, {"l0": g}, cfg, twins={"l0": g.copy()}, params=params)
        expected = -0.01 * np.eye(2) - 0.01 * 0.5 * params["l0"]
        assert np.allclose(deltas["l0"], expected, atol=1e-15)

    def test_monotone_noise_to_rate(self):
        cfg = _cfg(noise_option="II", noise_update_interval=1)
        state = init_state(_hidden_layers(3))
        state.h["l0"] = 0.0
        state.h["l1"] = 0.01
        state.h["l2"] = 0.2
        g = {l.name: np.eye(3) for l in state.layers}
        state.momentum = {k: np.eye(3) for k in g}
        _, stats = lanton_step(state, g, cfg, twins={k: v.copy() for k, v in g.items()})
        # tracker updates at t=0 shift H, but ordering is preserved
        assert stats["l0"].eta_eff > stats["l1"].eta_eff > stats["l2"].eta_eff

    def test_unknown_mode(self):
        cfg = _cfg(noise_option="II", noise_update_interval=1)
        state = init_state(_hidden_layers(1))
        g = {"l0": np.ones((3, 3))}
        with pytest.raises(ValueError):
            lanton_step(state, g, cfg, mode="turbo", twins=dict(g))

    @pytest.mark.parametrize("kind", ["lanton", "fixed_rate_lmo", "signum", "sgd"])
    def test_unknown_mode_leaves_state_unchanged(self, kind):
        def step(grads, **kw):
            if kind == "lanton":
                return lanton_step(state, grads, cfg, **kw)
            return baseline_step(kind, state, grads, cfg, **kw)

        cfg = _cfg(noise_option="I", noise_update_interval=1)
        state = init_state(_hidden_layers(2))
        step({l.name: np.eye(3) for l in state.layers})
        before = _snapshot(state)
        with pytest.raises(ValueError, match="mode"):
            step({l.name: 2.0 * np.eye(3) for l in state.layers}, mode="bogus")
        _assert_unchanged(state, before)

    @pytest.mark.parametrize("case", ["none", "missing", "extra", "shape", "non_finite"])
    def test_bad_twins_leave_state_unchanged(self, case):
        # The bad twin is the second layer's, so a check made layer by layer
        # inside the tracker loop would already have folded the first's H.
        cfg = _cfg(noise_option="II", noise_update_interval=1)
        state = init_state(_hidden_layers(2))
        grads = {l.name: np.eye(3) for l in state.layers}
        lanton_step(state, grads, cfg, twins={k: 0.5 * v for k, v in grads.items()})
        before = _snapshot(state)
        twins = {k: 0.25 * v for k, v in grads.items()}
        if case == "missing":
            del twins["l1"]
        elif case == "extra":
            twins["l2"] = np.eye(3)
        elif case == "shape":
            twins["l1"] = np.ones((3, 2))
        elif case == "non_finite":
            twins["l1"] = np.full((3, 3), np.inf)
        with pytest.raises(GradientError if case == "non_finite" else ValueError, match="twin"):
            lanton_step(state, {k: 2.0 * v for k, v in grads.items()}, cfg,
                        twins=None if case == "none" else twins)
        _assert_unchanged(state, before)

    def test_gradient_cover_mismatch(self):
        cfg = _cfg()
        state = init_state(_hidden_layers(2))
        with pytest.raises(ValueError):
            lanton_step(state, {"l0": np.ones((3, 3))}, cfg)


class TestBaselines:
    def test_signum_example(self):
        cfg = _cfg(eta_max=0.1, eta_min=0.1, beta1=0.9)
        state = init_state([LayerSpec("e", (2, 2), Group.EMBEDDING_HEAD)])
        b = np.array([[2.0, -3.0], [0.0, 1.0]])
        deltas, stats = baseline_step("signum", state, {"e": b}, cfg)
        assert np.array_equal(deltas["e"], np.array([[-0.1, 0.1], [0.0, -0.1]]))
        assert stats["e"].ratio == 1.0

    def test_signum_uses_momentum(self):
        cfg = _cfg(eta_max=0.1, eta_min=0.1, beta1=0.5)
        state = init_state([LayerSpec("e", (1, 2), Group.EMBEDDING_HEAD)])
        baseline_step("signum", state, {"e": np.array([[1.0, -1.0]])}, cfg)
        # second gradient flips sign but momentum keeps the old direction
        deltas, _ = baseline_step("signum", state, {"e": np.array([[-0.2, 0.2]])}, cfg)
        assert np.array_equal(deltas["e"], np.array([[-0.1, 0.1]]))

    def test_sgd_quadratic_contraction(self):
        cfg = _cfg(eta_max=0.5, eta_min=0.5)
        state = init_state([LayerSpec("x", (1,), Group.VECTOR_NORM)])
        x = np.array([1.0])
        for t in range(5):
            deltas, _ = baseline_step("sgd", state, {"x": x.copy()}, cfg)
            x = x + deltas["x"]
            assert x[0] == pytest.approx(0.5 ** (t + 1), rel=1e-15)

    def test_unknown_kind(self):
        cfg = _cfg()
        state = init_state(_hidden_layers(1))
        with pytest.raises(ValueError):
            baseline_step("adam", state, {"l0": np.ones((3, 3))}, cfg)


def test_effective_lr_bounds_after_warmup():
    # raw-mode rate stays within [eta_min * sqrt(min ratio), eta_max]
    cfg = _cfg(total_steps=60, warmup_steps=10, eta_max=1e-2, eta_min=1e-3,
               noise_option="I", noise_update_interval=1)
    state = init_state(_hidden_layers(3))
    rng = np.random.default_rng(30)
    for t in range(60):
        grads = {l.name: rng.standard_normal(l.shape) for l in state.layers}
        _, stats = lanton_step(state, grads, cfg)
        if t < cfg.warmup_steps:
            continue
        min_ratio = min(st.ratio for st in stats.values())
        for st in stats.values():
            assert cfg.eta_min * math.sqrt(min_ratio) <= st.eta_eff <= cfg.eta_max * (1 + 1e-12)


def test_replay_determinism_of_state():
    cfg = _cfg(noise_option="I", noise_update_interval=2)
    rng = np.random.default_rng(9)
    grads = [{f"l{i}": rng.standard_normal((3, 3)) for i in range(2)} for _ in range(7)]

    def run():
        state = init_state(_hidden_layers(2))
        out = []
        for g in grads:
            deltas, stats = lanton_step(state, {k: v.copy() for k, v in g.items()}, cfg)
            out.append((deltas, stats))
        return state, out

    s1, o1 = run()
    s2, o2 = run()
    assert s1.t == s2.t
    for name in s1.h:
        assert s1.h[name] == s2.h[name]
        assert np.array_equal(s1.momentum[name], s2.momentum[name])
    for (d1, st1), (d2, st2) in zip(o1, o2):
        for name in d1:
            assert np.array_equal(d1[name], d2[name])
            assert st1[name] == st2[name]


def test_alpha_default_follows_beta1():
    assert _cfg(beta1=0.8).alpha == 1.0 - 0.8
    assert _cfg(beta1=0.8, alpha=0.01).alpha == 0.01


def test_needs_twins_only_on_option_two_tracker_steps():
    cfg = _cfg(noise_option="II", noise_update_interval=3)
    assert [needs_twins("lanton", cfg, t) for t in range(4)] == [True, False, False, True]
    assert not any(needs_twins(kind, cfg, 0) for kind in ("fixed_rate_lmo", "signum", "sgd"))
    assert not needs_twins("lanton", _cfg(noise_option="I", noise_update_interval=3), 0)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec("bad", (0, 2), Group.HIDDEN)
    with pytest.raises(ValueError):
        LayerSpec("bad", (2, 2), Group.VECTOR_NORM)
    with pytest.raises(ValueError):
        LayerSpec("bad", (4,), Group.HIDDEN)


# The last is a lone surrogate, which UTF-8 cannot encode.
@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", "a\ud800"])
def test_layer_spec_rejects_csv_unsafe_name(name):
    with pytest.raises(ValueError, match="CSV"):
        LayerSpec(name, (2, 2), Group.HIDDEN)


@pytest.mark.parametrize("name", [3, None, b"ab"])
def test_layer_spec_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(ConfigError) as exc:
        LayerSpec(name, (2, 2), Group.HIDDEN)
    assert (exc.value.field, exc.value.message) == ("name", f"expected a string, got {name!r}")


def test_config_validation():
    with pytest.raises(ConfigError) as exc:
        _cfg(beta2=1.0)
    assert exc.value.field == "beta2"
    with pytest.raises(ConfigError) as exc:
        _cfg(oracle_polar=1)
    assert exc.value.field == "oracle_polar"
    with pytest.raises(ValueError):
        _cfg(eta_min=1.0, eta_max=0.5)
    with pytest.raises(ValueError):
        _cfg(noise_option="III")
    with pytest.raises(ValueError):
        _cfg(warmup_steps=1000, total_steps=1000)
