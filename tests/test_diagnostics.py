import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagnostics_reference
from lanton import diagnostics
from lanton.diagnostics import (
    BoundParams,
    alpha_ratio_envelope,
    compute_alpha_r,
    default_equivalence_constants,
    h_bounds_check,
    noise_range_estimate,
    tracker_burn_in,
)
from lanton.harness import RunRecord, build_task, columns_of, execute_run, parse_config
from lanton.norms import Group
from lanton.optimizer import LayerStats
from lanton.tasks import NoiseProfile

from spearman import rank_correlation


def _record(step, h_by_layer, ratio_by_layer=None, loss=1.0):
    ratio_by_layer = ratio_by_layer or {k: 1.0 for k in h_by_layer}
    layers = {
        name: LayerStats(eta_eff=1e-3, ratio=ratio_by_layer[name], h=h,
                         dual_grad_norm=0.0)
        for name, h in h_by_layer.items()
    }
    return RunRecord(step=step, loss=loss, layers=layers)


def _columns(records):
    """The columns of records that list the same layers at every step."""
    return columns_of(records, records[0].layers)


def _params(profile, beta2=0.9, c2=1.0, delta=0.05):
    return BoundParams(c1=0.1, c2=c2, delta=delta, beta2=beta2, profile=profile)


class TestRankCorrelation:
    def test_identical(self):
        assert rank_correlation([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_reversed(self):
        assert rank_correlation([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_single_swap(self):
        assert rank_correlation([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_average_rank_ties(self):
        # x ranks: (1.5, 1.5, 3); y ranks: (1, 2, 3); pearson of those is
        # 0.5*sqrt(3)... computed directly here as the frozen expectation
        rho = rank_correlation([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        rx = np.array([1.5, 1.5, 3.0]); ry = np.array([1.0, 2.0, 3.0])
        rx -= rx.mean(); ry -= ry.mean()
        expected = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
        assert rho == pytest.approx(expected, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            rank_correlation([1.0], [1.0])
        with pytest.raises(ValueError):
            rank_correlation([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            rank_correlation([1.0, 1.0], [1.0, 2.0])


class TestHBoundsCheck:
    def test_noiseless_layer_no_violations(self):
        profile = NoiseProfile({"a": (0.0, 0.0)})
        records = [_record(t, {"a": 0.0}) for t in range(50)]
        report = h_bounds_check(_columns(records), _params(profile))
        layer = report["layers"][0]
        assert layer["upper_violations"] == 0
        assert layer["lower_violation_rate"] == 0.0
        assert report["t0"] == pytest.approx(math.log(2) / math.log(1 / 0.9))

    def test_constant_radius_tracker_within_envelope(self):
        # drive a real twin-gradient run with radius pinned to s on all layers
        cfg = parse_config(json.dumps({
            "task": {"kind": "quadratic", "seed": 0, "layers": [
                {"name": "a", "shape": [4, 4], "group": "hidden",
                 "smoothness": 1.0, "sigma_lo": 2.0, "sigma_hi": 2.0},
            ]},
            "optimizer": {"kind": "lanton", "noise_option": "II",
                          "noise_update_interval": 1},
            "seeds": [0], "total_steps": 300, "output_path": "unused"}))
        task = build_task(cfg.task_section)
        records, _ = execute_run(cfg, 0, task=task)
        report = h_bounds_check(_columns(records), _params(task.noise))
        assert report["layers"][0]["upper_violations"] == 0
        for rec in records:
            fill = 1.0 - 0.9 ** (rec.step + 1)
            assert rec.layers["a"].h <= 4.0 * 4.0 * fill * (1.0 + 1e-9)

    def test_upper_violation_detected(self):
        profile = NoiseProfile({"a": (0.0, 1.0)})
        records = [_record(t, {"a": 10.0}) for t in range(20)]
        report = h_bounds_check(_columns(records), _params(profile))
        assert report["layers"][0]["upper_violations"] > 0

    def test_lower_violation_counted_not_fatal(self):
        profile = NoiseProfile({"a": (1.0, 1.0)})
        records = [_record(t, {"a": 1e-6}) for t in range(20)]
        report = h_bounds_check(_columns(records), _params(profile))
        assert report["layers"][0]["upper_violations"] == 0
        assert report["layers"][0]["lower_violation_rate"] == 1.0

    def test_burn_in_skips_early_steps(self):
        profile = NoiseProfile({"a": (1.0, 1.0)})
        records = [_record(t, {"a": 0.0}) for t in range(3)]  # all below t0
        report = h_bounds_check(_columns(records), _params(profile))
        assert report["layers"][0]["steps_checked"] == 0

    def test_missing_layer_in_profile(self):
        records = [_record(0, {"a": 0.0})]
        with pytest.raises(ValueError):
            h_bounds_check(_columns(records), _params(NoiseProfile({"b": (0.0, 1.0)})))

    def test_missing_telemetry(self):
        profile = NoiseProfile({"a": (0.0, 1.0)})
        records = [_record(0, {"a": math.nan})]
        with pytest.raises(ValueError):
            h_bounds_check(_columns(records), _params(profile))

    def test_theory_floor_reported(self):
        profile = NoiseProfile({"a": (0.5, 1.0), "b": (0.0, 0.0)})
        records = [_record(t, {"a": 0.5, "b": 0.0}) for t in range(10)]
        report = h_bounds_check(_columns(records), _params(profile))
        by_name = {l["layer"]: l for l in report["layers"]}
        assert by_name["a"]["beta2_theory_floor"] is not None
        assert 0.99 < by_name["a"]["beta2_theory_floor"] < 1.0
        assert by_name["b"]["beta2_theory_floor"] is None


class TestAlphaRatioEnvelope:
    def test_single_layer_ratio_is_one(self):
        profile = NoiseProfile({"a": (0.5, 1.0)})
        records = [_record(t, {"a": 0.3}) for t in range(10)]
        report = alpha_ratio_envelope(_columns(records), _params(profile), alpha=0.05)
        assert report["min_ratio"] == 1.0
        assert report["max_ratio"] == 1.0
        assert report["frac_below_alpha_r"] == 0.0

    def test_alpha_r_formula(self):
        profile = NoiseProfile({"a": (0.5, 1.0), "b": (0.1, 0.2)})
        params = _params(profile, c2=4.0)
        # kappa = 2, sigma_hi_max = 1
        expected = min(0.05 / math.sqrt(0.05 ** 2 + 4.0), 1.0 / (2.0 * 2.0 * 2.0))
        assert compute_alpha_r(0.05, params) == pytest.approx(expected, rel=1e-12)

    def test_zero_lower_radius_degenerates(self):
        profile = NoiseProfile({"a": (0.0, 1.0)})
        assert compute_alpha_r(0.05, _params(profile)) == 0.0

    def test_noiseless_convention(self):
        profile = NoiseProfile({"a": (0.0, 0.0)})
        # kappa = 1 by the zero-over-zero convention
        expected = min(1.0, 0.5)
        assert compute_alpha_r(10.0, _params(profile)) == pytest.approx(expected)

    def test_ratio_above_one_rejected(self):
        profile = NoiseProfile({"a": (0.0, 1.0)})
        records = [_record(0, {"a": 0.0}, ratio_by_layer={"a": 1.5})]
        with pytest.raises(ValueError):
            alpha_ratio_envelope(_columns(records), _params(profile), alpha=0.05)

    def test_fraction_below(self):
        profile = NoiseProfile({"a": (1.0, 1.0)})
        params = _params(profile)
        alpha_r = compute_alpha_r(0.05, params)
        records = [
            _record(0, {"a": 0.0}, ratio_by_layer={"a": alpha_r / 2.0}),
            _record(1, {"a": 0.0}, ratio_by_layer={"a": 1.0}),
        ]
        report = alpha_ratio_envelope(_columns(records), params, alpha=0.05)
        assert report["frac_below_alpha_r"] == pytest.approx(0.5)


class TestNoiseRangeEstimate:
    def test_frozen_noiseless_deltas_are_zero(self):
        records = [_record(t, {"a": 0.0}) for t in range(10)]
        report = noise_range_estimate(_columns(records), beta2=0.9)
        assert report["layers"][0] == {"layer": "a", "min": 0.0, "mean": 0.0, "max": 0.0}

    def test_reconstructs_constant_delta(self):
        beta2 = 0.9
        d = 1.7
        h = 0.0
        records = []
        for t in range(50):
            h = beta2 * h + (1.0 - beta2) * d * d
            records.append(_record(t, {"a": h}))
        report = noise_range_estimate(_columns(records), beta2=beta2)
        layer = report["layers"][0]
        assert layer["min"] == pytest.approx(d, rel=1e-9)
        assert layer["max"] == pytest.approx(d, rel=1e-9)

    def test_injected_radius_bounded_by_twice_sigma(self):
        cfg = parse_config(json.dumps({
            "task": {"kind": "quadratic", "seed": 0, "layers": [
                {"name": "a", "shape": [4, 4], "group": "hidden",
                 "smoothness": 1.0, "sigma_lo": 2.0, "sigma_hi": 2.0},
            ]},
            "optimizer": {"kind": "lanton", "noise_option": "II",
                          "noise_update_interval": 1},
            "seeds": [0], "total_steps": 200, "output_path": "unused"}))
        task = build_task(cfg.task_section)
        records, _ = execute_run(cfg, 0, task=task)
        report = noise_range_estimate(_columns(records), beta2=0.9)
        layer = report["layers"][0]
        assert 0.0 < layer["min"]
        assert layer["max"] <= 4.0 * (1.0 + 1e-9)

    def test_window_and_groups(self):
        records = []
        h = {"a": 0.0, "b": 0.0}
        for t in range(30):
            h = {"a": 0.9 * h["a"] + 0.1 * 4.0, "b": 0.9 * h["b"] + 0.1 * 1.0}
            records.append(_record(t, dict(h)))
        report = noise_range_estimate(_columns(records), beta2=0.9,
                                      layer_groups={"a": "hidden", "b": "hidden"})
        assert report["window"] == [0, 30]
        assert report["group_means"]["hidden"] == pytest.approx((2.0 + 1.0) / 2.0, rel=1e-9)

    def test_preset_layer_ordering(self):
        cfg = parse_config(json.dumps({
            "task": {"kind": "quadratic", "preset": "transformer"},
            "optimizer": {"kind": "lanton", "noise_option": "II",
                          "noise_update_interval": 1},
            "seeds": [0], "total_steps": 400, "output_path": "unused"}))
        task = build_task(cfg.task_section)
        records, _ = execute_run(cfg, 0, task=task)
        report = noise_range_estimate(_columns(records), beta2=0.9)
        means = {l["layer"]: l["mean"] for l in report["layers"]}
        assert means["vo"] > means["mlp"] > means["qk"]


class TestBoundParams:
    def test_validation(self):
        profile = NoiseProfile({"a": (0.0, 1.0)})
        with pytest.raises(ValueError):
            BoundParams(c1=0.0, c2=1.0, delta=0.05, beta2=0.9, profile=profile)
        with pytest.raises(ValueError):
            BoundParams(c1=2.0, c2=1.0, delta=0.05, beta2=0.9, profile=profile)
        with pytest.raises(ValueError):
            BoundParams(c1=0.5, c2=0.9, delta=0.05, beta2=0.9, profile=profile)
        with pytest.raises(ValueError):
            BoundParams(c1=0.5, c2=1.0, delta=1.5, beta2=0.9, profile=profile)

    def test_default_constants(self):
        c1, c2 = default_equivalence_constants(Group.HIDDEN, (8, 8))
        assert c2 == 1.0
        assert c1 == pytest.approx(1.0 / math.sqrt(8.0))
        c1, c2 = default_equivalence_constants(Group.HIDDEN, (4, 16))
        assert c2 == pytest.approx(2.0)  # sqrt(d_in/d_out)
        c1, c2 = default_equivalence_constants(Group.EMBEDDING_HEAD, (4, 9))
        assert c2 == 9.0
        assert c1 == pytest.approx(9.0 / math.sqrt(36.0))
        c1, c2 = default_equivalence_constants(Group.VECTOR_NORM, (16,))
        assert c2 == 1.0  # clamped from 1/sqrt(d)
        assert c1 == pytest.approx(0.25)


def test_tracker_burn_in():
    assert tracker_burn_in(0.9) == pytest.approx(math.log(2) / math.log(1 / 0.9))
    assert tracker_burn_in(0.0) == 0.0


# Streams with two bad rows: each check must name the row it meets first in
# its own order. h_bounds_check walks one layer at a time; the other two walk
# one step at a time.
def _stream_with(bad):
    """Six steps of layers a, b, c with a unit ratio and H = 0; ``bad`` maps
    (layer, step) to the ratio and H of that row."""
    records = []
    for t in range(6):
        layers = {}
        for name in ("a", "b", "c"):
            ratio, h = bad.get((name, t), (1.0, 0.0))
            layers[name] = LayerStats(eta_eff=1e-3, ratio=ratio, h=h, dual_grad_norm=0.0)
        records.append(RunRecord(step=t, loss=1.0, layers=layers))
    return records


_NAN_H = (1.0, math.nan)
_TWO_BAD_ROWS = [
    pytest.param(h_bounds_check, {("b", 1): _NAN_H, ("a", 4): _NAN_H},
                 ValueError, "layer a: missing tracker telemetry at step 4", id="h_bounds_layer_first"),
    pytest.param(h_bounds_check, {("b", 4): _NAN_H, ("b", 2): _NAN_H},
                 ValueError, "layer b: missing tracker telemetry at step 2", id="h_bounds_same_layer"),
    pytest.param(h_bounds_check, {("c", 5): _NAN_H},
                 ValueError, "layer c: missing tracker telemetry at step 5", id="h_bounds_last_row"),
    pytest.param(noise_range_estimate, {("b", 1): _NAN_H, ("a", 4): _NAN_H},
                 ValueError, "layer b: missing tracker telemetry at step 1", id="noise_range_step_first"),
    pytest.param(noise_range_estimate, {("c", 2): _NAN_H, ("a", 2): _NAN_H},
                 ValueError, "layer a: missing tracker telemetry at step 2", id="noise_range_same_step"),
    pytest.param(noise_range_estimate, {("c", 5): _NAN_H},
                 ValueError, "layer c: missing tracker telemetry at step 5", id="noise_range_last_row"),
    pytest.param(alpha_ratio_envelope, {("b", 1): (1.5, 0.0), ("a", 4): (math.nan, 0.0)},
                 ValueError, "layer b: ratio 1.5 > 1 at step 1", id="ratio_step_first"),
    pytest.param(alpha_ratio_envelope, {("c", 2): (math.nan, 0.0), ("b", 2): (2.0, 0.0)},
                 ValueError, "layer b: ratio 2.0 > 1 at step 2", id="ratio_same_step_above_one"),
    pytest.param(alpha_ratio_envelope, {("b", 3): (math.nan, 0.0), ("c", 3): (1.5, 0.0)},
                 ValueError, "layer b: missing ratio telemetry at step 3", id="ratio_same_step_nan"),
]


@pytest.mark.parametrize("check,bad,error,message", _TWO_BAD_ROWS)
def test_first_bad_row_named(check, bad, error, message):
    profile = NoiseProfile({name: (0.0, 1.0) for name in ("a", "b", "c")})
    run = {
        h_bounds_check: lambda columns: h_bounds_check(columns, _params(profile)),
        noise_range_estimate: lambda columns: noise_range_estimate(columns, beta2=0.9),
        alpha_ratio_envelope: lambda columns: alpha_ratio_envelope(columns, _params(profile), alpha=0.05),
    }[check]
    with pytest.raises(error) as info:
        run(_columns(_stream_with(bad)))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The three diagnostics against their record-walk reference


_INF = math.inf
_H = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, _INF]), st.floats(0.0, 50.0))
_RATIO = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([1.0, 0.0, -0.0]))
_ODD = st.sampled_from(["nan_h", "nan_ratio", "ratio_above_one"])


@st.composite
def _streams(draw):
    """A record stream as a run writes it, steps 0 to n-1 each listing every
    layer in order, bent now and then: NaN values, ratios past 1 and runs of
    inf in H."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    n_steps = draw(st.integers(1, 60))
    bent = draw(st.sampled_from([0, 0, 3, 15]))  # percent of steps bent
    columns = {name: [draw(_H) for _ in range(n_steps)] for name in names}
    for name in names:
        if draw(st.booleans()):  # a run of inf, which inf - beta2 * inf turns into NaN
            start = draw(st.integers(0, n_steps - 1))
            for t in range(start, min(start + draw(st.integers(1, 4)), n_steps)):
                columns[name][t] = _INF
    records = []
    for t in range(n_steps):
        ratios = [draw(_RATIO) for _ in names]
        ratios[draw(st.integers(0, len(names) - 1))] = 1.0
        rows = {name: [1e-3, ratio, columns[name][t], 0.5] for name, ratio in zip(names, ratios)}
        odd = draw(_ODD) if draw(st.integers(0, 99)) < bent else None
        pick = draw(st.sampled_from(names))
        if odd == "nan_h":
            rows[pick][2] = math.nan
        elif odd == "nan_ratio":
            rows[pick][1] = math.nan
        elif odd == "ratio_above_one":
            rows[pick][1] = draw(st.sampled_from([1.5, 1.0000000000000002, _INF]))
        records.append(RunRecord(step=t, loss=1.0,
                                 layers={k: LayerStats(*v) for k, v in rows.items()}))
    return names, records


def _outcome(call):
    """The report's bytes, or the type and message of what the call raised."""
    try:
        return json.dumps(call(), sort_keys=True)
    except Exception as exc:  # the exception is the outcome
        return type(exc).__name__, str(exc)


@settings(max_examples=150)
@given(_streams(), st.data())
def test_diagnostics_match_the_record_walk(stream, data):
    names, records = stream
    radii = {name: tuple(sorted(data.draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2))))
             for name in names}
    params = BoundParams(c1=0.1, c2=data.draw(st.sampled_from([1.0, 2.0, 9.0])),
                         delta=0.05, beta2=data.draw(st.sampled_from([0.0, 0.5, 0.9, 0.999])),
                         profile=NoiseProfile(radii))
    alpha = data.draw(st.sampled_from([0.05, 1.0, 1e3]))
    groups = data.draw(st.one_of(st.none(), st.fixed_dictionaries(
        {name: st.sampled_from(["hidden", "vector_norm"]) for name in names})))
    columns = columns_of(records, names)
    for check in (
        lambda m, stream: m.h_bounds_check(stream, params),
        lambda m, stream: m.alpha_ratio_envelope(stream, params, alpha, layer_groups=groups),
        lambda m, stream: m.noise_range_estimate(stream, params.beta2, layer_groups=groups),
    ):
        assert (_outcome(lambda: check(diagnostics, columns))
                == _outcome(lambda: check(diagnostics_reference, records)))
