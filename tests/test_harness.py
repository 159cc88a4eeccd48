import json
import math
import os
import sys
from dataclasses import fields

import numpy as np
import pytest

from lanton import harness
from lanton.harness import (
    CSV_HEADER,
    ConfigError,
    RunRecord,
    TelemetryFlags,
    build_task,
    canonical_config,
    compare_runs,
    emit_metrics,
    execute_run,
    parse_config,
    read_metrics,
    read_run_config,
    read_seeds,
    run_experiment,
    steps_to_threshold,
    task_layers,
    task_signature,
)
from lanton.optimizer import OPTIONS, LayerStats


def _stub_config(**overrides):
    raw = {
        "task": {"kind": "quadratic", "preset": "transformer"},
        "optimizer": {},
    }
    raw.update(overrides)
    return raw


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(json.dumps(_stub_config()))
        assert cfg.lanton.beta1 == 0.95
        assert cfg.lanton.beta2 == 0.9
        assert cfg.lanton.r1 == 300.0
        assert cfg.lanton.r2 == 1.0
        assert cfg.lanton.eta_max == 5e-3
        assert cfg.lanton.eta_min == 5e-4
        assert cfg.lanton.alpha == pytest.approx(0.05)
        assert cfg.lanton.noise_update_interval == 10
        assert cfg.lanton.ns_steps == 5
        assert cfg.optimizer_kind == "lanton"
        assert cfg.mode == "raw"
        assert cfg.seeds == (0,)
        assert cfg.telemetry.h and cfg.telemetry.ratio and cfg.telemetry.dual_grad_norm

    def test_alpha_tracks_beta1(self):
        cfg = parse_config(json.dumps(_stub_config(optimizer={"beta1": 0.8})))
        assert cfg.lanton.alpha == pytest.approx(0.2)
        cfg = parse_config(json.dumps(_stub_config(optimizer={"beta1": 0.8, "alpha": 0.01})))
        assert cfg.lanton.alpha == 0.01

    def test_range_error_names_field(self):
        raw = _stub_config(optimizer={"beta2": 1.5})
        with pytest.raises(ConfigError, match="optimizer.beta2"):
            parse_config(json.dumps(raw))

    def test_unknown_key_named(self):
        raw = _stub_config(optimizer={"beta3": 0.9})
        with pytest.raises(ConfigError, match="optimizer.beta3"):
            parse_config(json.dumps(raw))

    def test_unknown_top_level_key(self):
        raw = _stub_config()
        raw["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(json.dumps(raw))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config("{not json")

    def test_missing_task(self):
        with pytest.raises(ConfigError, match="task"):
            parse_config(json.dumps({"optimizer": {}}))

    def test_layer_list_task(self):
        raw = _stub_config(task={"kind": "quadratic", "seed": 3, "layers": [
            {"name": "a", "shape": [2, 2], "group": "hidden", "smoothness": 1.0},
            {"name": "v", "shape": [4], "group": "vector_norm", "sigma_hi": 0.5},
        ]})
        cfg = parse_config(json.dumps(raw))
        task = build_task(cfg.task_section)
        assert {l.name for l in task.layers} == {"a", "v"}
        assert task.noise.radii["v"] == (0.0, 0.5)

    def test_preset_equals_its_layer_list(self):
        preset = build_task(parse_config(json.dumps(_stub_config(task={
            "kind": "quadratic", "preset": "transformer", "shape": [3, 2], "smoothness": 2.0, "seed": 5,
        }))).task_section)
        listed = build_task(parse_config(json.dumps(_stub_config(task={
            "kind": "quadratic", "seed": 5, "layers": [
                {"name": spec.name, "shape": [3, 2], "group": "hidden", "smoothness": 2.0,
                 "sigma_lo": preset.noise.radii[spec.name][0], "sigma_hi": preset.noise.radii[spec.name][1]}
                for spec in preset.layers],
        }))).task_section)
        assert listed.layers == preset.layers and listed.noise == preset.noise
        assert all(np.array_equal(listed.targets[k], v) for k, v in preset.targets.items())

    def test_layer_group_shape_arity(self):
        raw = _stub_config(task={"kind": "quadratic", "layers": [
            {"name": "a", "shape": [2, 2], "group": "vector_norm"},
        ]})
        with pytest.raises(ConfigError, match="layers\\[0\\].shape"):
            parse_config(json.dumps(raw))

    def test_duplicate_layer_name(self):
        raw = _stub_config(task={"kind": "quadratic", "layers": [
            {"name": "a", "shape": [2, 2], "group": "hidden"},
            {"name": "a", "shape": [2, 2], "group": "hidden"},
        ]})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_csv_unsafe_layer_name(self, name):
        raw = _stub_config(task={"kind": "quadratic", "layers": [
            {"name": "ok", "shape": [2, 2], "group": "hidden"},
            {"name": name, "shape": [2, 2], "group": "hidden"},
        ]})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert exc.value.field == "task.layers[1].name"

    @pytest.mark.parametrize("seeds,field", [
        ([-1], "seeds[0]"),
        ([0, 3, 0], "seeds[2]"),
        ([1, True], "seeds[1]"),
        ([], "seeds"),
    ])
    def test_bad_seeds(self, seeds, field):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(_stub_config(seeds=seeds)))
        assert exc.value.field == field

    def test_sigma_order_checked(self):
        raw = _stub_config(task={"kind": "mlp", "widths": [2, 3, 1],
                                 "noise": {"w1": [1.0, 0.5], "w2": [0.0, 0.0]}})
        with pytest.raises(ConfigError, match="noise.w1"):
            parse_config(json.dumps(raw))

    def test_warmup_bound(self):
        raw = _stub_config(optimizer={"warmup_steps": 10}, total_steps=10)
        with pytest.raises(ConfigError, match="warmup_steps"):
            parse_config(json.dumps(raw))

    def test_signature_stability(self):
        c1 = parse_config(json.dumps(_stub_config()))
        c2 = parse_config(json.dumps(_stub_config(total_steps=77)))
        assert task_signature(c1.task_section) == task_signature(c2.task_section)


# A key given this value is left out of the document.
_GONE = object()


def _doc(task=None, **top):
    """A config document: the transformer preset and default optimizer, with
    top-level keys set or (as ``_GONE``) left out."""
    doc = _stub_config(**({} if task is None else {"task": task}))
    doc.update(top)
    return {k: v for k, v in doc.items() if v is not _GONE}


def _task(form, **keys):
    base = {
        "transformer": {"kind": "quadratic", "preset": "transformer"},
        "heterogeneous": {"kind": "quadratic", "preset": "heterogeneous"},
        "layers": {"kind": "quadratic", "layers": [{"name": "a", "shape": [2, 2], "group": "hidden"}]},
        "mlp": {"kind": "mlp", "widths": [2, 3, 1]},
    }[form]
    task = {**base, **keys}
    return _doc({k: v for k, v in task.items() if v is not _GONE})


def _layer(*layers, **keys):
    """A layer-list task whose first layer is edited by ``keys``, followed by
    ``layers``."""
    first = {"name": "a", "shape": [2, 2], "group": "hidden", **keys}
    first = {k: v for k, v in first.items() if v is not _GONE}
    return _doc({"kind": "quadratic", "layers": [first, *layers]})


def _pin(doc, field, message, id):
    return pytest.param(doc, field, message, id=id)


# Every kind of parser error, with its exact field and message: an unknown
# key in each section, each required key left out, a wrong type and an
# out-of-range value for each typed key, and each cross-field rule.
_PINNED_ERRORS = [
    # unknown keys
    _pin(_doc(bogus=1), "bogus", "unknown key", "top_unknown"),
    _pin(_task("transformer", n_layers=6), "task.n_layers", "unknown key", "transformer_unknown"),
    _pin(_task("heterogeneous", layer_count=6), "task.layer_count", "unknown key", "heterogeneous_unknown"),
    _pin(_task("layers", shape=[2, 2]), "task.shape", "unknown key", "layer_list_unknown"),
    _pin(_task("mlp", preset="transformer"), "task.preset", "unknown key", "mlp_unknown"),
    _pin(_layer(size=3), "task.layers[0].size", "unknown key", "layer_unknown"),
    _pin(_task("mlp", noise={"w3": [0.0, 0.0]}), "task.noise.w3", "unknown key", "noise_unknown"),
    _pin(_doc(telemetry={"loss": True}), "telemetry.loss", "unknown key", "telemetry_unknown"),
    _pin(_doc(optimizer={"beta3": 0.9}), "optimizer.beta3", "unknown key", "optimizer_unknown"),
    _pin(_task("layers", preset=None), "task.preset", "unknown key", "null_preset_beside_layers"),
    # required keys
    _pin(_doc(task=_GONE), "task", "missing required key", "task_missing"),
    _pin(_doc(optimizer=_GONE), "optimizer", "missing required key", "optimizer_missing"),
    _pin(_task("transformer", kind=_GONE), "task.kind", "missing required key", "kind_missing"),
    _pin(_task("mlp", widths=_GONE), "task.widths", "missing required key", "widths_missing"),
    _pin(_task("layers", layers=_GONE), "task.layers", "missing required key", "layers_missing"),
    _pin(_layer(name=_GONE), "task.layers[0].name", "missing required key", "layer_name_missing"),
    _pin(_layer(group=_GONE), "task.layers[0].group", "missing required key", "layer_group_missing"),
    _pin(_layer(shape=_GONE), "task.layers[0].shape", "missing required key", "layer_shape_missing"),
    # top level
    _pin(_doc(task="transformer"), "task", "expected an object", "task_type"),
    _pin(_doc(total_steps="10"), "total_steps", "expected an integer, got '10'", "total_steps_type"),
    _pin(_doc(total_steps=True), "total_steps", "expected an integer, got True", "total_steps_bool"),
    _pin(_doc(total_steps=0), "total_steps", "must be >= 1, got 0", "total_steps_range"),
    _pin(_doc(optimizer=[]), "optimizer", "expected an object", "optimizer_type"),
    _pin(_doc(seeds=0), "seeds", "expected a non-empty list of integers", "seeds_type"),
    _pin(_doc(seeds=[]), "seeds", "expected a non-empty list of integers", "seeds_empty"),
    _pin(_doc(seeds=[0.5]), "seeds[0]", "expected an integer, got 0.5", "seed_type"),
    _pin(_doc(seeds=[1, -1]), "seeds[1]", "must be >= 0, got -1", "seed_range"),
    _pin(_doc(seeds=[2, 2]), "seeds[1]", "duplicate seed 2", "seed_duplicate"),
    _pin(_doc(telemetry=[]), "telemetry", "expected an object", "telemetry_type"),
    _pin(_doc(telemetry={"h": 1}), "telemetry.h", "expected a boolean, got 1", "telemetry_h_type"),
    _pin(_doc(telemetry={"ratio": None}), "telemetry.ratio", "expected a boolean, got None",
         "telemetry_ratio_type"),
    _pin(_doc(telemetry={"dual_grad_norm": "no"}), "telemetry.dual_grad_norm",
         "expected a boolean, got 'no'", "telemetry_dual_grad_norm_type"),
    _pin(_doc(output_path=3), "output_path", "expected a string, got 3", "output_path_type"),
    _pin(_doc(output_path=""), "output_path", "expected a non-empty path", "output_path_empty"),
    _pin(_doc(output_path="a\0b"), "output_path", "'a\\x00b': not a path the file system can take",
         "output_path_nul"),
    _pin(_doc(output_path="a\ud800"), "output_path", "'a\\ud800': not a path the file system can take",
         "output_path_lone_surrogate"),
    _pin(_doc(loss_threshold="0.1"), "loss_threshold", "expected a number, got '0.1'", "threshold_type"),
    _pin(_doc(loss_threshold=math.inf), "loss_threshold", "must be finite", "threshold_not_finite"),
    # optimizer
    _pin(_doc(optimizer={"kind": "adam"}), "optimizer.kind",
         "must be one of ['fixed_rate_lmo', 'lanton', 'sgd', 'signum'], got 'adam'", "optimizer_kind"),
    _pin(_doc(optimizer={"mode": 1}), "optimizer.mode", "expected a string, got 1", "optimizer_mode_type"),
    _pin(_doc(optimizer={"beta2": 1.0}), "optimizer.beta2", "must be < 1.0, got 1.0", "beta2_range"),
    _pin(_doc(optimizer={"ns_steps": 2.0}), "optimizer.ns_steps", "expected an integer, got 2.0",
         "ns_steps_type"),
    _pin(_doc(optimizer={"eta_min": 0.1, "eta_max": 0.01}), "optimizer.eta_min",
         "eta_min 0.1 > eta_max 0.01", "eta_order"),
    _pin(_doc(optimizer={"warmup_steps": 5}, total_steps=5), "optimizer.warmup_steps",
         "must be < total_steps (5)", "warmup_range"),
    # task kind and preset
    _pin(_task("transformer", kind="cnn"), "task.kind", "must be one of ['mlp', 'quadratic'], got 'cnn'",
         "kind_range"),
    _pin(_task("transformer", kind=1), "task.kind", "expected a string, got 1", "kind_type"),
    _pin(_task("transformer", preset="gpt"), "task.preset",
         "must be one of ['heterogeneous', 'transformer'], got 'gpt'", "preset_range"),
    _pin(_task("transformer", preset=1), "task.preset", "expected a string, got 1", "preset_type"),
    # the presets
    _pin(_task("transformer", seed="1"), "task.seed", "expected an integer, got '1'", "preset_seed_type"),
    _pin(_task("transformer", seed=-1), "task.seed", "must be >= 0, got -1", "preset_seed_range"),
    _pin(_task("transformer", shape="8x8"), "task.shape", "expected a non-empty list of dims, got '8x8'",
         "preset_shape_type"),
    _pin(_task("transformer", shape=[]), "task.shape", "expected a non-empty list of dims, got []",
         "preset_shape_empty"),
    _pin(_task("transformer", shape=[8, 2.5]), "task.shape[1]", "expected an integer, got 2.5",
         "preset_dim_type"),
    _pin(_task("transformer", shape=[8, 0]), "task.shape[1]", "must be >= 1, got 0", "preset_dim_range"),
    _pin(_task("transformer", shape=[8]), "task.shape", "expected 2 dims, got 1", "preset_shape_arity"),
    _pin(_task("transformer", smoothness="1"), "task.smoothness", "expected a number, got '1'",
         "preset_smoothness_type"),
    _pin(_task("transformer", smoothness=0), "task.smoothness", "must be > 0.0, got 0.0",
         "preset_smoothness_range"),
    _pin(_task("transformer", smoothness=math.nan), "task.smoothness", "must be finite",
         "preset_smoothness_not_finite"),
    _pin(_task("heterogeneous", shape=[4, 4, 4]), "task.shape", "expected 2 dims, got 3",
         "heterogeneous_shape_arity"),
    _pin(_task("heterogeneous", n_layers=2.5), "task.n_layers", "expected an integer, got 2.5",
         "n_layers_type"),
    _pin(_task("heterogeneous", n_layers=1), "task.n_layers", "must be >= 2, got 1", "n_layers_range"),
    _pin(_task("heterogeneous", spread="x"), "task.spread", "expected a number, got 'x'", "spread_type"),
    _pin(_task("heterogeneous", spread=0.5), "task.spread", "must be >= 1.0, got 0.5", "spread_range"),
    _pin(_task("heterogeneous", sigma_hi_base=None), "task.sigma_hi_base", "expected a number, got None",
         "sigma_hi_base_type"),
    _pin(_task("heterogeneous", sigma_hi_base=-1), "task.sigma_hi_base", "must be >= 0.0, got -1.0",
         "sigma_hi_base_range"),
    _pin(_task("heterogeneous", lo_frac=[0.5]), "task.lo_frac", "expected a number, got [0.5]",
         "lo_frac_type"),
    _pin(_task("heterogeneous", lo_frac=1.5), "task.lo_frac", "must be <= 1.0, got 1.5", "lo_frac_range"),
    _pin(_task("heterogeneous", sigma_hi_base=1e300, spread=1e10), "task.sigma_hi_base",
         "1e+300 times spread 10000000000.0, the top noise radius, is not finite", "top_radius_not_finite"),
    # the layer list
    _pin(_task("layers", seed=0.5), "task.seed", "expected an integer, got 0.5", "layer_list_seed_type"),
    _pin(_task("layers", seed=-1), "task.seed", "must be >= 0, got -1", "layer_list_seed_range"),
    _pin(_task("layers", layers={"a": {}}), "task.layers", "expected a non-empty list", "layers_type"),
    _pin(_task("layers", layers=[]), "task.layers", "expected a non-empty list", "layers_empty"),
    _pin(_task("layers", layers=["a"]), "task.layers[0]", "expected an object", "layer_type"),
    _pin(_layer(name=3), "task.layers[0].name", "expected a string, got 3", "layer_name_type"),
    _pin(_layer(name="a,b"), "task.layers[0].name", "'a,b': a comma or line break would break the CSV",
         "layer_name_comma"),
    _pin(_layer(name="a\nb"), "task.layers[0].name", "'a\\nb': a comma or line break would break the CSV",
         "layer_name_line_break"),
    _pin(_layer(name="a\ud800"), "task.layers[0].name",
         "'a\\ud800': UTF-8 cannot encode it, so the CSV cannot hold it", "layer_name_lone_surrogate"),
    _pin(_layer({"name": "b", "shape": [3], "group": "vector_norm"},
                {"name": "a", "shape": [2, 2], "group": "hidden"}),
         "task.layers[2].name", "duplicate layer name 'a'", "layer_name_duplicate"),
    _pin(_layer(group="conv"), "task.layers[0].group",
         "must be one of ['embedding_head', 'hidden', 'vector_norm'], got 'conv'", "layer_group_range"),
    _pin(_layer(group=["hidden"]), "task.layers[0].group", "expected a string, got ['hidden']",
         "layer_group_type"),
    _pin(_layer(group="vector_norm"), "task.layers[0].shape", "expected 1 dims, got 2",
         "vector_layer_shape_arity"),
    _pin(_layer(group="embedding_head", shape=[4]), "task.layers[0].shape", "expected 2 dims, got 1",
         "matrix_layer_shape_arity"),
    _pin(_layer(shape=4), "task.layers[0].shape", "expected a non-empty list of dims, got 4",
         "layer_shape_type"),
    _pin(_layer(shape=[2, -2]), "task.layers[0].shape[1]", "must be >= 1, got -2", "layer_dim_range"),
    _pin(_layer(smoothness="x"), "task.layers[0].smoothness", "expected a number, got 'x'",
         "layer_smoothness_type"),
    _pin(_layer(smoothness=-1.0), "task.layers[0].smoothness", "must be > 0.0, got -1.0",
         "layer_smoothness_range"),
    _pin(_layer(sigma_lo=True), "task.layers[0].sigma_lo", "expected a number, got True",
         "layer_sigma_lo_type"),
    _pin(_layer(sigma_lo=-0.1), "task.layers[0].sigma_lo", "must be >= 0.0, got -0.1",
         "layer_sigma_lo_range"),
    _pin(_layer(sigma_hi="1"), "task.layers[0].sigma_hi", "expected a number, got '1'",
         "layer_sigma_hi_type"),
    _pin(_layer(sigma_hi=-0.1), "task.layers[0].sigma_hi", "must be >= 0.0, got -0.1",
         "layer_sigma_hi_range"),
    _pin(_layer(sigma_lo=0.5, sigma_hi=0.1), "task.layers[0].sigma_lo", "sigma_lo 0.5 > sigma_hi 0.1",
         "layer_radius_order"),
    _pin(_layer(sigma_lo=0.5), "task.layers[0].sigma_lo", "sigma_lo 0.5 > sigma_hi 0.0",
         "layer_radius_order_default_hi"),
    # the MLP
    _pin(_task("mlp", widths="2-3-1"), "task.widths", "expected a non-empty list of dims, got '2-3-1'",
         "widths_type"),
    _pin(_task("mlp", widths=[2, 3]), "task.widths", "expected 3 dims, got 2", "widths_arity"),
    _pin(_task("mlp", widths=[2, 0, 1]), "task.widths[1]", "must be >= 1, got 0", "width_range"),
    _pin(_task("mlp", n_samples=8.0), "task.n_samples", "expected an integer, got 8.0", "n_samples_type"),
    _pin(_task("mlp", n_samples=0), "task.n_samples", "must be >= 1, got 0", "n_samples_range"),
    _pin(_task("mlp", dataset_seed="0"), "task.dataset_seed", "expected an integer, got '0'",
         "dataset_seed_type"),
    _pin(_task("mlp", dataset_seed=-1), "task.dataset_seed", "must be >= 0, got -1", "dataset_seed_range"),
    _pin(_task("mlp", label_noise="x"), "task.label_noise", "expected a number, got 'x'",
         "label_noise_type"),
    _pin(_task("mlp", label_noise=-0.5), "task.label_noise", "must be >= 0.0, got -0.5",
         "label_noise_range"),
    _pin(_task("mlp", seed=None), "task.seed", "expected an integer, got None", "mlp_seed_type"),
    _pin(_task("mlp", seed=-2), "task.seed", "must be >= 0, got -2", "mlp_seed_range"),
    _pin(_task("mlp", noise=[0.0, 0.0]), "task.noise", "expected an object", "noise_type"),
    _pin(_task("mlp", noise={"w1": 0.1}), "task.noise.w1", "expected [sigma_lo, sigma_hi]", "radii_type"),
    _pin(_task("mlp", noise={"w2": [0.1]}), "task.noise.w2", "expected [sigma_lo, sigma_hi]",
         "radii_length"),
    _pin(_task("mlp", noise={"w1": ["0", 0.1]}), "task.noise.w1[0]", "expected a number, got '0'",
         "radius_type"),
    _pin(_task("mlp", noise={"w2": [0.0, -0.1]}), "task.noise.w2[1]", "must be >= 0.0, got -0.1",
         "radius_range"),
    _pin(_task("mlp", noise={"w1": [0.5, 0.1]}), "task.noise.w1", "sigma_lo 0.5 > sigma_hi 0.1",
         "mlp_radius_order"),
]


@pytest.mark.parametrize("doc,field,message", _PINNED_ERRORS)
def test_parser_error_pinned(doc, field, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert (exc.value.field, exc.value.message) == (field, message)


class TestExecuteRun:
    def test_sgd_closed_form(self):
        cfg = parse_config(json.dumps({
            "task": {"kind": "quadratic", "seed": 0, "layers": [
                {"name": "x", "shape": [1], "group": "vector_norm", "smoothness": 1.0}]},
            "optimizer": {"kind": "sgd", "eta_max": 0.5, "eta_min": 0.5},
            "seeds": [0], "total_steps": 10, "output_path": "unused"}))
        task = build_task(cfg.task_section)
        a = task.targets["x"][0]
        records, summary = execute_run(cfg, 0, task=task)
        for t, rec in enumerate(records):
            assert rec.loss == pytest.approx(0.5 * (a * 0.5 ** t) ** 2, rel=1e-12)
        assert summary["aborted_at"] is None
        assert summary["steps_run"] == 10

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nan_loss_aborts(self):
        cfg = parse_config(json.dumps({
            "task": {"kind": "quadratic", "seed": 0, "layers": [
                {"name": "x", "shape": [1], "group": "vector_norm", "smoothness": 1.0}]},
            "optimizer": {"kind": "sgd", "eta_max": 1e200, "eta_min": 1e200},
            "seeds": [0], "total_steps": 10, "output_path": "unused"}))
        records, summary = execute_run(cfg, 0)
        assert summary["aborted_at"] == 1
        assert summary["steps_run"] == 1
        assert math.isfinite(records[0].loss)

    def test_lanton_noiseless_equals_fixed_rate(self):
        base = {
            "task": {"kind": "quadratic", "seed": 2, "layers": [
                {"name": f"l{i}", "shape": [4, 4], "group": "hidden", "smoothness": 1.0}
                for i in range(3)]},
            "seeds": [0], "total_steps": 120, "output_path": "unused"}
        runs = {}
        for kind in ("lanton", "fixed_rate_lmo"):
            raw = dict(base)
            raw["optimizer"] = {"kind": kind, "mode": "raw", "noise_option": "II",
                                "noise_update_interval": 1}
            cfg = parse_config(json.dumps(raw))
            records, _ = execute_run(cfg, 0)
            runs[kind] = records
        for r1, r2 in zip(runs["lanton"], runs["fixed_rate_lmo"]):
            assert r1.loss == r2.loss
            for name in r1.layers:
                assert r1.layers[name].eta_eff == r2.layers[name].eta_eff
                assert r1.layers[name].ratio == r2.layers[name].ratio == 1.0

    @pytest.mark.parametrize("kind", ["lanton", "signum"])
    @pytest.mark.parametrize("column", ["h", "ratio", "dual_grad_norm"])
    def test_telemetry_flags_mask_columns(self, kind, column):
        # One switch off: its column is NaN in every row, while the losses
        # and the other columns are those of the run with every switch on.
        def run(telemetry):
            cfg = parse_config(json.dumps(_stub_config(
                total_steps=3, telemetry=telemetry,
                optimizer={"kind": kind, "noise_option": "II", "noise_update_interval": 1})))
            return execute_run(cfg, 0)[0]

        masked, full = run({column: False}), run({})
        assert len(masked) == len(full) == 3
        for got, want in zip(masked, full):
            assert got.loss == want.loss
            for name, st in got.layers.items():
                for f in ("eta_eff", "ratio", "h", "dual_grad_norm"):
                    if f == column:
                        assert math.isnan(getattr(st, f))
                    else:
                        assert getattr(st, f) == getattr(want.layers[name], f)


class TestRecords:
    def test_fields_are_read_only(self):
        stats = LayerStats(1e-3, 0.5, 0.25, 2.0)
        rec = RunRecord(3, 0.1, {"a": stats})
        with pytest.raises(AttributeError):
            stats.h = 0.0
        with pytest.raises(AttributeError):
            rec.loss = 0.0
        assert (stats.h, rec.loss) == (0.25, 0.1)

    def test_keyword_and_positional_construction(self):
        stats = LayerStats(eta_eff=1e-3, ratio=0.5, h=0.25, dual_grad_norm=2.0)
        assert stats == LayerStats(1e-3, 0.5, 0.25, 2.0)
        assert (stats.eta_eff, stats.ratio, stats.h, stats.dual_grad_norm) == (1e-3, 0.5, 0.25, 2.0)
        rec = RunRecord(step=3, loss=0.1, layers={"a": stats}, wall_ns=7)
        assert rec == RunRecord(3, 0.1, {"a": stats}, 7)
        assert (rec.step, rec.loss, rec.layers, rec.wall_ns) == (3, 0.1, {"a": stats}, 7)

    def test_wall_ns_defaults_to_zero(self):
        assert RunRecord(3, 0.1, {}).wall_ns == 0
        assert RunRecord(step=3, loss=0.1, layers={}).wall_ns == 0


class TestMetricsCsv:
    def _records(self):
        return [
            RunRecord(step=0, loss=1.5, layers={
                "a": LayerStats(eta_eff=1e-3, ratio=1.0, h=0.0, dual_grad_norm=2.0),
                "b": LayerStats(eta_eff=0.1 + 0.2, ratio=1 / 3, h=1e-17, dual_grad_norm=math.nan),
            }),
        ]

    def test_columns_follow_layer_stats(self):
        # The header is derived from LayerStats, and the switches name every
        # telemetry column but eta_eff, which is always recorded.
        assert tuple(f.name for f in fields(TelemetryFlags)) == \
            tuple(f for f in LayerStats._fields if f != "eta_eff")
        assert CSV_HEADER == "step,loss,layer,eta_eff,ratio,H,dual_grad_norm"

    def test_empty_stream_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_step_two_layers_three_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics(self._records(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == CSV_HEADER

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        records = self._records()
        emit_metrics(records, path)
        back = read_metrics(path)
        assert len(back) == 1
        for name, st in records[0].layers.items():
            got = back[0].layers[name]
            assert got.eta_eff == st.eta_eff
            assert got.ratio == st.ratio
            assert got.h == st.h
            assert (math.isnan(got.dual_grad_norm) and math.isnan(st.dual_grad_norm)) or \
                got.dual_grad_norm == st.dual_grad_norm
        assert back[0].loss == records[0].loss

    def test_lf_endings_no_crlf(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics(self._records(), path)
        assert b"\r" not in path.read_bytes()

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_metrics(path)

    def test_no_tmp_leftover(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics(self._records(), path)
        assert os.listdir(tmp_path) == ["m.csv"]

    _ROWS = {
        "0a": "0,1.5,a,1,1,0,2",
        "0b": "0,1.5,b,1,1,0,2",
        "1a": "1,0.5,a,1,1,0,2",
        "1b": "1,0.5,b,1,1,0,2",
    }

    def _write_rows(self, tmp_path, rows):
        path = tmp_path / "m.csv"
        path.write_text("\n".join([CSV_HEADER] + rows) + "\n")
        return path

    @pytest.mark.parametrize("rows,message", [
        # A step's loss text differs from its first row's.
        pytest.param(["0a", "0,banana,b,1,1,0,2"], "step 0: loss 'banana'", id="loss_first_step"),
        pytest.param(["0a", "0b", "1a", "1,0.50,b,1,1,0,2"], "step 1: loss '0.50'", id="loss_later_step"),
        # A layer appears twice in one step.
        pytest.param(["0a", "0b", "0a"], "step 0: layer 'a' listed twice", id="twice_first_step"),
        pytest.param(["0a", "0b", "1a", "1a"], "step 1: layer 'a' listed twice", id="twice_later_step"),
        # A step does not list the first step's layers in the same order.
        pytest.param(["0a", "0b", "1a"],
                     "step 1 lists layers ['a'], not the first step's ['a', 'b']", id="layer_missing"),
        pytest.param(["0a", "0b", "1b", "1a"], "step 1 lists layers ['b', 'a']", id="layers_reordered"),
        pytest.param(["0a", "1a", "1b"],
                     "step 1 lists layers ['a', 'b'], not the first step's ['a']", id="layer_extra"),
        # The k-th step of the file is not step k.
        pytest.param(["1a", "1b"], "found step 1 where step 0 was expected", id="first_step_1"),
        pytest.param(["-1,1.5,a,1,1,0,2", "0a"], "found step -1 where step 0 was expected",
                     id="first_step_negative"),
        pytest.param(["0a", "0b", "2,0.5,a,1,1,0,2"], "found step 2 where step 1 was expected",
                     id="step_gap"),
    ])
    def test_inconsistent_step_rejected(self, tmp_path, rows, message):
        path = self._write_rows(tmp_path, [self._ROWS.get(r, r) for r in rows])
        with pytest.raises(ValueError, match=r"m\.csv: ") as info:
            read_metrics(path)
        assert message in str(info.value)

    def test_steps_must_increase(self, tmp_path):
        path = self._write_rows(tmp_path, [self._ROWS[r] for r in ("1a", "1b", "0a", "0b")])
        with pytest.raises(ValueError, match="found step 1 where step 0 was expected"):
            read_metrics(path)


class TestStepsToThreshold:
    def test_raw_crossing(self):
        losses = [3.0, 2.0, 1.0, 0.5]
        assert steps_to_threshold(losses, 1.0, smoothing="raw") == 2

    def test_not_reached(self):
        assert steps_to_threshold([3.0, 2.0], 1.0) is None

    def test_trailing_ignores_single_spike(self):
        losses = [2.0] * 30
        losses[10] = 0.0  # single dip
        assert steps_to_threshold(losses, 1.0, smoothing="raw") == 10
        assert steps_to_threshold(losses, 1.0, smoothing="trailing") is None

    def test_trailing_crosses_once_sustained(self):
        losses = [2.0] * 10 + [0.0] * 30
        t = steps_to_threshold(losses, 1.0, smoothing="trailing")
        assert t == 19  # 10 twos + 10 zeros first average down to the threshold

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            steps_to_threshold([1.0], 0.5, smoothing="savgol")


def _fabricate_run(path, losses_by_seed, task_seed=0, kind="lanton"):
    """A run directory with the given losses: the config echo and the seed
    CSVs, which are all that compare reads."""
    os.makedirs(path)
    cfg = parse_config(json.dumps(_stub_config(
        task={"kind": "quadratic", "preset": "transformer", "seed": task_seed},
        optimizer={"kind": kind}, seeds=list(losses_by_seed), output_path=path)))
    with open(os.path.join(path, "config.json"), "w") as f:
        json.dump(canonical_config(cfg), f)
    stats = LayerStats(eta_eff=0.0, ratio=1.0, h=0.0, dual_grad_norm=0.0)
    names = [spec.name for spec, _ in task_layers(cfg.task_section)]
    for seed, losses in losses_by_seed.items():
        records = [RunRecord(step=t, loss=loss, layers=dict.fromkeys(names, stats))
                   for t, loss in enumerate(losses)]
        emit_metrics(records, os.path.join(path, f"seed_{seed}.csv"))


class TestCompareRuns:
    def test_self_comparison_speedup_one(self, tmp_path):
        losses = {0: [2.0] * 50 + [0.0] * 50}
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _fabricate_run(a, losses)
        _fabricate_run(b, losses)
        report = compare_runs([a, b], threshold=1.0)
        assert all(s["speedup"] == pytest.approx(1.0) for s in report["speedups"])

    def test_speedup_ratio(self, tmp_path):
        fast = {0: [2.0] * 100 + [0.0] * 100, 1: [2.0] * 100 + [0.0] * 100}
        slow = {0: [2.0] * 150 + [0.0] * 50, 1: [2.0] * 150 + [0.0] * 50}
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _fabricate_run(a, fast)
        _fabricate_run(b, slow, kind="sgd")
        report = compare_runs([a, b], threshold=1.0, smoothing="raw")
        by_pair = {(s["candidate"], s["baseline"]): s["speedup"] for s in report["speedups"]}
        assert by_pair[(a, b)] == pytest.approx(1.5)
        assert by_pair[(b, a)] == pytest.approx(1.0 / 1.5)

    def test_threshold_below_best_not_reached(self, tmp_path):
        losses = {0: [2.0, 1.5, 1.2]}
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _fabricate_run(a, losses)
        _fabricate_run(b, losses)
        report = compare_runs([a, b], threshold=0.5)
        assert report["runs"][0]["median_steps_to_threshold"] is None
        assert all(s["speedup"] is None for s in report["speedups"])

    def test_signature_mismatch(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _fabricate_run(a, {0: [1.0]}, task_seed=1)
        _fabricate_run(b, {0: [1.0]}, task_seed=2)
        with pytest.raises(ValueError, match="task signature does not match"):
            compare_runs([a, b], threshold=0.5)

    def test_reads_typed_config_without_summary(self, tmp_path):
        a = str(tmp_path / "a")
        _fabricate_run(a, {3: [1.0], 4: [2.0]}, kind="sgd")
        cfg = read_run_config(a)
        assert cfg.optimizer_kind == "sgd"
        assert [(seed, columns.losses) for seed, columns in read_seeds(a, cfg)] == [(3, [1.0]), (4, [2.0])]
        assert not os.path.exists(os.path.join(a, "summary.json"))

    def test_read_seeds_reads_each_csv_when_the_loop_reaches_it(self, tmp_path):
        a = str(tmp_path / "a")
        _fabricate_run(a, {3: [1.0], 4: [2.0]})
        os.remove(os.path.join(a, "seed_4.csv"))
        pairs = read_seeds(a, read_run_config(a))
        assert next(pairs)[0] == 3
        with pytest.raises(FileNotFoundError, match="seed_4.csv"):
            next(pairs)

    def test_signature_checked_before_the_csvs(self, tmp_path):
        # A run with another task and an unreadable CSV: the signature error.
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _fabricate_run(a, {0: [1.0]}, task_seed=1)
        _fabricate_run(b, {0: [1.0]}, task_seed=2)
        with open(os.path.join(b, "seed_0.csv"), "w") as f:
            f.write("nope\n")
        with pytest.raises(ValueError, match="task signature does not match"):
            compare_runs([a, b], threshold=0.5)

    @pytest.mark.parametrize("key", ["beta2", "alpha"])
    def test_run_config_missing_key_named(self, tmp_path, key):
        # A default must not stand in for the value the run used.
        a = str(tmp_path / "a")
        _fabricate_run(a, {0: [1.0]})
        path = os.path.join(a, "config.json")
        with open(path) as f:
            echo = json.load(f)
        del echo["optimizer"][key]
        with open(path, "w") as f:
            json.dump(echo, f)
        with pytest.raises(ConfigError) as exc:
            read_run_config(a)
        assert exc.value.field == f"optimizer.{key}" and path in exc.value.message

    def test_run_config_parse_error_named(self, tmp_path):
        a = str(tmp_path / "a")
        _fabricate_run(a, {0: [1.0]})
        path = os.path.join(a, "config.json")
        with open(path, "w") as f:
            f.write("[]")
        with pytest.raises(ConfigError) as exc:
            read_run_config(a)
        assert exc.value.field == "<document>" and path in exc.value.message

    def test_needs_two_paths(self, tmp_path):
        with pytest.raises(ValueError):
            compare_runs([str(tmp_path)], threshold=0.5)


class TestRunExperiment:
    def _cfg(self, tmp_path, **kw):
        raw = {
            "task": {"kind": "quadratic", "preset": "transformer"},
            "optimizer": {"kind": "lanton", "noise_option": "II", "noise_update_interval": 1},
            "seeds": [0, 1], "total_steps": 25,
            "output_path": str(tmp_path / "run"),
        }
        raw.update(kw)
        return parse_config(json.dumps(raw))

    def test_outputs_and_headers(self, tmp_path):
        cfg = self._cfg(tmp_path)
        summary, records = run_experiment(cfg)
        outdir = tmp_path / "run"
        assert sorted(os.listdir(outdir)) == ["config.json", "seed_0.csv", "seed_1.csv", "summary.json"]
        h0 = (outdir / "seed_0.csv").read_text().splitlines()[0]
        h1 = (outdir / "seed_1.csv").read_text().splitlines()[0]
        assert h0 == h1 == CSV_HEADER
        assert summary["per_seed"][0]["seed"] == 0
        assert len(records[0]) == 25

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self._cfg(tmp_path)
        run_experiment(cfg)
        outdir = tmp_path / "run"
        first = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        run_experiment(cfg)
        second = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        assert first == second

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = self._cfg(tmp_path, seeds=[0, 1, 2, 3])
        run_experiment(cfg, workers=1)
        outdir = tmp_path / "run"
        serial = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        run_experiment(cfg, workers=4)
        parallel = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        assert serial == parallel

    def test_mlp_workers_do_not_change_bytes(self, tmp_path):
        # The MLP gradient's large products release the GIL and a short
        # switch interval interleaves the rest, so seeds on different threads
        # really overlap; any state they shared would show.
        cfg = self._cfg(tmp_path, seeds=[0, 1, 2, 3], total_steps=30,
                        task={"kind": "mlp", "widths": [16, 64, 4], "n_samples": 512,
                              "noise": {"w1": [0.001, 0.002], "w2": [0.01, 0.05]}},
                        optimizer={"kind": "lanton", "noise_option": "I", "noise_update_interval": 2})
        run_experiment(cfg, workers=1)
        outdir = tmp_path / "run"
        serial = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_experiment(cfg, workers=3)
        finally:
            sys.setswitchinterval(interval)
        parallel = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        assert serial == parallel

    def test_gradient_error_ends_only_its_seed(self, tmp_path, monkeypatch):
        cfg = self._cfg(tmp_path, seeds=[0, 1, 2], total_steps=10)
        run_experiment(cfg)
        outdir = tmp_path / "run"
        clean = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        # Seeds run one after another, so call 13 is seed 1's step 3; its
        # gradient turns NaN while its loss stays finite.
        calls = []
        exact_value_grad = harness.value_grad

        def nan_on_seed_1_step_3(task, params, work=None):
            loss, grads = exact_value_grad(task, params, work)
            calls.append(None)
            if len(calls) == 14:
                grads = dict(grads, vo=np.full_like(grads["vo"], np.nan))
            return loss, grads

        monkeypatch.setattr(harness, "value_grad", nan_on_seed_1_step_3)
        summary, records = run_experiment(cfg)
        assert [(e["seed"], e["aborted_at"], e["steps_run"]) for e in summary["per_seed"]] == \
            [(0, None, 10), (1, 3, 3), (2, None, 10)]
        assert [r.step for r in records[1]] == [0, 1, 2]
        for name in ("seed_0.csv", "seed_2.csv", "config.json"):
            assert (outdir / name).read_bytes() == clean[name]
        # Seed 1 keeps the three steps it finished: 3 layers per step.
        kept = (outdir / "seed_1.csv").read_text().splitlines()
        assert kept == clean["seed_1.csv"].decode().splitlines()[:1 + 3 * 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_seed_keeps_the_other_seeds(self, tmp_path, monkeypatch, workers):
        run_experiment(self._cfg(tmp_path / "clean", seeds=[0, 1, 2], total_steps=10))
        cfg = self._cfg(tmp_path, seeds=[0, 1, 2], total_steps=10)
        exact_execute_run = harness.execute_run

        def raise_on_seed_1(cfg, seed, task=None):
            if seed == 1:
                raise RuntimeError("no convergence")
            return exact_execute_run(cfg, seed, task=task)

        monkeypatch.setattr(harness, "execute_run", raise_on_seed_1)
        with pytest.raises(RuntimeError, match="^seed 1: no convergence$"):
            run_experiment(cfg, workers=workers)
        outdir, clean = tmp_path / "run", tmp_path / "clean" / "run"
        for seed in (0, 2):
            assert (outdir / f"seed_{seed}.csv").read_bytes() == (clean / f"seed_{seed}.csv").read_bytes()
        assert not (outdir / "seed_1.csv").exists()
        assert not (outdir / "summary.json").exists()

    def test_threshold_in_summary(self, tmp_path):
        cfg = self._cfg(tmp_path, loss_threshold=1.0, total_steps=40)
        summary, _ = run_experiment(cfg)
        for entry in summary["per_seed"]:
            assert "steps_to_threshold" in entry

    def test_canonical_config_echo(self, tmp_path):
        cfg = self._cfg(tmp_path)
        run_experiment(cfg)
        with open(tmp_path / "run" / "config.json") as f:
            echo = json.load(f)
        assert echo == canonical_config(cfg)
        assert set(echo["optimizer"]) == {f.name for f in OPTIONS} | {"kind", "mode"}
        assert set(echo["telemetry"]) == {f.name for f in fields(TelemetryFlags)}
        reparsed = parse_config(json.dumps({
            "task": echo["task"], "optimizer": echo["optimizer"],
            "seeds": echo["seeds"], "total_steps": echo["total_steps"],
            "telemetry": echo["telemetry"], "output_path": echo["output_path"],
            "loss_threshold": echo["loss_threshold"],
        }))
        assert canonical_config(reparsed) == echo
