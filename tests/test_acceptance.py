"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from lanton.diagnostics import (
    BoundParams,
    alpha_ratio_envelope,
    compute_alpha_r,
    h_bounds_check,
)
from lanton.harness import (
    build_task,
    columns_of,
    execute_run,
    parse_config,
    run_experiment,
    steps_to_threshold,
)
from lanton.lmo import (
    NS_SIGMA_ENVELOPE,
    NS_SPECTRAL_ENVELOPE,
    lmo,
    measure_ns_envelope,
    newton_schulz,
)
from lanton.norms import Group, dual_norm, primal_norm
from lanton.optimizer import LantonConfig, LayerSpec, init_state, update_noise_tracker
from lanton.tasks import mlp_value_grad, quadratic_value_grad

from spearman import rank_correlation


def _report(name: str, detail: str = "") -> None:
    print(f"\n[acceptance] {name}: PASS {detail}".rstrip())


def _shapes(group):
    return 24 if group is Group.VECTOR_NORM else ((8, 6) if group is Group.HIDDEN else (6, 8))


SEEDS_20 = list(range(20))


def _preset_config(extra_task=None, **opt):
    task = {"kind": "quadratic", "preset": "transformer"}
    if extra_task:
        task.update(extra_task)
    options = {"kind": "lanton", "mode": "raw", "noise_option": "II",
               "noise_update_interval": 1, "eta_max": 5e-3, "eta_min": 5e-4}
    options.update(opt)
    return parse_config(json.dumps({
        "task": task, "optimizer": options,
        "seeds": SEEDS_20, "total_steps": 5000, "output_path": "unused"}))


@pytest.fixture(scope="module")
def preset_runs():
    """Twenty 5000-step twin-gradient runs on the measured-radii preset."""
    cfg = _preset_config()
    task = build_task(cfg.task_section)
    start = time.monotonic()
    runs = [execute_run(cfg, seed, task=task)[0] for seed in SEEDS_20]
    elapsed = time.monotonic() - start
    return cfg, task, runs, elapsed


def test_criterion_01_lmo_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for group in Group:
        shape = _shapes(group)
        feasible = []
        for _ in range(200):
            x = rng.standard_normal(shape)
            x = x / primal_norm(group, x) * rng.uniform()
            feasible.append(np.ravel(x))
        fmat = np.stack(feasible)
        for _ in range(2000):
            b = rng.standard_normal(shape)
            best = float(np.sum(b * lmo(group, b, oracle=True)))
            competitors = fmat @ np.ravel(b)
            assert best <= competitors.min() + 1e-9, group
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _report("criterion 1 (lmo optimality)",
            f"3 groups x 2000 directions x 200 feasible points in {elapsed:.1f}s")


def test_criterion_02_duality_pairing():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for group in Group:
        shape = _shapes(group)
        for _ in range(1000):
            b = rng.standard_normal(shape)
            pairing = float(np.sum(b * lmo(group, b, oracle=True)))
            target = -dual_norm(group, b)
            rel = abs(pairing - target) / max(1.0, abs(target))
            worst = max(worst, rel)
            assert rel <= 1e-9, group
    _report("criterion 2 (duality pairing)", f"worst relative gap {worst:.2e}")


def test_criterion_03_newton_schulz_quality():
    # The sweep must give the pinned envelope to the 7 digits it is pinned
    # with, which also keeps every output singular value inside it.
    sigma, spectral = measure_ns_envelope()
    measured = [f"{v:.6e}" for v in sigma + spectral]
    pinned = [f"{v:.6e}" for v in NS_SIGMA_ENVELOPE + NS_SPECTRAL_ENVELOPE]
    assert measured == pinned, (
        "the sweep no longer gives the pinned envelope; to re-pin, paste into lmo.py:\n"
        f"NS_SIGMA_ENVELOPE = ({measured[0]}, {measured[1]})\n"
        f"NS_SPECTRAL_ENVELOPE = ({measured[2]}, {measured[3]})")
    rng = np.random.default_rng(1003)
    for shape in ((4, 4), (8, 8), (16, 5), (5, 16)):
        m = np.round(rng.standard_normal(shape) * 2 ** 16) / 2 ** 16
        a = 1000.0 * m
        base = newton_schulz(a)
        for c in (1e-3, 1.0, 1e3):
            assert np.array_equal(newton_schulz(c * a), base), (shape, c)
    _report("criterion 3 (newton-schulz quality)",
            f"sweep gives the pinned envelopes {pinned}; rescaling by 1e-3/1/1e3 bit-exact")


def test_criterion_04_tracker_closed_form():
    for diff_val, c in ((0.5, 1.0), (0.75, 2.25)):
        cfg = LantonConfig(total_steps=20000, beta2=0.9, noise_update_interval=1)
        state = init_state([LayerSpec("v", (4,), Group.VECTOR_NORM)])
        g1 = np.zeros(4)
        g1[0] = diff_val  # dual norm 2 * diff_val, squared = c
        for t in range(1, 10_001):
            h = update_noise_tracker(state, "v", g1, np.zeros(4), cfg)
            state.t += 1
            expected = c * (1.0 - 0.9 ** t)
            assert abs(h - expected) <= 1e-12 * expected
    _report("criterion 4 (tracker closed form)",
            "H_t = c(1 - beta2^t) to 1e-12 relative for t <= 1e4")


def test_criterion_05_deterministic_upper_bound(preset_runs):
    cfg, task, runs, elapsed = preset_runs
    params = BoundParams(c1=1.0 / math.sqrt(8.0), c2=1.0, delta=0.05,
                         beta2=cfg.lanton.beta2, layers=task.layers)
    upper = 0
    lower_rates = []
    names = [layer.name for layer in task.layers]
    for records in runs:
        report = h_bounds_check(columns_of(records, names), params)
        upper += sum(l["upper_violations"] for l in report["layers"])
        lower_rates.extend(l["lower_violation_rate"] for l in report["layers"])
    assert upper == 0
    # pinned observation: the probabilistic lower envelope never fired either
    assert max(lower_rates) == 0.0
    assert elapsed <= 300.0
    _report("criterion 5 (deterministic tracker upper bound)",
            f"0 violations over 20 seeds x 5000 steps in {elapsed:.0f}s; "
            "lower-bound violation rate 0.0 (pinned)")


def test_criterion_06_ratio_envelope(preset_runs):
    cfg, task, runs, _ = preset_runs
    params = BoundParams(c1=1.0 / math.sqrt(8.0), c2=1.0, delta=0.05,
                         beta2=cfg.lanton.beta2, layers=task.layers)
    alpha_r = compute_alpha_r(cfg.lanton.alpha, params)
    below = 0
    min_ratio = math.inf
    names = [layer.name for layer in task.layers]
    for records in runs:
        report = alpha_ratio_envelope(columns_of(records, names), params, cfg.lanton.alpha)
        min_ratio = min(min_ratio, report["min_ratio"])
        if report["min_ratio"] < alpha_r:
            below += 1
        for rec in records:  # interval 1: every step is a tracker-update step
            ratios = [st.ratio for st in rec.layers.values()]
            assert max(ratios) == 1.0
            assert all(r <= 1.0 for r in ratios)
    assert below <= math.ceil(0.05 * len(runs))
    _report("criterion 6 (ratio envelope)",
            f"min ratio {min_ratio:.4f} vs alpha_r {alpha_r:.4f}; "
            f"{below}/20 runs below (allowed {math.ceil(0.05 * len(runs))})")


def test_criterion_07_noiseless_equivalence(tmp_path):
    base = {
        "task": {"kind": "quadratic", "seed": 5, "layers": [
            {"name": f"l{i}", "shape": [6, 6], "group": "hidden", "smoothness": 1.0}
            for i in range(4)]},
        "seeds": [0], "total_steps": 1000,
    }
    outputs = {}
    for kind in ("lanton", "fixed_rate_lmo"):
        raw = dict(base)
        raw["optimizer"] = {"kind": kind, "mode": "raw", "noise_option": "II",
                            "noise_update_interval": 1}
        raw["output_path"] = str(tmp_path / kind)
        cfg = parse_config(json.dumps(raw))
        run_experiment(cfg)
        outputs[kind] = (tmp_path / kind / "seed_0.csv").read_bytes()
    assert outputs["lanton"] == outputs["fixed_rate_lmo"]
    _report("criterion 7 (noiseless equivalence)",
            "1000-step trajectories byte-identical")


_HETERO_TASK = {"kind": "quadratic", "preset": "heterogeneous", "spread": 100.0}


def _runs_config(task_section, kind, total_steps):
    return parse_config(json.dumps({
        "task": task_section,
        "optimizer": {"kind": kind, "mode": "raw", "noise_option": "II",
                      "noise_update_interval": 1, "eta_max": 5e-3, "eta_min": 5e-4},
        "seeds": SEEDS_20, "total_steps": total_steps, "output_path": "unused"}))


@pytest.fixture(scope="module")
def hetero_runs():
    """Twenty 1000-step lanton runs on the 100x-spread heterogeneous preset,
    shared by criteria 8 and 9, which both run this config."""
    cfg = _runs_config(_HETERO_TASK, "lanton", 1000)
    task = build_task(cfg.task_section)
    start = time.monotonic()
    runs = [execute_run(cfg, seed, task=task)[0] for seed in SEEDS_20]
    elapsed = time.monotonic() - start
    return task, runs, elapsed


def test_criterion_08_heterogeneity_adaptation(hetero_runs):
    task, runs, _ = hetero_runs
    names = [l.name for l in task.layers]
    sigma_hi = [l.sigma_hi for l in task.layers]
    assert max(sigma_hi) / min(sigma_hi) == pytest.approx(100.0, rel=1e-9)
    rho_h = []
    rho_eta = []
    for records in runs:
        mean_h = [statistics.fmean(r.layers[n].h for r in records) for n in names]
        mean_eta = [statistics.fmean(r.layers[n].eta_eff for r in records) for n in names]
        rho_h.append(rank_correlation(sigma_hi, mean_h))
        rho_eta.append(rank_correlation(sigma_hi, mean_eta))
    med_h = statistics.median(rho_h)
    med_eta = statistics.median(rho_eta)
    assert med_h >= 0.9
    assert med_eta <= -0.9
    _report("criterion 8 (heterogeneity adaptation)",
            f"median Spearman(sigma, H) = {med_h:.3f}, (sigma, eta) = {med_eta:.3f}")


def _median_crossing(runs, threshold):
    steps = []
    for records in runs:
        s = steps_to_threshold([r.loss for r in records], threshold)
        steps.append(math.inf if s is None else s)
    return statistics.median(steps)


def _median_steps(task_section, kind, total_steps, threshold):
    cfg = _runs_config(task_section, kind, total_steps)
    task = build_task(cfg.task_section)
    return _median_crossing([execute_run(cfg, seed, task=task)[0] for seed in SEEDS_20], threshold)


def test_criterion_09_convergence_ordering(hetero_runs):
    start = time.monotonic()
    _, lanton_runs, lanton_elapsed = hetero_runs
    quad_threshold = 2e-3
    lanton_med = _median_crossing(lanton_runs, quad_threshold)
    fixed_med = _median_steps(_HETERO_TASK, "fixed_rate_lmo", 1000, quad_threshold)
    assert math.isfinite(lanton_med) and math.isfinite(fixed_med)
    assert lanton_med <= fixed_med
    quad_speedup = fixed_med / lanton_med
    assert quad_speedup > 1.0  # strict on the 100x-spread quadratic

    mlp_task = {"kind": "mlp", "widths": [4, 16, 2], "n_samples": 256,
                "dataset_seed": 1, "label_noise": 0.0, "seed": 3,
                "noise": {"w1": [0.002, 0.002], "w2": [0.05, 0.2]}}
    mlp_threshold = 3.5e-4
    mlp_lanton = _median_steps(mlp_task, "lanton", 2000, mlp_threshold)
    mlp_fixed = _median_steps(mlp_task, "fixed_rate_lmo", 2000, mlp_threshold)
    assert math.isfinite(mlp_lanton)
    assert mlp_lanton <= mlp_fixed
    mlp_speedup = (mlp_fixed / mlp_lanton) if math.isfinite(mlp_fixed) else math.inf
    # The gate covers every run compared here, the shared lanton runs too.
    elapsed = time.monotonic() - start + lanton_elapsed
    assert elapsed <= 600.0
    _report("criterion 9 (convergence ordering)",
            f"quadratic speedup {quad_speedup:.2f} (median {fixed_med:.0f} vs {lanton_med:.0f}); "
            f"mlp speedup {mlp_speedup:.2f} (median {mlp_fixed:.0f} vs {mlp_lanton:.0f}); "
            f"{elapsed:.0f}s")


def _central_diff(f, x, h):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(1010)

    quad_cfg = parse_config(json.dumps({
        "task": {"kind": "quadratic", "seed": 9, "layers": [
            {"name": "a", "shape": [3, 4], "group": "hidden", "smoothness": 1.3},
            {"name": "v", "shape": [5], "group": "vector_norm", "smoothness": 0.7}]},
        "optimizer": {}, "output_path": "unused"}))
    quad = build_task(quad_cfg.task_section)
    for _ in range(100):
        x = {"a": rng.standard_normal((3, 4)), "v": rng.standard_normal(5)}
        _, grads = quadratic_value_grad(quad, x)
        for name in x:
            fd = _central_diff(
                lambda w, name=name: quadratic_value_grad(
                    quad, {**{k: v.copy() for k, v in x.items()}, name: w})[0],
                x[name], h=1e-5)
            assert np.allclose(fd, grads[name], rtol=1e-7, atol=1e-9)

    mlp_cfg = parse_config(json.dumps({
        "task": {"kind": "mlp", "widths": [2, 3, 2], "n_samples": 16,
                 "dataset_seed": 4, "label_noise": 0.1, "seed": 2},
        "optimizer": {}, "output_path": "unused"}))
    mlp = build_task(mlp_cfg.task_section)
    for _ in range(100):
        params = {"w1": rng.standard_normal((3, 2)), "w2": rng.standard_normal((2, 3))}
        _, grads = mlp_value_grad(mlp, params)
        for name in params:
            fd = _central_diff(
                lambda w, name=name: mlp_value_grad(
                    mlp, {**{k: v.copy() for k, v in params.items()}, name: w})[0],
                params[name], h=1e-5)
            assert np.allclose(fd, grads[name], rtol=1e-5, atol=1e-8)
    _report("criterion 10 (gradient correctness)",
            "100 probes each: quadratic to 1e-7, mlp to 1e-5")


def test_criterion_11_replay_determinism(tmp_path):
    raw = {
        "task": {"kind": "quadratic", "preset": "transformer"},
        "optimizer": {"kind": "lanton", "mode": "raw", "noise_option": "II",
                      "noise_update_interval": 1},
        "seeds": [0, 1, 2], "total_steps": 200,
        "output_path": str(tmp_path / "run"),
    }
    cfg = parse_config(json.dumps(raw))
    csv_names = [f"seed_{s}.csv" for s in (0, 1, 2)]

    run_experiment(cfg, workers=1)
    first = {n: (tmp_path / "run" / n).read_bytes() for n in csv_names}
    run_experiment(cfg, workers=1)
    second = {n: (tmp_path / "run" / n).read_bytes() for n in csv_names}
    run_experiment(cfg, workers=3)
    parallel = {n: (tmp_path / "run" / n).read_bytes() for n in csv_names}
    assert first == second == parallel
    _report("criterion 11 (replay determinism)",
            "CSV bytes identical across reruns and worker counts")
