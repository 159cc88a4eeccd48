"""Workload definitions: the configs each benchmark op runs, per size.

A workload is one or two lanton configs run back to back in one op, followed
by the read side (``lanton diagnose``, plus ``lanton compare`` when there are
two runs). The benchmark seed picks the task seed and the optimizer seeds, so
the same ``--seed`` always gives the same inputs and the same output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Seed whose output digests are pinned in digests.json.
DEFAULT_SEED = 0

_TWIN = {"kind": "lanton", "mode": "raw", "noise_option": "II",
         "noise_update_interval": 1, "eta_max": 5e-3, "eta_min": 5e-4}

_MLP_TASK = {"kind": "mlp", "widths": [32, 128, 8], "n_samples": 1024,
             "noise": {"w1": [0.002, 0.002], "w2": [0.05, 0.2]}}

# (n_seeds, total_steps) per size; "full" is what run.py measures by default,
# "tiny" is what selftest.py runs.
_SIZES = {
    "hetero_twin": {"full": (4, 150), "tiny": (2, 12)},
    "transformer64_twin": {"full": (2, 100), "tiny": (2, 6)},
    "mlp_vs_fixed": {"full": (2, 100), "tiny": (2, 25)},
}

# Loss level for `lanton compare` on mlp_vs_fixed; at full size both
# optimizers cross it (20-step trailing mean) on every seed tried.
MLP_COMPARE_THRESHOLD = 0.45


@dataclass(frozen=True)
class Run:
    label: str
    config: dict

    @property
    def text(self) -> str:
        return json.dumps(self.config, sort_keys=True)


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    runs: tuple[Run, ...]
    compare_threshold: float | None = None

    @property
    def twin_interval_one(self) -> bool:
        """Twin-gradient tracker on every step: the tracker bounds apply."""
        opt = self.runs[0].config["optimizer"]
        return opt.get("noise_option") == "II" and opt.get("noise_update_interval") == 1

    @property
    def n_seeds(self) -> int:
        return len(self.runs[0].config["seeds"])

    @property
    def total_steps(self) -> int:
        return self.runs[0].config["total_steps"]

    @property
    def seed_steps(self) -> int:
        """Seed-steps one op completes (all runs, all seeds)."""
        return len(self.runs) * self.n_seeds * self.total_steps


NAMES = tuple(_SIZES)


def build(name: str, seed: int, size: str, out_root: str) -> Workload:
    if name not in _SIZES:
        raise ValueError(f"unknown workload {name!r}; expected one of {list(NAMES)}")
    n_seeds, steps = _SIZES[name][size]
    seeds = [seed * n_seeds + i for i in range(n_seeds)]

    def run(label, task, optimizer):
        return Run(label, {
            "task": task, "optimizer": optimizer, "seeds": seeds,
            "total_steps": steps, "output_path": f"{out_root}/{label}",
        })

    if name == "hetero_twin":
        task = {"kind": "quadratic", "preset": "heterogeneous", "spread": 100.0, "seed": seed}
        return Workload(name, size, (run("lanton", task, _TWIN),))
    if name == "transformer64_twin":
        task = {"kind": "quadratic", "preset": "transformer", "shape": [64, 64], "seed": seed}
        return Workload(name, size, (run("lanton", task, _TWIN),))
    task = dict(_MLP_TASK, seed=seed, dataset_seed=seed)
    return Workload(name, size, (
        run("lanton", task, {"kind": "lanton"}),
        run("fixed", task, {"kind": "fixed_rate_lmo"}),
    ), MLP_COMPARE_THRESHOLD)


def expected_calls_per_step(wl: Workload) -> dict[str, float]:
    """Exact per-seed-step call counts the traced run must reproduce.

    Derived from the algorithm, not measured: every layer draws one noise
    sample per gradient (two on twin steps), logs one telemetry dual norm per
    step, and on tracker steps folds one dual-norm difference per layer
    (option I skips step 0, which has no previous gradient). Every workload
    here uses hidden-group layers only, so each LMO runs Newton-Schulz.
    """
    n_layers = {"hetero_twin": 6, "transformer64_twin": 3, "mlp_vs_fixed": 2}[wl.name]
    steps = wl.total_steps
    per_run = []
    for run in wl.runs:
        opt = run.config["optimizer"]
        lanton = opt["kind"] == "lanton"
        interval = opt.get("noise_update_interval", 10)
        twin = lanton and opt.get("noise_option", "I") == "II"
        update_steps = len(range(0, steps, interval)) if lanton else 0
        diff_steps = update_steps if twin else max(update_steps - 1, 0)
        per_run.append({
            "norms.dual_norm.noise.calls_per_step":
                n_layers * (steps + (update_steps if twin else 0)),
            "norms.dual_norm.tracker.calls_per_step": n_layers * diff_steps,
            "norms.dual_norm.telemetry.calls_per_step": n_layers * steps,
            "lmo.newton_schulz.calls_per_step": n_layers * steps,
            "optimizer.update_noise_tracker.calls_per_step": n_layers * update_steps,
        })
    total_steps = len(wl.runs) * steps
    return {k: sum(r[k] for r in per_run) / total_steps for k in per_run[0]}
