"""One workload in one process: a set-up probe or a measured closed loop.

Started by run.py with the BLAS thread count pinned in this process's
environment and ``src`` on PYTHONPATH. Prints one JSON object as its last
stdout line. Everything goes through lanton's public API: ``parse_config``
-> ``build_task`` -> ``run_experiment``, then ``lanton diagnose`` / ``lanton
compare`` through ``lanton.cli.main``.

An op is one pass over the workload's runs plus the read side. Ops repeat
back to back (closed loop, one client) until the time budget is spent; the
last op always completes.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout

import reference
import workloads
from tracer import Tracer

# Metrics reported per layer with --trace 1, in the order they are printed.
SELF_MS = (
    "norms.dual_norm", "lmo.newton_schulz", "lmo.lmo", "optimizer.lanton_step",
    "optimizer.baseline_step", "optimizer.alpha_and_ratio",
    "optimizer.update_noise_tracker", "tasks.value_grad",
    "tasks.perturb_gradients", "harness.execute_run",
)
CALLS = (
    "norms.dual_norm.noise", "norms.dual_norm.tracker", "norms.dual_norm.telemetry",
    "lmo.newton_schulz", "optimizer.update_noise_tracker",
)
PER_CALL_MS = (
    "harness.emit_metrics", "harness.read_metrics", "harness.compare_runs",
    "diagnostics.alpha_ratio_envelope", "diagnostics.h_bounds_check",
    "diagnostics.noise_range_estimate", "harness.parse_config", "harness.build_task",
)
# The read side is short next to the run phase, so each op repeats it to
# give analyze_s more samples.
ANALYZE_REPEATS = 3


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _records_equal(mem, disk) -> bool:
    """Wall times are not persisted, so they are left out."""
    return [(r.step, r.loss, r.layers) for r in mem] == [(r.step, r.loss, r.layers) for r in disk]


def _cli(cli_main, argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"lanton {argv[0]} exited with {rc}")
    return json.loads(buf.getvalue())


class Bench:
    """The workload's op, its output checks and the numbers they produce."""

    def __init__(self, wl, harness, cli, pinned: dict | None):
        self.wl = wl
        self.h = harness
        self.cli = cli
        # Captured before any tracer is installed: the checks' own reads
        # must not show up in the traced read_metrics numbers.
        self.read_metrics = harness.read_metrics
        self.pinned = pinned
        self.first_digests: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def prepare(self):
        cfgs = [self.h.parse_config(run.text) for run in self.wl.runs]
        tasks = [self.h.build_task(cfg.task_section) for cfg in cfgs]
        return cfgs, tasks

    def execute(self, cfgs, tasks) -> dict:
        """One op. The reference kernel runs before and after the run phase
        and after each read side, so refs[i], refs[i + 1] bracket segment i."""
        wl = self.wl
        bad: dict[str, set] = {run.label: set() for run in wl.runs}
        outputs = {}
        walls = []
        refs = [reference.measure()]
        run_ns = 0
        for run, cfg in zip(wl.runs, cfgs):
            t0 = time.perf_counter_ns()
            try:
                outputs[run.label] = self.h.run_experiment(cfg)
            except Exception as exc:  # a failing run is counted, not fatal
                self._fail(bad, run.label, cfg.seeds, f"{run.label}: {type(exc).__name__}: {exc}")
            run_ns += time.perf_counter_ns() - t0
        refs.append(reference.measure())
        analyze_ns = []
        for _ in range(ANALYZE_REPEATS):
            t0 = time.perf_counter_ns()
            reports = self._analyze(cfgs, outputs, bad)
            analyze_ns.append(time.perf_counter_ns() - t0)
            refs.append(reference.measure())
        for run, cfg, task in zip(wl.runs, cfgs, tasks):
            if run.label in outputs:
                self._check_run(run, cfg, task, outputs[run.label], reports.get(run.label), bad)
                walls.extend(r.wall_ns for recs in outputs[run.label][1].values() for r in recs)
        self._check_compare(outputs, reports.get("compare"), bad)
        self._check_digests(cfgs, bad)
        self.attempted += len(wl.runs) * wl.n_seeds
        self.failed += sum(len(s) for s in bad.values())
        return {"seed_steps": wl.seed_steps, "run_ns": run_ns,
                "analyze_ns": analyze_ns, "walls": walls, "refs": refs}

    def _fail(self, bad, label, seeds, message) -> None:
        bad[label].update(seeds)
        if len(self.failures) < 20:
            self.failures.append(message)

    def _analyze(self, cfgs, outputs, bad) -> dict:
        first = self.wl.runs[0].label
        reports = {}
        try:
            reports[first] = _cli(self.cli.main, ["diagnose", cfgs[0].output_path])
            if self.wl.compare_threshold is not None:
                reports["compare"] = _cli(self.cli.main, [
                    "compare", *(cfg.output_path for cfg in cfgs),
                    "--threshold", repr(self.wl.compare_threshold)])
        except (RuntimeError, ValueError) as exc:
            for run, cfg in zip(self.wl.runs, cfgs):
                self._fail(bad, run.label, cfg.seeds, f"analyze: {exc}")
        return reports

    def _check_run(self, run, cfg, task, output, diag, bad) -> None:
        summary, records_by_seed = output
        groups = {spec.name: spec.group for spec in task.layers}
        for entry in summary["per_seed"]:
            seed = entry["seed"]
            records = records_by_seed[seed]
            if entry["aborted_at"] is not None or entry["steps_run"] != cfg.total_steps:
                self._fail(bad, run.label, [seed], f"{run.label} seed {seed}: aborted at {entry['aborted_at']}")
                continue
            csv = os.path.join(cfg.output_path, f"seed_{seed}.csv")
            if not _records_equal(records, self.read_metrics(csv)):
                self._fail(bad, run.label, [seed], f"{run.label} seed {seed}: CSV round trip differs")
            for rec in records:
                top: dict = {}
                for name, st in rec.layers.items():
                    top[groups[name]] = max(top.get(groups[name], -math.inf), st.ratio)
                if any(v != 1.0 for v in top.values()):
                    self._fail(bad, run.label, [seed],
                               f"{run.label} seed {seed}: no unit ratio in a group at step {rec.step}")
                    break
        if self.wl.twin_interval_one and diag is not None:
            if not diag["tracker_bounds_applicable"]:
                self._fail(bad, run.label, cfg.seeds, "diagnose skipped the tracker bounds")
            for entry in diag["per_seed"]:
                upper = sum(l["upper_violations"] for l in entry.get("h_bounds", {}).get("layers", []))
                if upper:
                    self._fail(bad, run.label, [entry["seed"]],
                               f"seed {entry['seed']}: {upper} tracker upper-bound violations")

    def _check_compare(self, outputs, report, bad) -> None:
        if self.wl.compare_threshold is None or report is None or len(outputs) != len(self.wl.runs):
            return
        signature = outputs[self.wl.runs[0].label][0]["task_signature"]
        if len(report["runs"]) != 2 or report["task_signature"] != signature:
            for run in self.wl.runs:
                self._fail(bad, run.label, run.config["seeds"], "compare report does not match the runs")

    def _digests(self, cfgs) -> dict:
        out = {}
        for run, cfg in zip(self.wl.runs, cfgs):
            names = [f"seed_{s}.csv" for s in cfg.seeds] + ["summary.json"]
            out[run.label] = {n: _sha256(os.path.join(cfg.output_path, n)) for n in names}
        return out

    def _check_digests(self, cfgs, bad) -> None:
        """Every op reproduces the first op's bytes; the default seed also
        reproduces the digests pinned in digests.json."""
        try:
            current = self._digests(cfgs)
        except OSError as exc:
            for run, cfg in zip(self.wl.runs, cfgs):
                self._fail(bad, run.label, cfg.seeds, f"outputs missing: {exc}")
            return
        if self.first_digests is None:
            self.first_digests = current
        for ref, what in ((self.first_digests, "first op"), (self.pinned, "pinned digest")):
            if ref is None:
                continue
            for run, cfg in zip(self.wl.runs, cfgs):
                for seed in cfg.seeds:
                    name = f"seed_{seed}.csv"
                    if current[run.label][name] != ref[run.label][name]:
                        self._fail(bad, run.label, [seed], f"{run.label}/{name} differs from the {what}")
                if current[run.label]["summary.json"] != ref[run.label]["summary.json"]:
                    self._fail(bad, run.label, cfg.seeds, f"{run.label}/summary.json differs from the {what}")


def _loop(bench: Bench, prepared, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Run ops back to back until `seconds` have passed.

    With a tracer, every second op runs traced (its set-up included), so
    traced and untraced ops see the same machine conditions; the loop then
    ends on a traced op.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
            tracer.install()
        t0 = time.perf_counter_ns()
        op = bench.execute(*(prepared or bench.prepare()))
        op["wall_ns"] = time.perf_counter_ns() - t0
        op["traced"] = traced
        if traced:
            tracer.uninstall()
        ops.append(op)
        prepared = None
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return ops


def _steps_per_s(ops) -> float:
    """Median over ops of seed-steps per second of the run phase."""
    return statistics.median(op["seed_steps"] / (op["run_ns"] / 1e9) for op in ops)


def _quantile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _run_ref(op) -> float:
    """Mean of the two reference-kernel calls around the op's run phase."""
    return (op["refs"][0] + op["refs"][1]) / 2


def _op_ratio(ops) -> float:
    """Median over ops of the run phase's time in reference-kernel units."""
    return statistics.median(op["run_ns"] / _run_ref(op) for op in ops)


def _normalised(ops) -> dict:
    """End-to-end times as multiples of the reference kernel, times REF_NS.

    Each segment is divided by the mean of the two kernel calls run just
    before and just after it, in the same machine state; medians over the
    segments follow.
    Every op repeats the same work on the same inputs (the replay check
    proves it), so step k of one op is the same computation as step k of any
    other: the step profile is the median over ops of each step's ratio.
    """
    scale = reference.REF_NS
    full = [op for op in ops if len(op["walls"]) == op["seed_steps"]] or ops
    profile = [statistics.median(col) for col in zip(*([w / _run_ref(op) for w in op["walls"]] for op in full))]
    analyze = [ns / ((op["refs"][i + 1] + op["refs"][i + 2]) / 2)
               for op in ops for i, ns in enumerate(op["analyze_ns"])]
    return {
        "steps_per_s": ops[0]["seed_steps"] / (_op_ratio(ops) * scale / 1e9),
        "step_ms_p50": _quantile(profile, 0.50) * scale / 1e6,
        "step_ms_p95": _quantile(profile, 0.95) * scale / 1e6,
        "analyze_s": statistics.median(analyze) * scale / 1e9,
        "step_samples": len(profile),
    }


def _wall_clock(ops) -> dict:
    """The same quantities in plain wall-clock time, with interference."""
    walls = [w for op in ops for w in op["walls"]]
    refs = [ns for op in ops for ns in op["refs"]]
    return {
        "steps_per_s": _steps_per_s(ops),
        "step_ms_p50": _quantile(walls, 0.50) / 1e6,
        "step_ms_p99": _quantile(walls, 0.99) / 1e6,
        "analyze_s": statistics.median(ns for op in ops for ns in op["analyze_ns"]) / 1e9,
        "reference_ms_p50": _quantile(refs, 0.50) / 1e6,
        "reference_ms_min": min(refs) / 1e6,
    }


def _git_revision() -> str:
    try:
        with open(".git/HEAD", encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
    }


def _per_layer(tracer: Tracer, seed_steps: int) -> tuple[dict, dict, int]:
    rows = tracer.breakdown()
    zero = {"calls": 0, "incl_ns": 0, "self_ns": 0}
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms_per_step"] = rows.get(name, zero)["self_ns"] / 1e6 / seed_steps
    for name in CALLS:
        metrics[f"{name}.calls_per_step"] = rows.get(name, zero)["calls"] / seed_steps
    for name in PER_CALL_MS:
        row = rows.get(name, zero)
        metrics[f"{name}.ms"] = row["incl_ns"] / 1e6 / row["calls"] if row["calls"] else 0.0
    emits = rows.get("harness.emit_metrics", zero)["calls"]
    metrics["harness.emit_metrics.bytes"] = tracer.emitted_bytes / emits if emits else 0.0
    self_total = sum(row["self_ns"] for row in rows.values() if "role_of" not in row)
    return metrics, rows, self_total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() in the parent just before this process started")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    # Imported here, after the clock started in the parent: part of set-up.
    import lanton.cli as cli
    import lanton.harness as harness

    wl = workloads.build(args.workload, args.seed, args.size, args.out)
    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(os.path.join(os.path.dirname(__file__), "digests.json"), encoding="utf-8") as f:
            pinned = json.load(f).get(f"{wl.name}/{wl.size}")
    bench = Bench(wl, harness, cli, pinned)
    prepared = bench.prepare()
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "provenance": _provenance()}
    if args.trace == 0:
        ops = _loop(bench, prepared, args.seconds)
        result.update(_normalised(ops))
        result.update({"ops": len(ops), "analyze_repeats": ANALYZE_REPEATS, "wall_clock": _wall_clock(ops)})
    else:
        tracer = Tracer()
        ops = _loop(bench, prepared, args.seconds, tracer)
        traced = [op for op in ops if op["traced"]]
        seed_steps = sum(op["seed_steps"] for op in traced)
        metrics, rows, self_total = _per_layer(tracer, seed_steps)
        untraced = [op for op in ops if not op["traced"]]
        metrics["trace.overhead_share"] = _op_ratio(traced) / _op_ratio(untraced) - 1.0
        tracer.write(os.path.join(args.out, "spans.csv"))
        result["trace"] = {
            "metrics": metrics, "rows": rows, "ops": len(traced), "seed_steps": seed_steps,
            "self_ns_total": self_total,
            "traced_wall_ns": sum(op["wall_ns"] for op in traced),
            "spans": len(tracer.spans),
        }
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "digests": bench.first_digests,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
