"""Self-test of the benchmark at tiny size (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that run.py prints every declared metric by
name with its unit, that the outputs pass their checks (pinned digests on the
default seed, invariants on another), that the traced call counts equal the
counts derived from the algorithm, and that span self-times sum to no more
than the traced wall time. It also checks that run.py fails, without a
result line, in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                                 "--size", "tiny", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _check_metrics(result: dict, report: list[str], declared: dict, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {report}"
    assert set(result["metrics"]) == set(declared), f"{what}: metric names differ from BENCHMARK.json"
    for name, unit in declared.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit and math.isfinite(entry["value"]), f"{what}: {name}"
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in report), \
            f"{what}: {name} not printed with its unit"
    assert any(line.startswith("failed_share = ") for line in report), what


def _check_counts() -> None:
    """The derived counts reproduce the per-step dual-norm counts measured
    when the workloads were chosen (full size)."""
    hetero = workloads.expected_calls_per_step(workloads.build("hetero_twin", 0, "full", "x"))
    assert (hetero["norms.dual_norm.noise.calls_per_step"], hetero["norms.dual_norm.tracker.calls_per_step"],
            hetero["norms.dual_norm.telemetry.calls_per_step"]) == (12, 6, 6)
    tr = workloads.expected_calls_per_step(workloads.build("transformer64_twin", 0, "full", "x"))
    assert sum(v for k, v in tr.items() if k.startswith("norms.dual_norm.")) == 12
    mlp = workloads.build("mlp_vs_fixed", 0, "full", "x")
    lanton_side = workloads.expected_calls_per_step(
        workloads.Workload(mlp.name, mlp.size, mlp.runs[:1]))
    assert abs(sum(v for k, v in lanton_side.items() if k.startswith("norms.dual_norm.")) - 4.2) < 0.05


def _check_bare_directory() -> None:
    bare = os.path.join(".perfbench_out", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           "hetero_twin", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare directory run must fail"
    shutil.rmtree(bare)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    _check_counts()
    for name in workloads.NAMES:
        for seed in (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1):
            result, report = _run(name, seed, 0)
            _check_metrics(result, report, e2e, f"{name} seed {seed}")
        result, report = _run(name, workloads.DEFAULT_SEED, 1)
        _check_metrics(result, report, per_layer, f"{name} traced")
        expected = workloads.expected_calls_per_step(
            workloads.build(name, workloads.DEFAULT_SEED, "tiny", "x"))
        for metric, value in expected.items():
            got = result["metrics"][metric]["value"]
            assert got == value, f"{name}: {metric} = {got}, expected {value}"
        with open(os.path.join(".perfbench_out", name, "result.json"), encoding="utf-8") as f:
            trace = json.load(f)["trace"]
        assert 0 < trace["self_ns_total"] <= trace["traced_wall_ns"], f"{name}: self-times exceed wall"
        print(f"selftest {name}: ok")
    _check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
