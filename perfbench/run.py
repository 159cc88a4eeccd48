"""lanton benchmark: one workload, end-to-end or traced, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload hetero_twin --seed 0 --seconds 35 --trace 0

Each workload runs in fresh child processes (``worker.py``) with the BLAS
thread count pinned to 1 in the child's environment only and ``src`` on the
child's PYTHONPATH. Several set-up probes give the median ``setup_s``; one
measured child runs the closed loop. With ``--trace 0`` the last stdout line
carries the end-to-end metrics, timed against the reference kernel in
``reference.py``; with ``--trace 1`` the per-layer ones (see
perfbench/README.md). Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = {"full": 19, "tiny": 2}
# Per-child wall limit on top of the measured seconds; keeps the whole
# benchmark inside its 180 s budget even if a child hangs.
CHILD_SLACK_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args, mode: str, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few steps per op, for selftest.py")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "lanton", "__init__.py")):
        print("run.py: src/lanton not found; run from the repository root", file=sys.stderr)
        return 2
    declared = _declared()

    args.out = os.path.join(".perfbench_out", args.workload)
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    env = _child_env()
    timeout = args.seconds + CHILD_SLACK_S
    setups = [_child(args, "setup", env, timeout)["setup_s"] for _ in range(SETUP_PROBES[args.size])]
    res = _child(args, "measure", env, timeout)
    setups.append(res["setup_s"])

    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    for message in res["failures"]:
        print(f"FAILED: {message}")
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setups),
            "steps_per_s": res["steps_per_s"],
            "step_ms_p50": res["step_ms_p50"],
            "step_ms_p95": res["step_ms_p95"],
            "analyze_s": res["analyze_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = declared["end_to_end"]
        print(f"samples: setup_s={len(setups)} set-ups, steps_per_s={res['ops']} ops, "
              f"step_ms_p50/p95={res['step_samples']} steps each over {res['ops']} ops, "
              f"analyze_s={res['ops'] * res['analyze_repeats']} read sides")
        print("wall clock, with interference (not in BENCHMARK.json, see perfbench/README.md): "
              + ", ".join(f"{k}={v!r}" for k, v in res["wall_clock"].items()))
    else:
        trace = res["trace"]
        values = trace["metrics"]
        units = declared["per_layer"]
        print(f"traced: {trace['ops']} ops, {trace['seed_steps']} seed-steps, {trace['spans']} spans "
              f"(spans in {args.out}/spans.csv)")
        for name, row in sorted(trace["rows"].items(), key=lambda kv: -kv[1].get("self_ns", 0)):
            if "role_of" not in row:
                print(f"  {name:36s} calls/step {row['calls'] / trace['seed_steps']:9.4f}  "
                      f"self ms/step {row['self_ns'] / 1e6 / trace['seed_steps']:9.5f}")
    if set(values) != set(units):
        print(f"run.py: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_share = {failed / attempted!r} (failed {failed} of {attempted} seed-runs)")
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
