"""Command-line front end: run, compare, diagnose, sweep.

Failures print a machine-readable JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import replace

from .checks import ConfigError, check_integer, check_number
from .diagnostics import (
    BoundParams,
    alpha_ratio_envelope,
    default_equivalence_constants,
    h_bounds_check,
    noise_range_estimate,
)
from .harness import (
    ExperimentConfig,
    build_task,  # not called here; perfbench/tracer.py patches lanton.cli.build_task
    compare_runs,
    parse_config,
    read_columns,
    read_metrics,  # not called here; perfbench/tracer.py patches lanton.cli.read_metrics
    read_run_config,
    run_experiment,
    seed_csv,
    task_layers,
    _load_document,
    _read_text,
    _write_text_atomic,
)
from .tasks import NoiseProfile

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first call rather than at import;
    # parse_args leaves the parser as it found it, so every call shares it.
    # Global flags accepted before or after the subcommand. SUPPRESS keeps a
    # subparser from overwriting a value the top-level parser already set.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed-override", type=str, default=argparse.SUPPRESS,
                        help="comma-separated seeds replacing the config's list")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="override the config's output_path")

    parser = argparse.ArgumentParser(prog="lanton", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config", parents=[common])
    run.add_argument("config", help="path to the JSON config")
    run.add_argument("--workers", type=int, default=1,
                     help="seeds executed in parallel (results do not depend on this)")

    cmp_ = sub.add_parser("compare", help="compare finished run directories", parents=[common])
    cmp_.add_argument("dirs", nargs="+", help="run directories")
    cmp_.add_argument("--threshold", type=float, required=True)
    cmp_.add_argument("--raw-crossing", action="store_true",
                      help="use raw losses instead of the trailing-mean smoothing")

    diag = sub.add_parser("diagnose", help="tracker and ratio bound reports for a run directory",
                          parents=[common])
    diag.add_argument("dir")
    diag.add_argument("--delta", type=float, default=0.05)

    sweep = sub.add_parser("sweep", help="run a config over a parameter grid", parents=[common])
    sweep.add_argument("config")
    sweep.add_argument("--grid", required=True,
                       help="JSON file mapping dotted config paths to value lists")
    sweep.add_argument("--workers", type=int, default=1)
    return parser


def _load_config(path: str, args) -> ExperimentConfig:
    return _apply_overrides(parse_config(_read_text(path)), args)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    seed_override = getattr(args, "seed_override", None)
    if seed_override is not None:
        try:
            seeds = tuple(int(s) for s in seed_override.split(","))
        except ValueError as exc:
            raise ConfigError("--seed-override", "expected comma-separated integers") from exc
        cfg = replace(cfg, seeds=seeds)
    out = getattr(args, "out", None)
    if out is not None:
        cfg = replace(cfg, output_path=out)
    return cfg


def _cmd_run(args) -> int:
    check_integer(args.workers, "--workers", lo=1)
    cfg = _load_config(args.config, args)
    summary, _ = run_experiment(cfg, workers=args.workers)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_compare(args) -> int:
    threshold = check_number(args.threshold, "--threshold")
    report = compare_runs(args.dirs, threshold,
                          smoothing="raw" if args.raw_crossing else "trailing")
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _finite_or_null(obj):
    """``obj`` with every non-finite float, which JSON cannot write, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _cmd_diagnose(args) -> int:
    delta = check_number(args.delta, "--delta", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    cfg = read_run_config(args.dir)
    opt = cfg.lanton
    # The layers and noise radii come from the config alone: the task (an
    # MLP's dataset, a quadratic's targets) is never built.
    layers = task_layers(cfg.task_section)
    layer_groups = {spec.name: spec.group.value for spec, _ in layers}
    consts = [default_equivalence_constants(spec.group, spec.shape) for spec, _ in layers]
    c1 = min(c for c, _ in consts)
    c2 = max(c for _, c in consts)
    profile = NoiseProfile({spec.name: radii for spec, radii in layers})
    params = BoundParams(c1=c1, c2=c2, delta=delta, beta2=opt.beta2, profile=profile)
    # The tracker envelopes hold for a twin-gradient tracker updated every
    # step. A check whose telemetry column the run switched off is skipped.
    interval_ok = (cfg.optimizer_kind == "lanton" and opt.noise_option == "II"
                   and opt.noise_update_interval == 1 and cfg.telemetry.h)
    per_seed = []
    for seed in cfg.seeds:
        columns = read_columns(seed_csv(args.dir, seed), list(layer_groups), cfg.total_steps)
        # A seed that aborted at step 0 wrote no rows: it gets null reports.
        rows = bool(columns.losses)
        entry = {"seed": seed, "alpha_ratio": None}
        if cfg.telemetry.ratio and rows:
            entry["alpha_ratio"] = alpha_ratio_envelope(columns, params, opt.alpha, layer_groups=layer_groups)
        if interval_ok:
            entry["h_bounds"] = h_bounds_check(columns, params) if rows else None
            entry["noise_range"] = (noise_range_estimate(columns, opt.beta2, layer_groups=layer_groups)
                                    if rows else None)
        per_seed.append(entry)
    report = {
        "run": args.dir,
        "c1": c1,
        "c2": c2,
        "delta": delta,
        "tracker_bounds_applicable": interval_ok,
        "per_seed": per_seed,
    }
    # Telemetry may hold inf or NaN; allow_nan=False turns one missed here
    # into an error rather than a token that is not JSON.
    text = json.dumps(_finite_or_null(report), sort_keys=True, indent=2, allow_nan=False)
    _write_text_atomic(os.path.join(args.dir, "diagnostics.json"), text + "\n")
    print(text)
    return 0


def _set_path(obj: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = obj
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _cmd_sweep(args) -> int:
    check_integer(args.workers, "--workers", lo=1)
    base_raw = _load_document(_read_text(args.config))
    grid = _load_document(_read_text(args.grid), "--grid")
    if not grid:
        raise ConfigError("--grid", "expected a non-empty object of path -> values")
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ConfigError(f"--grid {key}", "expected a non-empty list of values")
    results = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        raw = json.loads(json.dumps(base_raw))
        label_parts = []
        for key, value in zip(keys, combo):
            _set_path(raw, key, value)
            label_parts.append(f"{key.split('.')[-1]}={value}")
        label = "_".join(label_parts)
        cfg = parse_config(json.dumps(raw))
        cfg = _apply_overrides(cfg, args)
        cfg = replace(cfg, output_path=os.path.join(cfg.output_path, label))
        summary, _ = run_experiment(cfg, workers=args.workers)
        results.append({"label": label, "output_path": cfg.output_path,
                        "summary": summary})
    print(json.dumps({"sweep": results}, sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "diagnose": _cmd_diagnose,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        payload = {"error": "config", "field": exc.field, "message": str(exc)}
    except (ValueError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
