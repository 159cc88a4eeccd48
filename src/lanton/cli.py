"""Command-line front end: run, compare, diagnose, sweep.

Failures print a machine-readable JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
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
    read_metrics,  # not called here; perfbench/tracer.py patches lanton.cli.read_metrics
    read_run_config,
    read_seeds,
    run_experiment,
    task_layers,
    _json_text,
    _load_document,
    _parse_document,
    _read_text,
    _write_text_atomic,
)
from .tasks import NoiseProfile

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first call rather than at import;
    # parse_args leaves the parser as it found it, so every call shares it.
    # Global flags of run and sweep, accepted before or after the subcommand.
    # SUPPRESS keeps a subparser from overwriting a value the top-level
    # parser already set; main rejects one given before compare or diagnose.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed-override", type=str, default=argparse.SUPPRESS,
                        help="comma-separated seeds replacing the config's list (run, sweep)")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS,
                        help="override the config's output_path (run, sweep)")

    parser = argparse.ArgumentParser(prog="lanton", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config", parents=[common])
    run.add_argument("config", help="path to the JSON config")
    run.add_argument("--workers", type=int, default=1,
                     help="seeds executed in parallel (results do not depend on this)")

    cmp_ = sub.add_parser("compare", help="compare finished run directories")
    cmp_.add_argument("dirs", nargs="+", help="run directories")
    cmp_.add_argument("--threshold", type=float, required=True)
    cmp_.add_argument("--raw-crossing", action="store_true",
                      help="use raw losses instead of the trailing-mean smoothing")

    diag = sub.add_parser("diagnose", help="tracker and ratio bound reports for a run directory")
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
    print(_json_text(summary))
    return 0


def _cmd_compare(args) -> int:
    threshold = check_number(args.threshold, "--threshold")
    report = compare_runs(args.dirs, threshold,
                          smoothing="raw" if args.raw_crossing else "trailing")
    print(_json_text(report))
    return 0


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
    interval_ok = (opt.kind == "lanton" and opt.noise_option == "II"
                   and opt.noise_update_interval == 1 and cfg.telemetry.h)
    per_seed = []
    for seed, columns in read_seeds(args.dir, cfg):
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
    # Telemetry may hold inf or NaN, which the text writes as null.
    text = _json_text(report)
    _write_text_atomic(os.path.join(args.dir, "diagnostics.json"), text + "\n")
    print(text)
    return 0


def _with_path(obj: dict, parts: list[str], value) -> dict:
    """A copy of ``obj`` with ``value`` at the key path ``parts``. Only the
    dicts on the path are copied: the parser leaves a document unchanged."""
    node = obj.get(parts[0])
    tail = value if len(parts) == 1 else _with_path(node if isinstance(node, dict) else {}, parts[1:], value)
    return {**obj, parts[0]: tail}


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
    # Every combination is checked before the first one runs.
    combos = {}
    for combo in itertools.product(*(grid[k] for k in keys)):
        raw = base_raw
        label_parts = []
        for key, value in zip(keys, combo):
            raw = _with_path(raw, key.split("."), value)
            part = f"{key.split('.')[-1]}={value}"
            if any(sep in part for sep in (os.sep, os.altsep) if sep):
                raise ConfigError(f"--grid {key}", f"the run directory label {part!r} holds a path separator")
            label_parts.append(part)
        label = "_".join(label_parts)
        if label in combos:
            raise ConfigError("--grid", f"two combinations share the run directory label {label!r}")
        cfg = _apply_overrides(_parse_document(raw), args)
        combos[label] = replace(cfg, output_path=os.path.join(cfg.output_path, label))
    results = []
    for label, cfg in combos.items():
        summary, _ = run_experiment(cfg, workers=args.workers)
        results.append({"label": label, "output_path": cfg.output_path,
                        "summary": summary})
    print(_json_text({"sweep": results}))
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
        if args.command in ("compare", "diagnose"):
            for dest, flag in (("seed_override", "--seed-override"), ("out", "--out")):
                if hasattr(args, dest):
                    raise ConfigError(flag, f"applies to run and sweep, not {args.command}")
        return handlers[args.command](args)
    except ConfigError as exc:
        payload = {"error": "config", "field": exc.field, "message": str(exc)}
    except (ValueError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
