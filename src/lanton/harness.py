"""Experiment runner: JSON configs, seeded runs, CSV metrics, comparisons.

A run is fully described by a JSON config (see ``parse_config``). For each
seed the runner executes the configured optimizer on the configured task and
writes one CSV of per-step, per-layer telemetry plus a JSON summary. Outputs
are byte-identical for identical (config, seed), independent of how many
seeds execute in parallel, because every random stream is derived from the
seed and no wall-clock data reaches the files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .checks import ConfigError, check_boolean, check_integer, check_number, check_string
from .norms import Group
from .optimizer import (
    BASELINE_KINDS,
    CSV_UNSAFE,
    MODES,
    OPTIONS,
    GradientError,
    LantonConfig,
    LayerSpec,
    LayerStats,
    TelemetryFlags,
    baseline_step,
    init_state,
    lanton_step,
    needs_twins,
)
from .tasks import (
    DatasetSpec,
    MlpTask,
    NoiseProfile,
    gen_dataset,
    heterogeneous_layers,
    layered_quadratic,
    mlp_layers,
    noise_streams,
    perturb_gradients,
    transformer_layers,
    value_grad,
)

__all__ = [
    "ConfigError",
    "TelemetryFlags",
    "ExperimentConfig",
    "RunRecord",
    "RunColumns",
    "parse_config",
    "task_layers",
    "build_task",
    "task_signature",
    "execute_run",
    "run_experiment",
    "emit_metrics",
    "read_metrics",
    "read_columns",
    "columns_of",
    "steps_to_threshold",
    "compare_runs",
    "read_run_config",
    "load_run_dir",
    "seed_csv",
    "CSV_HEADER",
]

CSV_HEADER = ",".join(["step", "loss", "layer"] + [{"h": "H"}.get(f, f) for f in LayerStats._fields])
_ROW_FORMAT = "%s%s" + ",%.17g" * len(LayerStats._fields)
_ROW_FIELDS = CSV_HEADER.count(",") + 1

OPTIMIZER_KINDS = ("lanton",) + BASELINE_KINDS


@dataclass(frozen=True)
class ExperimentConfig:
    task_section: dict
    optimizer_kind: str
    mode: str
    lanton: LantonConfig
    seeds: tuple[int, ...]
    telemetry: TelemetryFlags
    output_path: str
    loss_threshold: float | None

    @property
    def total_steps(self) -> int:
        """The run's step count, which the optimizer's schedule holds."""
        return self.lanton.total_steps

    def __post_init__(self):
        # A seed names its CSV and its summary entry and seeds the run's
        # SeedSequence, so each must be a non-negative integer listed once.
        if not self.seeds:
            raise ConfigError("seeds", "expected a non-empty list of integers")
        for i, seed in enumerate(self.seeds):
            check_integer(seed, f"seeds[{i}]", lo=0)
            if seed in self.seeds[:i]:
                raise ConfigError(f"seeds[{i}]", f"duplicate seed {seed}")
        # Checked here, not only in parse_config, so that --out and sweep's
        # replace() meet the same rule.
        if not self.output_path:
            raise ConfigError("output_path", "expected a non-empty path")


class RunRecord(NamedTuple):
    """One step of telemetry: loss plus per-layer stats. A named tuple, like
    :class:`LayerStats`, so the reader builds one cheaply per step."""

    step: int
    loss: float
    layers: dict[str, LayerStats]
    wall_ns: int = 0


RunColumns = namedtuple("RunColumns", ("losses", "layers") + LayerStats._fields)
RunColumns.__doc__ = """One seed's telemetry as columns: the per-step losses (a list of
floats), the layer names in row order, and one (steps x layers) float64
array per telemetry column, named after the :class:`LayerStats` fields.
Row t is step t, and every step lists every layer."""


# ----------------------------------------------------------------------------
# config parsing


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return obj[key]


_PRESETS = {"transformer": transformer_layers, "heterogeneous": heterogeneous_layers}
_QUAD_PRESET_KEYS = {
    "transformer": {"kind", "preset", "seed", "shape", "smoothness"},
    "heterogeneous": {"kind", "preset", "seed", "shape", "smoothness",
                      "n_layers", "spread", "sigma_hi_base", "lo_frac"},
}
_LAYER_KEYS = {"name", "shape", "group", "smoothness", "sigma_lo", "sigma_hi"}
_MLP_KEYS = {"kind", "widths", "n_samples", "dataset_seed", "label_noise", "seed", "noise"}
_TOP_KEYS = {"task", "optimizer", "seeds", "total_steps", "telemetry",
             "output_path", "loss_threshold"}


def _parse_shape(value, path: str, arity=None) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a non-empty list of dims, got {value!r}")
    dims = tuple(check_integer(d, f"{path}[{i}]", lo=1) for i, d in enumerate(value))
    if arity is not None and len(dims) != arity:
        raise ConfigError(path, f"expected {arity} dims, got {len(dims)}")
    return dims


def _parse_task(section, path: str = "task") -> dict:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    kind = check_string(_require(section, "kind", path), f"{path}.kind", {"quadratic", "mlp"})
    out: dict = {"kind": kind}
    if kind == "mlp":
        _check_keys(section, _MLP_KEYS, path)
        widths = _parse_shape(_require(section, "widths", path), f"{path}.widths", arity=3)
        out["widths"] = list(widths)
        out["n_samples"] = check_integer(section.get("n_samples", 256), f"{path}.n_samples", lo=1)
        out["dataset_seed"] = check_integer(section.get("dataset_seed", 0), f"{path}.dataset_seed")
        out["label_noise"] = check_number(section.get("label_noise", 0.0), f"{path}.label_noise", lo=0.0)
        out["seed"] = check_integer(section.get("seed", 0), f"{path}.seed")
        noise = section.get("noise", {"w1": [0.0, 0.0], "w2": [0.0, 0.0]})
        if not isinstance(noise, dict):
            raise ConfigError(f"{path}.noise", "expected an object")
        _check_keys(noise, {"w1", "w2"}, f"{path}.noise")
        out["noise"] = {}
        for name in ("w1", "w2"):
            pair = noise.get(name, [0.0, 0.0])
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{path}.noise.{name}", "expected [sigma_lo, sigma_hi]")
            lo = check_number(pair[0], f"{path}.noise.{name}[0]", lo=0.0)
            hi = check_number(pair[1], f"{path}.noise.{name}[1]", lo=0.0)
            if lo > hi:
                raise ConfigError(f"{path}.noise.{name}", f"sigma_lo {lo} > sigma_hi {hi}")
            out["noise"][name] = [lo, hi]
        return out

    # quadratic
    preset = section.get("preset")
    if preset is not None:
        preset = check_string(preset, f"{path}.preset", set(_QUAD_PRESET_KEYS))
        _check_keys(section, _QUAD_PRESET_KEYS[preset], path)
        out["preset"] = preset
        out["seed"] = check_integer(section.get("seed", 0), f"{path}.seed")
        out["shape"] = list(_parse_shape(section.get("shape", [8, 8]), f"{path}.shape", arity=2))
        out["smoothness"] = check_number(section.get("smoothness", 1.0), f"{path}.smoothness", lo=0.0, lo_open=True)
        if preset == "heterogeneous":
            out["n_layers"] = check_integer(section.get("n_layers", 6), f"{path}.n_layers", lo=2)
            out["spread"] = check_number(section.get("spread", 100.0), f"{path}.spread", lo=1.0)
            out["sigma_hi_base"] = check_number(section.get("sigma_hi_base", 0.003), f"{path}.sigma_hi_base", lo=0.0)
            out["lo_frac"] = check_number(section.get("lo_frac", 1.0 / 3.0), f"{path}.lo_frac", lo=0.0, hi=1.0)
        return out

    _check_keys(section, {"kind", "seed", "layers"}, path)
    out["seed"] = check_integer(section.get("seed", 0), f"{path}.seed")
    layers = _require(section, "layers", path)
    if not isinstance(layers, list) or not layers:
        raise ConfigError(f"{path}.layers", "expected a non-empty list")
    out["layers"] = []
    seen = set()
    for i, layer in enumerate(layers):
        lp = f"{path}.layers[{i}]"
        if not isinstance(layer, dict):
            raise ConfigError(lp, "expected an object")
        _check_keys(layer, _LAYER_KEYS, lp)
        name = check_string(_require(layer, "name", lp), f"{lp}.name")
        if any(c in name for c in CSV_UNSAFE):
            raise ConfigError(f"{lp}.name", f"{name!r}: a comma or line break would break the CSV")
        if name in seen:
            raise ConfigError(f"{lp}.name", f"duplicate layer name {name!r}")
        seen.add(name)
        group = check_string(_require(layer, "group", lp), f"{lp}.group",
                             {g.value for g in Group})
        arity = 1 if group == Group.VECTOR_NORM.value else 2
        shape = _parse_shape(_require(layer, "shape", lp), f"{lp}.shape", arity=arity)
        lo = check_number(layer.get("sigma_lo", 0.0), f"{lp}.sigma_lo", lo=0.0)
        hi = check_number(layer.get("sigma_hi", 0.0), f"{lp}.sigma_hi", lo=0.0)
        if lo > hi:
            raise ConfigError(f"{lp}.sigma_lo", f"sigma_lo {lo} > sigma_hi {hi}")
        out["layers"].append({
            "name": name,
            "shape": list(shape),
            "group": group,
            "smoothness": check_number(layer.get("smoothness", 1.0), f"{lp}.smoothness", lo=0.0, lo_open=True),
            "sigma_lo": lo,
            "sigma_hi": hi,
        })
    return out


def _parse_optimizer(section, total_steps: int, path: str = "optimizer") -> tuple[str, str, LantonConfig]:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(section, {"kind", "mode"} | {f.name for f in OPTIONS}, path)
    kind = check_string(section.get("kind", "lanton"), f"{path}.kind", OPTIMIZER_KINDS)
    mode = check_string(section.get("mode", "raw"), f"{path}.mode", MODES)
    options = {k: v for k, v in section.items() if k not in ("kind", "mode")}
    try:
        return kind, mode, LantonConfig(total_steps=total_steps, **options)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.field}", exc.message) from None


def _load_document(text: str, field: str = "<document>") -> dict:
    """The top-level object of a JSON document, or a ConfigError at ``field``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(field, "top level must be an object")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, filling defaults.

    Unknown keys and out-of-range values are rejected with the offending
    field path in the message.
    """
    raw = _load_document(text)
    _check_keys(raw, _TOP_KEYS, "")
    task_section = _parse_task(_require(raw, "task", ""))
    total_steps = check_integer(raw.get("total_steps", 1000), "total_steps", lo=1)
    kind, mode, lanton = _parse_optimizer(_require(raw, "optimizer", ""), total_steps)
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list):
        raise ConfigError("seeds", "expected a non-empty list of integers")
    tele_raw = raw.get("telemetry", {})
    if not isinstance(tele_raw, dict):
        raise ConfigError("telemetry", "expected an object")
    _check_keys(tele_raw, {f.name for f in fields(TelemetryFlags)}, "telemetry")
    telemetry = TelemetryFlags(**{k: check_boolean(v, f"telemetry.{k}") for k, v in tele_raw.items()})
    output_path = check_string(raw.get("output_path", "runs/run"), "output_path")
    threshold = raw.get("loss_threshold", None)
    if threshold is not None:
        threshold = check_number(threshold, "loss_threshold")
    return ExperimentConfig(
        task_section=task_section,
        optimizer_kind=kind,
        mode=mode,
        lanton=lanton,
        seeds=tuple(seeds),
        telemetry=telemetry,
        output_path=output_path,
        loss_threshold=threshold,
    )


def canonical_config(cfg: ExperimentConfig) -> dict:
    """Fully-defaulted mirror of the config, stable for hashing and echoing."""
    return {
        "task": cfg.task_section,
        "optimizer": {"kind": cfg.optimizer_kind, "mode": cfg.mode,
                      **{f.name: getattr(cfg.lanton, f.name) for f in OPTIONS}},
        "seeds": list(cfg.seeds),
        "total_steps": cfg.total_steps,
        "telemetry": asdict(cfg.telemetry),
        "output_path": cfg.output_path,
        "loss_threshold": cfg.loss_threshold,
    }


def task_signature(task_section: dict) -> str:
    blob = json.dumps(task_section, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def task_layers(task_section: dict) -> list[tuple[LayerSpec, tuple[float, float]]]:
    """The ``(LayerSpec, (sigma_lo, sigma_hi))`` pairs of a parsed task
    section, in the task's layer order. Draws no data: readers of a run
    directory learn the layers from this without building the task."""
    if task_section["kind"] == "mlp":
        noise = task_section["noise"]
        return [(spec, tuple(noise[spec.name])) for spec in mlp_layers(task_section["widths"])]
    if "preset" in task_section:
        # A parsed preset section holds exactly the layer builder's
        # parameters, plus the seed of the targets.
        params = {k: v for k, v in task_section.items() if k not in ("kind", "preset", "seed")}
        return _PRESETS[task_section["preset"]](**params)
    return [(LayerSpec(l["name"], tuple(l["shape"]), Group(l["group"]), l["smoothness"]),
             (l["sigma_lo"], l["sigma_hi"])) for l in task_section["layers"]]


def build_task(task_section: dict):
    """Instantiate the task object described by a parsed task section."""
    layers = task_layers(task_section)
    if task_section["kind"] != "mlp":
        return layered_quadratic(layers, task_section["seed"])
    widths = task_section["widths"]
    spec = DatasetSpec(
        n_samples=task_section["n_samples"],
        input_dim=widths[0],
        output_dim=widths[2],
        teacher_hidden=widths[1],
        label_noise=task_section["label_noise"],
    )
    return MlpTask(
        widths=tuple(widths),
        dataset=gen_dataset(spec, task_section["dataset_seed"]),
        noise=NoiseProfile({layer.name: radii for layer, radii in layers}),
        seed=task_section["seed"],
    )


# ----------------------------------------------------------------------------
# execution


def execute_run(cfg: ExperimentConfig, seed: int, task=None) -> tuple[list[RunRecord], dict]:
    """Run one seed; returns the telemetry stream and a summary dict."""
    if task is None:
        task = build_task(cfg.task_section)
    layers = task.layers
    params = {k: np.array(v, dtype=np.float64, copy=True) for k, v in task.initial_params().items()}
    state = init_state(layers)
    rngs = noise_streams(seed, layers)
    opt = cfg.lanton
    records: list[RunRecord] = []
    aborted_at = None
    # The seed's scratch arrays: reused by every step, freed with the seed,
    # never shared with another seed's thread.
    work: dict = {}
    # A diverging seed overflows on its way to a non-finite loss, which
    # ends the seed below; numpy's overflow warning would only reach stderr
    # as plain text. Entered once per seed, not once per step.
    with np.errstate(over="ignore"):
        for t in range(cfg.total_steps):
            tick = time.perf_counter_ns()
            loss, exact = value_grad(task, params, work)
            if not math.isfinite(loss):
                aborted_at = t
                break
            twins = None
            if needs_twins(cfg.optimizer_kind, opt, t):
                grads, twins = perturb_gradients(layers, exact, task.noise, rngs, twin=True)
            else:
                grads = perturb_gradients(layers, exact, task.noise, rngs)
            try:
                if cfg.optimizer_kind == "lanton":
                    deltas, stats = lanton_step(
                        state, grads, opt, mode=cfg.mode, twins=twins, params=params,
                        telemetry=cfg.telemetry,
                    )
                else:
                    deltas, stats = baseline_step(
                        cfg.optimizer_kind, state, grads, opt, mode=cfg.mode, params=params,
                        telemetry=cfg.telemetry,
                    )
            except GradientError:
                # A non-finite gradient ends this seed like a non-finite loss;
                # the other seeds run on.
                aborted_at = t
                break
            for name, delta in deltas.items():
                params[name] += delta
            records.append(RunRecord(
                step=t,
                loss=loss,
                layers=stats,
                wall_ns=time.perf_counter_ns() - tick,
            ))
    losses = [r.loss for r in records]
    summary = {
        "seed": seed,
        "steps_run": len(records),
        "final_loss": losses[-1] if losses else None,
        "best_loss": min(losses) if losses else None,
        "aborted_at": aborted_at,
    }
    if cfg.loss_threshold is not None:
        summary["steps_to_threshold"] = steps_to_threshold(losses, cfg.loss_threshold)
    return records, summary


def run_experiment(cfg: ExperimentConfig, workers: int = 1):
    """Execute every seed, write CSVs plus a JSON summary, return both.

    Seeds run independently (optionally in parallel); a NaN/Inf loss or
    gradient aborts that seed's run at the offending step and the remaining
    seeds continue.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    task = build_task(cfg.task_section)
    outdir = cfg.output_path
    os.makedirs(outdir, exist_ok=True)
    _write_text_atomic(
        os.path.join(outdir, "config.json"),
        json.dumps(canonical_config(cfg), sort_keys=True, indent=2) + "\n",
    )
    if workers == 1:
        results = [execute_run(cfg, seed, task=task) for seed in cfg.seeds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda s: execute_run(cfg, s, task=task), cfg.seeds))
    records_by_seed = {}
    per_seed = []
    for seed, (records, summary) in zip(cfg.seeds, results):
        emit_metrics(records, seed_csv(outdir, seed))
        records_by_seed[seed] = records
        per_seed.append(summary)
    summary = {
        "task_signature": task_signature(cfg.task_section),
        "optimizer": {"kind": cfg.optimizer_kind, "mode": cfg.mode},
        "total_steps": cfg.total_steps,
        "seeds": list(cfg.seeds),
        "loss_threshold": cfg.loss_threshold,
        "per_seed": per_seed,
    }
    _write_text_atomic(
        os.path.join(outdir, "summary.json"),
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
    )
    return summary, records_by_seed


# ----------------------------------------------------------------------------
# metrics files


def seed_csv(run_dir: str, seed: int) -> str:
    """The path of one seed's telemetry CSV in a run directory."""
    return os.path.join(run_dir, f"seed_{seed}.csv")


def emit_metrics(records, path) -> None:
    """Write the long-format telemetry CSV (one row per step and layer).

    Floats are printed with 17 significant digits so a re-read reproduces
    them bit-exactly. UTF-8, LF line endings, written atomically.
    """
    lines = [CSV_HEADER]
    for rec in records:
        prefix = f"{rec.step},{rec.loss:.17g},"
        lines += [_ROW_FORMAT % ((prefix, name) + st) for name, st in rec.layers.items()]
    _write_text_atomic(path, "\n".join(lines) + "\n")


def read_metrics(path, layers=None, max_steps=None) -> list[RunRecord]:
    """Re-read an emitted CSV into records (wall times are not persisted).

    The k-th step of the file must be step k, as a run writes them. Every
    row of a step must repeat the step's loss text, and every step must
    list the first step's layers once each, in the same order; anything
    else is a ``ValueError`` naming the file and the step. So is a row
    without seven fields, and a field that does not parse as a number (the
    step as an integer), which also names the column, and a loss that is not
    finite (a run ends a seed before it writes one).

    A reader that knows the run's config holds the file to it: ``layers``
    is the task's layer names in order, which every step must list, and
    ``max_steps`` the run's ``total_steps``, which the file may fall short
    of (a seed may abort) but not exceed.
    """
    lines = _csv_lines(path)
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    records: list[RunRecord] = []
    step_text = loss_text = problem = None
    # In the loop only the unpacking, int() and float() raise; a row that
    # breaks a rule between rows sets ``problem`` and ends the loop.
    try:
        for line in lines[1:]:
            row_step, row_loss, name, eta_eff, ratio, h, dual_grad_norm = line.split(",")
            if row_step != step_text:
                step = int(row_step)
                if step != len(records):
                    problem = f"found step {step} where step {len(records)} was expected"
                    break
                loss = float(row_loss)
                if not math.isfinite(loss):
                    problem = f"step {step}: loss {row_loss!r} is not finite"
                    break
                step_text, loss_text, stats = row_step, row_loss, {}
                records.append(RunRecord(step, loss, stats))
            elif row_loss != loss_text:
                problem = (f"step {step}: loss {row_loss!r} differs from "
                           f"the step's first row ({loss_text!r})")
                break
            elif name in stats:
                problem = f"step {step}: layer {name!r} listed twice"
                break
            # tuple.__new__ skips the named tuple's own __new__ frame: the
            # same object, built once per row.
            stats[name] = tuple.__new__(LayerStats, (float(eta_eff), float(ratio), float(h),
                                                     float(dual_grad_norm)))
    except ValueError:
        problem = _unreadable_row(line)
        if problem is None:
            raise
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    if max_steps is not None and len(records) > max_steps:
        raise ValueError(f"{path}: found step {max_steps} in a run of {max_steps} steps")
    order = list(records[0].layers) if records else []
    if layers is not None and records and order != list(layers):
        raise ValueError(f"{path}: step 0 lists layers {order}, not the config's {list(layers)}")
    for rec in records:
        if list(rec.layers) != order:
            raise ValueError(f"{path}: step {rec.step} lists layers {list(rec.layers)}, "
                             f"not the first step's {order}")
    return records


def read_columns(path, layers, max_steps) -> RunColumns:
    """Read an emitted CSV straight into :class:`RunColumns`: the values
    ``read_metrics(path, layers, max_steps)`` gives, bit for bit, without a
    record per row.

    One pass splits the rows, transposes them and checks the layout as
    whole columns: seven fields a row, the layer column ``layers`` once per
    step, one step text and one loss text per step, the steps ``"0"`` to
    ``"n-1"`` with n at most ``max_steps``, and finite losses. Any file this
    cannot prove valid goes to ``read_metrics``, the statement of the format,
    which raises its error, or which returns the records of a valid file
    written in another form (a step ``01``) to build the columns from.
    """
    layers = tuple(layers)
    columns = _emitted_columns(_csv_lines(path), layers, max_steps)
    if columns is not None:
        return columns
    return columns_of(read_metrics(path, layers, max_steps), layers)


def columns_of(records, layers) -> RunColumns:
    """The :class:`RunColumns` of a record list, each step's rows taken in
    ``layers`` order: the one conversion from records to columns."""
    layers = tuple(layers)
    values = np.array([[rec.layers[name] for name in layers] for rec in records], dtype=np.float64)
    values = values.reshape(len(records), len(layers), len(LayerStats._fields)).transpose(2, 0, 1)
    return RunColumns([rec.loss for rec in records], layers, *np.ascontiguousarray(values))


def _emitted_columns(lines, layers, max_steps) -> RunColumns | None:
    """The columns of a CSV's lines if they are laid out as ``emit_metrics``
    writes a run of ``layers``, in at most ``max_steps`` steps; else None."""
    width = len(layers)
    if not width or len(set(layers)) != width or not lines or lines[0] != CSV_HEADER:
        return None
    rows = [line.split(",") for line in lines[1:]]
    n, extra = divmod(len(rows), width)
    if not n or extra or n > max_steps or set(map(len, rows)) != {_ROW_FIELDS}:
        return None
    step, loss, name, *stats = zip(*rows)
    steps, losses = step[::width], loss[::width]
    if (name != layers * n or steps != tuple(map(str, range(n)))
            or any(step[j::width] != steps or loss[j::width] != losses for j in range(1, width))):
        return None
    try:
        losses = list(map(float, losses))
        arrays = [np.fromiter(map(float, column), np.float64, len(column)).reshape(n, width)
                  for column in stats]
    except ValueError:
        return None
    return RunColumns(losses, layers, *arrays) if all(map(math.isfinite, losses)) else None


def _read_text(path, newline=None) -> str:
    """The text of a UTF-8 file. Bytes that are not UTF-8 give a
    ``ValueError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _csv_lines(path) -> list[str]:
    """The lines of a telemetry CSV, without the newline that ends the last."""
    # Split on LF alone, the only line break the writer emits: a layer name
    # may hold other characters that str.splitlines() would break at.
    lines = _read_text(path, newline="\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _unreadable_row(line: str) -> str | None:
    """Why ``read_metrics`` cannot take a row: a field count other than the
    header's, or the first numeric field, in column order, that does not parse."""
    columns, parts = CSV_HEADER.split(","), line.split(",")
    if len(parts) != len(columns):
        return f"malformed row {line!r}"
    for column, text in zip(columns, parts):
        try:
            {"step": int, "layer": str}.get(column, float)(text)
        except ValueError:
            return (f"step {text!r} is not an integer" if column == "step"
                    else f"step {parts[0]}: {column} {text!r} is not a number")
    return None


def _write_text_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------------
# comparison


# Steps in the trailing mean that smooths a loss curve before its crossing.
_TRAILING_WINDOW = 20


def steps_to_threshold(losses, threshold: float, smoothing: str = "trailing") -> int | None:
    """First step whose (smoothed) loss crosses below the threshold.

    The default smoothing is a trailing mean over up to 20 steps, which
    keeps single noise spikes from producing spurious crossings; "raw" uses
    the losses as-is.
    """
    if smoothing not in ("trailing", "raw"):
        raise ValueError("smoothing must be 'trailing' or 'raw'")
    vals = list(losses)
    for t, loss in enumerate(vals):
        if smoothing == "raw":
            smoothed = loss
        else:
            lo = max(0, t - _TRAILING_WINDOW + 1)
            smoothed = sum(vals[lo:t + 1]) / (t + 1 - lo)
        if smoothed <= threshold:
            return t
    return None


_MISSING = object()


def _echo_mismatch(raw, echo, path: str = "") -> str | None:
    """Path of the first key of the echo that a config document lacks or
    holds another value for, or None when the two agree."""
    if raw == echo:
        return None
    if isinstance(echo, dict) and isinstance(raw, dict):
        subs = ((f"{path}.{k}" if path else k, raw.get(k, _MISSING), v) for k, v in echo.items())
    elif isinstance(echo, list) and isinstance(raw, list) and len(raw) == len(echo):
        subs = ((f"{path}[{i}]", r, e) for i, (r, e) in enumerate(zip(raw, echo)))
    else:
        return path
    return next(filter(None, (_echo_mismatch(r, e, sub) for sub, r, e in subs)), None)


def read_run_config(path: str) -> ExperimentConfig:
    """The typed config of a run directory, read from its ``config.json``.

    The file must parse, and must be the full echo a run writes: a key left
    out would let a default stand in for the value the run used. A
    ``ConfigError`` keeps the field path and names the file.
    """
    config_path = os.path.join(path, "config.json")
    text = _read_text(config_path)
    try:
        cfg = parse_config(text)
        field = _echo_mismatch(json.loads(text), canonical_config(cfg))
        if field is not None:
            raise ConfigError(field, "missing or not as the run wrote it")
    except ConfigError as exc:
        raise ConfigError(exc.field, f"{exc.message} (in {config_path})") from None
    return cfg


def load_run_dir(path: str):
    """The typed config and the per-seed losses of a run directory."""
    cfg = read_run_config(path)
    names = [spec.name for spec, _ in task_layers(cfg.task_section)]
    return cfg, {seed: read_columns(seed_csv(path, seed), names, cfg.total_steps).losses
                 for seed in cfg.seeds}


def compare_runs(paths, threshold: float, smoothing: str = "trailing") -> dict:
    """Compare run directories on steps-to-threshold and final loss.

    All runs must share the same task signature. The pairwise speedup of a
    candidate over a baseline is median steps(baseline) / median steps(candidate),
    so comparing a run with itself yields exactly 1.0. A seed without rows
    (aborted at step 0) never crosses and is left out of the final-loss
    quantiles, which are null when no seed of a run has a row.
    """
    if len(paths) < 2:
        raise ValueError("need at least two run directories")
    runs = []
    signature = None
    for path in paths:
        cfg, losses_by_seed = load_run_dir(path)
        if signature is None:
            signature = task_signature(cfg.task_section)
        elif task_signature(cfg.task_section) != signature:
            raise ValueError(f"{path}: task signature does not match {paths[0]}")
        steps = []
        finals = []
        for losses in losses_by_seed.values():
            s = steps_to_threshold(losses, threshold, smoothing=smoothing)
            steps.append(math.inf if s is None else s)
            if losses:
                finals.append(losses[-1])
        med = statistics.median(steps)
        q25 = q50 = q75 = None
        if finals:
            q25, q50, q75 = (float(q) for q in np.quantile(np.asarray(finals), [0.25, 0.5, 0.75]))
        runs.append({
            "path": path,
            "optimizer": cfg.optimizer_kind,
            "mode": cfg.mode,
            "per_seed_steps_to_threshold": [None if math.isinf(s) else int(s) for s in steps],
            "median_steps_to_threshold": None if math.isinf(med) else med,
            "final_loss_quantiles": {"q25": q25, "q50": q50, "q75": q75},
            "_median": med,
        })
    speedups = []
    for i, cand in enumerate(runs):
        for j, base in enumerate(runs):
            if i == j:
                continue
            if math.isinf(cand["_median"]) or math.isinf(base["_median"]) or cand["_median"] == 0:
                ratio = None
            else:
                ratio = base["_median"] / cand["_median"]
            speedups.append({
                "candidate": cand["path"], "baseline": base["path"], "speedup": ratio,
            })
    for run in runs:
        run.pop("_median")
    return {
        "threshold": threshold,
        "smoothing": smoothing,
        "task_signature": signature,
        "runs": runs,
        "speedups": speedups,
    }
