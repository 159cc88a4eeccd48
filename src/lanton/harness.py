"""Experiment runner: JSON configs, seeded runs, CSV metrics, comparisons.

A run is fully described by a JSON config (see ``parse_config``). For each
seed the runner executes the configured optimizer on the configured task and
writes one CSV of per-step, per-layer telemetry plus a JSON summary. Outputs
are byte-identical for identical (config, seed), independent of how many
seeds execute in parallel, because every random stream is derived from the
seed and no wall-clock data reaches the files.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import statistics
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .checks import CHECKS, ConfigError, check_integer, check_number, check_string
from .norms import Group
from .optimizer import (
    OPTIONS,
    GradientError,
    LantonConfig,
    LayerSpec,
    LayerStats,
    TelemetryFlags,
    baseline_step,
    check_layer_name,
    init_state,
    lanton_step,
    needs_twins,
)
from .tasks import (
    MlpTask,
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
    "read_seeds",
    "seed_csv",
    "columns_path",
    "CSV_HEADER",
]

CSV_HEADER = ",".join(["step", "loss", "layer"] + [{"h": "H"}.get(f, f) for f in LayerStats._fields])
_ROW_FORMAT = "%s%s" + ",%.17g" * len(LayerStats._fields)
_ROW_FIELDS = CSV_HEADER.count(",") + 1


@dataclass(frozen=True)
class ExperimentConfig:
    task_section: dict
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
        try:
            ok = b"\0" not in os.fsencode(self.output_path)
        except UnicodeEncodeError:
            ok = False
        if not ok:
            raise ConfigError("output_path", f"{self.output_path!r}: not a path the file system can take")


class RunRecord(NamedTuple):
    """One step of telemetry: loss plus per-layer stats, as ``execute_run``
    returns it and ``read_metrics`` reads it back. A named tuple, like
    :class:`LayerStats`."""

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


_REQUIRED = object()


def _key(check, default=_REQUIRED, **bounds) -> tuple:
    """A key of a config section: its check, its default (or ``_REQUIRED``)
    and the check's bounds. A check is a JSON type, run by its ``CHECKS``
    function; a nested section's table; or a function of ``(value, field,
    section, **bounds)``, where ``section`` holds the keys checked before it.
    A key whose default is None may also be null."""
    return check, default, bounds


def _walk(section, table: dict, path: str) -> dict:
    """The checked copy of a config section, every default filled in.
    ``table`` maps each key, in the order they are checked, to its ``_key``."""
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    for key in section:
        if key not in table:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    out = {}
    for name, (check, default, bounds) in table.items():
        field = f"{path}.{name}" if path else name
        value = section.get(name, default)
        if value is _REQUIRED:
            raise ConfigError(field, "missing required key")
        if value is None is default:
            out[name] = None
        elif isinstance(check, dict):
            out[name] = _walk(value, check, field)
        elif check in CHECKS:
            out[name] = CHECKS[check](value, field, **bounds)
        else:
            out[name] = check(value, field, out, **bounds)
    return out


def _shape(value, path: str, section: dict, arity=None) -> list[int]:
    """A list of ``arity`` positive dims; a layer's arity is its group's."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a non-empty list of dims, got {value!r}")
    dims = [check_integer(d, f"{path}[{i}]", lo=1) for i, d in enumerate(value)]
    if arity is None:
        arity = Group(section["group"]).rank
    if len(dims) != arity:
        raise ConfigError(path, f"expected {arity} dims, got {len(dims)}")
    return dims


def _radius_order(lo: float, hi: float, path: str) -> list[float]:
    if lo > hi:
        raise ConfigError(path, f"sigma_lo {lo} > sigma_hi {hi}")
    return [lo, hi]


def _radii(value, path: str, _noise) -> list[float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, "expected [sigma_lo, sigma_hi]")
    return _radius_order(*(check_number(r, f"{path}[{i}]", lo=0.0) for i, r in enumerate(value)), path)


def _layer_name(value, path: str, _layer) -> str:
    return check_layer_name(value, path)


def _layers(value, path: str, _task) -> list[dict]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list")
    layers = {}
    for i, layer in enumerate(value):
        layer = _walk(layer, _LAYER, f"{path}[{i}]")
        if layer["name"] in layers:
            raise ConfigError(f"{path}[{i}].name", f"duplicate layer name {layer['name']!r}")
        _radius_order(layer["sigma_lo"], layer["sigma_hi"], f"{path}[{i}].sigma_lo")
        layers[layer["name"]] = layer
    return list(layers.values())


# The tables of the task forms. A preset section holds exactly its layer
# builder's parameters, besides kind, preset and the seed of the targets.
_TASK_KINDS = ("quadratic", "mlp")
_PRESETS = {"transformer": transformer_layers, "heterogeneous": heterogeneous_layers}
_KIND, _SEED = _key(str, choices=_TASK_KINDS), _key(int, 0, lo=0)
_SMOOTHNESS = _key(float, 1.0, lo=0.0, lo_open=True)
_MLP = dict(kind=_KIND, widths=_key(_shape, arity=3), n_samples=_key(int, 256, lo=1), dataset_seed=_SEED,
            label_noise=_key(float, 0.0, lo=0.0), seed=_SEED,
            noise=_key(dict(w1=_key(_radii, [0.0, 0.0]), w2=_key(_radii, [0.0, 0.0])), {}))
_TRANSFORMER = dict(kind=_KIND, preset=_key(str, choices=_PRESETS), seed=_SEED,
                    shape=_key(_shape, [8, 8], arity=2), smoothness=_SMOOTHNESS)
_HETEROGENEOUS = dict(_TRANSFORMER, n_layers=_key(int, 6, lo=2), spread=_key(float, 100.0, lo=1.0),
                      sigma_hi_base=_key(float, 0.003, lo=0.0), lo_frac=_key(float, 1.0 / 3.0, lo=0.0, hi=1.0))
_LAYER_LIST = dict(kind=_KIND, seed=_SEED, layers=_key(_layers))
# One layer of a layer list. Its name is unique in the list, and its
# sigma_lo is at most its sigma_hi.
_LAYER = dict(name=_key(_layer_name), group=_key(str, choices=[g.value for g in Group]), shape=_key(_shape),
              sigma_lo=_key(float, 0.0, lo=0.0), sigma_hi=_key(float, 0.0, lo=0.0), smoothness=_SMOOTHNESS)


def _parse_task(section, path: str, _top) -> dict:
    """A task section, walked with the table its ``kind`` and ``preset`` name."""
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    if "kind" not in section:
        raise ConfigError(f"{path}.kind", "missing required key")
    if check_string(section["kind"], f"{path}.kind", _TASK_KINDS) == "mlp":
        return _walk(section, _MLP, path)
    preset = section.get("preset")
    if preset is None:
        return _walk(section, _LAYER_LIST, path)
    check_string(preset, f"{path}.preset", _PRESETS)
    out = _walk(section, _HETEROGENEOUS if preset == "heterogeneous" else _TRANSFORMER, path)
    # The top layer's upper noise radius is sigma_hi_base * spread.
    if preset == "heterogeneous" and not math.isfinite(out["sigma_hi_base"] * out["spread"]):
        raise ConfigError(f"{path}.sigma_hi_base", f"{out['sigma_hi_base']} times spread "
                          f"{out['spread']}, the top noise radius, is not finite")
    return out


def _load_document(text: str, field: str = "<document>") -> dict:
    """The top-level object of a JSON document, or a ConfigError at ``field``."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers a JSONDecodeError and an integer literal past
        # Python's digit limit; RecursionError, arrays or objects nested too deep.
        raise ConfigError(field, f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(field, "top level must be an object")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, filling defaults.

    Unknown keys and out-of-range values are rejected with the offending
    field path in the message.
    """
    return _parse_document(_load_document(text))


def _seed_list(value, path: str, _top) -> tuple:
    # ExperimentConfig checks each seed, after the other keys.
    if not isinstance(value, list):
        raise ConfigError(path, "expected a non-empty list of integers")
    return tuple(value)


# The optimizer section: every LantonConfig option.
_OPTIMIZER = {f.name: _key(f.metadata["type"], f.default, **f.metadata["bounds"]) for f in OPTIONS}
_TOP = dict(task=_key(_parse_task), total_steps=_key(int, 1000, lo=1), optimizer=_key(_OPTIMIZER),
            seeds=_key(_seed_list, [0]),
            telemetry=_key({f.name: _key(bool, f.default) for f in fields(TelemetryFlags)}, {}),
            output_path=_key(str, "runs/run"), loss_threshold=_key(float, None))


def _parse_document(raw: dict) -> ExperimentConfig:
    """The typed config of a decoded config document. ``raw`` is only read:
    the result shares no mutable object with it, and it is left unchanged."""
    top = _walk(raw, _TOP, "")
    try:
        lanton = LantonConfig(top["total_steps"], **top["optimizer"])
    except ConfigError as exc:
        # Every option passed the walk, so this is a rule across keys:
        # eta_min <= eta_max, or warmup_steps < total_steps.
        raise ConfigError(f"optimizer.{exc.field}", exc.message) from None
    return ExperimentConfig(top["task"], lanton, top["seeds"], TelemetryFlags(**top["telemetry"]),
                            top["output_path"], top["loss_threshold"])


def canonical_config(cfg: ExperimentConfig) -> dict:
    """Fully-defaulted mirror of the config, stable for hashing and echoing."""
    return {
        "task": cfg.task_section,
        "optimizer": {f.name: getattr(cfg.lanton, f.name) for f in OPTIONS},
        "seeds": list(cfg.seeds),
        "total_steps": cfg.total_steps,
        "telemetry": asdict(cfg.telemetry),
        "output_path": cfg.output_path,
        "loss_threshold": cfg.loss_threshold,
    }


def task_signature(task_section: dict) -> str:
    blob = json.dumps(task_section, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def task_layers(task_section: dict) -> tuple[LayerSpec, ...]:
    """The ``LayerSpec``s of a parsed task section, in the task's layer
    order; each spec holds its layer's noise radii. Draws no data: readers
    of a run directory learn the layers from this without building the task."""
    if task_section["kind"] == "mlp":
        return mlp_layers(task_section["widths"], task_section["noise"])
    if "preset" in task_section:
        # A parsed preset section holds exactly the layer builder's
        # parameters, plus the seed of the targets.
        params = {k: v for k, v in task_section.items() if k not in ("kind", "preset", "seed")}
        return _PRESETS[task_section["preset"]](**params)
    return tuple(LayerSpec(l["name"], tuple(l["shape"]), Group(l["group"]), l["smoothness"],
                           l["sigma_lo"], l["sigma_hi"]) for l in task_section["layers"])


def build_task(task_section: dict):
    """Instantiate the task object described by a parsed task section."""
    layers = task_layers(task_section)
    if task_section["kind"] != "mlp":
        return layered_quadratic(layers, task_section["seed"])
    dataset = gen_dataset(task_section["widths"], task_section["n_samples"], task_section["label_noise"],
                          task_section["dataset_seed"])
    return MlpTask(layers, dataset, seed=task_section["seed"])


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
            try:
                loss, exact = value_grad(task, params, work)
                if not math.isfinite(loss):
                    aborted_at = t
                    break
                twins = None
                if needs_twins(opt, t):
                    grads, twins = perturb_gradients(layers, exact, rngs, twin=True)
                else:
                    grads = perturb_gradients(layers, exact, rngs)
                if opt.kind == "lanton":
                    deltas, stats = lanton_step(state, grads, opt, twins, params, cfg.telemetry)
                else:
                    deltas, stats = baseline_step(state, grads, opt, params, cfg.telemetry)
                for name, delta in deltas.items():
                    params[name] += delta
                records.append(RunRecord(
                    step=t,
                    loss=loss,
                    layers=stats,
                    wall_ns=time.perf_counter_ns() - tick,
                ))
            except GradientError:
                # A non-finite gradient or tracker value ends this seed like
                # a non-finite loss; the other seeds run on.
                aborted_at = t
                break
            except Exception as exc:
                exc.args = (f"step {t}: {exc}",)
                raise
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
    seeds continue. ``config.json`` is written before the first seed runs,
    each ``seed_<s>.csv`` as soon as that seed and every seed before it in
    ``cfg.seeds`` have ended, and ``summary.json`` after the last. A seed
    that raises does not stop the others: every other seed still runs and
    writes its CSV, no ``summary.json`` is written, and then the first
    failing seed's exception reaches the caller, its message prefixed with
    ``seed <s>: ``, then ``step <t>: `` when step t raised it. Before it
    writes ``config.json`` it removes, where they exist, ``summary.json``,
    ``diagnostics.json`` and each listed seed's CSV and columns file, so a
    run that fails or is killed leaves no earlier run's files beside its
    own. An ``output_path`` that is a file, or lies under one, raises a
    ``ConfigError`` naming it; so do a task too large to build in memory and
    an MLP ``label_noise`` that overflows the labels, before any file is
    written.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    try:
        task = build_task(cfg.task_section)
    except MemoryError as exc:
        raise ConfigError("task", f"too large to build: {str(exc) or 'out of memory'}") from None
    except ConfigError as exc:
        # A task key that only the build can check, such as a label_noise
        # that overflows the labels.
        raise ConfigError(f"task.{exc.field}", exc.message) from None
    outdir = cfg.output_path
    try:
        os.makedirs(outdir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError("output_path", f"{outdir!r}: a file is in the way of the run directory") from None
    # An earlier run's files go first: a run that fails or is killed leaves
    # its seeds' files missing, which both readers reject, not another run's.
    stale = [os.path.join(outdir, "summary.json"), os.path.join(outdir, "diagnostics.json")]
    for seed in cfg.seeds:
        stale += [seed_csv(outdir, seed), columns_path(seed_csv(outdir, seed))]
    for path in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    _write_text_atomic(os.path.join(outdir, "config.json"), _json_text(canonical_config(cfg)) + "\n")
    layer_names = [spec.name for spec in task.layers]

    def outcome(seed):
        # A seed's exception is its result, so that the other seeds run on.
        try:
            return execute_run(cfg, seed, task=task)
        except Exception as exc:
            return exc

    records_by_seed, per_seed, failures = {}, [], []
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(outcome, cfg.seeds)
        else:
            # Imported here: a serial run builds no pool and imports none of its modules.
            from concurrent.futures import ThreadPoolExecutor
            results = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map(outcome, cfg.seeds)
        for seed, result in zip(cfg.seeds, results):
            if isinstance(result, Exception):
                failures.append((seed, result))
                continue
            records, summary = result
            path = seed_csv(outdir, seed)
            emit_metrics(records, path)
            _store_columns(records, layer_names, path)
            records_by_seed[seed] = records
            per_seed.append(summary)
    if failures:
        seed, exc = failures[0]
        exc.args = (f"seed {seed}: {exc}",)
        raise exc
    summary = {
        "task_signature": task_signature(cfg.task_section),
        "optimizer": {"kind": cfg.lanton.kind, "mode": cfg.lanton.mode},
        "total_steps": cfg.total_steps,
        "seeds": list(cfg.seeds),
        "loss_threshold": cfg.loss_threshold,
        "per_seed": per_seed,
    }
    _write_text_atomic(os.path.join(outdir, "summary.json"), _json_text(summary) + "\n")
    return summary, records_by_seed


# ----------------------------------------------------------------------------
# metrics files


def seed_csv(run_dir: str, seed: int) -> str:
    """The path of one seed's telemetry CSV in a run directory."""
    return os.path.join(run_dir, f"seed_{seed}.csv")


def columns_path(csv_path: str) -> str:
    """The path of the columns file a run stores beside a telemetry CSV:
    ``seed_<s>.columns`` beside ``seed_<s>.csv``."""
    return os.path.splitext(csv_path)[0] + ".columns"


def emit_metrics(records, path) -> None:
    """Write the long-format telemetry CSV (one row per step and layer).

    Floats are printed with 17 significant digits so a re-read reproduces
    them bit-exactly. UTF-8, LF line endings, written atomically.
    """
    lines = [CSV_HEADER]
    for rec in records:
        prefix = f"{rec.step},{rec.loss:.17g},"
        lines += [_ROW_FORMAT % ((prefix, name) + st) for name, st in rec.layers.items()]
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
    # Split on LF alone, the only line break the writer emits: a layer name
    # may hold other characters that str.splitlines() would break at.
    lines = _read_text(path, newline="\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    records: list[RunRecord] = []
    step_text = loss_text = None
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != _ROW_FIELDS:
            raise ValueError(f"{path}: malformed row {line!r}")
        row_step, row_loss, name, *values = parts
        if row_step != step_text:
            try:
                step = int(row_step)
            except ValueError:
                raise ValueError(f"{path}: step {row_step!r} is not an integer") from None
            if step != len(records):
                raise ValueError(f"{path}: found step {step} where step {len(records)} was expected")
            try:
                loss = float(row_loss)
            except ValueError:
                raise ValueError(f"{path}: step {row_step}: loss {row_loss!r} is not a number") from None
            if not math.isfinite(loss):
                raise ValueError(f"{path}: step {step}: loss {row_loss!r} is not finite")
            step_text, loss_text, stats = row_step, row_loss, {}
            records.append(RunRecord(step, loss, stats))
        elif row_loss != loss_text:
            raise ValueError(f"{path}: step {step}: loss {row_loss!r} differs from "
                             f"the step's first row ({loss_text!r})")
        elif name in stats:
            raise ValueError(f"{path}: step {step}: layer {name!r} listed twice")
        try:
            stats[name] = LayerStats._make(map(float, values))
        except ValueError:
            # Name the first telemetry field, in column order, that does not parse.
            for column, text in zip(CSV_HEADER.split(",")[3:], values):
                try:
                    float(text)
                except ValueError:
                    raise ValueError(f"{path}: step {row_step}: {column} {text!r} is not a number") from None
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
    """The :class:`RunColumns` of an emitted CSV:
    ``columns_of(read_metrics(path, layers, max_steps), layers)``, bit for bit.

    A run stores each seed's columns beside its CSV, in the file
    ``columns_path`` names. They are returned without parsing the CSV when
    that file holds the SHA-256 of the CSV's current bytes and of its own
    payload, lists ``layers`` and at most ``max_steps`` steps, and its
    losses are finite. Any other
    columns file, or none, leaves the CSV to ``read_metrics``, the statement
    of the format, whose errors are the reader's errors.
    """
    layers = tuple(layers)
    columns = _stored_columns(path, layers, max_steps)
    if columns is not None:
        return columns
    return columns_of(read_metrics(path, layers, max_steps), layers)


def columns_of(records, layers) -> RunColumns:
    """The :class:`RunColumns` of a record list, each step's rows taken in
    ``layers`` order: the one conversion from records to columns."""
    layers = tuple(layers)
    shape = (len(records), len(layers), len(LayerStats._fields))
    stats = itertools.chain.from_iterable(rec.layers[name] for rec in records for name in layers)
    values = np.fromiter(stats, np.float64, math.prod(shape)).reshape(shape).transpose(2, 0, 1)
    return RunColumns([rec.loss for rec in records], layers, *np.ascontiguousarray(values))


# The first line of a columns file. The second is a JSON header; the rest is
# the payload: the losses, then each LayerStats column (steps x layers,
# row-major), all little-endian float64.
_COLUMNS_MAGIC = b"lanton-columns 2"


def _store_columns(records, layers, path) -> None:
    """Write the columns file of the CSV that ``emit_metrics`` wrote at
    ``path`` from ``records``. The header binds the file to the bytes of the
    CSV at ``path``, read back here, and to its own payload by their
    SHA-256s. Each NaN is stored as ``float("nan")``, the value the CSV's
    ``nan`` parses to, so the stored bits are those a read of the CSV gives."""
    with open(path, "rb") as f:
        csv = f.read()
    columns = columns_of(records, layers)
    values = np.concatenate([np.array(columns.losses, dtype=np.float64), *(c.ravel() for c in columns[2:])])
    values[np.isnan(values)] = math.nan
    payload = values.astype("<f8").tobytes()
    header = json.dumps({"csv_sha256": hashlib.sha256(csv).hexdigest(), "layers": list(layers),
                         "payload_sha256": hashlib.sha256(payload).hexdigest(), "steps": len(records)},
                        sort_keys=True)
    _write_atomic(columns_path(path), b"\n".join([_COLUMNS_MAGIC, header.encode(), payload]))


def _stored_columns(path, layers, max_steps) -> RunColumns | None:
    """The columns stored beside the CSV ``path``, if they are bound to its
    bytes and to their own, list ``layers`` and at most ``max_steps`` steps,
    and their losses are finite; else None."""
    try:
        with open(columns_path(path), "rb") as f:
            magic, header, payload = f.read().split(b"\n", 2)
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        header = json.loads(header)
    except (OSError, ValueError, RecursionError):
        return None
    if magic != _COLUMNS_MAGIC or not isinstance(header, dict):
        return None
    steps, width = header.get("steps"), len(LayerStats._fields)
    if (header.get("csv_sha256") != digest or header.get("layers") != list(layers)
            or type(steps) is not int or not 0 <= steps <= max_steps
            or len(payload) != 8 * steps * (1 + width * len(layers))
            or header.get("payload_sha256") != hashlib.sha256(payload).hexdigest()):
        return None
    values = np.frombuffer(payload, "<f8").astype(np.float64)
    losses = values[:steps]
    if not np.isfinite(losses).all():
        return None
    return RunColumns(losses.tolist(), layers, *values[steps:].reshape(width, steps, len(layers)))


def _read_text(path, newline=None) -> str:
    """The text of a UTF-8 file. Bytes that are not UTF-8 give a
    ``ValueError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


# The C string escaper of json.dumps's default, ensure_ascii=True.
_escape = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """The JSON text of a document lanton writes or prints: sorted keys, a
    two-space indent, and each non-finite float, which JSON cannot write, as null.

    The text is ``json.dumps(obj, sort_keys=True, indent=2)``'s, written in
    one pass: an indent sends ``json.dumps`` to its pure-Python encoder."""
    parts = []
    append = parts.append

    def write(o, indent):
        if isinstance(o, float):
            append(float.__repr__(o) if math.isfinite(o) else "null")
        elif isinstance(o, str):
            append(_escape(o))
        elif isinstance(o, dict) and o:
            inner = indent + "  "
            sep = "{\n" + inner
            for k in sorted(o):
                parts.extend((sep, _escape(k), ": "))
                write(o[k], inner)
                sep = ",\n" + inner
            append("\n" + indent + "}")
        elif isinstance(o, (list, tuple)) and o:
            inner = indent + "  "
            sep = "[\n" + inner
            for v in o:
                append(sep)
                write(v, inner)
                sep = ",\n" + inner
            append("\n" + indent + "]")
        elif o is None:
            append("null")
        elif isinstance(o, bool):
            append("true" if o else "false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        else:
            # An empty container; a value JSON cannot write raises TypeError.
            append(json.dumps(o))

    write(obj, "")
    return "".join(parts)


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp``, then rename it to ``path``. A file
    already at ``path`` is removed once the temporary file is complete,
    just before the rename, so the rename never lands on an existing name:
    on ext4 (``auto_da_alloc``) a rename over a file starts writeback of
    the new one inside the rename, several times the cost of a remove and
    a rename onto a free name. A reader sees the old bytes, no file, or the
    new bytes, never a partial file; nothing is fsynced either way."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    os.replace(tmp, path)


def _write_text_atomic(path: str, text: str) -> None:
    _write_atomic(path, text.encode("utf-8"))


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
        raw = _load_document(text)
        cfg = _parse_document(raw)
        field = _echo_mismatch(raw, canonical_config(cfg))
        if field is not None:
            raise ConfigError(field, "missing or not as the run wrote it")
    except ConfigError as exc:
        raise ConfigError(exc.field, f"{exc.message} (in {config_path})") from None
    return cfg


def read_seeds(path: str, cfg: ExperimentConfig):
    """The ``(seed, RunColumns)`` pairs of the run directory ``path`` whose
    config is ``cfg``, in the order of ``cfg.seeds``. Each seed CSV is held to
    the task's layers and the run's step count, and is read only when the
    loop reaches it."""
    names = [spec.name for spec in task_layers(cfg.task_section)]
    for seed in cfg.seeds:
        yield seed, read_columns(seed_csv(path, seed), names, cfg.total_steps)


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
    runs, medians = [], []
    signature = None
    for path in paths:
        cfg = read_run_config(path)
        if signature is None:
            signature = task_signature(cfg.task_section)
        elif task_signature(cfg.task_section) != signature:
            raise ValueError(f"{path}: task signature does not match {paths[0]}")
        steps, finals = [], []
        for _, columns in read_seeds(path, cfg):
            losses = columns.losses
            s = steps_to_threshold(losses, threshold, smoothing=smoothing)
            steps.append(math.inf if s is None else s)
            if losses:
                finals.append(losses[-1])
        med = statistics.median(steps)
        medians.append(med)
        q25 = q50 = q75 = None
        if finals:
            q25, q50, q75 = (float(q) for q in np.quantile(np.asarray(finals), [0.25, 0.5, 0.75]))
        runs.append({
            "path": path,
            "optimizer": cfg.lanton.kind,
            "mode": cfg.lanton.mode,
            "per_seed_steps_to_threshold": [None if math.isinf(s) else int(s) for s in steps],
            "median_steps_to_threshold": None if math.isinf(med) else med,
            "final_loss_quantiles": {"q25": q25, "q50": q50, "q75": q75},
        })
    speedups = []
    for (cand, cand_med), (base, base_med) in itertools.permutations(zip(runs, medians), 2):
        ratio = (None if math.isinf(cand_med) or math.isinf(base_med) or cand_med == 0
                 else base_med / cand_med)
        speedups.append({"candidate": cand["path"], "baseline": base["path"], "speedup": ratio})
    return {
        "threshold": threshold,
        "smoothing": smoothing,
        "task_signature": signature,
        "runs": runs,
        "speedups": speedups,
    }
