"""Property tests of the config round trip, config robustness, the
readers' acceptance of every run a config gives, the telemetry CSV round
trip, the column reader against the record reader (values, errors and the
diagnostics' reports), the LMO's optimality and duality pairing, and the
bit-exactness of the step path's dual norm, LMO, Newton-Schulz and noise
draws, and the JSON text writer against json's own encoder.

Generated configs cover the four task forms (the two quadratic presets, an
explicit layer list, the MLP) and every optimizer kind, with each optional
key present or left to its default.
"""

import copy
import dataclasses
import io
import json
import math
import os
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import diagnostics_reference
from lanton import diagnostics, harness
from lanton.cli import main
from lanton.diagnostics import BoundParams, alpha_ratio_envelope, h_bounds_check, noise_range_estimate
from lanton.harness import (
    ConfigError,
    RunRecord,
    build_task,
    canonical_config,
    columns_of,
    emit_metrics,
    parse_config,
    read_columns,
    read_metrics,
    task_layers,
)
from lanton.lmo import lmo, newton_schulz
from lanton.norms import Group, dual_norm, primal_norm
from lanton.optimizer import CSV_UNSAFE, LayerSpec, LayerStats
from lanton.tasks import NoiseProfile, noise_streams, perturb_gradients
from test_diagnostics import _TWO_BAD_ROWS, _stream_with

_SEED = st.integers(0, 2**32)
_DIM = st.integers(1, 6)
_POSITIVE = st.floats(1e-6, 1e3)
_UNIT = st.floats(0.0, 1.0)
_NAME = st.text(alphabet="ab_.-:; \té", min_size=1, max_size=5)


def _some(draw, optional: dict) -> dict:
    """A random subset of the optional keys; the rest take their defaults."""
    return {k: v for k, v in optional.items() if draw(st.booleans())}


@st.composite
def _radii(draw):
    return sorted([draw(_UNIT), draw(_UNIT)])


@st.composite
def _layer(draw, name):
    group = draw(st.sampled_from(["hidden", "embedding_head", "vector_norm"]))
    arity = 1 if group == "vector_norm" else 2
    layer = {"name": name, "group": group, "shape": [draw(_DIM) for _ in range(arity)]}
    layer.update(_some(draw, {"smoothness": draw(_POSITIVE)}))
    if draw(st.booleans()):
        layer["sigma_lo"], layer["sigma_hi"] = draw(_radii())
    return layer


@st.composite
def _task(draw):
    form = draw(st.sampled_from(["transformer", "heterogeneous", "layers", "mlp"]))
    if form == "mlp":
        task = {"kind": "mlp", "widths": [draw(_DIM) for _ in range(3)]}
        task.update(_some(draw, {
            "n_samples": draw(st.integers(1, 64)), "dataset_seed": draw(_SEED),
            "label_noise": draw(_UNIT), "seed": draw(_SEED),
            "noise": _some(draw, {"w1": draw(_radii()), "w2": draw(_radii())}),
        }))
        return task
    task = {"kind": "quadratic"}
    task.update(_some(draw, {"seed": draw(_SEED)}))
    if form == "layers":
        names = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
        task["layers"] = [draw(_layer(name)) for name in names]
        return task
    task["preset"] = form
    task.update(_some(draw, {"shape": [draw(_DIM), draw(_DIM)], "smoothness": draw(_POSITIVE)}))
    if form == "heterogeneous":
        task.update(_some(draw, {
            "n_layers": draw(st.integers(2, 8)), "spread": draw(st.floats(1.0, 1e4)),
            "sigma_hi_base": draw(_UNIT), "lo_frac": draw(_UNIT),
        }))
    return task


@st.composite
def _optimizer(draw, total_steps):
    below_one = st.floats(0.0, 1.0, exclude_max=True)
    opt = {"kind": draw(st.sampled_from(["lanton", "fixed_rate_lmo", "signum", "sgd"]))}
    opt.update(_some(draw, {
        "mode": draw(st.sampled_from(["raw", "practical"])),
        "beta1": draw(below_one), "beta2": draw(below_one),
        "alpha": draw(st.one_of(st.none(), _POSITIVE)),
        "warmup_steps": draw(st.integers(0, total_steps - 1)),
        "weight_decay": draw(_UNIT), "r1": draw(_POSITIVE), "r2": draw(_POSITIVE),
        "hidden_scale": draw(_POSITIVE), "noise_option": draw(st.sampled_from(["I", "II"])),
        "noise_update_interval": draw(st.integers(1, 20)), "ns_steps": draw(st.integers(1, 8)),
        "oracle_polar": draw(st.booleans()),
        "embedding_dual": draw(st.sampled_from(["default", "alternate"])),
    }))
    if draw(st.booleans()):  # eta_min <= eta_max only holds when both are set
        opt["eta_min"], opt["eta_max"] = sorted([draw(_POSITIVE), draw(_POSITIVE)])
    return opt


@st.composite
def configs(draw):
    total_steps = draw(st.integers(1, 50))
    raw = {"task": draw(_task()), "optimizer": draw(_optimizer(total_steps))}
    raw.update(_some(draw, {
        "total_steps": total_steps,
        "seeds": draw(st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True)),
        "telemetry": _some(draw, {k: draw(st.booleans()) for k in ("h", "ratio", "dual_grad_norm")}),
        "output_path": draw(_NAME),
        "loss_threshold": draw(st.one_of(st.none(), st.floats(-10.0, 10.0))),
    }))
    return raw  # warmup_steps < total_steps also holds for the default 1000


def _echo(cfg) -> str:
    """The bytes a run writes as its config.json."""
    return json.dumps(canonical_config(cfg), sort_keys=True, indent=2) + "\n"


def _key_paths(node, prefix=()):
    """Every dict key in a JSON document, as a path of keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(node, dict):
            yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


# Small values only: a mutated config may be run, so no huge shape or count.
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, -0.5, 1e308]),
    st.sampled_from([float("nan"), float("inf")]), st.text(alphabet="Ixraw,", max_size=3),
    st.lists(st.integers(-2, 4), max_size=3), st.just({}), st.just(["x"]),
)


@st.composite
def mutations(draw, raw):
    """A copy of a config with one key deleted or set to another value."""
    doc = json.loads(json.dumps(raw))
    path = draw(st.sampled_from(sorted(_key_paths(doc), key=str)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    delete = draw(st.booleans())
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_VALUES)
    return doc, delete


@given(configs())
def test_echo_round_trips(raw):
    cfg = parse_config(json.dumps(raw))
    echo = _echo(cfg)
    again = parse_config(echo)
    assert again == cfg
    assert _echo(again) == echo


def _containers(obj):
    """Every dict and list reachable from ``obj`` through dicts, lists,
    tuples and dataclass fields."""
    if isinstance(obj, (dict, list)):
        yield obj
    children = (obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple))
                else vars(obj).values() if dataclasses.is_dataclass(obj) else ())
    for child in children:
        yield from _containers(child)


@given(configs())
def test_parse_leaves_the_document_unchanged_and_unshared(raw):
    # A sweep parses each grid combination from a document that shares all
    # but the edited dicts with the base config and the other combinations.
    before = copy.deepcopy(raw)
    cfg = harness._parse_document(raw)
    assert raw == before
    assert not {id(c) for c in _containers(raw)} & {id(c) for c in _containers(cfg)}


@given(configs())
def test_task_layers_are_the_built_tasks(raw):
    section = parse_config(json.dumps(raw)).task_section
    task = build_task(section)
    layers = task_layers(section)
    assert tuple(spec for spec, _ in layers) == tuple(task.layers)
    assert {spec.name: radii for spec, radii in layers} == task.noise.radii


@given(st.data())
def test_mutations_raise_only_config_error(data):
    raw = data.draw(configs())
    doc, _ = data.draw(mutations(raw))
    try:
        parse_config(json.dumps(doc))
    except ConfigError as exc:
        assert exc.field


def _two_run_dirs(root, raw) -> list[str]:
    """Run ``raw`` twice, into ``root``/a and ``root``/b."""
    dirs = []
    for name in ("a", "b"):
        path = root / name
        (root / f"{name}.json").write_text(json.dumps(dict(raw, output_path=str(path))))
        with redirect_stdout(io.StringIO()):
            assert main(["run", str(root / f"{name}.json")]) == 0
        dirs.append(str(path))
    return dirs


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    return _two_run_dirs(tmp_path_factory.mktemp("runs"), {
        "task": {"kind": "quadratic", "preset": "transformer", "shape": [2, 3]},
        "optimizer": {"kind": "lanton", "noise_option": "II", "noise_update_interval": 1},
        "seeds": [0], "total_steps": 4})


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=40)
@given(st.data())
def test_mutated_run_config_gives_json_error(run_dirs, data):
    a, b = run_dirs
    config_path = os.path.join(a, "config.json")
    with open(config_path, encoding="utf-8") as f:
        original = f.read()
    doc, deleted = data.draw(mutations(json.loads(original)))
    text = json.dumps(doc)
    try:
        parse_config(text)
        invalid = deleted  # a run's config.json lists every key
    except ConfigError:
        invalid = True
    try:
        with open(config_path, "w", encoding="utf-8") as f:
            f.write(text)
        for argv in (["diagnose", a], ["compare", a, b, "--threshold", "0.5"]):
            rc, _, err = _cli(argv)
            assert rc in (0, 1)
            if rc == 1:
                payload = json.loads(err)
                assert payload["error"] and payload["message"]
            if invalid:
                assert rc == 1 and payload["error"] == "config" and payload["field"]
                assert config_path in payload["message"]
    finally:
        with open(config_path, "w", encoding="utf-8") as f:
            f.write(original)


# Every seed aborts at step 0 on an overflowing loss and writes only the CSV
# header.
_ABORTS_AT_STEP_0 = {
    "task": {"kind": "quadratic", "preset": "heterogeneous", "shape": [3, 3], "smoothness": 1e308},
    "optimizer": {"kind": "lanton", "noise_option": "II", "noise_update_interval": 1},
    "seeds": [0, 1], "total_steps": 5,
}


@given(configs())
@example(_ABORTS_AT_STEP_0)
def test_every_config_gives_a_run_dir_its_readers_take(tmp_path_factory, raw):
    # Whatever telemetry a config switches off, and however early its seeds
    # stop, diagnose and compare read the run directory it gives.
    root = tmp_path_factory.mktemp("run")
    dirs = []
    for name in ("a", "b"):
        dirs.append(str(root / name))
        config = root / f"{name}.json"
        config.write_text(json.dumps(dict(raw, total_steps=50, output_path=dirs[-1])))
        rc, _, err = _cli(["run", str(config)])
        assert rc == 0, err
    for argv in (["diagnose", dirs[0]], ["compare", *dirs, "--threshold", "0.5"]):
        rc, _, err = _cli(argv)
        assert rc == 0, err
    # Every seed's columns, read from the columns file the run stored, are
    # the bits of the records its CSV parses to.
    for path in dirs:
        cfg = harness.read_run_config(path)
        names = [spec.name for spec, _ in task_layers(cfg.task_section)]
        for seed in cfg.seeds:
            csv = harness.seed_csv(path, seed)
            assert os.path.exists(harness.columns_path(csv))
            records = read_metrics(csv, names, cfg.total_steps)
            assert (_column_bits(read_columns(csv, names, cfg.total_steps))
                    == _column_bits(columns_of(records, names)))


_STEPS = 6
_CORRUPT_LAYERS = ["layer0", "layer1", "layer2"]


@pytest.fixture(scope="module")
def option_two_run_dirs(tmp_path_factory):
    return _two_run_dirs(tmp_path_factory.mktemp("corrupt"), {
        "task": {"kind": "quadratic", "preset": "heterogeneous", "shape": [2, 2], "n_layers": 3},
        "optimizer": {"kind": "lanton", "noise_option": "II", "noise_update_interval": 1},
        "seeds": [0, 1], "total_steps": _STEPS})


def _flip(data: bytes, draw) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(out) - 1))
        out[i] ^= draw(st.integers(1, 255))
    return bytes(out)


@st.composite
def _corruptions(draw, csv: bytes, config: bytes):
    """One corruption of a run directory: which file, its new bytes, and
    whether the readers must reject it (a layer or step count that does
    not match config.json)."""
    kind = draw(st.sampled_from(["drop_layer", "rename_layer", "truncate", "append_steps",
                                 "field", "flip_csv", "flip_config"]))
    lines = csv.decode().splitlines()
    layer = draw(st.sampled_from(_CORRUPT_LAYERS))
    if kind == "drop_layer":
        lines = [l for l in lines if f",{layer}," not in l]
    elif kind == "rename_layer":
        other = draw(st.sampled_from(["zz", "layer3", layer + " "]))
        lines = [l.replace(f",{layer},", f",{other},") for l in lines]
    elif kind == "append_steps":
        last = [l.split(",", 1)[1] for l in lines if l.startswith(f"{_STEPS - 1},")]
        lines += [f"{step},{rest}" for step in range(_STEPS, _STEPS + draw(st.integers(1, 3)))
                  for rest in last]
    elif kind == "field":
        row = draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        fields[draw(st.integers(3, 6))] = draw(st.sampled_from(["inf", "-inf", "-0.0"]))
        lines[row] = ",".join(fields)
    text = ("\n".join(lines) + "\n").encode()
    if kind == "truncate":
        return "csv", csv[:draw(st.integers(0, len(csv) - 1))], False
    if kind == "flip_csv":
        return "csv", _flip(csv, draw), False
    if kind == "flip_config":
        return "config", _flip(config, draw), False
    return "csv", text, kind in ("drop_layer", "rename_layer", "append_steps")


@settings(max_examples=120)
@given(st.data())
def test_corrupted_run_dir_gives_a_report_or_one_json_error(option_two_run_dirs, data):
    a, b = option_two_run_dirs
    paths = {"csv": os.path.join(a, "seed_0.csv"), "config": os.path.join(a, "config.json")}
    original = {}
    for key, path in paths.items():
        with open(path, "rb") as f:
            original[key] = f.read()
    target, corrupted, must_fail = data.draw(_corruptions(original["csv"], original["config"]))
    try:
        with open(paths[target], "wb") as f:
            f.write(corrupted)
        for argv in (["diagnose", a], ["compare", a, b, "--threshold", "0.5"]):
            rc, out, err = _cli(argv)
            assert rc in (0, 1)
            if rc == 1:
                assert out == ""
                payload = json.loads(err)
                assert isinstance(payload, dict) and payload["error"] and payload["message"]
            else:
                assert err == ""
            assert rc == 1 or not must_fail
    finally:
        for key, path in paths.items():
            with open(path, "wb") as f:
                f.write(original[key])


# Any name the CSV can hold: every character but a comma or a CR/LF. The
# line breaks str.splitlines() also splits at are drawn often on purpose.
_CSV_NAME = st.text(st.one_of(
    st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    st.characters(blacklist_characters=CSV_UNSAFE, blacklist_categories=("Cs",)),
), min_size=1, max_size=6)
_STAT = st.one_of(st.floats(allow_nan=False), st.just(float("nan")))


def _bits(records):
    """Records with every float as its hex form, so NaN compares equal to NaN."""
    return [(r.step, r.loss.hex(), [(name, [getattr(st_, f).hex() for f in
                                            ("eta_eff", "ratio", "h", "dual_grad_norm")])
                                    for name, st_ in r.layers.items()]) for r in records]


@st.composite
def _records(draw):
    # Steps 0..n-1 and finite losses, as a run writes them: the reader
    # rejects any others.
    names = draw(st.lists(_CSV_NAME, min_size=1, max_size=4, unique=True))
    return [RunRecord(step=step, loss=draw(st.floats(allow_nan=False, allow_infinity=False)), layers={
        name: LayerStats(*(draw(_STAT) for _ in range(4))) for name in names})
        for step in range(draw(st.integers(0, 4)))]


@given(_records(), st.sampled_from([math.inf, -math.inf, math.nan]))
def test_metrics_csv_round_trips(tmp_path_factory, records, bad_loss):
    path = str(tmp_path_factory.mktemp("csv") / "seed_0.csv")
    emit_metrics(records, path)
    assert _bits(read_metrics(path)) == _bits(records)
    if records:
        # A run ends a seed before it writes a non-finite loss, so the
        # reader rejects one at its step.
        records[-1] = records[-1]._replace(loss=bad_loss)
        emit_metrics(records, path)
        message = f"step {records[-1].step}: loss '{bad_loss!r}' is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_metrics(path)


def _read(reader, path, layers, max_steps):
    """What a reader gives: its value, or the type and text of its
    ValueError or OSError."""
    try:
        return reader(path, layers, max_steps)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


def _column_bits(columns):
    """Every value of read columns as its bits, so NaN and -0.0 compare."""
    return ([x.hex() for x in columns.losses], columns.layers,
            [(column.dtype.str, column.shape, column.view(np.int64).tolist())
             for column in columns[2:]])


def _assert_same_read(path, layers, max_steps):
    records = _read(read_metrics, path, layers, max_steps)
    columns = _read(read_columns, path, layers, max_steps)
    if isinstance(records, tuple):
        assert columns == records
    else:
        assert _column_bits(columns) == _column_bits(columns_of(records, layers))
    return records, columns


# Edits of one step's rows, as (field, new text): a step text that int()
# takes but the writer never gives, another step number, and a loss that is
# not finite or that another row of the step does not repeat.
_STEP_EDITS = {
    "step_plus": (0, "+{step}"),
    "step_zero": (0, "0{step}"),
    "step_next": (0, "{next}"),
    "step_negative": (0, "-1"),
    "loss_inf": (1, "inf"),
    "loss_nan": (1, "nan"),
    "loss_negative_zero": (1, "-0.0"),
}


@pytest.mark.parametrize("edit", [None, *_STEP_EDITS])
@given(records=_records(), data=st.data())
def test_read_columns_gives_read_metrics_values(tmp_path_factory, edit, records, data):
    # Streams as emit_metrics writes them, one step's rows edited (all of
    # them or the first few), read with the file's layers or others and a
    # step cap that the file may exceed.
    path = str(tmp_path_factory.mktemp("columns") / "seed_0.csv")
    emit_metrics(records, path)
    names = list(records[0].layers) if records else ["a"]
    with open(path, encoding="utf-8", newline="\n") as f:
        lines = f.read().split("\n")
    if records and edit is not None:
        step = data.draw(st.integers(0, len(records) - 1))
        field, text = _STEP_EDITS[edit]
        rows = [i for i, line in enumerate(lines) if line.startswith(f"{step},")]
        for i in rows[:data.draw(st.integers(1, len(rows)))]:
            fields = lines[i].split(",")
            fields[field] = text.format(step=step, next=step + 1)
            lines[i] = ",".join(fields)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines))
    layers = data.draw(st.sampled_from([names, names[::-1], names[:1], names + ["zz"]]))
    _assert_same_read(path, layers, data.draw(st.sampled_from([len(records), 5, 0, 1])))


@given(records=_records(), negate=st.booleans())
def test_stored_columns_hold_the_bits_of_the_csv(tmp_path_factory, records, negate):
    # A NaN that numpy computes may carry a sign bit (0 * inf gives one); the
    # CSV writes it as nan, which parses to float("nan"), and the columns
    # file must store that value, not the computed one.
    if negate:
        records = [r._replace(layers={name: LayerStats(*(-x if math.isnan(x) else x for x in st_))
                                      for name, st_ in r.layers.items()}) for r in records]
    path = str(tmp_path_factory.mktemp("stored") / "seed_0.csv")
    names = list(records[0].layers) if records else ["a"]
    emit_metrics(records, path)
    harness._store_columns(records, names, path)
    stored = harness._stored_columns(path, tuple(names), len(records))
    assert stored is not None
    assert _column_bits(stored) == _column_bits(columns_of(read_metrics(path), names))


def test_read_columns_takes_no_layer_twice(tmp_path):
    # A config never lists a layer twice; a caller that does gets
    # read_metrics' error for the file that repeats it.
    path = str(tmp_path / "seed_0.csv")
    emit_metrics([RunRecord(0, 1.0, {"a": LayerStats(1.0, 1.0, 0.0, 0.0)})], path)
    with open(path, encoding="utf-8") as f:
        header, row = f.read().splitlines()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{header}\n{row}\n{row}\n")
    records, _ = _assert_same_read(path, ["a", "a"], 1)
    assert records == (ValueError, f"{path}: step 0: layer 'a' listed twice")


def _read_corrupted_csv(run_dir, tmp_path_factory, data, stored):
    with open(os.path.join(run_dir, "seed_0.csv"), "rb") as f:
        csv = f.read()
    with open(os.path.join(run_dir, "config.json"), "rb") as f:
        config = f.read()
    target, corrupted, _ = data.draw(_corruptions(csv, config))
    path = tmp_path_factory.mktemp("corrupt_csv") / "seed_0.csv"
    path.write_bytes(corrupted if target == "csv" else csv)
    if stored:
        shutil.copyfile(os.path.join(run_dir, "seed_0.columns"), harness.columns_path(str(path)))
    _assert_same_read(str(path), _CORRUPT_LAYERS, _STEPS)


@settings(max_examples=120)
@given(st.data())
def test_read_columns_gives_read_metrics_values_on_corrupted_csv(option_two_run_dirs, tmp_path_factory, data):
    _read_corrupted_csv(option_two_run_dirs[0], tmp_path_factory, data, stored=False)


@settings(max_examples=120)
@given(st.data())
def test_read_columns_gives_read_metrics_values_on_corrupted_csv_beside_its_columns_file(
        option_two_run_dirs, tmp_path_factory, data):
    # The run's own columns file is stale beside a corrupted CSV: the reader
    # must notice and parse the CSV.
    _read_corrupted_csv(option_two_run_dirs[0], tmp_path_factory, data, stored=True)


def _columns_fault(fault, a, csv_path):
    """Lay out one columns-file fault beside a copy of ``a``'s seed 0 CSV at
    ``csv_path``; returns the layers and step cap to read it with."""
    shutil.copyfile(os.path.join(a, "seed_0.csv"), csv_path)
    with open(os.path.join(a, "seed_0.columns"), "rb") as f:
        stored = f.read()
    magic, header, payload = stored.split(b"\n", 2)
    columns, layers, max_steps = stored, _CORRUPT_LAYERS, _STEPS
    if fault == "missing":
        return layers, max_steps
    if fault == "layers_reordered":
        # A columns file consistent with itself and with the CSV's bytes,
        # but for the layers in another order than the config's.
        harness._store_columns(read_metrics(csv_path), _CORRUPT_LAYERS[::-1], csv_path)
        return layers, max_steps
    if fault == "infinite_loss":
        # A CSV whose last loss is infinite, and a columns file bound to it.
        records = read_metrics(csv_path)
        records[-1] = records[-1]._replace(loss=math.inf)
        emit_metrics(records, csv_path)
        harness._store_columns(records, layers, csv_path)
        return layers, max_steps
    if fault == "empty":
        columns = b""
    elif fault == "truncated":
        columns = stored[:-1]
    elif fault == "truncated_to_header":
        columns = magic + b"\n" + header
    elif fault == "wrong_magic":
        columns = b"lanton-columns 2\n" + header + b"\n" + payload
    elif fault == "header_not_json":
        columns = magic + b"\n{" + header + b"\n" + payload
    elif fault == "steps_above_max_steps":
        max_steps = _STEPS - 1
    elif fault == "other_seed":
        with open(os.path.join(a, "seed_1.columns"), "rb") as f:
            columns = f.read()
    elif fault == "csv_missing":
        os.remove(csv_path)
    with open(harness.columns_path(csv_path), "wb") as f:
        f.write(columns)
    return layers, max_steps


_COLUMNS_FAULTS = ["missing", "empty", "truncated", "truncated_to_header", "wrong_magic", "header_not_json",
                   "layers_reordered", "steps_above_max_steps", "infinite_loss", "other_seed", "csv_missing"]


@pytest.mark.parametrize("fault", _COLUMNS_FAULTS)
def test_read_columns_gives_read_metrics_values_beside_a_faulty_columns_file(option_two_run_dirs, tmp_path,
                                                                             fault):
    a, _ = option_two_run_dirs
    csv_path = str(tmp_path / "seed_0.csv")
    layers, max_steps = _columns_fault(fault, a, csv_path)
    records, _ = _assert_same_read(csv_path, layers, max_steps)
    if fault == "steps_above_max_steps":
        assert records == (ValueError, f"{csv_path}: found step {max_steps} in a run of {max_steps} steps")
    elif fault == "infinite_loss":
        assert records == (ValueError, f"{csv_path}: step {_STEPS - 1}: loss 'inf' is not finite")
    elif fault == "csv_missing":
        assert records[0] is FileNotFoundError
    else:
        assert len(records) == _STEPS


def _reports(module, stream, params, alpha, groups):
    """Each diagnostic of ``module`` on ``stream``: its report bytes, or
    what it raised."""
    calls = (
        lambda: module.h_bounds_check(stream, params),
        lambda: module.alpha_ratio_envelope(stream, params, alpha, layer_groups=groups),
        lambda: module.noise_range_estimate(stream, params.beta2, layer_groups=groups),
    )
    out = []
    for call in calls:
        try:
            out.append(json.dumps(call(), sort_keys=True))
        except Exception as exc:  # the exception is the outcome
            out.append((type(exc).__name__, str(exc)))
    return out


_ODD_VALUE = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "5e-324", "1.5", "1.0000000000000002"])


@settings(max_examples=80)
@given(st.data())
def test_diagnostics_give_the_same_report_from_columns(option_two_run_dirs, tmp_path_factory, data):
    # A run's CSV with some telemetry fields set to NaN, infinities, signed
    # zeros or ratios past 1, read both ways: lanton's diagnostics on the
    # columns give what the record walks give on the records.
    a, _ = option_two_run_dirs
    with open(os.path.join(a, "seed_0.csv"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    for _ in range(data.draw(st.integers(0, 4))):
        row = data.draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        fields[data.draw(st.integers(3, 6))] = data.draw(_ODD_VALUE)
        lines[row] = ",".join(fields)
    path = tmp_path_factory.mktemp("diagnose") / "seed_0.csv"
    path.write_text("\n".join(lines) + "\n")
    records, columns = _assert_same_read(str(path), _CORRUPT_LAYERS, _STEPS)
    radii = {name: tuple(sorted(data.draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2))))
             for name in _CORRUPT_LAYERS}
    params = BoundParams(c1=0.1, c2=data.draw(st.sampled_from([1.0, 2.0, 9.0])), delta=0.05,
                         beta2=data.draw(st.sampled_from([0.0, 0.5, 0.9, 0.999])),
                         profile=NoiseProfile(radii))
    alpha = data.draw(st.sampled_from([0.05, 1.0, 1e3]))
    groups = data.draw(st.one_of(st.none(), st.just({name: "hidden" for name in _CORRUPT_LAYERS})))
    assert (_reports(diagnostics, columns, params, alpha, groups)
            == _reports(diagnostics_reference, records, params, alpha, groups))


@pytest.mark.parametrize("check,bad,error,message", _TWO_BAD_ROWS)
def test_two_bad_rows_named_alike_from_columns(tmp_path, check, bad, error, message):
    # The NaN-H and ratio past 1 streams of the diagnostics' tests, written
    # to a CSV: lanton on the columns raises what the record walks raise on
    # the file's records.
    path = str(tmp_path / "seed_0.csv")
    emit_metrics(_stream_with(bad), path)
    records, columns = _assert_same_read(path, ["a", "b", "c"], 6)
    profile = NoiseProfile({name: (0.0, 1.0) for name in ("a", "b", "c")})
    params = BoundParams(c1=0.1, c2=1.0, delta=0.05, beta2=0.9, profile=profile)
    reports = _reports(diagnostics, columns, params, 0.05, None)
    assert reports == _reports(diagnostics_reference, records, params, 0.05, None)
    index = [h_bounds_check, alpha_ratio_envelope, noise_range_estimate].index(check)
    assert reports[index] == (error.__name__, message)


# A group with a shape it takes; entries are multiples of 1/64, so zeros,
# repeated entries and rank-deficient matrices come up often.
_GROUP_SHAPE = st.sampled_from(list(Group)).flatmap(lambda group: st.tuples(
    st.just(group), st.tuples(_DIM) if group is Group.VECTOR_NORM else st.tuples(_DIM, _DIM)))


def _direction(shape):
    return hnp.arrays(np.float64, shape, elements=st.integers(-640, 640).map(lambda k: k / 64))


def _inner(a, b) -> float:
    return float(np.sum(a * b))


@given(st.data())
def test_lmo_is_optimal_over_the_unit_ball(data):
    group, shape = data.draw(_GROUP_SHAPE)
    b = data.draw(_direction(shape))
    extreme = lmo(group, b, oracle=True)
    assert primal_norm(group, extreme) <= 1.0 + 1e-12
    best = _inner(b, extreme)
    tol = 1e-9 * max(1.0, abs(best))
    for y in data.draw(st.lists(_direction(shape), min_size=1, max_size=6)):
        if not np.any(y):
            continue
        # A point inside the ball along y, and the ball's extreme point for y.
        inside = y * (data.draw(st.floats(0.0, 1.0)) / primal_norm(group, y))
        for x in (inside, lmo(group, y, oracle=True)):
            assert best <= _inner(b, x) + tol


@given(st.data())
def test_lmo_pairs_with_the_dual_norm(data):
    group, shape = data.draw(_GROUP_SHAPE)
    b = data.draw(_direction(shape))
    target = -dual_norm(group, b)
    assert abs(_inner(b, lmo(group, b, oracle=True)) - target) <= 1e-9 * max(1.0, abs(target))



# Any finite float64, subnormals and signed zeros included, at magnitudes
# whose squares stay finite in the Newton-Schulz Gram products.
_ENTRY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _bits_of(value) -> bytes:
    out = np.asarray(value)
    return str(out.shape).encode() + out.dtype.str.encode() + out.tobytes()


def _step_path_calls(group, x, nonzero):
    """The bits of each per-layer call of a step on x: the dual norm, the
    LMO and, for a nonzero matrix, Newton-Schulz."""
    calls = {"dual_norm": _bits_of(dual_norm(group, x)), "lmo": _bits_of(lmo(group, x))}
    if group is not Group.VECTOR_NORM and nonzero:
        calls["newton_schulz"] = _bits_of(newton_schulz(x))
    return calls


@given(st.data())
def test_step_path_calls_ignore_input_layout_and_type(data):
    # The bits of a C-contiguous float64 copy, whatever the caller passes.
    group, shape = data.draw(_GROUP_SHAPE)
    x = data.draw(hnp.arrays(np.float64, shape, elements=_ENTRY))
    nonzero = bool(np.any(x))
    want = _step_path_calls(group, np.ascontiguousarray(x), nonzero)
    assert _step_path_calls(group, np.ascontiguousarray(x.T).T, nonzero) == want
    assert _step_path_calls(group, np.asfortranarray(x), nonzero) == want
    assert _step_path_calls(group, x.tolist(), nonzero) == want
    k = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-1000, 1000)))
    assert _step_path_calls(group, k, bool(np.any(k))) == _step_path_calls(
        group, np.ascontiguousarray(k, dtype=np.float64), bool(np.any(k)))


@given(hnp.arrays(np.float64, st.tuples(_DIM, _DIM), elements=_ENTRY))
def test_hidden_dual_norm_is_the_scaled_singular_value_sum(x):
    d_out, d_in = x.shape
    want = math.sqrt(d_out / d_in) * float(np.sum(np.linalg.svd(x, compute_uv=False)))
    assert dual_norm(Group.HIDDEN, x).hex() == want.hex()


def _reference_perturb(layers, exact, noise, rngs, twin):
    """perturb_gradients as first written, kept as the reference: numpy's
    uniform() for the radius and the sign, and an explicit negation."""
    outs = [dict() for _ in range(2 if twin else 1)]
    for spec in layers:
        lo, hi = noise.radii[spec.name]
        rng = rngs[spec.name]
        for out in outs:
            e = np.zeros(spec.shape)
            if hi > 0.0:
                radius = float(rng.uniform(lo, hi))
                sample, nrm = None, 0.0
                while nrm == 0.0:
                    sample = rng.standard_normal(spec.shape)
                    nrm = dual_norm(spec.group, sample)
                if radius != 0.0:
                    e = sample * (radius / nrm)
            if hi > 0.0 and rng.uniform() < 0.5:
                e = -e
            out[spec.name] = exact[spec.name] + e
    return outs


@given(st.data())
def test_perturb_gradients_draws_the_reference_bits(data):
    # The same noise, signs and stream positions as the reference.
    specs = []
    for i in range(data.draw(st.integers(1, 3))):
        group, shape = data.draw(_GROUP_SHAPE)
        specs.append(LayerSpec(f"l{i}", shape, group))
    noise = NoiseProfile({spec.name: tuple(sorted(data.draw(st.tuples(
        st.sampled_from([0.0, 1e-3, 0.5, 3.0]) | st.floats(0.0, 10.0),
        st.sampled_from([0.0, 1e-3, 0.5, 3.0]) | st.floats(0.0, 10.0))))) for spec in specs})
    exact = {spec.name: data.draw(hnp.arrays(np.float64, spec.shape, elements=_ENTRY)) for spec in specs}
    seed = data.draw(_SEED)
    twin = data.draw(st.booleans())
    rngs, ref_rngs = noise_streams(seed, specs), noise_streams(seed, specs)
    got = perturb_gradients(specs, exact, noise, rngs, twin=twin)
    want = _reference_perturb(specs, exact, noise, ref_rngs, twin)
    for out, ref in zip(got if twin else (got,), want):
        assert {k: _bits_of(v) for k, v in out.items()} == {k: _bits_of(v) for k, v in ref.items()}
    for spec in specs:
        assert rngs[spec.name].random() == ref_rngs[spec.name].random()


def _reference_json_text(obj) -> str:
    """The text ``harness._json_text`` gave before it wrote JSON itself: each
    non-finite float as None, then json's sorted, indented encoder."""
    def finite(o):
        if isinstance(o, float):
            return o if math.isfinite(o) else None
        if isinstance(o, dict):
            return {k: finite(v) for k, v in o.items()}
        if isinstance(o, list):
            return [finite(v) for v in o]
        return o
    return json.dumps(finite(obj), sort_keys=True, indent=2, allow_nan=False)


# Characters json escapes: control characters, quotes, backslashes, text
# outside ASCII and astral-plane text (written as a surrogate pair), and lone
# surrogates.
_JSON_STRINGS = st.text(st.characters(codec=None, exclude_categories=())
                        | st.sampled_from('"\\\x00\x1f\x7f\x80é€\U0001f600\ud800\udfff'), max_size=8)
# The floats where repr switches to an exponent (1e16 and below 1e-4), and the
# non-finite ones, beside any float.
_JSON_FLOATS = st.floats() | st.sampled_from([
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, -0.0, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf])
# Integers past 64 bits, where a C long would overflow, beside any integer.
_JSON_INTS = st.integers(-2**64, 2**64) | st.sampled_from([2**63, -2**63 - 1, 2**64, -2**64])
_JSON_LEAVES = _JSON_STRINGS | _JSON_FLOATS | _JSON_INTS | st.booleans() | st.none() | st.just([]) | st.just({})
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=20)


@given(st.dictionaries(_JSON_STRINGS, _JSON_DOCUMENTS, max_size=5))
def test_json_text_is_the_json_encoders(document):
    assert harness._json_text(document) == _reference_json_text(document)


@pytest.mark.parametrize("value", [{1, 2}, b"ab", np.int64(1)], ids=["set", "bytes", "numpy_int"])
def test_json_text_rejects_what_json_cannot_write(value):
    for document in (value, {"a": [1.0, value]}):
        with pytest.raises(TypeError):
            _reference_json_text(document)
        with pytest.raises(TypeError):
            harness._json_text(document)
