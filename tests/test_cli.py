import json
import math
import os
import subprocess
import sys

import pytest

import diagnostics_reference
import lanton.cli
import lanton.harness
import lanton.tasks
from lanton.cli import main


def _write_config(tmp_path, **overrides):
    raw = {
        "task": {"kind": "quadratic", "preset": "transformer"},
        "optimizer": {"kind": "lanton", "noise_option": "II", "noise_update_interval": 1},
        "seeds": [0], "total_steps": 20,
        "output_path": str(tmp_path / "run"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_command(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["run", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["per_seed"][0]["steps_run"] == 20
    assert (tmp_path / "run" / "seed_0.csv").exists()


def test_run_with_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = str(tmp_path / "elsewhere")
    assert main(["--seed-override", "5,6", "--out", out_dir, "run", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seeds"] == [5, 6]
    assert (tmp_path / "elsewhere" / "seed_5.csv").exists()
    assert (tmp_path / "elsewhere" / "seed_6.csv").exists()


def test_global_flags_after_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = str(tmp_path / "after")
    assert main(["run", cfg, "--seed-override", "9", "--out", out_dir]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seeds"] == [9]
    assert (tmp_path / "after" / "seed_9.csv").exists()


def test_run_workers_same_bytes(tmp_path, capsys):
    cfg = _write_config(tmp_path, seeds=[0, 1])
    assert main(["run", cfg]) == 0
    outdir = tmp_path / "run"
    first = {n: (outdir / n).read_bytes() for n in os.listdir(outdir)}
    assert main(["run", cfg, "--workers", "2"]) == 0
    second = {n: (outdir / n).read_bytes() for n in os.listdir(outdir)}
    capsys.readouterr()
    assert first == second


def test_compare_command(tmp_path, capsys):
    cfg_a = _write_config(tmp_path, output_path=str(tmp_path / "a"), total_steps=60)
    assert main(["run", cfg_a]) == 0
    cfg_b = _write_config(tmp_path, output_path=str(tmp_path / "b"), total_steps=60,
                          optimizer={"kind": "fixed_rate_lmo"})
    assert main(["run", cfg_b]) == 0
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                 "--threshold", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["runs"]) == 2
    assert len(report["speedups"]) == 2


def test_diagnose_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, total_steps=40)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["diagnose", str(tmp_path / "run")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tracker_bounds_applicable"] is True
    seed_entry = report["per_seed"][0]
    assert seed_entry["alpha_ratio"]["max_ratio"] <= 1.0
    assert all(l["upper_violations"] == 0 for l in seed_entry["h_bounds"]["layers"])
    assert (tmp_path / "run" / "diagnostics.json").exists()


def test_sweep_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, total_steps=10)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.eta_max": [5e-3, 1e-3]}))
    assert main(["sweep", cfg, "--grid", str(grid)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["sweep"]) == 2
    labels = {entry["label"] for entry in report["sweep"]}
    assert labels == {"eta_max=0.005", "eta_max=0.001"}
    for entry in report["sweep"]:
        assert os.path.exists(os.path.join(entry["output_path"], "summary.json"))


def test_config_error_json_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "task": {"kind": "quadratic", "preset": "transformer"},
        "optimizer": {"beta2": 1.5},
    }))
    assert main(["run", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["field"] == "optimizer.beta2"


def test_missing_file_error_json(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "message" in err and err["error"]


def test_bad_seeds_rejected_before_any_file(tmp_path, capsys):
    cfg = _write_config(tmp_path, seeds=[-1])
    assert main(["run", cfg]) == 1
    assert json.loads(capsys.readouterr().err)["field"] == "seeds[0]"
    cfg = _write_config(tmp_path)
    assert main(["--seed-override", "2,2", "run", cfg]) == 1
    assert json.loads(capsys.readouterr().err)["field"] == "seeds[1]"
    assert not (tmp_path / "run").exists()


def test_readers_take_a_seed_without_rows(tmp_path, capsys):
    # A seed that aborts at step 0 leaves a CSV with only the header. The
    # readers give it null reports; the other seed's entries keep their bytes.
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for d in dirs:
        assert main(["run", _write_config(tmp_path, output_path=d, seeds=[0, 1])]) == 0
    compare = ["compare", *dirs, "--threshold", "0.5"]
    capsys.readouterr()
    before = []
    for argv in (["diagnose", dirs[0]], compare):
        assert main(argv) == 0
        before.append(json.loads(capsys.readouterr().out))
    csv = tmp_path / "a" / "seed_0.csv"
    csv.write_text(csv.read_text().splitlines()[0] + "\n")
    after = []
    for argv in (["diagnose", dirs[0]], compare):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        after.append(json.loads(captured.out))
    diagnosed = after[0]["per_seed"]
    assert diagnosed[0] == {"seed": 0, "alpha_ratio": None, "h_bounds": None, "noise_range": None}
    assert json.dumps(diagnosed[1], sort_keys=True, indent=2) == \
        json.dumps(before[0]["per_seed"][1], sort_keys=True, indent=2)
    run_a = after[1]["runs"][0]
    assert run_a["per_seed_steps_to_threshold"] == [None, before[1]["runs"][0]["per_seed_steps_to_threshold"][1]]
    final = lanton.harness.read_metrics(str(tmp_path / "a" / "seed_1.csv"))[-1].loss
    assert run_a["final_loss_quantiles"] == {"q25": final, "q50": final, "q75": final}
    assert after[1]["runs"][1] == before[1]["runs"][1]


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def test_diagnose_two_inf_h_values_as_the_record_walk(tmp_path, capsys, monkeypatch):
    # inf - beta2 * inf is NaN, which the reconstruction maps to a zero delta
    # as Python's max(0.0, x) does, without a warning on stderr.
    run = str(tmp_path / "run")
    assert main(["run", _write_config(tmp_path, output_path=run)]) == 0
    csv = os.path.join(run, "seed_0.csv")
    with open(csv) as f:
        rows = [line.split(",") for line in f.read().splitlines()]
    layer = rows[1][2]
    for row in rows:
        if row[0] in ("5", "6") and row[2] == layer:
            row[5] = "inf"
    with open(csv, "w") as f:
        f.write("\n".join(",".join(row) for row in rows) + "\n")
    capsys.readouterr()
    assert main(["diagnose", run]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    delta = json.loads(got.out)["per_seed"][0]["noise_range"]["layers"][0]
    # JSON has no token for inf: the report writes it as null.
    assert (delta["layer"], delta["min"], delta["mean"], delta["max"]) == (layer, 0.0, None, None)
    with open(os.path.join(run, "diagnostics.json")) as f:
        assert f.read() == got.out
    json.loads(got.out, parse_constant=_not_json)
    # The CLI reads columns; the walks get the records of the same CSV.
    records = lanton.harness.read_metrics(csv)
    for name in ("alpha_ratio_envelope", "h_bounds_check", "noise_range_estimate"):
        walk = getattr(diagnostics_reference, name)
        monkeypatch.setattr(lanton.cli, name,
                            lambda columns, *args, _walk=walk, **kwargs: _walk(records, *args, **kwargs))
    assert main(["diagnose", run]) == 0
    assert capsys.readouterr().out == got.out


@pytest.mark.parametrize("sigma", [1e-200, 1e100])
def test_diagnose_radii_whose_square_leaves_float_range(tmp_path, capsys, sigma):
    # sigma**2 under- or overflows a float; the beta2 floor depends only on
    # sigma_lo / sigma_hi, so it stays finite and diagnose reports it.
    layer = {"name": "w", "shape": [2, 3], "group": "hidden", "sigma_lo": sigma, "sigma_hi": sigma}
    run = str(tmp_path / "run")
    assert main(["run", _write_config(tmp_path, total_steps=5, task={"kind": "quadratic", "layers": [layer]})]) == 0
    capsys.readouterr()
    assert main(["diagnose", run]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    floor = json.loads(got.out)["per_seed"][0]["h_bounds"]["layers"][0]["beta2_theory_floor"]
    assert math.isfinite(floor) and 0.0 < floor < 1.0


def test_bad_seed_override(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--seed-override", "1,x", "run", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_run_replays_its_config_json(tmp_path, capsys):
    assert main(["run", _write_config(tmp_path, seeds=[0, 1], loss_threshold=5.0)]) == 0
    outdir = tmp_path / "run"
    first = {n: (outdir / n).read_bytes() for n in os.listdir(outdir)}
    assert sorted(first) == ["config.json", "seed_0.columns", "seed_0.csv", "seed_1.columns", "seed_1.csv",
                             "summary.json"]
    for n in first:
        (outdir / n).unlink()
    (tmp_path / "replay.json").write_bytes(first["config.json"])
    assert main(["run", str(tmp_path / "replay.json")]) == 0
    capsys.readouterr()
    assert {n: (outdir / n).read_bytes() for n in os.listdir(outdir)} == first


def _two_runs(tmp_path):
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for d in dirs:
        assert main(["run", _write_config(tmp_path, output_path=d)]) == 0
    return dirs


def _readers(a, b):
    return (["diagnose", a], ["compare", a, b, "--threshold", "0.5"])


def test_readers_do_not_need_summary_json(tmp_path, capsys):
    a, b = _two_runs(tmp_path)
    capsys.readouterr()
    before = []
    for argv in _readers(a, b):
        assert main(argv) == 0
        before.append(capsys.readouterr().out)
    os.remove(os.path.join(a, "summary.json"))
    with open(os.path.join(b, "summary.json"), "w") as f:
        f.write("[]")
    for argv, out in zip(_readers(a, b), before):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("edit,field", [
    (lambda c: c["optimizer"].pop("beta2"), "optimizer.beta2"),
    (lambda c: c["task"].pop("preset"), "task.shape"),
    (lambda c: c.pop("seeds"), "seeds"),
    (lambda c: c["optimizer"].update(noise_option="III"), "optimizer.noise_option"),
    (lambda c: c.clear(), "task"),
])
def test_readers_bad_config_json_named(tmp_path, capsys, edit, field):
    a, b = _two_runs(tmp_path)
    path = os.path.join(a, "config.json")
    with open(path) as f:
        config = json.load(f)
    edit(config)
    with open(path, "w") as f:
        json.dump(config, f)
    capsys.readouterr()
    for argv in _readers(a, b):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", field)
        assert path in err["message"]


@pytest.mark.parametrize("document", ["[]", '"run"', "3", "{"])
def test_sweep_config_not_an_object(tmp_path, capsys, document):
    cfg = tmp_path / "config.json"
    cfg.write_text(document)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.eta_max": [0.1]}))
    assert main(["sweep", str(cfg), "--grid", str(grid)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("config", "<document>")
    assert main(["run", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err) == err


@pytest.mark.parametrize("threshold", ["nan", "inf", "--threshold=-inf"])
def test_compare_non_finite_threshold(tmp_path, capsys, threshold):
    a, b = _two_runs(tmp_path)
    capsys.readouterr()
    # argparse would read a bare -inf as a flag, so it goes in as one token.
    flag = [threshold] if threshold.startswith("--") else ["--threshold", threshold]
    assert main(["compare", a, b, *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "--threshold")


@pytest.mark.parametrize("argv,field", [
    pytest.param(["diagnose", "{run}", "--delta", "1.5"], "--delta", id="delta_above_one"),
    pytest.param(["diagnose", "{run}", "--delta", "0"], "--delta", id="delta_zero"),
    pytest.param(["diagnose", "{run}", "--delta", "nan"], "--delta", id="delta_nan"),
    pytest.param(["run", "{config}", "--workers", "0"], "--workers", id="run_workers_zero"),
    pytest.param(["sweep", "{config}", "--grid", "{grid}", "--workers", "0"], "--workers",
                 id="sweep_workers_zero"),
])
def test_out_of_range_flag_named(tmp_path, capsys, argv, field):
    config = _write_config(tmp_path, total_steps=5)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.eta_max": [1e-3]}))
    if argv[0] == "diagnose":
        assert main(["run", config]) == 0
    capsys.readouterr()
    paths = {"{config}": config, "{grid}": str(grid), "{run}": str(tmp_path / "run")}
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", field)
    written = tmp_path / "run" / "diagnostics.json" if argv[0] == "diagnose" else tmp_path / "run"
    assert not written.exists()


def test_diagnose_skips_switched_off_columns(tmp_path, capsys):
    # Both runs take a twin gradient at interval 1, where the tracker checks apply.
    reports = {}
    for column in ("ratio", "h"):
        out = str(tmp_path / column)
        assert main(["run", _write_config(tmp_path, output_path=out, telemetry={column: False})]) == 0
        capsys.readouterr()
        assert main(["diagnose", out]) == 0, capsys.readouterr().err
        reports[column] = json.loads(capsys.readouterr().out)
    ratio_off, h_off = reports["ratio"], reports["h"]
    assert ratio_off["tracker_bounds_applicable"] is True
    assert ratio_off["per_seed"][0]["alpha_ratio"] is None
    assert all(l["upper_violations"] == 0 for l in ratio_off["per_seed"][0]["h_bounds"]["layers"])
    assert h_off["tracker_bounds_applicable"] is False
    assert set(h_off["per_seed"][0]) == {"seed", "alpha_ratio"}
    assert h_off["per_seed"][0]["alpha_ratio"]["max_ratio"] <= 1.0


@pytest.mark.parametrize("grid,field", [
    pytest.param("{", "--grid", id="malformed"),
    pytest.param("[]", "--grid", id="not_an_object"),
    pytest.param('{"optimizer.eta_max": 0.1}', "--grid optimizer.eta_max", id="not_a_list"),
    # Both combinations would run in beta1=0.9, the second over the first.
    pytest.param('{"optimizer.beta1": [0.9, 0.9]}', "--grid", id="shared_run_directory"),
])
def test_sweep_bad_grid_named(tmp_path, capsys, grid, field):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid)
    assert main(["sweep", _write_config(tmp_path), "--grid", str(grid_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("config", field)
    assert not (tmp_path / "run").exists()


_TOO_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_MANY_DIGITS = '{"total_steps": ' + "1" * 5001 + "}"


@pytest.mark.parametrize("text", [
    pytest.param(_TOO_DEEP, id="nested_too_deep"),
    pytest.param(_TOO_MANY_DIGITS, id="integer_too_long"),
])
@pytest.mark.parametrize("document,field", [
    ("run_config", "<document>"),
    ("grid", "--grid"),
    ("run_dir_config", "<document>"),
])
def test_json_the_decoder_cannot_take_named(tmp_path, capsys, text, document, field):
    # The decoder gives up on such a document with a RecursionError or a
    # ValueError of its own; each is a config error at the document's field.
    config = _write_config(tmp_path, total_steps=5)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.eta_max": [1e-3]}))
    if document == "run_config":
        argv = ["run", config]
        (tmp_path / "config.json").write_text(text)
    elif document == "grid":
        argv = ["sweep", config, "--grid", str(grid)]
        grid.write_text(text)
    else:
        assert main(["run", config]) == 0
        argv = ["diagnose", str(tmp_path / "run")]
        (tmp_path / "run" / "config.json").write_text(text)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", field)
    assert "malformed JSON" in err["message"]


@pytest.mark.parametrize("name", ["a\u2028b", "a\x0cb", "a\x85b", "a\x0bb", "a\x1cb", "a\u2029b"])
def test_layer_name_with_unicode_line_break_reads_back(tmp_path, capsys, name):
    # Not a CSV line break (the writer ends rows with LF only), so the name
    # is valid and every reader must take the run directory back.
    layer = {"name": name, "shape": [2, 3], "group": "hidden", "sigma_lo": 0.01, "sigma_hi": 0.02}
    dirs = []
    for label in ("a", "b"):
        dirs.append(str(tmp_path / label))
        assert main(["run", _write_config(tmp_path, output_path=dirs[-1], total_steps=5,
                                          task={"kind": "quadratic", "layers": [layer]})]) == 0
    capsys.readouterr()
    for argv in _readers(*dirs):
        assert main(argv) == 0, capsys.readouterr().err
        report = json.loads(capsys.readouterr().out)
    assert len(report["runs"]) == 2


def _drop_qk_row_of_step_5(lines):
    return [l for l in lines if not l.startswith("5,") or ",qk," not in l]


def _repeat_first_row_of_step_5(lines):
    i = next(i for i, l in enumerate(lines) if l.startswith("5,"))
    return lines[:i + 1] + lines[i:]


def _row_of_step_5(row, edit):
    """Replaces the fields of the ``row``-th row of step 5 with ``edit(fields)``."""
    def corrupt(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("5,")) + row
        return lines[:i] + [",".join(edit(lines[i].split(",")))] + lines[i + 1:]
    return corrupt


def _field_of_step_5(row, column, text):
    """Sets field ``column`` of the ``row``-th row of step 5 to ``text``."""
    return _row_of_step_5(row, lambda parts: parts[:column] + [text] + parts[column + 1:])


def _step_5_as_05(corrupt):
    """``corrupt``, then every row of step 5 written with the step text ``05``."""
    return lambda lines: ["0" + l if l.startswith("5,") else l for l in corrupt(lines)]


@pytest.mark.parametrize("corrupt,message", [
    pytest.param(_drop_qk_row_of_step_5, "step 5 lists layers", id="layer_missing"),
    pytest.param(_repeat_first_row_of_step_5, "step 5: layer 'mlp' listed twice", id="layer_twice"),
    pytest.param(_field_of_step_5(1, 1, "banana"), "step 5: loss 'banana'", id="loss_differs"),
    pytest.param(_field_of_step_5(1, 3, "banana"), "step 5: eta_eff 'banana' is not a number",
                 id="eta_eff_not_a_number"),
    pytest.param(_field_of_step_5(0, 1, "banana"), "step 5: loss 'banana' is not a number",
                 id="loss_not_a_number"),
    pytest.param(_field_of_step_5(0, 1, "inf"), "step 5: loss 'inf' is not finite", id="loss_not_finite"),
    pytest.param(_field_of_step_5(0, 0, "x"), "step 'x' is not an integer", id="step_not_an_integer"),
    pytest.param(_row_of_step_5(1, lambda parts: parts[:-1]), "malformed row", id="six_fields"),
    pytest.param(_row_of_step_5(1, lambda parts: parts + ["0"]), "malformed row", id="eight_fields"),
    pytest.param(_field_of_step_5(1, 4, "banana"), "step 5: ratio 'banana' is not a number",
                 id="ratio_not_a_number"),
    pytest.param(_field_of_step_5(1, 5, "banana"), "step 5: H 'banana' is not a number",
                 id="h_not_a_number"),
    pytest.param(_field_of_step_5(1, 6, "banana"), "step 5: dual_grad_norm 'banana' is not a number",
                 id="dual_grad_norm_not_a_number"),
    # A parse error names the step as the row writes it.
    pytest.param(_step_5_as_05(_field_of_step_5(0, 1, "banana")), "step 05: loss 'banana' is not a number",
                 id="step_05_loss_not_a_number"),
    pytest.param(_step_5_as_05(_field_of_step_5(1, 3, "banana")), "step 05: eta_eff 'banana' is not a number",
                 id="step_05_eta_eff_not_a_number"),
    pytest.param(_step_5_as_05(_field_of_step_5(1, 5, "banana")), "step 05: H 'banana' is not a number",
                 id="step_05_h_not_a_number"),
])
def test_readers_reject_inconsistent_csv(tmp_path, capsys, corrupt, message):
    a, b = _two_runs(tmp_path)
    csv = os.path.join(a, "seed_0.csv")
    with open(csv) as f:
        lines = f.read().splitlines()
    with open(csv, "w") as f:
        f.write("\n".join(corrupt(lines)) + "\n")
    capsys.readouterr()
    for argv in _readers(a, b):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{csv}: ") and message in err["message"]


@pytest.mark.parametrize("command", ["diagnose", "compare"])
@pytest.mark.parametrize("name", ["seed_0.csv", "config.json"])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, capsys, name, command):
    # One byte set to 0xff, which no UTF-8 text holds: the error names the
    # file, so compare can say which run directory is bad.
    a, b = _two_runs(tmp_path)
    path = os.path.join(a, name)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[len(data) // 2] = 0xFF
    with open(path, "wb") as f:
        f.write(data)
    capsys.readouterr()
    argv = ["diagnose", a] if command == "diagnose" else ["compare", b, a, "--threshold", "0.5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{path}: ") and "can't decode byte 0xff" in err["message"]


@pytest.mark.parametrize("command,name", [
    pytest.param("run", "config.json", id="run_config"),
    pytest.param("sweep", "config.json", id="sweep_config"),
    pytest.param("sweep", "grid.json", id="sweep_grid"),
])
def test_run_and_sweep_name_a_file_that_is_not_utf8(tmp_path, capsys, command, name):
    # One byte of the config or of the grid set to 0xff: the error names
    # the file, and nothing is run.
    config = _write_config(tmp_path, total_steps=5)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.eta_max": [5e-3, 1e-3]}))
    path = str(tmp_path / name)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[len(data) // 2] = 0xFF
    with open(path, "wb") as f:
        f.write(data)
    argv = ["run", config] if command == "run" else ["sweep", config, "--grid", str(grid)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{path}: ") and "can't decode byte 0xff" in err["message"]
    assert not (tmp_path / "run").exists()


def _python(*args):
    """A fresh interpreter that imports this lanton and prints every
    RuntimeWarning as text on stderr, as an installed script would."""
    src = os.path.dirname(os.path.dirname(lanton.harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", "default::RuntimeWarning", *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_diverging_seed_prints_no_warning(tmp_path):
    # The loss overflows on its way to inf: the seed ends at step 30 and
    # stderr stays empty (it is kept for one JSON error object).
    config = _write_config(
        tmp_path, total_steps=40, optimizer={"kind": "sgd", "eta_min": 97.8, "eta_max": 299},
        task={"kind": "quadratic", "preset": "heterogeneous", "shape": [1, 2], "smoothness": 629.45})
    proc = _python("-m", "lanton.cli", "run", config)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["per_seed"][0]["aborted_at"] == 30


def test_diagnose_builds_no_mlp_dataset(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, seeds=[0, 1], total_steps=5, task={
        "kind": "mlp", "widths": [4, 8, 2], "n_samples": 32,
        "noise": {"w1": [0.001, 0.002], "w2": [0.01, 0.02]}})
    assert main(["run", cfg]) == 0
    capsys.readouterr()

    def no_dataset(*args, **kwargs):
        raise AssertionError("diagnose generated a dataset")

    monkeypatch.setattr(lanton.harness, "gen_dataset", no_dataset)
    monkeypatch.setattr(lanton.tasks, "gen_dataset", no_dataset)
    assert main(["diagnose", str(tmp_path / "run")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [entry["seed"] for entry in report["per_seed"]] == [0, 1]
    assert report["per_seed"][0]["alpha_ratio"]["layer_groups"] == {"w1": "hidden", "w2": "hidden"}



@pytest.mark.parametrize("argv,overrides", [
    pytest.param(["run", "{config}"], {"output_path": ""}, id="config"),
    pytest.param(["run", "{config}", "--out", ""], {}, id="run_out_flag"),
    pytest.param(["sweep", "{config}", "--grid", "{grid}", "--out", ""], {}, id="sweep_out_flag"),
])
def test_empty_output_path_named(tmp_path, capsys, argv, overrides):
    # An empty path names no directory: a config error naming the field,
    # whether it comes from the config file or from --out.
    config = _write_config(tmp_path, total_steps=5, **overrides)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.eta_max": [1e-3]}))
    paths = {"{config}": config, "{grid}": str(grid)}
    assert main([paths.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "output_path")
    assert not (tmp_path / "run").exists()


_SURROGATE_LAYER = {"name": "a\ud800", "shape": [2, 3], "group": "hidden"}


@pytest.mark.parametrize("argv,overrides,field", [
    pytest.param(["run", "config.json"], {"task": {"kind": "quadratic", "layers": [_SURROGATE_LAYER]}},
                 "task.layers[0].name", id="layer_name_lone_surrogate"),
    pytest.param(["run", "config.json"], {"output_path": "run\ud800"}, "output_path",
                 id="output_path_lone_surrogate"),
    pytest.param(["run", "config.json"], {"output_path": "run\x00"}, "output_path", id="output_path_nul"),
    pytest.param(["run", "config.json", "--out", "run\x00"], {}, "output_path", id="out_flag_nul"),
    pytest.param(["sweep", "config.json", "--grid", "grid.json", "--out", "run\ud800"], {}, "output_path",
                 id="sweep_out_flag_lone_surrogate"),
    pytest.param(["run", "config.json"],
                 {"task": {"kind": "quadratic", "preset": "heterogeneous", "spread": 1e308, "sigma_hi_base": 10.0}},
                 "task.sigma_hi_base", id="top_noise_radius_overflows"),
])
def test_config_the_run_cannot_write_named(tmp_path, capsys, monkeypatch, argv, overrides, field):
    # A config error naming the field, before any file is written.
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, total_steps=5, **{"output_path": "run", **overrides})
    (tmp_path / "grid.json").write_text(json.dumps({"optimizer.eta_max": [1e-3]}))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", field)
    assert sorted(os.listdir(tmp_path)) == ["config.json", "grid.json"]


@pytest.mark.parametrize("out", ["afile", os.path.join("afile", "run")])
@pytest.mark.parametrize("argv,overrides,run_dir", [
    pytest.param(["run", "config.json"], {"output_path": "{out}"}, "{out}", id="run"),
    pytest.param(["sweep", "config.json", "--grid", "grid.json", "--out", "{out}"], {},
                 os.path.join("{out}", "eta_max=0.001"), id="sweep_out_flag"),
])
def test_output_path_at_or_under_a_file_named(tmp_path, capsys, monkeypatch, out, argv, overrides, run_dir):
    # A file where the run directory, or a directory above it, would go:
    # a config error naming the field and the run directory, the file kept.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"kept\n")
    _write_config(tmp_path, total_steps=5, **{k: v.replace("{out}", out) for k, v in overrides.items()})
    (tmp_path / "grid.json").write_text(json.dumps({"optimizer.eta_max": [1e-3]}))
    assert main([a.replace("{out}", out) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "output_path")
    assert repr(run_dir.replace("{out}", out)) in err["message"]
    assert (tmp_path / "afile").read_bytes() == b"kept\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "config.json", "grid.json"]


def test_output_path_from_argv_bytes_that_are_not_utf8(tmp_path, capsys, monkeypatch):
    # Python decodes such argv bytes to lone surrogates that os.fsencode
    # turns back into the same bytes: the path is valid.
    monkeypatch.chdir(tmp_path)
    out = os.fsdecode(b"run\xff")
    assert main(["run", _write_config(tmp_path, total_steps=5), "--out", out]) == 0
    assert os.path.isfile(os.path.join(b"run\xff", b"seed_0.csv"))


def test_sweep_checks_every_combination_before_the_first_run(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"task.shape": [[2, 2], [2, 2.0]]}))
    assert main(["sweep", _write_config(tmp_path, total_steps=5), "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "task.shape[1]")
    assert not (tmp_path / "run").exists()


def test_sweep_rejects_a_label_with_a_path_separator(tmp_path, capsys, monkeypatch):
    # Unchecked, the label's "/../../../../" would put the run two levels
    # above the working directory, which is still inside tmp_path.
    cwd = tmp_path / "a" / "b"
    cwd.mkdir(parents=True)
    monkeypatch.chdir(cwd)
    layer = {"name": "/../../../../esc", "shape": [2, 3], "group": "hidden"}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"task.layers": [[layer]]}))
    config = _write_config(tmp_path, total_steps=2, output_path="out",
                           task={"kind": "quadratic", "layers": [dict(layer, name="w")]})
    assert main(["sweep", config, "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "--grid task.layers")
    assert not list(tmp_path.rglob("seed_0.csv"))


def test_sweep_takes_a_config_nested_deeper_than_deepcopy_can_copy(tmp_path, capsys):
    # The decoder takes 700 levels; copy.deepcopy gives up near 500. A sweep
    # copies only the dicts on each grid path, so the parser names the field.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": {"kind": "quadratic", "preset": "transformer", "shape": [0]},
                                  "optimizer": {}}).replace("[0]", "[" * 700 + "1" + "]" * 700))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"optimizer.beta1": [0.9]}))
    assert main(["sweep", str(config), "--grid", str(grid), "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "task.shape[0]")
    assert not (tmp_path / "run").exists()


# Each task asks for about 800 TB, more than a 47-bit address space holds,
# so the allocation fails at once whatever the kernel's overcommit setting.
@pytest.mark.parametrize("task", [
    pytest.param({"kind": "quadratic", "preset": "transformer", "shape": [10**7, 10**7]}, id="transformer"),
    pytest.param({"kind": "mlp", "widths": [8, 3, 1], "n_samples": 10**13}, id="mlp"),
])
def test_task_too_large_to_build_named(tmp_path, capsys, task):
    # A config error naming the task and the allocation, and no run directory.
    assert main(["run", _write_config(tmp_path, task=task)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["error"], err["field"]) == ("config", "task")
    assert "Unable to allocate" in err["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task,field,value", [
    pytest.param({"kind": "quadratic", "preset": "transformer", "seed": -1}, "task.seed", -1, id="preset_seed"),
    pytest.param({"kind": "quadratic", "layers": [{"name": "a", "shape": [2], "group": "vector_norm"}],
                  "seed": -1}, "task.seed", -1, id="layer_list_seed"),
    pytest.param({"kind": "mlp", "widths": [2, 3, 1], "seed": -2}, "task.seed", -2, id="mlp_seed"),
    pytest.param({"kind": "mlp", "widths": [2, 3, 1], "dataset_seed": -1}, "task.dataset_seed", -1,
                 id="dataset_seed"),
])
def test_negative_task_seed_rejected_before_any_file(tmp_path, capsys, task, field, value):
    assert main(["run", _write_config(tmp_path, task=task)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "config", "field": field,
                                        "message": f"{field}: must be >= 0, got {value}"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_label_noise_that_overflows_the_labels_named(tmp_path, command):
    # One JSON error naming the key, with no numpy warning beside it on
    # stderr, and no run directory.
    config = _write_config(tmp_path, task={"kind": "mlp", "widths": [2, 3, 1], "label_noise": 1e308})
    (tmp_path / "grid.json").write_text(json.dumps({"optimizer.beta1": [0.9, 0.95]}))
    argv = ["run", config] if command == "run" else ["sweep", config, "--grid", str(tmp_path / "grid.json")]
    proc = _python("-m", "lanton.cli", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": "config", "field": "task.label_noise",
                                       "message": "task.label_noise: 1e+308 overflows the labels"}
    assert not (tmp_path / "run").exists()


def test_serial_run_imports_no_thread_pool(tmp_path):
    # A serial run builds no pool, so neither importing the CLI nor running
    # a config on one worker imports concurrent.futures.
    config = _write_config(tmp_path, seeds=[0, 1], total_steps=3)
    proc = _python("-c", "import sys; from lanton.cli import main; "
                   "imported = lambda: 'concurrent.futures' in sys.modules; "
                   f"print(imported(), main(['run', {config!r}]), imported(), file=sys.stderr)")
    assert (proc.returncode, proc.stderr) == (0, "False 0 False\n")
    assert (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("command", ["diagnose", "compare"])
@pytest.mark.parametrize("flag,value", [("--seed-override", "7"), ("--out", "elsewhere")])
@pytest.mark.parametrize("place", ["before", "after"])
def test_global_flags_rejected_by_the_readers(tmp_path, capsys, monkeypatch, command, flag, value, place):
    # --seed-override and --out apply to run and sweep only. After the
    # subcommand a reader does not know them; before it, each is a config
    # error named by the flag.
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write_config(tmp_path, total_steps=5)]) == 0
    capsys.readouterr()
    run = str(tmp_path / "run")
    argv = {"diagnose": ["diagnose", run], "compare": ["compare", run, run, "--threshold", "0.5"]}[command]
    if place == "before":
        assert main([flag, value] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["field"]) == ("config", flag)
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "diagnostics.json").exists()
    assert not (tmp_path / "elsewhere").exists()


def _rename_layer5(lines):
    return [l.replace(",layer5,", ",zz,") for l in lines]


def _drop_layer5(lines):
    return [l for l in lines if ",layer5," not in l]


def _append_step_30(lines):
    return lines + [l.replace("29,", "30,", 1) for l in lines if l.startswith("29,")]


_LAYERS = [f"layer{i}" for i in range(6)]


@pytest.mark.parametrize("corrupt,message", [
    pytest.param(_drop_layer5, f"step 0 lists layers {_LAYERS[:5]}, not the config's {_LAYERS}",
                 id="layer_dropped"),
    pytest.param(_rename_layer5, f"step 0 lists layers {_LAYERS[:5] + ['zz']}, not the config's {_LAYERS}",
                 id="layer_renamed"),
    pytest.param(_append_step_30, "found step 30 in a run of 30 steps", id="step_past_total_steps"),
])
@pytest.mark.parametrize("command", ["diagnose", "compare"])
def test_readers_hold_csv_to_config(tmp_path, capsys, corrupt, message, command):
    # Each corruption leaves a CSV that agrees with itself; only the run's
    # config.json says its layers or its step count are wrong.
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for d in dirs:
        assert main(["run", _write_config(
            tmp_path, output_path=d, seeds=[0, 1], total_steps=30,
            task={"kind": "quadratic", "preset": "heterogeneous"})]) == 0
    csv = os.path.join(dirs[0], "seed_0.csv")
    with open(csv) as f:
        lines = f.read().splitlines()
    with open(csv, "w") as f:
        f.write("\n".join(corrupt(lines)) + "\n")
    capsys.readouterr()
    argv = ["diagnose", dirs[0]] if command == "diagnose" else ["compare", *dirs, "--threshold", "0.5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"] == f"{csv}: {message}"


def test_readers_take_a_seed_that_stopped_early(tmp_path, capsys):
    # A seed that aborts writes fewer steps than total_steps; that is valid.
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for d in dirs:
        assert main(["run", _write_config(tmp_path, output_path=d, total_steps=10)]) == 0
    csv = os.path.join(dirs[0], "seed_0.csv")
    with open(csv) as f:
        lines = f.read().splitlines()
    with open(csv, "w") as f:
        f.write("\n".join(l for l in lines if not l.startswith(("8,", "9,"))) + "\n")
    capsys.readouterr()
    for argv in _readers(*dirs):
        assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()


def test_failed_rerun_leaves_no_seed_of_the_earlier_run(tmp_path, capsys, monkeypatch):
    # A lanton run, then a fixed_rate_lmo run into the same directory whose
    # seed 1 raises: the directory must not pass the first run's seed 1 off
    # as the second run's, so both readers fail naming the missing CSV.
    run = str(tmp_path / "run")
    assert main(["run", _write_config(tmp_path, seeds=[0, 1])]) == 0
    assert main(["diagnose", run]) == 0
    exact_execute_run = lanton.harness.execute_run

    def raise_on_seed_1(cfg, seed, task=None):
        if seed == 1:
            raise RuntimeError("no convergence")
        return exact_execute_run(cfg, seed, task=task)

    monkeypatch.setattr(lanton.harness, "execute_run", raise_on_seed_1)
    with pytest.raises(RuntimeError, match="^seed 1: no convergence$"):
        main(["run", _write_config(tmp_path, seeds=[0, 1], optimizer={"kind": "fixed_rate_lmo"})])
    assert sorted(os.listdir(run)) == ["config.json", "seed_0.columns", "seed_0.csv"]
    capsys.readouterr()
    for argv in _readers(run, run):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert os.path.join(run, "seed_1.csv") in err["message"]


def test_every_write_renames_onto_a_free_name(tmp_path, capsys, monkeypatch):
    # A rename over an existing file makes ext4 write the new file back
    # inside the rename; every lanton write must land on a name that is free.
    renames = []
    exact_replace = os.replace

    def replace(src, dst):
        renames.append((os.path.basename(dst), os.path.exists(dst)))
        exact_replace(src, dst)

    monkeypatch.setattr(lanton.harness.os, "replace", replace)
    cfg, run = _write_config(tmp_path, seeds=[0, 1]), str(tmp_path / "run")
    for argv in (["run", cfg], ["run", cfg], ["diagnose", run], ["diagnose", run]):
        assert main(argv) == 0
    capsys.readouterr()
    files = ["config.json", "seed_0.csv", "seed_0.columns", "seed_1.csv", "seed_1.columns", "summary.json"]
    assert renames == [(name, False) for name in files * 2 + ["diagnostics.json"] * 2]
    assert sorted(os.listdir(run)) == sorted(files + ["diagnostics.json"])


_PARSE_CASES = [
    ["--seed-override", "3,4", "run", "c.json", "--workers", "2"],
    ["run", "c.json", "--out", "o"],
    ["compare", "a", "b", "--threshold", "0.5", "--raw-crossing"],
    ["compare", "a", "b", "--threshold", "0.25"],
    ["--out", "p", "diagnose", "d", "--delta", "0.1"],
    ["diagnose", "d"],
    ["sweep", "c.json", "--grid", "g.json", "--seed-override", "1"],
    ["run", "c.json"],
]


def test_parser_is_built_once_and_parses_alike():
    fresh = [vars(lanton.cli._build_parser.__wrapped__().parse_args(argv)) for argv in _PARSE_CASES]
    assert lanton.cli._build_parser() is lanton.cli._build_parser()
    for _ in range(2):
        shared = [vars(lanton.cli._build_parser().parse_args(argv)) for argv in _PARSE_CASES]
        assert shared == fresh
        _PARSE_CASES.reverse()
        fresh.reverse()


def test_back_to_back_main_calls(tmp_path, capsys):
    # The same calls in two orders give the same outputs: no call leaves
    # anything behind in the shared parser for the next.
    config = _write_config(tmp_path, total_steps=25, seeds=[0, 1])
    run_a, run_b = str(tmp_path / "a"), str(tmp_path / "b")
    calls = [
        ["run", config, "--out", run_a],
        ["--seed-override", "0,1", "--out", run_b, "run", config, "--workers", "2"],
        ["compare", run_a, run_b, "--threshold", "0.5", "--raw-crossing"],
        ["diagnose", run_a, "--delta", "0.1"],
        ["compare", run_a, run_b, "--threshold", "0.5"],
        ["diagnose", run_b],
    ]
    outputs = []
    for order in (calls, calls[:2] + calls[:1:-1]):
        got = {}
        for argv in order:
            assert main(argv) == 0
            got[tuple(argv)] = capsys.readouterr()
        outputs.append(got)
    assert outputs[0] == outputs[1]
    assert outputs[0][tuple(calls[2])].out != outputs[0][tuple(calls[4])].out


@pytest.mark.parametrize("argv", [["--help"], ["diagnose", "--help"], ["compare", "-h"]])
def test_help_text_from_the_shared_parser(capsys, argv):
    # The help a fresh parser prints, before and after other calls.
    with pytest.raises(SystemExit) as exc:
        lanton.cli._build_parser.__wrapped__().parse_args(argv)
    assert exc.value.code == 0
    expected = capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == expected
        main(["diagnose", "no-such-dir"])
        capsys.readouterr()
    assert expected.out.startswith("usage: lanton")


def test_bad_flag_is_argparse_error(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "d", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: lanton") and "unrecognized arguments: --bogus" in err
