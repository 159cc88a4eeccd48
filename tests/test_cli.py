import json
import os
import subprocess
import sys

import pytest

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


def test_compare_header_only_csv(tmp_path, capsys):
    for name in ("a", "b"):
        assert main(["run", _write_config(tmp_path, output_path=str(tmp_path / name))]) == 0
    csv = tmp_path / "a" / "seed_0.csv"
    csv.write_text(csv.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--threshold", "0.5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and str(csv) in err["message"]


def test_bad_seed_override(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--seed-override", "1,x", "run", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_run_replays_its_config_json(tmp_path, capsys):
    assert main(["run", _write_config(tmp_path, seeds=[0, 1], loss_threshold=5.0)]) == 0
    outdir = tmp_path / "run"
    first = {n: (outdir / n).read_bytes() for n in os.listdir(outdir)}
    assert sorted(first) == ["config.json", "seed_0.csv", "seed_1.csv", "summary.json"]
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
])
def test_sweep_bad_grid_named(tmp_path, capsys, grid, field):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid)
    assert main(["sweep", _write_config(tmp_path), "--grid", str(grid_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("config", field)
    assert not (tmp_path / "run").exists()


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


def _field_of_step_5(row, column, text):
    """Sets field ``column`` of the ``row``-th row of step 5 to ``text``."""
    def corrupt(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("5,")) + row
        parts = lines[i].split(",")
        parts[column] = text
        return lines[:i] + [",".join(parts)] + lines[i + 1:]
    return corrupt


@pytest.mark.parametrize("corrupt,message", [
    pytest.param(_drop_qk_row_of_step_5, "step 5 lists layers", id="layer_missing"),
    pytest.param(_repeat_first_row_of_step_5, "step 5: layer 'mlp' listed twice", id="layer_twice"),
    pytest.param(_field_of_step_5(1, 1, "banana"), "step 5: loss 'banana'", id="loss_differs"),
    pytest.param(_field_of_step_5(1, 3, "banana"), "step 5: eta_eff 'banana' is not a number",
                 id="eta_eff_not_a_number"),
    pytest.param(_field_of_step_5(0, 1, "banana"), "step 5: loss 'banana' is not a number",
                 id="loss_not_a_number"),
    pytest.param(_field_of_step_5(0, 0, "x"), "step 'x' is not an integer", id="step_not_an_integer"),
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


def test_diverging_seed_prints_no_warning(tmp_path):
    # The loss overflows on its way to inf: the seed ends at step 30 and
    # stderr stays empty (it is kept for one JSON error object).
    config = _write_config(
        tmp_path, total_steps=40, optimizer={"kind": "sgd", "eta_min": 97.8, "eta_max": 299},
        task={"kind": "quadratic", "preset": "heterogeneous", "shape": [1, 2], "smoothness": 629.45})
    src = os.path.dirname(os.path.dirname(lanton.harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "default::RuntimeWarning", "-m", "lanton.cli", "run", config],
                          env=env, capture_output=True, text=True, timeout=120)
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
