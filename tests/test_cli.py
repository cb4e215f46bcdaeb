import hashlib
import json
import shutil

import numpy as np
import pytest

from qpland import cli, datasets
from qpland.decomposition import init_model, save_checkpoint

from conftest import ragged_bistable3d

# sha256 of each command's output file, recorded with NumPy 2.4.6 and
# scipy-openblas 0.3.31; a BLAS that rounds differently would need them
# recorded again. The Ginzburg-Landau field cubes by products, so the mep
# digest no longer depends on how NumPy's SIMD pow rounds on the host.
PINNED_SHA256 = {
    "decompose.csv":
        "7f3cbdaeea9908899c654ee129c91fed43cda1545641459ac2086f3226f50302",
    "decompose.json":
        "63c9a084db39a6f2014b92772a30557ebd471b4be6957816cc82364c55168aca",
    "landscape.csv":
        "bf3e14db0ef43319162f04fa9e18b2067f7646038a3109b5259947bfe699ac07",
    "mep.csv":
        "17044f5ed064dfb1d3caef55705aed3e5c86d9e71bc2b69ac44087dcc1beff55",
}

BISTABLE_CONFIG = {
    "system": {"name": "bistable3d"},
    "eval": {"slices": [{"name": "x1x2", "axes": [0, 1], "fixed": {"2": 0.25},
                         "box": [[-2.0, 2.0], [-1.5, 1.5]], "resolution": [9, 7]}]},
}

GL_CONFIG = {
    "system": {"name": "ginzburg_landau", "params": {"I": 6, "delta": 0.1}},
    "eval": {"mep": {"n_images": 9, "n_iters": 300, "step": 1e-3, "tol": 1e-10,
                     "relax_dt": 1e-3, "relax_tol": 1e-8}},
}

BOX = [[-1.0, 1.0], [-1.0, 1.0]]

POINTS = "x0,x1,x2\n-1.0,0.0,0.0\n0.5,-0.25,1.0\n0.0,0.0,0.0\n1.5,1.0,-0.5\n"


E2E_CONFIG = {
    "system": {"name": "bistable3d"},
    "data": {"N": 10, "dt": 1e-2, "T": 0.5, "m": 5, "seed": 1},
    "sampling": {"r": 0.3, "seed": 0},
    "model": {"hidden_width": 6, "init_seed": 0},
    "train": {"batch": 32, "steps": 4, "eval_every": 2, "seed": 0,
              "val_rollout_trajectories": 2},
    "eval": {"grid": {"resolution": [5, 5, 5]}},
}


# id -> (config, command, text its one problem contains); the command reads
# DATA and REPS from the ``inputs`` fixture
BAD_VALUES = {
    "sampling_r": ({**E2E_CONFIG, "sampling": {"r": "x"}}, ["representatives", "--data", "DATA"],
                   "'sampling.r'"),
    "rot_activation": ({**E2E_CONFIG, "model": {"hidden_width": 6, "rot_activation": "relu"}},
                       ["train", "--data", "DATA", "--reps", "REPS"], "'model.rot_activation'"),
    "lr0": ({**E2E_CONFIG, "train": {**E2E_CONFIG["train"], "lr0": "x"}},
            ["train", "--data", "DATA", "--reps", "REPS"], "'train.lr0'"),
    "rollout_split": ({**E2E_CONFIG, "eval": {"rollout_split": "foo"}},
                      ["eval", "--model", "exact:bistable3d", "--data", "DATA"],
                      "'eval.rollout_split'"),
    "rollout_dt": ({**E2E_CONFIG, "eval": {"rollout_dt": 0}},
                   ["eval", "--model", "exact:bistable3d", "--data", "DATA"], "'eval.rollout_dt'"),
    "mep_n_images": ({**GL_CONFIG, "eval": {"mep": {**GL_CONFIG["eval"]["mep"], "n_images": "x"}}},
                     ["mep"], "'eval.mep.n_images'"),
    "data_seed": ({**E2E_CONFIG, "data": {**E2E_CONFIG["data"], "seed": "x"}}, ["generate"],
                  "'data.seed'"),
    "data_dt": ({**E2E_CONFIG, "data": {**E2E_CONFIG["data"], "dt": "x"}}, ["generate"],
                "'data.dt'"),
    "system_param": ({**E2E_CONFIG, "system": {"name": "ginzburg_landau", "params": {"I": "x"}}},
                     ["generate"], "parameter 'I'"),
}


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_numeric_csv(data):
    """Every field below the header parses as a float."""
    header, *rows = data.decode("utf-8").strip().split("\n")
    assert rows
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        for v in fields:
            float(v)


def _run_pipeline(tmp_path, tag):
    """Run decompose, landscape and mep once; return {name: output bytes}."""
    work = tmp_path / tag
    work.mkdir()
    points = work / "points.csv"
    points.write_text(POINTS, encoding="utf-8")
    bistable = _write_json(work / "bistable.json", BISTABLE_CONFIG)
    gl = _write_json(work / "gl.json", GL_CONFIG)
    ckpt = work / "gl_model.json"
    model = init_model(5, 6, "tanh", seed=3)
    model.center = np.linspace(-0.5, 0.5, 5)
    save_checkpoint(ckpt, model)

    commands = {
        "decompose.csv": ["decompose", "--model", "exact:bistable3d", "--points", str(points)],
        "decompose.json": ["decompose", "--model", "exact:bistable3d", "--points", str(points),
                           "--format", "json"],
        "landscape.csv": ["landscape", "--config", bistable, "--model", "exact:bistable3d"],
        "mep.csv": ["mep", "--config", gl, "--model", str(ckpt)],
    }
    out = {}
    for name, argv in commands.items():
        path = work / name
        assert cli.main([*argv, "--out", str(path)]) == 0
        out[name] = path.read_bytes()
        if name.endswith(".csv"):
            assert_numeric_csv(out[name])
    return out


def _run_training_pipeline(tmp_path, tag, monkeypatch):
    """generate -> representatives -> train -> eval on bistable3d, with
    relative paths so the outputs do not depend on the directory; returns
    {file name: bytes} of everything written."""
    work = tmp_path / tag
    work.mkdir()
    monkeypatch.chdir(work)
    _write_json(work / "run.json", E2E_CONFIG)
    steps = [
        ["generate", "--config", "run.json", "--out", "data.qptd"],
        ["representatives", "--config", "run.json", "--data", "data.qptd",
         "--out", "reps.qprs"],
        ["train", "--config", "run.json", "--data", "data.qptd", "--reps", "reps.qprs",
         "--history", "history.csv", "--out", "model.json"],
        ["eval", "--config", "run.json", "--model", "model.json", "--data", "data.qptd",
         "--reps", "reps.qprs", "--out", "report.json"],
        ["eval", "--config", "run.json", "--model", "exact:bistable3d", "--data", "data.qptd",
         "--out", "exact_report.json"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name != "run.json"}


class TestPipeline:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        first = _run_pipeline(tmp_path, "a")
        second = _run_pipeline(tmp_path, "b")
        assert first == second

    def test_outputs_match_pinned_bytes(self, tmp_path):
        out = _run_pipeline(tmp_path, "a")
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}
        assert digests == PINNED_SHA256

    def test_exact_decomposition_is_orthogonal(self, tmp_path):
        out = _run_pipeline(tmp_path, "a")
        rows = json.loads(out["decompose.json"])
        assert len(rows) == 4
        assert all(abs(r["cosine"]) <= 1e-12 for r in rows)


class TestTrainingPipeline:
    def test_outputs_byte_identical_across_runs(self, tmp_path, monkeypatch):
        first = _run_training_pipeline(tmp_path, "a", monkeypatch)
        second = _run_training_pipeline(tmp_path, "b", monkeypatch)
        assert set(first) == {"data.qptd", "data.qptd.json", "reps.qprs", "model.json",
                              "history.csv", "report.json", "exact_report.json"}
        assert first == second
        assert_numeric_csv(first["history.csv"])
        report = json.loads(first["report.json"])
        assert report["rollout_count"] == 1 and report["rollout_diverged"] == 0
        assert np.isfinite([report["rollout_mean"], report["rRMSE"], report["cos_max_abs"]]).all()

    def test_exact_model_scores_zero(self, tmp_path, monkeypatch):
        report = json.loads(_run_training_pipeline(tmp_path, "a", monkeypatch)["exact_report.json"])
        assert report["rRMSE"] == 0.0 and report["rMAE"] == 0.0
        assert report["grid"]["points"] == 125


    def test_bad_train_config_lists_every_problem(self, tmp_path, monkeypatch, capsys):
        _run_training_pipeline(tmp_path, "a", monkeypatch)
        _write_json(tmp_path / "a" / "bad.json",
                    {**E2E_CONFIG, "train": {"lr0": 0.0, "decay": 2.0}})
        capsys.readouterr()
        code = cli.main(["train", "--config", "bad.json", "--data", "data.qptd",
                         "--reps", "reps.qprs", "--out", "bad_model.json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["problems"] == ["'train.lr0' must be a positive number, got 0.0",
                                       "'train.decay' must be a number in (0, 1] or null, "
                                       "got 2.0"]
        assert not (tmp_path / "a" / "bad_model.json").exists()

    def test_default_val_representatives_are_those_of_the_val_split(self, inputs, tmp_path):
        # train samples the val representatives itself with the seed that
        # ``representatives --split val`` uses, so either way the model is the same
        cfg = _write_json(tmp_path / "run.json", E2E_CONFIG)
        data, reps, val_reps = inputs["DATA"], inputs["REPS"], str(tmp_path / "val.qprs")
        assert cli.main(["representatives", "--config", cfg, "--data", data, "--split", "val",
                         "--out", val_reps]) == 0
        for name, extra in (("own.json", []), ("given.json", ["--val-reps", val_reps])):
            assert cli.main(["train", "--config", cfg, "--data", data, "--reps", reps, *extra,
                             "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "own.json").read_bytes() == (tmp_path / "given.json").read_bytes()


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "c.json", "--threads", "2"],
        ["representatives", "--config", "c.json", "--data", "d", "--format", "json"],
        ["train", "--config", "c.json", "--data", "d", "--reps", "r", "--threads", "2"],
        ["eval", "--config", "c.json", "--model", "m", "--data", "d", "--seed", "1"],
        ["eval", "--config", "c.json", "--model", "m", "--data", "d", "--threads", "2"],
        ["landscape", "--config", "c.json", "--model", "m", "--seed", "1"],
        ["landscape", "--config", "c.json", "--model", "m", "--threads", "2"],
        ["mep", "--config", "c.json", "--threads", "2"],
        ["decompose", "--config", "c.json", "--model", "m", "--points", "p"],
        ["decompose", "--model", "m", "--points", "p", "--seed", "1"],
    ])
    def test_flag_a_command_does_not_read_is_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{"DATA": dataset path, "REPS": representatives path} made from
    E2E_CONFIG, and "DATA2", "REPS2" made the same way on limitcycle2d."""
    work = tmp_path_factory.mktemp("inputs")
    paths = {}
    for tag, system in (("", "bistable3d"), ("2", "limitcycle2d")):
        cfg = _write_json(work / f"run{tag}.json", {**E2E_CONFIG, "system": {"name": system}})
        paths[f"DATA{tag}"] = str(work / f"data{tag}.qptd")
        paths[f"REPS{tag}"] = str(work / f"reps{tag}.qprs")
        assert cli.main(["generate", "--config", cfg, "--out", paths[f"DATA{tag}"]]) == 0
        assert cli.main(["representatives", "--config", cfg, "--data", paths[f"DATA{tag}"],
                         "--out", paths[f"REPS{tag}"]]) == 0
    return paths


class TestErrors:
    @pytest.mark.parametrize("case", BAD_VALUES)
    def test_bad_value_prints_one_json_line(self, case, inputs, tmp_path, capsys):
        doc, command, named = BAD_VALUES[case]
        cfg = _write_json(tmp_path / "bad.json", doc)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg, *(inputs.get(a, a) for a in command[1:]),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert len(payload["problems"]) == 1 and named in payload["problems"][0]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("command", [
        ["generate"],
        ["representatives", "--data", "DATA"],
        ["train", "--data", "DATA", "--reps", "REPS"],
    ], ids=["generate", "representatives", "train"])
    def test_negative_seed_prints_one_json_line(self, command, inputs, tmp_path, capsys):
        # NumPy's SeedSequence rejects a negative seed with a bare ValueError
        cfg = _write_json(tmp_path / "run.json", E2E_CONFIG)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg, *(inputs.get(a, a) for a in command[1:]),
                         "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert payload["problems"] == ["'--seed' must be a non-negative integer, got -1"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_every_problem_in_the_file_is_reported_at_once(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "bad.json", {
            **E2E_CONFIG, "data": {**E2E_CONFIG["data"], "dt": -0.01},
            "loss": {"orth_weight": -1}, "train": {**E2E_CONFIG["train"], "batch": 0, "lr0": -1}})
        code = cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "data.qptd")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["problems"] == ["'data.dt' must be a positive number, got -0.01",
                                       "'loss.orth_weight' must be a non-negative number, "
                                       "got -1",
                                       "'train.batch' must be a positive integer, got 0",
                                       "'train.lr0' must be a positive number, got -1"]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_config_that_is_not_utf8_prints_one_json_line(self, tmp_path, capsys):
        # this used to end in a UnicodeDecodeError traceback
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(E2E_CONFIG).encode("utf-16-le"))
        code = cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data.qptd")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert len(payload["problems"]) == 1
        assert payload["problems"][0].startswith(f"config {cfg}: invalid JSON (")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_too_few_string_images_are_reported_with_every_other_problem(self, tmp_path,
                                                                         capsys):
        # too few images used to pass the config and fail in the string
        # method, after the relaxation to the two minima had run
        mep = {**GL_CONFIG["eval"]["mep"], "n_images": 2, "n_iters": 0}
        cfg = _write_json(tmp_path / "bad.json", {**GL_CONFIG, "eval": {"mep": mep}})
        code = cli.main(["mep", "--config", cfg, "--out", str(tmp_path / "mep.csv")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["problems"] == ["'eval.mep.n_images' must be an integer >= 3, got 2",
                                       "'eval.mep.n_iters' must be a positive integer, got 0"]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_too_few_trajectories_are_reported_with_every_other_problem(self, tmp_path,
                                                                         capsys):
        # too few trajectories used to pass the config and fail in split,
        # after every trajectory had been integrated
        data = {**E2E_CONFIG["data"], "N": 5, "m": 0}
        cfg = _write_json(tmp_path / "bad.json", {**E2E_CONFIG, "data": data})
        code = cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "data.qptd")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["problems"] == [
            "'data.N' must be an integer >= 10, got 5",
            "'data.m' must be a positive integer, got 0"]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_bad_config_prints_one_json_line(self, tmp_path, capsys):
        bad = _write_json(tmp_path / "bad.json",
                          {"system": {"name": "bistable3d", "colour": 1}, "extra": {}})
        code = cli.main(["landscape", "--config", bad, "--model", "exact:bistable3d",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        lines = err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        # every violation is reported at once
        assert payload["problems"] == ["unknown top-level key 'extra'",
                                       "unknown key 'system.colour'"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("bad_slice", [
        {"axes": [0, 1], "fixed": {"2": 0.0}},
        {"axes": [0, 1], "fixed": {"2": 0.0, "3": 0.0}, "box": BOX},
        {"axes": [0, 3], "fixed": {"1": 0.0, "2": 0.0}, "box": BOX},
        {"axes": [0, 1], "fixed": {"2": 0.0, "-1": 5.0}, "box": BOX},
        {"axes": [0, 0], "fixed": {"1": 0.0, "2": 0.0}, "box": BOX},
        {"axes": [0, 1], "fixed": {}, "box": BOX},
        {"axes": [0, 1], "fixed": {"2": 0.0}, "box": [[-1.0, 1.0]]},
        {"axes": ["a", 1], "fixed": {"2": 0.0}, "box": BOX},
        {"axes": [0, 1], "fixed": {"z": 0.0}, "box": BOX},
    ], ids=["no_box", "fixed_past_last", "axis_past_last", "fixed_negative",
            "axis_twice", "unpinned", "box_not_2x2", "axis_not_int", "fixed_key_not_int"])
    def test_bad_slice_prints_one_json_line(self, bad_slice, tmp_path, capsys):
        cfg = _write_json(tmp_path / "bad.json", {"system": {"name": "bistable3d"},
                                                  "eval": {"slices": [bad_slice]}})
        code = cli.main(["landscape", "--config", cfg, "--model", "exact:bistable3d",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("ConfigError", "QplandError")
        assert not (tmp_path / "x.csv").exists()

    def test_every_bad_slice_and_grid_field_is_reported_at_once(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "bad.json", {
            "system": {"name": "bistable3d"},
            "eval": {"grid": {"box": [[-1.0]], "resolution": [0]},
                     "slices": [{"axes": ["a", 1], "fixed": {"2": 0.0}, "box": [[-1.0, 1.0]]},
                                {"axes": [0, 1], "fixed": {"z": 0.0}, "box": BOX,
                                 "resolution": "9"}]}})
        code = cli.main(["landscape", "--config", cfg, "--model", "exact:bistable3d",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["problems"] == [
            "'eval.grid.box' must be a list of [lo, hi] number pairs, got [[-1.0]]",
            "'eval.grid.resolution' must be a positive integer or a list of them, got [0]",
            "'eval.slices[0].box' must be 2 x 2 numbers [[lo, hi], [lo, hi]], "
            "got [[-1.0, 1.0]]",
            "'eval.slices[0].axes' must be a list of integers, got ['a', 1]",
            "'eval.slices[1].resolution' must be a positive integer or a list of them, got '9'",
            "'eval.slices[1].fixed' must be an object of integer keys and number values, "
            "got {'z': 0.0}",
        ]

    def test_grid_resolution_short_of_the_dimension_prints_one_json_line(
            self, tmp_path, capsys, monkeypatch):
        # a 2-entry resolution on the 3-d system used to build a 2-column
        # grid and fail later with a bare broadcast ValueError
        monkeypatch.chdir(tmp_path)
        _write_json(tmp_path / "run.json",
                    {**E2E_CONFIG, "eval": {"grid": {"resolution": [5, 5]}}})
        assert cli.main(["generate", "--config", "run.json", "--out", "data.qptd"]) == 0
        capsys.readouterr()
        code = cli.main(["eval", "--config", "run.json", "--model", "exact:bistable3d",
                         "--data", "data.qptd", "--out", "report.json"])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "QplandError" and "resolution" in payload["detail"]
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_grid_box_prints_one_json_line(self, inputs, tmp_path, capsys):
        # every number of the box is finite, so the config check passes; the
        # grid axis overflowed, and the report read "rMAE": NaN, not JSON
        box = [[-1e308, 1e308], [-1.0, 1.0], [-1.0, 1.0]]
        cfg = _write_json(tmp_path / "run.json",
                          {**E2E_CONFIG, "eval": {"grid": {"box": box, "resolution": 5}}})
        capsys.readouterr()
        code = cli.main(["eval", "--config", cfg, "--model", "exact:bistable3d",
                         "--data", inputs["DATA"], "--out", str(tmp_path / "report.json")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "NonFiniteError",
            "detail": "non-finite value in grid axis 0, index 0: [-1e+308, 1e+308] at 5 points "
                      "overflows float64"}
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("flag", ["--data", "--reps", "--model"])
    def test_missing_input_file_prints_one_json_line(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_json(tmp_path / "run.json", E2E_CONFIG)
        assert cli.main(["generate", "--config", "run.json", "--out", "data.qptd"]) == 0
        assert cli.main(["representatives", "--config", "run.json", "--data", "data.qptd",
                         "--out", "reps.qprs"]) == 0
        model = tmp_path / "model.json"
        save_checkpoint(model, init_model(3, 6, "tanh", seed=0))
        inputs = {"--data": "data.qptd", "--reps": "reps.qprs", "--model": str(model)}
        inputs[flag] = "missing.file"
        argv = ["eval", "--config", "run.json", "--out", "report.json"]
        for key, value in inputs.items():
            argv += [key, value]
        capsys.readouterr()
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "FileNotFoundError"
        assert payload["path"] == "missing.file" and "missing.file" in payload["detail"]
        assert not (tmp_path / "report.json").exists()

    def test_non_finite_state_prints_one_json_line(self, inputs, tmp_path, capsys):
        dataset = datasets.load_dataset(inputs["DATA"])
        train = np.flatnonzero(dataset.pair_mask("train"))
        dataset.x_next[train[2], 1] = np.nan  # train states list every x, then every x_next
        datasets.save_dataset(dataset, tmp_path / "nan.qptd")
        cfg = _write_json(tmp_path / "run.json", E2E_CONFIG)
        capsys.readouterr()
        assert cli.main(["representatives", "--config", cfg, "--data", str(tmp_path / "nan.qptd"),
                         "--out", str(tmp_path / "reps.qprs")]) == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "NonFiniteError"
        assert payload["detail"] == ("non-finite value in representative states, "
                                     f"index {len(train) + 2}")
        assert not (tmp_path / "reps.qprs").exists()

    def _decompose_error(self, tmp_path, capsys, points):
        """The one JSON line ``decompose`` prints for a points file holding
        ``points``; asserts that it exits 1 and writes nothing."""
        path = tmp_path / "points.csv"
        path.write_bytes(points if isinstance(points, bytes) else points.encode("utf-8"))
        capsys.readouterr()
        assert cli.main(["decompose", "--model", "exact:bistable3d", "--points", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert not (tmp_path / "out.csv").exists()
        return json.loads(lines[0]), str(path)

    def test_ragged_points_print_one_json_line(self, tmp_path, capsys):
        payload, path = self._decompose_error(tmp_path, capsys,
                                              "x0,x1,x2\n1.0,0.0,0.0\n\n0.5,0.25\n")
        assert payload == {"error": "QplandError",
                           "detail": f"{path}: line 4 has 2 values, the rows before it 3"}

    def test_points_that_are_not_utf8_print_one_json_line(self, tmp_path, capsys):
        # this used to end in a UnicodeDecodeError traceback
        payload, path = self._decompose_error(tmp_path, capsys,
                                              "x0,x1,x2\n1.0,0.0,0.0\n".encode("utf-16"))
        assert payload["error"] == "QplandError"
        assert payload["detail"].startswith(f"{path}: not UTF-8 text (")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
    def test_non_finite_point_prints_one_json_line(self, value, tmp_path, capsys):
        payload, path = self._decompose_error(
            tmp_path, capsys, f"x0,x1,x2\n1.0,0.0,0.0\n0.5,{value},1.0\n")
        assert payload == {"error": "NonFiniteError",
                           "detail": f"non-finite value in {path} points, index 1"}

    @pytest.mark.parametrize("command, named", [
        (["train", "--data", "DATA", "--reps", "REPS2"], "train representatives"),
        (["train", "--data", "DATA", "--reps", "REPS", "--val-reps", "REPS2"],
         "val representatives"),
        (["eval", "--model", "exact:bistable3d", "--data", "DATA", "--reps", "REPS2"],
         "representatives"),
        (["eval", "--model", "exact:bistable3d", "--data", "DATA2"], "dataset"),
    ], ids=["train_reps", "train_val_reps", "eval_reps", "eval_data"])
    def test_input_of_another_dimension_prints_one_json_line(self, command, named, inputs,
                                                              tmp_path, capsys):
        # 2-d limitcycle2d inputs meet a 3-d model; they used to end in a
        # broadcasting ValueError traceback
        cfg = _write_json(tmp_path / "run.json", E2E_CONFIG)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg, *(inputs.get(a, a) for a in command[1:]),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "DimensionMismatchError",
            "detail": f"{named}: expected dimension 3, got 2"}
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("doc, command, dims", [
        ({**E2E_CONFIG, "system": {"name": "limitcycle2d"}},
         ["eval", "--model", "exact:bistable3d", "--data", "DATA2"], (3, 2)),
        (GL_CONFIG, ["mep", "--model", "exact:bistable3d"], (3, 5)),
        (BISTABLE_CONFIG, ["landscape", "--model", "exact:limitcycle2d"], (2, 3)),
    ], ids=["eval", "mep", "landscape"])
    def test_model_of_another_dimension_prints_one_json_line(self, doc, command, dims,
                                                             inputs, tmp_path, capsys,
                                                             monkeypatch):
        # mep checks the model before it relaxes the stable states; landscape
        # used to write the 2-d fixture's values at 3-d slice states
        monkeypatch.setattr(cli.systems, "gl_stable_states",
                            lambda *a: pytest.fail("relaxed before the model was checked"))
        cfg = _write_json(tmp_path / "run.json", doc)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg, *(inputs.get(a, a) for a in command[1:]),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        problem = "model dim {} != system dim {}".format(*dims)
        assert json.loads(lines[0]) == {"error": "ConfigError", "detail": problem,
                                        "problems": [problem]}
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command, named", [
        (["train", "--data", "DATA", "--reps", "EMPTY"], "train representatives"),
        (["train", "--data", "DATA", "--reps", "REPS", "--val-reps", "EMPTY"],
         "val representatives"),
        (["eval", "--model", "exact:bistable3d", "--data", "DATA", "--reps", "EMPTY"],
         "representatives"),
    ], ids=["train_reps", "train_val_reps", "eval_reps"])
    def test_empty_representatives_print_one_json_line(self, command, named, inputs,
                                                       tmp_path, capsys):
        # a 0-point set used to end eval in a zero-size reduction traceback,
        # and train in a diverged run that still wrote a checkpoint
        work = tmp_path / "in"
        work.mkdir()
        empty = str(work / "empty.qprs")
        datasets.save_representatives(datasets.representative_sample(np.zeros((0, 3)), 0.3, 0),
                                      empty)
        cfg = _write_json(work / "run.json", E2E_CONFIG)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg,
                         *({**inputs, "EMPTY": empty}.get(a, a) for a in command[1:]),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "QplandError",
                                        "detail": f"{named}: the set has no points"}
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    @pytest.mark.parametrize("command", [["train", "--reps", "REPS"],
                                         ["eval", "--model", "exact:bistable3d"]],
                             ids=["train", "eval"])
    def test_trajectory_without_pairs_prints_one_json_line(self, command, inputs, tmp_path,
                                                          capsys):
        # the pairs of the even trajectories alone: such a file used to end
        # train and eval in an IndexError traceback from the rollout reference
        work = tmp_path / "in"
        work.mkdir()
        full = datasets.load_dataset(inputs["DATA"])
        keep = full.traj_id % 2 == 0
        data = str(work / "even.qptd")
        datasets.save_dataset(datasets.TrajectoryDataset(
            dt=full.dt, x=full.x[keep], x_next=full.x_next[keep], traj_id=full.traj_id[keep],
            n_trajectories=full.n_trajectories, split_seed=full.split_seed,
            metadata=full.metadata), data)
        cfg = _write_json(work / "run.json", E2E_CONFIG)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg, "--data", data,
                         *(inputs.get(a, a) for a in command[1:]), "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "FormatError",
            "detail": f"{data}: trajectory 1 of 10 has no pairs; every trajectory must have "
                      f"at least one"}
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    @pytest.mark.parametrize("command, detail", [
        (["train", "--reps", "REPS"], "trajectory 4 of the val split holds 10 pairs, "
                                      "trajectory 3 holds 9"),
        (["eval", "--model", "exact:bistable3d"], "trajectory 8 of the test split holds 10 "
                                                  "pairs, trajectory 1 holds 9"),
    ], ids=["train", "eval"])
    def test_trajectories_of_unequal_length_print_one_json_line(self, command, detail, inputs,
                                                                tmp_path, capsys):
        # 10 and 9 pairs: train and eval used to end in a traceback from
        # NumPy's "all input arrays must have the same shape"
        work = tmp_path / "in"
        work.mkdir()
        data = str(work / "ragged.qptd")
        datasets.save_dataset(ragged_bistable3d(), data)
        cfg = _write_json(work / "run.json", E2E_CONFIG)
        capsys.readouterr()
        code = cli.main([command[0], "--config", cfg, "--data", data,
                         *(inputs.get(a, a) for a in command[1:]), "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "QplandError",
            "detail": f"dataset: {detail}; rollouts compare trajectories of one length"}
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    def test_dataset_without_its_sidecar_prints_one_json_line(self, inputs, tmp_path, capsys):
        # the stride m lives in the sidecar; rollouts used to assume 1 without it
        work = tmp_path / "in"
        work.mkdir()
        data = shutil.copyfile(inputs["DATA"], work / "data.qptd")
        cfg = _write_json(work / "run.json", {**E2E_CONFIG, "eval": {"rollout_split": None}})
        capsys.readouterr()
        code = cli.main(["eval", "--config", cfg, "--model", "exact:bistable3d",
                         "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "QplandError",
            "detail": "dataset metadata has no stride 'm', the steps between stored states "
                      "that rollouts compare at (is its .json sidecar missing?)"}
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    @pytest.mark.parametrize("field, value", [
        ("rot_activation", "bogus"), ("dim", "two"), ("potential_params", "x"),
        ("dim", 3.9), ("hidden_width", 6.7), ("dim", True), ("hidden_width", 0)])
    def test_malformed_checkpoint_field_prints_one_json_line(self, field, value, tmp_path,
                                                             capsys):
        # each used to end in a bare ValueError traceback
        work = tmp_path / "in"
        work.mkdir()
        ckpt, points = work / "model.json", work / "points.csv"
        payload = save_checkpoint(ckpt, init_model(3, 6, "tanh", seed=0))
        _write_json(ckpt, {**payload, field: value})
        points.write_text(POINTS, encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["decompose", "--model", str(ckpt), "--points", str(points),
                         "--out", str(tmp_path / "out.csv")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "FormatError"
        assert payload["detail"].startswith(f"checkpoint {ckpt}: field '{field}': ")
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    @pytest.mark.parametrize("sidecar, problem", [
        ("{not json", "not valid JSON"), ("[1, 2]", "not a JSON object")],
        ids=["not_json", "not_an_object"])
    def test_corrupt_sidecar_prints_one_json_line(self, sidecar, problem, inputs, tmp_path,
                                                  capsys):
        # these used to end in a JSONDecodeError or AttributeError traceback
        work = tmp_path / "in"
        work.mkdir()
        data = shutil.copyfile(inputs["DATA"], work / "data.qptd")
        (work / "data.qptd.json").write_text(sidecar, encoding="utf-8")
        cfg = _write_json(work / "run.json", E2E_CONFIG)
        capsys.readouterr()
        code = cli.main(["representatives", "--config", cfg, "--data", str(data),
                         "--out", str(tmp_path / "reps.qprs")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "FormatError"
        assert payload["detail"].startswith(f"{data}.json: {problem}")
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    @pytest.mark.parametrize("box, problem", [
        ([[-1.0, 1.0], [0.0]], "'eval.grid.box' must be a list of [lo, hi] number pairs, "
                               "got [[-1.0, 1.0], [0.0]]"),
        ([[-1.0, 1.0], ["a", 1.0], [0.0, 1.0]], "'eval.grid.box' must be a list of [lo, hi] "
                                                "number pairs, got [[-1.0, 1.0], ['a', 1.0], "
                                                "[0.0, 1.0]]"),
        ([[-1.0, 1.0], [-1.0, 1.0]], "eval.grid.box has 2 rows, system 'bistable3d' has "
                                     "dimension 3"),
    ], ids=["ragged", "non_numeric", "not_d_rows"])
    def test_bad_grid_box_is_reported_with_every_other_problem(self, box, problem, tmp_path,
                                                               capsys):
        cfg = _write_json(tmp_path / "bad.json",
                          {**E2E_CONFIG, "eval": {"grid": {"box": box, "resolution": 3}},
                           "extra": {}})
        code = cli.main(["eval", "--config", cfg, "--model", "exact:bistable3d",
                         "--data", str(tmp_path / "data.qptd"),
                         "--out", str(tmp_path / "report.json")])
        assert code == 1
        lines = capsys.readouterr().err.strip().split("\n")
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert payload["problems"] == ["unknown top-level key 'extra'", problem]
        assert not (tmp_path / "report.json").exists()
