import hashlib
import json

import numpy as np

from qpland import cli
from qpland.decomposition import init_model, save_checkpoint

# sha256 of each command's output file, recorded with NumPy 2.4.6 and
# scipy-openblas 0.3.31; a BLAS that rounds differently would need them
# recorded again
PINNED_SHA256 = {
    "decompose.csv":
        "7f3cbdaeea9908899c654ee129c91fed43cda1545641459ac2086f3226f50302",
    "decompose.json":
        "63c9a084db39a6f2014b92772a30557ebd471b4be6957816cc82364c55168aca",
    "landscape.csv":
        "d12bc510c5ed90007d07b3a7b17b3c93ec11b3f047cf00391b546fae4a1db976",
    "mep.csv":
        "6260dc7e74332fdd683e4957c4ecb0ab3110a7e3ba9a715b833038099ad9d6bd",
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

POINTS = "x0,x1,x2\n-1.0,0.0,0.0\n0.5,-0.25,1.0\n0.0,0.0,0.0\n1.5,1.0,-0.5\n"


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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
    return out


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


class TestErrors:
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
