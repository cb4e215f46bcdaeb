"""The example configs under ``configs/``: each parses, and its whole chain
generate -> representatives -> train -> eval runs through the CLI once,
at tiny sizes."""

import json
from pathlib import Path

import pytest

from qpland import cli
from qpland.config import load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SYSTEMS = ["bistable3d", "limitcycle2d", "ginzburg_landau"]

# the keys a tiny run overrides; every other key is the file's own
TINY = {"data": {"N": 10}, "model": {"hidden_width": 4},
        "train": {"batch": 32, "steps": 2, "eval_every": 1}}


def tiny(doc):
    out = {block: dict(keys) for block, keys in doc.items()}
    for block, keys in TINY.items():
        out[block].update(keys)
    if "grid" in out.get("eval", {}):
        out["eval"]["grid"] = {**out["eval"]["grid"], "resolution": 5}
    return out


def test_every_listed_system_has_a_config():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(SYSTEMS)


@pytest.mark.parametrize("name", SYSTEMS)
def test_config_parses_for_its_system(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    assert cfg.get("system.name") == name
    assert cfg.system().dim == {"bistable3d": 3, "limitcycle2d": 2, "ginzburg_landau": 50}[name]


@pytest.mark.parametrize("name", SYSTEMS)
def test_chain_runs_at_tiny_sizes(name, tmp_path):
    doc = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(tiny(doc)), encoding="utf-8")
    load_config(cfg)
    files = {k: str(tmp_path / f) for k, f in
             (("data", "data.qptd"), ("reps", "reps.qprs"), ("model", "model.json"),
              ("report", "report.json"))}
    for argv in (["generate", "--out", files["data"]],
                 ["representatives", "--data", files["data"], "--out", files["reps"]],
                 ["train", "--data", files["data"], "--reps", files["reps"],
                  "--out", files["model"]],
                 ["eval", "--model", files["model"], "--data", files["data"],
                  "--out", files["report"]]):
        assert cli.main([argv[0], "--config", str(cfg), *argv[1:]]) == 0, argv[0]
    report = json.loads(Path(files["report"]).read_text(encoding="utf-8"))
    assert report["rollout_count"] >= 1
    # rRMSE on a grid where the system has an exact landscape and the config a grid
    assert (report["rRMSE"] is not None) == ("grid" in doc.get("eval", {}))
