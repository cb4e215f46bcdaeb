"""qpland depends on NumPy alone: importing any of its modules, in a fresh
interpreter, loads no SciPy module."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_module_loads_scipy():
    modules = sorted(f"qpland.{p.stem}" for p in (SRC / "qpland").glob("*.py"))
    assert "qpland.cli" in modules
    code = ("import importlib, json, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(proc.stdout) == []
