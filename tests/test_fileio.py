import builtins
import os

import numpy as np
import pytest

from qpland import fileio
from qpland.datasets import (RepresentativeSet, generate, load_dataset, save_dataset,
                             save_representatives, split)
from qpland.decomposition import init_model, save_checkpoint
from qpland.evaluation import MetricsReport, write_csv
from qpland.systems import make_system


class _Interrupted(Exception):
    pass


def interrupt_writes(monkeypatch, is_target, after):
    """Make every file opened for writing whose name ``is_target`` accepts
    raise on its write number ``after`` (counting from 0), half of that
    write done, as if the process died midway through the file."""
    real_open = builtins.open

    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" not in mode or not is_target(os.path.basename(path)):
            return fh
        calls = [0]
        real_write = fh.write

        def write(data):
            if calls[0] == after:
                real_write(data[: len(data) // 2])
                raise _Interrupted(path)
            calls[0] += 1
            return real_write(data)

        fh.write = write
        return fh

    monkeypatch.setattr(builtins, "open", fake_open)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture
def dataset():
    return split(generate(make_system("bistable3d"), 12, 1e-2, 0.2, 2, seed=5), seed=1)


class TestAtomicWrite:
    def test_success_replaces_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        with fileio.atomic_write(path) as fh:
            fh.write(b"new")
        assert snapshot(tmp_path) == {"f.bin": b"new"}

    def test_error_keeps_an_absent_file_absent(self, tmp_path):
        with pytest.raises(_Interrupted):
            with fileio.atomic_write(tmp_path / "f.bin") as fh:
                fh.write(b"half")
                raise _Interrupted()
        assert snapshot(tmp_path) == {}


class TestInterruptedSaves:
    @pytest.mark.parametrize("is_target, after", [
        (lambda name: ".json" not in name, 1),  # the body, after the header
        (lambda name: ".json" in name, 0),  # the sidecar, after the whole body
    ], ids=["body", "sidecar"])
    def test_dataset(self, dataset, is_target, after, tmp_path, monkeypatch):
        path = tmp_path / "d.qptd"
        save_dataset(dataset, path)
        before = snapshot(tmp_path)
        assert set(before) == {"d.qptd", "d.qptd.json"}
        other = split(generate(make_system("bistable3d"), 12, 1e-2, 0.2, 2, seed=6), seed=2)
        interrupt_writes(monkeypatch, is_target, after)
        with pytest.raises(_Interrupted):
            save_dataset(other, path)
        assert snapshot(tmp_path) == before
        assert load_dataset(path).equals(dataset)

    def test_representatives(self, tmp_path, monkeypatch):
        path = tmp_path / "r.qprs"
        save_representatives(RepresentativeSet(np.arange(12.0).reshape(4, 3), 0.5), path)
        before = snapshot(tmp_path)
        interrupt_writes(monkeypatch, lambda name: True, 1)
        with pytest.raises(_Interrupted):
            save_representatives(RepresentativeSet(np.ones((9, 3)), 0.25), path)
        assert snapshot(tmp_path) == before

    def test_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_model(3, 4, "tanh", seed=0))
        before = snapshot(tmp_path)
        interrupt_writes(monkeypatch, lambda name: True, 3)
        with pytest.raises(_Interrupted):
            save_checkpoint(path, init_model(3, 4, "tanh", seed=1))
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("write", [
        lambda path, v: write_csv(path, ("step", "loss"), [(k, v) for k in range(3)]),
        lambda path, v: MetricsReport(rrmse=v, notes={"run": v}).write(path),
    ], ids=["csv", "report"])
    def test_csv_and_report(self, write, tmp_path, monkeypatch):
        path = tmp_path / "out"
        write(path, 0.5)
        before = snapshot(tmp_path)
        interrupt_writes(monkeypatch, lambda name: True, 1)
        with pytest.raises(_Interrupted):
            write(path, 0.25)
        assert snapshot(tmp_path) == before

    def test_first_save_interrupted_leaves_nothing(self, dataset, tmp_path, monkeypatch):
        interrupt_writes(monkeypatch, lambda name: True, 1)
        with pytest.raises(_Interrupted):
            save_dataset(dataset, tmp_path / "d.qptd")
        assert snapshot(tmp_path) == {}
