"""Block lanes: every blocked computation gives the same bytes for any
number of lanes, reduces and raises in block order, keeps the caller's
NumPy error state, and leaves no thread running. The lane count is patched,
so the threaded path runs on a runner of any size."""

import hashlib
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from qpland import evaluation, lanes, training
from qpland.datasets import RepresentativeSet, generate, representative_sample, split
from qpland.decomposition import AnalyticDecomposition, init_model, orthogonality_cosine
from qpland.errors import NonFiniteError, TrainingDivergedError
from qpland.evaluation import _CHUNK, build_report, potential_values
from qpland.nets import Workspace
from qpland.systems import make_system
from qpland.training import (HISTORY_COLUMNS, LossConfig, TrainConfig, dyn_loss,
                             total_loss_and_grad, train)

from test_training import PINNED_DYN_LOSS, dyn_case, loss_case

LANE_COUNTS = [1, 2, 3]


@pytest.fixture
def started(monkeypatch):
    """Every lane thread started while the test runs."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(lanes.threading, "Thread", Recorded)
    return threads


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("qpland-lane")]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class TestRunBlocks:
    @pytest.mark.parametrize("n", LANE_COUNTS)
    def test_reduced_in_block_order_whatever_finishes_first(self, cpus, n):
        cpus(n)
        seen = []

        def work(i, ws):
            time.sleep(0.002 * ((7 * i) % 5))  # blocks finish out of order
            return i

        lanes.run_blocks(12, work, seen.append, Workspace())
        assert seen == list(range(12))

    @pytest.mark.parametrize("n", LANE_COUNTS)
    def test_the_first_failing_block_raises(self, cpus, n):
        # block 6 fails at once, block 3 only after a while: the serial
        # loop raises block 3's error, and so must the lanes
        cpus(n)
        reduced = []

        def work(i, ws):
            if i == 3:
                time.sleep(0.05)
                raise ValueError(3)
            if i == 6:
                raise ValueError(6)
            return i

        with pytest.raises(ValueError) as exc:
            lanes.run_blocks(8, work, reduced.append, Workspace())
        assert exc.value.args == (3,)
        assert reduced == [0, 1, 2]
        assert lane_threads() == []

    def test_every_block_reduced_once_under_thread_switching(self, cpus):
        # more lanes than cores, and a thread switch every microsecond: a
        # block claimed twice, lost, or reduced out of order shows
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                seen = []
                lanes.run_blocks(200, lambda i, ws: i, seen.append, Workspace())
                assert seen == list(range(200))
        finally:
            sys.setswitchinterval(interval)
        assert lane_threads() == []

    def test_no_blocks_run_nothing(self, cpus, started):
        cpus(2)
        ws = Workspace()
        lanes.run_blocks(0, lambda i, lane_ws: pytest.fail("a block ran"),
                         lambda result: pytest.fail("a result was reduced"), ws)
        assert started == [] and ws._store.lanes == []

    def test_lanes_never_exceed_the_blocks(self, cpus, started):
        cpus(8)
        ran = set()
        ws = Workspace()

        def work(i, lane_ws):
            ran.add(threading.get_ident())
            time.sleep(0.01)

        lanes.run_blocks(3, work, None, ws)
        assert len(started) == 2 and len(ran) <= 3
        assert len(ws._store.lanes) == 2
        lanes.run_blocks(1, work, None, Workspace())
        assert len(started) == 2  # one block runs on the calling thread alone

    def test_lane_threads_keep_the_callers_error_state(self, cpus):
        cpus(3)
        seen = {}

        def work(i, ws):
            time.sleep(0.01)  # so that every lane takes blocks
            seen[threading.current_thread().name] = np.geterr()
            return np.exp(np.full(4, 1000.0)).sum()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                lanes.run_blocks(9, work, None, Workspace())
            assert len(seen) == 3
            assert all(err["over"] == "ignore" for err in seen.values())
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                lanes.run_blocks(9, work, None, Workspace())

    def test_a_new_lane_runs_its_first_block_on_the_calling_thread(self, cpus):
        # so that the arrays a new lane takes in its first block come from
        # the caller's heap; a lane that has arrays runs every block it
        # takes on its own thread
        cpus(3)
        ws = Workspace()
        caller = threading.current_thread()

        def threads_by_lane():
            runs = []

            def work(i, lane_ws):
                runs.append((i, lane_ws, threading.current_thread()))
                lane_ws.take("block", (4, 2))
                time.sleep(0.01)  # so that the lane threads take blocks

            lanes.run_blocks(9, work, None, ws)
            runs.sort(key=lambda run: run[0])
            return [[t for _, lane_ws, t in runs if lane_ws is ws.lane(k)] for k in range(3)]

        first = threads_by_lane()
        assert all(t is caller for t in first[0])
        for k in (1, 2):
            assert first[k][0] is caller
            assert all(t is not caller for t in first[k][1:])
        again = threads_by_lane()
        assert again[1] + again[2] and all(t is not caller for t in again[1] + again[2])


# Recorded with the serial block loop that lanes replaced: sha256 of the
# little-endian float64 bytes (see ``digest``), and the losses as float.hex()
PINNED_LOSS_AND_GRAD = {
    "tanh": (("0x1.52cd0acd5523fp+0", "0x1.2aa59e5214675p+0", "0x1.918a3cd0875e3p-3"),
             "d504adc0953b170c1622b04812b0f8f7294848ce95ff14469b6faf54cc523f03"),
    "relu2": (("0x1.584552000d6f0p+0", "0x1.2e735f2753bd8p+0", "0x1.a2337c7740ef4p-3"),
              "d28493c1ad9b31a9126c66a34d33a469ba09e64c4fa7758af7baa7b05861505e"),
}
PINNED_POTENTIAL_VALUES = "5f1a5d6ec7f9ff3a3e273eb2191b232a085ef7b6c90dc46ca9517ae2403a92b1"
PINNED_TRAIN = ("5bce5db83fe9771ad2455260cbe9c9d833162eb435769d59617d76745b4ec6ab",
                "0a6dc439bf3a48c2b47b54cc904147c87bb0c8ce55e71e9ab2c24581ca8789ae")


class TestSameBytesForAnyLaneCount:
    """Each lane count gives the bytes of the serial loop: a block's
    gradient terms are added one by one, block after block."""

    @pytest.mark.parametrize("n", LANE_COUNTS)
    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_total_loss_and_grad(self, cpus, n, act):
        # 1100 pairs and 1300 representatives: three blocks of each
        cpus(n)
        total, ld, lo, grads = total_loss_and_grad(*loss_case(1100, 1300, act))
        assert ((total.hex(), ld.hex(), lo.hex()), digest(grads.potential, grads.rotational)
                ) == PINNED_LOSS_AND_GRAD[act]

    @pytest.mark.parametrize("n", LANE_COUNTS)
    @pytest.mark.parametrize("case", sorted(PINNED_DYN_LOSS))
    def test_pinned_dyn_loss(self, cpus, n, case):
        cpus(n)
        assert dyn_loss(*dyn_case(*case)).hex() == PINNED_DYN_LOSS[case]

    @pytest.mark.parametrize("n", LANE_COUNTS)
    def test_potential_values_over_more_than_four_chunks(self, cpus, n):
        cpus(n)
        model = init_model(3, 16, "tanh", seed=4)
        model.center = np.array([0.3, -0.2, 0.1])
        points = np.random.default_rng(5).normal(0.0, 1.5, (5 * _CHUNK + 77, 3))
        assert digest(potential_values(model, points)) == PINNED_POTENTIAL_VALUES

    @pytest.mark.parametrize("n", LANE_COUNTS)
    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "exact"])
    def test_report_cosines(self, cpus, n, learned):
        # the chunks on lanes give the bits of one call over every point
        cpus(n)
        if learned:
            model = init_model(3, 16, "relu2", seed=6)
            model.center = np.array([0.3, -0.2, 0.1])
        else:
            model = AnalyticDecomposition.from_system(make_system("bistable3d"))
        points = np.random.default_rng(7).normal(0.0, 1.5, (5 * _CHUNK + 77, 3))
        whole = np.abs(orthogonality_cosine(model, points))
        report = build_report(model, representatives=RepresentativeSet(points, 0.1))
        assert (report.cos_mean_abs.hex(), report.cos_max_abs.hex()) == (
            float(whole.mean()).hex(), float(whole.max()).hex())

    @pytest.mark.parametrize("n", LANE_COUNTS)
    def test_train_history_and_parameters(self, cpus, n):
        # batches, val pairs and both representative sets span several blocks
        cpus(n)
        result = train(*multi_block_run())
        history = [rec[c] for rec in result.history for c in HISTORY_COLUMNS]
        assert (digest(history), digest(result.model.potential_net.params,
                                        result.model.rotational_net.params)) == PINNED_TRAIN


def multi_block_run():
    dataset = split(generate(make_system("bistable3d"), 150, 1e-2, 2.0, 10, seed=8), seed=9)
    reps = {name: representative_sample(dataset.states(name), 0.02, seed=10)
            for name in ("train", "val")}
    assert len(dataset.pairs("val")[0]) > training._BLOCK
    assert min(len(r.points) for r in reps.values()) > training._BLOCK
    train_cfg = TrainConfig(batch_size=1100, lr0=1e-2, max_steps=4, eval_every=2, seed=3,
                            val_rollout_trajectories=2)
    return dataset, reps, init_model(3, 8, "tanh", seed=2), LossConfig(), train_cfg


class TestNothingLeftRunning:
    def test_after_train(self, cpus, started):
        cpus(3)
        train(*multi_block_run())
        assert started and lane_threads() == []

    def test_after_a_diverged_train(self, cpus, started):
        cpus(3)
        dataset, reps, model, loss_cfg, train_cfg = multi_block_run()
        model.potential_net.params[:] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(dataset, reps, model, loss_cfg, train_cfg)
        assert started and lane_threads() == []

    def test_after_build_report(self, cpus, started):
        cpus(3)
        system = make_system("bistable3d")
        dataset = split(generate(system, 30, 1e-2, 0.5, 10, seed=1), seed=2)
        points, _ = evaluation.make_grid(system.domain, 21)
        assert len(points) > 2 * _CHUNK
        report = build_report(init_model(3, 8, "tanh", seed=1), dataset=dataset,
                              exact_u=system.exact_u, grid_points=points)
        assert np.isfinite(report.rrmse)
        assert started and lane_threads() == []


class TestErrorsInBlockOrder:
    @pytest.mark.parametrize("n", LANE_COUNTS)
    @pytest.mark.parametrize("grad", [False, True])
    def test_non_finite_residuals_in_blocks_three_and_six(self, cpus, n, grad):
        # rows 1600 (block 3) and 3100 (block 6) of 3300; the error names
        # block 3's row, as the serial loop does
        cpus(n)
        model, x, y, dt, reps, cfg = loss_case(3300, 10, "tanh")
        y[1600, 2] = np.nan
        y[3100, 0] = np.inf
        with pytest.raises(NonFiniteError) as exc:
            if grad:
                total_loss_and_grad(model, x, y, dt, reps, cfg)
            else:
                dyn_loss(model, x, y, dt, cfg.huber_delta)
        assert exc.value.index == 1600
        assert lane_threads() == []
