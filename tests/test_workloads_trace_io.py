"""Tests for trace recording and replay."""

import types

import numpy as np
import pytest

from repro.harness.engine import QuantumEngine
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.workloads.trace_io import (
    TRACE_FORMAT_VERSION,
    TraceRecorder,
    load_trace,
    load_trace_windows,
    save_trace,
    windows_to_phases,
)
from tests.conftest import make_kernel, make_process


def run_recorded(interval_ns=SECOND // 4, duration=SECOND):
    kernel = make_kernel(fast_pages=128, slow_pages=512)
    process = make_process(n_pages=128)
    kernel.register_process(process)
    kernel.allocate_initial_placement()
    engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
    recorder = TraceRecorder(interval_ns=interval_ns)
    engine.run(
        duration,
        observer=recorder.observe,
        observe_every_ns=recorder.interval_ns,
    )
    return recorder, process


class TestRecorder:
    def test_records_windows(self):
        recorder, process = run_recorded()
        assert recorder.pids() == [process.pid]
        assert recorder.n_windows(process.pid) >= 3

    def test_windows_sum_to_total_traffic(self):
        recorder, process = run_recorded()
        windows = recorder._windows[process.pid]
        total = sum(w.sum() for w in windows)
        # Recorded windows cover everything up to the last observation.
        assert total <= process.stats.accesses + 1e-6
        assert total > 0.5 * process.stats.accesses

    def test_to_workload_replays_distribution(self):
        recorder, process = run_recorded()
        replay = recorder.to_workload(process.pid)
        probs = replay.access_distribution(now_ns=0)
        assert probs.sum() == pytest.approx(1.0)
        # The stub workload is front-loaded; the trace must be too.
        assert probs[:32].sum() > probs[32:].sum()

    def test_write_fraction_carried(self):
        recorder, process = run_recorded()
        replay = recorder.to_workload(process.pid)
        assert replay.write_fraction == (
            process.workload.write_fraction
        )

    def test_unknown_pid(self):
        recorder, _ = run_recorded()
        with pytest.raises(ValueError):
            recorder.to_workload(999)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            TraceRecorder(interval_ns=0)

    def test_observe_without_write_fraction(self):
        """Duck-typed workloads lacking a write mix get the default."""
        process = types.SimpleNamespace(
            pid=7,
            pages=types.SimpleNamespace(
                access_count=np.array([3.0, 1.0, 0.0])
            ),
            workload=object(),
        )
        engine = types.SimpleNamespace(
            kernel=types.SimpleNamespace(processes=[process])
        )
        recorder = TraceRecorder(interval_ns=SECOND)
        recorder.observe(engine, SECOND)
        replay = recorder.to_workload(7)
        assert replay.write_fraction == pytest.approx(0.05)

    def test_save_all(self, tmp_path):
        recorder, process = run_recorded()
        saved = recorder.save_all(tmp_path / "traces")
        assert set(saved) == {process.pid}
        assert saved[process.pid].name == f"trace_pid{process.pid}.npz"
        replay = load_trace(saved[process.pid])
        direct = recorder.to_workload(process.pid)
        np.testing.assert_allclose(
            replay.access_distribution(now_ns=0),
            direct.access_distribution(now_ns=0),
        )


class TestIdleWindows:
    def test_windows_to_phases_preserves_idle(self):
        windows = np.array([
            [2.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 4.0],
        ])
        phases = windows_to_phases(windows, SECOND)
        durations = [d for d, _ in phases]
        masses = [float(w.sum()) for _, w in phases]
        # One busy phase, one coalesced 2-window idle phase, one busy.
        assert durations == [SECOND, 2 * SECOND, SECOND]
        assert masses[0] > 0 and masses[1] == 0.0 and masses[2] > 0

    def test_idle_roundtrip_keeps_cycle_length(self, tmp_path):
        windows = [
            np.array([1.0, 0.0]),
            np.zeros(2),
            np.array([0.0, 1.0]),
        ]
        path = tmp_path / "idle.npz"
        save_trace(path, windows, SECOND)
        replay = load_trace(path)
        # 3 recorded windows -> 3 seconds of replay cycle, idle kept.
        assert replay._durations == [SECOND, SECOND, SECOND]
        assert replay._cycle_ns == 3 * SECOND
        assert float(
            replay.access_distribution(now_ns=SECOND + 1).sum()
        ) == 0.0

    def test_zero_traffic_phase_runs_no_accesses(self):
        """An idle lead-in phase completes no accesses in the engine."""
        from repro.sim.rng import RngStreams
        from repro.vm.process import SimProcess
        from repro.workloads.base import TraceWorkload

        workload = TraceWorkload([
            (SECOND, np.zeros(64)),
            (SECOND, np.ones(64)),
        ])
        process = SimProcess(
            pid=0,
            workload=workload,
            rng=RngStreams(3).spawn("idle").get("access"),
        )
        kernel = make_kernel(fast_pages=64, slow_pages=256)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(SECOND // 2)
        assert process.stats.accesses == 0
        engine.run(2 * SECOND)
        assert process.stats.accesses > 0


class TestFormatVersions:
    def test_current_version_is_v2(self, tmp_path):
        path = tmp_path / "v2.npz"
        save_trace(path, [np.ones(4)], SECOND)
        with np.load(path) as data:
            assert int(data["version"]) == TRACE_FORMAT_VERSION == 2

    def test_v1_file_still_loads(self, tmp_path):
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            version=np.int64(1),
            interval_ns=np.int64(SECOND),
            write_fraction=np.float64(0.1),
            windows=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]),
        )
        windows, interval_ns, write_fraction = load_trace_windows(path)
        assert windows.shape == (3, 2)
        assert interval_ns == SECOND
        assert write_fraction == pytest.approx(0.1)
        replay = load_trace(path)
        # v1 readers dropped the idle window; v2 semantics keep it.
        assert replay._cycle_ns == 3 * SECOND


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        recorder, process = run_recorded()
        path = tmp_path / "trace.npz"
        recorder.save(path, process.pid)
        replay = load_trace(path)
        direct = recorder.to_workload(process.pid)
        np.testing.assert_allclose(
            replay.access_distribution(now_ns=0),
            direct.access_distribution(now_ns=0),
        )
        assert replay.write_fraction == direct.write_fraction

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(tmp_path / "x.npz", [], SECOND)

    def test_zero_traffic_trace_rejected(self, tmp_path):
        path = tmp_path / "zero.npz"
        save_trace(path, [np.zeros(8)], SECOND)
        with pytest.raises(ValueError):
            load_trace(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.int64(99),
            interval_ns=np.int64(1),
            write_fraction=np.float64(0.1),
            windows=np.ones((1, 4)),
        )
        with pytest.raises(ValueError):
            load_trace(path)

    def test_replay_runs_in_engine(self, tmp_path):
        """A loaded trace drives a fresh simulation end to end."""
        from repro.sim.rng import RngStreams
        from repro.vm.process import SimProcess

        recorder, process = run_recorded()
        path = tmp_path / "trace.npz"
        recorder.save(path, process.pid)

        replayed = SimProcess(
            pid=5,
            workload=load_trace(path),
            rng=RngStreams(9).spawn("replay").get("access"),
        )
        kernel = make_kernel(fast_pages=128, slow_pages=512)
        kernel.register_process(replayed)
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(SECOND)
        assert replayed.stats.accesses > 0
