"""Tests for the trace compiler: binning, segmentation, replay."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads.base import TraceWorkload
from repro.workloads.compile import (
    CompiledTrace,
    StationaryTableWorkload,
    compile_event_stream,
    compile_events,
    compile_trace_file,
    compile_windows,
    intern_distribution,
    segment_windows,
    synthetic_event_stream,
)
from repro.workloads.trace_io import TraceRecorder, save_trace


def two_phase_events(n_events=4_000, n_pages=16, window_ns=SECOND):
    """Deterministic two-phase event arrays: pages 0-3 then 8-11."""
    rng = np.random.default_rng(1)
    half = n_events // 2
    timestamps = np.linspace(
        0, 8 * window_ns - 1, n_events
    ).astype(np.int64)
    vpns = np.where(
        np.arange(n_events) < half,
        rng.integers(0, 4, n_events),
        rng.integers(8, 12, n_events),
    ).astype(np.int64)
    pids = np.zeros(n_events, dtype=np.int64)
    is_write = np.zeros(n_events, dtype=bool)
    return timestamps, pids, vpns, is_write


class TestBinning:
    def test_counts_land_in_the_right_window_and_page(self):
        timestamps = np.array([0, 1, SECOND, 3 * SECOND])
        pids = np.zeros(4, dtype=np.int64)
        vpns = np.array([2, 2, 0, 1])
        compiled = compile_events(
            timestamps, pids, vpns, [False] * 4,
            n_pages=4, window_ns=SECOND, threshold=2.0,
        )[0]
        assert compiled.n_events == 4
        assert compiled.n_windows == 4
        assert compiled.n_idle_windows == 1
        # threshold=2.0 pools busy windows, but the empty window at
        # t=2s splits the run: phases never straddle an idle gap.
        busy = [w for _, w in compiled.phases if w.sum() > 0]
        assert len(busy) == 2
        np.testing.assert_allclose(
            busy[0], np.array([1, 0, 2, 0]) / 3.0
        )
        np.testing.assert_allclose(busy[1], [0.0, 1.0, 0.0, 0.0])

    def test_write_fraction_measured_from_events(self):
        timestamps, pids, vpns, is_write = two_phase_events(1_000)
        is_write[:250] = True
        compiled = compile_events(
            timestamps, pids, vpns, is_write, n_pages=16
        )[0]
        assert compiled.write_fraction == pytest.approx(0.25)

    def test_streaming_equals_one_shot(self):
        timestamps, pids, vpns, is_write = two_phase_events()
        one_shot = compile_events(
            timestamps, pids, vpns, is_write, n_pages=16
        )[0]
        chunks = [
            (timestamps[i:i + 313], pids[i:i + 313],
             vpns[i:i + 313], is_write[i:i + 313])
            for i in range(0, timestamps.size, 313)
        ]
        streamed = compile_event_stream(iter(chunks), n_pages=16)[0]
        assert streamed.n_phases == one_shot.n_phases
        for (d1, p1), (d2, p2) in zip(
            streamed.phases, one_shot.phases
        ):
            assert d1 == d2
            np.testing.assert_array_equal(p1, p2)

    def test_per_pid_separation(self):
        timestamps = np.arange(4, dtype=np.int64)
        pids = np.array([1, 1, 2, 2])
        vpns = np.array([0, 0, 3, 3])
        compiled = compile_events(
            timestamps, pids, vpns, [False] * 4, n_pages=4
        )
        assert set(compiled) == {1, 2}
        assert compiled[1].phases[0][1][0] == pytest.approx(1.0)
        assert compiled[2].phases[0][1][3] == pytest.approx(1.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            compile_event_stream(iter([]), n_pages=4)

    def test_out_of_range_vpn_rejected(self):
        with pytest.raises(ValueError):
            compile_events([0], [0], [9], [False], n_pages=4)


class TestSegmentation:
    def test_detects_the_phase_boundary(self):
        hot_a = np.tile([10.0, 10.0, 0.0, 0.0], (4, 1))
        hot_b = np.tile([0.0, 0.0, 10.0, 10.0], (4, 1))
        segments = segment_windows(np.vstack([hot_a, hot_b]))
        assert [(s.start, s.end) for s in segments] == [(0, 4), (4, 8)]

    def test_idle_windows_form_their_own_segments(self):
        busy = np.tile([5.0, 5.0], (2, 1))
        idle = np.zeros((3, 2))
        segments = segment_windows(np.vstack([busy, idle, busy]))
        assert [s.idle for s in segments] == [False, True, False]
        assert (segments[1].start, segments[1].end) == (2, 5)

    def test_stable_stream_is_one_segment(self):
        windows = np.tile([3.0, 1.0, 0.0], (10, 1))
        assert len(segment_windows(windows)) == 1

    def test_known_phase_count_recovered(self):
        compiled = compile_event_stream(
            synthetic_event_stream(
                50_000, n_pages=64, n_phases=3, windows_per_phase=4
            ),
            n_pages=64,
        )[0]
        assert compiled.n_phases == 3


class TestCompiledTrace:
    def test_single_phase_becomes_stationary_table(self):
        compiled = compile_windows(
            np.tile([1.0, 3.0], (5, 1)), SECOND
        )
        workload = compiled.to_workload()
        assert isinstance(workload, StationaryTableWorkload)
        # Same frozen object every call (the arena's identity check).
        assert workload.access_distribution() is (
            workload.access_distribution()
        )

    def test_multi_phase_becomes_trace_workload(self):
        windows = np.vstack([
            np.tile([9.0, 1.0], (3, 1)),
            np.tile([1.0, 9.0], (3, 1)),
        ])
        compiled = compile_windows(windows, SECOND)
        workload = compiled.to_workload()
        assert isinstance(workload, TraceWorkload)
        assert workload._durations == [3 * SECOND, 3 * SECOND]
        assert compiled.total_ns == 6 * SECOND

    def test_idle_windows_compile_to_zero_phases(self):
        windows = np.vstack([
            np.tile([4.0, 0.0], (2, 1)),
            np.zeros((3, 2)),
            np.tile([0.0, 4.0], (2, 1)),
        ])
        compiled = compile_windows(windows, SECOND)
        assert compiled.n_idle_windows == 3
        durations = [d for d, _ in compiled.phases]
        masses = [float(p.sum()) for _, p in compiled.phases]
        assert durations == [2 * SECOND, 3 * SECOND, 2 * SECOND]
        assert masses[1] == 0.0
        # The compiled cycle keeps the recording's wall-clock shape.
        assert compiled.total_ns == 7 * SECOND

    def test_zero_traffic_trace_rejected(self):
        with pytest.raises(ValueError):
            compile_windows(np.zeros((3, 4)), SECOND)

    def test_identical_histograms_share_one_table(self):
        a = compile_windows(np.tile([2.0, 6.0], (4, 1)), SECOND)
        b = compile_windows(np.tile([1.0, 3.0], (2, 1)), SECOND)
        # Different counts, same normalized content: one frozen array.
        assert a.phases[0][1] is b.phases[0][1]
        assert not a.phases[0][1].flags.writeable

    def test_intern_distribution_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            intern_distribution(np.zeros(4))


class TestTraceFiles:
    def test_compile_recorder_npz(self, tmp_path):
        path = tmp_path / "rec.npz"
        save_trace(
            path,
            [np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 2.0])],
            SECOND,
            write_fraction=0.2,
        )
        compiled = compile_trace_file(path)[0]
        assert compiled.n_windows == 3
        assert compiled.n_idle_windows == 1
        assert compiled.write_fraction == pytest.approx(0.2)

    def test_window_format_rejects_rebinning(self, tmp_path):
        path = tmp_path / "rec.npz"
        save_trace(path, [np.ones(2)], SECOND)
        with pytest.raises(ValueError):
            compile_trace_file(path, window_ns=SECOND // 2)

    def test_compile_event_npz(self, tmp_path):
        timestamps, pids, vpns, is_write = two_phase_events(2_000)
        path = tmp_path / "events.npz"
        np.savez_compressed(
            path,
            timestamp_ns=timestamps,
            pid=pids,
            vpn=vpns,
            is_write=is_write,
        )
        compiled = compile_trace_file(path)[0]
        assert compiled.n_events == 2_000
        assert compiled.n_phases == 2

    def test_compile_event_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = ["timestamp_ns,pid,vpn,is_write"]
        rows += [f"{t},0,{t % 4},0" for t in range(100)]
        path.write_text("\n".join(rows) + "\n")
        compiled = compile_trace_file(path)[0]
        assert compiled.n_events == 100
        assert compiled.n_pages == 4

    def test_zero_window_is_rejected_not_defaulted(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("0,0,1,0\n5,0,2,0\n")
        with pytest.raises(ValueError):
            compile_trace_file(path, window_ns=0)

    def test_checked_in_fixtures_compile(self):
        import pathlib

        data = pathlib.Path(__file__).parent / "data"
        npz = compile_trace_file(data / "sample_trace.npz")[0]
        assert npz.n_phases >= 2
        assert npz.n_idle_windows >= 1
        csv = compile_trace_file(data / "sample_events.csv")[0]
        assert csv.n_events > 0


class TestReplay:
    def test_record_compile_replay_equivalence(self):
        """A compiled re-recording replays within the arena suite's
        statistical-equivalence bounds of the original run."""
        from tests.conftest import make_kernel, make_process
        from repro.harness.engine import QuantumEngine
        from repro.harness.runner import summarize_run

        def run_with(workload=None):
            kernel = make_kernel(fast_pages=256, slow_pages=1024)
            if workload is None:
                process = make_process(n_pages=256)
            else:
                process = SimProcess(
                    pid=1,
                    workload=workload,
                    rng=RngStreams(0).spawn("proc-1").get("access"),
                )
            kernel.register_process(process)
            kernel.allocate_initial_placement()
            engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
            recorder = TraceRecorder(interval_ns=SECOND // 2)
            end_ns = engine.run(
                4 * SECOND,
                observer=recorder.observe,
                observe_every_ns=recorder.interval_ns,
            )
            result = summarize_run(None, kernel, engine, end_ns)
            return recorder, process, result

        recorder, process, original = run_with()
        compiled = compile_windows(
            np.stack(recorder.windows(process.pid)),
            SECOND // 2,
            write_fraction=process.workload.write_fraction,
        )
        _, _, replayed = run_with(compiled.to_workload())
        assert replayed.throughput_per_sec == pytest.approx(
            original.throughput_per_sec, rel=0.05
        )
        assert replayed.fmar == pytest.approx(
            original.fmar, rel=0.05, abs=1e-4
        )


class TestObservability:
    def test_compile_emits_events_and_counters(self):
        from repro.obs import ObsHub

        hub = ObsHub.create(trace=True, metrics=True)
        compile_windows(
            np.vstack([np.tile([1.0, 0.0], (2, 1)), np.zeros((1, 2))]),
            SECOND,
            obs=hub,
            pid=3,
        )
        events = [
            e for e in hub.tracer.events()
            if e["type"] == "compile.trace"
        ]
        assert len(events) == 1
        assert events[0]["pid"] == 3
        assert events[0]["n_idle"] == 1
        snapshot = hub.snapshot()
        assert snapshot["counters"]["compile.windows"] == 3
        assert snapshot["counters"]["compile.phases"] == 2
