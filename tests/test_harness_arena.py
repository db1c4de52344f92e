"""Cross-process arena stepping: equivalence with the per-page oracle.

The arena (``repro.harness.arena``) is the engine's fast path: it
executes each quantum as one batched array program over the
concatenated fleet.  Its equivalence contract (``docs/SIMULATION.md``
section 6) is statistical: it prices per-segment tier masses, draws
hint faults through an active/dormant split (from one aggregate
``engine.arena`` stream when several segments are eligible) and defers
accounting, so it matches the ``fast_path=False`` oracle in law, not
bit for bit.
"""

import numpy as np
import pytest

from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.obs import ObsHub
from repro.policies.base import TieringPolicy
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads.base import TraceWorkload
from tests.conftest import make_kernel, make_process

#: every registered policy (the Table 1 roster): the arena must match
#: the oracle for all of them
ALL_POLICIES = [
    "linux-nb",
    "autotiering",
    "tpp",
    "multiclock",
    "memtis",
    "telescope",
    "flexmem",
    "chrono",
    "nomad",
    "tierbpf",
    "arms",
    "jenga",
]


def run_policy(
    policy_name,
    fast_path,
    n_procs=2,
    pages_per_proc=1024,
    obs=None,
    seed=0,
):
    setup = StandardSetup(duration_ns=2 * SECOND, seed=seed)
    policy = setup.build_policy(policy_name)
    processes = build_fleet(
        setup, "pmbench", n_procs=n_procs, pages_per_proc=pages_per_proc
    )
    return run_experiment(
        processes,
        policy,
        setup.run_config(),
        fast_path=fast_path,
        obs=obs,
    )


class TestMultiProcessEquivalence:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_headline_metrics_agree(self, policy_name):
        """The arena and the oracle draw faults differently, so
        trajectories diverge stochastically; headline metrics must
        agree within the natural spread across process-RNG seeds."""
        arena = run_policy(policy_name, fast_path=True, n_procs=4)
        reference = run_policy(policy_name, fast_path=False, n_procs=4)
        assert arena.throughput_per_sec == pytest.approx(
            reference.throughput_per_sec, rel=0.05
        )
        assert arena.fmar == pytest.approx(
            reference.fmar, rel=0.05, abs=1e-4
        )

    def test_only_the_fast_path_builds_an_arena(self):
        """Arena construction registers each pid's fault cache; the
        oracle never builds an arena, so it registers none."""
        result = run_policy("memtis", fast_path=True, n_procs=2)
        assert sorted(result.engine._fault_caches) == sorted(
            row["pid"] for row in result.per_process
        )
        reference = run_policy("memtis", fast_path=False, n_procs=2)
        assert reference.engine._fault_caches == {}


class ZeroPageWorkload:
    """A process with no pages: empty distribution, nothing to access."""

    name = "zero"
    n_pages = 0
    write_fraction = 0.0
    delay_ns_per_access = 0.0

    def __init__(self):
        self._probs = np.zeros(0, dtype=np.float64)

    def access_distribution(self, now_ns=0):
        return self._probs

    def advance(self, now_ns):
        pass


def build_engine(processes, fast_pages=256, slow_pages=768, fast_path=True):
    kernel = make_kernel(fast_pages=fast_pages, slow_pages=slow_pages)
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    return kernel, QuantumEngine(
        kernel, quantum_ns=10 * MILLISECOND, fast_path=fast_path
    )


class TestZeroPageSegment:
    def test_empty_segment_is_priced_to_zero(self):
        empty = SimProcess(
            pid=1,
            workload=ZeroPageWorkload(),
            rng=RngStreams(0).spawn("zero").get("access"),
        )
        busy = make_process(pid=2, n_pages=64)
        _, engine = build_engine([empty, busy])
        engine.run(SECOND)
        assert empty.stats.accesses == 0.0
        assert busy.stats.accesses > 0.0

    def test_all_empty_arena_runs(self):
        empty = SimProcess(
            pid=1,
            workload=ZeroPageWorkload(),
            rng=RngStreams(0).spawn("zero").get("access"),
        )
        _, engine = build_engine([empty])
        end = engine.run(SECOND)
        assert end == SECOND
        assert empty.stats.accesses == 0.0


class TestSegmentRetirement:
    def test_finished_process_is_retired_mid_run(self):
        """A process hitting its access target mid-run is marked
        finished, drops out of the hot-loop rows, and stops
        accumulating while the rest of the fleet keeps running."""
        quick = make_process(pid=1, n_pages=64)
        steady = make_process(pid=2, n_pages=64)
        quick.target_accesses = 1_000.0
        _, engine = build_engine([quick, steady])
        engine.run(SECOND)
        assert quick.finished
        assert not steady.finished
        # Overshoots by at most the quantum it finished in, then stops
        # accumulating while the steady process runs the full second.
        assert quick.stats.accesses >= quick.target_accesses
        assert quick.stats.accesses < steady.stats.accesses / 10
        # The live row set no longer carries the finished segment.
        rows = engine._arena._rows if engine._arena else []
        assert all(row[1] is not quick for row in rows)

    def test_retirement_matches_reference_mode(self):
        """The arena retires a finished segment at the same quantum the
        oracle finishes the process; the access totals differ only by
        the rounding of the arena's lazily folded stats."""
        results = []
        for fast_path in (True, False):
            quick = make_process(pid=1, n_pages=64)
            quick.target_accesses = 1_000.0
            _, engine = build_engine([quick], fast_path=fast_path)
            engine.run(SECOND)
            results.append(quick.stats.accesses)
        assert results[0] == pytest.approx(results[1], rel=1e-12)


class TestFixedWork:
    QUANTUM_NS = 50 * MILLISECOND

    def _run(self, n_procs, fast_path):
        """A memtis fleet with a per-process access target that takes
        many quanta, recording every process's access count after each
        quantum."""
        setup = StandardSetup(duration_ns=4 * SECOND, seed=0)
        processes = build_fleet(
            setup, "pmbench", n_procs=n_procs, pages_per_proc=4096 // n_procs
        )
        for process in processes:
            process.target_accesses = 3e7 / n_procs
        counts = []
        result = run_experiment(
            processes,
            setup.build_policy("memtis"),
            setup.run_config(stop_when_finished=True),
            observer=lambda engine, now: counts.append(
                [p.stats.accesses for p in processes]
            ),
            fast_path=fast_path,
        )
        return result, processes, counts

    @pytest.mark.parametrize("n_procs", [1, 4])
    def test_arena_finishes_within_one_quantum_of_the_oracle(self, n_procs):
        """The arena stops on the first quantum at which every live
        access count reaches its target, and within one quantum of the
        ``fast_path=False`` oracle."""
        arena, processes, counts = self._run(n_procs, fast_path=True)
        target = processes[0].target_accesses
        assert arena.engine.quanta_run >= 10
        assert arena.duration_ns == arena.engine.quanta_run * self.QUANTUM_NS
        assert len(counts) == arena.engine.quanta_run
        assert all(c >= target for c in counts[-1])
        assert any(c < target for c in counts[-2])
        assert all(p.finished for p in processes)
        oracle, _, _ = self._run(n_procs, fast_path=False)
        assert oracle.duration_ns < 4 * SECOND
        assert abs(arena.duration_ns - oracle.duration_ns) <= self.QUANTUM_NS


def run_phase_change_fleet(policy_name, fast_path):
    """Four processes whose hot quarter moves to the other end of their
    pages every second, under memory pressure (1024 fast pages for a
    4096-page working set) and a 1 s scan period."""
    setup = StandardSetup(
        fast_pages=1024,
        slow_pages=8192,
        duration_ns=6 * SECOND,
        scan_period_ns=SECOND,
    )
    n_pages = 1024
    low = np.ones(n_pages)
    low[: n_pages // 4] = 50.0
    high = np.ones(n_pages)
    high[-n_pages // 4:] = 50.0
    streams = RngStreams(0)
    processes = [
        SimProcess(
            pid=pid,
            workload=TraceWorkload([(SECOND, low), (SECOND, high)]),
            rng=streams.spawn(f"phase-{pid}").get("access"),
        )
        for pid in range(1, 5)
    ]
    result = run_experiment(
        processes,
        setup.build_policy(policy_name),
        setup.run_config(),
        fast_path=fast_path,
    )
    return result, processes


class TestMidRunPhaseChange:
    @pytest.mark.parametrize("policy_name", ["linux-nb", "memtis", "chrono"])
    def test_headline_metrics_agree_with_oracle(self, policy_name):
        """Every phase change swaps each segment's distribution mid-run;
        the arena reprices the segment and stays statistically
        equivalent to the oracle through the swaps."""
        arena, processes = run_phase_change_fleet(policy_name, True)
        reference, _ = run_phase_change_fleet(policy_name, False)
        # The last quantum (from 5.95 s) runs in the second phase.
        assert all(p.workload._phase == 1 for p in processes)
        assert 0.0 < arena.fmar < 0.99
        assert arena.stats["pgpromote"] > 0
        assert arena.throughput_per_sec == pytest.approx(
            reference.throughput_per_sec, rel=0.05
        )
        assert arena.fmar == pytest.approx(
            reference.fmar, rel=0.05, abs=1e-4
        )


class TestLedgerLaziness:
    def test_open_run_drains_on_first_counter_read(self):
        """The arena accumulates each segment's ledger share in the
        concatenated open run; a segment drains into its PageState
        only when a consumer reads the counters."""
        process = make_process(pid=1, n_pages=64)
        _, engine = build_engine([process])
        demand = engine._arena_step(0, 10 * MILLISECOND)
        assert demand.shape == (2,)
        arena = engine._arena
        assert arena.open_n[0] > 0.0
        assert process.pages.has_pending_accesses
        expected = float(arena.open_n[0])
        counts = process.pages.access_count
        assert arena.open_n[0] == 0.0
        assert counts.sum() == pytest.approx(expected)

    def test_detach_drains_and_unhooks(self):
        """Detaching closes the arena's open run into the PageState's
        own pending ledger (still lazy there) and unhooks the ledger
        source, so counters stay readable after the arena is gone."""
        process = make_process(pid=1, n_pages=64)
        _, engine = build_engine([process])
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        expected = float(arena.open_n[0])
        arena.detach()
        assert arena.open_n[0] == 0.0
        assert process.pages.access_count.sum() == pytest.approx(expected)
        assert not process.pages.has_pending_accesses


class _NoHookPolicy(TieringPolicy):
    name = "no-hook"

    def _configure(self, kernel):
        pass


class _HookPolicy(TieringPolicy):
    name = "hook"

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _configure(self, kernel):
        pass

    def on_quantum(self, process, probs, n_accesses, start_ns, quantum_ns):
        self.calls += 1


class TestPolicyHookSkip:
    def test_base_no_op_hook_is_skipped(self):
        process = make_process(pid=1, n_pages=64)
        kernel, engine = build_engine([process])
        kernel.set_policy(_NoHookPolicy())
        engine._arena_step(0, 10 * MILLISECOND)
        assert engine._arena._resolve_policy_hook(kernel.policy) is None

    def test_overridden_hook_is_called_per_live_segment(self):
        process = make_process(pid=1, n_pages=64)
        kernel, engine = build_engine([process])
        policy = _HookPolicy()
        kernel.set_policy(policy)
        engine._arena_step(0, 10 * MILLISECOND)
        engine._arena_step(10 * MILLISECOND, 10 * MILLISECOND)
        assert policy.calls == 2


class TestWorkloadContract:
    def test_profile_scalars_refresh_on_distribution_swap(self):
        """A workload that changes its write fraction must swap its
        distribution object (the identity contract); the arena picks
        the new scalars up on the swap."""
        process = make_process(pid=1, n_pages=64)
        _, engine = build_engine([process])
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        workload = process.workload
        workload.write_fraction = 0.75
        workload._probs = workload._probs.copy()  # new identity
        engine._arena_step(10 * MILLISECOND, 10 * MILLISECOND)
        assert arena._wf[0] == 0.75


def run_shared_table_fleet(policy_name, fast_path, obs=None):
    """Eight multitenant tenants over two shared compiled tables at equal
    delay: many segments whose distribution objects are identical."""
    setup = StandardSetup(duration_ns=2 * SECOND)
    processes = build_fleet(
        setup,
        "multitenant",
        n_tenants=8,
        pages_per_tenant=256,
        delay_step_units=0,
        n_distinct=2,
    )
    return run_experiment(
        processes,
        setup.build_policy(policy_name),
        setup.run_config(),
        fast_path=fast_path,
        obs=obs,
    )


class TestSharedTableFleet:
    @pytest.mark.parametrize("policy_name", ["linux-nb", "memtis", "chrono"])
    def test_headline_metrics_agree_with_oracle(self, policy_name):
        """Segments sharing one table object are still stepped and
        priced one by one, so the arena stays statistically equivalent
        to the oracle on a shared-table fleet."""
        arena = run_shared_table_fleet(policy_name, fast_path=True)
        reference = run_shared_table_fleet(policy_name, fast_path=False)
        assert arena.throughput_per_sec == pytest.approx(
            reference.throughput_per_sec, rel=0.05
        )
        assert arena.fmar == pytest.approx(
            reference.fmar, rel=0.05, abs=1e-4
        )

    def test_retired_interning_metrics_read_zero(self):
        """The equivalence-class metrics stay in every snapshot (readers
        index them by name) but nothing writes them any more."""
        hub = ObsHub.create(metrics=True)
        result = run_shared_table_fleet("chrono", fast_path=True, obs=hub)
        assert result.engine._fault_caches
        snapshot = hub.snapshot()
        for name in ("arena.interned_classes", "arena.interned_segments"):
            assert snapshot["gauges"][name] == 0
        for name in (
            "arena.repriced_segments",
            "arena.reprice_skipped_segments",
        ):
            assert snapshot["counters"][name] == 0
