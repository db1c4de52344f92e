"""The kernel facade.

:class:`Kernel` wires together the machine, the clock and timer queue, the
process table, and every MM subsystem.  Tiering policies attach to it and
get access to the scanner, the LRU lists, the reclaim daemon, the migration
engine, and the sysctl/stats plumbing -- the same surface Chrono's 1.9k-SLOC
patch touches in Linux.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

import numpy as np

from repro.kernel.cgroup import CgroupRegistry
from repro.kernel.lru import LruLists
from repro.kernel.migration import MigrationEngine
from repro.kernel.reclaim import ReclaimDaemon, Watermarks
from repro.kernel.scanner import ScanConfig, TickingScanner
from repro.kernel.stats import GlobalStats, SeriesBank
from repro.kernel.sysctl import Sysctl, positive
from repro.mem.machine import TieredMachine
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.clock import VirtualClock
from repro.sim.events import EventScheduler
from repro.sim.rng import RngStreams
from repro.sim.timeunits import SECOND
from repro.vm.fault import FleetFaultBatch
from repro.vm.process import SimProcess

#: per-page cost of one LRU aging pass (reference-bit harvest)
AGING_PAGE_COST_NS: int = 25


class CapacityError(MemoryError):
    """The fleet's working sets do not fit in the machine's free pages."""


def fast_prefixes(
    sizes: np.ndarray, headroom: int, chunk_pages: int
) -> np.ndarray:
    """Fast-tier pages per process under chunked round-robin placement.

    Round ``r`` hands every process ``min(chunk_pages, pages left)``
    pages in table order, each chunk on the fast tier while ``headroom``
    lasts.  After ``r`` full rounds ``min(n_j, r * chunk_pages)`` pages
    of process ``j`` are placed, all on the fast tier while their total
    fits the headroom; the round in which the headroom runs out splits
    it across the processes in order, and later rounds are slow.
    """
    headroom = max(int(headroom), 0)
    if headroom >= int(sizes.sum()):
        return sizes.copy()
    # The last round r whose placements all fit: bisect on r.
    low = 0
    high = -(-int(sizes.max(initial=0)) // chunk_pages)
    while low < high:
        mid = (low + high + 1) // 2
        if int(np.minimum(sizes, mid * chunk_pages).sum()) <= headroom:
            low = mid
        else:
            high = mid - 1
    placed = np.minimum(sizes, low * chunk_pages)
    take = np.minimum(sizes - placed, chunk_pages)
    left = headroom - int(placed.sum())
    before = np.cumsum(take) - take
    return placed + np.clip(left - before, 0, take)


class Kernel:
    """Simulated kernel: machine + MM subsystems + process table."""

    def __init__(
        self,
        machine: Optional[TieredMachine] = None,
        rng: Optional[RngStreams] = None,
        aging_period_ns: int = 10 * SECOND,
        reclaim_period_ns: int = SECOND // 10,
    ) -> None:
        self.machine = machine or TieredMachine()
        self.rng = rng or RngStreams(0)
        self.clock = VirtualClock()
        self.scheduler = EventScheduler()
        self.stats = GlobalStats()
        self.series = SeriesBank()
        self.sysctl = Sysctl()
        self.lru = LruLists(self.rng.get("kernel.lru"))
        self.watermarks = Watermarks(
            capacity_pages=self.machine.fast.capacity_pages
        )
        self.reclaim = ReclaimDaemon(
            self, self.watermarks, period_ns=reclaim_period_ns
        )
        self.migration = MigrationEngine(self)
        self.cgroups = CgroupRegistry()
        self.processes: List[SimProcess] = []
        #: pids in :attr:`processes` (O(1) duplicate check on register)
        self._pids: Set[int] = set()
        self.policy: Any = None
        self.scanner: Optional[TickingScanner] = None
        #: optional :class:`repro.harness.profiling.Profiler`; when set,
        #: the engine and kernel subsystems charge their wall time to it
        self.profiler: Any = None
        #: optional :class:`repro.obs.hub.ObsHub`; when set, kernel paths
        #: emit structured trace events and maintain the metrics
        #: registry.  ``None`` (the default) keeps every instrumentation
        #: site to a single ``is None`` check.
        self.obs: Any = None
        self.aging_period_ns = int(aging_period_ns)
        self._register_core_sysctls()
        self._started = False

    def _register_core_sysctls(self) -> None:
        self.sysctl.register(
            "kernel.numa_balancing",
            1,
            "0=off, 1=NUMA balancing, 2=tiering mode (Chrono)",
        )
        self.sysctl.register(
            "vm.demotion_enabled",
            1,
            "allow reclaim to demote instead of swapping",
        )
        self.sysctl.register(
            "vm.aging_period_sec",
            self.aging_period_ns / SECOND,
            "period of the LRU reference-bit aging pass",
            validator=positive,
            unit="sec",
        )

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def register_process(
        self, process: SimProcess, cgroup: Optional[str] = None
    ) -> None:
        """Add a process to the table (placement happens separately)."""
        if process.pid in self._pids:
            raise ValueError(f"pid {process.pid} already registered")
        self._pids.add(process.pid)
        self.processes.append(process)
        # Deferred-accounting flushes charge their wall time to the
        # profiler's ``accounting`` section (a no-op while unprofiled).
        process.pages.profiler = self.profiler
        if cgroup is not None:
            self.cgroups.attach(process, cgroup)

    def allocate_initial_placement(self, chunk_pages: int = 64) -> None:
        """Demand-allocate every process's pages, round-robin in chunks.

        Mirrors concurrent startup on the real machine: allocations land on
        the fast tier while it has headroom above the high watermark, then
        spill to the slow tier.  Chunked round-robin interleaves the
        processes so each gets a proportional share of DRAM.

        The headroom only shrinks and each process takes its chunks in
        vpn order, so every process's fast pages are a prefix of its
        address space; the prefixes come out of one closed-form pass
        (:func:`fast_prefixes`) and each process takes at most two
        placement moves.
        """
        if chunk_pages <= 0:
            raise ValueError("chunk size must be positive")
        fast = self.machine.fast
        slow = self.machine.slow
        sizes = np.array(
            [p.n_pages for p in self.processes], dtype=np.int64
        )
        total = int(sizes.sum())
        if total > fast.free_pages + slow.free_pages:
            raise CapacityError(
                f"working sets ({total} pages) exceed machine capacity "
                f"({fast.free_pages + slow.free_pages} free pages)"
            )
        headroom = fast.free_pages - self.watermarks.high_pages
        prefixes = fast_prefixes(sizes, headroom, chunk_pages)
        n_fast_total = int(prefixes.sum())
        fast.allocate(n_fast_total)
        slow.allocate(total - n_fast_total)
        for process, n_fast in zip(self.processes, prefixes.tolist()):
            vpns = np.arange(process.n_pages)
            if n_fast:
                process.pages.move_to_tier(vpns[:n_fast], FAST_TIER)
            if n_fast < process.n_pages:
                process.pages.move_to_tier(vpns[n_fast:], SLOW_TIER)

    # ------------------------------------------------------------------
    # Policy plumbing
    # ------------------------------------------------------------------
    def set_policy(self, policy: Any) -> None:
        """Install a tiering policy; it may create a scanner, adjust
        watermarks, and register sysctls during ``attach``."""
        self.policy = policy
        policy.attach(self)

    def create_scanner(self, config: ScanConfig) -> TickingScanner:
        """Create (or replace) the address-space scanner."""
        self.scanner = TickingScanner(self, config)
        return self.scanner

    def start(self) -> None:
        """Start kernel daemons.  Idempotent."""
        if self._started:
            return
        self._started = True
        if self.scanner is not None:
            self.scanner.start()
        self.reclaim.start()
        self._schedule_aging(self.clock.now + self.aging_period_ns)
        if self.policy is not None and hasattr(self.policy, "start"):
            self.policy.start()

    def _schedule_aging(self, when_ns: int) -> None:
        self.scheduler.schedule(when_ns, self._aging_tick, name="lru-aging")

    def _aging_tick(self, now_ns: int) -> None:
        # Visit processes in random order: policies that migrate from
        # their aging hook (Multi-Clock) compete for fast-tier space, and
        # a fixed visiting order would systematically favour low pids.
        profiler = self.profiler
        if profiler is not None:
            profiler.push("aging")
        order = self.rng.get("kernel.aging").permutation(
            len(self.processes)
        )
        processes = self.processes
        visit = [
            processes[index]
            for index in order.tolist()
            if not processes[index].finished
        ]
        # Batched fleet pass: one concatenated candidate mask + one RNG
        # draw instead of a per-process loop of tiny numpy calls.  The
        # per-process draws and state updates are bit-identical to the
        # sequential pass (see ``LruLists.age_fleet``); the ``on_lru_age``
        # hooks fire afterwards in the same visiting order, which is
        # exactly equivalent as long as a hook does not mutate *another*
        # process's aging inputs or the shared ``kernel.lru`` RNG stream
        # (true of every registered policy).  A policy keeping the
        # base-class no-op gets no hook calls at all.
        touched_list = self.lru.age_fleet(visit, now_ns)
        hook = self._lru_age_hook()
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        unit_cost = AGING_PAGE_COST_NS * self.machine.spec.page_scale
        stats = self.stats
        for process, touched in zip(visit, touched_list):
            if tracer is not None:
                obs.emit(
                    "aging.pass",
                    now_ns,
                    pid=process.pid,
                    n_touched=int(np.count_nonzero(touched)),
                )
            cost = process.n_pages * unit_cost
            process.charge_kernel(cost)
            stats.kernel_time_ns += cost
            if hook is not None:
                if profiler is not None:
                    profiler.push("policy")
                try:
                    hook(process, touched, now_ns)
                finally:
                    if profiler is not None:
                        profiler.pop()
        if obs is not None and visit:
            obs.inc("aging.passes", len(visit))
        if profiler is not None:
            profiler.pop()
        self._schedule_aging(now_ns + self.aging_period_ns)

    def _lru_age_hook(self):
        """The policy's ``on_lru_age`` binding, or ``None`` when there is
        no policy or it keeps the base-class no-op."""
        # Imported here: the policies package imports the kernel.
        from repro.policies.base import TieringPolicy

        policy = self.policy
        hook = getattr(type(policy), "on_lru_age", None)
        if hook is None or hook is TieringPolicy.on_lru_age:
            return None
        return policy.on_lru_age

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def advance_to(self, when_ns: int) -> None:
        """Advance the clock to ``when_ns`` and fire every due timer.

        Deferred work runs at clock-advance granularity: the clock moves to
        the target first, then due events fire (callbacks still receive
        their *scheduled* times for drift-free rescheduling, and read
        ``kernel.clock.now`` for the effective time).  This matters for
        CIT fidelity -- a scan that fires between engine quanta takes
        effect at the quantum boundary, so protection timestamps must be
        stamped there, not at the nominal timer expiry inside the dead
        window.
        """
        self.clock.advance_to(when_ns)
        self.scheduler.run_due(when_ns)

    def deliver_faults(self, process: SimProcess, fault_batch: Any) -> None:
        """Account one process's fault batch and hand it to the policy:
        the one-process case of :meth:`deliver_fleet_faults`."""
        if fault_batch.n_faults == 0:
            return
        self.deliver_fleet_faults(FleetFaultBatch.of(process, fault_batch))

    def deliver_fleet_faults(self, fleet: FleetFaultBatch) -> None:
        """Account a quantum's faults for every faulting process, then
        hand the whole batch to the policy's ``on_fault_fleet`` hook.

        Accounting is per-process exact: each process's stats and kernel
        debt take its own count and cost, and the global kernel time
        takes each segment's cost in segment order.  Fault costs -- like
        every cost an in-tree ``on_fault`` books -- are whole
        nanoseconds, so booking them all before the policy hook leaves
        the float totals bit-identical to a per-process
        account-then-hook loop.  Page-state writes still pending after
        the hook are applied last.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.push("fault")
        processes = fleet.processes
        cuts = fleet.cuts
        counts = [cuts[j + 1] - cuts[j] for j in range(len(processes))]
        total = cuts[-1]
        self.stats.hint_faults += total
        self.stats.context_switches += total
        unit_cost = self.machine.spec.effective_fault_cost_ns
        stats = self.stats
        for process, n in zip(processes, counts):
            process.stats.hint_faults += n
            process.stats.context_switches += n
            cost = n * unit_cost
            process.charge_kernel(cost)
            stats.kernel_time_ns += cost
        obs = self.obs
        if obs is not None:
            obs.inc("fault.batches", len(counts))
            obs.inc("fault.hint_faults", total)
            obs.inc("fault.cost_ns", total * unit_cost)
            cit = fleet.cit_ns
            kept = cit >= 0
            kept_before = np.zeros(cit.size + 1, dtype=np.int64)
            np.cumsum(kept, out=kept_before[1:])
            obs.observe_runs(
                "fault.cit_ns", cit[kept], kept_before[fleet.bounds]
            )
            if obs.tracer is not None:
                now = self.clock.now
                for j in range(len(counts)):
                    obs.emit(
                        "fault.batch", now, **fleet.segment(j).event_fields()
                    )
        if self.policy is not None:
            if profiler is not None:
                profiler.push("policy")
            try:
                hook = getattr(self.policy, "on_fault_fleet", None)
                if hook is not None:
                    hook(fleet)
                else:
                    fleet.deliver_each(self.policy.on_fault)
            finally:
                if profiler is not None:
                    profiler.pop()
        fleet.write_pages()
        if profiler is not None:
            profiler.pop()

    def __repr__(self) -> str:
        policy = getattr(self.policy, "name", None)
        return (
            f"Kernel(procs={len(self.processes)}, policy={policy!r}, "
            f"now={self.clock.now}ns)"
        )
