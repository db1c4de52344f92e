"""The batched quantum execution engine.

Every simulated process advances through fixed wall-clock quanta (default
50 ms).  Within a quantum the engine:

1. asks the workload for its access distribution ``p`` and prices the mix
   against the current page placement (vectorised dot product),
2. deducts queued kernel time (scan work, fault handling, migrations
   charged by the previous quantum) from the quantum budget,
3. computes the number of completed accesses
   ``n = budget / (mean latency + delay)``,
4. resolves hint faults: each protected page is touched this quantum with
   probability ``1 - exp(-n * p_i)`` (the exact Poisson-traffic closed
   form), faulting pages get uniformly distributed fault times and their
   CIT values, and the batch is delivered to the tiering policy,
5. books ground-truth access counts, FMAR numerators, and the latency
   mixture.

Between quanta the kernel timer queue fires scan events, reclaim passes,
LRU aging, and policy daemons.

The engine steps the fleet two ways:

* **The fast path** (the default; ``docs/SIMULATION.md`` sections 5
  and 6) executes every quantum as one batched array program over a
  cross-process page arena (:mod:`repro.harness.arena`): one gather
  pass, one vectorised pricing solve against per-segment tier masses
  (repaired in O(moved) from the page-state move journal), one
  aggregate hint-fault draw, one deferred ledger account, one latency
  fold and one demand fold.  Steady-state cost is amortized O(tiers)
  per process plus O(pages that changed), while preserving the
  per-page fault/CIT statistics of an access-by-access simulation.
* **The oracle** (``fast_path=False``) runs :meth:`QuantumEngine.run_quantum`
  once per process per quantum: the per-page latency vector rebuilt
  from scratch, a per-page Bernoulli pass over the protected snapshot
  on the process's own RNG stream, and eager per-page accounting.  The
  fast path draws its faults differently (an aggregate stream, an
  active/dormant split), so the two agree statistically, not bit for
  bit; ``tests/test_pressured_oracle.py`` checks them against each
  other under memory pressure.

Either way the engine takes exactly one step per quantum.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.analysis.latency import LatencyMixture
from repro.kernel.kernel import Kernel
from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.sim.timeunits import MILLISECOND
from repro.vm.fault import take_hint_faults
from repro.vm.process import SimProcess

Observer = Callable[["QuantumEngine", int], None]


class QuantumEngine:
    """Advances processes and kernel daemons through simulated time."""

    def __init__(
        self,
        kernel: Kernel,
        quantum_ns: int = 50 * MILLISECOND,
        fast_path: bool = True,
    ) -> None:
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        self.kernel = kernel
        self.quantum_ns = int(quantum_ns)
        #: ``True`` steps the fleet through the arena (the fast path);
        #: ``False`` runs the per-page oracle, ``run_quantum``
        self.fast_path = bool(fast_path)
        #: lazily built :class:`repro.harness.arena.ProcessArena`;
        #: rebuilt whenever the fleet changes, torn down at run end
        self._arena = None
        #: per-pid hint-fault caches
        #: (:class:`repro.harness.arena.FaultCache`).  They outlive arena
        #: rebuilds, so a process keeps its active/dormant split across
        #: fleet changes and ``run`` calls.
        self._fault_caches: Dict[int, Any] = {}
        self.latency = LatencyMixture()
        self.latency_by_pid: Dict[int, LatencyMixture] = {}
        #: per-process pending latency classes ``{pid: {key: count}}``,
        #: folded into the public mixtures at the end of every ``run``
        #: (see ``_flush_latency``)
        self._lat_pending: Dict[int, Dict[int, float]] = {}
        self._prev_demand_bytes_per_sec = np.zeros(kernel.machine.n_tiers)
        self._multipliers = np.ones(kernel.machine.n_tiers)
        # Small per-quantum scratch vectors (O(tiers)).
        n_tiers = kernel.machine.n_tiers
        self._n_tiers = n_tiers
        #: per-quantum effective (contended) tier latencies as plain
        #: Python floats; refreshed by ``run`` whenever the contention
        #: multipliers change.  The latency mixture keys on ``round()``,
        #: which is an order of magnitude faster on ``float`` than on
        #: numpy scalars, and the products are bitwise identical.
        self._refresh_latency_tables(
            kernel.machine.read_latency_ns.tolist(),
            kernel.machine.write_latency_ns.tolist(),
        )
        self._demand_accum = np.zeros(n_tiers, dtype=np.float64)
        self._demand_out = np.empty(n_tiers, dtype=np.float64)
        #: shared early-return value for finished processes; callers only
        #: accumulate it, so one zero vector serves every quantum
        self._zero_demand = np.zeros(n_tiers, dtype=np.float64)
        #: simulated quanta run
        self.quanta_run = 0
        # perfbench/worker.py reads these two: one step per quantum, so
        # steps_run == quanta_run and fused_quanta == 0.
        self.steps_run = 0
        self.fused_quanta = 0

    # ------------------------------------------------------------------
    def _refresh_latency_tables(self, read_lats, write_lats) -> None:
        """Install this quantum's effective tier latencies and derive
        their latency-mixture keys.

        The single place latency keys are rounded: both the oracle and
        the arena fold consume ``_read_keys`` / ``_write_keys``
        / ``_fault_key`` from here, so the two modes cannot drift.
        ``read_lats`` / ``write_lats`` are plain Python float lists
        (``tolist()``-ed once per quantum).
        """
        self._read_lat_list = read_lats
        self._write_lat_list = write_lats
        self._read_keys = [int(round(v)) for v in read_lats]
        self._write_keys = [int(round(v)) for v in write_lats]
        self._fault_lat = (
            read_lats[-1]
            + self.kernel.machine.spec.effective_fault_cost_ns
        )
        self._fault_key = int(round(self._fault_lat))

    # ------------------------------------------------------------------
    def run(
        self,
        duration_ns: int,
        observer: Optional[Observer] = None,
        observe_every_ns: Optional[int] = None,
        stop_when_finished: bool = False,
    ) -> int:
        """Run for ``duration_ns`` of simulated time.

        ``observer(engine, now)`` fires every ``observe_every_ns`` (default:
        every quantum).  With ``stop_when_finished`` the run ends as soon as
        every process reached its access target (fixed-work experiments like
        Graph500 execution time).  Returns the simulated end time.
        """
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        self.kernel.start()
        clock = self.kernel.clock
        profiler = self.kernel.profiler
        if profiler is not None:
            profiler.push("engine")
        try:
            end_ns = clock.now + duration_ns
            next_observe = clock.now
            while clock.now < end_ns:
                start = clock.now
                quantum = min(self.quantum_ns, end_ns - start)
                # All processes price this quantum against the same
                # previous-quantum demand: compute the contention vector
                # once here instead of per process.
                self._multipliers = (
                    self.kernel.machine.contention_multipliers(
                        self._prev_demand_bytes_per_sec
                    )
                )
                machine = self.kernel.machine
                # The per-quantum latency tables and their mixture keys
                # are fixed once the multipliers are known; derive them
                # once here instead of per process per class.
                self._refresh_latency_tables(
                    (machine.read_latency_ns * self._multipliers)
                    .tolist(),
                    (machine.write_latency_ns * self._multipliers)
                    .tolist(),
                )
                demand = self._demand_accum
                demand.fill(0.0)
                if self.fast_path:
                    demand += self._arena_step(start, quantum)
                else:
                    for process in self.kernel.processes:
                        demand += self.run_quantum(
                            process, start, quantum
                        )
                # Fold migration traffic into the demand picture.
                for tier in self.kernel.machine.tiers:
                    demand[tier.tier_id] += tier.consume_migration_bytes()
                np.divide(
                    demand,
                    quantum / 1e9,
                    out=self._prev_demand_bytes_per_sec,
                )
                self.kernel.advance_to(start + quantum)
                self.quanta_run += 1
                self.steps_run += 1
                obs = self.kernel.obs
                if obs is not None:
                    obs.inc("engine.quanta")
                    gauges = self.kernel.machine.obs_gauges(
                        self._multipliers
                    )
                    for name, value in gauges.items():
                        obs.set_gauge(name, value)
                    obs.emit(
                        "engine.quantum",
                        clock.now,
                        quantum_ns=quantum,
                        fast_free_pages=gauges["machine.fast_free_pages"],
                        slow_free_pages=gauges["machine.slow_free_pages"],
                        fast_contention=gauges["machine.fast_contention"],
                        slow_contention=gauges["machine.slow_contention"],
                    )
                if observer is not None and clock.now >= next_observe:
                    if self._arena is not None:
                        # Observers read per-process stats; fold in the
                        # arena's lazily accumulated quantum stats first.
                        self._arena.flush_stats()
                    observer(self, clock.now)
                    next_observe = clock.now + (observe_every_ns or 0)
                if stop_when_finished and all(
                    p.finished for p in self.kernel.processes
                ):
                    break
            return clock.now
        finally:
            self._flush_latency()
            if self._arena is not None:
                # Drain every segment's ledger share and unhook the
                # page-state sources: results may outlive this engine.
                self._arena.detach()
                self._arena = None
            if profiler is not None:
                profiler.pop()

    def _arena_step(self, start_ns: int, quantum_ns: int) -> np.ndarray:
        """One batched arena step (builds/rebuilds the arena lazily)."""
        arena = self._arena
        if arena is None or arena.processes != self.kernel.processes:
            from repro.harness.arena import ProcessArena

            if arena is not None:
                arena.detach()
            arena = self._arena = ProcessArena(self)
        return arena.step(start_ns, quantum_ns)

    # ------------------------------------------------------------------
    def _tier_mass(
        self, process: SimProcess, probs: np.ndarray
    ) -> np.ndarray:
        """Probability mass served by each tier:
        ``tier_mass[t] = sum(probs[i] for pages i resident on tier t)``."""
        return np.bincount(
            process.pages.tier.astype(np.int64),
            weights=probs,
            minlength=self._n_tiers,
        )

    def run_quantum(
        self, process: SimProcess, start_ns: int, quantum_ns: int
    ) -> np.ndarray:
        """Execute one process for one quantum on the per-page oracle
        path; returns per-tier bytes of demand it generated."""
        machine = self.kernel.machine
        if process.finished:
            return self._zero_demand

        workload = process.workload
        workload.advance(start_ns)
        probs = workload.access_distribution()
        pages = process.pages
        write_fraction = workload.write_fraction
        multipliers = self._multipliers

        # Price the access mix against current placement + contention,
        # rebuilding the per-page latency vector from scratch.
        tier_idx = pages.tier
        per_page_latency = (
            (1.0 - write_fraction) * machine.read_latency_ns[tier_idx]
            + write_fraction * machine.write_latency_ns[tier_idx]
        ) * multipliers[tier_idx]
        mean_latency = float(probs @ per_page_latency)
        total_mass = float(self._tier_mass(process, probs).sum())

        kernel_used = process.drain_pending_kernel(quantum_ns)
        budget = quantum_ns - kernel_used
        per_access_cost = mean_latency + workload.delay_ns_per_access
        # A zero-page process prices to zero cost (and may run with zero
        # compute delay): it simply completes no accesses.  A zero-*mass*
        # distribution (an idle trace phase) likewise completes none --
        # without the gate its compute delay alone would price accesses
        # that touch no pages and inflate throughput.
        if per_access_cost > 0.0 and total_mass > 0.0:
            n_accesses = max(budget, 0.0) / per_access_cost
        else:
            n_accesses = 0.0

        # Hint faults: one Bernoulli draw per protected page on the
        # process's own stream.
        n_faults = 0
        if n_accesses > 0:
            protected = pages.protected_pages()
            if protected.size:
                lam = n_accesses * probs[protected]
                touched = process.rng.random(
                    protected.size
                ) < -np.expm1(-lam)
                touched_vpns = protected[touched]
                if touched_vpns.size:
                    batch = take_hint_faults(
                        process,
                        touched_vpns,
                        start_ns,
                        quantum_ns,
                        process.rng,
                        rates_per_ns=lam[touched] / quantum_ns,
                        # The surviving protected set is already known
                        # here -- hand it down so the unprotect skips
                        # its membership search.
                        cache_remainder=protected[~touched],
                    )
                    n_faults = batch.n_faults
                    self.kernel.deliver_faults(process, batch)

        # Accounting runs against the *post-fault* placement: fault-path
        # promotions (Linux-NB, TPP, AutoTiering) may have moved pages.
        tier_mass = self._tier_mass(process, probs)
        counts = probs * n_accesses
        pages.access_count += counts
        pages.last_window_count += counts

        fast_accesses = n_accesses * float(tier_mass[FAST_TIER])
        process.record_accesses(
            n_total=n_accesses,
            n_fast=fast_accesses,
            user_ns=n_accesses * mean_latency,
            stall_ns=n_accesses * workload.delay_ns_per_access,
        )

        self._record_latency(
            process,
            n_accesses,
            tier_mass,
            write_fraction,
            n_faults,
        )

        policy = self.kernel.policy
        if policy is not None and hasattr(policy, "on_quantum"):
            profiler = self.kernel.profiler
            if profiler is not None:
                profiler.push("policy")
            try:
                policy.on_quantum(
                    process, probs, n_accesses, start_ns, quantum_ns
                )
            finally:
                if profiler is not None:
                    profiler.pop()

        if (
            process.target_accesses is not None
            and process.stats.accesses >= process.target_accesses
        ):
            process.finished = True

        # Bandwidth demand, write-weighted per tier (Optane writes eat a
        # multiple of their byte count from the bandwidth budget).  The
        # returned buffer is consumed (accumulated) by ``run`` before the
        # next ``run_quantum`` call, so one O(tiers) scratch serves all.
        write_weight = (
            1.0 - write_fraction
        ) + write_fraction * machine.write_bw_multiplier
        np.multiply(
            tier_mass,
            n_accesses * CACHE_LINE_BYTES * write_weight,
            out=self._demand_out,
        )
        return self._demand_out

    # ------------------------------------------------------------------
    def _record_latency(
        self,
        process: SimProcess,
        n_accesses: float,
        tier_mass: np.ndarray,
        write_fraction: float,
        n_faults: int,
    ) -> None:
        pending = self._lat_pending.get(process.pid)
        if pending is None:
            pending = self._lat_pending.setdefault(process.pid, {})
        remaining_faults = float(n_faults)
        # Assemble the quantum's latency classes (at most 2 per tier plus
        # one fault class).  The classes are a handful of scalars keyed
        # by the per-quantum integer keys ``run`` precomputed, so this is
        # a few plain dict accumulations; the pending classes fold into
        # the public mixtures at the end of the run (``_flush_latency``).
        read_keys = self._read_keys
        write_keys = self._write_keys
        masses = tier_mass.tolist()
        last_tier = self._n_tiers - 1
        get = pending.get
        for tier_id in range(self._n_tiers):
            mass = masses[tier_id] * n_accesses
            if mass <= 0:
                continue
            reads = mass * (1.0 - write_fraction)
            writes = mass * write_fraction
            # Faulted accesses pay the trap cost on top; attribute them to
            # the slower tiers first (that is where scans concentrate).
            if tier_id == last_tier and remaining_faults > 0:
                faulted = min(reads, remaining_faults)
                fault_key = self._fault_key
                pending[fault_key] = get(fault_key, 0.0) + faulted
                reads -= faulted
                remaining_faults -= faulted
            read_key = read_keys[tier_id]
            write_key = write_keys[tier_id]
            pending[read_key] = get(read_key, 0.0) + reads
            pending[write_key] = get(write_key, 0.0) + writes

    def _flush_latency(self) -> None:
        """Fold pending latency classes into the public mixtures.

        Runs at the end of every ``run`` call; until then the oracle
        only touches plain per-process dicts and the arena per-key
        segment vectors, which scatter here too.  Callers driving
        ``run_quantum`` directly (tests, custom harnesses) can invoke
        this to materialise ``latency`` / ``latency_by_pid`` on demand.
        """
        if self._arena is not None:
            self._arena.flush_latency_into(self)
        pending = self._lat_pending
        if not pending:
            return
        global_mix = self.latency
        for pid, classes in pending.items():
            pid_mix = self.latency_by_pid.get(pid)
            if pid_mix is None:
                pid_mix = self.latency_by_pid.setdefault(
                    pid, LatencyMixture()
                )
            for key, count in classes.items():
                global_mix.add_keyed(key, count)
                pid_mix.add_keyed(key, count)
        pending.clear()
