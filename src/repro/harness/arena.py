"""Cross-process arena stepping: the engine's fast path.

Stepping a fleet one process at a time spends the step in per-process
numpy dispatch and Python bookkeeping.  The arena concatenates every
process's page-level state into one global address space partitioned
into *segments* (one per process, in ``kernel.processes`` order) and
executes each (macro-)quantum as a single segment-wise array program:

::

    segment        0            1          2        3
              +-----------+-----------+-------+------------+
    probs     | p0 ...    | p1 ...    | p2 ...| p3 ...     |   float64
    tier ids  | t0 ...    | t1 ...    | t2 ...| t3 ...     |   int8
              +-----------+-----------+-------+------------+
    offsets   ^0          ^s1         ^s2     ^s3          ^s4  seg_starts
    per-seg   tier-mass rows   [n_segs x n_tiers]   (journal-repaired)
    ledger    open run: probs refs per segment + accumulated n vector
    witness   epoch / protect-epoch vectors + probs refs (fusion)

One quantum is then:

1. a Python *gather* pass (O(n_segs)): advance workloads, detect
   distribution swaps by identity, drain queued kernel debt, repair
   stale tier-mass rows from the page-state move journal (O(moved)),
2. one vectorised *pricing* solve: ``mean_lat = sum_t mass[:, t] *
   (rf * read_lat[t] + wf * write_lat[t])`` and
   ``n = max(budget, 0) / (mean_lat + delay)`` over all segments at
   once -- O(tiers) per segment instead of a per-page dot product,
3. one *aggregate fault draw*.  Each segment's protected snapshot is
   split into an *active* head (per-quantum touch probability above
   ``FAULT_DORMANT_MAX_TOUCH``: its own Bernoulli draw) and a *dormant*
   tail (one aggregate Poisson draw placed by inverse-CDF lookup) --
   distributionally exact by Poisson thinning at O(active + faults)
   cost.  Active candidates from all segments share one concatenated
   Bernoulli draw (``np.add.reduceat`` recovers per-segment touch
   counts), and the dormant tails merge into a single ``K ~
   Poisson(sum_i n_i * dormant_mass_i)`` draw partitioned back to
   segments by a two-level inverse-CDF lookup -- exact by Poisson
   superposition.  When exactly one segment is fault-eligible the draw
   uses the process's own stream instead.  The touched segments then
   go through one *fault window* (:meth:`ProcessArena._fault_window`):
   one fleet resolve (timestamps from each process's own stream,
   offsets and CITs as vector operations), one kernel account, and one
   ``TieringPolicy.on_fault_fleet`` hook call -- bit-identical to
   resolving and delivering segment by segment,
4. one *ledger account*: ``open_n += n_vec`` extends the concatenated
   open run; each segment's share drains lazily into its
   ``PageState``'s own pending ledger the first time a consumer reads
   the counters (``PageState.set_ledger_source``),
5. one *stats fold*: per-segment access, fast-access, user and stall
   totals accumulate in vectors and reach each ``SimProcess.stats``
   only when they become visible (retirement, observers, teardown),
6. one *latency fold*: per-class counts accumulate into per-key
   vectors over segments (keyed by the engine's per-quantum latency
   keys) and scatter into per-process mixtures once per run,
7. one *demand fold*: per-tier byte demand summed over segments.

Equivalence contract (``docs/SIMULATION.md`` section 7): the arena
matches the per-page oracle (``QuantumEngine(fast_path=False)``)
statistically -- same laws, different RNG consumption -- not bit for
bit.  ``tests/test_pressured_oracle.py`` and ``tests/test_harness_arena.py``
gate it, under memory pressure and without it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.latency import LatencyMixture
from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.policies.base import TieringPolicy
from repro.sim.kernels import searchsorted_right
from repro.vm.fault import FleetFaultBatch, resolve_hint_faults


class FaultCache:
    """One process's hint-fault candidates, split active/dormant.

    The protected snapshot is split into an *active* head (per-page
    Bernoulli draws) and a *dormant* tail sampled through one aggregate
    Poisson draw.  Keyed by identity on the probability array and the
    copy-on-write protected-page snapshot; both are replaced -- never
    mutated -- when their contents change.
    """

    __slots__ = (
        "fault_probs", "fault_prot", "prot_p", "active_pos", "active_p",
        "dormant_pos", "dormant_cdf", "dormant_mass", "touched_mask",
    )

    def __init__(self) -> None:
        self.fault_probs: Optional[np.ndarray] = None
        self.fault_prot: Optional[np.ndarray] = None
        self.prot_p: Optional[np.ndarray] = None
        self.active_pos: Optional[np.ndarray] = None
        self.active_p: Optional[np.ndarray] = None
        self.dormant_pos: Optional[np.ndarray] = None
        self.dormant_cdf: Optional[np.ndarray] = None
        self.dormant_mass: float = 0.0
        self.touched_mask: Optional[np.ndarray] = None


class ProcessArena:
    """Concatenated per-process state stepped as one array program."""

    #: incremental tier-mass updates applied before forcing a full
    #: recount; bounds accumulated float error from delta arithmetic
    MASS_RESYNC_MOVES: int = 256

    #: per-quantum touch probability below which a protected page is
    #: sampled through the aggregated dormant draw instead of its own
    #: Bernoulli draw (see ``_rebuild_fault_caches``)
    FAULT_DORMANT_MAX_TOUCH: float = 0.02

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        kernel = engine.kernel
        self.kernel = kernel
        #: the fleet this arena was built for (identity-compared each
        #: step; any change -- respawn, reorder -- triggers a rebuild)
        self.processes: List[Any] = list(kernel.processes)
        self.n_segs = n_segs = len(self.processes)
        self.n_tiers = n_tiers = kernel.machine.n_tiers
        #: aggregate stream for cross-segment fault draws; per-process
        #: streams keep driving fault timestamps and single-segment draws
        self.rng = kernel.rng.get("engine.arena")
        sizes = np.array(
            [p.pages.n_pages for p in self.processes], dtype=np.int64
        )
        #: segment boundaries into the concatenated arrays:
        #: segment ``i`` owns ``[seg_starts[i], seg_starts[i + 1])``
        self.seg_starts = np.zeros(n_segs + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.seg_starts[1:])
        total = int(self.seg_starts[-1])
        #: concatenated access distributions (refreshed per segment on a
        #: phase change) and tier ids (scattered O(moved) on repair);
        #: both feed the fused full-recount path
        self.concat_probs = np.zeros(total, dtype=np.float64)
        self.concat_tier = np.zeros(total, dtype=np.int8)
        #: the *original* immutable distribution array per segment --
        #: ledger runs and witnesses hold these by reference (the
        #: concatenated copy above can never serve identity checks)
        self.probs_refs: List[Optional[np.ndarray]] = [None] * n_segs
        # Per-segment tier-mass rows: keyed by (probs identity,
        # placement epoch), journal-repaired, drift-bounded by a resync
        # countdown.
        self.mass = np.zeros((n_segs, n_tiers), dtype=np.float64)
        # Element-wise bookkeeping lives in plain Python lists: the hot
        # gather loop reads one entry per process per quantum, and list
        # indexing is several times cheaper than numpy scalar access.
        self.mass_epoch: List[int] = [-1] * n_segs
        self.mass_resync = [0] * n_segs
        # The concatenated open ledger run: one ``n`` accumulator per
        # segment against ``probs_refs``.  ``_drain_seg`` lazily moves a
        # segment's share into its PageState pending ledger.
        self.open_n = np.zeros(n_segs, dtype=np.float64)
        # Steady-state witness vectors (the fusion contract): what the
        # last quantum ran against and the state it left behind.
        self.witness_epoch: List[int] = [-1] * n_segs
        self.witness_protect_epoch: List[int] = [-1] * n_segs
        self.witness_probs: List[Optional[np.ndarray]] = [None] * n_segs
        self._index = {p.pid: i for i, p in enumerate(self.processes)}
        # Per-step scratch vectors (all O(n_segs)).
        self._wf = np.zeros(n_segs, dtype=np.float64)
        self._rf = np.zeros(n_segs, dtype=np.float64)
        self._delay = np.zeros(n_segs, dtype=np.float64)
        self._budget = np.zeros(n_segs, dtype=np.float64)
        self._mean_lat = np.zeros(n_segs, dtype=np.float64)
        self._per_cost = np.zeros(n_segs, dtype=np.float64)
        self._n = np.zeros(n_segs, dtype=np.float64)
        self._faults = np.zeros(n_segs, dtype=np.float64)
        self._coef = np.zeros(n_segs, dtype=np.float64)
        self._tmp = np.zeros(n_segs, dtype=np.float64)
        self._demand_rows = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._weight_rows = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._demand_out = np.zeros(n_tiers, dtype=np.float64)
        self._tier_counts = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._positive = np.zeros((n_segs, n_tiers), dtype=bool)
        self._reads = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._writes = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._faulted = np.zeros(n_segs, dtype=np.float64)
        #: per-latency-key segment count vectors, scattered into the
        #: engine's per-process mixtures by ``QuantumEngine._flush_latency``
        self._lat_store: Dict[int, np.ndarray] = {}
        #: live-segment mask: zeroes finished segments out of the pricing
        #: vectors in one multiply instead of per-segment branches
        self._live_mask = np.ones(n_segs, dtype=bool)
        #: prebound (index, process, workload, pages) rows for the hot
        #: loops; rebuilt whenever a process finishes (segment retirement)
        self._rows = [
            (i, p, p.workload, p.pages)
            for i, p in enumerate(self.processes)
        ]
        #: rows with a fixed-work target (the only finish condition the
        #: engine checks per quantum)
        self._target_rows = [
            row for row in self._rows
            if row[1].target_accesses is not None
        ]
        #: the policy whose ``on_quantum`` binding was last resolved, and
        #: the bound hook (``None`` when the policy keeps the base-class
        #: no-op -- the per-process call loop is skipped entirely)
        self._policy_seen: Any = None
        self._policy_hook = None
        #: per-segment quantum-stat accumulators (accesses, fast
        #: accesses, user ns, stall ns), folded with four vector adds per
        #: quantum and flushed into each ``SimProcess.stats`` lazily
        #: (:meth:`flush_stats`) -- nothing reads the per-process copies
        #: mid-run.
        self._acc_n = np.zeros(n_segs, dtype=np.float64)
        self._acc_fast = np.zeros(n_segs, dtype=np.float64)
        self._acc_user = np.zeros(n_segs, dtype=np.float64)
        self._acc_stall = np.zeros(n_segs, dtype=np.float64)
        #: per-segment fault caches, resolved once from the engine's
        #: per-pid store (which outlives this arena)
        caches = engine._fault_caches
        self._fault_caches: List[FaultCache] = []
        for p in self.processes:
            cache = caches.get(p.pid)
            if cache is None:
                cache = caches[p.pid] = FaultCache()
            self._fault_caches.append(cache)
        self._last_reads = np.zeros(n_segs, dtype=np.float64)
        self._build_masses()
        self._attach_ledger_sources()

    # ------------------------------------------------------------------
    # Construction / teardown
    # ------------------------------------------------------------------
    def _build_masses(self) -> None:
        """Initial tier-mass rows via one fused segment-sum.

        ``bincount`` over ``seg_id * n_tiers + tier`` accumulates every
        segment's per-tier mass in one pass over the concatenated
        arrays; within a segment the additions run in vpn order, the
        same order a per-segment ``bincount`` uses, so the rows are
        bit-identical to :meth:`_recount_mass`.
        """
        starts = self.seg_starts
        for i, proc in enumerate(self.processes):
            workload = proc.workload
            probs = workload.access_distribution()
            lo, hi = int(starts[i]), int(starts[i + 1])
            self.probs_refs[i] = probs
            self.concat_probs[lo:hi] = probs
            self.concat_tier[lo:hi] = proc.pages.tier
            self.mass_epoch[i] = proc.pages.epoch
            self.mass_resync[i] = self.MASS_RESYNC_MOVES
            self._wf[i] = workload.write_fraction
            self._delay[i] = workload.delay_ns_per_access
            if proc.finished:
                self._live_mask[i] = False
        if not self._live_mask.all():
            self._retire_rows()
        if int(starts[-1]) > 0:
            seg_ids = np.repeat(
                np.arange(self.n_segs, dtype=np.int64),
                np.diff(starts),
            )
            combined = self.concat_tier.astype(np.int64)
            combined += seg_ids * self.n_tiers
            self.mass[:, :] = np.bincount(
                combined,
                weights=self.concat_probs,
                minlength=self.n_segs * self.n_tiers,
            ).reshape(self.n_segs, self.n_tiers)

    def _attach_ledger_sources(self) -> None:
        for i, proc in enumerate(self.processes):
            proc.pages.set_ledger_source(
                self._make_drain(i), self._make_has_pending(i)
            )

    def _make_drain(self, i: int):
        def drain() -> None:
            self._drain_seg(i)

        return drain

    def _make_has_pending(self, i: int):
        def has_pending() -> bool:
            return self.open_n[i] != 0.0

        return has_pending

    def detach(self) -> None:
        """Drain every segment and unhook the ledger sources.

        Called at the end of each engine run so processes hold no
        references into a stale arena (results may outlive the engine,
        e.g. across sweep-worker pickling).
        """
        self.flush_stats()
        for i, proc in enumerate(self.processes):
            self._drain_seg(i)
            proc.pages.set_ledger_source(None, None)

    def flush_stats(self) -> None:
        """Fold the lazily accumulated quantum stats into each process.

        The step defers ``record_accesses`` (see step phases 4-6); this
        folds the running totals in and rearms the accumulators.  Called
        at teardown, segment retirement, and before an engine observer
        fires -- every point where per-process stats become externally
        visible.
        """
        acc_n, acc_fast = self._acc_n, self._acc_fast
        acc_user, acc_stall = self._acc_user, self._acc_stall
        for i, proc in enumerate(self.processes):
            if acc_n[i] != 0.0 or acc_user[i] != 0.0:
                proc.record_accesses(
                    float(acc_n[i]),
                    float(acc_fast[i]),
                    float(acc_user[i]),
                    float(acc_stall[i]),
                )
        acc_n.fill(0.0)
        acc_fast.fill(0.0)
        acc_user.fill(0.0)
        acc_stall.fill(0.0)

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def _drain_seg(self, i: int) -> None:
        """Move segment ``i``'s share of the open run into its pages.

        The accumulator restarts from zero afterwards, so each pending
        entry the PageState ledger sees covers one run of a single
        distribution.
        """
        amount = float(self.open_n[i])
        if amount != 0.0:
            # Clear before deferring: an eager consumer may flush (and
            # so re-enter this drain) from inside ``defer_accesses``.
            self.open_n[i] = 0.0
            self.processes[i].pages.defer_accesses(
                self.probs_refs[i], amount
            )

    # ------------------------------------------------------------------
    # Tier-mass maintenance
    # ------------------------------------------------------------------
    def _repair_mass(self, i: int, proc: Any, probs: np.ndarray) -> None:
        pages = proc.pages
        if self.probs_refs[i] is probs and self.mass_epoch[i] != -1:
            if self.mass_epoch[i] == pages.epoch:
                return
            moves = (
                pages.moves_since(int(self.mass_epoch[i]))
                if self.mass_resync[i] > 0
                else None
            )
            if moves is not None and len(moves) <= self.mass_resync[i]:
                row = self.mass[i]
                lo = int(self.seg_starts[i])
                for _epoch, vpns, old_tiers, new_tier in moves:
                    if vpns.size:
                        moved = probs[vpns]
                        row -= np.bincount(
                            old_tiers, weights=moved, minlength=row.size
                        )
                        row[new_tier] += float(moved.sum())
                        self.concat_tier[lo + vpns] = np.int8(new_tier)
                # Replay accumulates rounding error; a tier whose true
                # mass reached zero can land a few ulps below it, and a
                # negative mass poisons the demand fold (contention
                # pricing rejects negative demand).  True mass is
                # non-negative by construction, so clamping only ever
                # removes drift.
                np.maximum(row, 0.0, out=row)
                self.mass_resync[i] -= len(moves)
                self.mass_epoch[i] = pages.epoch
                return
        self._recount_mass(i, pages, probs)

    def _recount_mass(self, i: int, pages: Any, probs: np.ndarray) -> None:
        """Full recount for segment ``i`` (distribution swap, truncated
        journal, or drift-bounding resync)."""
        lo, hi = int(self.seg_starts[i]), int(self.seg_starts[i + 1])
        self.mass[i] = np.bincount(
            pages.tier.astype(np.int64),
            weights=probs,
            minlength=self.n_tiers,
        )
        self.concat_tier[lo:hi] = pages.tier
        self.mass_epoch[i] = pages.epoch
        self.mass_resync[i] = self.MASS_RESYNC_MOVES

    def _repair_mass_many(self, stale: List[Any]) -> None:
        """Repair several stale segments in one fused journal replay.

        ``stale`` holds ``(i, proc)`` pairs whose ``mass_epoch`` lags
        their pages' epoch.  A single stale segment delegates to
        :meth:`_repair_mass` (the sequential per-entry replay -- the
        only shape single-process arenas can produce).  Otherwise each
        replayable segment's journal entries fold through the
        single-source fast path: a migration batch moves pages from one
        tier, so the replay is two scalar mass updates per entry (probs
        gathered once from the concatenated copy) instead of a weighted
        ``bincount`` plus a gather per entry.  Mixed-source entries keep
        the bincount.  The single-source subtraction rounds as
        sum-then-subtract where the sequential replay subtracts
        per-element -- inside the oracle's statistical contract.
        Segments that cannot replay (distribution swap, truncated
        journal, resync countdown) full-recount exactly as before.
        """
        if len(stale) == 1:
            i, proc = stale[0]
            self._repair_mass(i, proc, self.probs_refs[i])
            return
        concat_probs = self.concat_probs
        concat_tier = self.concat_tier
        seg_starts = self.seg_starts
        replayed = False
        for i, proc in stale:
            pages = proc.pages
            moves = (
                pages.moves_since(int(self.mass_epoch[i]))
                if self.mass_epoch[i] != -1 and self.mass_resync[i] > 0
                else None
            )
            if moves is None or len(moves) > self.mass_resync[i]:
                self._recount_mass(i, pages, self.probs_refs[i])
                continue
            lo = int(seg_starts[i])
            row = self.mass[i]
            for _epoch, vpns, old_tiers, new_tier in moves:
                if vpns.size:
                    gvpns = lo + vpns
                    moved = float(concat_probs[gvpns].sum())
                    first = int(old_tiers[0])
                    if (old_tiers == first).all():
                        # Single-source entry (every migration batch in
                        # practice): two scalar updates replace the
                        # per-tier bincount.
                        row[first] -= moved
                    else:
                        row -= np.bincount(
                            old_tiers,
                            weights=concat_probs[gvpns],
                            minlength=row.size,
                        )
                    row[new_tier] += moved
                    concat_tier[gvpns] = np.int8(new_tier)
            self.mass_resync[i] -= len(moves)
            self.mass_epoch[i] = pages.epoch
            replayed = True
        if replayed:
            # Same drift clamp as the sequential replay (see
            # _repair_mass); the mass matrix is n_segs x n_tiers, so
            # clamping it whole is cheaper than tracking replayed rows.
            mass_flat = self.mass.reshape(-1)
            np.maximum(mass_flat, 0.0, out=mass_flat)

    # ------------------------------------------------------------------
    # Fusion witness
    # ------------------------------------------------------------------
    def witness(self, process: Any):
        """``(probs, epoch, protect_epoch)`` from the last quantum, or
        ``None`` when this process has no arena witness yet."""
        i = self._index.get(process.pid)
        if i is None or self.witness_epoch[i] < 0:
            return None
        return (
            self.witness_probs[i],
            int(self.witness_epoch[i]),
            int(self.witness_protect_epoch[i]),
        )

    def accesses(self, process: Any) -> float:
        """``process``'s live access count: its flushed ``stats`` plus
        the arena's not-yet-flushed accumulator."""
        i = self._index.get(process.pid)
        pending = 0.0 if i is None else float(self._acc_n[i])
        return process.stats.accesses + pending

    # ------------------------------------------------------------------
    # Hot-loop maintenance
    # ------------------------------------------------------------------
    def _retire_rows(self) -> None:
        """Drop finished processes from the hot-loop rows (segment
        retirement).  Their ledger share stays attached -- open runs
        drain lazily on the next counter read -- and their mask entry
        zeroes them out of every pricing vector."""
        self.flush_stats()
        self._rows = [
            row for row in self._rows if not row[1].finished
        ]
        self._target_rows = [
            row for row in self._rows
            if row[1].target_accesses is not None
        ]

    def _swap_probs(self, i: int, probs: np.ndarray, workload: Any) -> None:
        """Phase change: close segment ``i``'s open ledger run against
        the old distribution, then swap in the new slice.  The profile
        scalars (write fraction, compute delay) refresh here too -- a
        workload that changes them must swap its distribution object,
        the same identity contract the fusion witness relies on."""
        self._drain_seg(i)
        lo, hi = int(self.seg_starts[i]), int(self.seg_starts[i + 1])
        self.concat_probs[lo:hi] = probs
        self.probs_refs[i] = probs
        self._wf[i] = workload.write_fraction
        self._delay[i] = workload.delay_ns_per_access
        self.mass_epoch[i] = -1  # force recount

    def _resolve_policy_hook(self, policy: Any):
        """The policy's ``on_quantum`` binding, or ``None`` when it keeps
        the base-class no-op (the per-process call loop is skipped)."""
        if policy is not self._policy_seen:
            self._policy_seen = policy
            hook = getattr(type(policy), "on_quantum", None)
            if hook is None or hook is TieringPolicy.on_quantum:
                self._policy_hook = None
            else:
                self._policy_hook = policy.on_quantum
        return self._policy_hook

    # ------------------------------------------------------------------
    # The batched step
    # ------------------------------------------------------------------
    def step(self, start_ns: int, quantum_ns: int) -> np.ndarray:
        """Execute one (macro-)quantum for every process; returns the
        fleet's per-tier byte demand."""
        engine = self.engine
        profiler = self.kernel.profiler
        rows = self._rows
        refs = self.probs_refs
        m_epoch = self.mass_epoch
        wf, rf, delay = self._wf, self._rf, self._delay
        budget, n_vec = self._budget, self._n
        live_mask = self._live_mask
        retired = False

        # ---- Phase 1: gather ------------------------------------------------
        if profiler is not None:
            profiler.push("arena_build")
        budget.fill(float(quantum_ns))
        stale: List[Any] = []
        for row in rows:
            i, proc, workload, pages = row
            if proc.finished:
                live_mask[i] = False
                retired = True
                continue
            workload.advance(start_ns)
            probs = workload.access_distribution()
            if probs is not refs[i]:
                self._swap_probs(i, probs, workload)
            if m_epoch[i] != pages.epoch:
                stale.append((i, proc))
            if proc.pending_kernel_ns:
                budget[i] = quantum_ns - proc.drain_pending_kernel(
                    quantum_ns
                )
        if stale:
            self._repair_mass_many(stale)
        if profiler is not None:
            profiler.pop()
        if retired:
            self._retire_rows()
            rows = self._rows
            retired = False
        if not rows:
            self._demand_out.fill(0.0)
            return self._demand_out

        # ---- Phase 2: pricing (one segment fold) ----------------------------
        if profiler is not None:
            profiler.push("segment_fold")
        read_lats = engine._read_lat_list
        write_lats = engine._write_lat_list
        np.subtract(1.0, wf, out=rf)
        mean_lat = self._mean_lat
        mean_lat.fill(0.0)
        coef, tmp = self._coef, self._tmp
        for tier_id in range(self.n_tiers):
            # Element-wise per segment: rf*read + wf*write, then
            # mass * coef.
            np.multiply(rf, read_lats[tier_id], out=coef)
            np.multiply(wf, write_lats[tier_id], out=tmp)
            coef += tmp
            np.multiply(self.mass[:, tier_id], coef, out=tmp)
            mean_lat += tmp
        per_cost = self._per_cost
        np.add(mean_lat, delay, out=per_cost)
        np.maximum(budget, 0.0, out=budget)
        n_vec.fill(0.0)
        np.divide(budget, per_cost, out=n_vec, where=per_cost > 0.0)
        # Finished segments price to zero in one multiply (True is an
        # exact 1.0 factor, so live lanes are untouched bit for bit).
        np.multiply(n_vec, live_mask, out=n_vec)
        # Zero-mass lanes (idle trace phases) complete no accesses.
        # ``sign`` of the non-negative per-segment mass total is an
        # exact 1.0 for every lane with traffic, so normal segments
        # are untouched bit for bit.
        np.sum(self.mass, axis=1, out=tmp)
        np.sign(tmp, out=tmp)
        np.multiply(n_vec, tmp, out=n_vec)
        n_list = n_vec.tolist()
        if profiler is not None:
            profiler.pop()

        # ---- Phase 3: aggregate fault draw ----------------------------------
        faults = self._faults
        have_faults = False
        eligible = [
            row[0]
            for row in rows
            if n_list[row[0]] > 0.0 and row[3].n_protected > 0
        ]
        if eligible:
            faults.fill(0.0)
            have_faults = True
            procs = self.processes
            if profiler is not None:
                profiler.push("fault_partition")
            try:
                if len(eligible) == 1:
                    # One eligible segment: its own draw on the
                    # process's own stream.
                    i = eligible[0]
                    faults[i] = self._sample_hint_faults(
                        i, n_list[i], start_ns, quantum_ns
                    )
                else:
                    self._batched_faults(
                        eligible, n_vec, faults, start_ns, quantum_ns
                    )
            finally:
                if profiler is not None:
                    profiler.pop()
            # Fault-path promotions moved pages: repair the affected
            # rows so accounting prices the post-fault placement.
            stale = [
                (i, procs[i])
                for i in eligible
                if m_epoch[i] != procs[i].pages.epoch
            ]
            if stale:
                self._repair_mass_many(stale)

        # ---- Phases 4-6: ledger, stats, latency, demand ---------------------
        if profiler is not None:
            profiler.push("segment_fold")
        # One concatenated ledger account: extends every segment's share
        # of the open run (zero for finished/stalled segments).
        self.open_n += n_vec
        mass = self.mass
        # Four vector adds instead of one record_accesses call per
        # process; flush_stats folds the totals into each process's
        # stats at retirement/observation/teardown.
        self._acc_n += n_vec
        self._acc_fast += np.multiply(mass[:, FAST_TIER], n_vec, out=tmp)
        self._acc_user += np.multiply(n_vec, mean_lat, out=tmp)
        self._acc_stall += np.multiply(n_vec, delay, out=tmp)
        self._fold_latency(n_vec, faults, have_faults)
        # Demand fold: mass * ((n * CACHE_LINE) * ((1-wf) + wf * bwm)),
        # then one segment sum.
        weight = self._weight_rows
        bwm = self.kernel.machine.write_bw_multiplier
        np.multiply(wf[:, None], bwm[None, :], out=weight)
        weight += rf[:, None]
        np.multiply(n_vec, CACHE_LINE_BYTES, out=self._tmp)
        weight *= self._tmp[:, None]
        np.multiply(mass, weight, out=self._demand_rows)
        np.sum(self._demand_rows, axis=0, out=self._demand_out)
        if profiler is not None:
            profiler.pop()

        # ---- Phase 7: policy hooks, finish checks, witness ------------------
        hook = self._resolve_policy_hook(self.kernel.policy)
        if hook is not None:
            if profiler is not None:
                profiler.push("policy")
            try:
                for row in rows:
                    i = row[0]
                    hook(row[1], refs[i], n_list[i], start_ns, quantum_ns)
            finally:
                if profiler is not None:
                    profiler.pop()
        acc_n = self._acc_n
        for row in self._target_rows:
            i, proc, workload, pages = row
            if proc.stats.accesses + acc_n[i] >= proc.target_accesses:
                proc.finished = True
                live_mask[i] = False
                retired = True
        if engine.fusion:
            # The witness only feeds the fusion-horizon check; without
            # fusion nothing reads it, so skip the per-row update loop.
            w_probs = self.witness_probs
            w_epoch = self.witness_epoch
            w_protect = self.witness_protect_epoch
            for row in rows:
                i, proc, workload, pages = row
                w_probs[i] = refs[i]
                w_epoch[i] = pages.epoch
                w_protect[i] = pages.protect_epoch
        if retired:
            self._retire_rows()
        return self._demand_out

    # ------------------------------------------------------------------
    # Hint-fault sampling
    # ------------------------------------------------------------------
    def _rebuild_fault_caches(self, rebuilds: list) -> None:
        """Split protected snapshots into active / dormant candidates.

        ``rebuilds`` holds ``(cache, probs, protected, n_accesses)``
        rows, one per segment whose protected set or access distribution
        changed (both are replaced, never mutated, so an identity check
        detects staleness).  Costs O(protected); the threshold compares
        and position scans run once over the concatenated snapshots, and
        each segment keeps slices of the result -- element for element
        what a per-segment split computes.
        """
        cut_touch = self.FAULT_DORMANT_MAX_TOUCH
        if len(rebuilds) == 1:
            cache, probs, protected, n_accesses = rebuilds[0]
            p_all = probs[protected]
            active = p_all >= cut_touch / max(n_accesses, 1.0)
        else:
            parts = [probs[protected] for _, probs, protected, _ in rebuilds]
            p_all = np.concatenate(parts)
            active = p_all >= np.repeat(
                [cut_touch / max(row[3], 1.0) for row in rebuilds],
                [part.size for part in parts],
            )
        # ``nonzero()[0]`` is flatnonzero without its Python wrapper
        # layers.
        active_idx = active.nonzero()[0]
        active_p = p_all[active_idx]
        np.logical_not(active, out=active)
        active &= p_all > 0.0  # zero-probability pages can never fault
        dormant_idx = active.nonzero()[0]
        dormant_p = p_all[dormant_idx]
        offsets = list(accumulate(
            (row[2].size for row in rebuilds), initial=0
        ))
        if len(rebuilds) == 1:
            active_cuts = [0, active_idx.size]
            dormant_cuts = [0, dormant_idx.size]
        else:
            # Positions relative to each segment's own snapshot.
            active_cuts = np.searchsorted(active_idx, offsets)
            dormant_cuts = np.searchsorted(dormant_idx, offsets)
            starts = np.array(offsets[:-1], dtype=np.int64)
            active_idx = active_idx - np.repeat(starts, np.diff(active_cuts))
            dormant_idx = dormant_idx - np.repeat(
                starts, np.diff(dormant_cuts)
            )
            active_cuts = active_cuts.tolist()
            dormant_cuts = dormant_cuts.tolist()
        for j, (cache, probs, protected, _) in enumerate(rebuilds):
            a_lo, a_hi = active_cuts[j], active_cuts[j + 1]
            d_lo, d_hi = dormant_cuts[j], dormant_cuts[j + 1]
            cache.prot_p = p_all[offsets[j]:offsets[j + 1]]
            cache.active_pos = active_idx[a_lo:a_hi]
            cache.active_p = active_p[a_lo:a_hi]
            cache.dormant_pos = dormant_idx[d_lo:d_hi]
            cdf = dormant_p[d_lo:d_hi].cumsum()
            cache.dormant_cdf = cdf
            cache.dormant_mass = float(cdf[-1]) if cdf.size else 0.0
            cache.touched_mask = np.empty(protected.size, dtype=bool)
            cache.fault_probs = probs
            cache.fault_prot = protected

    def _sample_hint_faults(
        self,
        i: int,
        n_accesses: float,
        start_ns: int,
        quantum_ns: int,
    ) -> int:
        """Resolve segment ``i``'s hint faults in O(active + touched),
        drawing from the process's own stream (the one-segment case of
        :meth:`_batched_faults`).

        Each protected page is touched with probability ``1 - exp(-n *
        p)``, independently.  Active candidates get their own Bernoulli
        draw; the dormant tail is sampled by drawing the total number of
        dormant accesses ``K ~ Poisson(n * dormant_mass)`` and placing
        them on pages proportionally to ``p`` -- by Poisson thinning the
        two formulations induce exactly the same touched-set law.  At
        steady state (thousands of cold protected pages, hardly any
        touched) the quantum costs a few scalar draws instead of an
        O(protected) vector pass.
        """
        process = self.processes[i]
        probs = self.probs_refs[i]
        cache = self._fault_caches[i]
        protected = process.pages.protected_pages()
        if not protected.size:
            return 0
        if (
            cache.fault_probs is not probs
            or cache.fault_prot is not protected
        ):
            self._rebuild_fault_caches(
                [(cache, probs, protected, n_accesses)]
            )
        rng = process.rng
        mask = None
        active_p = cache.active_p
        if active_p.size:
            lam = n_accesses * active_p
            touched = rng.random(active_p.size) < -np.expm1(-lam)
            if touched.any():
                mask = cache.touched_mask
                mask[:] = False
                mask[cache.active_pos[touched]] = True
        if cache.dormant_mass > 0.0:
            k = rng.poisson(n_accesses * cache.dormant_mass)
            if k:
                cdf = cache.dormant_cdf
                hits = np.searchsorted(
                    cdf,
                    rng.random(int(k)) * cache.dormant_mass,
                    side="right",
                )
                # A draw can round onto the upper cdf edge; clamp it
                # back into range (measure-zero event, any bucket works).
                np.minimum(hits, cdf.size - 1, out=hits)
                if mask is None:
                    mask = cache.touched_mask
                    mask[:] = False
                mask[cache.dormant_pos[hits]] = True
        if mask is None:
            return 0
        fleet = self._fault_window(
            [(process, protected, cache, mask, n_accesses)],
            start_ns,
            quantum_ns,
        )
        return fleet.n_faults

    def _fault_window(
        self,
        touched: list,
        start_ns: int,
        quantum_ns: int,
    ) -> FleetFaultBatch:
        """Resolve, account and deliver one quantum's hint faults for
        every process with touched protected pages.

        ``touched`` holds ``(process, protected, cache, mask, n)`` rows
        in ascending process-table order: ``mask`` marks the touched
        entries of the ``protected`` snapshot (it is consumed -- inverted
        in place), ``cache`` is the :class:`FaultCache` that snapshot
        was split by, and ``n`` its accesses this quantum.  Shared by the
        one-segment sampler (one row) and the aggregate draw (many
        rows): one resolve, one kernel account, one policy hook.
        """
        processes = []
        touched_vpns = []
        remainders = []
        probs = []
        n_accesses = []
        for process, protected, cache, mask, n in touched:
            processes.append(process)
            touched_vpns.append(protected[mask])
            probs.append(cache.prot_p[mask])
            np.logical_not(mask, out=mask)
            remainders.append(protected[mask])
            n_accesses.append(n)
        if len(probs) == 1:
            rates = n_accesses[0] * probs[0] / quantum_ns
        else:
            # Per element this is the per-process n * p / Q.
            rates = (
                np.repeat(
                    np.array(n_accesses, dtype=np.float64),
                    [part.size for part in probs],
                )
                * np.concatenate(probs)
                / quantum_ns
            )
        fleet = resolve_hint_faults(
            processes,
            touched_vpns,
            start_ns,
            quantum_ns,
            rates_per_ns=rates,
            remainders=remainders,
        )
        self.kernel.deliver_fleet_faults(fleet)
        return fleet

    # ------------------------------------------------------------------
    def _batched_faults(
        self,
        eligible: List[int],
        n_vec: np.ndarray,
        faults: np.ndarray,
        start_ns: int,
        quantum_ns: int,
    ) -> None:
        """One aggregate fault draw across all eligible segments.

        Active candidates: concatenate per-segment Bernoulli rates and
        draw one uniform vector (``np.add.reduceat`` recovers the
        per-segment touch counts).  Dormant tails: one
        ``Poisson(sum_i n_i * dormant_mass_i)`` count, placed first into
        segments by inverse-CDF over the per-segment rates, then onto
        pages by each segment's dormant CDF -- exact by Poisson
        superposition and thinning.  Fault timestamps still come from
        each process's own stream (``take_hint_faults``).
        """
        procs = self.processes
        rng = self.rng
        entries = []  # (seg, proc, protected, cache)
        rebuilds = []
        seg_caches = self._fault_caches
        for i in eligible:
            proc = procs[i]
            pages = proc.pages
            protected = pages.protected_pages()
            if not protected.size:
                continue
            probs = self.probs_refs[i]
            cache = seg_caches[i]
            if (
                cache.fault_probs is not probs
                or cache.fault_prot is not protected
            ):
                rebuilds.append((cache, probs, protected, float(n_vec[i])))
            entries.append((i, proc, protected, cache))
        if not entries:
            return
        if rebuilds:
            self._rebuild_fault_caches(rebuilds)
        masks: Dict[int, np.ndarray] = {}

        def mask_for(entry) -> np.ndarray:
            seg = entry[0]
            mask = masks.get(seg)
            if mask is None:
                mask = entry[3].touched_mask
                mask[:] = False
                masks[seg] = mask
            return mask

        # Active head: one concatenated Bernoulli draw.
        active_entries = [e for e in entries if e[3].active_p.size]
        if active_entries:
            lam_parts = [
                n_vec[e[0]] * e[3].active_p for e in active_entries
            ]
            lam = (
                np.concatenate(lam_parts)
                if len(lam_parts) > 1
                else lam_parts[0]
            )
            touched = rng.random(lam.size) < -np.expm1(-lam)
            sizes = np.array(
                [part.size for part in lam_parts], dtype=np.int64
            )
            starts = np.zeros(sizes.size, dtype=np.int64)
            np.cumsum(sizes[:-1], out=starts[1:])
            counts = np.add.reduceat(touched, starts)
            offset = 0
            for entry, size, count in zip(
                active_entries, sizes, counts
            ):
                if count:
                    hits = np.flatnonzero(
                        touched[offset : offset + size]
                    )
                    mask_for(entry)[entry[3].active_pos[hits]] = True
                offset += int(size)
        # Dormant tail: one aggregate Poisson draw, two-level partition.
        dormant_entries = [
            e for e in entries if e[3].dormant_mass > 0.0
        ]
        if dormant_entries:
            rates = np.array(
                [
                    n_vec[e[0]] * e[3].dormant_mass
                    for e in dormant_entries
                ],
                dtype=np.float64,
            )
            total_rate = float(rates.sum())
            if total_rate > 0.0:
                k = int(rng.poisson(total_rate))
                if k:
                    cum = np.cumsum(rates)
                    draws = rng.random(k) * total_rate
                    seg_pick = searchsorted_right(cum, draws)
                    np.minimum(
                        seg_pick, rates.size - 1, out=seg_pick
                    )
                    counts = np.bincount(
                        seg_pick, minlength=rates.size
                    )
                    order = np.argsort(seg_pick, kind="stable")
                    sorted_draws = draws[order]
                    bounds = np.cumsum(counts)
                    for j, entry in enumerate(dormant_entries):
                        count = int(counts[j])
                        if not count:
                            continue
                        hi = int(bounds[j])
                        sel = sorted_draws[hi - count : hi]
                        base = float(cum[j] - rates[j])
                        # Conditioned on its segment band, a draw is
                        # uniform on [0, rate_j); rescaling by n_j
                        # yields the per-process uniform-on-
                        # [0, dormant_mass) placement law.
                        values = (sel - base) / float(
                            n_vec[entry[0]]
                        )
                        cache = entry[3]
                        hits = searchsorted_right(
                            cache.dormant_cdf, values
                        )
                        np.minimum(
                            hits,
                            cache.dormant_cdf.size - 1,
                            out=hits,
                        )
                        mask_for(entry)[
                            cache.dormant_pos[hits]
                        ] = True
        # One fault window over every touched segment, in ascending
        # segment (process-table) order.
        touched = [e for e in entries if e[0] in masks]
        if touched:
            fleet = self._fault_window(
                [
                    (proc, protected, cache, masks[i], float(n_vec[i]))
                    for i, proc, protected, cache in touched
                ],
                start_ns,
                quantum_ns,
            )
            faults[[e[0] for e in touched]] = fleet.counts()

    # ------------------------------------------------------------------
    def _fold_latency(
        self,
        n_vec: np.ndarray,
        faults: np.ndarray,
        have_faults: bool,
    ) -> None:
        """Accumulate this quantum's latency classes into per-key
        segment vectors (the oracle's per-process dict accumulations in
        ``QuantumEngine._record_latency``, evaluated element-wise in the
        same order).  The fault adjustment goes
        through a scratch vector, producing the same subtraction an
        in-place update of the read counts would."""
        engine = self.engine
        store = self._lat_store
        read_keys = engine._read_keys
        write_keys = engine._write_keys
        positive = self._positive
        reads, writes = self._reads, self._writes
        tier_counts = self._tier_counts
        np.multiply(self.mass, n_vec[:, None], out=tier_counts)
        # The oracle skips tiers without positive mass
        # (repair drift can leave a ~-1e-20 residue in a row);
        # masking by the boolean is exact (x * True == x,
        # x * False == 0.0).
        np.greater(tier_counts, 0.0, out=positive)
        np.multiply(tier_counts, self._rf[:, None], out=reads)
        reads *= positive
        np.multiply(tier_counts, self._wf[:, None], out=writes)
        writes *= positive
        # Per-(tier, read/write) all-zero flags: counts are
        # non-negative, so adding an all-zero vector is a bitwise no-op
        # the fold may skip (the flush skips zero counts regardless).
        any_tier = positive.any(axis=0)
        fold_zero = []
        for tier_id in range(self.n_tiers):
            empty = not any_tier[tier_id]
            fold_zero.append(empty or not reads[:, tier_id].any())
            fold_zero.append(empty or not writes[:, tier_id].any())
        last_tier = self.n_tiers - 1
        last_reads = reads[:, last_tier]
        if have_faults:
            # Faulted accesses pay the trap cost on top; attribute them
            # to the slowest tier's reads first, but only for segments
            # that actually have mass there (the oracle skips empty tiers
            # entirely).
            faulted = self._faulted
            np.minimum(reads[:, last_tier], faults, out=faulted)
            faulted *= positive[:, last_tier]
            if faulted.any():
                fault_key = engine._fault_key
                vec = store.get(fault_key)
                if vec is None:
                    vec = store[fault_key] = np.zeros(
                        self.n_segs, dtype=np.float64
                    )
                vec += faulted
                last_reads = np.subtract(
                    reads[:, last_tier], faulted, out=self._last_reads
                )
        for tier_id in range(self.n_tiers):
            tier_reads = (
                last_reads if tier_id == last_tier else reads[:, tier_id]
            )
            for key, counts, zero in (
                (read_keys[tier_id], tier_reads, fold_zero[2 * tier_id]),
                (
                    write_keys[tier_id],
                    writes[:, tier_id],
                    fold_zero[2 * tier_id + 1],
                ),
            ):
                if zero:
                    # Counts are non-negative, so an all-zero vector
                    # adds +0.0 everywhere: a bitwise no-op.
                    continue
                vec = store.get(key)
                if vec is None:
                    vec = store[key] = np.zeros(
                        self.n_segs, dtype=np.float64
                    )
                vec += counts

    def flush_latency_into(self, engine: Any) -> None:
        """Scatter the per-key segment vectors into the engine's
        mixtures, in the same pid-ascending order the oracle's flush
        uses."""
        store = self._lat_store
        if not store:
            return
        global_mix = engine.latency
        by_pid = engine.latency_by_pid
        for key, vec in store.items():
            for i, proc in enumerate(self.processes):
                count = float(vec[i])
                if count == 0.0:
                    continue
                global_mix.add_keyed(key, count)
                pid_mix = by_pid.get(proc.pid)
                if pid_mix is None:
                    pid_mix = by_pid.setdefault(
                        proc.pid, LatencyMixture()
                    )
                pid_mix.add_keyed(key, count)
        store.clear()
