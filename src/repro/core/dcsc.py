"""Dynamic CIT Statistic Collection (Section 3.2.2, Figure 5).

DCSC paints a run-time picture of page hotness across *both* tiers:

1. every probe period it samples a small random fraction (``P-victim``,
   default 0.003%) of each process's pages, marks them ``PG_probed`` and
   protects them like a Ticking-scan would;
2. a probed page's first fault yields CIT round one and immediately
   re-protects it (at the fault time); the second fault yields round two,
   and ``max(cit1, cit2)`` -- the same estimator candidate filtering uses
   -- is recorded into the page's tier's *heat map* (a histogram over the
   28 exponential CIT buckets);
3. comparing the heat maps locates the *overlap*: slow-tier pages hotter
   than fast-tier residents.  The overlap point recalibrates the CIT
   threshold; the misplaced-page mass, spread over a scan period, sets the
   promotion rate limit.

Probed pages that never fault within the timeout are, by definition,
extremely cold and are counted into the coldest bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cit import CIT_BUCKETS, bucket_upper_bound_ns, cit_bucket
from repro.core.slots import SlotTable
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.kernels import dcsc_fold
from repro.sim.timeunits import SECOND
from repro.vm.fault import FleetFaultBatch
from repro.vm.page_state import FleetPages
from repro.vm.process import SimProcess


@dataclass
class DcscConfig:
    """DCSC tunables (Table 2's ``P-victim`` and ``B-bucket``)."""

    victim_fraction: float = 0.00003  # 0.003%
    n_buckets: int = CIT_BUCKETS
    cit_unit_ns: int = 1_000_000  # 1 ms, the paper's finest CIT level
    probe_period_ns: int = SECOND
    probe_timeout_ns: int = 30 * SECOND
    decay: float = 0.9
    min_samples: float = 32.0
    min_victims_per_process: int = 4
    #: engine-quantum hint: round the second measurement round's
    #: protection timestamp up to the next multiple of this value.  The
    #: batched engine resolves at most one fault per page per quantum, so
    #: stamping mid-quantum would inflate every round-two CIT by up to a
    #: quantum of dead time.  Because the simulated arrival process is
    #: memoryless, restarting the measurement at the boundary draws from
    #: the same inter-access distribution.  0 disables (event-driven
    #: callers measuring real fault times).
    requantize_ns: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.victim_fraction < 1:
            raise ValueError("victim fraction must be in (0, 1)")
        if self.n_buckets < 2:
            raise ValueError("need at least two buckets")
        if self.cit_unit_ns <= 0:
            raise ValueError("CIT unit must be positive")
        if self.probe_period_ns <= 0 or self.probe_timeout_ns <= 0:
            raise ValueError("periods must be positive")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if self.min_samples <= 0:
            raise ValueError("need a positive sample requirement")
        if self.min_victims_per_process < 1:
            raise ValueError("need at least one victim per process")
        if self.requantize_ns < 0:
            raise ValueError("requantize hint cannot be negative")


class DcscCollector:
    """Randomized probing and per-tier CIT heat maps."""

    def __init__(
        self, config: DcscConfig, rng: np.random.Generator
    ) -> None:
        self.config = config
        self._rng = rng
        #: optional :class:`repro.obs.hub.ObsHub` (wired by the owning
        #: policy at attach time); probe and sample events flow to it
        self.obs = None
        self.heat_maps: Dict[int, np.ndarray] = {
            FAST_TIER: np.zeros(config.n_buckets),
            SLOW_TIER: np.zeros(config.n_buckets),
        }
        #: per-page measurement round, first-round CIT and probe time of
        #: every process, fleet-indexed (global slot = base + vpn)
        self._table = SlotTable(
            round=np.int8, first_cit=np.int64, probe_ts=np.int64
        )
        self.probes_issued = 0
        self.samples_recorded = 0.0

    def _arrays(self, process: SimProcess):
        return self._table.views(process.pid, process.n_pages)

    def reserve(self, processes: Iterable[SimProcess]) -> None:
        """Allocate every process's per-page state in one step."""
        self._table.reserve((p.pid, p.n_pages) for p in processes)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe_process(self, process: SimProcess, now_ns: int) -> int:
        """Select and protect a fresh random victim set; returns count."""
        rounds, _, probe_ts = self._arrays(process)
        self._expire_stale(process, now_ns)
        k = max(
            self.config.min_victims_per_process,
            int(round(self.config.victim_fraction * process.n_pages)),
        )
        k = min(k, process.n_pages)
        victims = self._rng.choice(process.n_pages, size=k, replace=False)
        victims = victims[~process.pages.probed[victims]]
        if victims.size == 0:
            return 0
        # Probe order carries no meaning; sorted victims let the
        # protection path take its monotonic fast paths.
        victims.sort()
        process.pages.probed[victims] = True
        rounds[victims] = 1
        probe_ts[victims] = now_ns
        process.pages.protect_at(
            victims, np.full(victims.size, now_ns, dtype=np.int64)
        )
        self.probes_issued += int(victims.size)
        if self.obs is not None:
            self.obs.inc("dcsc.probes", int(victims.size))
            self.obs.emit(
                "dcsc.probe",
                now_ns,
                pid=process.pid,
                n_probed=int(victims.size),
            )
        return int(victims.size)

    def probe_fleet(
        self, processes: Sequence[SimProcess], now_ns: int
    ) -> List[Tuple[SimProcess, int]]:
        """One probe tick over ``processes``: bit-identical to calling
        :meth:`probe_process` on each in order.

        Returns ``(process, n_probed)`` for every process that probed at
        least one page, in order.  ``PG_probed`` holds exactly when a
        page's measurement round is non-zero, so the pre-probe filter
        and the expiry read the fleet-indexed round array instead of
        each process's flags: expiry is one pass over the slot table,
        and only processes with expired probes pay per-process page
        writes.  Each process still draws its victims from the shared
        stream, in order; the flags and protection of all new probes are
        then written through the processes' page store
        (:class:`~repro.vm.page_state.FleetPages`, adopting them into a
        new one when they share none).
        """
        processes = list(processes)
        if not processes:
            return []
        members = [p.pages for p in processes]
        fleet = FleetPages.common(members) or FleetPages(members)
        table = self._table
        table.reserve((p.pid, p.n_pages) for p in processes)
        bases = np.array(
            [table.base(p.pid, p.n_pages) for p in processes],
            dtype=np.int64,
        )
        sizes = np.array([p.n_pages for p in processes], dtype=np.int64)
        self._expire_fleet(processes, bases, sizes, now_ns)

        config = self.config
        choice = self._rng.choice
        parts = []
        for process in processes:
            n_pages = process.n_pages
            k = max(
                config.min_victims_per_process,
                int(round(config.victim_fraction * n_pages)),
            )
            parts.append(choice(n_pages, size=min(k, n_pages), replace=False))
        counts = np.array([part.size for part in parts], dtype=np.int64)
        owner = np.repeat(np.arange(len(processes), dtype=np.int64), counts)
        victims = np.concatenate(parts)
        rounds = table.arrays["round"]
        keep = rounds[bases[owner] + victims] == 0
        owner = owner[keep]
        # Probe order carries no meaning; the fleet protection pass
        # takes each process's victims sorted.
        stride = int(sizes.max()) + 1
        keys = np.sort(owner * stride + victims[keep])
        owner = keys // stride
        victims = keys - owner * stride
        ids = bases[owner] + victims
        rounds[ids] = 1
        table.arrays["probe_ts"][ids] = now_ns
        cuts = np.searchsorted(
            owner, np.arange(len(processes) + 1, dtype=np.int64)
        ).tolist()
        probed = [
            (j, cuts[j + 1] - cuts[j])
            for j in range(len(processes))
            if cuts[j + 1] > cuts[j]
        ]
        if probed:
            members = [members[j] for j, _ in probed]
            pages_ids = FleetPages.ids(
                members, [n for _, n in probed], victims
            )
            fleet.probed[pages_ids] = True
            fleet.protect_sorted_at(
                members,
                pages_ids,
                [0] + [cuts[j + 1] for j, _ in probed],
                victims,
                now_ns,
            )
        obs = self.obs
        if obs is not None:
            for j, n in probed:
                obs.emit(
                    "dcsc.probe", now_ns, pid=processes[j].pid, n_probed=n
                )
        self.probes_issued += len(ids)
        if obs is not None and ids.size:
            obs.inc("dcsc.probes", int(ids.size))
        return [(processes[j], n) for j, n in probed]

    def _expire_fleet(
        self,
        processes: List[SimProcess],
        bases: np.ndarray,
        sizes: np.ndarray,
        now_ns: int,
    ) -> None:
        """:meth:`_expire_stale` for every process in one slot-table
        pass; the heat maps take each process's counts in order."""
        table = self._table
        used = table.used
        rounds = table.arrays["round"]
        stale = np.flatnonzero(
            (rounds[:used] != 0)
            & (now_ns - table.arrays["probe_ts"][:used]
               > self.config.probe_timeout_ns)
        )
        if stale.size == 0:
            return
        # Owner of each stale slot among ``processes``; slots of other
        # processes (exited, or not in this tick) stay untouched.
        order = np.argsort(bases, kind="stable")
        sorted_bases = bases[order]
        pos = np.searchsorted(sorted_bases, stale, side="right") - 1
        inside = pos >= 0
        owner = order[np.maximum(pos, 0)]
        inside &= stale < bases[owner] + sizes[owner]
        owner = owner[inside]
        stale = stale[inside]
        if stale.size == 0:
            return
        # Process order, then vpn order within each process.
        by_owner = np.argsort(owner, kind="stable")
        owner = owner[by_owner]
        stale = stale[by_owner]
        vpns = stale - bases[owner]
        rounds[stale] = 0
        cuts = np.flatnonzero(np.diff(owner)) + 1
        counts = np.zeros((len(cuts) + 1, 2), dtype=np.float64)
        for row, (lo, hi) in enumerate(
            zip([0] + cuts.tolist(), cuts.tolist() + [stale.size])
        ):
            pages = processes[int(owner[lo])].pages
            mine = vpns[lo:hi]
            tiers = pages.tier[mine]
            counts[row, 0] = np.count_nonzero(tiers == FAST_TIER)
            counts[row, 1] = np.count_nonzero(tiers == SLOW_TIER)
            pages.probed[mine] = False
            pages.unprotect(mine)
        for column, tier in enumerate((FAST_TIER, SLOW_TIER)):
            heat_map = self.heat_maps[tier]
            # Sequential per-process adds, as the per-process loop does
            # them (adding a zero count is exact).
            heat_map[-1] = np.add.accumulate(
                np.concatenate(([heat_map[-1]], counts[:, column]))
            )[-1]
        self.samples_recorded += float(counts.sum())
        if self.obs is not None:
            self.obs.inc("dcsc.expired", int(stale.size))

    def decay_maps(self) -> None:
        """Age the heat maps so recent windows dominate."""
        for heat_map in self.heat_maps.values():
            heat_map *= self.config.decay

    def _expire_stale(self, process: SimProcess, now_ns: int) -> None:
        """Probes that never faulted are maximally cold."""
        rounds, _, probe_ts = self._arrays(process)
        stale = np.flatnonzero(
            process.pages.probed
            & (now_ns - probe_ts > self.config.probe_timeout_ns)
        )
        if stale.size == 0:
            return
        for tier in (FAST_TIER, SLOW_TIER):
            count = int(
                np.count_nonzero(process.pages.tier[stale] == tier)
            )
            if count:
                self.heat_maps[tier][-1] += count
                self.samples_recorded += count
        process.pages.probed[stale] = False
        process.pages.unprotect(stale)
        rounds[stale] = 0
        if self.obs is not None:
            self.obs.inc("dcsc.expired", int(stale.size))

    # ------------------------------------------------------------------
    # Fault-side collection
    # ------------------------------------------------------------------
    def on_probed_fault(
        self,
        process: SimProcess,
        vpns: np.ndarray,
        cit_ns: np.ndarray,
        fault_ts_ns: np.ndarray,
    ) -> None:
        """Handle faults on PG_probed pages (both measurement rounds):
        the one-process case of :meth:`on_probed_fault_fleet`."""
        vpns = np.asarray(vpns, dtype=np.int64)
        self.on_probed_fault_fleet(
            FleetFaultBatch(
                [process],
                np.array([0, vpns.size], dtype=np.int64),
                vpns,
                np.asarray(fault_ts_ns, dtype=np.int64),
                np.asarray(cit_ns, dtype=np.int64),
                pending=False,
            )
        )

    def on_probed_fault_fleet(self, probes: FleetFaultBatch) -> None:
        """Handle one quantum's faults on PG_probed pages, all processes.

        Round bookkeeping runs over global slot ids; re-protection and
        ``PG_probed`` clearing touch each owning process's pages.  The
        heat maps take each process's sample counts in segment order
        (``np.add.accumulate`` over per-process rows), so the float sums
        match a per-process loop bit for bit.
        """
        processes = probes.processes
        vpns = probes.vpns
        cit_ns = probes.cit_ns
        fault_ts_ns = probes.fault_ts_ns
        ids = self._table.ids(
            [p.pid for p in processes],
            [p.n_pages for p in processes],
            probes.bounds,
            vpns,
        )
        rounds = self._table.arrays["round"]
        first_cit = self._table.arrays["first_cit"]

        # Evaluate both round memberships before mutating, or a page
        # advanced to round two by this batch would also be *recorded* by
        # this batch.
        phase = rounds[ids]
        in_round1 = phase == 1
        in_round2 = phase == 2
        if in_round1.any():
            rows = np.flatnonzero(in_round1)
            first_cit[ids[rows]] = cit_ns[rows]
            rounds[ids[rows]] = 2
            # Second measurement round starts at the fault instant
            # (rounded up to the engine boundary when configured; see
            # DcscConfig.requantize_ns).
            restart_ts = fault_ts_ns[rows]
            if self.config.requantize_ns > 0:
                q = self.config.requantize_ns
                restart_ts = (restart_ts // q + 1) * q
            round1 = vpns[rows]
            runs = probes.runs(rows)
            # On a fleet store the writes are one pass for every
            # process; that pass needs each process's pages sorted and
            # unique, as the arena's draw yields them.
            ascending = round1[1:] > round1[:-1]
            ascending[[hi - 1 for _, _, hi in runs[:-1]]] = True
            if probes.ids is not None and ascending.all():
                probes.fleet.protect_sorted_at(
                    [processes[j].pages for j, _, _ in runs],
                    probes.ids[rows],
                    [0] + [hi for _, _, hi in runs],
                    round1,
                    restart_ts,
                )
            else:
                for j, lo, hi in runs:
                    processes[j].pages.protect_at(
                        round1[lo:hi], restart_ts[lo:hi]
                    )

        if not in_round2.any():
            return
        rows = np.flatnonzero(in_round2)
        round2 = vpns[rows]
        max_cit = np.maximum(first_cit[ids[rows]], cit_ns[rows])
        buckets = cit_bucket(
            max_cit, self.config.n_buckets, self.config.cit_unit_ns
        )
        tiers = probes.gather("tier", rows)
        runs = probes.runs(rows)
        # One (process, tier, bucket) count table, then each tier's heat
        # map takes the per-process rows in order.  Counts are
        # integer-valued; adding a process's all-zero row is exact.
        n_tiers = max(FAST_TIER, SLOW_TIER) + 1
        local = np.repeat(
            np.arange(len(runs), dtype=np.int64),
            [hi - lo for _, lo, hi in runs],
        )
        counts = dcsc_fold(
            local * n_tiers + tiers,
            buckets,
            len(runs) * n_tiers,
            self.config.n_buckets,
        ).reshape(len(runs), n_tiers, self.config.n_buckets)
        for tier in (FAST_TIER, SLOW_TIER):
            heat_map = self.heat_maps[tier]
            rows_in_order = np.concatenate(
                (heat_map[None, :], counts[:, tier, :])
            )
            heat_map[:] = np.add.accumulate(rows_in_order, axis=0)[-1]
        self.samples_recorded += float(rows.size)
        rounds[ids[rows]] = 0
        if probes.ids is not None:
            probes.fleet.probed[probes.ids[rows]] = False
        else:
            for j, lo, hi in runs:
                processes[j].pages.probed[round2[lo:hi]] = False
        obs = self.obs
        if obs is not None:
            obs.inc("dcsc.samples", int(rows.size))
            if obs.tracer is not None:
                sample_ts = fault_ts_ns[rows]
                for j, lo, hi in runs:
                    obs.emit(
                        "cit.sample",
                        int(sample_ts[lo:hi].max()),
                        pid=processes[j].pid,
                        vpns=round2[lo:hi],
                        cit_ns=max_cit[lo:hi],
                        tiers=tiers[lo:hi],
                    )

    # ------------------------------------------------------------------
    # Overlap identification -> parameter targets
    # ------------------------------------------------------------------
    def compute_targets(
        self,
        fast_capacity_pages: int,
        total_pages: int,
        scan_period_ns: int,
    ) -> Optional[Tuple[int, float]]:
        """Derive (CIT threshold ns, promotion rate pages/sec).

        Returns ``None`` until the heat maps hold enough samples.  The
        threshold is the CIT cutoff under which the page population just
        fills the fast tier; the rate limit is the misplaced (hot-in-slow)
        page mass divided by the scan period.
        """
        if fast_capacity_pages <= 0 or total_pages <= 0:
            raise ValueError("capacities must be positive")
        if scan_period_ns <= 0:
            raise ValueError("scan period must be positive")
        fast_map = self.heat_maps[FAST_TIER]
        slow_map = self.heat_maps[SLOW_TIER]
        total_mass = float(fast_map.sum() + slow_map.sum())
        if total_mass < self.config.min_samples:
            return None

        combined = fast_map + slow_map
        fast_fraction = min(fast_capacity_pages / total_pages, 1.0)
        cumulative = np.cumsum(combined) / total_mass
        cutoff = int(np.searchsorted(cumulative, fast_fraction, side="left"))
        cutoff = min(cutoff, self.config.n_buckets - 1)
        # Repeated-trial correction: the quantile answers "one max-of-two
        # sample below TH", but candidate filtering retries every scan
        # round and promotion is absorbing until demotion, so the
        # effective selected set is larger than one-shot capacity.  One
        # bucket (2x) of tightening keeps the steady-state admitted set
        # near the capacity target.
        threshold_ns = bucket_upper_bound_ns(
            max(cutoff - 1, 0), self.config.cit_unit_ns
        )

        misplaced_fraction = float(slow_map[: cutoff + 1].sum()) / total_mass
        misplaced_pages = misplaced_fraction * total_pages
        rate = misplaced_pages / (scan_period_ns / 1e9)
        rate = max(rate, 1.0)
        return threshold_ns, rate
