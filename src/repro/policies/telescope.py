"""Telescope (ATC '24): region-based profiling over tree-structured PTEs.

Telescope walks the page-table *tree* instead of leaf PTEs: it samples the
accessed bits of upper-level page-table entries (PGD/PUD/PMD), each of
which covers a whole region, and drills down only into regions whose
upper-level bit was set.  This makes profiling cost proportional to the
*hot* footprint rather than total memory -- the scalability pitch for
TB-scale systems -- but each level's profiling window is fixed (200 ms in
the paper), so the frequency resolution at every level is one bit per
window (Table 1: "0~5 access/sec").

The simulator models the drill-down as a region hierarchy over the virtual
address space: each profiling pass checks the region-level touch bit
(a region is touched iff any page in it was), halves the candidate set by
drilling into touched regions, and finally promotes leaf pages of regions
that stayed hot through the drill-down.  Demotion follows the standard
watermark path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.mem.tier import SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import MILLISECOND

#: per-entry cost of probing one upper-level page-table entry
TREE_PROBE_COST_NS: int = 150


@dataclass
class _DrillState:
    """One process's drill-down position."""

    level: int  # current tree level (0 = root / coarsest)
    candidates: np.ndarray  # region ids under inspection at this level


class TelescopePolicy(TieringPolicy):
    """Tree-structured access-bit profiling with drill-down promotion."""

    name = "telescope"

    def __init__(
        self,
        window_ns: int = 200 * MILLISECOND,
        region_fanout: int = 8,
        n_levels: int = 3,
        promote_rate_limit_mbps: float = 256.0,
    ) -> None:
        """Create the policy.

        Args:
            window_ns: fixed profiling window per tree level (the paper
                uses 200 ms).
            region_fanout: children per tree node (512 for real PMD/PUD
                steps; smaller under simulation scaling).
            n_levels: drill-down depth before reaching leaf pages.
            promote_rate_limit_mbps: kernel promotion budget.
        """
        super().__init__()
        if window_ns <= 0:
            raise ValueError("profiling window must be positive")
        if region_fanout < 2:
            raise ValueError("fanout must be at least 2")
        if n_levels < 1:
            raise ValueError("need at least one tree level")
        self.window_ns = int(window_ns)
        self.region_fanout = int(region_fanout)
        self.n_levels = int(n_levels)
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)
        self._drill: Dict[int, _DrillState] = {}
        self._window_counts: Dict[int, np.ndarray] = {}
        #: per-pid pending ``[probs, n_accesses]`` ledger runs; quanta
        #: accumulate O(1) here and materialise at the window tick
        self._window_pending: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.scanner = None  # access bits only, no hint faults
        self.rate_limiter.bind(kernel)

    def start(self) -> None:
        """Schedule the profiling-window tick."""
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + self.window_ns,
            self._window_tick,
            name="telescope-profile",
        )

    # ------------------------------------------------------------------
    def region_pages(self, process, level: int) -> int:
        """Pages covered by one region at ``level`` (level 0 coarsest)."""
        span = self.region_fanout ** (self.n_levels - level)
        return max(min(span, process.n_pages), 1)

    def _state(self, process) -> _DrillState:
        if process.pid not in self._drill:
            n_regions = -(-process.n_pages // self.region_pages(process, 0))
            self._drill[process.pid] = _DrillState(
                level=0, candidates=np.arange(n_regions)
            )
        return self._drill[process.pid]

    def on_quantum(
        self, process, probs, n_accesses, start_ns, quantum_ns
    ) -> None:
        """Record the quantum's expected accesses for the current window.

        O(1) per quantum: the O(pages) accumulation into the window
        counter is deferred to the profiling tick (consecutive quanta
        sharing a distribution array merge into one run).
        """
        pending = self._window_pending.setdefault(process.pid, [])
        if pending and pending[-1][0] is probs:
            pending[-1][1] += n_accesses
        else:
            pending.append([probs, float(n_accesses)])

    def _materialized_counts(self, process) -> np.ndarray:
        """The window counter with every pending quantum folded in."""
        counts = self._window_counts.get(process.pid)
        if counts is None:
            counts = self._window_counts[process.pid] = np.zeros(
                process.n_pages
            )
        pending = self._window_pending.get(process.pid)
        if pending:
            for probs, n_accesses in pending:
                counts += n_accesses * probs
            pending.clear()
        return counts

    # ------------------------------------------------------------------
    def _window_tick(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        for process in kernel.processes:
            if process.finished:
                continue
            self._profile_window(process, now_ns)
        kernel.scheduler.schedule(
            now_ns + self.window_ns,
            self._window_tick,
            name="telescope-profile",
        )

    def _touched_regions(
        self, process, level: int, regions: np.ndarray
    ) -> np.ndarray:
        """Regions whose upper-level accessed bit was set this window."""
        if (
            process.pid not in self._window_counts
            and not self._window_pending.get(process.pid)
        ):
            return np.empty(0, dtype=np.int64)
        counts = self._materialized_counts(process)
        span = self.region_pages(process, level)
        n_regions = -(-process.n_pages // span)
        lam = np.bincount(
            np.arange(process.n_pages) // span,
            weights=counts,
            minlength=n_regions,
        )
        rng = self._require_kernel().rng.get("telescope")
        touched_bit = rng.random(n_regions) < -np.expm1(-lam)
        regions = regions[regions < n_regions]
        return regions[touched_bit[regions]]

    def _profile_window(self, process, now_ns: int) -> None:
        kernel = self._require_kernel()
        state = self._state(process)

        touched = self._touched_regions(
            process, state.level, state.candidates
        )
        cost = state.candidates.size * TREE_PROBE_COST_NS * (
            kernel.machine.spec.page_scale
        )
        process.charge_kernel(cost)
        kernel.stats.kernel_time_ns += cost

        if state.level + 1 < self.n_levels:
            # Drill: expand each touched region into its children.
            children = (
                touched[:, None] * self.region_fanout
                + np.arange(self.region_fanout)[None, :]
            ).ravel()
            state.level += 1
            state.candidates = children
        else:
            # Leaf level: promote the slow-tier pages of regions that
            # survived the drill-down, then restart from the root.
            self._promote_regions(process, touched, now_ns)
            n_regions = -(
                -process.n_pages // self.region_pages(process, 0)
            )
            state.level = 0
            state.candidates = np.arange(n_regions)
        # Every level uses a fresh window of access bits.  Pending runs
        # are dropped without materialising -- they belong to the window
        # being discarded.
        pending = self._window_pending.get(process.pid)
        if pending:
            pending.clear()
        counts = self._window_counts.get(process.pid)
        if counts is not None:
            counts[:] = 0.0

    def _promote_regions(
        self, process, regions: np.ndarray, now_ns: int
    ) -> None:
        kernel = self._require_kernel()
        if regions.size == 0:
            return
        span = self.region_pages(process, self.n_levels - 1)
        vpns = (
            regions[:, None] * span + np.arange(span)[None, :]
        ).ravel()
        vpns = vpns[vpns < process.n_pages]
        vpns = vpns[process.pages.tier[vpns] == SLOW_TIER]
        if vpns.size == 0:
            return
        budget = self.rate_limiter.grant(int(vpns.size), now_ns)
        budget = min(budget, kernel.machine.fast.free_pages)
        if budget < vpns.size:
            kernel.stats.promotion_dropped += int(vpns.size) - max(
                budget, 0
            )
        if budget <= 0:
            return
        if budget < vpns.size:
            vpns = process.rng.permutation(vpns)[:budget]
        kernel.migration.promote(process, vpns)
