"""AutoTiering (ATC '21) in opportunistic + background-demotion mode.

AutoTiering records each page's access history over the last eight
page-scan periods in an 8-bit LAP (least accessed page) vector.  On a hint
fault, *opportunistic promotion* (OPM) promotes the page immediately if its
LAP shows enough recent activity; a *background demotion* (BD) thread
periodically pushes LAP-idle pages down.  The LAP bookkeeping runs in the
kernel on every scan window, which is where the paper measures its 14%
kernel-time overhead (2.2x the Linux-NB baseline).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND

#: extra per-page kernel cost of maintaining LAP lists during a scan
LAP_MAINTENANCE_COST_NS: int = 260


class AutoTieringPolicy(TieringPolicy):
    """LAP-vector history classification with OPM-BD migration."""

    name = "autotiering"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        promote_min_bits: int = 2,
        demote_period_ns: int = 10 * SECOND,
        demote_batch_pages: int = 512,
        promote_rate_limit_mbps: float = 256.0,
    ) -> None:
        """Create the policy.

        Args:
            scan_period_ns: full-address-space scan period.
            scan_step_pages: pages marked per scan event.
            promote_min_bits: LAP popcount needed for opportunistic
                promotion (accessed in at least this many of the last 8
                periods).
            demote_period_ns: background-demotion thread period.
            demote_batch_pages: LAP-idle pages demoted per BD pass.
        """
        super().__init__()
        if not 1 <= promote_min_bits <= 8:
            raise ValueError("promotion threshold must use 1..8 LAP bits")
        if demote_period_ns <= 0 or demote_batch_pages <= 0:
            raise ValueError("demotion knobs must be positive")
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns, scan_step_pages=scan_step_pages
        )
        self.promote_min_bits = promote_min_bits
        self.demote_period_ns = int(demote_period_ns)
        self.demote_batch_pages = int(demote_batch_pages)
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)
        self._lap: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        scanner = kernel.create_scanner(self._scan_config)
        scanner.on_scan = self._on_scan
        self.rate_limiter.bind(kernel)

    def start(self) -> None:
        """Schedule the background-demotion (BD) thread."""
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + self.demote_period_ns,
            self._background_demote,
            name="autotiering-bd",
        )

    def lap_vector(self, process) -> np.ndarray:
        """This process's LAP vectors (create on first use)."""
        if process.pid not in self._lap:
            self._lap[process.pid] = np.zeros(
                process.n_pages, dtype=np.uint8
            )
        return self._lap[process.pid]

    # ------------------------------------------------------------------
    def _on_scan(self, process, window: np.ndarray, now_ns: int) -> None:
        """A scan window completed its period: shift its LAP history."""
        lap = self.lap_vector(process)
        lap[window] = (lap[window] << 1) & 0xFF
        cost = (
            window.size
            * LAP_MAINTENANCE_COST_NS
            * self._require_kernel().machine.spec.page_scale
        )
        process.charge_kernel(cost)
        self._require_kernel().stats.kernel_time_ns += cost

    def on_fault(self, process, batch) -> None:
        """Record LAP bits and run opportunistic promotion (OPM)."""
        kernel = self._require_kernel()
        lap = self.lap_vector(process)
        lap[batch.vpns] |= 1
        slow = batch.vpns[process.pages.tier[batch.vpns] == SLOW_TIER]
        if slow.size == 0:
            return
        bits = _popcount8(lap[slow])
        candidates = slow[bits >= self.promote_min_bits]
        if candidates.size == 0:
            return
        budget = self.rate_limiter.grant(
            int(candidates.size), kernel.clock.now
        )
        if budget < candidates.size:
            kernel.stats.promotion_dropped += (
                int(candidates.size) - max(budget, 0)
            )
        if budget <= 0:
            return
        if budget < candidates.size:
            candidates = process.rng.permutation(candidates)[:budget]
        free = kernel.machine.fast.free_pages
        if free < candidates.size:
            # Opportunistic promotion performs page *exchanges*: it
            # demotes synchronously to make room instead of dropping.
            kernel.reclaim.demote_cold_pages(
                candidates.size - free,
                kernel.clock.now,
                direct_for=process,
            )
        kernel.migration.promote(process, candidates)

    def _background_demote(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        budget = self.demote_batch_pages
        for process in kernel.processes:
            if budget <= 0 or process.finished:
                break
            lap = self.lap_vector(process)
            idle = np.flatnonzero(
                (process.pages.tier == FAST_TIER) & (lap == 0)
            )
            if idle.size == 0:
                continue
            victims = idle[:budget]
            moved = kernel.migration.migrate(process, victims, SLOW_TIER)
            budget -= int(moved.size)
        kernel.scheduler.schedule(
            now_ns + self.demote_period_ns,
            self._background_demote,
            name="autotiering-bd",
        )


def _popcount8(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of uint8 values."""
    values = values.astype(np.uint8)
    count = np.zeros(values.shape, dtype=np.uint8)
    for shift in range(8):
        count += (values >> shift) & 1
    return count
