"""Multi-Clock (HPCA '22): multi-level clock lists over access bits.

Multi-Clock never forces page faults.  It extends the kernel's clock
(reference-bit) reclaim algorithm with multiple LRU levels: each aging pass
moves a referenced page up one level and an unreferenced page down one.
Promotion candidates come from the *top* level of the slow tier, demotion
candidates from the *bottom* level of the fast tier.  The effective
frequency resolution is one bit per aging window -- exactly the
coarse-grained measurement the paper critiques -- but the overhead (no hint
faults, few context switches) is the lowest of all baselines.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.policies.base import TieringPolicy


class MultiClockPolicy(TieringPolicy):
    """Multi-level clock classification, access-bit driven."""

    name = "multiclock"

    def __init__(
        self,
        n_levels: int = 4,
        promote_level: int = 3,
        migrate_batch_pages: int = 64,
    ) -> None:
        """Create the policy.

        Args:
            n_levels: number of clock levels (0 = coldest).
            promote_level: slow-tier pages at or above this level are
                promotion candidates.
            migrate_batch_pages: per-aging-pass migration cap (the
                kmigraterd-style daemon moves a bounded batch per sweep).
        """
        super().__init__()
        if n_levels < 2:
            raise ValueError("need at least two clock levels")
        if not 0 < promote_level < n_levels:
            raise ValueError("promotion level must be inside the ladder")
        if migrate_batch_pages <= 0:
            raise ValueError("migration batch must be positive")
        self.n_levels = int(n_levels)
        self.promote_level = int(promote_level)
        self.migrate_batch_pages = int(migrate_batch_pages)
        self._levels: Dict[int, np.ndarray] = {}

    def _configure(self, kernel) -> None:
        # No scanner: Multi-Clock works purely off reference bits.
        kernel.scanner = None

    def levels(self, process) -> np.ndarray:
        """Per-page clock levels for a process."""
        if process.pid not in self._levels:
            self._levels[process.pid] = np.zeros(
                process.n_pages, dtype=np.int8
            )
        return self._levels[process.pid]

    def on_lru_age(self, process, touched: np.ndarray, now_ns: int) -> None:
        """Run one clock-hand sweep.

        Bumps referenced pages, decays the rest, then migrates from the
        list extremes.
        """
        kernel = self._require_kernel()
        levels = self.levels(process)
        levels[touched] = np.minimum(levels[touched] + 1, self.n_levels - 1)
        levels[~touched] = np.maximum(levels[~touched] - 1, 0)

        pages = process.pages
        # Promote: top-level slow-tier pages.
        candidates = np.flatnonzero(
            (pages.tier == SLOW_TIER) & (levels >= self.promote_level)
        )
        if candidates.size:
            # Hottest (highest level) first, capped by batch budget.
            # Shuffle first: pages sharing a level are indistinguishable
            # to the clock algorithm, so ties break randomly.
            shuffled = process.rng.permutation(candidates)
            order = np.argsort(
                levels[shuffled], kind="stable"
            )[::-1]
            batch = shuffled[order][: self.migrate_batch_pages]
            free = kernel.machine.fast.free_pages
            if free < batch.size:
                self._demote_bottom(process, batch.size - free)
            kernel.migration.promote(process, batch)

    def _demote_bottom(self, process, n_pages: int) -> None:
        """Demote bottom-level fast-tier pages to make room."""
        kernel = self._require_kernel()
        levels = self.levels(process)
        for level in range(self.n_levels):
            if n_pages <= 0:
                return
            cold = np.flatnonzero(
                (process.pages.tier == FAST_TIER) & (levels == level)
            )
            if cold.size == 0:
                continue
            victims = process.rng.permutation(cold)[:n_pages]
            moved = kernel.migration.migrate(process, victims, SLOW_TIER)
            n_pages -= int(moved.size)
