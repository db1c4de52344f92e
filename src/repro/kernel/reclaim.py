"""Watermark-based reclaim and proactive demotion.

Linux tracks ``min``/``low``/``high`` watermarks per zone; kswapd wakes when
free memory drops below ``low`` and reclaims until it recovers ``high``.
Chrono adds a *promotion-aware* watermark ``pro`` **above** ``high``: when
fast-tier availability falls below ``high``, demotion frees pages until
``pro`` is reached, so there is always headroom for the next scan period's
promotions.  The gap between ``high`` and ``pro`` is sized as *twice the
scan interval times the promotion rate limit* (Section 3.3.1).

Baselines use the plain ``high`` target (TPP-style demotion); Chrono
installs the dynamic ``pro`` target via :meth:`Watermarks.set_pro_gap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.mem.tier import FAST_TIER, SLOW_TIER

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class Watermarks:
    """Fast-tier watermarks, in pages of free memory.

    ``pro_gap_pages`` is the extra headroom above ``high`` that proactive
    demotion maintains; zero disables the ``pro`` watermark (vanilla
    behaviour).
    """

    capacity_pages: int
    min_frac: float = 0.01
    low_frac: float = 0.02
    high_frac: float = 0.04
    pro_gap_pages: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.min_frac <= self.low_frac <= self.high_frac < 1:
            raise ValueError(
                "watermarks must satisfy 0 < min <= low <= high < 1"
            )
        if self.pro_gap_pages < 0:
            raise ValueError("pro gap cannot be negative")

    @property
    def min_pages(self) -> int:
        return int(self.capacity_pages * self.min_frac)

    @property
    def low_pages(self) -> int:
        return int(self.capacity_pages * self.low_frac)

    @property
    def high_pages(self) -> int:
        return int(self.capacity_pages * self.high_frac)

    @property
    def pro_pages(self) -> int:
        """The demotion target: ``high`` plus the promotion headroom."""
        return self.high_pages + self.pro_gap_pages

    #: cap on the pro gap as a fraction of the tier -- keeping more than
    #: this free to "make room" would waste the fast tier it protects
    MAX_PRO_FRACTION = 0.08

    def zone_of(self, free_pages: int) -> str:
        """Classify a free-page level against the watermark ladder.

        Returns one of ``above_high`` (healthy), ``below_high``
        (kswapd territory), ``below_low`` (reclaim urgently), or
        ``below_min`` (allocation stalls) -- the vocabulary of the
        ``watermark.cross`` trace event.
        """
        if free_pages >= self.high_pages:
            return "above_high"
        if free_pages >= self.low_pages:
            return "below_high"
        if free_pages >= self.min_pages:
            return "below_low"
        return "below_min"

    def set_pro_gap(self, gap_pages: int) -> None:
        """Resize the promotion headroom (Chrono recomputes this whenever
        the promotion rate limit changes)."""
        if gap_pages < 0:
            raise ValueError("pro gap cannot be negative")
        cap = int(self.capacity_pages * self.MAX_PRO_FRACTION)
        self.pro_gap_pages = max(min(gap_pages, cap - self.high_pages), 0)


class ReclaimDaemon:
    """The simulator's kswapd: demote cold fast-tier pages on pressure."""

    #: extra per-page cost of *direct* reclaim: an allocation stalled on
    #: the fault/promotion path and had to reclaim synchronously instead
    #: of finding watermark headroom.  Policies that keep headroom (TPP's
    #: raised target, Chrono's ``pro`` watermark) rarely pay it.
    DIRECT_RECLAIM_PENALTY_NS: int = 6_000

    def __init__(
        self,
        kernel: "Kernel",
        watermarks: Watermarks,
        period_ns: int = 100_000_000,
        mark_demoted: bool = False,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("reclaim period must be positive")
        self.kernel = kernel
        self.watermarks = watermarks
        self.period_ns = period_ns
        self.mark_demoted = mark_demoted
        self._running = False
        #: watermark zone observed at the last tick (crossing detection)
        self._last_zone: str = ""

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.kernel.scheduler.schedule(
            self.kernel.clock.now + self.period_ns,
            self._tick,
            name="kswapd",
        )

    def _tick(self, now_ns: int) -> None:
        self.run_once(now_ns)
        self.kernel.scheduler.schedule(
            now_ns + self.period_ns, self._tick, name="kswapd"
        )

    def run_once(self, now_ns: int) -> int:
        """One reclaim pass; returns the number of pages demoted."""
        fast = self.kernel.machine.fast
        free = fast.free_pages
        obs = self.kernel.obs
        if obs is not None:
            zone = self.watermarks.zone_of(free)
            if zone != self._last_zone:
                if self._last_zone:
                    obs.inc("watermark.crossings")
                    obs.emit(
                        "watermark.cross",
                        now_ns,
                        free_pages=int(free),
                        zone=zone,
                        prev_zone=self._last_zone,
                    )
                self._last_zone = zone
        if free >= self.watermarks.high_pages:
            return 0
        target = max(self.watermarks.pro_pages, self.watermarks.high_pages)
        need = target - free
        if obs is not None:
            obs.inc("reclaim.wakes")
            obs.emit(
                "reclaim.wake",
                now_ns,
                free_pages=int(free),
                target_pages=int(target),
                need_pages=int(need),
                direct=False,
            )
        return self.demote_cold_pages(need, now_ns)

    def demote_cold_pages(
        self, n_pages: int, now_ns: int, direct_for=None
    ) -> int:
        """Demote up to ``n_pages`` of the coldest fast-tier pages.

        Selection walks the inactive list first; if that cannot satisfy the
        request (everything looks active), it falls back to the coldest
        active pages, as direct reclaim would.

        ``direct_for``: the process whose allocation is stalled waiting on
        this reclaim; it is charged the direct-reclaim penalty on top of
        the migration cost.  ``None`` means background (kswapd) reclaim.
        """
        if n_pages <= 0:
            return 0
        slow_free = self.kernel.machine.slow.free_pages
        n_pages = min(n_pages, slow_free)
        if n_pages <= 0:
            return 0

        profiler = self.kernel.profiler
        if profiler is not None:
            profiler.push("reclaim_select")
        try:
            victims, extra = self.kernel.lru.coldest_pages_two_phase(
                self.kernel.processes, FAST_TIER, n_pages
            )
            if extra:
                victims = _merge_victims(victims, extra)
        finally:
            if profiler is not None:
                profiler.pop()

        obs = self.kernel.obs
        if obs is not None:
            obs.emit(
                "demotion.decision",
                now_ns,
                n_requested=int(n_pages),
                n_selected=int(sum(v.size for _, v in victims)),
                direct=direct_for is not None,
            )
            if direct_for is not None:
                obs.inc("reclaim.wakes")
                obs.emit(
                    "reclaim.wake",
                    now_ns,
                    free_pages=int(self.kernel.machine.fast.free_pages),
                    target_pages=int(
                        self.kernel.machine.fast.free_pages + n_pages
                    ),
                    need_pages=int(n_pages),
                    direct=True,
                )

        # One batched migration pass over all victim owners instead of a
        # per-process ``migrate`` loop; exact-sequential semantics (see
        # ``MigrationEngine.migrate_many``).
        moved_batches = self.kernel.migration.migrate_many(
            victims, SLOW_TIER, mark_demoted=self.mark_demoted
        )
        demoted = sum(int(moved.size) for _, moved in moved_batches)
        if obs is not None:
            obs.inc("reclaim.demoted_pages", demoted)
        if direct_for is not None and demoted > 0:
            penalty = (
                demoted
                * self.DIRECT_RECLAIM_PENALTY_NS
                * self.kernel.machine.spec.page_scale
            )
            direct_for.charge_kernel(penalty)
            self.kernel.stats.kernel_time_ns += penalty
            if obs is not None:
                obs.inc("reclaim.direct_penalty_ns", penalty)
        return demoted


def _merge_victims(first, second):
    """Merge two per-process victim lists, deduplicating vpns.

    One vectorized pass over all entries: ``(owner, vpn)`` pairs are
    packed into a single int64 key, deduplicated+sorted by one
    ``np.unique``, and split back per owner with ``searchsorted``.
    Semantics match the sequential reference exactly -- process order
    is first appearance across ``first + second``, per-process vpns are
    sorted unique -- and no RNG is consumed.
    """
    entries = first + second
    if not entries:
        return []
    if len(entries) == 1:
        process, vpns = entries[0]
        vpns = np.unique(np.asarray(vpns, dtype=np.int64))
        return [(process, vpns)] if vpns.size else []
    process_of = {}
    rank_of = {}
    for process, _ in entries:
        if process.pid not in rank_of:
            rank_of[process.pid] = len(rank_of)
            process_of[process.pid] = process
    pids = list(rank_of)
    owners = np.concatenate([
        np.full(vpns.size, rank_of[process.pid], dtype=np.int64)
        for process, vpns in entries
    ])
    vpns = np.concatenate([
        np.asarray(vpns, dtype=np.int64) for _, vpns in entries
    ])
    # Pack (owner, vpn) into one sortable key; vpn < span keeps the
    # packing collision-free and the per-owner vpn order intact.
    span = int(vpns.max()) + 1 if vpns.size else 1
    packed = np.unique(owners * span + vpns)
    packed_owners = packed // span
    packed_vpns = packed - packed_owners * span
    bounds = np.searchsorted(
        packed_owners, np.arange(len(pids) + 1, dtype=np.int64)
    )
    return [
        (process_of[pids[rank]], packed_vpns[bounds[rank]:bounds[rank + 1]])
        for rank in range(len(pids))
        if bounds[rank + 1] > bounds[rank]
    ]
