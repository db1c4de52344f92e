"""FlexMem (ATC '24): PEBS statistics + page-fault timeliness.

FlexMem extends Memtis with a software-page-fault signal: the PEBS
histogram supplies the long-term hotness ranking, but a page whose hint
fault arrives quickly after a scan (a TPP-style latency check) can be
promoted *immediately*, without waiting for its counter to accumulate --
"enhancing Memtis with timely migration decisions" (Section 2.3).  Like
Memtis it is a process-level, huge-page-first design.

The simulated composition: a full Memtis pipeline (sampling, cooling,
histogram-threshold classification, conservative splitting) plus a
NUMA-balancing scanner whose faults promote pages passing both gates --
fault latency under the threshold *and* a nonzero sampled counter (the
synthetic criterion).
"""

from __future__ import annotations

import numpy as np

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import SLOW_TIER
from repro.policies.base import PromotionRateLimiter
from repro.policies.memtis import MemtisPolicy
from repro.sim.timeunits import SECOND


class FlexMemPolicy(MemtisPolicy):
    """Memtis + fault-latency fast path."""

    name = "flexmem"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        hint_fault_latency_ns: int = SECOND,
        promote_rate_limit_mbps: float = 256.0,
        **memtis_kwargs,
    ) -> None:
        """Create the policy; extra kwargs configure the Memtis base."""
        super().__init__(**memtis_kwargs)
        if hint_fault_latency_ns <= 0:
            raise ValueError("hint fault latency must be positive")
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,
        )
        self.hint_fault_latency_ns = int(hint_fault_latency_ns)
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)

    def _configure(self, kernel) -> None:
        super()._configure(kernel)
        # Unlike Memtis, FlexMem keeps the hint-fault scanner running.
        kernel.create_scanner(self._scan_config)
        self.rate_limiter.bind(kernel)

    def on_fault(self, process, batch) -> None:
        """Run the timely path.

        Promotes fast-faulting, already-sampled pages at huge-region
        granularity.
        """
        kernel = self._require_kernel()
        pages = process.pages
        slow_sel = pages.tier[batch.vpns] == SLOW_TIER
        vpns = batch.vpns[slow_sel]
        cits = batch.cit_ns[slow_sel]
        timely = vpns[
            (cits >= 0) & (cits < self.hint_fault_latency_ns)
        ]
        if timely.size == 0:
            return
        state = self.state(process)
        # The warm gate reads the sampled counters, so pending sampling
        # runs must materialise first (Memtis defers draws to classify).
        self._flush_samples(process, state, kernel.clock.now)
        warm = timely[state.counts[timely] > 0]
        if warm.size == 0:
            return
        # Promote the whole huge region of each qualifying page (the
        # huge-page-first design), bounded by the kernel rate limit.
        groups = np.unique(warm // self.hp_pages)
        region_vpns = (
            groups[:, None] * self.hp_pages
            + np.arange(self.hp_pages)[None, :]
        ).ravel()
        region_vpns = region_vpns[region_vpns < process.n_pages]
        region_vpns = region_vpns[
            pages.tier[region_vpns] == SLOW_TIER
        ]
        budget = self.rate_limiter.grant(
            int(region_vpns.size), kernel.clock.now
        )
        budget = min(budget, kernel.machine.fast.free_pages)
        if budget < region_vpns.size:
            kernel.stats.promotion_dropped += int(
                region_vpns.size
            ) - max(budget, 0)
        if budget <= 0:
            return
        kernel.migration.promote(process, region_vpns[:budget])
