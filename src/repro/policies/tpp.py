"""TPP: Transparent Page Placement (ASPLOS '23).

TPP combines NUMA hint faults with a *fixed* recency criterion: the kernel
records the gap between the scan that protected a page and the fault that
unprotects it (the "hint fault latency") and promotes only pages whose gap
is under a static threshold (1 s by default in the kernel implementation).
This is a one-round, manually-configured, coarse cousin of Chrono's CIT --
exactly the lineage the paper draws (Table 1: "Page-fault + LRU lists,
0~2 access/min").  Promotions inherit the kernel's global rate limit.

On the demotion side TPP raises the fast tier's free-page target so
reclaim proactively keeps headroom for promotions (the idea Chrono's
``pro`` watermark generalizes), and the promotion path never reclaims
synchronously.
"""

from __future__ import annotations

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND


class TPPPolicy(TieringPolicy):
    """Fixed hint-fault-latency promotion; headroom demotion."""

    name = "tpp"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        hint_fault_latency_ns: int = SECOND,
        headroom_pages: int = 512,
        promote_rate_limit_mbps: float = 256.0,
    ) -> None:
        """Create the policy.

        Args:
            scan_period_ns / scan_step_pages: NUMA scan cadence.
            hint_fault_latency_ns: static promotion threshold on the
                scan-to-fault gap (the kernel default is 1 s; scaled-down
                experiments pass a proportionally smaller value).
            headroom_pages: extra demotion target above the high
                watermark, keeping the fast tier allocatable.
            promote_rate_limit_mbps: the kernel promotion budget.
        """
        super().__init__()
        if hint_fault_latency_ns <= 0:
            raise ValueError("hint fault latency must be positive")
        if headroom_pages < 0:
            raise ValueError("headroom cannot be negative")
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,  # tiering mode: skip the top tier
        )
        self.hint_fault_latency_ns = int(hint_fault_latency_ns)
        self.headroom_pages = int(headroom_pages)
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)

    def _configure(self, kernel) -> None:
        kernel.create_scanner(self._scan_config)
        kernel.watermarks.set_pro_gap(self.headroom_pages)
        kernel.sysctl.set("vm.demotion_enabled", 1)
        self.rate_limiter.bind(kernel)

    def on_fault(self, process, batch) -> None:
        """Promote slow-tier faults whose CIT beats the static cutoff."""
        kernel = self._require_kernel()
        pages = process.pages
        slow_sel = pages.tier[batch.vpns] == SLOW_TIER
        vpns = batch.vpns[slow_sel]
        cits = batch.cit_ns[slow_sel]
        if vpns.size == 0:
            return
        # The recency gate: one CIT sample against a static threshold.
        candidates = vpns[
            (cits >= 0) & (cits < self.hint_fault_latency_ns)
        ]
        if candidates.size == 0:
            return
        budget = self.rate_limiter.grant(
            int(candidates.size), kernel.clock.now
        )
        budget = min(budget, kernel.machine.fast.free_pages)
        if budget < candidates.size:
            kernel.stats.promotion_dropped += (
                int(candidates.size) - max(budget, 0)
            )
        if budget <= 0:
            return
        if budget < candidates.size:
            candidates = process.rng.permutation(candidates)[:budget]
        kernel.migration.promote(process, candidates)
