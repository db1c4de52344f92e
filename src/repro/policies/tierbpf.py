"""TierBPF: migration admission control for tiered memory.

TierBPF's observation is that many promotions never pay for themselves:
migrating a page costs a fixed kernel overhead plus the copy, and unless
the page is re-accessed often enough during its fast-tier residency, the
latency saved never amortizes that cost.  An eBPF admission hook predicts
each candidate's payback before the migration is issued and **rejects**
migrations predicted not to pay back; rejected pages are requeued -- each
further hint fault is fresh evidence of access frequency and makes the
next admission test easier.

The reproduction runs the admission test on the hint-fault path:

* the candidate's access interval is estimated from its CIT sample (the
  scan-to-fault gap -- exactly the per-page signal the simulator already
  produces);
* predicted benefit = expected accesses over ``payback_horizon_ns`` x the
  per-access latency gain between the tiers;
* predicted cost = the migration cost model's per-page cost;
* admit iff ``benefit >= admission_margin * cost``.

Each rejection increments a per-page requeue counter that divides the
estimated interval on the next fault (``1 + requeue_boost * rejections``),
so persistently faulting pages are eventually admitted instead of starving.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND


class TierBPFPolicy(TieringPolicy):
    """Payback-predicting admission control on the promotion path."""

    name = "tierbpf"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        promote_rate_limit_mbps: float = 256.0,
        payback_horizon_ns: int = 10 * SECOND,
        admission_margin: float = 1.0,
        requeue_boost: float = 1.0,
        max_requeues: int = 8,
    ) -> None:
        """Create the policy.

        Args:
            scan_period_ns / scan_step_pages: NUMA scan cadence.
            promote_rate_limit_mbps: kernel promotion budget.
            payback_horizon_ns: assumed fast-tier residency over which a
                migration must amortize its cost.
            admission_margin: required benefit : cost ratio (1.0 admits
                break-even candidates; > 1 demands headroom).
            requeue_boost: per-rejection divisor growth on the estimated
                access interval (reject-and-requeue pressure).
            max_requeues: cap on the per-page requeue counter.
        """
        super().__init__()
        if payback_horizon_ns <= 0:
            raise ValueError("payback horizon must be positive")
        if admission_margin <= 0:
            raise ValueError("admission margin must be positive")
        if requeue_boost < 0:
            raise ValueError("requeue boost cannot be negative")
        if max_requeues < 1:
            raise ValueError("need at least one allowed requeue")
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,
        )
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)
        self.payback_horizon_ns = int(payback_horizon_ns)
        self.admission_margin = float(admission_margin)
        self.requeue_boost = float(requeue_boost)
        self.max_requeues = int(max_requeues)
        #: pid -> per-page rejection counts (the requeue state)
        self._rejections: Dict[int, np.ndarray] = {}
        #: lifetime admission counters (mirrored to obs metrics)
        self.admitted_pages = 0
        self.rejected_pages = 0
        self._cost_per_page_ns = 0.0
        self._gain_per_access_ns = 0.0

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.create_scanner(self._scan_config)
        kernel.sysctl.set("kernel.numa_balancing", 1)
        kernel.sysctl.set("vm.demotion_enabled", 1)
        self.rate_limiter.bind(kernel)
        machine = kernel.machine
        self._cost_per_page_ns = float(
            machine.migration_cost.migrate_cost_ns(
                1,
                float(machine.bandwidth_bytes[SLOW_TIER]),
                float(machine.bandwidth_bytes[FAST_TIER]),
            )
        )
        slow_spec = machine.tiers[SLOW_TIER].spec
        fast_spec = machine.tiers[FAST_TIER].spec
        self._gain_per_access_ns = float(
            slow_spec.read_latency_ns - fast_spec.read_latency_ns
        )

    def rejection_counts(self, process) -> np.ndarray:
        """This process's per-page requeue counters (create on use)."""
        if process.pid not in self._rejections:
            self._rejections[process.pid] = np.zeros(
                process.n_pages, dtype=np.int16
            )
        return self._rejections[process.pid]

    # ------------------------------------------------------------------
    def on_fault(self, process, batch) -> None:
        """Admission-test this batch's slow-tier candidates."""
        kernel = self._require_kernel()
        pages = process.pages
        slow_sel = pages.tier[batch.vpns] == SLOW_TIER
        vpns = batch.vpns[slow_sel]
        cits = batch.cit_ns[slow_sel]
        usable = cits >= 0
        vpns, cits = vpns[usable], cits[usable]
        if vpns.size == 0:
            return

        rejections = self.rejection_counts(process)
        boost = 1.0 + self.requeue_boost * rejections[vpns]
        interval_ns = np.maximum(cits.astype(np.float64), 1.0) / boost
        benefit = (
            self.payback_horizon_ns / interval_ns
        ) * self._gain_per_access_ns
        admitted_mask = benefit >= (
            self.admission_margin * self._cost_per_page_ns
        )

        rejected = vpns[~admitted_mask]
        if rejected.size:
            rejections[rejected] = np.minimum(
                rejections[rejected] + 1, self.max_requeues
            )
            self.rejected_pages += int(rejected.size)
            if kernel.obs is not None:
                kernel.obs.inc(
                    "tierbpf.rejected_pages", int(rejected.size)
                )

        candidates = vpns[admitted_mask]
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
        moved = kernel.migration.promote(process, candidates)
        if moved.size:
            # Promotion settles the requeue debt.
            rejections[moved] = 0
            self.admitted_pages += int(moved.size)
            if kernel.obs is not None:
                kernel.obs.inc(
                    "tierbpf.admitted_pages", int(moved.size)
                )
