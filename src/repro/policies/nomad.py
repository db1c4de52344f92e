"""Nomad (OSDI '24): non-exclusive tiering via transactional migration.

Nomad decouples page migration from the critical path with *transactional
page migration* (TPM): the kernel copies a promotion candidate to the fast
tier while the application keeps running against the original page, then
validates the transaction -- if the page was **written** during the copy
the shadow is stale and the transaction *aborts*, wasting the copy work.
Committed promotions leave the slow-tier original in place as a *shadow
copy* (non-exclusive tiering): a clean shadowed page can later be demoted
by simply flipping back to the shadow, with no copy traffic, at the price
of the shadow occupying a slow-tier frame.

The reproduction models the three first-order effects against the
simulator's kernel:

* **Abort-on-write.**  Each admitted candidate aborts with probability
  ``write_fraction * (1 - exp(-copy_window / CIT))`` -- the chance that at
  least one access lands during the copy window *and* is a store.  Hot
  pages (small CIT) are exactly the pages most likely to abort, the
  pathology the paper measures on write-heavy workloads.  Aborted copies
  charge their full migration cost as wasted kernel time.
* **Non-exclusive residency.**  Committed promotions re-allocate the
  source frame as a shadow, so the slow tier's occupancy (and therefore
  the tier masses any capacity question reads) includes shadow pages.
* **Shadow reconciliation.**  A periodic pass drops shadows invalidated
  by writes, frees the shadows of pages that were demoted back (the
  zero-copy demotion path), and reclaims shadows under slow-tier
  pressure.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND


class NomadPolicy(TieringPolicy):
    """Transactional promotion with abort-on-write and shadow copies."""

    name = "nomad"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        promote_rate_limit_mbps: float = 256.0,
        reconcile_period_ns: int = SECOND,
        shadow_reserve_pages: int = 256,
        abort_window_ns: int = 0,
    ) -> None:
        """Create the policy.

        Args:
            scan_period_ns / scan_step_pages: NUMA scan cadence (Nomad
                builds on the NUMA-balancing promotion path).
            promote_rate_limit_mbps: kernel promotion budget.
            reconcile_period_ns: period of the shadow-reconcile pass
                (write invalidation, zero-copy demotion credit, pressure
                reclaim).
            shadow_reserve_pages: slow-tier free-page reserve; when free
                pages dip below it, shadows are reclaimed first -- the
                paper's answer to non-exclusive capacity pressure.
            abort_window_ns: the copy window the abort probability
                integrates over.  ``0`` (the default) derives it at
                attach time from the machine's migration cost model and
                page scale, so one simulated page's transaction covers
                the same real copy time as on the full-size system.
        """
        super().__init__()
        if reconcile_period_ns <= 0:
            raise ValueError("reconcile period must be positive")
        if shadow_reserve_pages < 0:
            raise ValueError("shadow reserve cannot be negative")
        if abort_window_ns < 0:
            raise ValueError("abort window cannot be negative")
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,
        )
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)
        self.reconcile_period_ns = int(reconcile_period_ns)
        self.shadow_reserve_pages = int(shadow_reserve_pages)
        self.abort_window_ns = int(abort_window_ns)
        #: pid -> boolean mask of pages whose slow-tier shadow is live
        self._shadow: Dict[int, np.ndarray] = {}
        #: lifetime transaction counters (also mirrored to obs metrics)
        self.aborted_pages = 0
        self.committed_pages = 0
        self.shadow_free_demotions = 0

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.create_scanner(self._scan_config)
        kernel.sysctl.set("kernel.numa_balancing", 1)
        kernel.sysctl.set("vm.demotion_enabled", 1)
        self.rate_limiter.bind(kernel)
        if self.abort_window_ns == 0:
            machine = kernel.machine
            per_page = machine.migration_cost.migrate_cost_ns(
                1,
                float(machine.bandwidth_bytes[SLOW_TIER]),
                float(machine.bandwidth_bytes[FAST_TIER]),
            )
            # One simulated page stands for page_scale real pages; the
            # transaction is open for the whole real copy.
            self.abort_window_ns = per_page * machine.spec.page_scale

    def start(self) -> None:
        """Schedule the periodic shadow-reconcile pass."""
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + self.reconcile_period_ns,
            self._reconcile,
            name="nomad-reconcile",
        )

    def shadow_mask(self, process) -> np.ndarray:
        """This process's live-shadow mask (created on first use)."""
        if process.pid not in self._shadow:
            self._shadow[process.pid] = np.zeros(
                process.n_pages, dtype=bool
            )
        return self._shadow[process.pid]

    # ------------------------------------------------------------------
    def on_fault(self, process, batch) -> None:
        """Run transactional promotion over this fault batch."""
        kernel = self._require_kernel()
        pages = process.pages
        slow_sel = pages.tier[batch.vpns] == SLOW_TIER
        vpns = batch.vpns[slow_sel]
        cits = batch.cit_ns[slow_sel]
        if vpns.size == 0:
            return

        budget = self.rate_limiter.grant(int(vpns.size), kernel.clock.now)
        budget = min(budget, kernel.machine.fast.free_pages)
        if budget < vpns.size:
            kernel.stats.promotion_dropped += (
                int(vpns.size) - max(budget, 0)
            )
        if budget <= 0:
            return
        if budget < vpns.size:
            keep = process.rng.permutation(vpns.size)[:budget]
            vpns, cits = vpns[keep], cits[keep]

        # Transaction validation: the copy aborts iff a *store* hit the
        # page inside the copy window.  CIT estimates the page's access
        # interval, so P(access during copy) = 1 - exp(-window / CIT)
        # and a write_fraction share of accesses are stores.
        wf = float(process.workload.write_fraction)
        safe_cit = np.maximum(cits.astype(np.float64), 1.0)
        p_abort = np.where(
            cits >= 0,
            wf * -np.expm1(-self.abort_window_ns / safe_cit),
            0.0,
        )
        draws = kernel.rng.get("nomad.txn").random(vpns.size)
        aborted = draws < p_abort

        n_aborted = int(np.count_nonzero(aborted))
        if n_aborted:
            # The copy ran to completion before validation failed: the
            # work is wasted but fully paid for.
            machine = kernel.machine
            cost = machine.migration_cost.migrate_cost_ns(
                n_aborted,
                float(machine.bandwidth_bytes[SLOW_TIER]),
                float(machine.bandwidth_bytes[FAST_TIER]),
            )
            process.charge_kernel(cost)
            kernel.stats.kernel_time_ns += cost
            kernel.stats.migration_time_ns += cost
            self.aborted_pages += n_aborted
            if kernel.obs is not None:
                kernel.obs.inc("nomad.aborted_pages", n_aborted)

        committed = vpns[~aborted]
        if committed.size == 0:
            return
        moved = kernel.migration.promote(process, committed)
        if moved.size == 0:
            return
        self.committed_pages += int(moved.size)
        # Non-exclusive residency: the source frames just released by
        # the migration are re-taken as shadow copies.  A page whose
        # shadow is already live (demoted back, re-promoted before the
        # reconcile pass) keeps its existing frame.
        shadow = self.shadow_mask(process)
        fresh = moved[~shadow[moved]]
        granted = kernel.machine.slow.allocate(int(fresh.size))
        if granted > 0:
            shadow[fresh[:granted]] = True
            if kernel.obs is not None:
                kernel.obs.set_gauge(
                    "nomad.shadow_pages", float(self._shadow_total())
                )

    # ------------------------------------------------------------------
    def _shadow_total(self) -> int:
        return int(
            sum(int(mask.sum()) for mask in self._shadow.values())
        )

    def _reconcile(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        rng = kernel.rng.get("nomad.txn")
        released = 0
        for process in kernel.processes:
            if process.pid not in self._shadow:
                continue
            shadow = self._shadow[process.pid]
            live = np.flatnonzero(shadow)
            if live.size == 0:
                continue
            tiers = process.pages.tier[live]

            # Zero-copy demotions: pages that came back to the slow tier
            # while their shadow stayed live -- the shadow *is* the page
            # again, so the shadow frame is redundant.
            back = live[tiers == SLOW_TIER]
            if back.size:
                shadow[back] = False
                released += int(back.size)
                self.shadow_free_demotions += int(back.size)

            # Write invalidation: a fast-tier page written since the
            # last pass makes its shadow stale.  The write share of the
            # workload approximates P(>= 1 store | resident and hot).
            front = live[tiers == FAST_TIER]
            if front.size:
                wf = float(process.workload.write_fraction)
                dirty = front[rng.random(front.size) < wf]
                if dirty.size:
                    shadow[dirty] = False
                    released += int(dirty.size)

        # Pressure reclaim: shadows go first when the slow tier runs
        # short of frames for real demotions.
        deficit = self.shadow_reserve_pages - kernel.machine.slow.free_pages
        deficit -= released
        if deficit > 0:
            for process in kernel.processes:
                if deficit <= 0:
                    break
                shadow = self._shadow.get(process.pid)
                if shadow is None:
                    continue
                live = np.flatnonzero(shadow)
                if live.size == 0:
                    continue
                drop = live[: deficit]
                shadow[drop] = False
                released += int(drop.size)
                deficit -= int(drop.size)

        if released:
            kernel.machine.slow.release(released)
            if kernel.obs is not None:
                kernel.obs.inc("nomad.shadow_released", released)
                kernel.obs.set_gauge(
                    "nomad.shadow_pages", float(self._shadow_total())
                )
        kernel.scheduler.schedule(
            now_ns + self.reconcile_period_ns,
            self._reconcile,
            name="nomad-reconcile",
        )
