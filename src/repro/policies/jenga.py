"""Jenga: thrash-free responsive tiering via promotion damping.

Responsive tiering policies promote on the first access signal, which is
exactly what makes them *thrash*: a page demoted under capacity pressure
faults once, is promoted back, and evicts another page that repeats the
cycle.  Jenga keeps first-touch responsiveness but makes the promotion
path **demotion-aware**:

* a **refractory window** -- a page demoted in the last
  ``refractory_ns`` is ineligible for promotion, breaking the tight
  demote/promote ping-pong loop outright;
* **history damping** -- the per-batch promotion budget is scaled by
  ``pivot / (pivot + recent_demotions)``, where ``recent_demotions`` is
  an exponentially decayed count of recently demoted pages.  Under heavy
  demotion pressure (the fast tier is genuinely oversubscribed) the
  damping factor approaches zero and promotions throttle before they can
  thrash; in quiet periods it approaches one and Jenga behaves like an
  eager first-touch promoter.

Demotion is Jenga's own heat-ordered background pass (coldest fast-tier
pages first, by a fault-driven decayed heat counter), which is also where
demotion timestamps and the pressure history are recorded.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND


class JengaPolicy(TieringPolicy):
    """Demotion-history-damped first-touch promotion."""

    name = "jenga"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        promote_rate_limit_mbps: float = 256.0,
        refractory_ns: int = 5 * SECOND,
        damping_pivot_pages: int = 512,
        demote_period_ns: int = SECOND,
        demote_batch_pages: int = 512,
        headroom_pages: int = 256,
        heat_decay: float = 0.5,
    ) -> None:
        """Create the policy.

        Args:
            scan_period_ns / scan_step_pages: NUMA scan cadence.
            promote_rate_limit_mbps: kernel promotion budget.
            refractory_ns: post-demotion window during which a page
                cannot be re-promoted.
            damping_pivot_pages: demotion-history half-way point of the
                damping curve (recent demotions equal to the pivot halve
                the promotion budget).
            demote_period_ns: background demotion/heat-decay period.
            demote_batch_pages: per-pass demotion cap.
            headroom_pages: fast-tier free-page target the background
                pass demotes toward.
            heat_decay: per-pass multiplicative decay of page heat and
                of the demotion-pressure history (in (0, 1)).
        """
        super().__init__()
        if refractory_ns < 0:
            raise ValueError("refractory window cannot be negative")
        if damping_pivot_pages <= 0:
            raise ValueError("damping pivot must be positive")
        if demote_period_ns <= 0 or demote_batch_pages <= 0:
            raise ValueError("demotion knobs must be positive")
        if headroom_pages < 0:
            raise ValueError("headroom cannot be negative")
        if not 0 < heat_decay < 1:
            raise ValueError("heat decay must be in (0, 1)")
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,
        )
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)
        self.refractory_ns = int(refractory_ns)
        self.damping_pivot_pages = int(damping_pivot_pages)
        self.demote_period_ns = int(demote_period_ns)
        self.demote_batch_pages = int(demote_batch_pages)
        self.headroom_pages = int(headroom_pages)
        self.heat_decay = float(heat_decay)
        #: pid -> per-page fault-heat EWMA
        self._heat: Dict[int, np.ndarray] = {}
        #: pid -> per-page time of last demotion (-inf = never)
        self._last_demote: Dict[int, np.ndarray] = {}
        #: decayed count of recently demoted pages (the damping input)
        self.recent_demotions = 0.0
        #: lifetime counter of promotions blocked by damping/refractory
        self.damped_pages = 0

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.create_scanner(self._scan_config)
        kernel.sysctl.set("kernel.numa_balancing", 1)
        self.rate_limiter.bind(kernel)

    def start(self) -> None:
        """Schedule the background heat-decay/demotion pass."""
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + self.demote_period_ns,
            self._background_pass,
            name="jenga-demote",
        )

    def heat(self, process) -> np.ndarray:
        """This process's per-page heat EWMA (create on first use)."""
        if process.pid not in self._heat:
            self._heat[process.pid] = np.zeros(
                process.n_pages, dtype=np.float32
            )
        return self._heat[process.pid]

    def last_demote_ns(self, process) -> np.ndarray:
        """This process's last-demotion timestamps (create on use)."""
        if process.pid not in self._last_demote:
            self._last_demote[process.pid] = np.full(
                process.n_pages, -np.inf, dtype=np.float64
            )
        return self._last_demote[process.pid]

    def damping_factor(self) -> float:
        """Current promotion-budget multiplier in (0, 1]."""
        return self.damping_pivot_pages / (
            self.damping_pivot_pages + self.recent_demotions
        )

    # ------------------------------------------------------------------
    def on_fault(self, process, batch) -> None:
        """First-touch promotion, minus refractory and damped pages."""
        kernel = self._require_kernel()
        heat = self.heat(process)
        np.add.at(heat, batch.vpns, 1.0)
        pages = process.pages
        slow_sel = pages.tier[batch.vpns] == SLOW_TIER
        vpns = batch.vpns[slow_sel]
        if vpns.size == 0:
            return

        now = kernel.clock.now
        cooled = (
            now - self.last_demote_ns(process)[vpns] >= self.refractory_ns
        )
        blocked = int(vpns.size - np.count_nonzero(cooled))
        candidates = vpns[cooled]

        # Damping: the admissible share of this batch shrinks with the
        # recent demotion volume.  Ceil, so light pressure never rounds
        # a small batch to zero.
        allowed = int(np.ceil(candidates.size * self.damping_factor()))
        if allowed < candidates.size:
            blocked += int(candidates.size) - allowed
            candidates = process.rng.permutation(candidates)[:allowed]
        if blocked:
            self.damped_pages += blocked
            if kernel.obs is not None:
                kernel.obs.inc("jenga.damped_pages", blocked)
        if candidates.size == 0:
            return

        budget = self.rate_limiter.grant(int(candidates.size), now)
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

    # ------------------------------------------------------------------
    def _background_pass(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        self.recent_demotions *= self.heat_decay
        need = self.headroom_pages - kernel.machine.fast.free_pages
        budget = min(max(need, 0), self.demote_batch_pages)
        demoted_total = 0
        for process in kernel.processes:
            heat = self.heat(process)
            if budget > 0 and not process.finished:
                fast = np.flatnonzero(process.pages.tier == FAST_TIER)
                if fast.size:
                    # Coldest first; ties broken randomly so equally
                    # cold pages are indistinguishable, like a real
                    # LRU-tail scan.
                    shuffled = process.rng.permutation(fast)
                    order = np.argsort(heat[shuffled], kind="stable")
                    victims = shuffled[order][:budget]
                    moved = kernel.migration.migrate(
                        process, victims, SLOW_TIER
                    )
                    if moved.size:
                        self.last_demote_ns(process)[moved] = now_ns
                        budget -= int(moved.size)
                        demoted_total += int(moved.size)
            heat *= self.heat_decay
        if demoted_total:
            self.recent_demotions += demoted_total
        if kernel.obs is not None:
            kernel.obs.set_gauge(
                "jenga.damping_factor", float(self.damping_factor())
            )
        kernel.scheduler.schedule(
            now_ns + self.demote_period_ns,
            self._background_pass,
            name="jenga-demote",
        )
