"""ARMS: adaptive, robust memory tiering under workload drift.

ARMS targets the fragility of fixed promotion thresholds: a threshold
tuned for one phase of a workload either floods the migration path or
starves it once the access distribution drifts.  Its two mechanisms:

* a **feedback controller** continuously re-tunes the hotness threshold
  so the promotion *candidate* rate tracks the configured migration
  budget -- the same multiplicative controller Chrono's semi-automatic
  tuner uses (:class:`repro.core.tuning.SemiAutoTuner`), which this
  module piggybacks on;
* a **drift detector** comparing a short- and a long-horizon EWMA of the
  hint-fault rate.  When the short-term rate departs from the long-term
  rate by more than ``drift_ratio`` x, the workload has shifted phase:
  the threshold is *reset* to its initial value rather than walked
  multiplicatively from a now-meaningless operating point, and the
  baselines are re-seeded.

Promotion itself is TPP-style: a slow-tier page whose CIT sample beats
the (tuned) threshold is a candidate, subject to the kernel rate limit.
"""

from __future__ import annotations

from repro.core.tuning import SemiAutoTuner
from repro.kernel.scanner import ScanConfig
from repro.mem.tier import SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND


class ARMSPolicy(TieringPolicy):
    """Tuned-threshold promotion with drift-triggered resets."""

    name = "arms"

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        promote_rate_limit_mbps: float = 256.0,
        initial_threshold_ns: int = SECOND,
        tune_period_ns: int = 2 * SECOND,
        tune_delta: float = 0.5,
        drift_ratio: float = 2.0,
        short_alpha: float = 0.5,
        long_alpha: float = 0.05,
    ) -> None:
        """Create the policy.

        Args:
            scan_period_ns / scan_step_pages: NUMA scan cadence.
            promote_rate_limit_mbps: kernel promotion budget; also the
                setpoint the candidate rate is steered toward.
            initial_threshold_ns: starting CIT threshold, restored on
                every drift reset.
            tune_period_ns: period of the feedback/drift pass.
            tune_delta: the tuner's adaption step (0 < delta <= 1).
            drift_ratio: short-vs-long fault-rate ratio that declares a
                phase change (must exceed 1).
            short_alpha / long_alpha: EWMA weights of the two horizons
                (short must forget faster than long).
        """
        super().__init__()
        if initial_threshold_ns <= 0:
            raise ValueError("initial threshold must be positive")
        if tune_period_ns <= 0:
            raise ValueError("tune period must be positive")
        if drift_ratio <= 1:
            raise ValueError("drift ratio must exceed 1")
        if not 0 < long_alpha < short_alpha <= 1:
            raise ValueError(
                "need 0 < long_alpha < short_alpha <= 1"
            )
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,
        )
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)
        self.initial_threshold_ns = int(initial_threshold_ns)
        self.tune_period_ns = int(tune_period_ns)
        self.drift_ratio = float(drift_ratio)
        self.short_alpha = float(short_alpha)
        self.long_alpha = float(long_alpha)
        self.tuner = SemiAutoTuner(
            threshold_ns=float(initial_threshold_ns), delta=tune_delta
        )
        self._rate_limit_pages_per_sec = 0.0
        #: faults / candidates observed since the last tune pass
        self._faults_since_tune = 0
        self._candidates_since_tune = 0
        #: fault-rate EWMAs (faults/sec); -1 = not yet seeded
        self._short_rate = -1.0
        self._long_rate = -1.0
        #: lifetime counter of drift-triggered threshold resets
        self.drift_resets = 0

    @property
    def threshold_ns(self) -> float:
        """The current (tuned) CIT promotion threshold."""
        return self.tuner.threshold_ns

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.create_scanner(self._scan_config)
        kernel.sysctl.set("kernel.numa_balancing", 1)
        kernel.sysctl.set("vm.demotion_enabled", 1)
        self.rate_limiter.bind(kernel)
        bytes_per_sim_page = 4096 * kernel.machine.spec.page_scale
        self._rate_limit_pages_per_sec = (
            self.rate_limiter.rate_mbps * 1e6 / bytes_per_sim_page
        )

    def start(self) -> None:
        """Schedule the periodic feedback/drift pass."""
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + self.tune_period_ns,
            self._tune,
            name="arms-tune",
        )

    # ------------------------------------------------------------------
    def on_fault(self, process, batch) -> None:
        """Threshold-gate this batch's slow-tier candidates."""
        kernel = self._require_kernel()
        self._faults_since_tune += int(batch.vpns.size)
        pages = process.pages
        slow_sel = pages.tier[batch.vpns] == SLOW_TIER
        vpns = batch.vpns[slow_sel]
        cits = batch.cit_ns[slow_sel]
        if vpns.size == 0:
            return
        candidates = vpns[(cits >= 0) & (cits < self.tuner.threshold_ns)]
        if candidates.size == 0:
            return
        self._candidates_since_tune += int(candidates.size)
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

    # ------------------------------------------------------------------
    def _tune(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        period_sec = self.tune_period_ns / 1e9
        fault_rate = self._faults_since_tune / period_sec
        candidate_rate = self._candidates_since_tune / period_sec
        self._faults_since_tune = 0
        self._candidates_since_tune = 0

        if self._short_rate < 0:
            # First pass seeds both horizons; no drift verdict yet.
            self._short_rate = fault_rate
            self._long_rate = fault_rate
        else:
            self._short_rate += self.short_alpha * (
                fault_rate - self._short_rate
            )
            self._long_rate += self.long_alpha * (
                fault_rate - self._long_rate
            )

        drifted = self._long_rate > 0 and (
            self._short_rate > self.drift_ratio * self._long_rate
            or self._short_rate * self.drift_ratio < self._long_rate
        )
        if drifted:
            # Phase change: the old operating point is meaningless, so
            # jump back to the configured prior instead of walking the
            # controller there one clamped step at a time.
            self.tuner.threshold_ns = float(self.initial_threshold_ns)
            self._long_rate = self._short_rate
            self.drift_resets += 1
            if kernel.obs is not None:
                kernel.obs.inc("arms.drift_resets")
        else:
            self.tuner.update(
                self._rate_limit_pages_per_sec, candidate_rate
            )
        if kernel.obs is not None:
            kernel.obs.set_gauge(
                "arms.threshold_ns", float(self.tuner.threshold_ns)
            )
        kernel.scheduler.schedule(
            now_ns + self.tune_period_ns, self._tune, name="arms-tune"
        )
