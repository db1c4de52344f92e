"""Memtis (SOSP '23): PEBS statistics with huge-page classification.

Memtis samples memory accesses with PEBS into per-page counters, cools the
counters periodically, and classifies the hot set with a global histogram
sized by the fast:slow capacity ratio.  It is a *process-level* solution:
each process's hot set is sized against its own share of the fast tier, so
differently-hot processes are not distinguished from one another
(Figure 9).

Two behaviours matter for the reproduction:

* **Huge-page granularity (default).**  Counters attach to 2 MB regions.
  Promoting a hot region drags all 512 base pages into DRAM -- *memory
  bloat* and *hotness fragmentation* when only part of the region is hot
  (the stride-2 pmbench pattern halves the useful content of every hot
  region).  A conservative splitting pass demotes the worst offenders to
  base-page management.
* **Base-page granularity.**  The bounded PEBS budget spreads over 512x
  more counters; per-page counts drop below the statistically meaningful
  range and classification becomes unstable (Figure 2b) -- the paper notes
  base-page Memtis performs like vanilla Linux.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.pebs.histogram import bin_of
from repro.pebs.sampler import PebsConfig, PebsSampler
from repro.policies.base import TieringPolicy
from repro.sim.timeunits import SECOND
from repro.vm.hugepage import HUGE_2MB_PAGES, base_vpns_of, n_huge_pages

#: per-tracked-unit cost of one classification pass
CLASSIFY_UNIT_COST_NS: int = 40


@dataclass
class _ProcState:
    """Per-process Memtis bookkeeping."""

    counts: np.ndarray  # cooled base-page sample counters
    split: np.ndarray  # huge groups managed at base granularity
    last_cool_ns: int = 0
    #: pending ``[probs, n_samples]`` sampling runs: per-quantum budgets
    #: accumulate O(1) here, and the Poisson draw happens at
    #: classification time (Poisson additivity keeps the statistics of
    #: per-quantum draws)
    pending: list = field(default_factory=list)


class MemtisPolicy(TieringPolicy):
    """PEBS + cooling histogram + capacity-ratio classification."""

    name = "memtis"

    def __init__(
        self,
        page_granularity: str = "huge",
        sample_rate_per_sec: float = 100_000.0,
        classify_period_ns: int = 2 * SECOND,
        cooling_period_ns: int = 4 * SECOND,
        split_budget_per_pass: int = 2,
        split_skew_threshold: float = 0.6,
        max_splits_per_process: int = 4,
        migrate_batch_pages: int = 2048,
        hp_pages: int = HUGE_2MB_PAGES,
    ) -> None:
        """Create the policy.

        Args:
            page_granularity: ``huge`` (2 MB counters, the suggested
                setting) or ``base`` (4 KB counters).
            sample_rate_per_sec: machine-wide PEBS budget.
            classify_period_ns: hot-set reclassification period.
            cooling_period_ns: counter-halving period.
            split_budget_per_pass: huge regions split per classification
                pass (Memtis splits conservatively).
            split_skew_threshold: split a hot region when the top half of
                its base pages hold more than this fraction of its hits.
            max_splits_per_process: lifetime split budget per process --
                the conservatism the paper calls out ("its splitting
                strategy is too conservative to mitigate this problem").
            migrate_batch_pages: per-pass migration cap (pages).
            hp_pages: simulated pages per 2 MB region.  Scaled-down runs
                pass ``512 // page_scale`` so a region covers the same
                *real* footprint as on the full-size machine.
        """
        super().__init__()
        if page_granularity not in ("huge", "base"):
            raise ValueError("granularity must be 'huge' or 'base'")
        if classify_period_ns <= 0 or cooling_period_ns <= 0:
            raise ValueError("periods must be positive")
        if split_budget_per_pass < 0 or max_splits_per_process < 0:
            raise ValueError("split budgets cannot be negative")
        if not 0 < split_skew_threshold <= 1:
            raise ValueError("skew threshold must be in (0, 1]")
        if migrate_batch_pages <= 0:
            raise ValueError("migration batch must be positive")
        if hp_pages < 2:
            raise ValueError("a huge-page group needs at least two pages")
        self.page_granularity = page_granularity
        self.sample_rate_per_sec = float(sample_rate_per_sec)
        self.classify_period_ns = int(classify_period_ns)
        self.cooling_period_ns = int(cooling_period_ns)
        self.split_budget_per_pass = int(split_budget_per_pass)
        self.split_skew_threshold = float(split_skew_threshold)
        self.max_splits_per_process = int(max_splits_per_process)
        self.migrate_batch_pages = int(migrate_batch_pages)
        self.hp_pages = int(hp_pages)
        self.sampler: PebsSampler = None  # type: ignore[assignment]
        self._state: Dict[int, _ProcState] = {}

    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.scanner = None  # Memtis takes no hint faults
        self.sampler = PebsSampler(
            PebsConfig(max_samples_per_sec=self.sample_rate_per_sec),
            kernel.rng.get("memtis.pebs"),
        )
        self.sampler.obs = kernel.obs

    def start(self) -> None:
        """Schedule the classification (ksampled) tick."""
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + self.classify_period_ns,
            self._classify_tick,
            name="memtis-classify",
        )

    def state(self, process) -> _ProcState:
        """This process's sampling state (create on first use)."""
        if process.pid not in self._state:
            groups = n_huge_pages(process.n_pages, self.hp_pages)
            split_all = self.page_granularity == "base"
            self._state[process.pid] = _ProcState(
                counts=np.zeros(process.n_pages, dtype=np.float64),
                split=np.full(groups, split_all, dtype=bool),
            )
        return self._state[process.pid]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def on_quantum(
        self, process, probs, n_accesses, start_ns, quantum_ns
    ) -> None:
        """Admit this quantum's samples into the pending ledger: O(1).

        The budget arithmetic is scalar; the O(pages) Poisson draw and
        counter accumulation are deferred to the classification pass.
        Poisson(a) + Poisson(b) ~ Poisson(a + b), so drawing once over
        the accumulated budget is statistically identical to drawing per
        quantum.
        """
        kernel = self._require_kernel()
        n_procs = max(len(kernel.processes), 1)
        n_samples = self.sampler.window_budget(
            n_accesses, quantum_ns, budget_share=1.0 / n_procs
        )
        pending = self.state(process).pending
        if pending and pending[-1][0] is probs:
            pending[-1][1] += n_samples
        else:
            pending.append([probs, n_samples])

    def _flush_samples(
        self, process, state: _ProcState, now_ns: int
    ) -> None:
        """Draw and accumulate every pending sampling run.

        All pending runs go through one stacked
        :meth:`PebsSampler.draw_many` RNG call; the per-run rows are
        folded into the counters left-to-right, so the result is
        bit-identical to the historical per-run ``draw`` loop (float
        addition is not associative -- the fold order is part of the
        contract).
        """
        if not state.pending:
            return
        kernel = self._require_kernel()
        for row in self.sampler.draw_many(
            state.pending, pid=process.pid, now_ns=now_ns
        ):
            state.counts += row
        state.pending.clear()
        overhead = self.sampler.drain_overhead_ns()
        if overhead:
            process.charge_kernel(overhead)
            kernel.stats.kernel_time_ns += overhead

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify_tick(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        for process in kernel.processes:
            if process.finished:
                continue
            self._classify_process(process, now_ns)
        kernel.scheduler.schedule(
            now_ns + self.classify_period_ns,
            self._classify_tick,
            name="memtis-classify",
        )

    def _fast_share_pages(self, process) -> int:
        """This process's share of the fast tier (process-level policy)."""
        kernel = self._require_kernel()
        total = sum(p.n_pages for p in kernel.processes)
        capacity = kernel.machine.fast.capacity_pages
        usable = capacity - kernel.watermarks.high_pages
        return max(1, int(usable * process.n_pages / max(total, 1)))

    def _classify_process(self, process, now_ns: int) -> None:
        kernel = self._require_kernel()
        state = self.state(process)
        self._flush_samples(process, state, now_ns)
        if now_ns - state.last_cool_ns >= self.cooling_period_ns:
            state.counts *= 0.5
            state.last_cool_ns = now_ns

        if self.page_granularity == "huge":
            self._maybe_split(process, state)

        unit_ids, hits, sizes = self._tracked_units(process, state)
        cost = (
            sizes.size
            * CLASSIFY_UNIT_COST_NS
            * kernel.machine.spec.page_scale
        )
        process.charge_kernel(cost)
        kernel.stats.kernel_time_ns += cost

        # Histogram-threshold classification, as in the real system: the
        # raw per-unit counters (a 2 MB region's counter aggregates all
        # of its base pages' hits -- the bloat amplifier) are binned on
        # the log2 scale, and the hot threshold is the lowest bin whose
        # cumulative page coverage still fits the process's fast share.
        # Bin granularity means the hot set over- or under-shoots the
        # capacity by up to 2x; overshoot is absorbed by the free-page
        # cap at promotion time.
        capacity = self._fast_share_pages(process)
        bins = bin_of(hits)
        max_bin = int(bins.max()) if bins.size else 0
        covered = 0
        threshold_bin = max_bin + 1
        for b in range(max_bin, 0, -1):
            threshold_bin = b
            covered += int(sizes[bins == b].sum())
            if covered >= capacity:
                break
        chosen_mask = bins >= threshold_bin
        desired = chosen_mask[unit_ids]
        # One bin of demotion hysteresis: units in the bin just below the
        # promotion threshold stay resident if they already are.  Without
        # it the bin-granular threshold flip-flops whole regions between
        # tiers every classification pass.
        keep_mask = bins >= max(threshold_bin - 1, 1)
        keep = keep_mask[unit_ids]

        pages = process.pages
        promote = np.flatnonzero(desired & (pages.tier == SLOW_TIER))
        demote = np.flatnonzero(~keep & (pages.tier == FAST_TIER))
        promote = promote[: self.migrate_batch_pages]
        demote = demote[: self.migrate_batch_pages]
        if demote.size:
            kernel.migration.migrate(process, demote, SLOW_TIER)
        if promote.size:
            free = kernel.machine.fast.free_pages
            if free < promote.size:
                kernel.reclaim.demote_cold_pages(
                    promote.size - free, now_ns, direct_for=process
                )
            kernel.migration.promote(process, promote)

    def _tracked_units(
        self, process, state: _ProcState
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised tracked-unit view of a process's pages.

        Returns ``(unit_of_page, unit_hits, unit_sizes)``: every base page
        is assigned a dense unit id -- its huge group, or a private id for
        pages of split groups -- with per-unit sampled-hit totals and page
        counts.
        """
        n_pages = process.n_pages
        group_of_page = np.arange(n_pages) // self.hp_pages
        page_is_split = state.split[group_of_page]
        raw_ids = np.where(
            page_is_split,
            state.split.size + np.arange(n_pages),
            group_of_page,
        )
        unique_ids, unit_of_page = np.unique(raw_ids, return_inverse=True)
        unit_hits = np.bincount(
            unit_of_page, weights=state.counts, minlength=unique_ids.size
        )
        unit_sizes = np.bincount(unit_of_page, minlength=unique_ids.size)
        return unit_of_page, unit_hits, unit_sizes

    def _maybe_split(self, process, state: _ProcState) -> None:
        """Split the most skewed hot regions (conservatively)."""
        budget = min(
            self.split_budget_per_pass,
            self.max_splits_per_process - int(state.split.sum()),
        )
        if budget <= 0:
            return
        group_hits = np.add.reduceat(
            state.counts,
            np.arange(0, process.n_pages, self.hp_pages),
        )
        candidates = np.argsort(group_hits)[::-1]
        for group in candidates:
            if budget <= 0:
                break
            if state.split[group] or group_hits[group] < 8:
                continue
            vpns = base_vpns_of(
                np.array([group]), process.n_pages, self.hp_pages
            )
            hits = np.sort(state.counts[vpns])[::-1]
            top_half = hits[: max(1, len(hits) // 2)].sum()
            total = hits.sum()
            if total > 0 and top_half / total > self.split_skew_threshold:
                state.split[group] = True
                budget -= 1

    def bloat_ratio(self, process) -> float:
        """Fast-tier residency over the truly hot footprint.

        This is the paper's memory-bloat metric.
        """
        from repro.vm.hugepage import bloat_ratio as _bloat

        resident = process.pages.count_in_tier(FAST_TIER)
        hot = process.workload.hot_page_mask().sum()
        return _bloat(resident, int(hot))
