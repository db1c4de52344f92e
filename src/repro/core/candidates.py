"""The n-round hot-page candidate filter (Figure 4).

A single CIT sample can misclassify: the scan may have landed just before
an access of an otherwise-cold page.  The filter requires a page to pass
the CIT threshold in ``n`` consecutive measurement rounds before it is
submitted for promotion -- equivalent to thresholding the *maximum* of n
CIT samples, the minimum-variance unbiased estimator of the access period
(Appendix B.1).  Candidates between rounds live in an XArray-like set with
O(1) lookup and a small bounded footprint (the paper measures < 32 KB per
process).

``n_rounds = 1`` reproduces Chrono-basic (no filtering); 2 is the default
(Chrono-twice / Chrono-full); 3 reproduces Chrono-thrice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.slots import SlotTable
from repro.vm.process import SimProcess

#: XArray slot cost per candidate entry (vpn key + CIT + round counter)
XARRAY_SLOT_BYTES: int = 16


@dataclass
class FilterResult:
    """Outcome of feeding one fault batch through the filter."""

    ready_vpns: np.ndarray  # passed all rounds: submit for promotion
    new_candidates: int  # entered the candidate set this batch
    rejected: int  # candidates evicted by an over-threshold CIT


class FleetFilterResult(NamedTuple):
    """Outcome of feeding many processes' measurements through the
    filter at once."""

    #: input rows that passed all rounds, ascending (segment order)
    ready_rows: np.ndarray
    new_candidates: int
    rejected: int


class CandidateFilter:
    """n-round CIT candidate tracking for every process.

    The round counters and running max CITs of all processes live in one
    fleet-indexed :class:`~repro.core.slots.SlotTable`, so a fault batch
    spanning many processes is filtered with one vector program.
    """

    def __init__(
        self, n_rounds: int = 2, granularity_pages: int = 1
    ) -> None:
        """``granularity_pages > 1`` tracks huge-page groups: the slot ids
        passed to :meth:`observe` are then group indices, and the per-page
        ``candidate`` flags are not maintained (the group is the unit)."""
        if n_rounds < 1:
            raise ValueError("need at least one filtering round")
        if granularity_pages < 1:
            raise ValueError("granularity must cover at least one page")
        self.n_rounds = int(n_rounds)
        self.granularity_pages = int(granularity_pages)
        self._table = SlotTable(passes=np.int8, max_cit=np.int64)

    def _slots(self, process: SimProcess) -> int:
        return -(-process.n_pages // self.granularity_pages)

    def _tracks_pages(self) -> bool:
        return self.granularity_pages == 1

    def _arrays(self, process: SimProcess) -> Tuple[np.ndarray, np.ndarray]:
        return self._table.views(process.pid, self._slots(process))

    def observe(
        self,
        process: SimProcess,
        vpns: np.ndarray,
        cit_ns: np.ndarray,
        threshold_ns: int,
    ) -> FilterResult:
        """Feed one round of CIT measurements for ``vpns``.

        Pages whose CIT is below the threshold advance one round (entering
        the candidate set on their first pass); pages at or above it are
        dropped from the set.  Pages completing ``n_rounds`` are returned
        as promotion-ready and removed from the set.  The one-process
        case of :meth:`observe_fleet`.
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        cit_ns = np.asarray(cit_ns, dtype=np.int64)
        if vpns.shape != cit_ns.shape:
            raise ValueError("vpns and CITs must be parallel")
        result = self.observe_fleet(
            [process],
            np.array([0, vpns.size], dtype=np.int64),
            vpns,
            cit_ns,
            threshold_ns,
        )
        return FilterResult(
            ready_vpns=vpns[result.ready_rows],
            new_candidates=result.new_candidates,
            rejected=result.rejected,
        )

    def observe_fleet(
        self,
        processes: Sequence[SimProcess],
        bounds: np.ndarray,
        slots: np.ndarray,
        cit_ns: np.ndarray,
        threshold_ns: int,
    ) -> FleetFilterResult:
        """Feed one round of measurements for several processes.

        Process ``processes[j]`` owns rows ``bounds[j]:bounds[j + 1]`` of
        ``slots`` / ``cit_ns``.  The state updates are the per-process
        sequence of :meth:`observe`, executed once over global slot ids;
        processes own disjoint slot ranges, so every row updates exactly
        the state a per-process call would.  Per-page ``candidate``
        flags are written back per process.
        """
        if threshold_ns <= 0:
            raise ValueError("CIT threshold must be positive")
        ids = self._table.ids(
            [p.pid for p in processes],
            [self._slots(p) for p in processes],
            bounds,
            slots,
        )
        passes = self._table.arrays["passes"]
        max_cit = self._table.arrays["max_cit"]

        below = cit_ns < threshold_ns
        passing = ids[below]
        failing = ids[~below]

        new_candidates = int(np.count_nonzero(passes[passing] == 0))
        rejected = int(np.count_nonzero(passes[failing] > 0))

        # Failed measurement evicts the page from the candidate set.
        passes[failing] = 0
        max_cit[failing] = 0
        passes[passing] += 1
        np.maximum.at(max_cit, passing, cit_ns[below])
        if self._tracks_pages():
            passing_cit = max_cit[passing]

        done = passes[passing] >= self.n_rounds
        done_ids = passing[done]
        passes[done_ids] = 0
        max_cit[done_ids] = 0

        if self._tracks_pages():
            # Final flag of every observed page: in the set iff it holds
            # a round count (done and failed pages were just cleared).
            flags = passes[ids] > 0
            passing_before = np.zeros(below.size + 1, dtype=np.int64)
            np.cumsum(below, out=passing_before[1:])
            cuts = bounds.tolist()
            passing_cuts = passing_before[bounds].tolist()
            passing_slots = slots[below]
            for j, process in enumerate(processes):
                pages = process.pages
                lo, hi = cuts[j], cuts[j + 1]
                pages.candidate[slots[lo:hi]] = flags[lo:hi]
                lo, hi = passing_cuts[j], passing_cuts[j + 1]
                if hi > lo:
                    pages.candidate_cit_ns[passing_slots[lo:hi]] = (
                        passing_cit[lo:hi]
                    )

        return FleetFilterResult(
            ready_rows=np.flatnonzero(below)[done],
            new_candidates=new_candidates,
            rejected=rejected,
        )

    def drop(self, process: SimProcess, vpns: np.ndarray) -> None:
        """Forcibly evict pages from the candidate set (e.g. after they
        migrated or were demoted)."""
        passes, max_cit = self._arrays(process)
        vpns = np.asarray(vpns, dtype=np.int64)
        passes[vpns] = 0
        max_cit[vpns] = 0
        if self._tracks_pages():
            process.pages.candidate[vpns] = False

    def candidate_count(self, process: SimProcess) -> int:
        """Current candidate-set size for a process."""
        passes, _ = self._arrays(process)
        return int(np.count_nonzero(passes))

    def footprint_bytes(self, process: SimProcess) -> int:
        """XArray memory consumed by this process's candidate set."""
        return self.candidate_count(process) * XARRAY_SLOT_BYTES
