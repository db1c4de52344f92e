"""Active/inactive LRU list bookkeeping.

The kernel keeps per-node active and inactive lists; demotion candidates are
taken from the cold end of the fast tier's inactive list.  In the simulator
the list membership and ordering live in the per-process page arrays
(``lru_active``, ``lru_gen``), and an *aging pass* plays the role of the
kernel's periodic reference-bit harvesting:

* a page referenced since the last pass gets a fresh generation stamp and
  moves toward the active list,
* a page that misses two consecutive passes drops to the inactive list
  (second-chance behaviour).

References are determined from the batched access model: with ``lam``
expected accesses to a page over the window, the page was touched with
probability ``1 - exp(-lam)``; hint faults always count as touches.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.vm.page_state import FleetPages
from repro.vm.process import SimProcess


class LruLists:
    """Machine-wide LRU aging and cold-page selection."""

    #: consecutive aging misses after which an active page is deactivated
    DEACTIVATE_AFTER: int = 2

    def __init__(
        self, rng: np.random.Generator, fine_grained: bool = False
    ) -> None:
        """``fine_grained=False`` (default) stamps every page touched in a
        window with the same generation -- the honest model of
        reference-bit LRU, which cannot rank recency inside an aging
        window.  ``fine_grained=True`` stamps an estimated last-access
        time instead (an idealized MGLRU-like recency oracle); it exists
        for the demotion-precision ablation, not for the baselines."""
        self._rng = rng
        self.fine_grained = bool(fine_grained)
        self._miss_counts: dict = {}
        #: miss counters indexed by global page id of ``_miss_fleet_of``
        #: (a :class:`~repro.vm.page_state.FleetPages`); the per-pid
        #: arrays of the processes aged through it are views of it
        self._miss_fleet: Optional[np.ndarray] = None
        self._miss_fleet_of: Optional[FleetPages] = None
        self._last_age_ns: dict = {}
        # Preallocated per-process scratch: (uniform draws, touch
        # probabilities).  Aging runs every period for every process, so
        # reusing these avoids two O(pages) allocations per pass.
        self._scratch: dict = {}

    def _misses(self, process: SimProcess) -> np.ndarray:
        if process.pid not in self._miss_counts:
            self._miss_counts[process.pid] = np.zeros(
                process.n_pages, dtype=np.int32
            )
        return self._miss_counts[process.pid]

    def age_process(self, process: SimProcess, now_ns: int) -> np.ndarray:
        """Run one aging pass over a process; return the touched mask.

        Consumes the window access accumulator and the PTE accessed bits
        (both are cleared), stamps generations, and updates active/inactive
        membership with second-chance hysteresis.

        In the default coarse mode every touched page gets the same
        generation stamp: reference bits carry one bit of information per
        window, so pages referenced in the same window are
        indistinguishable -- the measurement ceiling the paper's Section
        2.3 attributes to hardware-bit methods.

        The expensive part of the pass (uniform draws, ``-expm1(-lam)``)
        runs sparsely over the *candidate set*: pages with nonzero window
        counts, a set accessed bit, or active-list membership.  A page
        outside that set has touch probability exactly zero and is already
        inactive, so it cannot change state -- skipping it is behaviour
        preserving, except that its (unobservable) miss counter stops
        advancing: a cold page later activated by a migration needs
        ``DEACTIVATE_AFTER`` observed misses before deactivating instead
        of inheriting misses accumulated while it was off-list.  When the
        candidate set covers every page (stationary workloads with
        full-support distributions) the pass is the dense original,
        including its RNG stream.
        """
        pages = process.pages
        window = max(now_ns - self._last_age_ns.get(process.pid, 0), 1)
        self._last_age_ns[process.pid] = now_ns
        lam = pages.last_window_count
        n_pages = pages.n_pages
        candidates = lam > 0.0
        candidates |= pages.accessed
        candidates |= pages.lru_active
        idx = np.flatnonzero(candidates)
        misses = self._misses(process)

        if idx.size == n_pages:
            # Dense pass, bitwise identical to the historical full scan.
            scratch = self._scratch.get(process.pid)
            if scratch is None:
                scratch = (
                    np.empty(n_pages, dtype=np.float64),
                    np.empty(n_pages, dtype=np.float64),
                )
                self._scratch[process.pid] = scratch
            draws, prob = scratch
            # ``1 - exp(-lam)`` computed in place; the RNG stream is
            # identical to a fresh ``random(n)`` call (same generator,
            # same draw count).
            self._rng.random(out=draws)
            np.negative(lam, out=prob)
            np.expm1(prob, out=prob)
            np.negative(prob, out=prob)
            touched = draws < prob
            touched |= pages.accessed

            misses[touched] = 0
            misses[~touched] += 1

            if self.fine_grained:
                rates = np.maximum(lam[touched], 1.0) / window
                back_gaps = self._rng.exponential(1.0 / rates)
                back_gaps = np.minimum(back_gaps, window - 1).astype(
                    np.int64
                )
                pages.lru_gen[touched] = now_ns - back_gaps
            else:
                pages.lru_gen[touched] = now_ns
            pages.lru_active[touched] = True
            pages.lru_active[misses >= self.DEACTIVATE_AFTER] = False

            pages.accessed[:] = False
            pages.clear_window_counts()
            return touched

        # Sparse pass over the candidate subset.
        lam_sub = lam[idx]
        prob_sub = -np.expm1(-lam_sub)
        touched_sub = self._rng.random(idx.size) < prob_sub
        touched_sub |= pages.accessed[idx]
        touched_idx = idx[touched_sub]
        missed_idx = idx[~touched_sub]

        misses[touched_idx] = 0
        misses[missed_idx] += 1

        if self.fine_grained:
            rates = np.maximum(lam_sub[touched_sub], 1.0) / window
            back_gaps = self._rng.exponential(1.0 / rates)
            back_gaps = np.minimum(back_gaps, window - 1).astype(np.int64)
            pages.lru_gen[touched_idx] = now_ns - back_gaps
        else:
            pages.lru_gen[touched_idx] = now_ns
        pages.lru_active[touched_idx] = True
        deactivate = missed_idx[
            misses[missed_idx] >= self.DEACTIVATE_AFTER
        ]
        pages.lru_active[deactivate] = False

        # Accessed bits and nonzero window counts live inside the
        # candidate set by construction, so sparse resets are complete.
        pages.accessed[idx] = False
        pages.clear_window_counts(idx)
        touched = np.zeros(n_pages, dtype=bool)
        touched[touched_idx] = True
        return touched

    def age_fleet(
        self, processes: Sequence[SimProcess], now_ns: int
    ) -> List[np.ndarray]:
        """One aging pass over several processes in the given order.

        Per process this is bit-identical to calling :meth:`age_process`
        in sequence: the dense path draws exactly ``n_pages`` uniforms
        only when *every* page is a candidate, so the concatenated
        candidate layout reproduces each process's draw count, and one
        ``random(total)`` call split in visiting order yields the same
        values the sequential calls would (the generator's stream does
        not depend on the call granularity).  Candidate computation
        consumes no RNG, so hoisting it before the single draw is
        stream-preserving.

        The pass runs over the fleet's page store
        (:class:`~repro.vm.page_state.FleetPages`; processes not yet in
        one are adopted into a new one): candidates are global page ids
        in visiting order, and the miss counters, list membership,
        generations and accessed bits are written with one fancy index
        each.  Per process only the window-count ledger is read and
        reset.  The returned per-process touched masks are views of one
        fleet mask.

        ``fine_grained`` mode interleaves exponential draws with the
        uniforms per process and falls back to the sequential loop.
        """
        processes = list(processes)
        if self.fine_grained or len(processes) <= 1:
            return [self.age_process(p, now_ns) for p in processes]

        members = [process.pages for process in processes]
        fleet = FleetPages.common(members) or FleetPages(members)
        misses = self._fleet_misses(fleet, processes)
        lams = []
        for process in processes:
            self._last_age_ns[process.pid] = now_ns
            lams.append(process.pages.last_window_count)
        lam = np.concatenate(lams)
        # Global page id of every visited page, in visiting order.
        sizes = [m.n_pages for m in members]
        starts = np.zeros(len(members), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        bases = np.array([m.fleet_base for m in members], dtype=np.int64)
        page_ids = np.arange(lam.size, dtype=np.int64)
        page_ids += np.repeat(bases - starts, sizes)

        accessed = fleet.accessed[page_ids]
        active = fleet.lru_active[page_ids]
        cand = lam > 0.0
        cand |= accessed
        cand |= active
        n_cand = int(np.count_nonzero(cand))
        if n_cand == lam.size:
            cand_idx = slice(None)  # every page: skip the gathers
        else:
            cand_idx = cand.nonzero()[0]
        ids = page_ids[cand_idx]

        # One draw for the whole fleet; per-process slices match the
        # sequential streams (dense processes are all-candidates, so
        # their slice length is n_pages exactly as the dense path draws).
        # The large temporaries are computed in place and dropped once
        # dead: this pass's transients set the run's peak memory.
        prob = np.negative(lam[cand_idx])
        del lam
        np.expm1(prob, out=prob)
        np.negative(prob, out=prob)
        touched = self._rng.random(n_cand) < prob
        del prob
        touched |= accessed[cand_idx]

        new_misses = misses[ids]
        new_misses += 1
        new_misses[touched] = 0
        misses[ids] = new_misses
        # Touched pages join the active list; missed pages past the
        # hysteresis leave it (the two sets are disjoint).
        new_active = active[cand_idx]
        new_active |= touched
        new_active &= new_misses < self.DEACTIVATE_AFTER
        fleet.lru_active[ids] = new_active
        hit_ids = ids[touched]
        fleet.lru_gen[hit_ids] = now_ns
        # Accessed bits and nonzero window counts live inside the
        # candidate set by construction, so resetting them everywhere is
        # the sparse reset.
        fleet.accessed[ids] = False
        touched_mask = np.zeros(fleet.accessed.size, dtype=bool)
        touched_mask[hit_ids] = True
        results: List[np.ndarray] = []
        for member in members:
            member.clear_window_counts()
            base = member.fleet_base
            results.append(touched_mask[base:base + member.n_pages])
        return results

    def _fleet_misses(
        self, fleet: FleetPages, processes: Sequence[SimProcess]
    ) -> np.ndarray:
        """Miss counters indexed by ``fleet``'s global page ids.

        Each process's counters move into the fleet array the first time
        it is aged through ``fleet``, and its per-pid array becomes a view
        of its slice.
        """
        if self._miss_fleet_of is not fleet:
            self._miss_fleet_of = fleet
            self._miss_fleet = np.zeros(fleet.accessed.size, dtype=np.int32)
        array = self._miss_fleet
        for process in processes:
            current = self._miss_counts.get(process.pid)
            if current is not None and current.base is array:
                continue
            base = process.pages.fleet_base
            view = array[base:base + process.n_pages]
            if current is not None:
                view[:] = current
            self._miss_counts[process.pid] = view
        return array

    def coldest_pages(
        self,
        processes: Sequence[SimProcess],
        tier_id: int,
        n_pages: int,
        inactive_only: bool = True,
    ) -> List[Tuple[SimProcess, np.ndarray]]:
        """Select up to ``n_pages`` coldest pages resident in ``tier_id``.

        Pages are ranked by ascending generation (oldest reference first),
        restricted to the inactive list unless ``inactive_only`` is False --
        matching how kswapd scans the inactive list before touching active
        pages.  Returns per-process vpn arrays.
        """
        if n_pages <= 0:
            return []
        # One fleet-wide candidate pass over the concatenated per-process
        # arrays instead of a Python loop of tiny numpy calls: the
        # concatenated order (process index ascending, vpn ascending
        # within a process) is exactly the order the sequential reference
        # built, so every downstream step -- the tie-break shuffle, the
        # partial sort, the per-owner split -- sees identical inputs and
        # the selection is bit-identical.
        tier = np.concatenate([p.pages.tier for p in processes])
        if tier.size == 0:
            return []
        mask = tier == tier_id
        if inactive_only:
            active = np.concatenate(
                [p.pages.lru_active for p in processes]
            )
            mask &= ~active
        gens = np.concatenate([p.pages.lru_gen for p in processes])
        starts = self._fleet_starts(processes)
        return self._select_coldest(
            processes, mask, gens, starts, n_pages
        )

    def coldest_pages_two_phase(
        self,
        processes: Sequence[SimProcess],
        tier_id: int,
        n_pages: int,
    ) -> Tuple[
        List[Tuple[SimProcess, np.ndarray]],
        List[Tuple[SimProcess, np.ndarray]],
    ]:
        """Inactive-first victim selection with an active-list fallback.

        Equivalent -- including RNG stream consumption -- to
        ``coldest_pages(..., inactive_only=True)`` followed, on a
        shortfall, by ``coldest_pages(..., inactive_only=False)`` for
        the remainder, but the concatenated fleet arrays are built once
        and shared by both phases.  Returns ``(inactive, fallback)``
        per-process victim lists; ``fallback`` is empty when the
        inactive list satisfied the request.
        """
        if n_pages <= 0:
            return [], []
        tier = np.concatenate([p.pages.tier for p in processes])
        if tier.size == 0:
            return [], []
        tier_mask = tier == tier_id
        active = np.concatenate(
            [p.pages.lru_active for p in processes]
        )
        gens = np.concatenate([p.pages.lru_gen for p in processes])
        starts = self._fleet_starts(processes)
        first = self._select_coldest(
            processes, tier_mask & ~active, gens, starts, n_pages
        )
        selected = sum(v.size for _, v in first)
        if selected >= n_pages:
            return first, []
        second = self._select_coldest(
            processes, tier_mask, gens, starts, n_pages - selected
        )
        return first, second

    @staticmethod
    def _fleet_starts(processes: Sequence[SimProcess]) -> np.ndarray:
        starts = np.zeros(len(processes) + 1, dtype=np.int64)
        np.cumsum(
            np.array(
                [p.pages.n_pages for p in processes], dtype=np.int64
            ),
            out=starts[1:],
        )
        return starts

    def _select_coldest(
        self,
        processes: Sequence[SimProcess],
        mask: np.ndarray,
        gens: np.ndarray,
        starts: np.ndarray,
        n_pages: int,
    ) -> List[Tuple[SimProcess, np.ndarray]]:
        """Rank the masked candidates by generation and split per owner
        (the shared tail of :meth:`coldest_pages`)."""
        global_idx = np.flatnonzero(mask)
        if global_idx.size == 0:
            return []
        all_owner = (
            np.searchsorted(starts, global_idx, side="right") - 1
        )
        all_vpns = global_idx - starts[all_owner]
        all_gens = gens[global_idx]

        # Shuffle before the partial sort: pages sharing a generation
        # (referenced in the same aging window) are indistinguishable, so
        # ties must break randomly, not by address order.
        shuffle = self._rng.permutation(all_gens.size)
        all_gens = all_gens[shuffle]
        all_owner = all_owner[shuffle]
        all_vpns = all_vpns[shuffle]

        take = min(n_pages, all_gens.size)
        order = np.argpartition(all_gens, take - 1)[:take]

        # Split the selection back per owner: pack (owner, vpn) into one
        # sortable key (the ``_merge_victims`` idiom) so owners come out
        # ascending with sorted vpns, matching the sequential
        # unique-owner/boolean-mask loop exactly.
        sel_owner = all_owner[order]
        sel_vpns = all_vpns[order]
        span = int(sel_vpns.max()) + 1 if sel_vpns.size else 1
        packed = np.sort(sel_owner * span + sel_vpns)
        packed_owner = packed // span
        packed_vpns = packed - packed_owner * span
        owners = np.unique(packed_owner)
        bounds = np.searchsorted(packed_owner, owners, side="right")
        selected: List[Tuple[SimProcess, np.ndarray]] = []
        lo = 0
        for owner, hi in zip(owners, bounds):
            selected.append(
                (processes[int(owner)], packed_vpns[lo:hi])
            )
            lo = int(hi)
        return selected

    def inactive_count(
        self, processes: Iterable[SimProcess], tier_id: int
    ) -> int:
        """Number of inactive pages resident in ``tier_id``."""
        total = 0
        for process in processes:
            pages = process.pages
            total += int(
                np.count_nonzero((pages.tier == tier_id) & ~pages.lru_active)
            )
        return total
