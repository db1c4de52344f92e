"""Per-process page metadata as a structure of arrays.

This is the simulator's ``struct page`` + PTE state.  One instance describes
every resident page of a process.  All fields are numpy arrays indexed by
virtual page number (vpn), which lets the kernel subsystems and policies
operate on whole address ranges with vectorised expressions -- the same way
the real kernel batches PTE updates within a scan window.

Fields and their kernel analogues:

=================  ====================================================
``tier``           node id in ``struct page`` (0 = fast, 1 = slow)
``prot_none``      PTE has ``PROT_NONE`` set by a NUMA/Ticking scan
``scan_ts_ns``     Chrono's 4-byte CIT metadata: time of last unmap
``accessed``       PTE accessed bit (hardware-set, software-cleared)
``dirty``          PTE dirty bit
``probed``         Chrono's ``PG_probed`` flag (DCSC victim pages)
``demoted``        Chrono's ``demoted`` flag (thrashing monitor)
``candidate``      page sits in the XArray candidate set
``candidate_cit``  first-round CIT recorded for a candidate
``lru_active``     page is on the active (vs inactive) LRU list
``lru_gen``        generation of last observed access (LRU ordering)
=================  ====================================================

Ground-truth access accounting is *deferred*: the engine records one
``(probs, n_accesses)`` ledger entry per quantum (O(1); consecutive quanta
sharing the same distribution array merge into a single entry), and the
O(pages) materialisation into ``access_count`` / ``last_window_count``
only happens when a consumer actually reads the counters.  Both counters
are properties that flush the pending ledger on access, so every consumer
-- LRU aging, trace recording, figure code, tests -- sees exact values
without knowing about the deferral.

``move_to_tier`` additionally journals each placement change (moved vpns
plus their previous tiers) so the engine can maintain its per-tier
probability masses incrementally -- O(moved) per migration instead of a
full O(pages) recount.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.kernels import ledger_fold

NO_TIMESTAMP: int = -1


def _sorted_unique(vpns: np.ndarray) -> np.ndarray:
    """``vpns`` sorted and duplicate-free.

    The protection and migration paths almost always receive already
    sorted, duplicate-free arrays (``flatnonzero`` output, scan windows),
    so a strict-monotonicity check avoids ``np.unique``'s sort on the
    hot path.
    """
    if vpns.size < 2:
        return vpns
    if bool((vpns[1:] > vpns[:-1]).all()):
        return vpns
    return np.unique(vpns)


class PageState:
    """Structure-of-arrays page metadata for one process."""

    #: moved pages retained in the placement journal before the oldest
    #: entries are dropped (consumers then fall back to a full recount)
    MOVE_LOG_CAP_PAGES: int = 65_536
    #: journal entries retained regardless of size (empty moves -- epoch
    #: bumps without pages -- must not grow the journal unboundedly)
    MOVE_LOG_CAP_ENTRIES: int = 4_096
    #: protected-set size up to which ``_cache_protect`` sorts instead of
    #: merging (sorting wins below ~1-2k pages on the recording host)
    SMALL_MERGE: int = 1024

    def __init__(self, n_pages: int) -> None:
        # Zero pages is legal (an empty arena segment: the process exists
        # but generates no memory traffic); only negative sizes are
        # nonsense.
        if n_pages < 0:
            raise ValueError("page count cannot be negative")
        self.n_pages = int(n_pages)
        self.tier = np.full(n_pages, SLOW_TIER, dtype=np.int8)
        self.prot_none = np.zeros(n_pages, dtype=bool)
        self.scan_ts_ns = np.full(n_pages, NO_TIMESTAMP, dtype=np.int64)
        self.accessed = np.zeros(n_pages, dtype=bool)
        self.dirty = np.zeros(n_pages, dtype=bool)
        self.probed = np.zeros(n_pages, dtype=bool)
        self.demoted = np.zeros(n_pages, dtype=bool)
        self.demote_ts_ns = np.full(n_pages, NO_TIMESTAMP, dtype=np.int64)
        self.candidate = np.zeros(n_pages, dtype=bool)
        self.candidate_cit_ns = np.full(n_pages, NO_TIMESTAMP, dtype=np.int64)
        self.lru_active = np.zeros(n_pages, dtype=bool)
        self.lru_gen = np.zeros(n_pages, dtype=np.int64)
        # Exact ground-truth access accounting (the simulator's PMU),
        # materialised lazily from the pending ledger below.
        self._access_count = np.zeros(n_pages, dtype=np.float64)
        self._last_window_count = np.zeros(n_pages, dtype=np.float64)
        #: pending ``[probs, n_accesses]`` ledger runs awaiting
        #: materialisation; consecutive entries with the same (immutable)
        #: distribution array merge into one run
        self._pending: List[List[Any]] = []
        self._flush_buf: Optional[np.ndarray] = None
        #: optional external ledger feeder (the cross-process arena keeps
        #: one concatenated run list for the whole fleet): invoked at the
        #: top of every flush to drain this process's share of any arena
        #: runs into ``_pending`` first, so consumers stay exact without
        #: knowing the arena exists.  The second callable reports whether
        #: the source still holds undrained accesses for this process.
        self._ledger_source: Optional[Callable[[], None]] = None
        self._ledger_source_pending: Optional[Callable[[], bool]] = None
        #: optional :class:`repro.harness.profiling.Profiler`; when set,
        #: ledger flushes charge their wall time to the ``accounting``
        #: section (wired by ``Kernel.register_process``)
        self.profiler: Any = None
        #: placement generation: bumped on every ``move_to_tier`` so the
        #: engine can reuse per-quantum placement-derived caches (tier
        #: masses) across quanta without migrations
        self.epoch: int = 0
        #: number of currently PROT_NONE pages, maintained by the
        #: protect/unprotect paths so the engine's hot loop can skip the
        #: hint-fault machinery without an O(pages) scan
        self.n_protected: int = 0
        #: sorted vpns of currently protected pages.  Maintained
        #: copy-on-write (never mutated in place) so a snapshot returned
        #: by :meth:`protected_pages` stays valid across later updates.
        self._protected_vpns = np.empty(0, dtype=np.int64)
        #: placement journal: ``(epoch, vpns, old_tiers, new_tier)`` per
        #: ``move_to_tier`` call, oldest first
        self._move_log: Deque[Tuple[int, np.ndarray, np.ndarray, int]] = (
            deque()
        )
        self._move_log_pages = 0
        #: epoch of the journal's start state: entries cover the range
        #: ``(move_log_base, epoch]``
        self.move_log_base: int = 0
        #: the :class:`FleetPages` whose slices the per-page fields are
        #: (``None`` while the arrays are this instance's own), and this
        #: process's first global page id in it
        self.fleet: Optional["FleetPages"] = None
        self.fleet_base: int = 0

    # ------------------------------------------------------------------
    # Deferred ground-truth accounting
    # ------------------------------------------------------------------
    def defer_accesses(self, probs: np.ndarray, n_accesses: float) -> None:
        """Record ``n_accesses`` drawn from ``probs`` for later
        materialisation.

        O(1): the ledger stores the distribution by reference (the
        :mod:`repro.workloads.base` contract makes distribution arrays
        immutable), and consecutive quanta that reuse the same array
        object merge into a single ``[probs, n]`` run, preserving the
        chronological run structure for phase-changing workloads.
        """
        pending = self._pending
        if pending and pending[-1][0] is probs:
            pending[-1][1] += n_accesses
        else:
            pending.append([probs, float(n_accesses)])

    def set_ledger_source(
        self,
        drain: Optional[Callable[[], None]],
        has_pending: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Attach (or detach, with ``None``) an external ledger feeder.

        Used by the cross-process arena: its concatenated run list is
        drained into this process's ``_pending`` ledger lazily, the first
        time a consumer reads the counters.
        """
        self._ledger_source = drain
        self._ledger_source_pending = has_pending

    @property
    def has_pending_accesses(self) -> bool:
        """True when ledger entries await materialisation."""
        if self._pending:
            return True
        pending = self._ledger_source_pending
        return pending is not None and pending()

    def flush_accounting(self) -> None:
        """Materialise the pending ledger into both counters.

        Each run costs one O(pages) multiply plus two axpys -- the exact
        operation sequence the eager pre-deferral engine performed per
        quantum -- so a flush after ``k`` same-distribution quanta does
        the work once instead of ``k`` times.
        """
        source = self._ledger_source
        if source is not None:
            source()
        if not self._pending:
            return
        profiler = self.profiler
        if profiler is not None:
            profiler.push("accounting")
        try:
            buf = self._flush_buf
            if buf is None:
                buf = self._flush_buf = np.empty(
                    self.n_pages, dtype=np.float64
                )
            for probs, n_accesses in self._pending:
                ledger_fold(
                    probs,
                    n_accesses,
                    self._access_count,
                    self._last_window_count,
                    buf,
                )
            self._pending.clear()
        finally:
            if profiler is not None:
                profiler.pop()

    @property
    def access_count(self) -> np.ndarray:
        """Lifetime ground-truth access counts (flushes the ledger)."""
        if self._pending or self._ledger_source is not None:
            self.flush_accounting()
        return self._access_count

    @access_count.setter
    def access_count(self, value: np.ndarray) -> None:
        self._access_count = value

    @property
    def last_window_count(self) -> np.ndarray:
        """Per-window ground-truth access counts (flushes the ledger)."""
        if self._pending or self._ledger_source is not None:
            self.flush_accounting()
        return self._last_window_count

    @last_window_count.setter
    def last_window_count(self, value: np.ndarray) -> None:
        self._last_window_count = value

    def clear_window_counts(
        self, vpns: Optional[np.ndarray] = None
    ) -> None:
        """Roll the per-window ground-truth access counters.

        Pending accesses are flushed first -- they belong to the closing
        window (and to the lifetime counter).  ``vpns`` restricts the
        reset to a sparse index set; callers passing it guarantee the set
        covers every nonzero entry (the sparse-aging candidate set does
        by construction).
        """
        self.flush_accounting()
        if vpns is None:
            self._last_window_count[:] = 0.0
        else:
            self._last_window_count[vpns] = 0.0

    # ------------------------------------------------------------------
    # Residency queries
    # ------------------------------------------------------------------
    def pages_in_tier(self, tier_id: int) -> np.ndarray:
        """vpns of pages resident in ``tier_id``."""
        return np.flatnonzero(self.tier == tier_id)

    def count_in_tier(self, tier_id: int) -> int:
        """Number of pages resident in ``tier_id``."""
        return int(np.count_nonzero(self.tier == tier_id))

    def fast_page_fraction(self) -> float:
        """The paper's "DRAM page percentage" for this process."""
        if self.n_pages == 0:
            return 0.0
        return self.count_in_tier(FAST_TIER) / self.n_pages

    # ------------------------------------------------------------------
    # PTE protection (scan / fault paths)
    # ------------------------------------------------------------------
    def _cache_protect(self, fresh: np.ndarray) -> None:
        """Merge sorted, newly protected vpns into the sorted cache."""
        if fresh.size == 0:
            return
        current = self._protected_vpns
        if current.size == 0:
            self._protected_vpns = fresh
        elif current.size + fresh.size <= self.SMALL_MERGE:
            # Small sets: one concatenate + sort beats the merge's seven
            # dispatches (the sets are disjoint, so the result is equal).
            merged = np.concatenate((current, fresh))
            merged.sort()
            self._protected_vpns = merged
        else:
            # Hand-rolled sorted merge: ``np.insert`` carries generic
            # axis/object machinery that dominates at these sizes.
            positions = np.searchsorted(current, fresh)
            merged = np.empty(
                current.size + fresh.size, dtype=np.int64
            )
            at = positions + np.arange(fresh.size)
            mask = np.zeros(merged.size, dtype=bool)
            mask[at] = True
            merged[mask] = fresh
            merged[~mask] = current
            self._protected_vpns = merged

    def _cache_unprotect(self, gone: np.ndarray) -> None:
        """Drop sorted, previously protected vpns from the cache.

        Tolerates vpns missing from the cache: tests may flip
        ``prot_none`` directly, bypassing :meth:`protect`; such pages
        were never cached and are simply skipped here.
        """
        if gone.size == 0:
            return
        current = self._protected_vpns
        if current.size == 0:
            return
        positions = np.searchsorted(current, gone)
        cached = positions < current.size
        cached[cached] &= current[positions[cached]] == gone[cached]
        hit = positions[cached]
        if hit.size == 0:
            return
        keep = np.ones(current.size, dtype=bool)
        keep[hit] = False
        self._protected_vpns = current[keep]

    def protect(self, vpns: np.ndarray, now_ns: int) -> int:
        """Mark pages PROT_NONE and stamp the scan time; return count.

        Already-protected pages keep their original scan timestamp, the way
        the kernel skips PTEs that are already ``pte_protnone``.  Duplicate
        vpns count once.
        """
        vpns = np.asarray(vpns)
        fresh = _sorted_unique(vpns[~self.prot_none[vpns]]).astype(
            np.int64, copy=False
        )
        self.prot_none[fresh] = True
        self.scan_ts_ns[fresh] = now_ns
        self.n_protected += int(fresh.size)
        self._cache_protect(fresh)
        return int(fresh.size)

    def protect_at(self, vpns: np.ndarray, ts_ns: np.ndarray) -> None:
        """Mark pages PROT_NONE with per-page scan timestamps.

        Used by DCSC's second measurement round (re-protection happens at
        each page's own fault time) and by the thrashing monitor (the
        demotion time substitutes for the scan time).  Unlike
        :meth:`protect`, existing protection timestamps are overwritten.
        Duplicate vpns count once toward ``n_protected``; the last
        duplicate's timestamp wins, as with fancy assignment.
        """
        vpns = np.asarray(vpns)
        ts_ns = np.asarray(ts_ns, dtype=np.int64)
        if ts_ns.shape != vpns.shape:
            ts_ns = np.broadcast_to(ts_ns, vpns.shape)
        if vpns.size < 2 or bool((vpns[1:] > vpns[:-1]).all()):
            unique = vpns.astype(np.int64, copy=False)
            unique_ts = ts_ns
        else:
            unique, inverse = np.unique(vpns, return_inverse=True)
            unique = unique.astype(np.int64, copy=False)
            unique_ts = np.empty(unique.shape, dtype=np.int64)
            # later duplicates overwrite earlier, as fancy assignment does
            unique_ts[inverse] = ts_ns
        fresh_mask = ~self.prot_none[unique]
        self.n_protected += int(np.count_nonzero(fresh_mask))
        self.prot_none[unique] = True
        self.scan_ts_ns[unique] = unique_ts
        self._cache_protect(unique[fresh_mask])

    def unprotect(self, vpns: np.ndarray) -> None:
        """Clear PROT_NONE after a fault restored the mapping."""
        vpns = np.asarray(vpns)
        unique = _sorted_unique(vpns).astype(np.int64, copy=False)
        gone = unique[self.prot_none[unique]]
        self.n_protected -= int(gone.size)
        self.prot_none[unique] = False
        self._cache_unprotect(gone)

    def unprotect_resolved(
        self, vpns: np.ndarray, remainder: np.ndarray
    ) -> None:
        """Unprotect ``vpns`` when the caller already split the cache.

        Fast path for the engine's fault resolution: ``vpns`` and
        ``remainder`` must be the two complementary slices of one
        :meth:`protected_pages` snapshot (so ``vpns`` are sorted, unique,
        and all currently protected).  Skips the membership search the
        general :meth:`unprotect` performs and installs ``remainder`` as
        the new cache directly.
        """
        self.prot_none[vpns] = False
        self.n_protected -= int(vpns.size)
        self._protected_vpns = remainder

    def protected_pages(self) -> np.ndarray:
        """vpns of all currently protected pages, ascending.

        O(protected): served from the incrementally maintained sorted
        cache instead of an O(pages) ``flatnonzero``.  The returned array
        is a copy-on-write snapshot -- later protect/unprotect calls
        replace the cache rather than mutating it -- so callers may hold
        it across updates; they must not write into it.
        """
        return self._protected_vpns

    # ------------------------------------------------------------------
    # Residency updates (migration path)
    # ------------------------------------------------------------------
    def move_to_tier(self, vpns: np.ndarray, tier_id: int) -> None:
        """Retarget pages to a new tier (frame accounting is the kernel's
        job; this only updates the per-page node id).

        Bumps ``epoch`` exactly once per call and journals the move
        (deduplicated vpns plus their previous tiers) so placement-derived
        caches can apply an O(moved) delta instead of recomputing from
        the full tier array.
        """
        vpns = _sorted_unique(np.asarray(vpns, dtype=np.int64))
        old_tiers = self.tier[vpns]  # fancy indexing copies
        self.tier[vpns] = np.int8(tier_id)
        self.epoch += 1
        log = self._move_log
        log.append((self.epoch, vpns, old_tiers, int(tier_id)))
        self._move_log_pages += int(vpns.size)
        while log and (
            self._move_log_pages > self.MOVE_LOG_CAP_PAGES
            or len(log) > self.MOVE_LOG_CAP_ENTRIES
        ):
            dropped_epoch, dropped_vpns, _, _ = log.popleft()
            self._move_log_pages -= int(dropped_vpns.size)
            self.move_log_base = dropped_epoch

    def moves_since(
        self, epoch: int
    ) -> Optional[List[Tuple[int, np.ndarray, np.ndarray, int]]]:
        """Journal entries covering ``(epoch, self.epoch]``, oldest first.

        Returns ``None`` when the journal no longer reaches back to
        ``epoch`` (entries were dropped past the retention cap); callers
        must then fall back to a full recount.
        """
        if epoch < self.move_log_base:
            return None
        entries: List[Tuple[int, np.ndarray, np.ndarray, int]] = []
        for entry in reversed(self._move_log):
            if entry[0] <= epoch:
                break
            entries.append(entry)
        entries.reverse()
        return entries

    def __repr__(self) -> str:
        return (
            f"PageState(n_pages={self.n_pages}, "
            f"fast={self.count_in_tier(FAST_TIER)}, "
            f"protected={int(self.prot_none.sum())})"
        )


class FleetPages:
    """Fleet-indexed page state: one array per per-page field.

    Adopting a fleet concatenates every member's per-page arrays in
    order and rebinds each member's fields to views of its slice, so
    per-process code keeps reading and writing ``pages.<field>`` while
    fleet code reaches many processes' pages with one fancy index over
    global ids (``fleet_base + vpn``).  A member adopted again by a
    newer fleet moves its current values there.  The ground-truth
    access counters stay per process (their ledger flushes and setters
    are per process), as do the fields no fleet pass touches.
    """

    #: the per-page fields hot fleet passes read or write
    FIELDS = (
        "tier", "prot_none", "scan_ts_ns", "accessed", "probed", "demoted",
        "lru_active", "lru_gen",
    )

    def __init__(self, members: List[PageState]) -> None:
        #: member ``j`` owns global ids ``[bases[j], bases[j + 1])``
        self.bases = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([m.n_pages for m in members], out=self.bases[1:])
        bases = self.bases.tolist()
        # An empty fleet keeps the (empty) field arrays of a blank state.
        sources = list(members) or [PageState(0)]
        for name in self.FIELDS:
            array = np.concatenate([getattr(m, name) for m in sources])
            setattr(self, name, array)
            for j, member in enumerate(members):
                setattr(member, name, array[bases[j]:bases[j + 1]])
        for j, member in enumerate(members):
            member.fleet = self
            member.fleet_base = bases[j]

    @staticmethod
    def common(members: Sequence[PageState]) -> Optional["FleetPages"]:
        """The fleet every one of ``members`` belongs to, or ``None``."""
        fleet = members[0].fleet if members else None
        if fleet is None:
            return None
        for member in members:
            if member.fleet is not fleet:
                return None
        return fleet

    @staticmethod
    def ids(
        members: Sequence[PageState], counts: Sequence[int], vpns: np.ndarray
    ) -> np.ndarray:
        """Global ids of concatenated per-member ``vpns`` runs."""
        if len(members) == 1:
            return vpns + members[0].fleet_base
        return vpns + np.repeat(
            np.array([m.fleet_base for m in members], dtype=np.int64),
            counts,
        )

    def unprotect_resolved(
        self,
        members: Sequence[PageState],
        ids: np.ndarray,
        counts: Sequence[int],
        remainders: Sequence[np.ndarray],
    ) -> None:
        """:meth:`PageState.unprotect_resolved` plus the fault's
        accessed bits for several members: member ``j`` faulted
        ``counts[j]`` pages of ``ids`` and keeps ``remainders[j]``."""
        self.prot_none[ids] = False
        self.accessed[ids] = True
        for member, count, remainder in zip(members, counts, remainders):
            member.n_protected -= count
            member._protected_vpns = remainder

    def protect_sorted_at(
        self,
        members: Sequence[PageState],
        ids: np.ndarray,
        cuts: Sequence[int],
        vpns: np.ndarray,
        ts_ns: Any,
    ) -> None:
        """:meth:`PageState.protect_at` for several members: member
        ``j`` protects ``vpns[cuts[j]:cuts[j + 1]]`` (sorted, unique,
        non-empty) at ``ts_ns``.  The protected-set caches of the
        members with newly protected pages merge in one pass over
        ``(member, vpn)`` keys."""
        fresh = ~self.prot_none[ids]
        self.prot_none[ids] = True
        self.scan_ts_ns[ids] = ts_ns
        if len(members) == 1:
            members[0].n_protected += int(np.count_nonzero(fresh))
            members[0]._cache_protect(vpns[fresh])
            return
        counts = np.add.reduceat(fresh, cuts[:-1], dtype=np.int64)
        changed = counts.nonzero()[0].tolist()
        if not changed:
            return
        counts = counts.tolist()
        stride = max(members[j].n_pages for j in changed) + 1
        currents = [members[j]._protected_vpns for j in changed]
        sizes = [current.size for current in currents]
        adds = [counts[j] for j in changed]
        ranks = np.arange(len(changed), dtype=np.int64) * stride
        fresh_rank = np.zeros(len(members), dtype=np.int64)
        fresh_rank[changed] = ranks
        # Both key runs are sorted (member rank, then vpn): merge them
        # the way ``_cache_protect`` merges one member's sets.
        current = np.concatenate(currents) + np.repeat(ranks, sizes)
        added = vpns[fresh] + np.repeat(fresh_rank, np.diff(cuts))[fresh]
        slot = np.zeros(current.size + added.size, dtype=bool)
        slot[np.searchsorted(current, added) + np.arange(added.size)] = True
        keys = np.empty(slot.size, dtype=np.int64)
        keys[slot] = added
        keys[~slot] = current
        bounds = np.zeros(len(changed) + 1, dtype=np.int64)
        np.cumsum(np.add(sizes, adds), out=bounds[1:])
        bounds = bounds.tolist()
        for k, j in enumerate(changed):
            member = members[j]
            member.n_protected += adds[k]
            member._protected_vpns = (
                keys[bounds[k]:bounds[k + 1]] - k * stride
            )
