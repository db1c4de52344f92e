"""The page-fault path.

The simulator models *NUMA hint faults*: a scan marked a PTE ``PROT_NONE``;
the next access traps into the kernel, which records the fault, restores the
mapping, and hands the event to the active tiering policy.  Chrono's CIT is
computed right here -- fault timestamp minus the scan timestamp the
Ticking-scan stamped on the page.

A quantum's faults are resolved for every faulting process at once
(:func:`resolve_hint_faults`): the per-process timestamp draws stay on
each process's own stream, everything else runs as vector operations over
the concatenated touched pages, and the result is one
:class:`FleetFaultBatch` that the kernel accounts and hands to the policy
in one call each.  :func:`take_hint_faults` is its one-process case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.vm.page_state import FleetPages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vm.process import SimProcess

NUMA_HINT_FAULT: str = "numa_hint"


@dataclass
class FaultBatch:
    """A batch of NUMA hint faults taken by one process in one quantum.

    Attributes:
        pid: faulting process id.
        vpns: virtual page numbers that faulted (each page faults at most
            once per protection round, as in the kernel).
        fault_ts_ns: absolute time each fault fired.
        cit_ns: Captured Idle Time of each fault
            (``fault_ts - scan_ts``); ``-1`` where the page had no scan
            timestamp (should not happen for protected pages).
    """

    pid: int
    vpns: np.ndarray
    fault_ts_ns: np.ndarray
    cit_ns: np.ndarray
    kind: str = NUMA_HINT_FAULT

    def __post_init__(self) -> None:
        if not (len(self.vpns) == len(self.fault_ts_ns) == len(self.cit_ns)):
            raise ValueError("fault batch arrays must be parallel")

    @property
    def n_faults(self) -> int:
        return int(len(self.vpns))

    def event_fields(self) -> dict:
        """The batch as a ``fault.batch`` trace-event payload.

        Keys match the ``fault.batch`` entry of
        :data:`repro.obs.events.EVENT_SCHEMA`; arrays stay numpy and are
        JSON-ified by the tracer at flush time.
        """
        return {
            "pid": self.pid,
            "n_faults": self.n_faults,
            "vpns": self.vpns,
            "fault_ts_ns": self.fault_ts_ns,
            "cit_ns": self.cit_ns,
        }

    @classmethod
    def empty(cls, pid: int) -> "FaultBatch":
        return cls(
            pid=pid,
            vpns=np.empty(0, dtype=np.int64),
            fault_ts_ns=np.empty(0, dtype=np.int64),
            cit_ns=np.empty(0, dtype=np.int64),
        )


class FleetFaultBatch:
    """One quantum's hint faults for several processes, concatenated.

    Segment ``j`` is ``processes[j]``; its faults are rows
    ``bounds[j]:bounds[j + 1]`` of ``vpns`` / ``fault_ts_ns`` /
    ``cit_ns``.  Segments are non-empty and in ascending process-table
    order (the order a per-process loop would deliver them in).

    The page-state writes of a fault -- clearing ``prot_none`` and
    setting the accessed bit -- stay *pending* until
    :meth:`write_pages` applies them, so a policy hook decides when each
    segment's writes land relative to its own processing (see
    :meth:`repro.policies.base.TieringPolicy.on_fault_fleet`).  Each
    segment's writes apply exactly once.

    When every faulting process's pages are slices of one
    :class:`~repro.vm.page_state.FleetPages` (the arena's fleet), the
    batch carries that ``fleet`` and each row's global page id
    (``ids``): gathers and the whole-batch page writes are then single
    fancy indexes instead of one per segment.
    """

    __slots__ = (
        "processes", "bounds", "cuts", "vpns", "fault_ts_ns", "cit_ns",
        "fleet", "ids", "_remainders", "_pending", "_batches",
    )

    def __init__(
        self,
        processes: Sequence["SimProcess"],
        bounds: Sequence[int],
        vpns: np.ndarray,
        fault_ts_ns: np.ndarray,
        cit_ns: Optional[np.ndarray],
        remainders: Optional[List[Optional[np.ndarray]]] = None,
        pending: bool = True,
        fleet: Optional[FleetPages] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        self.processes = list(processes)
        self.fleet = fleet
        self.ids = ids
        #: segment boundaries as a Python list (cheap scalar slicing)
        self.cuts: List[int] = (
            bounds.tolist() if isinstance(bounds, np.ndarray)
            else list(bounds)
        )
        self.bounds = np.array(self.cuts, dtype=np.int64)
        self.vpns = vpns
        self.fault_ts_ns = fault_ts_ns
        self.cit_ns = cit_ns
        self._remainders = remainders
        #: per-segment "page writes not applied yet" flags
        self._pending = [pending] * len(self.processes)
        self._batches: List[Optional[FaultBatch]] = [None] * len(
            self.processes
        )

    @classmethod
    def of(cls, process: "SimProcess", batch: FaultBatch) -> "FleetFaultBatch":
        """Wrap one process's resolved batch (page writes already done)."""
        fleet = cls(
            [process],
            (0, batch.n_faults),
            np.asarray(batch.vpns, dtype=np.int64),
            np.asarray(batch.fault_ts_ns, dtype=np.int64),
            np.asarray(batch.cit_ns, dtype=np.int64),
            pending=False,
        )
        fleet._batches[0] = batch
        return fleet

    @property
    def n_segments(self) -> int:
        return len(self.processes)

    @property
    def n_faults(self) -> int:
        return self.cuts[-1]

    def counts(self) -> np.ndarray:
        """Faults per segment."""
        bounds = self.bounds
        return bounds[1:] - bounds[:-1]

    def segment(self, j: int) -> FaultBatch:
        """Segment ``j`` as a per-process :class:`FaultBatch` (views)."""
        batch = self._batches[j]
        if batch is None:
            lo, hi = self.cuts[j], self.cuts[j + 1]
            batch = self._batches[j] = FaultBatch(
                pid=self.processes[j].pid,
                vpns=self.vpns[lo:hi],
                fault_ts_ns=self.fault_ts_ns[lo:hi],
                cit_ns=self.cit_ns[lo:hi],
            )
        return batch

    def runs(self, rows: np.ndarray) -> List[Tuple[int, int, int]]:
        """Split ascending row indices by owning segment.

        Returns ``(j, lo, hi)`` for every segment ``j`` owning
        ``rows[lo:hi]``, in segment order; segments without selected
        rows are skipped.
        """
        if len(self.processes) == 1:
            return [(0, 0, int(rows.size))] if rows.size else []
        cuts = np.searchsorted(rows, self.bounds).tolist()
        return [
            (j, cuts[j], cuts[j + 1])
            for j in range(len(cuts) - 1)
            if cuts[j + 1] > cuts[j]
        ]

    def subset(self, rows: np.ndarray) -> "FleetFaultBatch":
        """Fault rows ``rows`` (ascending) as a batch of their own.

        Processes without selected rows drop out.  Pending page writes
        are not carried over: apply them on this batch first.
        """
        runs = self.runs(rows)
        return FleetFaultBatch(
            [self.processes[j] for j, _, _ in runs],
            [0] + [hi for _, _, hi in runs],
            self.vpns[rows],
            self.fault_ts_ns[rows],
            self.cit_ns[rows],
            pending=False,
            fleet=self.fleet,
            ids=None if self.ids is None else self.ids[rows],
        )

    def gather(self, name: str, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """``pages.<name>[vpn]`` for every fault row (or just ``rows``).

        Per-page state lives in each process's own
        :class:`~repro.vm.page_state.PageState`, so this costs one
        fancy-index per visited segment, or one over the fleet's arrays.
        """
        if self.ids is not None and name in FleetPages.FIELDS:
            array = getattr(self.fleet, name)
            return array[self.ids if rows is None else self.ids[rows]]
        procs = self.processes
        if rows is None:
            vpns = self.vpns
            if len(procs) == 1:
                return getattr(procs[0].pages, name)[vpns]
            cuts = self.cuts
            parts = [
                getattr(procs[j].pages, name)[vpns[cuts[j]:cuts[j + 1]]]
                for j in range(len(procs))
            ]
        else:
            vpns = self.vpns[rows]
            parts = [
                getattr(procs[j].pages, name)[vpns[lo:hi]]
                for j, lo, hi in self.runs(rows)
            ]
            if not parts:
                return getattr(procs[0].pages, name)[vpns]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def write_pages(self, j: Optional[int] = None) -> None:
        """Apply the pending fault writes of segment ``j`` (default: all).

        Clears ``prot_none`` on the faulted pages (through the cached
        protected-set split when the resolver was handed one) and sets
        their accessed bits -- the faulting access is an access.
        """
        pending = self._pending
        cuts = self.cuts
        remainders = self._remainders
        if (
            j is None
            and self.ids is not None
            and remainders is not None
            and all(pending)
            and all(r is not None for r in remainders)
        ):
            self.fleet.unprotect_resolved(
                [process.pages for process in self.processes],
                self.ids,
                [cuts[k + 1] - cuts[k] for k in range(len(pending))],
                remainders,
            )
            self._pending = [False] * len(pending)
            return
        segments = range(len(self.processes)) if j is None else (j,)
        for k in segments:
            if not pending[k]:
                continue
            pending[k] = False
            pages = self.processes[k].pages
            vpns = self.vpns[cuts[k]:cuts[k + 1]]
            remainder = (
                self._remainders[k] if self._remainders is not None
                else None
            )
            if remainder is not None:
                pages.unprotect_resolved(vpns, remainder)
            else:
                pages.unprotect(vpns)
            pages.accessed[vpns] = True

    def deliver_each(
        self, on_fault: Callable[["SimProcess", FaultBatch], None]
    ) -> None:
        """The per-process delivery loop: for each segment in order,
        apply its pending page writes, then call
        ``on_fault(process, batch)``."""
        for j, process in enumerate(self.processes):
            self.write_pages(j)
            on_fault(process, self.segment(j))


def resolve_hint_faults(
    processes: Sequence["SimProcess"],
    touched: Sequence[np.ndarray],
    quantum_start_ns: int,
    quantum_len_ns: int,
    rates_per_ns: Optional[np.ndarray] = None,
    remainders: Optional[List[Optional[np.ndarray]]] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> FleetFaultBatch:
    """Resolve one quantum's hint faults for every faulting process.

    ``touched[j]`` holds the protected pages process ``j`` touched this
    quantum (non-empty; processes in ascending process-table order).
    The per-process arrays are concatenated and handed to
    :func:`resolve_fleet_faults`.
    """
    cuts = list(accumulate((t.size for t in touched), initial=0))
    if len(touched) == 1:
        vpns = np.asarray(touched[0]).astype(np.int64, copy=False)
    else:
        vpns = np.concatenate(touched).astype(np.int64, copy=False)
    return resolve_fleet_faults(
        processes,
        cuts,
        vpns,
        quantum_start_ns,
        quantum_len_ns,
        rates_per_ns=rates_per_ns,
        remainders=remainders,
        rngs=rngs,
    )


def resolve_fleet_faults(
    processes: Sequence["SimProcess"],
    cuts: List[int],
    vpns: np.ndarray,
    quantum_start_ns: int,
    quantum_len_ns: int,
    rates_per_ns: Optional[np.ndarray] = None,
    remainders: Optional[List[Optional[np.ndarray]]] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> FleetFaultBatch:
    """Resolve one quantum's hint faults from concatenated touched pages.

    Process ``processes[j]`` touched the protected pages
    ``vpns[cuts[j]:cuts[j + 1]]`` (int64, each run non-empty).
    Each touched protected page faults exactly once -- on its *first*
    access of the quantum.  When ``rates_per_ns`` (the concatenated
    expected accesses per nanosecond of every touched page) is provided,
    the fault offset is drawn from the page's own arrival process: an
    exponential truncated to the quantum.  This keeps CIT resolution
    *below* the engine quantum -- a page accessed every 2 ms faults
    ~2 ms after its scan even under a 50 ms quantum, exactly the
    fine-grained signal Chrono measures.  Without rates the offset falls
    back to uniform (the cold-page limit of the truncated exponential).

    The uniforms come from each process's own stream (``rngs[j]``,
    default ``processes[j].rng``), one call per process in segment
    order -- the draws a per-process loop would make.  Offsets, fault
    times and CITs are then element-wise vector operations over the
    concatenation, bit-identical per element to the per-process
    expressions.

    ``remainders[j]``, when given, is the complementary (untouched)
    slice of the :meth:`~repro.vm.page_state.PageState.protected_pages`
    snapshot process ``j``'s pages were cut from; it lets the unprotect
    skip its membership search.  Page-state writes are left pending on
    the returned batch (:meth:`FleetFaultBatch.write_pages`).
    """
    if rngs is None:
        rngs = [process.rng for process in processes]
    sizes = [cuts[j + 1] - cuts[j] for j in range(len(processes))]

    quantum_len_ns = max(quantum_len_ns, 1)
    if rates_per_ns is None:
        parts = [
            rng.integers(0, quantum_len_ns, size=size)
            for rng, size in zip(rngs, sizes)
        ]
        offsets = np.concatenate(parts) if len(parts) > 1 else parts[0]
    else:
        rates = np.asarray(rates_per_ns, dtype=np.float64)
        if rates.shape != vpns.shape:
            raise ValueError("rates must parallel touched vpns")
        if float(rates.min()) <= 0:
            raise ValueError("touched pages must have positive rates")
        # First-arrival time conditioned on >= 1 arrival in the quantum:
        # t = -ln(1 - u * (1 - exp(-lambda * Q))) / lambda.
        if len(sizes) == 1:
            u = rngs[0].random(sizes[0])
        else:
            u = np.concatenate(
                [rng.random(size) for rng, size in zip(rngs, sizes)]
            )
        scale = -np.expm1(-rates * quantum_len_ns)
        offsets = (-np.log1p(-u * scale) / rates).astype(np.int64)
        offsets = np.minimum(offsets, quantum_len_ns - 1)
    fault_ts = (quantum_start_ns + offsets).astype(np.int64, copy=False)
    members = [process.pages for process in processes]
    pages = FleetPages.common(members)
    fleet = FleetFaultBatch(
        processes, cuts, vpns, fault_ts, None, remainders,
        fleet=pages,
        ids=None if pages is None else FleetPages.ids(members, sizes, vpns),
    )
    scan_ts = fleet.gather("scan_ts_ns")
    fleet.cit_ns = np.where(
        scan_ts >= 0, fault_ts - scan_ts, np.int64(-1)
    ).astype(np.int64, copy=False)
    return fleet


def take_hint_faults(
    process: "SimProcess",
    touched_vpns: np.ndarray,
    quantum_start_ns: int,
    quantum_len_ns: int,
    rng: np.random.Generator,
    rates_per_ns: Optional[np.ndarray] = None,
    cache_remainder: Optional[np.ndarray] = None,
) -> FaultBatch:
    """Resolve hint faults for one process's protected pages touched this
    quantum: the one-process case of :func:`resolve_hint_faults`.

    Side effects: clears ``prot_none`` for the faulted pages and sets their
    accessed bits (the faulting access is an access).

    ``cache_remainder`` is a hot-path shortcut for callers that derived
    ``touched_vpns`` from :meth:`~repro.vm.page_state.PageState.\
protected_pages` with a boolean mask: it must be the complementary
    (untouched) slice of that same snapshot, and lets the unprotect skip
    its membership search.
    """
    touched_vpns = np.asarray(touched_vpns)
    if touched_vpns.size == 0:
        return FaultBatch.empty(process.pid)
    fleet = resolve_hint_faults(
        [process],
        [touched_vpns],
        quantum_start_ns,
        quantum_len_ns,
        rates_per_ns=rates_per_ns,
        remainders=[cache_remainder],
        rngs=[rng],
    )
    fleet.write_pages()
    return fleet.segment(0)
