"""Fleet-indexed per-page policy state.

Chrono keeps per-page bookkeeping outside ``PageState``: the candidate
filter's round counters and running max CIT, and DCSC's measurement
round, first-round CIT and probe time.  A :class:`SlotTable` stores one
set of such arrays for every process at once.  Process ``pid`` owns the
slot range ``[base, base + n_slots)``, so a page's global slot id is its
process's base plus its slot (the vpn, or the huge-page group), and one
fancy-index reads or writes the state of faults from many processes.
Per-process code works on :meth:`SlotTable.views`, plain slices of the
shared arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np


class SlotTable:
    """Named per-slot arrays shared by many processes."""

    def __init__(self, **dtypes) -> None:
        """One zero-initialised array per ``name=dtype`` keyword."""
        if not dtypes:
            raise ValueError("a slot table needs at least one array")
        self.arrays: Dict[str, np.ndarray] = {
            name: np.zeros(0, dtype=dtype) for name, dtype in dtypes.items()
        }
        self._bases: Dict[int, int] = {}
        #: slots handed out so far (the arrays may hold spare capacity)
        self.used = 0

    def reserve(self, entries: Iterable[Tuple[int, int]]) -> None:
        """Give every new ``(pid, n_slots)`` its range in one growth.

        Ranges are never moved, but the arrays are reallocated when they
        grow: views taken before a reservation go stale.
        """
        new: Dict[int, int] = {}
        for pid, n_slots in entries:
            if pid not in self._bases and pid not in new:
                new[pid] = int(n_slots)
        if not new:
            return
        need = self.used + sum(new.values())
        capacity = next(iter(self.arrays.values())).size
        if need > capacity:
            # Geometric growth keeps first-use allocation amortised O(1)
            # per slot; zero-filled spare capacity stays untouched memory.
            capacity = max(need, 2 * capacity)
            for name, array in self.arrays.items():
                grown = np.zeros(capacity, dtype=array.dtype)
                grown[: self.used] = array[: self.used]
                self.arrays[name] = grown
        for pid, n_slots in new.items():
            self._bases[pid] = self.used
            self.used += n_slots

    def base(self, pid: int, n_slots: int) -> int:
        """First global slot of ``pid`` (allocated on first use)."""
        base = self._bases.get(pid)
        if base is None:
            self.reserve(((pid, n_slots),))
            base = self._bases[pid]
        return base

    def views(self, pid: int, n_slots: int) -> Tuple[np.ndarray, ...]:
        """``pid``'s slice of every array, in declaration order."""
        base = self.base(pid, n_slots)
        return tuple(
            array[base : base + n_slots] for array in self.arrays.values()
        )

    def ids(
        self,
        pids: Sequence[int],
        n_slots: Sequence[int],
        bounds: np.ndarray,
        slots: np.ndarray,
    ) -> np.ndarray:
        """Global slot ids of concatenated per-process ``slots``.

        Process ``pids[j]`` owns ``slots[bounds[j]:bounds[j + 1]]``.
        """
        bases = [self.base(pid, n) for pid, n in zip(pids, n_slots)]
        if len(bases) == 1:
            return slots + bases[0]
        return np.repeat(np.array(bases, dtype=np.int64), np.diff(bounds)) + slots
