"""Trace compiler: raw address events -> arena-fast-path workloads.

Replaying a recorded trace one address at a time would forfeit every
batching win from the arena.  This module
*compiles* traces instead: raw ``(timestamp_ns, pid, vpn, is_write)``
event streams (or the recorder's ``.npz`` window format) are binned into
per-window page histograms with vectorized, chunked accumulation, then a
phase-segmentation pass (change-point detection on the windowed
histograms) merges statistically-stable windows into long phases.  The
output is a :class:`CompiledTrace`: per-phase ``(duration_ns, probs)``
distribution tables that plug straight into the engine:

* phase tables are routed through :func:`~repro.workloads.base.cached_tables`
  keyed by a content digest, so same-pattern traces (and same-pattern
  fleet tenants) share one frozen array;
* long phases give :class:`~repro.workloads.base.TraceWorkload` few
  distribution swaps, so the arena reprices a segment at a phase change
  instead of at every recorded window;
* idle stretches compile to zero-traffic phases, preserving the
  recording's wall-clock shape.

The binning is memory-bounded: :func:`compile_event_stream` consumes an
iterable of event chunks and only ever holds one chunk plus the growing
per-process window histograms, so arbitrarily long event files stream
through a fixed working set.
"""

from __future__ import annotations

import csv
import hashlib
import pathlib
import zipfile
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.sim.timeunits import SECOND
from repro.workloads.base import (
    TraceWorkload,
    Workload,
    cached_tables,
    table_key,
)
from repro.workloads.trace_io import load_trace_windows

PathLike = Union[str, pathlib.Path]

#: default binning window for event streams
DEFAULT_WINDOW_NS = SECOND

#: default total-variation distance that opens a new phase
DEFAULT_SEGMENT_THRESHOLD = 0.25

#: events per chunk when one-shot arrays are streamed internally
DEFAULT_CHUNK_EVENTS = 1 << 20

#: one event chunk: (timestamp_ns, pid, vpn, is_write) parallel arrays
EventChunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class StationaryTableWorkload(Workload):
    """Stationary workload over a pre-built, frozen probability table.

    Keeps the base no-op ``advance`` and ``access_distribution`` returns the table array *itself*, so
    every process built from the same cached table presents one array
    identity.  The compiler emits this for single-phase traces; the fleet
    traffic generator uses it for all non-shifting tenants.
    """

    name = "table"

    def __init__(
        self,
        probs: np.ndarray,
        write_fraction: float = 0.05,
        delay_ns_per_access: float = 0.0,
    ) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probability table must be 1-D")
        super().__init__(len(probs), write_fraction, delay_ns_per_access)
        total = float(probs.sum())
        if not np.isclose(total, 1.0):
            raise ValueError("probability table must sum to 1")
        self._probs = probs

    def access_distribution(self, now_ns: Optional[int] = None) -> np.ndarray:
        """The frozen table; identical object every call."""
        return self._probs


def intern_distribution(weights: np.ndarray) -> np.ndarray:
    """Normalize ``weights`` and route the result through the table cache.

    The cache key is a content digest, so any two callers compiling the
    same histogram -- different traces, different fleet tenants --
    receive the *same* frozen array.
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("access weights must have positive mass")
    probs = weights / total
    digest = hashlib.sha256(probs.tobytes()).hexdigest()[:32]
    key = table_key(
        "trace-compile", digest=digest, n_pages=int(probs.size)
    )
    return cached_tables(key, lambda: {"probs": probs})["probs"]


@dataclass
class Segment:
    """One detected phase: windows ``[start, end)``; idle iff zero mass."""

    start: int
    end: int
    idle: bool


def segment_windows(
    windows: np.ndarray,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
) -> List[Segment]:
    """Greedy change-point detection over windowed histograms.

    Walks the window sequence keeping a running mean of the current
    phase's normalized histograms; a window whose total-variation
    distance from that mean exceeds ``threshold`` (after the phase has
    at least ``min_windows`` members) closes the phase and opens a new
    one.  Zero-traffic windows always form their own idle segments, so
    phase boundaries never straddle an idle gap.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise ValueError("need a non-empty (n_windows, n_pages) array")
    segments: List[Segment] = []
    totals = windows.sum(axis=1)
    start = 0
    mean: Optional[np.ndarray] = None
    count = 0
    idle = bool(totals[0] <= 0.0)
    for i in range(windows.shape[0]):
        window_idle = bool(totals[i] <= 0.0)
        if window_idle != idle:
            segments.append(Segment(start, i, idle))
            start, mean, count, idle = i, None, 0, window_idle
        if window_idle:
            continue
        p = windows[i] / totals[i]
        if mean is None:
            mean, count = p.copy(), 1
            continue
        distance = 0.5 * float(np.abs(p - mean).sum())
        if distance > threshold and count >= min_windows:
            segments.append(Segment(start, i, False))
            start, mean, count = i, p.copy(), 1
        else:
            count += 1
            mean += (p - mean) / count
    segments.append(Segment(start, windows.shape[0], idle))
    return segments


@dataclass
class CompiledTrace:
    """A compiled trace: phase tables ready for the batched fast path."""

    phases: List[Tuple[int, np.ndarray]]
    n_pages: int
    window_ns: int
    write_fraction: float
    n_events: int
    n_windows: int
    n_idle_windows: int
    boundaries: List[int]

    @property
    def n_phases(self) -> int:
        """Number of compiled phases (idle phases included)."""
        return len(self.phases)

    @property
    def total_ns(self) -> int:
        """Wall-clock span of one replay cycle."""
        return sum(duration for duration, _ in self.phases)

    def to_workload(
        self,
        delay_ns_per_access: float = 0.0,
        write_fraction: Optional[float] = None,
    ) -> Workload:
        """Build the replay workload for this compiled trace.

        A single-phase trace becomes a :class:`StationaryTableWorkload`;
        multi-phase traces become a
        :class:`~repro.workloads.base.TraceWorkload` cycling the compiled
        phases.
        """
        wf = self.write_fraction if write_fraction is None else write_fraction
        if len(self.phases) == 1:
            return StationaryTableWorkload(
                self.phases[0][1],
                write_fraction=wf,
                delay_ns_per_access=delay_ns_per_access,
            )
        return TraceWorkload(
            self.phases,
            write_fraction=wf,
            delay_ns_per_access=delay_ns_per_access,
            assume_normalized=True,
        )


def compile_windows(
    windows: np.ndarray,
    window_ns: int,
    write_fraction: float = 0.05,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    n_events: Optional[int] = None,
    obs=None,
    pid: int = 0,
) -> CompiledTrace:
    """Compile stacked per-window histograms into phase tables.

    This is the recorder-format entry point (and the tail of the event
    path): segments the windows, pools each busy segment's counts into
    one interned distribution table, and emits ``compile.*``
    observability when an obs hub is supplied.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise ValueError("need a non-empty (n_windows, n_pages) array")
    if window_ns <= 0:
        raise ValueError("window duration must be positive")
    totals = windows.sum(axis=1)
    if not np.any(totals > 0.0):
        raise ValueError("trace contains no traffic")
    segments = segment_windows(
        windows, threshold=threshold, min_windows=min_windows
    )
    phases: List[Tuple[int, np.ndarray]] = []
    for seg in segments:
        duration = (seg.end - seg.start) * int(window_ns)
        if seg.idle:
            zeros = np.zeros(windows.shape[1], dtype=np.float64)
            zeros.setflags(write=False)
            phases.append((duration, zeros))
        else:
            pooled = windows[seg.start:seg.end].sum(axis=0)
            phases.append((duration, intern_distribution(pooled)))
    n_idle = int(np.count_nonzero(totals <= 0.0))
    compiled = CompiledTrace(
        phases=phases,
        n_pages=int(windows.shape[1]),
        window_ns=int(window_ns),
        write_fraction=float(write_fraction),
        n_events=int(totals.sum()) if n_events is None else int(n_events),
        n_windows=int(windows.shape[0]),
        n_idle_windows=n_idle,
        boundaries=[seg.start for seg in segments],
    )
    if obs is not None:
        obs.emit(
            "compile.trace",
            compiled.total_ns,
            pid=int(pid),
            n_events=compiled.n_events,
            n_windows=compiled.n_windows,
            n_idle=compiled.n_idle_windows,
            n_phases=compiled.n_phases,
        )
        obs.inc("compile.events", compiled.n_events)
        obs.inc("compile.windows", compiled.n_windows)
        obs.inc("compile.idle_windows", compiled.n_idle_windows)
        obs.inc("compile.phases", compiled.n_phases)
    return compiled


class _EventBinner:
    """Accumulates chunked events into per-pid window histograms.

    Holds one growing ``(n_windows, n_pages)`` count matrix per pid plus
    scalar write/event tallies; each chunk folds in via one
    ``bincount`` over a combined ``window * n_pages + vpn`` index, so
    the per-event cost is a handful of vectorized passes.
    """

    def __init__(self, n_pages: Optional[int], window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError("window duration must be positive")
        self.window_ns = int(window_ns)
        self.n_pages = n_pages
        self.counts: Dict[int, np.ndarray] = {}
        self.events: Dict[int, int] = {}
        self.writes: Dict[int, int] = {}
        self.max_window: Dict[int, int] = {}

    def add_chunk(self, chunk: EventChunk) -> int:
        timestamps, pids, vpns, is_write = (
            np.asarray(chunk[0], dtype=np.int64),
            np.asarray(chunk[1], dtype=np.int64),
            np.asarray(chunk[2], dtype=np.int64),
            np.asarray(chunk[3], dtype=bool),
        )
        if not (
            timestamps.size == pids.size == vpns.size == is_write.size
        ):
            raise ValueError("event chunk arrays must share one length")
        if timestamps.size == 0:
            return 0
        if np.any(timestamps < 0) or np.any(vpns < 0):
            raise ValueError("timestamps and vpns must be non-negative")
        if self.n_pages is None:
            self.n_pages = int(vpns.max()) + 1
        elif np.any(vpns >= self.n_pages):
            raise ValueError(
                f"vpn out of range for n_pages={self.n_pages}"
            )
        windows = timestamps // self.window_ns
        for pid in np.unique(pids).tolist():
            mask = pids == pid
            self._fold(int(pid), windows[mask], vpns[mask], is_write[mask])
        return int(timestamps.size)

    def _fold(
        self,
        pid: int,
        windows: np.ndarray,
        vpns: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        top = int(windows.max())
        matrix = self.counts.get(pid)
        if matrix is None or top >= matrix.shape[0]:
            grown = np.zeros(
                (max(top + 1, 2 * (0 if matrix is None else matrix.shape[0])),
                 self.n_pages),
                dtype=np.float64,
            )
            if matrix is not None:
                grown[: matrix.shape[0]] = matrix
            self.counts[pid] = matrix = grown
        flat = windows * self.n_pages + vpns
        binned = np.bincount(flat, minlength=(top + 1) * self.n_pages)
        matrix[: top + 1] += binned.reshape(top + 1, self.n_pages)
        self.events[pid] = self.events.get(pid, 0) + int(windows.size)
        self.writes[pid] = self.writes.get(pid, 0) + int(
            np.count_nonzero(is_write)
        )
        self.max_window[pid] = max(self.max_window.get(pid, 0), top)

    def windows_for(self, pid: int) -> np.ndarray:
        matrix = self.counts[pid]
        return matrix[: self.max_window[pid] + 1]

    def write_fraction_for(self, pid: int) -> float:
        events = self.events.get(pid, 0)
        if events == 0:
            return 0.05
        return self.writes[pid] / events


def compile_event_stream(
    chunks: Iterable[EventChunk],
    n_pages: Optional[int] = None,
    window_ns: int = DEFAULT_WINDOW_NS,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    obs=None,
) -> Dict[int, CompiledTrace]:
    """Compile a memory-bounded stream of event chunks, one trace per pid.

    Each chunk is a ``(timestamp_ns, pid, vpn, is_write)`` tuple of
    parallel arrays; only the current chunk and the per-pid window
    histograms are resident.  Returns ``{pid: CompiledTrace}``.
    """
    binner = _EventBinner(n_pages, window_ns)
    for chunk in chunks:
        binner.add_chunk(chunk)
    if not binner.counts:
        raise ValueError("event stream contains no events")
    compiled: Dict[int, CompiledTrace] = {}
    for pid in sorted(binner.counts):
        compiled[pid] = compile_windows(
            binner.windows_for(pid),
            window_ns,
            write_fraction=binner.write_fraction_for(pid),
            threshold=threshold,
            min_windows=min_windows,
            n_events=binner.events[pid],
            obs=obs,
            pid=pid,
        )
    return compiled


def compile_events(
    timestamps: Sequence[int],
    pids: Sequence[int],
    vpns: Sequence[int],
    is_write: Sequence[bool],
    n_pages: Optional[int] = None,
    window_ns: int = DEFAULT_WINDOW_NS,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    obs=None,
) -> Dict[int, CompiledTrace]:
    """One-shot event-array entry point (chunks internally)."""
    timestamps = np.asarray(timestamps, dtype=np.int64)
    pids = np.asarray(pids, dtype=np.int64)
    vpns = np.asarray(vpns, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)

    def chunks() -> Iterator[EventChunk]:
        for lo in range(0, timestamps.size, int(chunk_events)):
            hi = lo + int(chunk_events)
            yield (
                timestamps[lo:hi],
                pids[lo:hi],
                vpns[lo:hi],
                is_write[lo:hi],
            )

    return compile_event_stream(
        chunks(),
        n_pages=n_pages,
        window_ns=window_ns,
        threshold=threshold,
        min_windows=min_windows,
        obs=obs,
    )


def read_event_csv(
    path: PathLike, chunk_events: int = DEFAULT_CHUNK_EVENTS
) -> Iterator[EventChunk]:
    """Stream ``timestamp_ns,pid,vpn,is_write`` rows as event chunks.

    A header row naming the columns is skipped if it is the first
    non-blank row; chunks hold at most ``chunk_events`` events so huge
    files stay memory-bounded.  A row with fewer than four fields or a
    non-integer field raises ``ValueError`` naming its line.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows: List[Tuple[int, int, int, int]] = []
        first = True
        for row in reader:
            if not row:
                continue
            if first:
                first = False
                if not row[0].strip().lstrip("-").isdigit():
                    continue  # header
            if len(row) < 4:
                raise ValueError(
                    f"line {reader.line_num}: expected 4 fields "
                    f"(timestamp_ns,pid,vpn,is_write), got {len(row)}"
                )
            try:
                rows.append(
                    (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
                )
            except ValueError:
                raise ValueError(
                    f"line {reader.line_num}: non-integer field in "
                    f"{','.join(row[:4])!r}"
                ) from None
            if len(rows) >= chunk_events:
                yield _rows_to_chunk(rows)
                rows = []
        if rows:
            yield _rows_to_chunk(rows)


def _rows_to_chunk(rows: List[Tuple[int, int, int, int]]) -> EventChunk:
    """Transpose accumulated csv rows into one chunk of parallel arrays."""
    array = np.asarray(rows, dtype=np.int64)
    return (
        array[:, 0],
        array[:, 1],
        array[:, 2],
        array[:, 3].astype(bool),
    )


#: arrays an event-format ``.npz`` must carry
EVENT_NPZ_KEYS = ("timestamp_ns", "pid", "vpn", "is_write")
#: arrays a recorder window-format ``.npz`` must carry
WINDOW_NPZ_KEYS = ("version", "interval_ns", "write_fraction", "windows")


def _npz_keys(path: PathLike) -> Set[str]:
    """The array names of an ``.npz`` archive.

    Raises ``ValueError`` when the file is not a readable ``.npz``
    archive (garbage bytes, pickled data, a bare ``.npy`` array).
    """
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not a readable .npz archive ({exc})") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive (a single .npy array)")
    with data:
        return set(data.files)


def _require_keys(keys: Set[str], required: Sequence[str]) -> None:
    missing = [key for key in required if key not in keys]
    if missing:
        raise ValueError(f"missing array(s) {', '.join(missing)}")


def read_event_npz(path: PathLike) -> EventChunk:
    """Load an event-format ``.npz`` (timestamp_ns/pid/vpn/is_write keys)."""
    with np.load(path) as data:
        return (
            np.asarray(data["timestamp_ns"], dtype=np.int64),
            np.asarray(data["pid"], dtype=np.int64),
            np.asarray(data["vpn"], dtype=np.int64),
            np.asarray(data["is_write"], dtype=bool),
        )


def compile_trace_file(
    path: PathLike,
    window_ns: Optional[int] = None,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    obs=None,
    pid: int = 0,
) -> Dict[int, CompiledTrace]:
    """Compile a trace file of either supported format.

    ``.npz`` files are sniffed: a ``windows`` key is the recorder's
    window format (binned at its recorded interval; ``window_ns`` must
    then be omitted or match), a ``timestamp_ns`` key is the raw event
    format.  ``.csv`` files stream through :func:`read_event_csv`.
    Malformed contents raise ``ValueError``.
    """
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        return compile_event_stream(
            read_event_csv(path),
            window_ns=(
                DEFAULT_WINDOW_NS if window_ns is None else window_ns
            ),
            threshold=threshold,
            min_windows=min_windows,
            obs=obs,
        )
    keys = _npz_keys(path)
    if "windows" in keys:
        _require_keys(keys, WINDOW_NPZ_KEYS)
        windows, interval_ns, write_fraction = load_trace_windows(path)
        if window_ns is not None and int(window_ns) != interval_ns:
            raise ValueError(
                "window format traces are pre-binned; window_ns must "
                f"match the recorded interval ({interval_ns})"
            )
        return {
            pid: compile_windows(
                windows,
                interval_ns,
                write_fraction=write_fraction,
                threshold=threshold,
                min_windows=min_windows,
                obs=obs,
                pid=pid,
            )
        }
    _require_keys(keys, EVENT_NPZ_KEYS)
    return compile_event_stream(
        [read_event_npz(path)],
        window_ns=DEFAULT_WINDOW_NS if window_ns is None else window_ns,
        threshold=threshold,
        min_windows=min_windows,
        obs=obs,
    )


def synthetic_event_stream(
    n_events: int,
    n_pages: int = 256,
    n_phases: int = 3,
    pid: int = 0,
    window_ns: int = DEFAULT_WINDOW_NS,
    windows_per_phase: int = 8,
    write_fraction: float = 0.1,
    seed: int = 0,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Iterator[EventChunk]:
    """Deterministic sample event generator (benchmarks and tests).

    Emits ``n_events`` events whose hotspot rotates every
    ``windows_per_phase`` windows through ``n_phases`` Zipf-like page
    popularities, with evenly spaced timestamps -- a known-phase-count
    stream for compile-throughput measurement and segmentation checks.
    """
    if n_events <= 0 or n_phases <= 0 or windows_per_phase <= 0:
        raise ValueError("event/phase counts must be positive")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_pages + 1, dtype=np.float64)
    cdfs = []
    for phase in range(n_phases):
        weights = np.roll(
            ranks ** -1.2, (phase * n_pages) // n_phases
        )
        cdfs.append(np.cumsum(weights / weights.sum()))
    total_ns = n_phases * windows_per_phase * window_ns
    step_ns = max(1, total_ns // n_events)
    emitted = 0
    while emitted < n_events:
        count = min(int(chunk_events), n_events - emitted)
        timestamps = (
            np.arange(emitted, emitted + count, dtype=np.int64) * step_ns
        )
        phase_idx = (
            timestamps // (windows_per_phase * window_ns)
        ) % n_phases
        uniform = rng.random(count)
        vpns = np.empty(count, dtype=np.int64)
        for phase in range(n_phases):
            mask = phase_idx == phase
            if np.any(mask):
                vpns[mask] = np.searchsorted(
                    cdfs[phase], uniform[mask]
                )
        np.clip(vpns, 0, n_pages - 1, out=vpns)
        is_write = rng.random(count) < write_fraction
        pids = np.full(count, pid, dtype=np.int64)
        yield (timestamps, pids, vpns, is_write)
        emitted += count
