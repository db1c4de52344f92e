"""The observability hub wiring tracer and metrics to the kernel.

A :class:`ObsHub` bundles an optional :class:`~repro.obs.trace.Tracer`
and an optional :class:`~repro.obs.metrics.MetricsRegistry` behind one
handle that instrumented subsystems reach through ``kernel.obs``.

The zero-overhead-when-disabled contract mirrors the profiler's:
``kernel.obs`` is ``None`` by default and every instrumentation site is
guarded by a single ``is None`` check, so an unobserved run executes no
observability code at all.  When a hub *is* attached, each of its
helpers degrades to a cheap no-op for the half that is absent (metrics
updates with no registry, event emission with no tracer), so either
facility can be enabled alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Dict, Optional, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class ObsHub:
    """One handle over structured tracing and the metrics registry."""

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Wrap an optional tracer and an optional metrics registry."""
        self.tracer = tracer
        self.metrics = metrics

    @classmethod
    def create(
        cls,
        trace_sink: Optional[Union[str, Path, IO[str]]] = None,
        trace: bool = False,
        metrics: bool = True,
        ring_capacity: int = 65_536,
    ) -> "ObsHub":
        """Build a hub from simple on/off choices.

        Args:
            trace_sink: stream events to this JSONL path/file object
                (implies tracing).
            trace: collect events in the in-memory ring even without a
                sink.
            metrics: maintain the metrics registry.
            ring_capacity: ring size when tracing without a sink.
        """
        tracer = None
        if trace_sink is not None or trace:
            tracer = Tracer(sink=trace_sink, ring_capacity=ring_capacity)
        registry = MetricsRegistry() if metrics else None
        return cls(tracer=tracer, metrics=registry)

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def emit(self, type_: str, t: int, **fields: Any) -> None:
        """Emit one trace event (no-op without a tracer)."""
        if self.tracer is not None:
            self.tracer.emit(type_, t, **fields)

    # ------------------------------------------------------------------
    # Metric updates (no-ops without a registry)
    # ------------------------------------------------------------------
    def inc(self, name: str, n: float = 1.0) -> None:
        """Increment a catalogued counter."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a catalogued gauge."""
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float, weight: float = 1.0) -> None:
        """Record one histogram observation."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, weight)

    def observe_many(self, name: str, values: np.ndarray) -> None:
        """Record a batch of histogram observations."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe_many(values)

    def observe_runs(
        self, name: str, values: np.ndarray, bounds: np.ndarray
    ) -> None:
        """Record integer observations as runs, one ``observe_many`` per
        run (see :meth:`Histogram.observe_runs`)."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe_runs(values, bounds)

    # ------------------------------------------------------------------
    def snapshot(self) -> Optional[Dict[str, Any]]:
        """Return the metrics snapshot, or ``None`` without a registry."""
        if self.metrics is None:
            return None
        return self.metrics.snapshot()

    def close(self) -> None:
        """Flush and close the tracer sink, if any."""
        if self.tracer is not None:
            self.tracer.close()
