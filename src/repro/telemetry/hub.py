"""The per-node telemetry hub: registry + spans + trace routing.

One :class:`Telemetry` is attached to every :class:`~repro.hw.node.Node`
at construction.  It is **disabled by default** — the simulation's
modelled costs never depend on it, and a disabled hub costs one branch
per instrumented call site — and is switched on either explicitly
(``node.telemetry.enable()``) or for a whole run via
:func:`repro.telemetry.session`.

The old :class:`~repro.sim.trace.Tracer` plugs in underneath: every
``node.trace(...)`` emit is routed through the hub, which forwards it to
the tracer (still honouring the tracer's own enable/tag gates) and, when
telemetry is on, counts it as a ``trace.events`` metric.  Old code and
tests that talk to the tracer directly keep working unchanged.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import SpanTracker

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine
    from ..sim.trace import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Everything one node knows about its own behaviour."""

    def __init__(
        self,
        engine: "Engine",
        source: str = "node",
        tracer: Optional["Tracer"] = None,
        enabled: Optional[bool] = None,
    ):
        from . import _default_enabled, _register  # module-level run config

        self.engine = engine
        self.source = source
        self.tracer = tracer
        if enabled is None:
            enabled = _default_enabled()
        self.registry = MetricsRegistry(enabled=enabled)
        self.spans = SpanTracker(self)
        # SLO tracker and flight recorder are created on first touch so
        # nodes that never see a flow or a failure stay lean
        self._slo = None
        self._flight = None
        _register(self)

    # -- switching -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def enable(self) -> None:
        self.registry.enabled = True

    def disable(self) -> None:
        self.registry.enabled = False

    # -- lazy subsystems -----------------------------------------------
    @property
    def slo(self):
        """The per-flow SLO tracker (created on first access)."""
        if self._slo is None:
            from .slo import SloTracker

            self._slo = SloTracker(self)
        return self._slo

    @property
    def flight(self):
        """The crash-surviving flight recorder (created on first access)."""
        if self._flight is None:
            from .flightrec import FlightRecorder

            self._flight = FlightRecorder(self)
        return self._flight

    def configure_flight(self, capacity: int):
        """Create (or resize) the flight recorder with a given ring
        capacity, replacing the hard-coded default.  Returns it."""
        if self._flight is None:
            from .flightrec import FlightRecorder

            self._flight = FlightRecorder(self, capacity=capacity)
        else:
            self._flight.resize(capacity)
        return self._flight

    # -- instrument shortcuts ------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, **labels)

    # -- trace routing -------------------------------------------------
    def trace(self, source: str, tag: str, payload: Any = None) -> None:
        """Route a trace emit: tracer record + (if enabled) a counter.

        ``payload`` may be a zero-arg callable; it is only resolved if a
        tracer actually records it (see :meth:`Tracer.emit`).
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(source, tag, payload)
        if self.registry.enabled:
            self.registry.counter("trace.events", tag=tag).inc()

    # -- export --------------------------------------------------------
    def snapshot(self, include_span_events: bool = True) -> dict:
        from .export import node_snapshot

        return node_snapshot(self, include_span_events=include_span_events)

    def format_table(self) -> str:
        from .export import format_table

        return format_table(self.snapshot(include_span_events=False))
