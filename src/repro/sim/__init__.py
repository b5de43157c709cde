"""Deterministic discrete-event simulation substrate."""

from .engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    SimProcess,
    Timeout,
)
from .queues import CalendarQueue, Channel, Gate, HeapEventQueue, PriorityLock, TimerWheel
from .trace import TraceRecord, Tracer
from . import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "SimProcess",
    "Timeout",
    "CalendarQueue",
    "Channel",
    "Gate",
    "HeapEventQueue",
    "PriorityLock",
    "TimerWheel",
    "TraceRecord",
    "Tracer",
    "units",
]
