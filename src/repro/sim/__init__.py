"""Deterministic discrete-event simulation kernel used by every substrate."""

from .engine import EmptySchedule, Engine
from .events import AllOf, AnyOf, Event, Interrupt, Process, Timeout
from .resources import Request, Resource, Store
from .rng import SeededStreams, derive_seed
from .trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "EmptySchedule",
    "Engine",
    "Event",
    "Interrupt",
    "NULL_TRACER",
    "Process",
    "Request",
    "Resource",
    "SeededStreams",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "derive_seed",
]
