"""The reference kernel: the event loop with every shortcut removed.

:class:`ReferenceEngine` implements exactly the semantics documented in
``repro.sim`` — time-ordered dispatch, FIFO among same-time events, the
fast process (first waiter) resuming before listed callbacks — using the
obvious pop/dispatch loop.  None of the optimized kernel's machinery is
active here:

* no manually inlined dispatch loop (``Engine._dispatch`` runs per event);
* no inlined ``Process._resume`` fast lane (the plain method is called);
* no pooled sleeps (``sleep`` returns a fresh, classically constructed
  :class:`Timeout`, so nothing is ever recycled);
* no flattened constructors on the engine-owned factories.

Model code drives both kernels through the identical ``Engine`` API, so
the differential oracle can run any scenario on each and demand
bit-identical traces.  The reference loop is the *specification*: when the
kernels disagree, the optimized kernel is the suspect.

Sequence numbers are consumed identically on both kernels (one per
scheduled entry), which the oracle relies on only indirectly — the
comparison is over observable traces and statistics, never over engine
internals.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Dict, Optional

from ..sim.engine import Engine
from ..sim.events import Timeout


class ReferenceEngine(Engine):
    """Slow-but-obvious :class:`Engine`: one dispatch call per event."""

    __slots__ = ()

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A fresh timeout via the plain constructor (no inlining)."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """Same as :meth:`timeout`: the reference kernel never pools.

        Model loops that ``yield engine.sleep(...)`` (or a bare delay,
        which ``Process._resume`` routes through here) therefore allocate
        one timeout per iteration — exactly the cost the optimized
        kernel's free list removes, with identical observable behaviour.
        """
        return Timeout(self, delay, value)

    def run(self, until: Optional[float] = None) -> None:
        """The textbook loop: peek, pop, dispatch, repeat."""
        if until is not None and until < self.now:
            raise ValueError(f"until ({until}) is in the past (now={self.now})")
        horizon = float("inf") if until is None else until
        heap = self._heap
        while heap:
            if heap[0][0] > horizon:
                break
            when, _, _, event = heappop(heap)
            self.now = when
            self._dispatch(event)
        if until is not None and until > self.now:
            self.now = until


#: Named kernels the campaign/verify layers can run a scenario on.
#: ``default`` is what production entry points use; campaign cells and
#: event-log headers persist that name, so it stays registered even
#: though it names the same engine as ``optimized``.
KERNELS: Dict[str, Callable[[], Engine]] = {
    "default": Engine,
    "optimized": Engine,
    "reference": ReferenceEngine,
}


def resolve_kernel(name: str) -> Callable[[], Engine]:
    """Engine factory for a kernel name; KeyError names the alternatives."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(KERNELS)}"
        ) from None
