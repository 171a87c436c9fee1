"""The discrete-event simulation engine.

The engine owns the global clock and a time-ordered event queue.  Same-time
events dispatch in FIFO order (with an *urgent* lane used internally for
process start-up and interrupts), which keeps every simulation run fully
deterministic — a property the test suite checks.

Dispatch is the hottest loop in the repository — a figure campaign pushes
millions of events through it — so :meth:`Engine.run` inlines the heap pop
and the *fast lane*: an event whose first (and usually only) waiter is a
process resumes that process directly, without touching the callback list.
:meth:`Engine.sleep` additionally recycles timeout objects through a free
list, so steady-state model loops schedule delays without allocating.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional

from .events import AllOf, AnyOf, Event, NORMAL, PENDING, PooledTimeout, Process, Timeout


class EmptySchedule(Exception):
    """Raised by :meth:`Engine.step` when no events remain."""


class Engine:
    """Deterministic discrete-event simulation engine.

    Time is a float in *milliseconds* by convention throughout the VersaSlot
    models, though the engine itself is unit-agnostic.
    """

    __slots__ = ("now", "_heap", "_seq", "_timeout_pool")

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = start_time
        self._heap: List[Any] = []
        self._seq = 0
        self._timeout_pool: List[Timeout] = []

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        # Inlined Timeout.__init__ (kept in sync): one call frame instead
        # of two on the most-constructed object in the system.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.engine = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._fast_process = None
        timeout.delay = delay
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, 1, seq, timeout))  # 1 == NORMAL
        return timeout

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :meth:`timeout` for tight model loops.

        The returned timeout must be yielded immediately and not stored:
        once it resumes its waiting process through the fast lane it goes
        back to the engine's free list and will be handed out again.  Model
        code that keeps a reference (to inspect ``value`` later, or to pass
        into ``AnyOf``) must use :meth:`timeout` instead.

        Inside a process, ``yield delay`` (a bare non-negative number) is
        an even cheaper equivalent of ``yield engine.sleep(delay)``.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            # Recycled instances keep their (empty) callbacks list and
            # ``_ok`` True; only the stale fast-lane waiter from the
            # previous cycle must be cleared before re-arming.
            timeout = pool.pop()
            timeout._fast_process = None
            timeout._value = value
            timeout.delay = delay
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay, 1, seq, timeout))  # 1 == NORMAL
        else:
            timeout = PooledTimeout(self, delay, value)
        return timeout

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing once any event in ``events`` has fired."""
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def enqueue(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event for dispatch at ``now + delay``."""
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def pending_count(self) -> int:
        """Number of scheduled entries the engine still holds."""
        return len(self._heap)

    def _dispatch(self, event: Event) -> None:
        """Run one popped event's waiters (kept in sync with ``run``).

        Unlike ``run`` this single-step path never recycles pooled
        timeouts — the pool is opportunistic, so skipping it only costs a
        future allocation.
        """
        fast = event._fast_process
        callbacks = event.callbacks
        event.callbacks = None
        if fast is not None:
            fast._resume(event)
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not getattr(event, "_defused", False):
            # A failure nobody consumed: surface it instead of losing it.
            # (``_defused`` is lazily written by failure paths only, hence
            # the defaulted read.)
            raise event._value

    def step(self) -> None:
        """Dispatch the single next event."""
        try:
            when, _, _, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule() from None
        self.now = when
        self._dispatch(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise ValueError(f"until ({until}) is in the past (now={self.now})")
        # Manually inlined dispatch loop.  This mirrors ``_dispatch`` and —
        # for the fast lane — ``Process._resume`` (both kept in sync): the
        # local bindings and skipped call frames are worth ~2x dispatch
        # rate, which dominates every figure campaign.  The determinism
        # goldens in tests/test_kernel_fastlane.py pin the equivalence.
        horizon = float("inf") if until is None else until
        heap = self._heap
        pool = self._timeout_pool
        pop = heappop
        push = heappush
        while heap:
            entry = pop(heap)
            when = entry[0]
            if when > horizon:
                push(heap, entry)  # beyond the horizon: put it back
                break
            popped = event = entry[3]
            self.now = when
            process = event._fast_process
            callbacks = event.callbacks
            event.callbacks = None
            if process is not None:
                # ``_fast_process`` stays set on the processed event: no
                # reader looks at it once ``callbacks`` is None, and the
                # pooled-reuse path resets it.
                # --- inlined Process._resume (the fast lane) ---
                while True:
                    try:
                        if event._ok:
                            target = process._send(event._value)
                        else:
                            event._defused = True
                            target = process._throw(event._value)
                    except StopIteration as stop:
                        process._ok = True
                        process._value = stop.value
                        self._seq = seq = self._seq + 1
                        push(heap, (when, 1, seq, process))  # 1 == NORMAL
                    except BaseException as error:  # noqa: BLE001
                        process._ok = False
                        process._value = error
                        self._seq = seq = self._seq + 1
                        push(heap, (when, 1, seq, process))
                    else:
                        # Bare-delay sleeps are the most common yield on
                        # the per-item path, so probe them before the
                        # Event isinstance check.
                        tcls = type(target)
                        if (tcls is float or tcls is int) and target >= 0:
                            # Bare-delay shorthand (see Process._resume):
                            # re-arm a pooled sleep with this process
                            # already on the fast lane.
                            if pool:
                                timeout = pool.pop()
                                timeout._fast_process = process
                                timeout._value = None
                                timeout.delay = target
                                self._seq = seq = self._seq + 1
                                push(heap, (when + target, 1, seq, timeout))
                            else:
                                timeout = PooledTimeout(self, target)
                                timeout._fast_process = process
                            process._target = timeout
                        elif isinstance(target, Event):
                            tcallbacks = target.callbacks
                            if tcallbacks is None:
                                # Already dispatched: feed its outcome back in.
                                event = target
                                continue
                            if target._fast_process is None and not tcallbacks:
                                target._fast_process = process
                            else:
                                tcallbacks.append(process._resume)
                            process._target = target
                        else:
                            if tcls is float or tcls is int:
                                err: BaseException = RuntimeError(
                                    f"process yielded a negative delay: {target!r}"
                                )
                            else:
                                err = RuntimeError(
                                    f"process yielded a non-event: {target!r}"
                                )
                            process._generator.close()
                            process._ok = False
                            process._value = err
                            self._seq = seq = self._seq + 1
                            push(heap, (when, 1, seq, process))
                    break
                if not callbacks:
                    if type(popped) is PooledTimeout:
                        # Sole waiter was the fast process: recycle for the
                        # next ``sleep`` call.  Restoring the (empty) list
                        # keeps reuse allocation-free; the pool is bounded
                        # by the peak number of concurrently pending
                        # sleeps, so no explicit cap is needed.
                        popped.callbacks = callbacks
                        pool.append(popped)
                    continue
            if callbacks:
                for callback in callbacks:
                    callback(popped)
            if not popped._ok and not getattr(popped, "_defused", False):
                # A failure nobody consumed: surface it instead of losing it.
                raise popped._value
        if until is not None and until > self.now:
            self.now = until

    def run_until_complete(self, process: Process, limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes and return its value.

        Raises ``RuntimeError`` if the queue drains (or ``limit`` is hit)
        before the process completes.
        """
        self.run(until=limit)
        if process._value is PENDING:
            raise RuntimeError("simulation ended before the process completed")
        if not process._ok:
            raise process._value
        return process._value
