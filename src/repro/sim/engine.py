"""Discrete-event simulation engine.

The engine is a classic calendar queue built on a binary heap.  Everything
else in the repository (links, routers, TCP endpoints, experiment harnesses)
schedules work through a :class:`Simulator` instance, which guarantees:

Backends
--------
``Simulator(...)`` is a backend factory: ``Simulator(backend="fast")``
(the default, also selectable with ``REPRO_ENGINE=fast|classic``) returns
a :class:`repro.sim.fastengine.FastSimulator` — an array/closure-backed
core that is ~3× faster per event and produces a bit-for-bit identical
event stream (eids, provenance, FIFO ties, error messages).  This module
implements the ``"classic"`` backend, which doubles as the readable
reference semantics and the differential-testing oracle
(``tests/test_engine_equivalence.py``).  Because the fast backend returns
plain-list records instead of :class:`EventHandle` objects, portable code
uses :meth:`Simulator.cancel_event` / :meth:`Simulator.event_pending` and
the module-level ``event_*`` accessors rather than handle attributes.

* events fire in non-decreasing time order;
* events scheduled for the same instant fire in scheduling order (FIFO),
  which makes runs fully deterministic for a fixed seed;
* cancelled events are skipped without disturbing the ordering of the rest.

Causal provenance
-----------------
Every scheduled event is assigned a monotonically increasing *event id*
(``eid``, starting at 1; 0 is the root context outside any event) and
remembers the eid of the event during whose execution it was scheduled
(:attr:`EventHandle.parent_eid`).  In addition each event inherits,
through :meth:`Simulator.schedule`, the eid of its nearest ancestor
event that emitted at least one trace record (its *origin*): the
observability layer stamps ``(current_eid, origin)`` onto every
:class:`~repro.obs.records.TraceRecord` and then promotes the current
event to be the origin of everything it schedules from then on.  The
result is that a record's ``parent_eid`` always names an event with
records *in the same trace*, so a SUSS decision can be walked back
through the ACK that clocked it — across silent plumbing events such as
link serialisation — to the data send that provoked the ACK.  Because
eids are assigned in scheduling order, they are as deterministic as the
event stream itself (``jobs=1`` and ``jobs=N`` campaign runs agree
event for event, eids included).
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.analysis.sanitize import SimSanitizer, from_env
from repro.core.units import Seconds
from repro.obs.runtime import add_engine_events
from repro.obs.tracer import Observability
from repro.obs.tracer import from_env as obs_from_env

#: constructor sentinel: "no sanitizer/obs argument given, consult the
#: environment (REPRO_SANITIZE / REPRO_TRACE / REPRO_PROFILE)".  Passing
#: sanitizer=None or obs=None explicitly opts out even in instrumented
#: runs (unit tests that drive links directly, bypassing Host.transmit
#: accounting).
_FROM_ENV: Any = object()

#: Valid engine backends: ``"fast"`` (array/closure core, the default —
#: see :mod:`repro.sim.fastengine`) and ``"classic"`` (this module's
#: object-per-event reference implementation).  Both produce bit-for-bit
#: identical event streams; ``tests/test_engine_equivalence.py`` holds
#: them to that.
BACKENDS = ("fast", "classic")

_DEFAULT_BACKEND = "fast"


def _resolve_sanitizer(value: Optional[SimSanitizer]) -> Optional[SimSanitizer]:
    """Apply the ``_FROM_ENV`` sentinel convention for ``sanitizer=``."""
    return from_env() if value is _FROM_ENV else value


def _resolve_obs(value: Optional[Observability]) -> Optional[Observability]:
    """Apply the ``_FROM_ENV`` sentinel convention for ``obs=``."""
    return obs_from_env() if value is _FROM_ENV else value


def _resolve_backend(backend: Optional[str]) -> str:
    """Pick the engine backend: explicit argument > ``REPRO_ENGINE`` > default."""
    if backend is None:
        backend = os.environ.get("REPRO_ENGINE", "").strip().lower() or _DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown engine backend {backend!r}: expected one of {BACKENDS}")
    return backend


class SimulationError(ValueError):
    """Raised for invalid uses of the simulation engine.

    Subclasses :class:`ValueError` because the most common instance —
    an invalid delay or target time — is an argument error.
    """


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation.

    A handle stays valid after the event fires; cancelling a fired event is
    a harmless no-op so callers do not need to track firing themselves.

    ``eid`` is the event's engine-assigned identity (monotonic, unique
    within one Simulator); ``parent_eid`` is the eid of the event whose
    callback scheduled this one (0 when scheduled from outside any
    event, e.g. simulation setup); ``origin_eid`` is the eid of the
    nearest ancestor event that emitted a trace record — the causal
    parent the observability layer stamps onto records.
    """

    __slots__ = ("time", "callback", "args", "eid", "parent_eid",
                 "origin_eid", "_cancelled", "_fired", "_sim")

    def __init__(self, time: Seconds, callback: Callable[..., None],
                 args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None,
                 eid: int = 0, parent_eid: int = 0, origin_eid: int = 0):
        self.time = time
        self.callback = callback
        self.args = args
        self.eid = eid
        self.parent_eid = parent_eid
        self.origin_eid = origin_eid
        self._cancelled = False
        self._fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self._cancelled and not self._fired and self._sim is not None:
            self._sim._pending -= 1
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not self._cancelled and not self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<EventHandle t={self.time:.6f} {state} {getattr(self.callback, '__name__', self.callback)}>"


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()

    The clock starts at ``0.0`` and only advances when :meth:`run` (or
    :meth:`run_until` / :meth:`step`) processes events.
    """

    def __new__(cls, sanitizer: Optional[SimSanitizer] = _FROM_ENV,
                obs: Optional[Observability] = _FROM_ENV,
                backend: Optional[str] = None) -> "Simulator":
        # Backend dispatch happens here (not in a factory function) so the
        # whole codebase keeps constructing ``Simulator(...)`` unchanged.
        # Subclasses (including FastSimulator itself) bypass the dispatch.
        if cls is Simulator and _resolve_backend(backend) == "fast":
            from repro.sim.fastengine import FastSimulator
            return object.__new__(FastSimulator)
        return object.__new__(cls)

    def __init__(self, sanitizer: Optional[SimSanitizer] = _FROM_ENV,
                 obs: Optional[Observability] = _FROM_ENV,
                 backend: Optional[str] = None) -> None:
        if backend not in (None, "classic"):
            # ``Simulator(backend="fast")`` never lands here (``__new__``
            # redirects to FastSimulator); anything else is a typo.
            _resolve_backend(backend)
            raise SimulationError(
                f"classic Simulator constructed with backend={backend!r}")
        self._now: Seconds = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        # eid 0 is reserved for the root context (outside any event), so
        # event ids start at 1.  The counter doubles as the same-instant
        # FIFO tie-break, which keeps eids in scheduling order.
        self._counter = itertools.count(1)
        self._running = False
        self._processed = 0
        self._pending = 0
        #: eid of the event whose callback is currently executing (0
        #: outside any event).  ``_sched_origin`` is the causal origin
        #: newly scheduled events inherit: the current event's nearest
        #: record-emitting ancestor until this event emits its first
        #: record, the event's own eid afterwards (Observability.emit
        #: performs that promotion and stamps records' ``parent_eid``
        #: from this pair — the engine's per-event cost is exactly these
        #: two assignments).
        self.current_eid = 0
        self._sched_origin = 0
        #: runtime invariant checker; defaults to one created from the
        #: ``REPRO_SANITIZE`` environment variable (None when disabled).
        #: Pass ``sanitizer=None`` to opt out explicitly.  Other layers
        #: (net, tcp) consult this attribute for their hooks.
        self.sanitizer: Optional[SimSanitizer] = _resolve_sanitizer(sanitizer)
        #: observability bundle (tracer/metrics/profiler); defaults to one
        #: created from ``REPRO_TRACE`` / ``REPRO_PROFILE`` (None when
        #: neither is set).  Other layers (net, tcp, cc, core) consult
        #: this attribute for their emit hooks; with ``obs=None`` every
        #: hook site is a single pointer test.
        self.obs: Optional[Observability] = _resolve_obs(obs)
        if self.obs is not None:
            # Bind this engine as the bundle's provenance source so every
            # record it emits carries (eid, parent_eid).  The attribute is
            # duck-typed — obs stays a dependency-free leaf layer.
            self.obs.provenance = self

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Which engine backend this instance is (``"classic"`` here)."""
        return "classic"

    @property
    def now(self) -> Seconds:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled entries excluded).

        O(1): a live counter maintained by schedule/cancel/fire, not a
        heap scan — monitoring code may poll this in hot loops.
        """
        return self._pending

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: Seconds, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay != delay:  # NaN: would poison the heap ordering silently
            raise SimulationError(
                f"invalid delay {delay!r}: NaN is not a schedulable delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, when: Seconds, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``when``."""
        if when != when:  # NaN compares false against everything below
            raise SimulationError(
                f"invalid target time {when!r}: NaN is not a schedulable time")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        if self.sanitizer is not None:
            # After the engine's own argument checks, so callers always see
            # SimulationError for NaN/past; the sanitizer adds the inf check.
            self.sanitizer.check_schedule(self._now, when)
        eid = next(self._counter)
        handle = EventHandle(when, callback, args, self, eid,
                             self.current_eid, self._sched_origin)
        heapq.heappush(self._heap, (when, eid, handle))
        self._pending += 1
        return handle

    # ------------------------------------------------------------------
    # backend-portable handle operations
    # ------------------------------------------------------------------
    # The fast backend returns plain-list records from ``schedule`` instead
    # of EventHandle objects, so code that must work on either backend
    # cancels/polls through the simulator rather than the handle.  These
    # are the classic implementations; FastSimulator installs closures of
    # the same names.

    def cancel_event(self, handle: EventHandle) -> None:
        """Backend-portable :meth:`EventHandle.cancel`.  Idempotent."""
        handle.cancel()

    def event_pending(self, handle: EventHandle) -> bool:
        """Backend-portable :attr:`EventHandle.pending`."""
        return handle.pending

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        profiler = self.obs.profiler if self.obs is not None else None
        while self._heap:
            when, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            if self.sanitizer is not None:
                self.sanitizer.note_fire(when)
            self._now = when
            handle._fired = True
            self._pending -= 1
            self._processed += 1
            self.current_eid = handle.eid
            self._sched_origin = handle.origin_eid
            try:
                if profiler is None:
                    handle.callback(*handle.args)
                else:
                    profiler.fire(handle.callback, handle.args)
            finally:
                self.current_eid = 0
                self._sched_origin = 0
            return True
        return False

    def run(self, until: Optional[Seconds] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        ``until`` is an absolute simulation time; events at exactly ``until``
        still fire.  When the run stops because of ``until``, the clock is
        advanced to ``until`` even if no event fired there, so repeated
        ``run(until=...)`` calls behave like a progressing wall clock.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired = 0
        processed_before = self._processed
        # Resolved once per run: profiling/sanitizing are decided before
        # the loop and the heap access is bound to locals, so the
        # default hot path keeps its direct callback dispatch.
        profiler = self.obs.profiler if self.obs is not None else None
        sanitizer = self.sanitizer
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                when, _, handle = heap[0]
                if handle._cancelled:
                    heappop(heap)
                    continue
                if until is not None and when > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                heappop(heap)
                if sanitizer is not None:
                    sanitizer.note_fire(when)
                self._now = when
                handle._fired = True
                self._pending -= 1
                self._processed += 1
                self.current_eid = handle.eid
                self._sched_origin = handle.origin_eid
                if profiler is None:
                    handle.callback(*handle.args)
                else:
                    profiler.fire(handle.callback, handle.args)
                fired += 1
        finally:
            self._running = False
            self.current_eid = 0
            self._sched_origin = 0
            # One process-counter add per run(), not per event: run-level
            # telemetry sees engine throughput at zero hot-loop cost.  The
            # ``_processed`` delta (not ``fired``) also counts an event
            # whose callback raised, as ``events_processed`` does.
            add_engine_events(self._processed - processed_before)
        if until is not None and self._now < until:
            self._now = until

    def run_until(self, when: Seconds) -> None:
        """Alias for ``run(until=when)``."""
        self.run(until=when)

    def clear(self) -> None:
        """Drop all pending events (the clock is left where it is)."""
        for _, _, handle in self._heap:
            # Mark dropped events cancelled so their handles report the
            # truth and a later cancel() cannot skew the pending counter.
            handle._cancelled = True
        self._heap.clear()
        self._pending = 0


# ----------------------------------------------------------------------
# backend-portable handle introspection
# ----------------------------------------------------------------------
#: A scheduled-event reference: a classic :class:`EventHandle` or a fast
#: backend plain-list record (``[when, eid, status, callback, args,
#: parent_eid, origin_eid]``; status 0 pending / 1 fired / 2 cancelled).
EventRef = Union[EventHandle, list]


def event_time(handle: EventRef) -> Seconds:
    """Scheduled fire time of an event from either backend."""
    return handle[0] if type(handle) is list else handle.time


def event_eid(handle: EventRef) -> int:
    """Engine-assigned event id of an event from either backend."""
    return handle[1] if type(handle) is list else handle.eid


def event_parent_eid(handle: EventRef) -> int:
    """eid of the event whose callback scheduled this one (0 = root)."""
    return handle[5] if type(handle) is list else handle.parent_eid


def event_origin_eid(handle: EventRef) -> int:
    """eid of the nearest record-emitting ancestor event (0 = root)."""
    return handle[6] if type(handle) is list else handle.origin_eid


def event_fired(handle: EventRef) -> bool:
    """True once the event's callback has run."""
    return handle[2] == 1 if type(handle) is list else handle.fired


def event_cancelled(handle: EventRef) -> bool:
    """True once the event has been cancelled."""
    return handle[2] == 2 if type(handle) is list else handle.cancelled
