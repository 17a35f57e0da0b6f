"""Array-backed fast engine backend.

:class:`FastSimulator` is a drop-in backend for
:class:`repro.sim.engine.Simulator` that produces the *bit-for-bit* same
event stream — same firing order, same eids, same provenance, same
sanitizer semantics, same error messages — while spending less of the
classic engine's time per event.  ``tests/test_engine_equivalence.py``
is the proof: golden-trace digests (which include eids) are byte-identical
across backends for a seed × scenario × CC matrix.

Where the time goes (and why this layout)
-----------------------------------------
The classic engine pays, per event: one ``EventHandle`` object
construction, one ``(when, eid, handle)`` tuple, one ``itertools.count``
call, several ``self``-attribute stores (clock, counters, provenance) and
bound-method dispatch for ``schedule``.  This backend removes each of
those costs:

* **Plain-list event records** ``[when, eid, status, callback, args,
  parent_eid, origin_eid]`` serve as both the heap entry and the handle
  returned to callers.  ``heapq`` compares lists in C: ``when`` first,
  then the unique monotonic ``eid`` — exactly the classic FIFO
  tie-break — and never reaches the non-comparable elements.  A list
  subclass with ``cancel()``/``pending`` methods was measured ~2× slower
  per event than plain lists (generic ``type.__call__`` construction),
  which is why cancellation lives on the simulator
  (:meth:`cancel_event` / :meth:`event_pending`) instead of the handle.
* **Closure core.** The hot methods (``schedule``, ``schedule_at``,
  ``run``, …) are built once, at construction, as closures over shared
  nonlocal cells (clock, eid source, provenance pair).  Cell access
  compiles to ``LOAD_DEREF``/``STORE_DEREF`` — faster than ``self``
  attribute access — and assigning the closures as *instance*
  attributes skips bound-method creation on every call.  The
  :attr:`sanitizer` and :attr:`obs` hooks are fixed at construction
  (read-only here) because the closures capture them.
* **Single-slot fast path.** The common schedule-one-fire-one pattern
  (link serialisation, RTO re-arm) never touches the heap: one record
  is parked in a ``slot`` cell; the pop side compares ``heap[0] <
  slot`` (a C list comparison, FIFO-safe because eids are unique) to
  pick the true minimum.
* **Derived counters.** ``pending_events`` / ``events_processed`` are
  derived from the eid high-water mark, heap length, and two
  cancellation counters, so the per-event loop maintains *no* counters
  at all.  Both remain O(1) reads.
* **One hot loop.** A plain ``run()`` pops first and only then compares
  the record against ``until`` (``None`` meaning +inf); the one record
  that lies past it is put back where it came from, once per call.
  ``step()`` and every run with ``max_events``, a sanitizer or a
  profiler go through one shared helper that peeks at the next live
  event and then fires it, in the classic engine's exact check order.

An explicit preallocated free-list for event records was evaluated and
rejected: records double as caller-visible handles, so recycling a fired
record while a caller still holds it would alias two events onto one
handle (`event_pending` would lie).  CPython's small-list free-list
already makes the allocation ~40 ns; correctness wins.

Record status values: ``0`` pending, ``1`` fired, ``2`` cancelled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.analysis.sanitize import SimSanitizer
from repro.core.units import Seconds
from repro.obs.runtime import add_engine_events
from repro.obs.tracer import Observability

from repro.sim.engine import (
    _FROM_ENV,
    SimulationError,
    Simulator,
    _resolve_obs,
    _resolve_sanitizer,
)


_INF = float("inf")


def _raise_bad_delay(delay: Any) -> None:
    """Raise the classic engine's exact error for a NaN/negative delay."""
    if delay != delay:
        raise SimulationError(
            f"invalid delay {delay!r}: NaN is not a schedulable delay")
    raise SimulationError(f"cannot schedule into the past (delay={delay})")


def _raise_bad_when(when: Any, now: float) -> None:
    """Raise the classic engine's exact error for a NaN/past target time."""
    if when != when:
        raise SimulationError(
            f"invalid target time {when!r}: NaN is not a schedulable time")
    raise SimulationError(
        f"cannot schedule into the past (when={when}, now={now})"
    )


class FastSimulator(Simulator):
    """Fast array-backed engine backend (see module docstring).

    Constructed through ``Simulator(backend="fast")`` (or the
    ``REPRO_ENGINE`` environment variable); direct construction works
    too.  The public API matches :class:`~repro.sim.engine.Simulator`
    except that :meth:`schedule` returns an opaque record instead of an
    :class:`~repro.sim.engine.EventHandle` — use
    :meth:`~repro.sim.engine.Simulator.cancel_event` /
    :meth:`~repro.sim.engine.Simulator.event_pending` (both backends) or
    the ``event_*`` accessors in :mod:`repro.sim.engine` instead of
    handle attributes — and that :attr:`sanitizer` / :attr:`obs` cannot
    be reassigned after construction.
    """

    def __init__(self, sanitizer: Optional[SimSanitizer] = _FROM_ENV,
                 obs: Optional[Observability] = _FROM_ENV,
                 backend: Optional[str] = None) -> None:
        if backend not in (None, "fast"):
            raise SimulationError(
                f"FastSimulator is the {'fast'!r} backend, got backend={backend!r}")
        san = self._sanitizer = _resolve_sanitizer(sanitizer)
        obs = self._obs = _resolve_obs(obs)
        if obs is not None:
            # Duck-typed provenance binding, same as the classic engine.
            obs.provenance = self
        heap: List[list] = []
        slot: Optional[list] = None
        now = 0.0
        eid_src = 0
        cancelled_q = 0      # cancelled records still queued
        cancelled_total = 0  # every cancellation ever made
        cur_eid = 0
        cur_origin = 0
        running = False

        # -------------------------------------------------- scheduling
        def schedule(delay: Seconds, callback: Callable[..., None],
                     *args: Any) -> list:
            nonlocal eid_src, slot
            if not delay >= 0.0:  # False for NaN and negatives alike
                _raise_bad_delay(delay)
            when = now + delay
            if san is not None:
                san.check_schedule(now, when)
            eid_src = eid = eid_src + 1
            rec = [when, eid, 0, callback, args, cur_eid, cur_origin]
            if slot is None:
                slot = rec
            else:
                heappush(heap, rec)
            return rec

        def schedule_at(when: Seconds, callback: Callable[..., None],
                        *args: Any) -> list:
            nonlocal eid_src, slot
            if not when >= now:  # False for NaN and the past alike
                _raise_bad_when(when, now)
            if san is not None:
                san.check_schedule(now, when)
            eid_src = eid = eid_src + 1
            rec = [when, eid, 0, callback, args, cur_eid, cur_origin]
            if slot is None:
                slot = rec
            else:
                heappush(heap, rec)
            return rec

        # -------------------------------------------------- cancellation
        def cancel_event(rec: list) -> None:
            nonlocal cancelled_q, cancelled_total
            if rec[2] == 0:
                rec[2] = 2
                cancelled_q += 1
                cancelled_total += 1

        def event_pending(rec: list) -> bool:
            return rec[2] == 0

        # -------------------------------------------------- execution
        def fire_next(limit: float, profiler: Any) -> bool:
            """Fire the next live event due at or before ``limit``.

            Peeks first, so a record past ``limit`` stays queued.  This
            is the classic engine's check order: discard cancelled
            records, stop past ``limit``, pop, sanitize, fire.
            """
            nonlocal now, slot, cur_eid, cur_origin, cancelled_q
            while True:
                s = slot
                if s is not None and not (heap and heap[0] < s):
                    rec = s
                elif heap:
                    rec = heap[0]
                else:
                    return False
                if rec[2] == 0 and rec[0] > limit:
                    return False
                if rec is s:
                    slot = None
                else:
                    heappop(heap)
                if rec[2]:
                    cancelled_q -= 1
                    continue
                when = rec[0]
                if san is not None:
                    san.note_fire(when)
                now = when
                rec[2] = 1
                cur_eid = rec[1]
                cur_origin = rec[6]
                try:
                    if profiler is None:
                        rec[3](*rec[4])
                    else:
                        profiler.fire(rec[3], rec[4])
                finally:
                    cur_eid = 0
                    cur_origin = 0
                return True

        def run(until: Optional[Seconds] = None,
                max_events: Optional[int] = None) -> None:
            nonlocal now, slot, cur_eid, cur_origin, cancelled_q, running
            if running:
                raise SimulationError("Simulator.run is not reentrant")
            running = True
            limit = _INF if until is None else until
            profiler = obs.profiler if obs is not None else None
            before = processed()
            try:
                if max_events is not None or san is not None or profiler is not None:
                    fired = 0
                    while ((max_events is None or fired < max_events)
                           and fire_next(limit, profiler)):
                        fired += 1
                else:
                    # Hot path: pop first, compare against ``limit`` after.
                    while True:
                        s = slot
                        if s is not None:
                            if heap and heap[0] < s:
                                rec = heappop(heap)
                            else:
                                rec = s
                                slot = None
                        elif heap:
                            rec = heappop(heap)
                        else:
                            break
                        if rec[2]:
                            cancelled_q -= 1
                            continue
                        if rec[0] > limit:
                            # Past ``until``: put it back where it came from.
                            if rec is s:
                                slot = rec
                            else:
                                heappush(heap, rec)
                            break
                        now = rec[0]
                        rec[2] = 1
                        cur_eid = rec[1]
                        cur_origin = rec[6]
                        rec[3](*rec[4])
            finally:
                running = False
                cur_eid = 0
                cur_origin = 0
                # One process-counter add per run(), not per event.
                add_engine_events(processed() - before)
            if until is not None and now < until:
                now = until

        def step() -> bool:
            return fire_next(_INF, obs.profiler if obs is not None else None)

        def clear() -> None:
            nonlocal slot, cancelled_q, cancelled_total
            # Mark dropped records cancelled so handles report the truth
            # and a later cancel_event() cannot skew the counters.
            newly = 0
            for rec in heap:
                if rec[2] == 0:
                    rec[2] = 2
                    newly += 1
            if slot is not None:
                if slot[2] == 0:
                    slot[2] = 2
                    newly += 1
                slot = None
            heap.clear()
            cancelled_total += newly
            cancelled_q = 0

        # -------------------------------------------------- state views
        def get_now() -> Seconds:
            return now

        def get_cur_eid() -> int:
            return cur_eid

        def get_origin() -> int:
            return cur_origin

        def set_origin(value: int) -> None:
            nonlocal cur_origin
            cur_origin = value

        def pending() -> int:
            return len(heap) + (slot is not None) - cancelled_q

        def processed() -> int:
            return eid_src - cancelled_total - pending()

        # Closures are assigned as *instance* attributes: calls skip both
        # the descriptor protocol and bound-method creation.
        self.schedule = schedule
        self.schedule_at = schedule_at
        self.cancel_event = cancel_event
        self.event_pending = event_pending
        self.run = run
        self.step = step
        self.clear = clear
        self._get_now = get_now
        self._get_cur_eid = get_cur_eid
        self._get_origin = get_origin
        self._set_origin = set_origin
        self._get_pending = pending
        self._get_processed = processed

    # ------------------------------------------------------------------
    # read-only views of the closure cells and the construction-time hooks
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return "fast"

    @property
    def now(self) -> Seconds:
        """Current simulation time in seconds."""
        return self._get_now()

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded)."""
        return self._get_processed()

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled entries excluded).  O(1)."""
        return self._get_pending()

    @property
    def current_eid(self) -> int:
        """eid of the currently executing event (0 outside any event)."""
        return self._get_cur_eid()

    @property
    def _sched_origin(self) -> int:
        # Property (not a plain attribute) so Observability.emit's
        # promotion write lands in the closure cell the schedule/run
        # closures actually read.
        return self._get_origin()

    @_sched_origin.setter
    def _sched_origin(self, value: int) -> None:
        self._set_origin(value)

    @property
    def sanitizer(self) -> Optional[SimSanitizer]:
        """Runtime invariant checker, fixed at construction."""
        return self._sanitizer

    @property
    def obs(self) -> Optional[Observability]:
        """Observability bundle, fixed at construction."""
        return self._obs
