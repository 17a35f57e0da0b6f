"""Point-to-point links with serialisation, propagation, and impairments.

A :class:`Link` models one direction of a physical link:

* packets wait in an attached queue (drop-tail by default) while the link
  serialises earlier packets at the (possibly time-varying) bandwidth;
* each packet then propagates for ``delay`` plus optional jitter;
* optional Bernoulli loss discards packets at the receiving end
  (after consuming link capacity, like real corruption loss).

The queue is where bottleneck buffering happens, so buffer sizing in BDP
units — as in the paper's testbed — is applied to the link's queue.

Batched serialisation
---------------------
With ``batch=True`` (or ``REPRO_LINK_BATCH=1``) an *eligible* link —
constant bandwidth, no jitter, a plain :class:`DropTailQueue` — drains
each busy period in one scheduled event instead of one event per packet:
serialisation finish times of a FIFO work-conserving link are fully
determined the moment it goes busy, so the drain event computes them by
accumulation (``t += size/rate``, float-identical to the per-packet
schedule arithmetic), draws loss in the same per-packet order, and
schedules every arrival directly.  Buffer semantics are preserved
exactly through phantom byte-holds (:meth:`DropTailQueue.hold`): a
drained packet's bytes keep occupying the queue until the instant its
serialisation would have started, so queue-full drop decisions match the
classic path bit-for-bit.  What batching *does* change is the event
stream itself (fewer events, different eids), which is why it is opt-in
and excluded from the golden-trace byte-identity guarantee — its
equivalence tests compare semantics (arrivals, FCTs, drop counts)
instead of digests.
"""

from __future__ import annotations

import os
from typing import Optional, Protocol

from repro.core.units import Bytes, BytesPerSec, Seconds
from repro.net.netem import BandwidthProfile, ConstantBandwidth, JitterModel, LossModel
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.obs import records as obsrec
from repro.sim.engine import Simulator


class Receiver(Protocol):
    """Anything that can accept a packet (host, router)."""

    def receive(self, packet: Packet) -> None: ...


class Link:
    """One direction of a link: queue → serialiser → propagation → dst."""

    __slots__ = ("sim", "dst", "bandwidth", "delay", "queue", "jitter",
                 "loss", "name", "_busy", "_last_arrival", "packets_sent",
                 "bytes_sent", "packets_lost", "obs", "_m_bytes", "_m_drops",
                 "_m_qlen", "_set_now", "_batch")

    def __init__(self, sim: Simulator, dst: Receiver, bandwidth: BandwidthProfile,
                 delay: Seconds, queue: Optional[DropTailQueue] = None,
                 jitter: Optional[JitterModel] = None,
                 loss: Optional[LossModel] = None,
                 name: str = "link",
                 batch: Optional[bool] = None) -> None:
        if delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if isinstance(bandwidth, (int, float)):
            # ConstantBandwidth validates the scalar (positive + finite),
            # so a zero/negative/NaN rate fails here instead of poisoning
            # serialisation times downstream.
            bandwidth = ConstantBandwidth(float(bandwidth))
        self.sim = sim
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(10**9, name=f"{name}.q")
        self.jitter = jitter
        self.loss = loss
        self.name = name
        self._busy = False
        self._last_arrival: Seconds = 0.0
        self.packets_sent = 0
        self.bytes_sent: Bytes = 0
        self.packets_lost = 0
        # Hoisted once: the per-send cost of the CoDel time hint is a
        # pointer test instead of a hasattr() call.
        self._set_now = getattr(self.queue, "set_now", None)
        if batch is None:
            batch = os.environ.get(
                "REPRO_LINK_BATCH", "").strip().lower() in ("1", "on", "true", "yes")
        self._batch = bool(batch) and self.batch_eligible
        # Metric handles are resolved once here so the per-packet cost of
        # instrumentation is a single ``is not None`` test when disabled.
        self.obs = sim.obs
        if self.obs is not None:
            m = self.obs.metrics
            self._m_bytes = m.counter("link.bytes_sent", link=name)
            self._m_drops = m.counter("link.drops", link=name)
            self._m_qlen = m.histogram("link.queue_bytes", link=name)

    @property
    def batch_eligible(self) -> bool:
        """Whether batched drain would preserve semantics on this link.

        Requires a fixed rate (finish times computable in advance), no
        jitter (samples are drawn with the current clock), and a plain
        drop-tail queue (AQM drop decisions depend on per-packet pop
        times).  Bernoulli loss is fine: draws happen in serialisation
        order either way, so the RNG stream is unchanged.
        """
        return (type(self.bandwidth) is ConstantBandwidth
                and self.jitter is None
                and type(self.queue) is DropTailQueue)

    @property
    def batch_active(self) -> bool:
        """True when this link is actually draining in batched mode."""
        return self._batch

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; False means the queue dropped it."""
        if self._batch:
            # Release phantom holds whose serialisation has started so the
            # drop decision below sees the classic path's exact occupancy.
            self.queue.settle(self.sim.now)
        elif self._set_now is not None:
            self._set_now(self.sim.now)
        if not self.queue.push(packet):
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(f"{self.name}: queue full")
            if self.obs is not None:
                self._note_drop(packet, "queue_full")
            return False
        if self.obs is not None:
            self._m_qlen.observe(self.queue.bytes_queued)
        if not self._busy:
            self._start_next()
        return True

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if self._batch:
            self._drain_batch()
            return
        drops_before = self.queue.drops
        packet = self.queue.pop(self.sim.now)
        if self.queue.drops > drops_before:
            # AQM (CoDel) head drops happen inside pop().
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(
                    f"{self.name}: AQM drop", self.queue.drops - drops_before)
            if self.obs is not None:
                self._m_drops.add(self.queue.drops - drops_before)
                self.obs.emit(self.sim.now, obsrec.PKT_DROP, -1,
                              link=self.name, reason="aqm",
                              count=self.queue.drops - drops_before)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        rate = self.bandwidth.rate_at(self.sim.now)
        tx_time = packet.size / rate
        self.sim.schedule(tx_time, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if self.obs is not None:
            self._m_bytes.add(packet.size)
        if self.loss is not None and self.loss.drops():
            self.packets_lost += 1
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(f"{self.name}: random loss")
            if self.obs is not None:
                self._note_drop(packet, "random_loss")
        else:
            prop = self.delay
            if self.jitter is not None:
                prop += self.jitter.sample(self.sim.now)
            # Jitter must not reorder: real-path delay variation comes from
            # queueing, which preserves FIFO order.  Clamp each arrival to
            # be no earlier than the previous one.
            arrival = max(self.sim.now + prop, self._last_arrival)
            self._last_arrival = arrival
            self.sim.schedule_at(arrival, self.dst.receive, packet)
        self._start_next()

    def _drain_batch(self) -> None:
        """Serialise everything queued right now in a single event.

        A FIFO work-conserving link's finish times are fully determined
        once it goes busy: ``finish_i = finish_{i-1} + size_i/rate`` —
        the accumulation below produces the identical floats (same
        operand order) as the classic per-packet schedule.  Each drained
        packet's bytes are re-held in the queue until its serialisation
        start (the classic pop instant), so arriving traffic sees the
        exact same occupancy and drop decisions.  The single follow-up
        event at the busy period's end re-drains whatever queued up
        meanwhile, which is also exactly when the classic path would
        have started serialising it.
        """
        sim = self.sim
        queue = self.queue
        t = sim.now
        queue.settle(t)
        packet = queue.pop(t)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        obs = self.obs
        loss = self.loss
        delay = self.delay
        rate = self.bandwidth.rate
        is_head = True
        while packet is not None:
            start = t
            size = packet.size
            t = t + size / rate
            self.packets_sent += 1
            self.bytes_sent += size
            if is_head:
                # The head packet's serialisation starts now — the classic
                # path pops it immediately, so no hold is needed.
                is_head = False
            else:
                # Its buffer bytes stay occupied until serialisation
                # starts at ``start``.
                queue.hold(start, size)
            if obs is not None:
                self._m_bytes.add(size)
            if loss is not None and loss.drops():
                self.packets_lost += 1
                if sim.sanitizer is not None:
                    sim.sanitizer.note_network_drop(f"{self.name}: random loss")
                if obs is not None:
                    self._note_drop(packet, "random_loss", when=t)
            else:
                arrival = t + delay
                last = self._last_arrival
                if arrival < last:
                    arrival = last
                self._last_arrival = arrival
                sim.schedule_at(arrival, self.dst.receive, packet)
            packet = queue.pop(t)
        sim.schedule_at(t, self._drain_batch)

    def _note_drop(self, packet: Packet, reason: str,
                   when: Optional[Seconds] = None) -> None:
        self._m_drops.add(1)
        self.obs.emit(self.sim.now if when is None else when,
                      obsrec.PKT_DROP, packet.flow_id,
                      link=self.name, reason=reason, seq=packet.seq,
                      size=packet.size)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    def utilization_rate(self) -> BytesPerSec:
        """Mean bytes/second pushed through the link so far."""
        if self.sim.now <= 0.0:
            return 0.0
        return self.bytes_sent / self.sim.now
