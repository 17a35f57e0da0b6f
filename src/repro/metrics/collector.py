"""Telemetry collection — the simulation analogue of the paper's kernel log.

The paper instruments the kernel to log TCP state variables (inflight,
cwnd, RTT, delivered data).  :class:`Telemetry` provides the same
visibility: TCP endpoints and queues call its hooks, and experiments read
the per-flow :class:`FlowTrace` records afterwards.

All hooks are cheap appends; a Telemetry object can be shared by every
flow in a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.packet import Packet
from repro.metrics.timeseries import TimeSeries


@dataclass
class FlowTrace:
    """Everything recorded about one flow."""

    flow_id: int
    cwnd: TimeSeries = field(default_factory=lambda: TimeSeries("cwnd"))
    inflight: TimeSeries = field(default_factory=lambda: TimeSeries("inflight"))
    rtt: TimeSeries = field(default_factory=lambda: TimeSeries("rtt"))
    delivered: TimeSeries = field(default_factory=lambda: TimeSeries("delivered"))
    data_packets_sent: int = 0
    retransmit_packets: int = 0
    drops: int = 0
    completion_time: Optional[float] = None

    @property
    def loss_rate(self) -> float:
        """Dropped data packets over data packets sent (paper Fig. 14/17)."""
        if self.data_packets_sent == 0:
            return 0.0
        return self.drops / self.data_packets_sent

    @property
    def retransmit_rate(self) -> float:
        if self.data_packets_sent == 0:
            return 0.0
        return self.retransmit_packets / self.data_packets_sent


class Telemetry:
    """Shared sink for per-flow instrumentation events."""

    def __init__(self, sample_cwnd: bool = True, sample_rtt: bool = True,
                 sample_delivered: bool = True) -> None:
        self.flows: Dict[int, FlowTrace] = {}
        self.sample_cwnd = sample_cwnd
        self.sample_rtt = sample_rtt
        self.sample_delivered = sample_delivered
        self.total_drops = 0

    def flow(self, flow_id: int) -> FlowTrace:
        if flow_id not in self.flows:
            self.flows[flow_id] = FlowTrace(flow_id)
        return self.flows[flow_id]

    # -- hooks called by the stack ----------------------------------------
    def on_cwnd(self, flow_id: int, now: float, cwnd: int, inflight: int) -> None:
        if not self.sample_cwnd:
            return
        trace = self.flow(flow_id)
        trace.cwnd.append(now, cwnd)
        trace.inflight.append(now, inflight)

    def on_rtt(self, flow_id: int, now: float, rtt: float) -> None:
        if self.sample_rtt:
            self.flow(flow_id).rtt.append(now, rtt)

    def on_send(self, flow_id: int, now: float, packet: Packet,
                retransmit: bool) -> None:
        trace = self.flow(flow_id)
        trace.data_packets_sent += 1
        if retransmit:
            trace.retransmit_packets += 1

    def on_delivered(self, flow_id: int, now: float, delivered: int) -> None:
        if self.sample_delivered:
            self.flow(flow_id).delivered.append(now, delivered)

    def on_flow_complete(self, flow_id: int, now: float) -> None:
        self.flow(flow_id).completion_time = now

    def on_drop(self, packet: Packet, queue_name: str) -> None:
        self.total_drops += 1
        self.flow(packet.flow_id).drops += 1

    # -- wiring helpers ----------------------------------------------------
    def attach_queue(self, queue) -> None:
        """Route a queue's drop events into this telemetry object."""
        queue.on_drop = self.on_drop
