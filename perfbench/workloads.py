"""The four benchmark workloads.

Each workload draws every input from its seed when it is constructed and
then runs the same *batch* as often as the timing loop asks.  A batch is
the unit the benchmark scores: it builds its network (or campaign) from
scratch, runs it to completion, checks its own outputs and returns a
:class:`Batch` with the work done, the failures found and a digest of the
simulated outcome.  Repeating a batch must reproduce its digest exactly,
so every repetition is also a determinism check.

Flow arrivals are open-loop Poisson processes in *simulated* time: the
arrival instants are fixed by the seed, so a slower host never reduces
the offered load, it only takes longer to get through the batch.

``hooks`` (a :class:`perfbench.layers.SpanTracer`, or None) lets the
traced run time the engine run loop and the benchmark's own arrival
callback; everything else is wrapped at class level before a batch
builds its network.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import campaign as _campaign
from repro.campaign import scheduler as _scheduler
from repro.flowsim import driver as _driver
from repro.flowsim.model import PathParams
from repro.metrics.collector import Telemetry
from repro.net import JitterModel, LossModel, bdp_bytes, build_dumbbell, build_path
from repro.net.topogen import build_topology, get_topo_scenario
from repro.obs import DigestSink, tracing
from repro.sim import Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.tcp import connection as _connection
from repro.workloads.distributions import heavy_tailed_flow_sizes

MB = 1_000_000
#: Simulated-time cap on a packet batch; every flow finishes long before.
SIM_TIME_CAP = 3600.0


@dataclass
class Batch:
    """Outcome of one batch: work done, self-check failures, digest."""

    flows_attempted: int
    flows_completed: int
    #: simulated data segments sent, retransmissions included; on
    #: fleet-sweep the MSS-sized segments of the modelled flows
    data_pkts: int
    events: int
    failures: List[str]
    digest: str
    #: deterministic model counts (must repeat exactly for a seed)
    counts: Dict[str, int] = field(default_factory=dict)


def _digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_sim(sim, hooks) -> None:
    run = sim.run if hooks is None else hooks.wrap("sim", "Simulator.run",
                                                    sim.run)
    run(until=SIM_TIME_CAP)


def _flow_rows(transfers, sizes) -> Tuple[List[list], List[str], int]:
    """Per-flow (FCT, retransmissions, data packets) rows plus the
    violations of the completion and in-order-delivery checks."""
    rows, failures, data_pkts = [], [], 0
    for flow_id, transfer in sorted(transfers.items()):
        sender, receiver = transfer.sender, transfer.receiver
        size = sizes[flow_id]
        data_pkts += sender.data_packets_sent
        if not transfer.completed:
            failures.append(f"flow {flow_id}: did not complete")
        elif receiver.bytes_delivered != size:
            failures.append(f"flow {flow_id}: receiver has "
                            f"{receiver.bytes_delivered} in-order bytes, "
                            f"expected {size}")
        rows.append([flow_id, size, repr(transfer.fct),
                     sender.retransmissions, sender.data_packets_sent])
    return rows, failures, data_pkts


def _completed(transfers) -> int:
    return sum(t.completed for t in transfers.values())


def _model_counts(transfers, links) -> Dict[str, int]:
    senders = [t.sender for t in transfers.values()]
    return {
        "tcp.retransmits": sum(s.retransmissions for s in senders),
        "tcp.rtos": sum(s.rto_count for s in senders),
        "net.queue_drops": sum(link.queue.drops for link in links),
        "net.random_losses": sum(link.packets_lost for link in links),
    }


# ----------------------------------------------------------------------
class BulkLong:
    """Two long downloads (CUBIC, CUBIC+SUSS) over a clean 100 Mbit/s,
    100 ms, 1-BDP path: the per-packet path with little else."""

    name = "bulk-long"
    packet = True
    RATE = 12_500_000          # bytes/s (100 Mbit/s)
    RTT = 0.100
    CCS = ("cubic", "cubic+suss")

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = random.Random(derive_seed(seed, "perfbench.bulk-long"))
        lo, hi = int(19.8 * MB * scale), int(20.2 * MB * scale)
        self.sizes = {i + 1: rng.randint(lo, hi) for i in range(len(self.CCS))}

    def run_batch(self, backend="fast", hooks=None, first_event_only=False):
        transfers, links, events = {}, [], 0
        for flow_id, cc in enumerate(self.CCS, start=1):
            sim = Simulator(sanitizer=None, obs=None, backend=backend)
            net = build_path(sim, self.RATE, self.RTT,
                             bdp_bytes(self.RATE, self.RTT))
            transfers[flow_id] = _connection.open_transfer(
                sim, net.servers[0], net.clients[0], flow_id=flow_id,
                size_bytes=self.sizes[flow_id], cc=cc)
            if first_event_only:
                sim.step()
                return None
            _run_sim(sim, hooks)
            events += sim.events_processed
            links += [net.bottleneck_fwd, net.bottleneck_rev,
                      *net.access_links]
        rows, failures, data_pkts = _flow_rows(transfers, self.sizes)
        return Batch(len(transfers), _completed(transfers), data_pkts,
                     events, failures, _digest(rows),
                     _model_counts(transfers, links))


# ----------------------------------------------------------------------
class _Stratified:
    """Uniform draws stratified over [0, 1): the n draws fall one in each
    interval [k/n, (k+1)/n), in a seed-shuffled order.  Fed to the
    repository's inverse-transform size sampler, it gives every seed a
    size mix of the same shape, so the seed changes which flow gets
    which size and when, not how heavy the batch's tail happens to be."""

    def __init__(self, n: int, rng: random.Random) -> None:
        strata = list(range(n))
        rng.shuffle(strata)
        self._draws = iter([(k + rng.random()) / n for k in strata])

    def random(self) -> float:
        return next(self._draws)


class _ArrivalWorkload:
    """Open-loop Poisson flow arrivals spread over host pairs, with
    alternating CUBIC / CUBIC+SUSS flows."""

    packet = True
    CCS = ("cubic", "cubic+suss")
    MIN_SIZE, MAX_SIZE, ALPHA = 10_000, 1_000_000, 1.2

    def _draw(self, seed: int, n_flows: int, n_pairs: int,
              rate_bytes: float, load: float) -> None:
        rng = random.Random(derive_seed(seed, f"perfbench.{self.name}"))
        sizes = heavy_tailed_flow_sizes(n_flows, _Stratified(n_flows, rng),
                                        alpha=self.ALPHA,
                                        minimum=self.MIN_SIZE,
                                        maximum=self.MAX_SIZE)
        flows_per_s = load * rate_bytes / (sum(sizes) / n_flows)
        t, self.arrivals = 0.0, []
        for i, size in enumerate(sizes):
            t += rng.expovariate(flows_per_s)
            self.arrivals.append((t, i + 1, rng.randrange(n_pairs), size,
                                  self.CCS[i % 2]))
        self.sizes = {flow_id: size
                      for _, flow_id, _, size, _ in self.arrivals}

    def _launch(self, sim, pairs, telemetry, hooks) -> Dict[int, object]:
        """Chain the arrivals: each one opens its flow and schedules the
        next, so the event heap holds one pending arrival at a time.
        Returns the flow-id -> transfer map the arrivals fill in."""
        arrivals = self.arrivals
        transfers: Dict[int, object] = {}

        def arrive(index: int) -> None:
            _, flow_id, pair, size, cc = arrivals[index]
            server, client = pairs[pair]
            transfers[flow_id] = _connection.open_transfer(
                sim, server, client, flow_id=flow_id, size_bytes=size,
                cc=cc, telemetry=telemetry)
            if index + 1 < len(arrivals):
                sim.schedule_at(arrivals[index + 1][0], arrive_cb, index + 1)

        arrive_cb = arrive if hooks is None else hooks.wrap(
            "bench", "arrival", arrive)
        sim.schedule_at(arrivals[0][0], arrive_cb, 0)
        return transfers

    def _finish(self, sim, transfers, links, trace_digest=None) -> Batch:
        rows, failures, data_pkts = _flow_rows(transfers, self.sizes)
        if len(transfers) != len(self.arrivals):
            failures.append(f"only {len(transfers)} of {len(self.arrivals)} "
                            f"flows arrived")
        digest = _digest(rows if trace_digest is None
                         else [rows, trace_digest])
        return Batch(len(self.arrivals), _completed(transfers), data_pkts,
                     sim.events_processed, failures, digest,
                     _model_counts(transfers, links))


class WebChurn(_ArrivalWorkload):
    """Short heavy-tailed flows on a 4-pair dumbbell with jitter and loss
    at the bottleneck and Telemetry sampling on."""

    name = "web-churn"
    RATE = 5_000_000           # bytes/s (40 Mbit/s)
    RTTS = (0.020, 0.050, 0.100, 0.200)
    JITTER, LOSS, LOAD = 0.002, 0.005, 0.7
    FLOWS = 900

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self._draw(seed, max(4, int(self.FLOWS * scale)), len(self.RTTS),
                   self.RATE, self.LOAD)

    def run_batch(self, backend="fast", hooks=None, first_event_only=False):
        rng = RngRegistry(derive_seed(self.seed, "perfbench.web-churn.netem"))
        sim = Simulator(sanitizer=None, obs=None, backend=backend)
        net = build_dumbbell(
            sim, len(self.RTTS), self.RATE, list(self.RTTS),
            bdp_bytes(self.RATE, 0.100),
            jitter=JitterModel(self.JITTER, rng.stream("jitter")),
            loss=LossModel(self.LOSS, rng.stream("loss")))
        telemetry = Telemetry()
        telemetry.attach_queue(net.bottleneck_queue)
        transfers = self._launch(sim, list(zip(net.servers, net.clients)),
                                 telemetry, hooks)
        if first_event_only:
            sim.step()
            return None
        _run_sim(sim, hooks)
        return self._finish(sim, transfers, [net.bottleneck_fwd,
                                             net.bottleneck_rev,
                                             *net.access_links])


class RoutedTraced(_ArrivalWorkload):
    """The topogen parking-lot-3 scenario with flows on all four declared
    host pairs and every trace record hashed into a DigestSink."""

    name = "routed-traced"
    SCENARIO = "parking-lot-3"
    LOAD_PER_PAIR = 0.3
    FLOWS = 400

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.spec = get_topo_scenario(self.SCENARIO)
        self.pair_names = ([(f.server, f.client) for f in self.spec.flows]
                           + [(c.server, c.client)
                              for c in self.spec.cross_traffic])
        hop_rate = min(link.rate for link in self.spec.links)
        n_pairs = len(self.pair_names)
        self._draw(seed, max(4, int(self.FLOWS * scale)), n_pairs,
                   hop_rate, self.LOAD_PER_PAIR * n_pairs)

    def run_batch(self, backend="fast", hooks=None, first_event_only=False):
        sink = DigestSink()
        sim = Simulator(sanitizer=None, obs=tracing(sink), backend=backend)
        built = build_topology(
            sim, self.spec,
            rng=RngRegistry(derive_seed(self.seed, "perfbench.routed.topo")))
        pairs = [(built.hosts[s], built.hosts[c]) for s, c in self.pair_names]
        transfers = self._launch(sim, pairs, None, hooks)
        if first_event_only:
            sim.step()
            return None
        _run_sim(sim, hooks)
        batch = self._finish(sim, transfers, built.links.values(),
                             sink.digest())
        batch.counts["obs.records"] = sink.records
        return batch


# ----------------------------------------------------------------------
class FleetSweep:
    """A sharded +/-SUSS flowsim sweep run inline through the campaign
    layer against a cold result store, then merged."""

    name = "fleet-sweep"
    packet = False
    FLOWS = 300_000
    SHARDS = 4
    PATH = PathParams(rtt=0.080, btl_bw=12_500_000, loss_rate=0.001)

    def __init__(self, seed: int, scale: float = 1.0,
                 workdir: Optional[Path] = None) -> None:
        self.flows = max(self.SHARDS, int(self.FLOWS * scale))
        self.sweep_seed = derive_seed(seed, "perfbench.fleet-sweep")
        self.workdir = workdir
        path = dataclasses.asdict(self.PATH)
        self.specs = [_campaign.flowsim_sweep_job(
            path, self.flows, size_dist="campus", seed=self.sweep_seed,
            shard=k, shards=self.SHARDS) for k in range(self.SHARDS)]

    def run_batch(self, backend="fast", hooks=None, first_event_only=False):
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            store = _campaign.ResultStore(root)
            if first_event_only:
                store.get(self.specs[0].job_hash)
                return None
            results = _scheduler.run_campaign(self.specs, jobs=1,
                                              store=store)
            n_stored = len(store)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        failures = [f"job {r.spec.label}: {r.status} {r.error}"
                    for r in results if r.status != "ok"]
        if failures:
            return Batch(len(self.specs), 0, 0, 0, failures, "", {})
        if n_stored != len(self.specs):
            failures.append(f"store holds {n_stored} of {len(self.specs)} "
                            f"results")
        merged = _driver.merge_sweep_values([r.value for r in results])
        modelled = sum(m["n"] for m in merged["models"].values())
        if modelled != 2 * self.flows:
            failures.append(f"modelled {modelled} flows, expected "
                            f"{2 * self.flows}")
        if not merged["improvement"] >= 0:
            failures.append(f"SUSS improvement {merged['improvement']!r} < 0")
        segments = sum(m["total_segments"] for m in merged["models"].values())
        evals = sum(m["distinct_segment_counts"]
                    for r in results for m in r.value["models"].values())
        return Batch(len(self.specs), modelled, segments, 0, failures,
                     _digest(merged), {"flowsim.model_evals": evals})


WORKLOADS: Dict[str, Callable[..., object]] = {
    cls.name: cls for cls in (BulkLong, WebChurn, RoutedTraced, FleetSweep)}
