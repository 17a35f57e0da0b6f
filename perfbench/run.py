#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-long --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` runs the same batch under the layer
probes of :mod:`perfbench.layers` and reports the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every input is drawn from ``--seed``.  The program under test is the
``repro`` package in ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.  See
``perfbench/REPORT.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for the fleet-sweep result stores (inside the checkout)
WORKDIR = ROOT / ".perfbench-work"

#: set-up probes per run; setup_s is their median
SETUP_PROBES = 9
#: batches per run at least; the first one is a warm-up, not timed
MIN_BATCHES = 3
#: iterations of the host-speed reference loop timed between batches
REF_ITERATIONS = 2_000_000
#: the reference loop's host time on the nominal host that the timed
#: metrics are scaled to (about this loop's median on the host REPORT.md
#: describes)
REF_NOMINAL_S = 0.2
#: sim_digest is published as DIGEST_BASE + the first 32 bits of the
#: SHA-256, an exact integer whose relative spread across seeds is < 2^-16
DIGEST_BASE = 1 << 48

END_TO_END_UNITS = {
    "setup_s": "s",
    "data_pkts_per_s": "1/s",
    "flows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
    "sim_digest": "hash",
}

PER_LAYER_UNITS = {
    "py_calls_per_pkt": "count", "sim.events_per_pkt": "count",
    "sim.calls_per_pkt": "count", "sim.dispatch_share": "frac",
    "net.calls_per_pkt": "count", "net.share": "frac",
    "net.hops_per_pkt": "count", "tcp.calls_per_pkt": "count",
    "tcp.share": "frac", "tcp.open_us_per_flow": "us", "cc.share": "frac",
    "cc.on_ack_per_pkt": "count", "core.share": "frac",
    "core.round_starts": "count", "metrics.share": "frac",
    "tcp.retransmits": "count", "tcp.rtos": "count",
    "net.queue_drops": "count", "net.random_losses": "count",
    "obs.records": "count", "obs.share": "frac", "obs.us_per_record": "us",
    "flowsim.share": "frac", "flowsim.model_evals": "count",
    "workloads.sample_share": "frac", "campaign.overhead_share": "frac",
    "campaign.store_put_ms": "ms", "sim.fast_vs_classic": "ratio",
    "trace_overhead_frac": "frac",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, scale: float = 1.0):
    """The named workload with its inputs drawn from ``seed``."""
    from perfbench.workloads import WORKLOADS, FleetSweep
    cls = WORKLOADS[name]
    if cls is FleetSweep:
        WORKDIR.mkdir(exist_ok=True)
        return cls(seed, scale, workdir=WORKDIR)
    return cls(seed, scale)


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that import the program, set
    the workload up and stop at its first simulated event (or job)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _reference_seconds() -> float:
    """Host time of a fixed pure-Python loop that never touches the
    program under test: a gauge of how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def _timed(workload, **kwargs):
    start = time.perf_counter()
    batch = workload.run_batch(**kwargs)
    return time.perf_counter() - start, batch


class Checks:
    """Accumulates attempted work and every self-check violation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.reference = None

    def add(self, batch, label: str) -> None:
        self.attempted += batch.flows_attempted
        self.failed += min(len(batch.failures), batch.flows_attempted)
        self.messages += [f"{label}: {msg}" for msg in batch.failures]
        key = (batch.digest, batch.data_pkts, sorted(batch.counts.items()))
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            self.failed += 1
            self.messages.append(f"{label}: outcome differs from the first "
                                 f"batch of this seed")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _end_to_end(args, workload, checks: Checks) -> dict:
    setup_s = _setup_seconds(args)
    runs, ref_s = [], [_reference_seconds()]
    deadline = time.perf_counter() + args.seconds
    while len(runs) < MIN_BATCHES or time.perf_counter() < deadline:
        seconds, batch = _timed(workload)
        checks.add(batch, f"batch {len(runs) + 1}")
        runs.append((seconds, batch))
        ref_s.append(_reference_seconds())
    # Throughput over every batch after the warm-up, with the host seconds
    # (and the set-up time) rescaled to the nominal host: the shared host's
    # speed drifts by up to 2x over tens of seconds, and the reference loop
    # timed between the batches follows that drift (see REPORT.md).
    # ref_s[1:] are the loops run right before and after the timed batches.
    timed = runs[1:]
    host_s = sum(s for s, _ in timed)
    host_speed = REF_NOMINAL_S / statistics.fmean(ref_s[1:])
    nominal_s = host_s * host_speed
    batch = runs[0][1]
    print(f"sim_digest sha256={batch.digest} batches={len(runs)} "
          f"seconds={' '.join(f'{s:.3f}' for s, _ in runs)}")
    print(f"host_speed={host_speed:.4f} (reference loop "
          f"{' '.join(f'{s:.3f}' for s in ref_s)} s) raw setup_s={setup_s:.4f}"
          f" data_pkts_per_s={sum(b.data_pkts for _, b in timed) / host_s:.1f}")
    return {
        "setup_s": setup_s * host_speed,
        "data_pkts_per_s": sum(b.data_pkts for _, b in timed) / nominal_s,
        "flows_per_s": sum(b.flows_completed for _, b in timed) / nominal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "completed_frac": 1.0 - checks.failed / max(checks.attempted, 1),
        "sim_digest": DIGEST_BASE + int(batch.digest[:8] or "0", 16),
    }


def _per_layer(workload, checks: Checks) -> dict:
    from perfbench.layers import SpanTracer, count_calls

    checks.add(workload.run_batch(), "warm-up")
    fast_s, classic_s = [], []
    for i in range(2):
        seconds, batch = _timed(workload)
        checks.add(batch, f"fast {i + 1}")
        fast_s.append(seconds)
        if workload.packet:
            seconds, batch = _timed(workload, backend="classic")
            checks.add(batch, f"classic {i + 1}")
            classic_s.append(seconds)
    untraced_s = statistics.median(fast_s)

    batch, calls = count_calls(workload.run_batch)
    checks.add(batch, "call count")
    with SpanTracer() as tracer:
        traced_s, batch = _timed(workload, hooks=tracer)
    checks.add(batch, "traced")
    print(tracer.table(traced_s))
    print("calls by layer: " + " ".join(f"{k}={v}"
                                        for k, v in sorted(calls.items())))

    pkts = max(batch.data_pkts, 1)
    share = {layer: tracer.self_s.get(layer, 0.0) / traced_s
             for layer in ("sim", "net", "tcp", "cc", "core", "metrics",
                           "obs", "flowsim", "workloads")}
    counts = batch.counts
    records = counts.get("obs.records", 0)
    opened = tracer.incl_s.get("open_transfer", 0.0) \
        + tracer.incl_s.get("TcpSender.start", 0.0)
    campaign_overhead = tracer.incl_s.get("run_campaign", 0.0) \
        - tracer.incl_s.get("execute_job", 0.0)
    return {
        "py_calls_per_pkt": calls["total"] / pkts,
        "sim.events_per_pkt": batch.events / pkts,
        "sim.calls_per_pkt": calls.get("sim", 0) / pkts,
        "sim.dispatch_share": share["sim"],
        "net.calls_per_pkt": calls.get("net", 0) / pkts,
        "net.share": share["net"],
        "net.hops_per_pkt": tracer.calls_of("Link.send") / pkts,
        "tcp.calls_per_pkt": calls.get("tcp", 0) / pkts,
        "tcp.share": share["tcp"],
        "tcp.open_us_per_flow": (1e6 * opened / batch.flows_attempted
                                 if workload.packet else 0.0),
        "cc.share": share["cc"],
        "cc.on_ack_per_pkt": tracer.calls_of("Cubic.on_ack",
                                             "SussCubic.on_ack") / pkts,
        "core.share": share["core"],
        "core.round_starts": tracer.calls_of("SussCubic.on_round_start"),
        "metrics.share": share["metrics"],
        "tcp.retransmits": counts.get("tcp.retransmits", 0),
        "tcp.rtos": counts.get("tcp.rtos", 0),
        "net.queue_drops": counts.get("net.queue_drops", 0),
        "net.random_losses": counts.get("net.random_losses", 0),
        "obs.records": records,
        "obs.share": share["obs"],
        "obs.us_per_record": (1e6 * tracer.self_s.get("obs", 0.0) / records
                              if records else 0.0),
        "flowsim.share": share["flowsim"],
        "flowsim.model_evals": counts.get("flowsim.model_evals", 0),
        "workloads.sample_share": share["workloads"],
        "campaign.overhead_share": campaign_overhead / traced_s,
        "campaign.store_put_ms": 1e3 * tracer.incl_s.get("ResultStore.put",
                                                         0.0),
        "sim.fast_vs_classic": (statistics.median(classic_s) / untraced_s
                                if classic_s else 0.0),
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test ({SRC / 'repro'}) is "
              f"missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    if args.setup_probe:
        workload.run_batch(first_event_only=True)
        return 0

    checks = Checks()
    if args.trace:
        values, units = _per_layer(workload, checks), PER_LAYER_UNITS
    else:
        values, units = _end_to_end(args, workload, checks), END_TO_END_UNITS
    for message in checks.messages:
        print(f"CHECK FAILED {message}")
    try:
        WORKDIR.rmdir()
    except OSError:
        pass
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
