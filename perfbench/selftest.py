#!/usr/bin/env python3
"""Self-tests of the benchmark, at a reduced input size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks:

(a) every packet workload's digest is byte-identical under the fast and
    the classic engine backends;
(b) the traced run reproduces the untraced digest, so the layer
    wrappers do not perturb the simulation (the packet pool's refcount
    guard sees the wrappers' extra references);
(c) two seeds give different digests on every workload, so the seed
    really perturbs the run;
(d) every count metric (call counts per layer, wrapped-call counts,
    model counts) repeats exactly across two runs of one seed.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import SpanTracer, count_calls  # noqa: E402
from perfbench.run import WORKDIR, make_workload  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: input scale per workload (1.0 = the benchmark's size)
SCALE = {"bulk-long": 0.1, "web-churn": 0.1, "routed-traced": 0.1,
         "fleet-sweep": 0.01}


def _make(name: str, seed: int):
    return make_workload(name, seed, SCALE[name])


def _outcome(batch):
    return batch.digest, batch.data_pkts, sorted(batch.counts.items())


def _traced(workload):
    with SpanTracer() as tracer:
        batch = workload.run_batch(hooks=tracer)
    return batch, dict(tracer.calls)


def check(name: str) -> list:
    """Every violated check on one workload, as messages."""
    problems = []
    workload = _make(name, 1)
    base = workload.run_batch()
    problems += [f"{name}: {msg}" for msg in base.failures]
    # Counted right after an untraced batch, as the benchmark does: the
    # traced run's wrappers hold packet references, which makes the
    # packet pool refuse to recycle them and changes how many packets
    # the next batch has to construct.
    counts = [count_calls(workload.run_batch)[1] for _ in range(2)]
    if counts[0] != counts[1]:
        problems.append(f"{name} (d): per-layer call counts differ between "
                        f"runs: {counts[0]} vs {counts[1]}")

    if workload.packet:
        classic = workload.run_batch(backend="classic")
        if _outcome(classic) != _outcome(base):
            problems.append(f"{name} (a): classic backend digest differs")

    traced, calls_1 = _traced(workload)
    if _outcome(traced) != _outcome(base):
        problems.append(f"{name} (b): traced digest differs from untraced")

    other = _make(name, 2).run_batch()
    if other.digest == base.digest:
        problems.append(f"{name} (c): seeds 1 and 2 give the same digest")

    again, calls_2 = _traced(workload)
    if calls_2 != calls_1:
        problems.append(f"{name} (d): wrapped-call counts differ between "
                        f"runs")
    if _outcome(again) != _outcome(base):
        problems.append(f"{name} (d): model counts differ between runs")
    return problems


def main() -> int:
    problems = []
    for name in WORKLOADS:
        found = check(name)
        print(f"{'FAIL' if found else 'PASS'} {name}")
        problems += found
    try:
        WORKDIR.rmdir()
    except OSError:
        pass
    for message in problems:
        print(f"  {message}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
