"""Per-layer attribution measured from outside the program.

Two instruments, both living in the benchmark's own files:

* :class:`SpanTracer` replaces each layer's entry points (the functions
  other layers or the engine call into) with timing wrappers.  Every
  call becomes a span; a layer's *self time* is the span's duration
  minus the time covered by the spans it caused, so nested calls into
  other layers are charged to those layers.  Spans are aggregated in
  memory per entry point (calls, inclusive seconds) and per layer (self
  seconds) and printed when the run ends.
* :func:`count_calls` runs one batch under :mod:`cProfile` with no
  wrappers installed and rolls the exact call counts up by the package
  each function lives in, which gives deterministic calls-per-packet
  proxies that do not depend on host speed.

The entry points are wrapped on their classes and modules *before* a
batch builds its network: links bind ``dst.receive`` and queues bind
``telemetry.on_drop`` when they are wired, so a later patch would miss
them.  Engine callbacks (link serialisation, pacer and RTO timers, SUSS
pacing ticks) are wrapped too, so that what remains as the engine's own
self time is dispatch work alone.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: The repository's packages, used as the layer names.
LAYERS = ("sim", "net", "tcp", "cc", "core", "metrics", "obs", "flowsim",
          "workloads", "campaign")

#: (layer, module, class or None for a module function, attribute)
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("net", "repro.net.link", "Link", "send"),
    ("net", "repro.net.link", "Link", "_finish_transmission"),
    ("net", "repro.net.link", "Link", "_drain_batch"),
    ("net", "repro.net.node", "Host", "transmit"),
    ("net", "repro.net.node", "Host", "receive"),
    ("net", "repro.net.node", "Router", "receive"),
    ("net", "repro.net.node", "Router", "forward"),
    ("tcp", "repro.tcp.connection", None, "open_transfer"),
    ("tcp", "repro.tcp.sender", "TcpSender", "start"),
    ("tcp", "repro.tcp.sender", "TcpSender", "on_packet"),
    ("tcp", "repro.tcp.sender", "TcpSender", "_maybe_send"),
    ("tcp", "repro.tcp.sender", "TcpSender", "_on_rto"),
    ("tcp", "repro.tcp.receiver", "TcpReceiver", "on_packet"),
    ("tcp", "repro.tcp.receiver", "TcpReceiver", "_delack_fire"),
    ("cc", "repro.cc.cubic", "Cubic", "on_ack"),
    ("cc", "repro.cc.cubic", "Cubic", "on_round_start"),
    ("cc", "repro.cc.cubic", "Cubic", "on_loss"),
    ("cc", "repro.cc.cubic", "Cubic", "on_rto"),
    ("cc", "repro.cc.hystart", "HyStart", "on_ack"),
    ("cc", "repro.cc.hystart", "HyStart", "on_round_start"),
    ("core", "repro.core.suss", "SussCubic", "on_ack"),
    ("core", "repro.core.suss", "SussCubic", "on_round_start"),
    ("core", "repro.core.suss", "SussCubic", "on_loss"),
    ("core", "repro.core.suss", "SussCubic", "on_rto"),
    ("core", "repro.core.suss", "SussCubic", "_pacing_tick"),
    ("core", "repro.core.suss", "SussCubic", "_snapshot_blue_end"),
    ("core", "repro.core.hystart_mod", "SussHyStart", "on_ack"),
    ("core", "repro.core.hystart_mod", "SussHyStart", "on_round_start"),
    ("metrics", "repro.metrics.collector", "Telemetry", "on_cwnd"),
    ("metrics", "repro.metrics.collector", "Telemetry", "on_rtt"),
    ("metrics", "repro.metrics.collector", "Telemetry", "on_send"),
    ("metrics", "repro.metrics.collector", "Telemetry", "on_delivered"),
    ("metrics", "repro.metrics.collector", "Telemetry", "on_flow_complete"),
    ("metrics", "repro.metrics.collector", "Telemetry", "on_drop"),
    ("obs", "repro.obs.tracer", "Observability", "emit"),
    ("obs", "repro.obs.metrics", "Counter", "add"),
    ("obs", "repro.obs.metrics", "Gauge", "set"),
    ("obs", "repro.obs.metrics", "Histogram", "observe"),
    # The flowsim driver binds these names at import, so they are
    # patched where it looks them up.
    ("flowsim", "repro.flowsim.driver", None, "run_sweep"),
    ("flowsim", "repro.flowsim.driver", None, "estimate_fleet"),
    ("flowsim", "repro.flowsim.driver", None, "merge_sweep_values"),
    ("flowsim", "repro.flowsim.csa00", "Csa00Model", "estimate"),
    ("workloads", "repro.flowsim.driver", None, "sample_flow_sizes"),
    ("metrics", "repro.flowsim.driver", None, "summarize"),
    ("campaign", "repro.campaign.scheduler", None, "run_campaign"),
    ("campaign", "repro.campaign.scheduler", None, "execute_job"),
    ("campaign", "repro.campaign.store", "ResultStore", "put"),
    ("campaign", "repro.campaign.store", "ResultStore", "get"),
)


class SpanTracer:
    """Self-time accounting over wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: one child-time accumulator per open span (root at the bottom)
        self._stack: List[List[float]] = [[0.0]]
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """A span-recording stand-in for ``fn``."""
        clock = time.perf_counter
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - children[0]
                incl_s[name] += elapsed
                calls[name] += 1

        return span

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, module_name, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            original = vars(owner)[attr]
            label = attr if owner_name is None else f"{owner_name}.{attr}"
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, label, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def table(self, total_s: float) -> str:
        """Per-entry-point calls and inclusive time, for the run log."""
        lines = [f"{'entry point':36s} {'calls':>10s} {'incl s':>9s}"]
        for name in sorted(self.calls, key=lambda n: -self.incl_s[n]):
            lines.append(f"{name:36s} {self.calls[name]:10d} "
                         f"{self.incl_s[name]:9.4f}")
        lines.append(f"{'layer':36s} {'self s':>10s} {'share':>9s}")
        for layer in sorted(self.self_s, key=lambda l: -self.self_s[l]):
            lines.append(f"{layer:36s} {self.self_s[layer]:10.4f} "
                         f"{self.self_s[layer] / total_s:9.4f}")
        return "\n".join(lines)


def _layer_of(code) -> str:
    """The package a profiled function belongs to ('builtins' for C)."""
    if isinstance(code, str):
        return "builtins"
    path = code.co_filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "bench" if "/perfbench/" in path else "other"
    package = path[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def count_calls(fn: Callable[[], object]) -> Tuple[object, Dict[str, int]]:
    """Run ``fn`` under cProfile; return its result and exact call counts
    per layer (plus ``builtins`` for C functions and ``total``)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    counts: Dict[str, int] = defaultdict(int)
    for entry in profiler.getstats():
        counts[_layer_of(entry.code)] += entry.callcount
    counts["total"] = sum(counts.values())
    return result, dict(counts)
