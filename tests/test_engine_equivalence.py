"""Differential equivalence: the fast engine must be bit-identical to classic.

The fast backend (:mod:`repro.sim.fastengine`) restructures the event core
for speed but promises *byte-identical* behaviour: same clock values, same
eids and provenance, same golden-trace digests.  This suite is the proof:

* a seed x scenario x CC matrix runs every configuration under both
  backends and compares full-trace SHA-256 digests (eids included);
* hypothesis property tests mirror random schedule/cancel/run-slice
  programs on both engines and check heap invariants (non-decreasing
  fire order, FIFO at equal times, cancel-then-pop skips);
* sanitizer rules and ``repro explain`` causal chains behave identically
  under the fast backend;
* batched link serialisation — which *does* change the event stream and
  is therefore opt-in — is checked for semantic equivalence instead
  (arrivals, FCTs, drop/loss counts), including a congested buffer where
  the phantom-hold accounting must reproduce classic drop decisions.
"""

import math
import random as _random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import goldens
from repro.experiments.runner import run_single_flow
from repro.net.link import Link
from repro.net.netem import LossModel
from repro.net.node import Host
from repro.net.queue import DropTailQueue
from repro.obs.causal import CausalIndex, explain_event
from repro.obs.sinks import DigestSink
from repro.obs.tracer import Observability, Tracer
from repro.sim import Simulator
from repro.sim.fastengine import FastSimulator
from repro.tcp import open_transfer
from repro.workloads import INTERNET_SCENARIOS

SEEDS = (1, 2, 3)
#: clean short-RTT wired path; jittery varying-bandwidth wifi; long-RTT 4g
SCENARIOS = ("google-tokyo/wired", "nz-campus/wifi", "oracle-london/4g")
CCS = ("reno", "cubic", "cubic+suss")
SIZE_BYTES = 150_000


def _capture(backend, scenario, cc, seed, monkeypatch):
    """One fixed-seed download under ``backend``; digest + run facts."""
    monkeypatch.setenv("REPRO_ENGINE", backend)
    # Batched serialisation changes the event stream by design and is
    # excluded from byte-identity; pin it off regardless of environment.
    monkeypatch.setenv("REPRO_LINK_BATCH", "0")
    sink = DigestSink()
    obs = Observability(tracer=Tracer(sink))
    result = run_single_flow(INTERNET_SCENARIOS[scenario], cc, SIZE_BYTES,
                             seed=seed, obs=obs)
    obs.close()
    assert result.completed, f"{scenario}/{cc}/seed={seed} did not finish"
    return {
        "digest": sink.digest(),
        "records": sink.records,
        "fct": result.fct,
        "retransmissions": result.retransmissions,
        "data_packets": result.data_packets_sent,
    }


class TestDifferentialMatrix:
    """Golden-trace byte-identity across seed x scenario x CC."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("cc", CCS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_classic_and_fast_traces_are_byte_identical(
            self, scenario, cc, seed, monkeypatch):
        classic = _capture("classic", scenario, cc, seed, monkeypatch)
        fast = _capture("fast", scenario, cc, seed, monkeypatch)
        # The digest covers every record's time, eid, peid, and payload —
        # equality here is byte-identity of the full JSONL trace.
        assert fast == classic

    def test_matrix_is_large_enough(self):
        """The acceptance floor: >= 3 seeds x 3 scenarios x 3 CCs."""
        assert len(SEEDS) >= 3 and len(SCENARIOS) >= 3 and len(CCS) >= 3


class TestExplainChainEquivalence:
    """``repro explain`` causal chains are backend-independent."""

    def test_explain_chain_identical_on_committed_golden(self, monkeypatch):
        name = "cubic+suss"
        chains = {}
        monkeypatch.setenv("REPRO_LINK_BATCH", "0")
        for backend in ("classic", "fast"):
            monkeypatch.setenv("REPRO_ENGINE", backend)
            index = CausalIndex(goldens.capture_records(name))
            # A mid-trace event with a real ancestry, not a root emission.
            eid = max(index._by_eid)
            mid = sorted(index._by_eid)[len(index._by_eid) // 2]
            chains[backend] = (explain_event(index, mid),
                              explain_event(index, eid))
        assert chains["fast"] == chains["classic"]
        assert chains["fast"][0]["found"]
        assert chains["fast"][0]["complete"]

    def test_fast_capture_matches_committed_digest(self, monkeypatch):
        """The committed goldens were captured pre-rewrite; the fast
        backend must still reproduce them bit-for-bit."""
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        monkeypatch.setenv("REPRO_LINK_BATCH", "0")
        from repro.obs.golden import load_digests
        index = load_digests(goldens.DEFAULT_GOLDEN_DIR)
        assert goldens.capture_digest("cubic") == index["cubic"]["digest"]


# ----------------------------------------------------------------------
# hypothesis: random schedule/cancel/run-slice programs on both engines
# ----------------------------------------------------------------------
_delays = st.floats(min_value=0.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _delays),
        # a callback that schedules a child event ``arg`` seconds later
        st.tuples(st.just("parent"), _delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        # run(until=now + arg)
        st.tuples(st.just("until"), st.floats(min_value=0.0, max_value=5.0,
                                              allow_nan=False)),
        st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    min_size=1, max_size=40)


class TestHeapProperties:
    @settings(max_examples=60, deadline=None)
    @given(program=_ops)
    def test_random_programs_fire_identically(self, program):
        """Classic and fast engines fire the same callbacks in the same
        order at the same clock values for any program of schedules,
        cancels (of top-level and child events) and run slices —
        ``run(until=...)``, ``run(max_events=...)``, ``step()`` and a
        final drain — and agree on the clock, both event counters and
        the process engine-event counter after every slice."""
        from repro.obs.runtime import counters

        logs = []
        for backend in ("classic", "fast"):
            sim = Simulator(sanitizer=None, obs=None, backend=backend)
            log = []
            handles = []

            def fire(i, child_delay=None, s=sim):
                log.append((i, s.now, s.current_eid))
                if child_delay is not None:
                    handles.append(s.schedule(child_delay, fire, -i))

            def run_slice(label, run):
                counted = counters.engine_events
                result = run()
                log.append((label, result, sim.now, sim.events_processed,
                            sim.pending_events,
                            counters.engine_events - counted))

            for i, (op, arg) in enumerate(program):
                if op == "sched":
                    handles.append(sim.schedule(arg, fire, i))
                elif op == "parent":
                    handles.append(sim.schedule(arg, fire, i, arg / 2))
                elif op == "cancel":
                    if handles:
                        sim.cancel_event(handles[arg % len(handles)])
                elif op == "until":
                    run_slice(op, lambda: sim.run(until=sim.now + arg))
                elif op == "max_events":
                    run_slice(op, lambda: sim.run(max_events=arg))
                else:
                    run_slice(op, sim.step)
            run_slice("end", sim.run)
            logs.append(log)
        assert logs[0] == logs[1]

    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=30))
    def test_fire_order_is_non_decreasing_and_fifo(self, times):
        """Fire times never decrease; equal times fire in schedule order."""
        for backend in ("classic", "fast"):
            sim = Simulator(sanitizer=None, obs=None, backend=backend)
            fired = []
            for i, t in enumerate(times):
                sim.schedule(t, lambda t=t, i=i: fired.append((t, i)))
            sim.run()
            assert fired == sorted(fired), backend

    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=30),
           data=st.data())
    def test_cancelled_events_are_skipped(self, times, data):
        """Cancel-then-pop: cancelled events never fire, on either backend."""
        doomed = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(times) - 1), min_size=1))
        for backend in ("classic", "fast"):
            sim = Simulator(sanitizer=None, obs=None, backend=backend)
            fired = []
            handles = [sim.schedule(t, fired.append, i)
                       for i, t in enumerate(times)]
            for i in doomed:
                sim.cancel_event(handles[i])
            sim.run()
            assert set(fired) == set(range(len(times))) - doomed, backend
            assert sim.pending_events == 0, backend


# ----------------------------------------------------------------------
# sanitizer + error paths under the fast backend
# ----------------------------------------------------------------------
class TestSanitizedFastBackend:
    def test_san001_fires_through_fast_schedule(self):
        from repro.analysis.sanitize import SanitizeError, SimSanitizer
        sim = Simulator(sanitizer=SimSanitizer(), backend="fast")
        assert isinstance(sim, FastSimulator)
        with pytest.raises(SanitizeError, match="SAN001"):
            sim.schedule_at(math.inf, lambda: None)

    def test_sanitized_transfer_identical_across_backends(self, monkeypatch):
        """SAN002-005 hooks run on every event; a clean sanitized run
        must pass and trace identically on both backends."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        runs = {}
        for backend in ("classic", "fast"):
            monkeypatch.setenv("REPRO_ENGINE", backend)
            sink = DigestSink()
            obs = Observability(tracer=Tracer(sink))
            result = run_single_flow(INTERNET_SCENARIOS["google-tokyo/wired"],
                                     "cubic+suss", 120_000, seed=5, obs=obs)
            obs.close()
            runs[backend] = (sink.digest(), result.fct, result.completed)
        assert runs["fast"] == runs["classic"]
        assert runs["fast"][2]

    def test_broken_cwnd_caught_under_fast(self, monkeypatch):
        from repro.analysis.sanitize import SanitizeError

        from .helpers import MSS, make_transfer
        from .test_analysis_sanitize import _BrokenCwndCC
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        bench = make_transfer(cc=_BrokenCwndCC(), size=50 * MSS)
        assert isinstance(bench.sim, FastSimulator)
        with pytest.raises(SanitizeError, match="SAN004"):
            bench.run()


# ----------------------------------------------------------------------
# batched serialisation: semantic (not byte) equivalence
# ----------------------------------------------------------------------
def _batch_transfer(batch, loss_seed=None, capacity=30_000,
                    size=800_000):
    """A congested dumbbell transfer; returns observable outcomes."""
    sim = Simulator(sanitizer=None, obs=None)
    a, b = Host("a"), Host("b")
    loss = (LossModel(0.01, rng=_random.Random(loss_seed))
            if loss_seed is not None else None)
    a.uplink = Link(sim, b, 1.25e6, 0.04,
                    queue=DropTailQueue(capacity, name="q1"),
                    loss=loss, batch=batch)
    b.uplink = Link(sim, a, 12.5e6, 0.04,
                    queue=DropTailQueue(250_000, name="q2"), batch=batch)
    transfer = open_transfer(sim, a, b, flow_id=1, size_bytes=size,
                             cc="cubic")
    sim.run(until=60.0)
    return {
        "completed": transfer.completed,
        "fct": transfer.fct,
        "queue_drops": a.uplink.queue.drops,
        "random_losses": a.uplink.packets_lost,
        "packets": (a.uplink.packets_sent, b.uplink.packets_sent),
        "bytes": (a.uplink.bytes_sent, b.uplink.bytes_sent),
        "retransmissions": transfer.sender.retransmissions,
        "events": sim.events_processed,
    }


class TestBatchedLinkEquivalence:
    @pytest.mark.parametrize("loss_seed", [None, 7, 11])
    def test_congested_transfer_outcomes_identical(self, loss_seed):
        """FCT, queue-full drops (phantom-hold exactness), random-loss
        draws (RNG order preserved), and retransmissions all match; only
        the event count shrinks."""
        off = _batch_transfer(False, loss_seed)
        on = _batch_transfer(True, loss_seed)
        events_off, events_on = off.pop("events"), on.pop("events")
        assert on == off
        assert events_on < events_off
        # Every parametrization exercises at least one drop mechanism.
        assert off["queue_drops"] > 0 or off["random_losses"] > 0

    def test_batch_requires_eligible_link(self):
        from repro.net.netem import JitterModel
        from repro.net.queue import CoDelQueue
        sim = Simulator(sanitizer=None, obs=None)
        sink = Host("b")
        jittery = Link(sim, sink, 1e6, 0.01,
                       jitter=JitterModel(0.0), batch=True)
        aqm = Link(sim, sink, 1e6, 0.01,
                   queue=CoDelQueue(50_000), batch=True)
        plain = Link(sim, sink, 1e6, 0.01, batch=True)
        assert not jittery.batch_active and not jittery.batch_eligible
        assert not aqm.batch_active and not aqm.batch_eligible
        assert plain.batch_active and plain.batch_eligible

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINK_BATCH", "1")
        sim = Simulator(sanitizer=None, obs=None)
        link = Link(sim, Host("b"), 1e6, 0.01)
        assert link.batch_active

    def test_phantom_holds_settle_with_time(self):
        """hold() bytes occupy the buffer until their release time."""
        q = DropTailQueue(10_000)
        q.hold(1.0, 4_000)
        q.hold(2.0, 4_000)
        assert q.bytes_queued == 8_000
        q.settle(0.5)
        assert q.bytes_queued == 8_000
        q.settle(1.0)  # inclusive: release at exactly the start instant
        assert q.bytes_queued == 4_000
        q.settle(3.0)
        assert q.bytes_queued == 0
