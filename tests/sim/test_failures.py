"""Tests for failure schedules and tracing."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import node_id
from repro.sim.engine import Simulator
from repro.sim.failures import FailureSchedule
from repro.sim.network import SimNetwork
from repro.sim.protocols import SmrpSimulation
from repro.sim.trace import Trace


class TestFailureSchedule:
    def test_link_failure_applies_at_time(self, line4):
        sim = Simulator()
        trace = Trace()
        network = SimNetwork(sim, line4, trace=trace)
        FailureSchedule().fail_link_at(5.0, 1, 2).arm(sim, network)
        sim.run(until=4.0)
        assert network.link_usable(1, 2)
        sim.run(until=6.0)
        assert not network.link_usable(1, 2)
        assert trace.first(category="failure", event="link_failed") is not None

    def test_node_failure_applies_at_time(self, line4):
        sim = Simulator()
        network = SimNetwork(sim, line4)
        FailureSchedule().fail_node_at(3.0, 2).arm(sim, network)
        sim.run(until=10.0)
        assert not network.node_alive(2)

    def test_multiple_failures(self, line4):
        sim = Simulator()
        network = SimNetwork(sim, line4)
        schedule = (
            FailureSchedule()
            .fail_link_at(1.0, 0, 1)
            .fail_link_at(2.0, 2, 3)
            .fail_node_at(3.0, 2)
        )
        schedule.arm(sim, network)
        sim.run(until=10.0)
        failures = network.current_failures
        assert failures.link_failed(0, 1)
        assert failures.link_failed(2, 3)
        assert failures.node_failed(2)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSchedule().fail_link_at(-1.0, 0, 1)
        with pytest.raises(ConfigurationError):
            FailureSchedule().fail_node_at(-1.0, 0)

    def test_is_empty(self):
        assert FailureSchedule().is_empty
        assert not FailureSchedule().fail_node_at(1.0, 0).is_empty

    def test_arming_twice_injects_once(self, line4):
        # A schedule armed twice on the same simulator must not schedule
        # its failures twice (double trace records, double obs counts).
        sim = Simulator()
        trace = Trace()
        network = SimNetwork(sim, line4, trace=trace)
        schedule = FailureSchedule().fail_link_at(5.0, 1, 2)
        schedule.arm(sim, network)
        schedule.arm(sim, network)  # idempotent no-op
        sim.run(until=10.0)
        records = list(trace.filter(category="failure", event="link_failed"))
        assert len(records) == 1
        assert not network.link_usable(1, 2)

    def test_same_schedule_arms_on_distinct_simulators(self, line4):
        # Idempotency is per simulator: the same schedule may drive two
        # independent runs.
        schedule = FailureSchedule().fail_link_at(5.0, 1, 2)
        for _ in range(2):
            sim = Simulator()
            network = SimNetwork(sim, line4)
            schedule.arm(sim, network)
            sim.run(until=10.0)
            assert not network.link_usable(1, 2)


class TestTrace:
    def test_filter_and_first(self):
        trace = Trace()
        trace.record(1.0, "join", 5, "request")
        trace.record(2.0, "join", 6, "ack")
        trace.record(3.0, "failure", 5, "detected")
        assert len(list(trace.filter(category="join"))) == 2
        assert trace.first(node=5, category="failure").event == "detected"
        assert trace.first(category="leave") is None

    def test_disabled_trace_records_nothing(self, fig4):
        # Tracing is off unless the caller passes a trace: nothing is kept.
        sim = SmrpSimulation(fig4, node_id("S"))
        assert sim.trace is None and sim.network.trace is None
        sim.schedule_join(10.0, node_id("E"))
        sim.run(until=60.0)
        assert sim.join_records[node_id("E")].latency is not None

    def test_dump_renders_lines(self):
        trace = Trace()
        trace.record(1.0, "join", 5, "request", detail="path 1-2")
        text = trace.dump()
        assert "join/request" in text and "path 1-2" in text
