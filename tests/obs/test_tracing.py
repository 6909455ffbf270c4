"""Causal restoration tracing: span trees, critical paths, round-trips.

Covers the tentpole invariants end to end: child spans nest inside
their parents, the critical path sums to the episode's restoration
latency, the tracer's loss accounting *sums* across merges, and both
export formats (NDJSON, Chrome trace-event JSON) round-trip losslessly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UnrecoverableFailureError
from repro.graph.generators import node_id
from repro.multicast.tree import MulticastTree
from repro.core.recovery import (
    estimate_restoration_latency,
    global_detour_recovery,
    local_detour_recovery,
)
from repro.obs import Observability
from repro.obs.tracing import (
    Episode,
    RestorationTracer,
    TraceAnalyzer,
    TraceSpan,
    chrome_trace_document,
    critical_path,
    read_trace_ndjson,
    validate_episode,
    write_trace_ndjson,
)
from repro.routing.failure_view import FailureSet
from repro.routing.link_state import ConvergenceModel
from repro.sim.failures import FailureSchedule
from repro.sim.protocols import SmrpSimulation
from tests.obs.chrome_oracle import episodes_from_chrome


def _episode(outcome: str = "restored") -> Episode:
    return Episode.new(
        "ep-test-000000-local-7", "test", 7, "local", "measure",
        "link 1-2", 0.0, outcome=outcome,
    )


class TestEpisodeStructure:
    def test_new_creates_root_span(self):
        ep = _episode()
        assert ep.root.span_id == 0
        assert ep.root.parent_id == -1
        assert ep.root.phase == "episode"
        assert ep.latency == 0.0

    def test_close_sets_latency(self):
        ep = _episode()
        ep.close(42.5)
        assert ep.end == 42.5
        assert ep.latency == 42.5

    def test_children_sorted_by_interval(self):
        ep = _episode()
        late = ep.add("signal", 7, 10.0, 20.0)
        early = ep.add("detect", 7, 0.0, 10.0)
        ep.close(20.0)
        kids = ep.children(0)
        assert [s.span_id for s in kids] == [early, late]

    def test_from_dict_rejects_empty_spans(self):
        with pytest.raises(ConfigurationError):
            Episode.from_dict({"id": "x", "member": 1, "strategy": "local"})

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError):
            Episode.from_dict({"id": "x"})

    def test_dict_round_trip(self):
        ep = _episode()
        ep.add("detect", 7, 0.0, 30.0, payload={"detection_delay": 30.0})
        ep.close(30.0)
        assert Episode.from_dict(ep.to_dict()).to_dict() == ep.to_dict()


class TestCriticalPath:
    def test_tiling_children_refine_the_root(self):
        ep = _episode()
        ep.add("detect", 7, 0.0, 30.0)
        ep.add("signal", 7, 30.0, 50.0)
        ep.close(50.0)
        path = critical_path(ep)
        assert [s.phase for s in path] == ["detect", "signal"]
        assert math.fsum(s.duration for s in path) == ep.latency

    def test_refinement_recurses_into_tiling_grandchildren(self):
        ep = _episode()
        ep.add("detect", 7, 0.0, 30.0)
        signal = ep.add("signal", 7, 30.0, 50.0)
        ep.add("signal.hop", 8, 30.0, 40.0, parent=signal)
        ep.add("signal.hop", 9, 40.0, 50.0, parent=signal)
        ep.close(50.0)
        path = critical_path(ep)
        assert [s.phase for s in path] == ["detect", "signal.hop", "signal.hop"]
        assert math.fsum(s.duration for s in path) == ep.latency

    def test_sparse_children_leave_parent_unrefined(self):
        # A DES repair window with message hops that do not cover it:
        # the window itself stays on the path, so the sum is preserved.
        ep = _episode()
        ep.add("detect", 7, 0.0, 30.0)
        repair = ep.add("repair", 7, 30.0, 50.0)
        ep.add("signal.hop", 8, 33.0, 36.0, parent=repair)
        ep.close(50.0)
        path = critical_path(ep)
        assert [s.phase for s in path] == ["detect", "repair"]
        assert math.fsum(s.duration for s in path) == ep.latency

    def test_zero_width_spans_tile(self):
        # The measurement model charges zero sim-time for the search.
        ep = _episode()
        ep.add("detect", 7, 0.0, 30.0)
        ep.add("search", 7, 30.0, 30.0)
        ep.add("signal", 7, 30.0, 45.0)
        ep.close(45.0)
        assert [s.phase for s in critical_path(ep)] == [
            "detect", "search", "signal",
        ]

    def test_gap_before_first_child_blocks_refinement(self):
        ep = _episode()
        ep.add("signal", 7, 5.0, 20.0)
        ep.close(20.0)
        assert [s.phase for s in critical_path(ep)] == ["episode"]


class TestValidateEpisode:
    def test_valid_episode_has_no_problems(self):
        ep = _episode()
        ep.add("detect", 7, 0.0, 30.0)
        ep.add("signal", 7, 30.0, 50.0)
        ep.close(50.0)
        assert validate_episode(ep) == []

    def test_child_escaping_parent_interval(self):
        ep = _episode()
        ep.close(10.0)
        ep.add("signal", 7, 5.0, 25.0)
        problems = validate_episode(ep)
        assert any("escapes parent" in p for p in problems)

    def test_span_ending_before_it_starts(self):
        ep = _episode()
        ep.close(10.0)
        ep.add("detect", 7, 8.0, 2.0)
        problems = validate_episode(ep)
        assert any("ends before it starts" in p for p in problems)

    def test_unknown_parent(self):
        ep = _episode()
        ep.close(10.0)
        ep.spans.append(
            TraceSpan(span_id=1, parent_id=99, phase="detect", node=7,
                      start=0.0, end=1.0)
        )
        problems = validate_episode(ep)
        assert any("unknown parent" in p for p in problems)

    def test_second_root_rejected(self):
        ep = _episode()
        ep.spans.append(
            TraceSpan(span_id=1, parent_id=-1, phase="episode", node=7,
                      start=0.0, end=0.0)
        )
        problems = validate_episode(ep)
        assert any("exactly one root" in p for p in problems)

    def test_duplicate_span_ids(self):
        ep = _episode()
        ep.add("detect", 7, 0.0, 5.0)
        ep.close(5.0)
        ep.spans.append(
            TraceSpan(span_id=1, parent_id=0, phase="detect", node=7,
                      start=0.0, end=5.0)
        )
        problems = validate_episode(ep)
        assert any("duplicate span ids" in p for p in problems)


class TestTracerLifecycle:
    def test_open_close_emits_one_episode(self):
        tracer = RestorationTracer()
        tracer.begin_scenario("k1")
        handle = tracer.open(3, "local", "link 1-3", 100.0)
        handle.child("detect", 3, 100.0, 112.0)
        tracer.close(3, 130.0)
        assert len(tracer.episodes) == 1
        ep = tracer.episodes[0]
        assert ep.episode_id == "ep-k1-000000-local-3"
        assert ep.outcome == "restored"
        assert ep.latency == 30.0
        assert tracer.open_for(3) is None
        assert validate_episode(ep) == []

    def test_open_phase_end_filled_at_close(self):
        tracer = RestorationTracer()
        handle = tracer.open(3, "local", "f", 10.0)
        span_id = handle.open_phase("repair", 3, 12.0)
        assert handle.current_phase() == span_id
        tracer.close(3, 40.0)
        span = tracer.episodes[0].spans[span_id]
        assert span.end == 40.0
        assert handle.current_phase() == 0

    def test_close_trims_spans_past_restoration_time(self):
        # A message hop still in flight when service restores would
        # escape the root interval; finalize drops it (and its subtree).
        tracer = RestorationTracer()
        handle = tracer.open(3, "local", "f", 0.0)
        handle.child("detect", 3, 0.0, 10.0)
        straggler = handle.child("signal", 3, 10.0, 99.0)
        handle.child("signal.hop", 4, 10.0, 99.0, parent=straggler)
        tracer.close(3, 20.0)
        assert tracer.trimmed == 2
        ep = tracer.episodes[0]
        assert [s.phase for s in ep.spans] == ["episode", "detect"]
        assert validate_episode(ep) == []

    def test_reopen_same_member_abandons_stale_episode(self):
        tracer = RestorationTracer()
        tracer.open(3, "local", "first", 0.0)
        tracer.open(3, "local", "second", 50.0)
        tracer.close(3, 60.0)
        assert tracer.abandoned == 1
        assert len(tracer.episodes) == 1
        assert tracer.episodes[0].failure == "second"

    def test_abandon_discards_without_emitting(self):
        tracer = RestorationTracer()
        tracer.open(3, "local", "f", 0.0)
        tracer.abandon(3)
        tracer.abandon(3)  # idempotent
        assert tracer.abandoned == 1
        assert tracer.episodes == []

    def test_finalize_closes_open_episodes_as_incomplete(self):
        tracer = RestorationTracer()
        handle = tracer.open(3, "global", "f", 0.0)
        handle.child("detect", 3, 0.0, 12.0)
        tracer.finalize()
        assert len(tracer.episodes) == 1
        ep = tracer.episodes[0]
        assert ep.outcome == "incomplete"
        assert ep.end == 12.0  # latest observed span end
        assert validate_episode(ep) == []

    def test_max_episodes_drops_count(self):
        tracer = RestorationTracer(max_episodes=2)
        for i in range(5):
            ep = _episode()
            ep.episode_id = f"ep-{i}"
            tracer.emit(ep)
        assert len(tracer.episodes) == 2
        assert tracer.dropped == 3

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            RestorationTracer(max_episodes=0)

    def test_emit_renames_colliding_ids(self):
        # The quick-figures grid runs the same scenario config in more
        # than one figure; ids must stay unique across the batch.
        tracer = RestorationTracer()
        for _ in range(3):
            tracer.emit(_episode())
        ids = [e.episode_id for e in tracer.episodes]
        assert ids == [
            "ep-test-000000-local-7",
            "ep-test-000000-local-7#1",
            "ep-test-000000-local-7#2",
        ]

    def test_ambient_instant_prefers_open_episode_for_node(self):
        tracer = RestorationTracer()
        tracer.bind_clock(lambda: 7.5)
        tracer.open(3, "local", "f", 0.0)
        tracer.open(4, "local", "f", 0.0)
        tracer.ambient_instant("reshape.evaluate", 3)
        tracer.close(3, 10.0)
        tracer.close(4, 10.0)
        by_member = {e.member: e for e in tracer.episodes}
        assert [s.phase for s in by_member[3].spans] == [
            "episode", "reshape.evaluate",
        ]
        assert [s.phase for s in by_member[4].spans] == ["episode"]

    def test_ambient_instant_noop_when_nothing_open(self):
        tracer = RestorationTracer()
        tracer.bind_clock(lambda: 7.5)
        tracer.ambient_instant("reshape.evaluate", 3)
        assert tracer.episodes == []


class TestMergeAccounting:
    """Worker reports fold in with SUMMED loss counters (satellite #2)."""

    def _worker_report(self, key: str, dropped: int) -> dict:
        tracer = RestorationTracer(max_episodes=1)
        tracer.begin_scenario(key)
        for i in range(1 + dropped):
            ep = Episode.new(
                tracer.next_episode_id(i, "local"), key, i, "local",
                "measure", "f", 0.0,
            )
            tracer.emit(ep)
        tracer.trimmed = 2
        tracer.abandoned = 1
        assert tracer.dropped == dropped
        return tracer.report()

    def test_absorb_sums_loss_counters(self):
        parent = RestorationTracer()
        parent.absorb(self._worker_report("w1", dropped=3))
        parent.absorb(self._worker_report("w2", dropped=2))
        assert parent.dropped == 5  # 3 + 2, not last-write-win
        assert parent.trimmed == 4
        assert parent.abandoned == 2
        assert len(parent.episodes) == 2

    def test_absorb_preserves_episode_content(self):
        worker = RestorationTracer()
        worker.begin_scenario("w")
        handle = worker.open(3, "global", "link 1-2", 5.0)
        handle.child("converge", 3, 5.0, 20.0)
        worker.close(3, 25.0)
        parent = RestorationTracer()
        parent.absorb(worker.report())
        assert [e.to_dict() for e in parent.episodes] == [
            e.to_dict() for e in worker.episodes
        ]

    def test_absorb_renames_cross_worker_collisions(self):
        report = self._worker_report("same", dropped=0)
        parent = RestorationTracer()
        parent.absorb(report)
        parent.absorb(report)
        ids = [e.episode_id for e in parent.episodes]
        assert len(set(ids)) == 2
        assert ids[1].endswith("#1")


class TestMeasurementIntegration:
    """Episodes from the closed-form model agree with the figures' numbers."""

    @pytest.fixture
    def fig1_tree(self, fig1):
        tree = MulticastTree(fig1, node_id("S"))
        tree.graft([node_id("S"), node_id("A"), node_id("C")])
        tree.graft([node_id("A"), node_id("D")])
        return tree

    @pytest.fixture
    def failure(self):
        return FailureSet.links((node_id("A"), node_id("D")))

    def _traced(self):
        return Observability(enabled=False, tracer=RestorationTracer())

    def test_local_episode_matches_latency_estimate(
        self, fig1, fig1_tree, failure
    ):
        obs = self._traced()
        result = local_detour_recovery(
            fig1, fig1_tree, node_id("D"), failure, obs=obs
        )
        assert len(obs.tracer.episodes) == 1
        ep = obs.tracer.episodes[0]
        assert ep.strategy == "local"
        assert ep.outcome == "restored"
        assert validate_episode(ep) == []
        assert ep.latency == estimate_restoration_latency(
            fig1, fig1_tree, result, failure
        )
        phases = [s.phase for s in critical_path(ep)]
        assert phases[0] == "detect"
        assert "converge" not in phases  # the paper's point
        assert phases.count("signal.hop") == result.recovery_hops

    def test_global_episode_includes_convergence_wait(
        self, fig1, fig1_tree, failure
    ):
        obs = self._traced()
        result = global_detour_recovery(
            fig1, fig1_tree, node_id("D"), failure, obs=obs
        )
        ep = obs.tracer.episodes[0]
        assert validate_episode(ep) == []
        assert ep.latency == estimate_restoration_latency(
            fig1, fig1_tree, result, failure
        )
        phases = [s.phase for s in critical_path(ep)]
        assert phases[0] == "converge"
        # The convergence wait dominates: it is the detection delay plus
        # LSA propagation, always >= the local strategy's detect window.
        converge = next(s for s in ep.spans if s.phase == "converge")
        assert converge.duration >= ConvergenceModel().detection_delay

    def test_already_connected_member_emits_zero_latency_episode(
        self, fig1, fig1_tree, failure
    ):
        obs = self._traced()
        local_detour_recovery(fig1, fig1_tree, node_id("C"), failure, obs=obs)
        ep = obs.tracer.episodes[0]
        assert ep.outcome == "already_connected"
        assert validate_episode(ep) == []

    def test_unrecoverable_member_emits_detect_only_episode(
        self, fig1, fig1_tree
    ):
        obs = self._traced()
        with pytest.raises(UnrecoverableFailureError):
            local_detour_recovery(
                fig1, fig1_tree, node_id("D"),
                FailureSet.nodes(node_id("S")), obs=obs,
            )
        ep = obs.tracer.episodes[0]
        assert ep.outcome == "unrecoverable"
        assert [s.phase for s in ep.spans] == ["episode", "detect"]
        assert validate_episode(ep) == []

    def test_analyzer_excludes_unmeasurable_outcomes(
        self, fig1, fig1_tree, failure
    ):
        obs = self._traced()
        local_detour_recovery(fig1, fig1_tree, node_id("D"), failure, obs=obs)
        with pytest.raises(UnrecoverableFailureError):
            local_detour_recovery(
                fig1, fig1_tree, node_id("D"),
                FailureSet.nodes(node_id("S")), obs=obs,
            )
        analyzer = TraceAnalyzer(obs.tracer.episodes)
        assert analyzer.check() == []
        assert analyzer.outcome_counts() == {"restored": 1, "unrecoverable": 1}
        stats = analyzer.latency_stats()
        assert stats["local"]["count"] == 1  # unrecoverable excluded


class TestDesIntegration:
    """Episodes from the discrete-event simulation match its own records."""

    def _run_fig1_failure(self, fig1):
        obs = Observability(enabled=False, tracer=RestorationTracer())
        obs.tracer.begin_scenario("des-test")
        sim = SmrpSimulation(fig1, node_id("S"), d_thresh=0.0, obs=obs)
        sim.schedule_join(10.0, node_id("C"))
        sim.schedule_join(20.0, node_id("D"))
        FailureSchedule().fail_link_at(100.0, node_id("A"), node_id("D")).arm(
            sim.sim, sim.network
        )
        sim.run(until=300.0)
        obs.tracer.finalize()
        return sim, obs.tracer

    def test_episode_latency_matches_recovery_record(self, fig1):
        sim, tracer = self._run_fig1_failure(fig1)
        restored = [
            r for r in sim.recovery_records if r.restored_at is not None
        ]
        assert restored
        episodes = {
            e.member: e for e in tracer.episodes if e.outcome == "restored"
        }
        for record in restored:
            ep = episodes[record.detector]
            assert ep.origin == "des"
            assert ep.latency == pytest.approx(record.restoration_latency)

    def test_des_episode_spans_nest_and_sum(self, fig1):
        _, tracer = self._run_fig1_failure(fig1)
        assert tracer.episodes
        for ep in tracer.episodes:
            assert validate_episode(ep) == []
            path = critical_path(ep)
            assert math.fsum(s.duration for s in path) == pytest.approx(
                ep.latency
            )

    def test_des_episode_ids_carry_scenario_key(self, fig1):
        _, tracer = self._run_fig1_failure(fig1)
        assert all(
            e.episode_id.startswith("ep-des-test-") for e in tracer.episodes
        )


# ----------------------------------------------------------------------
# Property-based round-trips (satellite #3)
# ----------------------------------------------------------------------
# Dyadic rationals: exact under the +/- arithmetic the Chrome exporter
# uses (ts + dur), so round-trip equality is exact, not approximate.
_times = st.integers(min_value=0, max_value=10**6).map(lambda n: n / 64)
_payloads = st.dictionaries(
    st.sampled_from(["link", "hops", "reason"]),
    st.one_of(st.integers(-100, 100), st.text(max_size=8)),
    max_size=2,
)


@st.composite
def _episodes(draw, index: int = 0):
    n_children = draw(st.integers(min_value=0, max_value=5))
    start, end = sorted(
        draw(st.tuples(_times, _times), label="root interval")
    )
    eid = draw(st.text(st.characters(codec="ascii", min_codepoint=33,
                                     max_codepoint=126), min_size=1,
                       max_size=12))
    episode = Episode.new(
        f"{eid}-{index}",
        draw(st.sampled_from(["", "k1", "k2"])),
        draw(st.integers(0, 50)),
        draw(st.sampled_from(["local", "global"])),
        draw(st.sampled_from(["measure", "repair", "des"])),
        draw(st.text(max_size=10)),
        start,
    )
    episode.close(end)
    for _ in range(n_children):
        a, b = sorted(draw(st.tuples(_times, _times)))
        parent = draw(st.integers(0, len(episode.spans) - 1))
        episode.add(
            draw(st.sampled_from(["detect", "converge", "signal", "repair"])),
            draw(st.integers(0, 50)),
            a,
            b,
            parent=parent,
            payload=draw(_payloads),
        )
    return episode


def _episode_batch():
    return st.lists(st.integers(), min_size=0, max_size=4).flatmap(
        lambda seeds: st.tuples(
            *[_episodes(index=i) for i in range(len(seeds))]
        ).map(list)
    )


class TestRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(batch=_episode_batch())
    def test_ndjson_round_trip(self, batch, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "t.ndjson")
        wrote = write_trace_ndjson(
            batch, path, dropped=3, trimmed=1, abandoned=2
        )
        assert wrote == len(batch)
        loaded = read_trace_ndjson(path)
        assert (loaded.dropped, loaded.trimmed, loaded.abandoned) == (3, 1, 2)
        expected = sorted(batch, key=lambda e: e.episode_id)
        assert [e.to_dict() for e in loaded.episodes] == [
            e.to_dict() for e in expected
        ]

    @settings(max_examples=40, deadline=None)
    @given(batch=_episode_batch())
    def test_chrome_round_trip(self, batch):
        document = chrome_trace_document(batch)
        rebuilt = episodes_from_chrome(document)
        expected = sorted(batch, key=lambda e: e.episode_id)
        assert [e.to_dict() for e in rebuilt] == [
            e.to_dict() for e in expected
        ]

    def test_chrome_rejects_non_document(self):
        with pytest.raises(ConfigurationError):
            episodes_from_chrome({"foo": 1})

    def test_chrome_rejects_rootless_episode(self):
        document = {
            "traceEvents": [{
                "ph": "X", "name": "detect", "ts": 0, "dur": 1,
                "pid": 1, "tid": 1,
                "args": {"episode": "e", "span": 1, "parent": 0, "node": 0},
            }]
        }
        with pytest.raises(ConfigurationError):
            episodes_from_chrome(document)

    def test_ndjson_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            read_trace_ndjson(str(path))

    def test_ndjson_rejects_a_record_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.ndjson"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigurationError, match="list.ndjson:1: corrupt"):
            read_trace_ndjson(str(path))

    def test_ndjson_torn_last_episode_raises_the_header_count(self, tmp_path):
        first, second = _episode(), _episode()
        second.episode_id = "ep-test-000001-local-7"
        for ep in (first, second):
            ep.close(5.0)
        path = tmp_path / "torn.ndjson"
        write_trace_ndjson([first, second], str(path))
        data = path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[: last + 20])  # killed mid-append
        with pytest.raises(
            ConfigurationError, match="declares 2 episodes but 1 loaded"
        ):
            read_trace_ndjson(str(path))

    def test_ndjson_tolerates_missing_header(self, tmp_path):
        ep = _episode()
        ep.close(5.0)
        import json

        path = tmp_path / "raw.ndjson"
        path.write_text(json.dumps(ep.to_dict()) + "\n")
        loaded = read_trace_ndjson(str(path))
        assert len(loaded.episodes) == 1
        assert loaded.dropped == 0
