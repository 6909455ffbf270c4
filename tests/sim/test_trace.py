"""Trace filtering (keywords + predicates) and bounded-trace semantics."""

import pytest

from repro.sim.trace import Trace, TraceRecord


def _populated() -> Trace:
    t = Trace()
    t.record(1.0, "send", 0, "JoinReq", "to 1")
    t.record(2.0, "send", 1, "JoinAck", "to 0")
    t.record(3.0, "join", 2, "request")
    t.record(4.0, "send", 0, "JoinReq", "to 2")
    return t


class TestFiltering:
    def test_keyword_filters_still_work(self):
        t = _populated()
        assert len(list(t.filter(category="send"))) == 3
        assert len(list(t.filter(category="send", node=0))) == 2
        assert t.first(category="join").event == "request"
        assert t.first(category="nope") is None

    def test_positional_category_string(self):
        t = _populated()
        # Historical call style: first positional arg is the category.
        assert len(list(t.filter("send"))) == 3
        assert t.first("join").node == 2

    def test_predicate_callable(self):
        t = _populated()
        late = list(t.filter(lambda r: r.time > 1.5))
        assert [r.time for r in late] == [2.0, 3.0, 4.0]

    def test_predicate_combines_with_keywords(self):
        t = _populated()
        got = list(t.filter(lambda r: r.time < 2.5, category="send"))
        assert [r.event for r in got] == ["JoinReq", "JoinAck"]

    def test_positional_and_keyword_category_conflict(self):
        with pytest.raises(TypeError):
            list(_populated().filter("send", category="join"))

    def test_count(self):
        t = _populated()
        assert t.count() == 4
        assert t.count("send") == 3
        assert t.count("send", event="JoinReq") == 2
        assert t.count(lambda r: r.node == 0) == 2


class TestBounded:
    def test_drop_oldest_and_counter(self):
        t = Trace(max_records=3)
        for i in range(5):
            t.record(float(i), "c", i, "e")
        assert len(t) == 3
        assert t.dropped == 2
        assert [r.node for r in t.records] == [2, 3, 4]

    def test_unbounded_by_default(self):
        t = Trace()
        for i in range(10):
            t.record(float(i), "c", i, "e")
        assert len(t) == 10
        assert t.dropped == 0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            Trace(max_records=0)

    def test_accepts_prepopulated_list(self):
        records = [TraceRecord(1.0, "c", 0, "e")]
        t = Trace(records=records, max_records=2)
        t.record(2.0, "c", 1, "e")
        t.record(3.0, "c", 2, "e")
        assert t.dropped == 1
        assert [r.node for r in t.records] == [1, 2]


class TestDump:
    def test_dump_limit_on_bounded_trace(self):
        t = Trace(max_records=5)
        for i in range(5):
            t.record(float(i), "c", i, "e")
        assert len(t.dump(limit=2).splitlines()) == 2
        assert len(t.dump().splitlines()) == 5
