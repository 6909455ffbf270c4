"""Property tests for the HDR (log-bucketed) histogram.

The contracts the rest of the repo leans on:

- **Bounded relative error**: ``quantile(q)`` is within the bucket
  midpoint's relative error (``growth**0.5 - 1``) of the exact sample
  quantile; ``quantile(0)``/``quantile(1)`` are exactly min/max.
- **Order independence**: merge is commutative and associative, and the
  same observations in any order (or split across any sharding) produce
  the *identical* histogram — that is what makes sharded figure tables
  byte-identical to serial ones.  The ``integral`` flag is part of that
  state: it holds exactly when every observation was an ``int``.
- **Integer exactness**: an integral series of values up to 57 reports
  every quantile and its total exactly.
- **Serialization**: ``to_dict``/``from_dict`` round-trips exactly, and
  run-report merging via ``repro.obs.merge`` preserves every value.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings, strategies as st

from repro.obs import Observability
from repro.obs.merge import merge_report_into
from repro.obs.registry import DEFAULT_HDR_GROWTH, HdrHistogram

#: Latency-shaped positive values across several decades, plus exact
#: floats so boundary values (1.0, powers of the growth factor) appear.
values = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**6).map(float),
)
samples = st.lists(values, min_size=1, max_size=200)
#: Hop-count-shaped series: all integers, or integers mixed with floats.
integers = st.integers(min_value=0, max_value=200)
mixed_samples = st.one_of(
    st.lists(integers, min_size=1, max_size=200),
    st.lists(st.one_of(values, integers), min_size=1, max_size=200),
)

#: Worst-case relative error of a bucket midpoint, with float slack.
TOLERANCE = (DEFAULT_HDR_GROWTH ** 0.5 - 1) * 1.01 + 1e-12


def build(vals, name="t.h") -> HdrHistogram:
    h = HdrHistogram(name)
    for v in vals:
        h.observe(v)
    return h


def exact_quantile(vals: list[float], q: float) -> float:
    """Nearest-rank quantile: the value at rank ``ceil(q * n)``."""
    ordered = sorted(vals)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def as_state(h: HdrHistogram) -> tuple:
    """Full observable state, for exact-equality comparisons."""
    return (
        h.growth, sorted(h.counts.items()), h.zero_count, h.count,
        h.min, h.max, h.total, h.mean, h.integral,
    )


class TestQuantileAccuracy:
    @settings(max_examples=100, deadline=None)
    @given(samples, st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_relative_error(self, vals, q):
        h = build(vals)
        estimate = h.quantile(q)
        exact = exact_quantile(vals, q)
        if exact <= 0:
            # Non-positive values share the zero bucket; the estimate
            # for a rank that lands there is the exact minimum.
            assert estimate <= max(0.0, h.min) + 1e-12
        else:
            assert abs(estimate - exact) <= TOLERANCE * exact

    @settings(max_examples=60, deadline=None)
    @given(samples)
    def test_extremes_are_exact(self, vals):
        h = build(vals)
        assert h.quantile(0.0) == min(vals)
        assert h.quantile(1.0) == max(vals)

    def test_empty_quantile_is_none(self):
        assert HdrHistogram("t.h").quantile(0.5) is None

    @settings(max_examples=60, deadline=None)
    @given(samples)
    def test_count_and_mean_track_samples(self, vals):
        h = build(vals)
        assert h.count == len(vals)
        positive = [v for v in vals if v > 0]
        approx_total = sum(h.bucket_value(h.bucket_index(v)) for v in positive)
        assert math.isclose(h.total, approx_total, rel_tol=1e-9, abs_tol=1e-12)


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(mixed_samples, mixed_samples)
    def test_merge_is_commutative(self, a_vals, b_vals):
        ab = build(a_vals)
        ab.merge(build(b_vals))
        ba = build(b_vals)
        ba.merge(build(a_vals))
        assert as_state(ab) == as_state(ba)

    @settings(max_examples=40, deadline=None)
    @given(mixed_samples, mixed_samples, mixed_samples)
    def test_merge_is_associative(self, a_vals, b_vals, c_vals):
        left = build(a_vals)
        left.merge(build(b_vals))
        left.merge(build(c_vals))
        bc = build(b_vals)
        bc.merge(build(c_vals))
        right = build(a_vals)
        right.merge(bc)
        assert as_state(left) == as_state(right)

    @settings(max_examples=60, deadline=None)
    @given(mixed_samples, st.integers(min_value=1, max_value=8))
    def test_sharded_merge_equals_serial(self, vals, shards):
        """Any sharding of the observations merges back to the serial
        histogram exactly — the byte-identity invariant."""
        serial = build(vals)
        merged = HdrHistogram("t.h")
        for i in range(shards):
            merged.merge(build(vals[i::shards]))
        assert as_state(merged) == as_state(serial)
        assert serial.to_dict() == merged.to_dict()


    @settings(max_examples=60, deadline=None)
    @given(mixed_samples, st.integers(min_value=1, max_value=8), st.randoms())
    def test_integral_flag_is_order_free(self, vals, shards, rnd):
        """Shards merged in any order agree with the serial histogram,
        and are integral exactly when every observation was an int."""
        parts = [build(vals[i::shards]) for i in range(shards)]
        rnd.shuffle(parts)
        merged = HdrHistogram("t.h")
        for part in parts:
            merged.merge(part)
        assert merged.integral == all(isinstance(v, int) for v in vals)
        assert as_state(merged) == as_state(build(vals))


class TestIntegerExactness:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=57), min_size=1,
                 max_size=200),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_small_integer_series_are_exact(self, vals, q):
        h = build(vals)
        assert h.integral
        assert h.quantile(q) == exact_quantile(vals, q)
        assert h.total == sum(vals)


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(mixed_samples)
    def test_round_trip_is_exact(self, vals):
        h = build(vals)
        payload = json.loads(json.dumps(h.to_dict()))
        back = HdrHistogram.from_dict(h.name, payload)
        assert as_state(back) == as_state(h)
        assert back.to_dict() == h.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(samples, st.integers(min_value=1, max_value=4))
    def test_worker_report_merge_matches_serial(self, vals, shards):
        """Worker run-reports carrying hdr histograms fold into the
        parent via ``merge_report_into`` with no value drift."""
        serial_obs = Observability(enabled=True)
        serial_hist = serial_obs.hdr_histogram("t.h")
        for v in vals:
            serial_hist.observe(v)

        parent = Observability(enabled=True)
        for i in range(shards):
            worker = Observability(enabled=True)
            hist = worker.hdr_histogram("t.h")
            for v in vals[i::shards]:
                hist.observe(v)
            merge_report_into(parent, worker.run_report())
        merged = parent.run_report()["metrics"]["hdr_histograms"]["t.h"]
        serial = serial_obs.run_report()["metrics"]["hdr_histograms"]["t.h"]
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
