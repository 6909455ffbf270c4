"""Micro-benchmarks guarding the cost of observability instrumentation.

The contract (``src/repro/obs``): instrumentation left in place but
*disabled* must not measurably slow the hot paths.  Two mechanisms are
under test:

- the DES engine binds instruments only when an enabled ``Observability``
  is supplied and guards each update with one attribute check — so the
  ``obs=None`` and disabled-obs code paths are identical;
- coarser layers call shared no-op instruments unconditionally, whose
  methods are empty.

Timing ratios between two benchmarked runs are noisy on shared CI
hardware, so the guard asserts a *lenient* bound (disabled obs within 2x
of uninstrumented) while the enabled-mode tests assert exact counter
semantics rather than timing.
"""

import pytest

from repro.obs import Observability
from repro.sim.engine import Simulator

EVENTS = 10_000


def _pump(sim: Simulator) -> int:
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < EVENTS:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    return count[0]


def test_des_throughput_without_obs(benchmark):
    assert benchmark(lambda: _pump(Simulator())) == EVENTS


def test_des_throughput_with_disabled_obs(benchmark):
    obs = Observability(enabled=False)
    assert benchmark(lambda: _pump(Simulator(obs=obs))) == EVENTS


def test_des_throughput_with_enabled_obs(benchmark):
    def run():
        obs = Observability()
        _pump(Simulator(obs=obs))
        return obs.metrics.counters("sim.engine.")["sim.engine.events_fired"]

    assert benchmark(run) == EVENTS


def test_disabled_obs_overhead_bounded():
    """Disabled observability stays within noise of no observability.

    Measured directly (not via pytest-benchmark) so the two timings come
    from the same interleaved loop and share warm caches; the 2x bound is
    deliberately lenient — the code paths are identical, so a real
    regression would blow far past it.
    """
    from time import perf_counter

    def best_of(make_sim, rounds=5):
        best = float("inf")
        for _ in range(rounds):
            sim = make_sim()
            start = perf_counter()
            _pump(sim)
            best = min(best, perf_counter() - start)
        return best

    best_of(Simulator)  # warm-up
    bare = best_of(Simulator)
    disabled = best_of(lambda: Simulator(obs=Observability(enabled=False)))
    assert disabled < bare * 2.0, (
        f"disabled obs slowed the DES hot loop: {disabled:.4f}s vs {bare:.4f}s"
    )


def test_disabled_obs_registers_nothing():
    obs = Observability(enabled=False)
    _pump(Simulator(obs=obs))
    assert obs.metrics.snapshot() == {
        "counters": {},
        "gauges": {},
        "hdr_histograms": {},
    }


def test_enabled_obs_counters_exact():
    obs = Observability()
    _pump(Simulator(obs=obs))
    counters = obs.metrics.counters("sim.engine.")
    assert counters["sim.engine.events_scheduled"] == EVENTS
    assert counters["sim.engine.events_fired"] == EVENTS
    assert counters["sim.engine.events_cancelled"] == 0


def test_null_instrument_calls_are_cheap():
    """A no-op counter inc costs on the order of a method call.

    Sanity check rather than a strict bound: a million no-op incs should
    complete in well under a second on any host.
    """
    from time import perf_counter

    counter = Observability(enabled=False).counter("x")
    start = perf_counter()
    for _ in range(1_000_000):
        counter.inc()
    elapsed = perf_counter() - start
    assert elapsed < 2.0, f"no-op counter unexpectedly slow: {elapsed:.3f}s"
