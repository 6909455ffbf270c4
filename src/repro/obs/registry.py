"""The metrics registry: counters, gauges, and histograms.

Everything here is dependency-free and built for two regimes:

- **enabled** — instruments are plain mutable objects updated in place;
  reading them back (``snapshot``) is cheap and allocation happens only
  at registration time, never on the hot path;
- **disabled** — the registry hands out *shared no-op instruments*, so
  instrumented code keeps a single unconditional method call per event
  and pays no branching, formatting, or allocation cost.

Names are dotted strings (``"sim.engine.events_fired"``); per-message-type
series append the type as a final segment (``"sim.msg.sent.JoinReq"``).

Every distribution is one :class:`HdrHistogram`: log-spaced buckets
with bounded *relative* error for latency-shaped series, where tail
quantiles (p99, p99.9) are the signal, and exact values for series that
only ever observe integers (hop counts, §4.3/§4.4).
"""

from __future__ import annotations

from math import ceil, floor, log

from repro.errors import ConfigurationError

#: Default geometric bucket growth for :class:`HdrHistogram`.  Bucket
#: ``i`` spans ``[growth**i, growth**(i+1))`` and reports its geometric
#: midpoint, so the worst-case relative error is ``growth**0.5 - 1`` —
#: just under 1% at 1.02 (~116 buckets per decade).
DEFAULT_HDR_GROWTH: float = 1.02


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value; the high-water mark is kept alongside."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, hwm={self.high_water})"


class HdrHistogram:
    """Log-bucketed histogram with bounded relative error (HDR-style).

    Positive observations land in geometric buckets
    ``[growth**i, growth**(i+1))`` stored sparsely (``index -> count``);
    non-positive ones collapse into a dedicated zero bucket.  Exact
    ``min``/``max`` are kept alongside, so ``quantile(0)`` and
    ``quantile(1)`` are exact and interior quantiles are off by at most
    a factor of ``growth**0.5`` (the bucket midpoint).

    The derived ``total``/``mean`` are computed from the bucket counts
    in ascending index order — never from a running float sum — so two
    histograms holding the same observations are *identical* regardless
    of observation or merge order.  That is what lets sharded runs merge
    worker histograms and still render byte-identical tables.

    While every observation is a Python ``int`` (hop counts), ``integral``
    stays true and a bucket reports its midpoint rounded to an integer.
    At the default growth a bucket then reads back exactly the integer it
    holds for every value up to 57, so such series render exact means and
    quantiles (above that, the rounding adds at most 0.5 to the midpoint
    error).  The flag is derived, never chosen: one float observation,
    or a merge with a non-integral series, clears it for good.

    Examples
    --------
    >>> h = HdrHistogram("demo.latency")
    >>> for v in (10, 20, 30, 40, 1000):
    ...     h.observe(v)
    >>> h.count
    5
    >>> h.quantile(1.0)
    1000
    >>> abs(h.quantile(0.5) - 30) / 30 < 0.01
    True
    >>> hops = HdrHistogram("demo.hops")
    >>> for v in (1, 1, 2, 3):
    ...     hops.observe(v)
    >>> hops.quantile(0.5), hops.mean
    (1, 1.75)
    """

    __slots__ = (
        "name", "growth", "counts", "zero_count", "count", "min", "max",
        "integral", "_log_growth",
    )

    def __init__(self, name: str, growth: float = DEFAULT_HDR_GROWTH) -> None:
        if not growth > 1.0:
            raise ConfigurationError(
                f"hdr histogram {name!r} needs growth > 1, got {growth!r}"
            )
        self.name = name
        self.growth = float(growth)
        self._log_growth = log(self.growth)
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None
        self.integral = True

    def bucket_index(self, value: float) -> int:
        """Index ``i`` with ``growth**i <= value < growth**(i+1)``."""
        index = floor(log(value) / self._log_growth)
        # Snap float imprecision at bucket boundaries: log() can land a
        # value one bucket off its own edge, which would make indexing
        # (and therefore merged snapshots) platform-dependent.
        if value < self.growth ** index:
            index -= 1
        elif value >= self.growth ** (index + 1):
            index += 1
        return index

    def bucket_value(self, index: int) -> float:
        """The bucket's reported representative: its geometric midpoint,
        rounded to an integer while the series is :attr:`integral`."""
        if self.integral:
            return round(self.growth ** (index + 0.5))
        return self.growth ** (index + 0.5)

    def observe(self, value: float) -> None:
        if self.integral and not isinstance(value, int):
            self.integral = False
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1

    @property
    def total(self) -> float:
        """Approximate sum, derived from bucket counts (order-free)."""
        acc = 0.0
        for index in sorted(self.counts):
            acc += self.counts[index] * self.bucket_value(index)
        return acc

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """The value at rank ``ceil(q * count)``, or ``None`` when empty.

        The walk finds the bucket holding the target rank and reports
        its midpoint, clamped into the exact observed ``[min, max]`` —
        clamping can only move the estimate *within* the found bucket,
        so the relative-error bound survives it.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile q must be in [0, 1], got {q!r}")
        if not self.count:
            return None
        target = max(1, ceil(q * self.count))
        # The first and last ranks are the exact extrema — return them
        # directly so quantile(0) == min and quantile(1) == max.
        if target >= self.count:
            return self.max
        if target == 1:
            return self.min
        seen = self.zero_count
        if seen >= target:
            value = 0.0
        else:
            value = self.max
            for index in sorted(self.counts):
                seen += self.counts[index]
                if seen >= target:
                    value = self.bucket_value(index)
                    break
        return min(max(value, self.min), self.max)

    # -- serialization and merging --------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable state; :meth:`from_dict` round-trips it."""
        return {
            "growth": self.growth,
            "counts": [[i, self.counts[i]] for i in sorted(self.counts)],
            "zero_count": self.zero_count,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "integral": self.integral,
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "HdrHistogram":
        hist = cls(name, growth=payload["growth"])
        hist.merge_payload(payload)
        return hist

    def merge_payload(self, payload: dict) -> None:
        """Fold a :meth:`to_dict` produced elsewhere into this one.

        A payload without the ``integral`` flag (written before the flag
        existed) counts as non-integral.
        """
        if float(payload["growth"]) != self.growth:
            raise ConfigurationError(
                f"hdr histogram {self.name!r}: cannot merge growth "
                f"{payload['growth']!r} into {self.growth!r}"
            )
        self.integral = self.integral and bool(payload.get("integral", False))
        for index, count in payload.get("counts", []):
            index = int(index)
            self.counts[index] = self.counts.get(index, 0) + count
        self.zero_count += payload.get("zero_count", 0)
        self.count += payload.get("count", 0)
        for attr in ("min", "max"):
            incoming = payload.get(attr)
            if incoming is None:
                continue
            current = getattr(self, attr)
            if (
                current is None
                or (attr == "min" and incoming < current)
                or (attr == "max" and incoming > current)
            ):
                setattr(self, attr, incoming)

    def merge(self, other: "HdrHistogram") -> None:
        self.merge_payload(other.to_dict())

    def __repr__(self) -> str:
        return f"HdrHistogram({self.name}, n={self.count}, mean={self.mean:.3f})"


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Creates and owns instruments; disabled registries hand out no-ops.

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> reg.counter("smrp.joins").inc()
    >>> reg.counter("smrp.joins").value
    1
    >>> MetricsRegistry(enabled=False).counter("smrp.joins").inc()  # no-op
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._hdr_histograms: dict[str, HdrHistogram] = {}

    # ------------------------------------------------------------------
    # Registration (idempotent: same name returns the same instrument)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._gauges, self._hdr_histograms)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._counters, self._hdr_histograms)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def hdr_histogram(
        self, name: str, growth: float = DEFAULT_HDR_GROWTH
    ) -> HdrHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        instrument = self._hdr_histograms.get(name)
        if instrument is None:
            self._check_free(name, self._counters, self._gauges)
            instrument = self._hdr_histograms[name] = HdrHistogram(name, growth)
        elif instrument.growth != float(growth):
            raise ConfigurationError(
                f"hdr histogram {name!r} re-registered with different growth"
            )
        return instrument

    @staticmethod
    def _check_free(name: str, *families: dict) -> None:
        if any(name in family for family in families):
            raise ConfigurationError(
                f"metric {name!r} already registered as a different type"
            )

    # ------------------------------------------------------------------
    # Merging (parallel-run fan-in)
    # ------------------------------------------------------------------
    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` produced elsewhere into this registry.

        Used to aggregate per-worker metrics into the parent run's
        registry.  Merge semantics per instrument family:

        - **counters** — summed;
        - **gauges** — ``value`` takes the incoming reading (merge order
          is the caller's responsibility), ``high_water`` takes the max;
        - **hdr histograms** — sparse bucket counts, zero counts, and
          min/max are combined; growth factors must match.  Because
          their sums are derived from bucket counts (never a running
          float total), merge order cannot perturb any rendered value.

        A disabled registry ignores the merge, mirroring every other
        write path.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, payload in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(payload["value"])
            if payload["high_water"] > gauge.high_water:
                gauge.high_water = payload["high_water"]
        for name, payload in snapshot.get("hdr_histograms", {}).items():
            self.hdr_histogram(name, growth=payload["growth"]).merge_payload(
                payload
            )

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    def counters(self, prefix: str = "") -> dict[str, int]:
        """Counter values, optionally restricted to a dotted prefix."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """JSON-serializable view of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "high_water": g.high_water}
                for n, g in sorted(self._gauges.items())
            },
            "hdr_histograms": {
                n: h.to_dict() for n, h in sorted(self._hdr_histograms.items())
            },
        }
