"""Causal restoration tracing in *simulated* time.

The rest of :mod:`repro.obs` measures the reproduction itself (wall-clock
spans, Python counters).  This module measures the *modelled system*: it
records what the paper's §4.3 restoration latency is made of.  Every
injected failure opens an **episode** — a tree of spans on the simulated
clock — and every protocol action that contributes to restoring service
(failure detection, unicast re-convergence, candidate search, graft
signaling hop by hop, tree reshaping) appends a child span carrying
``(episode_id, parent_span_id, sim_time_start/end, node, phase, payload)``.

Episodes come from three origins:

``measure``
    The closed-form worst-case measurement path
    (:func:`repro.core.recovery.local_detour_recovery` /
    ``global_detour_recovery``): spans are synthesized from the same
    latency model as :func:`~repro.core.recovery.estimate_restoration_latency`,
    so the episode's critical path sums *exactly* to the reported
    restoration latency.
``repair``
    :func:`repro.core.recovery.repair_tree` (and the hierarchical layers
    that call it) emits one episode per member it actually re-attaches.
``des``
    The discrete-event simulation opens an episode when a node detects
    the loss of its upstream and closes it when service is restored;
    message hops observed by :class:`~repro.sim.network.SimNetwork`
    appear as ``signal.hop`` children with real simulated send/receive
    times.

The **critical path** of an episode is the chain of spans whose sim-time
durations sum to the episode's total latency: starting from the root,
a span is replaced by its children whenever they tile its interval
exactly (each child starting where the previous ended).  Phase
attribution over critical paths is what :class:`TraceAnalyzer` reports.

Tracing is observe-only by contract: enabling it never changes computed
results, rendered tables, or RNG state.  All identifiers are derived
from scenario content keys and per-scenario sequence numbers — never
from wall clocks or pids — so serial and process-parallel runs, faulted
or not, produce byte-identical trace files and analyses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.obs import jsonl

#: Schema marker for trace files (NDJSON and Chrome JSON ``otherData``).
TRACE_VERSION = 1

#: Relative tolerance for sim-time comparisons (tiling, nesting).
_EPS = 1e-9

#: The root span of every episode uses this phase name.
ROOT_PHASE = "episode"

#: Default bound on retained episodes; beyond it new episodes are dropped
#: (and counted).
DEFAULT_MAX_EPISODES = 100_000


def _close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= _EPS * max(1.0, abs(a), abs(b))


@dataclass
class TraceSpan:
    """One causally-linked span on the simulated clock."""

    span_id: int
    parent_id: int  # -1 marks the episode root
    phase: str
    node: int
    start: float
    end: float
    payload: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "phase": self.phase,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceSpan":
        return cls(
            span_id=payload["id"],
            parent_id=payload["parent"],
            phase=payload["phase"],
            node=payload["node"],
            start=payload["start"],
            end=payload["end"],
            payload=dict(payload.get("payload", {})),
        )


@dataclass
class Episode:
    """One restoration episode: a span tree for one member's recovery.

    ``spans[0]`` is the root (phase :data:`ROOT_PHASE`, ``parent_id=-1``);
    its interval covers the whole restoration and its duration *is* the
    episode's restoration latency.
    """

    episode_id: str
    scenario_key: str
    member: int
    strategy: str  # "local" | "global"
    origin: str  # "measure" | "repair" | "des"
    failure: str
    outcome: str = "restored"  # | "already_connected" | "unrecoverable" | "incomplete"
    spans: list[TraceSpan] = field(default_factory=list)

    @classmethod
    def new(
        cls,
        episode_id: str,
        scenario_key: str,
        member: int,
        strategy: str,
        origin: str,
        failure: str,
        start: float,
        outcome: str = "restored",
    ) -> "Episode":
        episode = cls(
            episode_id=episode_id,
            scenario_key=scenario_key,
            member=member,
            strategy=strategy,
            origin=origin,
            failure=failure,
            outcome=outcome,
        )
        episode.spans.append(
            TraceSpan(span_id=0, parent_id=-1, phase=ROOT_PHASE, node=member,
                      start=start, end=start)
        )
        return episode

    @property
    def root(self) -> TraceSpan:
        return self.spans[0]

    @property
    def start(self) -> float:
        return self.root.start

    @property
    def end(self) -> float:
        return self.root.end

    @property
    def latency(self) -> float:
        """Restoration latency in simulated time units."""
        return self.root.end - self.root.start

    def add(
        self,
        phase: str,
        node: int,
        start: float,
        end: float,
        parent: int = 0,
        payload: dict | None = None,
    ) -> int:
        """Append a child span; returns its span id."""
        span_id = len(self.spans)
        self.spans.append(
            TraceSpan(span_id=span_id, parent_id=parent, phase=phase,
                      node=node, start=start, end=end,
                      payload=dict(payload or {}))
        )
        return span_id

    def close(self, end: float) -> None:
        """Set the root interval's end (the restoration time)."""
        self.root.end = end

    def children(self, parent_id: int) -> list[TraceSpan]:
        kids = [s for s in self.spans if s.parent_id == parent_id]
        kids.sort(key=lambda s: (s.start, s.end, s.span_id))
        return kids

    def to_dict(self) -> dict:
        return {
            "id": self.episode_id,
            "scenario": self.scenario_key,
            "member": self.member,
            "strategy": self.strategy,
            "origin": self.origin,
            "failure": self.failure,
            "outcome": self.outcome,
            "spans": [s.to_dict() for s in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Episode":
        try:
            episode = cls(
                episode_id=payload["id"],
                scenario_key=payload.get("scenario", ""),
                member=payload["member"],
                strategy=payload["strategy"],
                origin=payload.get("origin", ""),
                failure=payload.get("failure", ""),
                outcome=payload.get("outcome", "restored"),
                spans=[TraceSpan.from_dict(s) for s in payload.get("spans", [])],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed trace episode: {exc}") from exc
        if not episode.spans:
            raise ConfigurationError(
                f"trace episode {episode.episode_id!r} has no spans"
            )
        return episode


# ----------------------------------------------------------------------
# Critical path and validation
# ----------------------------------------------------------------------
def _tiles_exactly(span: TraceSpan, kids: Sequence[TraceSpan]) -> bool:
    """True when ``kids`` partition ``span``'s interval with no gaps."""
    if not kids:
        return False
    if not _close_enough(kids[0].start, span.start):
        return False
    cursor = kids[0].start
    for kid in kids:
        if not _close_enough(kid.start, cursor):
            return False
        if kid.end < kid.start - _EPS:
            return False
        cursor = kid.end
    return _close_enough(cursor, span.end)


def critical_path(episode: Episode) -> list[TraceSpan]:
    """The chain of spans whose sim-time durations sum to the latency.

    Starting at the root, a span is refined into its children whenever
    they tile its interval exactly; spans whose children leave gaps
    (e.g. a DES ``repair`` window with sparse message hops inside) stay
    unrefined, so the returned chain always covers ``[start, end]``
    contiguously and its durations sum to :attr:`Episode.latency`.
    """

    def refine(span: TraceSpan) -> list[TraceSpan]:
        kids = episode.children(span.span_id)
        if _tiles_exactly(span, kids):
            out: list[TraceSpan] = []
            for kid in kids:
                out.extend(refine(kid))
            return out
        return [span]

    return refine(episode.root)


def validate_episode(episode: Episode) -> list[str]:
    """Structural and causal invariant violations (empty = valid)."""
    problems: list[str] = []
    eid = episode.episode_id
    roots = [s for s in episode.spans if s.parent_id == -1]
    if len(roots) != 1 or episode.spans[0].parent_id != -1:
        problems.append(f"{eid}: expected exactly one root span first")
        return problems
    if episode.root.phase != ROOT_PHASE:
        problems.append(f"{eid}: root phase is {episode.root.phase!r}")
    by_id = {s.span_id: s for s in episode.spans}
    if len(by_id) != len(episode.spans):
        problems.append(f"{eid}: duplicate span ids")
    for span in episode.spans:
        if span.end < span.start - _EPS:
            problems.append(
                f"{eid}: span {span.span_id} ({span.phase}) ends before it starts"
            )
        if span.parent_id == -1:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"{eid}: span {span.span_id} has unknown parent {span.parent_id}"
            )
            continue
        if span.start < parent.start - _EPS or span.end > parent.end + _EPS:
            problems.append(
                f"{eid}: span {span.span_id} ({span.phase}) "
                f"[{span.start:g}, {span.end:g}] escapes parent "
                f"{parent.span_id} ({parent.phase}) "
                f"[{parent.start:g}, {parent.end:g}]"
            )
    path = critical_path(episode)
    total = math.fsum(s.duration for s in path)
    if not _close_enough(total, episode.latency):
        problems.append(
            f"{eid}: critical path sums to {total:g}, latency is "
            f"{episode.latency:g}"
        )
    return problems


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class _OpenEpisode:
    """Handle for an episode whose end is not yet known (DES origin)."""

    __slots__ = ("episode", "_open_span_ids")

    def __init__(self, episode: Episode) -> None:
        self.episode = episode
        self._open_span_ids: list[int] = []

    def child(
        self,
        phase: str,
        node: int,
        start: float,
        end: float,
        parent: int = 0,
        payload: dict | None = None,
    ) -> int:
        return self.episode.add(phase, node, start, end, parent, payload)

    def open_phase(
        self, phase: str, node: int, start: float, payload: dict | None = None
    ) -> int:
        """Start a span whose end is filled in when the episode closes."""
        span_id = self.episode.add(phase, node, start, start, 0, payload)
        self._open_span_ids.append(span_id)
        return span_id

    def current_phase(self) -> int:
        """Span id new children should parent to (latest open phase, else
        the episode root)."""
        return self._open_span_ids[-1] if self._open_span_ids else 0

    def instant(
        self, phase: str, node: int, at: float, payload: dict | None = None,
        parent: int = 0,
    ) -> int:
        return self.episode.add(phase, node, at, at, parent, payload)

    def finalize(self, end: float, outcome: str) -> int:
        """Close the episode at ``end``; returns how many spans were
        trimmed (spans extending past the restoration time — e.g. message
        hops still in flight — are discarded so nesting stays valid)."""
        episode = self.episode
        for span_id in self._open_span_ids:
            episode.spans[span_id].end = end
        self._open_span_ids.clear()
        episode.close(end)
        episode.outcome = outcome
        kept = [episode.spans[0]]
        dropped_ids: set[int] = set()
        for span in episode.spans[1:]:
            if span.end > end + _EPS or span.parent_id in dropped_ids:
                dropped_ids.add(span.span_id)
            else:
                kept.append(span)
        trimmed = len(episode.spans) - len(kept)
        episode.spans = kept
        return trimmed


class RestorationTracer:
    """Collects restoration episodes; bounded, mergeable, deterministic.

    One tracer lives on the :class:`~repro.obs.Observability` facade
    (``obs.tracer``).  Worker processes ship their episodes home inside
    the run report's ``tracing`` section; :func:`absorb` folds them in
    with *summed* drop accounting, so the process pool produces exactly
    the episodes a serial run would.
    """

    def __init__(self, max_episodes: int | None = DEFAULT_MAX_EPISODES) -> None:
        if max_episodes is not None and max_episodes <= 0:
            raise ConfigurationError(
                f"max_episodes must be positive, got {max_episodes}"
            )
        self.episodes: list[Episode] = []
        self.max_episodes = max_episodes
        #: Episodes discarded because the bound was reached (sums on merge).
        self.dropped = 0
        #: Spans discarded when closing an episode (e.g. hops in flight).
        self.trimmed = 0
        #: Episodes opened but discarded (superseded or unrecoverable DES).
        self.abandoned = 0
        self.scenario_key = ""
        self._seq = 0
        self._clock: Callable[[], float] | None = None
        self._open: dict[int, _OpenEpisode] = {}
        #: base episode id -> times emitted, for collision renaming when
        #: the same scenario config runs more than once in a batch (the
        #: quick figures grid shares points across figures 8-10).
        self._seen: dict[str, int] = {}

    # -- identity and context -------------------------------------------
    def begin_scenario(self, key: str) -> None:
        """Bind subsequent episodes to a scenario content key.

        Resets the per-scenario sequence counter so episode ids depend
        only on (scenario key, emission order) — identical in serial and
        worker processes.
        """
        self.scenario_key = key
        self._seq = 0

    def next_episode_id(self, member: int, strategy: str) -> str:
        seq = self._seq
        self._seq += 1
        key = self.scenario_key or "adhoc"
        return f"ep-{key}-{seq:06d}-{strategy}-{member}"

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach a simulated-time source (used by ambient instants)."""
        self._clock = clock

    def now(self) -> float | None:
        return self._clock() if self._clock is not None else None

    # -- closed-form episodes (measure / repair origins) ----------------
    def emit(self, episode: Episode) -> None:
        """Record a fully-built episode (bounded; drops count).

        Re-runs of the same scenario config produce the same base episode
        ids; the second and later emissions are renamed ``<id>#<n>`` so
        ids stay unique across a batch.  Episodes arrive in seed order in
        every executor (serial emits in run order, the pool merges
        worker reports by batch index), so the renaming — and with
        it the trace file — is identical regardless of how the batch ran.
        """
        if (
            self.max_episodes is not None
            and len(self.episodes) >= self.max_episodes
        ):
            self.dropped += 1
            return
        count = self._seen.get(episode.episode_id, 0)
        self._seen[episode.episode_id] = count + 1
        if count:
            episode.episode_id = f"{episode.episode_id}#{count}"
        self.episodes.append(episode)

    # -- open episodes (DES origin) -------------------------------------
    def open(
        self,
        member: int,
        strategy: str,
        failure: str,
        start: float,
        origin: str = "des",
    ) -> _OpenEpisode:
        """Open an episode whose end arrives later (service restoration)."""
        stale = self._open.pop(member, None)
        if stale is not None:
            self.abandoned += 1
        episode = Episode.new(
            self.next_episode_id(member, strategy),
            self.scenario_key,
            member,
            strategy,
            origin,
            failure,
            start,
        )
        handle = _OpenEpisode(episode)
        self._open[member] = handle
        return handle

    def open_for(self, member: int) -> _OpenEpisode | None:
        return self._open.get(member)

    def close(self, member: int, end: float, outcome: str = "restored") -> None:
        handle = self._open.pop(member, None)
        if handle is None:
            return
        self.trimmed += handle.finalize(end, outcome)
        self.emit(handle.episode)

    def abandon(self, member: int) -> None:
        if self._open.pop(member, None) is not None:
            self.abandoned += 1

    def finalize(self, at: float | None = None) -> None:
        """Close any still-open episodes as ``incomplete``.

        ``at`` defaults to each episode's latest span end — an episode
        whose member never saw service restored still exports with its
        observed activity window.
        """
        for member in sorted(self._open):
            handle = self._open[member]
            end = at
            if end is None:
                end = max(s.end for s in handle.episode.spans)
            self._open.pop(member)
            self.trimmed += handle.finalize(end, "incomplete")
            self.emit(handle.episode)

    def ambient_instant(
        self, phase: str, node: int, payload: dict | None = None
    ) -> None:
        """Record an instant span into whichever episode is open.

        Attributed to the open episode for ``node`` when there is one,
        else to the most recently opened episode (e.g. a reshape pass
        touching a relay while a member's recovery is in progress).
        No-op when nothing is open or no simulated clock is bound.
        """
        handle = self._open.get(node)
        if handle is None and self._open:
            handle = self._open[next(reversed(self._open))]
        if handle is None:
            return
        at = self.now()
        if at is None:
            at = handle.episode.root.end
        handle.instant(phase, node, at, payload)

    # -- merge / report --------------------------------------------------
    def report(self) -> dict:
        """JSON-serializable payload for the run report's ``tracing``
        section (consumed by :func:`absorb` in the parent process)."""
        return {
            "version": TRACE_VERSION,
            "episodes": [e.to_dict() for e in self.episodes],
            "dropped": self.dropped,
            "trimmed": self.trimmed,
            "abandoned": self.abandoned,
        }

    def absorb(self, payload: dict) -> None:
        """Fold a worker's ``tracing`` report section into this tracer.

        Drop/trim/abandon counts **sum** across workers (a last-write-win
        here would silently under-report loss — the same bug class as the
        ``Trace.dropped`` merge fixed alongside this module).
        """
        for episode in payload.get("episodes", []):
            self.emit(Episode.from_dict(episode))
        self.dropped += payload.get("dropped", 0)
        self.trimmed += payload.get("trimmed", 0)
        self.abandoned += payload.get("abandoned", 0)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass
class PhaseStat:
    """Aggregate of one phase's critical-path spans."""

    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class TraceAnalyzer:
    """Per-phase latency breakdowns and distributions over episodes.

    Episodes are sorted by id before aggregation, so the analysis is a
    pure function of the episode *set* — independent of executor kind,
    merge order, or file line order.
    """

    def __init__(self, episodes: Iterable[Episode]) -> None:
        self.episodes = sorted(episodes, key=lambda e: e.episode_id)

    def _measurable(self) -> list[Episode]:
        return [
            e for e in self.episodes
            if e.outcome in ("restored", "already_connected")
        ]

    def latency_stats(self) -> dict[str, dict]:
        """Per-strategy restoration latency distribution."""
        stats: dict[str, dict] = {}
        for episode in self._measurable():
            entry = stats.setdefault(
                episode.strategy,
                {"count": 0, "total": 0.0, "min": None, "max": None},
            )
            latency = episode.latency
            entry["count"] += 1
            entry["total"] += latency
            if entry["min"] is None or latency < entry["min"]:
                entry["min"] = latency
            if entry["max"] is None or latency > entry["max"]:
                entry["max"] = latency
        return stats

    def phase_breakdown(self) -> dict[str, dict[str, PhaseStat]]:
        """strategy -> phase -> aggregate over critical-path spans."""
        breakdown: dict[str, dict[str, PhaseStat]] = {}
        for episode in self._measurable():
            phases = breakdown.setdefault(episode.strategy, {})
            for span in critical_path(episode):
                stat = phases.setdefault(span.phase, PhaseStat())
                stat.count += 1
                stat.total += span.duration
        return breakdown

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for episode in self.episodes:
            counts[episode.outcome] = counts.get(episode.outcome, 0) + 1
        return counts

    def check(self) -> list[str]:
        """Causality-invariant violations across all episodes."""
        problems: list[str] = []
        seen: set[str] = set()
        for episode in self.episodes:
            if episode.episode_id in seen:
                problems.append(f"duplicate episode id {episode.episode_id}")
            seen.add(episode.episode_id)
            problems.extend(validate_episode(episode))
        return problems

    def render(self) -> str:
        """Deterministic text rendering (the ``repro trace analyze`` output)."""
        lines: list[str] = []
        lines.append("== restoration trace analysis ==")
        outcomes = self.outcome_counts()
        total = len(self.episodes)
        outcome_text = ", ".join(
            f"{name} {outcomes[name]}" for name in sorted(outcomes)
        )
        lines.append(f"episodes: {total}" + (f" ({outcome_text})" if total else ""))
        stats = self.latency_stats()
        if stats:
            lines.append("")
            lines.append("restoration latency by strategy (sim time units):")
            lines.append(
                f"  {'strategy':<10} {'n':>6} {'mean':>10} {'min':>10} {'max':>10}"
            )
            for strategy in sorted(stats):
                entry = stats[strategy]
                mean = entry["total"] / entry["count"]
                lines.append(
                    f"  {strategy:<10} {entry['count']:>6} {mean:>10.3f} "
                    f"{entry['min']:>10.3f} {entry['max']:>10.3f}"
                )
        breakdown = self.phase_breakdown()
        if breakdown:
            lines.append("")
            lines.append("critical-path phase breakdown:")
            lines.append(
                f"  {'strategy':<10} {'phase':<12} {'n':>6} {'total':>12} "
                f"{'mean':>10} {'share':>7}"
            )
            for strategy in sorted(breakdown):
                phases = breakdown[strategy]
                strategy_total = math.fsum(s.total for s in phases.values())
                for phase in sorted(phases):
                    stat = phases[phase]
                    share = (
                        stat.total / strategy_total if strategy_total else 0.0
                    )
                    lines.append(
                        f"  {strategy:<10} {phase:<12} {stat.count:>6} "
                        f"{stat.total:>12.3f} {stat.mean:>10.3f} {share:>7.1%}"
                    )
        return "\n".join(lines)


def diff_analyses(
    a: TraceAnalyzer, b: TraceAnalyzer
) -> tuple[str, float]:
    """Compare two analyses; returns (rendered diff, max |relative mean delta|).

    The relative delta of a (strategy, phase) cell is
    ``(mean_b - mean_a) / mean_a`` (``inf`` when a phase appears on one
    side only, 0 when both means are zero).
    """
    breakdown_a = a.phase_breakdown()
    breakdown_b = b.phase_breakdown()
    lines: list[str] = []
    lines.append("== restoration trace diff (a -> b) ==")
    lines.append(f"episodes: {len(a.episodes)} -> {len(b.episodes)}")
    lines.append(
        f"  {'strategy':<10} {'phase':<12} {'mean a':>10} {'mean b':>10} "
        f"{'delta':>9}"
    )
    worst = 0.0
    strategies = sorted(set(breakdown_a) | set(breakdown_b))
    for strategy in strategies:
        phases_a = breakdown_a.get(strategy, {})
        phases_b = breakdown_b.get(strategy, {})
        for phase in sorted(set(phases_a) | set(phases_b)):
            stat_a = phases_a.get(phase)
            stat_b = phases_b.get(phase)
            mean_a = stat_a.mean if stat_a is not None else None
            mean_b = stat_b.mean if stat_b is not None else None
            if mean_a is None or mean_b is None:
                delta_text = "only a" if mean_b is None else "only b"
                worst = math.inf
            elif mean_a == 0.0 and mean_b == 0.0:
                delta_text = "+0.0%"
            elif mean_a == 0.0:
                delta_text = "inf"
                worst = math.inf
            else:
                delta = (mean_b - mean_a) / mean_a
                worst = max(worst, abs(delta))
                delta_text = f"{delta:+.1%}"
            fmt = lambda v: f"{v:>10.3f}" if v is not None else f"{'—':>10}"
            lines.append(
                f"  {strategy:<10} {phase:<12} {fmt(mean_a)} {fmt(mean_b)} "
                f"{delta_text:>9}"
            )
    return "\n".join(lines), worst


# ----------------------------------------------------------------------
# NDJSON export / import
# ----------------------------------------------------------------------
@dataclass
class TraceFile:
    """A loaded trace: episodes plus loss accounting from the header."""

    episodes: list[Episode]
    dropped: int = 0
    trimmed: int = 0
    abandoned: int = 0


def write_trace_ndjson(
    episodes: Iterable[Episode],
    path: str,
    *,
    dropped: int = 0,
    trimmed: int = 0,
    abandoned: int = 0,
) -> int:
    """Write a trace as NDJSON: one header line, one line per episode.

    Episodes are sorted by id so the file is byte-identical no matter
    which executor produced them (no wall-clock data is ever written).
    Lines go through :func:`repro.obs.jsonl.append`.  Returns the number
    of episodes written.
    """
    ordered = sorted(episodes, key=lambda e: e.episode_id)
    with open(path, "w", encoding="utf-8") as fh:
        jsonl.append(fh, {
            "v": TRACE_VERSION,
            "kind": "trace-header",
            "clock": "sim",
            "episodes": len(ordered),
            "dropped": dropped,
            "trimmed": trimmed,
            "abandoned": abandoned,
        })
        for episode in ordered:
            jsonl.append(
                fh, {"v": TRACE_VERSION, "kind": "episode", **episode.to_dict()}
            )
    return len(ordered)


def read_trace_ndjson(path: str) -> TraceFile:
    """Load a trace written by :func:`write_trace_ndjson`.

    Lines are read by :func:`repro.obs.jsonl.read_records`: a torn last
    line is dropped and any other corrupt line raises
    :class:`~repro.errors.ConfigurationError`.  When the header declares
    more episodes than load (a torn last episode, say), that raises too,
    so a damaged file never shortens an analysis silently.  A file with
    no header (a raw episode-per-line file) still loads; unknown line
    kinds are skipped so the format can grow.
    """
    trace = TraceFile(episodes=[])
    declared = None
    for _, payload in jsonl.read_records(path, what="trace record"):
        kind = payload.get("kind")
        if kind == "trace-header":
            declared = payload.get("episodes")
            trace.dropped = payload.get("dropped", 0)
            trace.trimmed = payload.get("trimmed", 0)
            trace.abandoned = payload.get("abandoned", 0)
        elif kind == "episode" or ("spans" in payload and "id" in payload):
            trace.episodes.append(Episode.from_dict(payload))
    if declared is not None and len(trace.episodes) < declared:
        raise ConfigurationError(
            f"{path}: the header declares {declared} episodes but "
            f"{len(trace.episodes)} loaded"
        )
    return trace


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto-loadable)
# ----------------------------------------------------------------------
def chrome_trace_document(episodes: Iterable[Episode]) -> dict:
    """Render episodes as a Chrome trace-event JSON document.

    Layout: one *process* per episode (named after the episode id) with
    one *track* (thread) per node; the clock is simulated time, written
    as-is into the microsecond ``ts``/``dur`` fields, so 1 sim time unit
    displays as 1 µs in Perfetto.  Span payloads travel in ``args`` and
    the root span's ``args`` carries the full episode header, which is
    enough to reconstruct the episodes: the export is lossless.
    """
    events: list[dict] = []
    ordered = sorted(episodes, key=lambda e: e.episode_id)
    for index, episode in enumerate(ordered):
        pid = index + 1
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": f"{episode.episode_id} [{episode.strategy}]"},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_sort_index",
            "args": {"sort_index": index},
        })
        nodes = sorted({span.node for span in episode.spans})
        for node in nodes:
            events.append({
                "ph": "M", "pid": pid, "tid": int(node) + 1,
                "name": "thread_name", "args": {"name": f"node {node}"},
            })
        for span in episode.spans:
            args: dict = {
                "episode": episode.episode_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "node": span.node,
                "data": span.payload,
            }
            if span.parent_id == -1:
                args.update({
                    "scenario": episode.scenario_key,
                    "member": episode.member,
                    "strategy": episode.strategy,
                    "origin": episode.origin,
                    "failure": episode.failure,
                    "outcome": episode.outcome,
                })
            events.append({
                "name": span.phase,
                "cat": f"{episode.origin}.{episode.strategy}",
                "ph": "X",
                "ts": span.start,
                "dur": span.end - span.start,
                "pid": pid,
                "tid": int(span.node) + 1,
                "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-restoration-trace",
            "v": TRACE_VERSION,
            "clock": "simulated time units (1 unit rendered as 1us)",
        },
    }


def write_chrome_trace(episodes: Iterable[Episode], path: str) -> int:
    document = chrome_trace_document(episodes)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return sum(1 for e in document["traceEvents"] if e.get("ph") == "X" and
               e["args"].get("parent") == -1)
