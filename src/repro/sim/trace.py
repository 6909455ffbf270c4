"""Structured event tracing for simulations.

A :class:`Trace` is an append-only log of timestamped records; tests and
examples filter it to verify protocol behaviour ("the join reached the
source", "recovery completed at t=…") without poking at node internals.
A simulation records into a trace only when its caller passes one
(``trace=Trace()``); without one, nothing is recorded.

Filtering accepts either keyword equality filters (``category=``,
``node=``, ``event=``) or an arbitrary predicate callable over the
record; ``count`` tallies matches without materialising them.  A trace
may be bounded with ``max_records``: once full, the oldest records are
dropped and ``dropped`` counts how many were discarded.

Records are optionally *causal*: when a restoration episode is in flight
(:mod:`repro.obs.tracing`), the emitting layer stamps the record with the
episode id and span linkage (``episode_id``, ``span_id``, ``parent_id``),
upgrading the flat log into a join table against the episode's span tree.
The fields default to empty/-1 so every existing predicate-filter caller
is unaffected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

from repro.graph.topology import NodeId

Predicate = Callable[["TraceRecord"], bool]


@dataclass(frozen=True)
class TraceRecord:
    """One logged event.

    ``episode_id``/``span_id``/``parent_id`` causally link the record to
    a restoration episode when one was open at emission time; they stay
    at their defaults (``""``/``-1``/``-1``) for records outside any
    episode.
    """

    time: float
    category: str
    node: NodeId
    event: str
    detail: str = ""
    episode_id: str = ""
    span_id: int = -1
    parent_id: int = -1

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        if self.episode_id:
            suffix += f" [{self.episode_id}]"
        return f"[{self.time:10.3f}] node {self.node:>3} {self.category}/{self.event}{suffix}"


@dataclass
class Trace:
    """Append-only simulation log, optionally bounded (drop-oldest)."""

    records: deque[TraceRecord] = field(default_factory=deque)
    max_records: int | None = None
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.max_records is not None and self.max_records <= 0:
            raise ValueError(f"max_records must be positive, got {self.max_records}")
        # Accept a plain list (the historical field type) and rebuild the
        # bounded deque so maxlen is enforced from the start.
        if not isinstance(self.records, deque) or (
            self.records.maxlen != self.max_records
        ):
            self.records = deque(self.records, maxlen=self.max_records)

    def record(
        self,
        time: float,
        category: str,
        node: NodeId,
        event: str,
        detail: str = "",
        episode_id: str = "",
        span_id: int = -1,
        parent_id: int = -1,
    ) -> None:
        if (
            self.max_records is not None
            and len(self.records) == self.max_records
        ):
            self.dropped += 1
        self.records.append(
            TraceRecord(
                time, category, node, event, detail,
                episode_id, span_id, parent_id,
            )
        )

    def filter(
        self,
        predicate: Predicate | str | None = None,
        *,
        category: str | None = None,
        node: NodeId | None = None,
        event: str | None = None,
    ) -> Iterator[TraceRecord]:
        """Records matching a predicate and/or keyword equality filters.

        The first positional argument may be a callable predicate over the
        record, or (for backward compatibility) a category string.
        """
        if predicate is not None and not callable(predicate):
            if category is not None:
                raise TypeError("category given both positionally and by keyword")
            category, predicate = predicate, None
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if node is not None and rec.node != node:
                continue
            if event is not None and rec.event != event:
                continue
            if predicate is not None and not predicate(rec):
                continue
            yield rec

    def first(
        self,
        predicate: Predicate | str | None = None,
        *,
        category: str | None = None,
        node: NodeId | None = None,
        event: str | None = None,
    ) -> TraceRecord | None:
        return next(
            self.filter(predicate, category=category, node=node, event=event),
            None,
        )

    def count(
        self,
        predicate: Predicate | str | None = None,
        *,
        category: str | None = None,
        node: NodeId | None = None,
        event: str | None = None,
    ) -> int:
        return sum(
            1
            for _ in self.filter(
                predicate, category=category, node=node, event=event
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    def dump(self, limit: int | None = None) -> str:
        """Multi-line rendering, for examples and debugging."""
        rows = self.records if limit is None else islice(self.records, limit)
        return "\n".join(str(rec) for rec in rows)
