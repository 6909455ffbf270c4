"""Content-keyed checkpoint store for completed work units.

A :class:`CheckpointStore` persists every completed work-unit result as
one JSONL record in ``<directory>/results.jsonl``, keyed by the unit's
``content_key()`` (the SHA-256-of-canonical-JSON construction shared by
``ScenarioConfig``, ``ExperimentSpec``, and the controller's service
shards).  Because keys are content identities — not positions in a
particular sweep — a store can be shared across batches, figures, and
interrupted runs: any later sweep that contains the same ``(spec, seed)``
work unit resumes from the stored result instead of recomputing it.

Records carry a ``type`` tag naming the payload class (``"scenario"``
for :class:`~repro.experiments.runner.ScenarioResult` — also the implied
type of tag-less records from older stores — and ``"service_shard"`` for
:class:`~repro.controller.service.ShardResult`), so one store format
serves every work-unit kind without guessing at payload shapes.

Durability model: records are appended and flushed line-by-line through
:mod:`repro.obs.jsonl`, so a crash loses at most the line being
written; :meth:`load` seals the tail first (a torn trailing record is
truncated, an intact one missing its newline gets it) and rejects
corruption anywhere else, which indicates real damage rather than an
interrupted write, so the first append after a resume starts on a fresh
line instead of gluing onto the partial one.  Results round-trip
exactly — JSON encodes doubles losslessly — so a resumed sweep's merged
tables are byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import CheckpointError
from repro.experiments.runner import ScenarioResult
from repro.obs import jsonl

#: Store layout version; a mismatching store is rejected, not guessed at.
STORE_VERSION = 1

#: The single append-only record file inside a checkpoint directory.
RESULTS_FILENAME = "results.jsonl"

#: Payload type tag -> (module, class) able to ``from_dict`` the record.
#: Lazy import paths keep the store free of a dependency on every result
#: kind it can hold (the controller package imports this module).
RESULT_TYPES = {
    "scenario": ("repro.experiments.runner", "ScenarioResult"),
    "service_shard": ("repro.controller.service", "ShardResult"),
    "protection_point": ("repro.experiments.figprotect", "ProtectionPointResult"),
}


def _result_class(type_name: str):
    try:
        module_name, attr = RESULT_TYPES[type_name]
    except KeyError:
        raise CheckpointError(
            f"unknown checkpoint payload type {type_name!r}; "
            f"expected one of {sorted(RESULT_TYPES)}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def _type_of(result) -> str:
    if isinstance(result, ScenarioResult):
        return "scenario"
    type_name = getattr(result, "checkpoint_type", None)
    if type_name is None or type_name not in RESULT_TYPES:
        raise CheckpointError(
            f"result {type(result).__name__} declares no registered "
            f"checkpoint_type; expected one of {sorted(RESULT_TYPES)}"
        )
    return type_name


class CheckpointStore:
    """Append-only, content-keyed store of completed scenario results."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.path = self.directory / RESULTS_FILENAME
        self._index: dict[str, object] = {}
        self._writer = None
        self.directory.mkdir(parents=True, exist_ok=True)
        self.load()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> int:
        """(Re)build the in-memory index from disk; returns entry count.

        The tail is sealed first (:func:`~repro.obs.jsonl.seal_tail`): a
        torn last record (a run interrupted mid-append) is truncated, so
        a later :meth:`put` appends a fresh line rather than gluing onto
        the partial one (which would corrupt both records), and an intact
        last record missing its newline gets it.  Any other malformed
        record raises :class:`~repro.errors.CheckpointError` naming its
        line — that is corruption, not an interrupted write.
        """
        self._index.clear()
        if not self.path.exists():
            return 0
        for lineno, record in jsonl.read_records(
            self.path, seal=True, what="checkpoint record", error=CheckpointError
        ):
            try:
                if record.get("store_version") != STORE_VERSION:
                    raise CheckpointError(
                        f"{self.path}:{lineno}: unsupported store version "
                        f"{record.get('store_version')!r}"
                    )
                key = record["key"]
                payload_cls = _result_class(record.get("type", "scenario"))
                result = payload_cls.from_dict(record["result"])
            except CheckpointError:
                raise
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise CheckpointError(
                    f"{self.path}:{lineno}: corrupt checkpoint record: {exc}"
                ) from exc
            self._index[key] = result
        return len(self._index)

    def get(self, key: str):
        return self._index.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(self, key: str, result, describe: str | None = None) -> bool:
        """Persist one completed result; returns False when already stored
        (content keys make duplicate completions a no-op, e.g. the same
        scenario appearing in two overlapping sweeps).  ``describe`` is a
        human-readable provenance string stored alongside the payload; it
        defaults to the scenario's config description when available."""
        if key in self._index:
            return False
        if describe is None:
            config = getattr(result, "config", None)
            describe = config.describe() if config is not None else ""
        record = {
            "store_version": STORE_VERSION,
            "key": key,
            "type": _type_of(result),
            "config": describe,
            "result": result.to_dict(),
        }
        if self._writer is None:
            self._writer = self.path.open("a", encoding="utf-8")
        jsonl.append(self._writer, record)
        self._index[key] = result
        return True

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.directory)!r}, entries={len(self)})"
