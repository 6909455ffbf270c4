"""Append-only JSONL files: one encoding, one tail rule, one error rule.

The flight recorder, restoration traces and the checkpoint store all
keep their records here, one JSON object per line:

- every record is encoded the same way (:func:`encode`: sorted keys,
  compact separators), so equal records are equal bytes, and
  :func:`digest` of that encoding is the content key of every work
  unit, spec and checkpoint entry;
- :func:`append` writes one record and flushes it, so an interrupted
  write can leave only the *last* line incomplete.

Every reader and writer follows one rule for that line:

- a last line with no newline that parses as JSON is an intact record
  whose newline never reached the disk: it is kept;
- a last line with no newline that does not parse is a torn record: it
  is dropped (a writer truncates it before appending, :func:`seal_tail`).

After that, a line that does not parse, or parses to something other
than a JSON object, is corruption, not an interrupted write:
:func:`read_records` raises the caller's error type naming ``path:line``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import IO, Iterator

from repro.errors import ConfigurationError


def encode(record: dict) -> str:
    """The one line encoding of a record (without its newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def digest(record: dict) -> str:
    """A record's content key: a SHA-256 prefix of its :func:`encode`."""
    return hashlib.sha256(encode(record).encode("utf-8")).hexdigest()[:16]


def append(fh: IO[str], record: dict) -> None:
    """Write ``record`` as one line of ``fh`` and flush it."""
    fh.write(encode(record) + "\n")
    fh.flush()


def whole_records(data: bytes) -> bytes:
    """``data`` cut to whole records, each ending with a newline."""
    if not data or data.endswith(b"\n"):
        return data
    start = data.rfind(b"\n") + 1  # 0 when there is no newline at all
    try:
        json.loads(data[start:])
    except ValueError:  # also UnicodeDecodeError
        return data[:start]
    return data + b"\n"


def seal_tail(path: Path) -> bytes:
    """Repair the tail of ``path`` by :func:`whole_records`; returns the
    file's contents after the repair.  A whole file is only read."""
    data = path.read_bytes()
    whole = whole_records(data)
    if len(whole) < len(data):
        with path.open("r+b") as fh:
            fh.truncate(len(whole))
    elif len(whole) > len(data):
        with path.open("ab") as fh:
            fh.write(b"\n")
    return whole


def read_records(
    path: str | os.PathLike,
    *,
    seal: bool = False,
    what: str = "record",
    error: type[Exception] = ConfigurationError,
) -> Iterator[tuple[int, dict]]:
    """Yield the ``(line number, record)`` pairs of a JSONL file.

    The file is read whole when iteration starts.  Its tail follows the
    module's rule; ``seal`` also repairs it on disk (:func:`seal_tail`,
    for a writer about to append), otherwise the file is only read.
    Blank lines are skipped.  Any other line that is not a JSON object
    raises ``error("<path>:<line>: corrupt <what>: ...")``.  Records are
    parsed as they are yielded, so a caller that keeps only what it
    builds from them never holds every parsed record at once.
    """
    path = Path(path)
    data = seal_tail(path) if seal else whole_records(path.read_bytes())
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:  # also UnicodeDecodeError
            raise error(f"{path}:{lineno}: corrupt {what}: {exc}") from exc
        yield lineno, record
