"""Append-only JSONL files and the one rule for their tail.

Writers append one flushed line per record (a JSON object), so an
interrupted write can leave only the *last* line incomplete.  Every
reader and writer of such a file follows one rule for that line:

- a last line with no newline that parses as JSON is an intact record
  whose newline never reached the disk: it is kept;
- a last line with no newline that does not parse is a torn record: it
  is dropped (a writer truncates it before appending).

After that, a record that does not parse anywhere is corruption, not an
interrupted write.  :class:`~repro.obs.sinks.FlightRecorder` and
:class:`~repro.experiments.exec.checkpoint.CheckpointStore` both repair
their file with :func:`seal_tail` before appending.
"""

from __future__ import annotations

import json
from pathlib import Path


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
