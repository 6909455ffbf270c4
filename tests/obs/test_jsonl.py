"""Append-only JSONL files: the encoding, the tail rule, the error rule."""

import io

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.obs.jsonl import append, read_records, seal_tail, whole_records


@pytest.mark.parametrize(
    "data, whole",
    [
        (b"", b""),
        (b'{"a":1}\n', b'{"a":1}\n'),
        (b'{"a":1}\n{"b":2}', b'{"a":1}\n{"b":2}\n'),  # intact: kept
        (b'{"a":1}\n{"b":', b'{"a":1}\n'),  # torn: dropped
        (b'{"b":', b""),
        (b'{"a":1}\n{"b":"\xc3', b'{"a":1}\n'),  # torn inside a UTF-8 sequence
        (b'{"a":1}\nnot json\n', b'{"a":1}\nnot json\n'),  # whole line: not a tear
    ],
)
def test_whole_records(data, whole):
    assert whole_records(data) == whole


@pytest.mark.parametrize("tail", [b'{"b":2}', b'{"b":'])
def test_seal_tail_rewrites_the_file(tmp_path, tail):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n' + tail)
    assert seal_tail(path) == path.read_bytes() == whole_records(b'{"a":1}\n' + tail)


def test_append_writes_one_sorted_compact_line():
    fh = io.StringIO()
    append(fh, {"b": [1, 2], "a": "x"})
    assert fh.getvalue() == '{"a":"x","b":[1,2]}\n'


def test_read_records_numbers_lines_and_keeps_the_intact_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n\n{"b":2}')
    assert list(read_records(path)) == [(1, {"a": 1}), (3, {"b": 2})]
    assert path.read_bytes() == b'{"a":1}\n\n{"b":2}'  # only read


def test_read_records_seals_when_asked(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n{"b":')
    assert list(read_records(path, seal=True)) == [(1, {"a": 1})]
    assert path.read_bytes() == b'{"a":1}\n'


@pytest.mark.parametrize("line", [b"[1, 2]", b"not json", b'"text"'])
@pytest.mark.parametrize("error", [ConfigurationError, CheckpointError])
def test_read_records_names_the_corrupt_line(tmp_path, line, error):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n' + line + b'\n{"b":2}\n')
    with pytest.raises(error, match=r"log\.jsonl:2: corrupt entry: "):
        list(read_records(path, what="entry", error=error))
