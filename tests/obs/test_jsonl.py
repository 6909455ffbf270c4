"""The torn-tail rule for append-only JSONL files."""

import pytest

from repro.obs.jsonl import seal_tail, whole_records


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
