"""Lint: every emitted observability name is in the registry, and back.

The scan is textual (regex over the source tree) on purpose: emission
sites are stringly-typed f-strings and literals, so a textual scan sees
exactly what a grep-driven dashboard or analysis script would see.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.obs import names

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TESTS = Path(__file__).resolve().parents[1]

#: ``obs.counter("...")`` / bare ``gauge("...")`` (live.py binds the
#: method to a local) / f-string dynamic names.
_METRIC = re.compile(
    r'\b(?:counter|gauge|hdr_histogram)\(\s*(f?)"([^"]*)"'
)
_SPAN = re.compile(r'\.span\(\s*(f?)"([^"]*)"')
#: Episode span-tree emission sites (repro.obs.tracing handles).
_PHASE = re.compile(
    r'\b(?:child|open_phase|instant|ambient_instant|add)\(\s*(f?)"([^"]*)"'
)


def _source_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.py"))


def _emitted(pattern: re.Pattern) -> set[tuple[str, str, str]]:
    found = set()
    for path in _source_files(SRC):
        text = path.read_text(encoding="utf-8")
        for is_f, name in pattern.findall(text):
            found.add((str(path.relative_to(SRC)), is_f, name))
    return found


def _check_registered(emitted: set[tuple[str, str, str]]) -> list[str]:
    problems = []
    for path, is_f, name in sorted(emitted):
        if is_f:
            literal = name.split("{", 1)[0]
            if not any(
                literal.startswith(p) or p.startswith(literal)
                for p in names.DYNAMIC_PREFIXES
            ):
                problems.append(
                    f"{path}: dynamic name f\"{name}\" matches no "
                    f"DYNAMIC_PREFIXES entry"
                )
        elif not names.is_registered(name):
            problems.append(f"{path}: emitted name {name!r} not registered")
    return problems


class TestEmittedNamesAreRegistered:
    def test_metric_literals(self):
        assert _check_registered(_emitted(_METRIC)) == []

    def test_span_literals(self):
        assert _check_registered(_emitted(_SPAN)) == []

    def test_trace_phase_literals(self):
        emitted = {
            (path, is_f, name)
            for path, is_f, name in _emitted(_PHASE)
            # The tracing module's own handles take the phase as a
            # parameter; literal sites elsewhere are the emissions.
            if not path.startswith("obs/")
        }
        problems = [
            f"{path}: trace phase {name!r} not in TRACE_PHASES"
            for path, is_f, name in sorted(emitted)
            if not is_f and name not in names.TRACE_PHASES
        ]
        assert problems == []


class TestRegisteredNamesAreEmitted:
    """The reverse direction: no orphaned registry entries.

    A registered name must appear as a quoted string somewhere in the
    source or test tree (emission site, constant definition, or test) —
    a rename that forgets the registry shows up here.
    """

    @pytest.fixture(scope="class")
    def quoted_strings(self) -> set[str]:
        quoted = set()
        for root in (SRC, TESTS):
            for path in _source_files(root):
                if path.name == "names.py" or path.name == "test_names.py":
                    continue
                text = path.read_text("utf-8")
                for double, single in re.findall(
                    r'"([^"\n]*)"|\'([^\'\n]*)\'', text
                ):
                    quoted.add(double or single)
        return quoted

    def test_metric_names(self, quoted_strings):
        orphans = sorted(names.METRIC_NAMES - quoted_strings)
        assert orphans == []

    def test_span_names(self, quoted_strings):
        orphans = sorted(names.SPAN_NAMES - quoted_strings)
        assert orphans == []

    def test_trace_phases(self, quoted_strings):
        orphans = sorted(names.TRACE_PHASES - quoted_strings)
        assert orphans == []


class TestRegistryShape:
    def test_no_overlap_between_kinds(self):
        assert not names.METRIC_NAMES & names.SPAN_NAMES
        assert not names.METRIC_NAMES & names.TRACE_PHASES

    def test_is_registered(self):
        assert names.is_registered("exec.scenarios")
        assert names.is_registered("sim.msg.sent.Join_Req")
        assert names.is_registered("dist.latency.smrp")
        assert not names.is_registered("sim.msg.sent.")
        assert not names.is_registered("no.such.name")
