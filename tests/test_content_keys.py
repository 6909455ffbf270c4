"""Content keys: one digest, and every keyed type pinned to its value.

A checkpoint store finds a work unit's result by its content key, and a
run manifest is named by its spec's key, so a key that moves orphans
every store written before.  Each type below is pinned to the key its
default instance has always had.
"""

import hashlib
import json

import pytest

from repro.controller.service import ServiceShard
from repro.controller.spec import ServiceSpec
from repro.experiments.exec.spec import ExperimentSpec
from repro.experiments.figprotect import ProtectionPoint
from repro.experiments.scenario import ScenarioConfig
from repro.obs.jsonl import digest


def test_digest_is_a_prefix_of_the_canonical_sha256():
    record = {"b": [1, 2.5], "a": "x"}
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert digest(record) == hashlib.sha256(canonical.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "unit, key",
    [
        (ScenarioConfig(), "9b2ef10580145bb9"),
        (ExperimentSpec(), "56f5b498d5145b1b"),
        (ServiceSpec(), "34b1f53854590090"),
        (ServiceShard(ServiceSpec(), 0, 50), "de4debae821f57e9"),
        (ProtectionPoint(failure_rate=0.1), "f787d105efe80bc9"),
    ],
    ids=["ScenarioConfig", "ExperimentSpec", "ServiceSpec", "ServiceShard",
         "ProtectionPoint"],
)
def test_content_key_is_pinned(unit, key):
    assert unit.content_key() == key
