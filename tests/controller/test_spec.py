"""Tests for ServiceSpec: validation, identity, failure resolution."""

import json

import pytest

from repro.controller.spec import ServiceSpec, resolve_failure
from repro.controller.workload import source_pool
from repro.errors import ConfigurationError
from repro.experiments.exec.cache import SubstrateCache


class TestValidation:
    def test_defaults_valid(self):
        spec = ServiceSpec()
        assert spec.groups == 200
        assert spec.protocol == "smrp"

    @pytest.mark.parametrize("kwargs", [
        {"groups": 0},
        {"sources": 0},
        {"sources": 100},
        {"source_skew": 0.0},
        {"group_size_min": 0},
        {"group_size_min": 13, "group_size_max": 12},
        {"group_size_max": 100},
        {"size_skew": 1.0},
        {"protocol": "pim"},
        {"d_thresh": -0.1},
        {"workload": "bursty"},
        {"churn_duration": 0.0},
        {"flash_fraction": 0.0},
        {"flash_fraction": 1.5},
        {"shard_size": 0},
        {"failure": "link:3"},
        {"failure": "link:a-b"},
        {"failure": "node:x"},
        {"failure": "meteor"},
        {"n": 2},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceSpec(**kwargs)

    def test_failure_syntaxes_accepted(self):
        for mode in ("none", "auto", "link:3-7", "node:12"):
            assert ServiceSpec(failure=mode).failure == mode


class TestIdentity:
    def test_round_trip(self):
        spec = ServiceSpec(groups=40, workload="flash", failure="link:1-2",
                           protocol="spf")
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        assert ServiceSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        payload = ServiceSpec().to_dict()
        payload["turbo"] = True
        with pytest.raises(ConfigurationError, match="unknown ServiceSpec"):
            ServiceSpec.from_dict(payload)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid ServiceSpec"):
            ServiceSpec.from_json("{nope")
        with pytest.raises(ConfigurationError, match="must be an object"):
            ServiceSpec.from_json(json.dumps([1, 2]))

    def test_content_key_stable_and_sensitive(self):
        a = ServiceSpec()
        assert a.content_key() == ServiceSpec().content_key()
        assert len(a.content_key()) == 16
        assert a.content_key() != ServiceSpec(groups=201).content_key()

    def test_describe_mentions_shape(self):
        text = ServiceSpec(groups=7, protocol="spf").describe()
        assert "7 spf groups" in text


class TestResolveFailure:
    @pytest.fixture
    def topology(self):
        return SubstrateCache().topology_for(ServiceSpec())

    def test_none(self, topology):
        assert resolve_failure(ServiceSpec(failure="none"), topology).is_empty

    def test_explicit_link(self, topology):
        u, v = next(iter(topology.links())).key
        failures = resolve_failure(
            ServiceSpec(failure=f"link:{u}-{v}"), topology
        )
        assert (u, v) in failures.failed_links

    def test_missing_link_rejected(self, topology):
        with pytest.raises(ConfigurationError, match="no link"):
            resolve_failure(ServiceSpec(failure="link:0-0"), topology)

    def test_explicit_node(self, topology):
        node = topology.nodes()[3]
        failures = resolve_failure(
            ServiceSpec(failure=f"node:{node}"), topology
        )
        assert node in failures.failed_nodes

    def test_missing_node_rejected(self, topology):
        with pytest.raises(ConfigurationError, match="no node"):
            resolve_failure(ServiceSpec(failure="node:100000"), topology)

    def test_auto_is_hot_source_incident(self, topology):
        spec = ServiceSpec(failure="auto")
        failures = resolve_failure(spec, topology)
        (u, v), = failures.failed_links
        hot = source_pool(spec, topology)[0]
        assert hot in (u, v)
        assert topology.has_link(u, v)

    def test_auto_deterministic(self, topology):
        spec = ServiceSpec(failure="auto")
        a = resolve_failure(spec, topology)
        b = resolve_failure(spec, topology)
        assert a.failed_links == b.failed_links


class TestProtectionFields:
    def test_protection_protocols_accepted(self):
        for protocol in ("protection", "hybrid", "alternate"):
            spec = ServiceSpec(protocol=protocol)
            assert spec.protocol == protocol

    def test_protect_budget_round_trips(self):
        spec = ServiceSpec(protocol="hybrid", protect_budget=7)
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        assert ServiceSpec.from_json(spec.to_json()).protect_budget == 7

    def test_negative_protect_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceSpec(protect_budget=-1)

    def test_protect_budget_changes_the_content_key(self):
        assert (
            ServiceSpec(protect_budget=4).content_key()
            != ServiceSpec(protect_budget=5).content_key()
        )
