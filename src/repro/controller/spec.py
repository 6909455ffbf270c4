"""Declarative controller runs: the :class:`ServiceSpec`.

A :class:`ServiceSpec` is to a controller run what
:class:`~repro.experiments.exec.spec.ExperimentSpec` is to a sweep: a
frozen, validated, JSON-round-trippable value whose
:meth:`~ServiceSpec.content_key` (SHA-256 prefix of the canonical JSON
form) names everything derived from it — checkpoint entries, shard work
units, telemetry records.  Every quantity a run needs — the topology,
each group's source, size, membership workload, and the injected
failure — is a pure function of the spec, which is what makes sharded
runs byte-identical to serial ones: a group's restoration row cannot
depend on which worker hosted it.

:func:`resolve_failure` turns the spec's ``failure`` field into a
concrete :class:`~repro.routing.failure_view.FailureSet` using only the
spec and the topology (never the built trees), so every shard resolves
the identical failure independently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.controller.controller import check_protocol
from repro.errors import ConfigurationError
from repro.graph.topology import Topology
from repro.graph.waxman import WaxmanConfig
from repro.multicast.backup_trees import DEFAULT_BUDGET
from repro.obs.jsonl import digest
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import dijkstra

#: Membership workload shapes (see :mod:`repro.controller.workload`).
WORKLOADS = ("static", "poisson", "flash")


@dataclass(frozen=True)
class ServiceSpec:
    """One reproducible multi-group controller run.

    Attributes
    ----------
    n, alpha, beta, topology_seed:
        The shared Waxman topology (same parameterisation as
        :class:`~repro.experiments.scenario.ScenarioConfig`).
    groups:
        Number of hosted ``(source, group)`` sessions.
    sources:
        Size of the source pool.  Groups are assigned to sources by Zipf
        popularity: rank-0 (the "hot" source) hosts the largest share.
    source_skew:
        Zipf exponent of the source popularity distribution (> 0;
        larger = more skew toward the hot source).
    group_size_min, group_size_max, size_skew:
        Initial group sizes are ``min + (Zipf(size_skew) - 1)`` clipped
        to ``max`` — a heavy-tailed population where most groups are
        small and a few are large (``size_skew`` > 1).
    member_seed:
        Seeds the per-group generators (sources pool, member picks,
        churn); a group's randomness derives from
        ``(member_seed, topology_seed, group index)`` only.
    protocol:
        Engine for every hosted group, one of
        :data:`~repro.controller.controller.ENGINES`: ``"smrp"``
        (local-detour restoration), ``"spf"`` (the PIM/MOSPF
        global-detour baseline), ``"protection"`` (SPF + per-link
        backup trees), ``"hybrid"`` (SMRP + per-link backup trees), or
        ``"alternate"`` (SPF + precomputed single-failure alternate
        routes).
    d_thresh, reshape_enabled:
        SMRP parameters (ignored by the SPF baseline).
    protect_budget:
        Protected-link budget ``F`` of the ``protection``/``hybrid``
        engines (ignored by the others).
    workload:
        ``"static"`` — members join once; ``"poisson"`` — Poisson
        arrivals with exponential holding times; ``"flash"`` — a static
        base plus a simultaneous flash-crowd burst that partially
        drains again.
    churn_duration, mean_holding_time, mean_interarrival:
        Churn-shape parameters (``poisson`` and ``flash``).
    flash_fraction:
        Fraction of non-member candidates that join in the flash burst.
    failure:
        ``"none"``, ``"auto"`` (the busiest link out of the hot source —
        a regional failure hitting the largest share of groups),
        ``"link:U-V"``, or ``"node:X"``.
    shard_size:
        Groups per :class:`~repro.controller.service.ServiceShard` work
        unit.  Part of the spec (not an execution knob) so shard
        content keys — and therefore checkpoint identities — do not
        depend on ``--jobs``.
    """

    n: int = 100
    alpha: float = 0.2
    beta: float = 0.25
    topology_seed: int = 0
    groups: int = 200
    sources: int = 8
    source_skew: float = 1.1
    group_size_min: int = 2
    group_size_max: int = 12
    size_skew: float = 1.6
    member_seed: int = 0
    protocol: str = "smrp"
    d_thresh: float = 0.3
    reshape_enabled: bool = True
    protect_budget: int = DEFAULT_BUDGET
    workload: str = "static"
    churn_duration: float = 200.0
    mean_holding_time: float = 120.0
    mean_interarrival: float = 10.0
    flash_fraction: float = 0.25
    failure: str = "auto"
    shard_size: int = 50

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConfigurationError(f"n must be >= 3, got {self.n}")
        if self.groups < 1:
            raise ConfigurationError(f"groups must be >= 1, got {self.groups}")
        if not 1 <= self.sources < self.n:
            raise ConfigurationError(
                f"sources must be in [1, n), got {self.sources} with n={self.n}"
            )
        if self.source_skew <= 0:
            raise ConfigurationError(
                f"source_skew must be positive, got {self.source_skew}"
            )
        if not 1 <= self.group_size_min <= self.group_size_max:
            raise ConfigurationError(
                f"need 1 <= group_size_min <= group_size_max, got "
                f"[{self.group_size_min}, {self.group_size_max}]"
            )
        if self.group_size_max > self.n - 1:
            raise ConfigurationError(
                f"group_size_max {self.group_size_max} exceeds the "
                f"{self.n - 1} candidate members"
            )
        if self.size_skew <= 1:
            raise ConfigurationError(
                f"size_skew must be > 1 (Zipf exponent), got {self.size_skew}"
            )
        check_protocol(self.protocol)
        if self.d_thresh < 0:
            raise ConfigurationError(f"d_thresh must be >= 0, got {self.d_thresh}")
        if self.protect_budget < 0:
            raise ConfigurationError(
                f"protect_budget must be >= 0, got {self.protect_budget}"
            )
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        if (
            self.churn_duration <= 0
            or self.mean_holding_time <= 0
            or self.mean_interarrival <= 0
        ):
            raise ConfigurationError("churn parameters must be positive")
        if not 0 < self.flash_fraction <= 1:
            raise ConfigurationError(
                f"flash_fraction must be in (0, 1], got {self.flash_fraction}"
            )
        if self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        self._check_failure_syntax()

    def _check_failure_syntax(self) -> None:
        mode = self.failure
        if mode in ("none", "auto"):
            return
        if mode.startswith("link:"):
            u, sep, v = mode[len("link:"):].partition("-")
            if sep and u.lstrip("-").isdigit() and v.lstrip("-").isdigit():
                return
            raise ConfigurationError(
                f"failure {mode!r}: expected link:U-V with integer node ids"
            )
        if mode.startswith("node:"):
            if mode[len("node:"):].lstrip("-").isdigit():
                return
            raise ConfigurationError(
                f"failure {mode!r}: expected node:X with an integer node id"
            )
        raise ConfigurationError(
            f"unknown failure {mode!r}; expected none, auto, link:U-V, or node:X"
        )

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    def waxman_config(self) -> WaxmanConfig:
        """The run's topology parameters — also the substrate cache key,
        so controller runs and scenario sweeps share generated graphs."""
        return WaxmanConfig(
            n=self.n, alpha=self.alpha, beta=self.beta, seed=self.topology_seed
        )

    # ------------------------------------------------------------------
    # Serialisation and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceSpec":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ServiceSpec fields: {sorted(unknown)}"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "ServiceSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid ServiceSpec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("ServiceSpec JSON must be an object")
        return cls.from_dict(payload)

    def content_key(self) -> str:
        """Stable content digest — the run's identity for caching."""
        return digest(self.to_dict())

    def describe(self) -> str:
        return (
            f"{self.groups} {self.protocol} groups on N={self.n} "
            f"(sources={self.sources}, workload={self.workload}, "
            f"failure={self.failure})"
        )


def resolve_failure(spec: ServiceSpec, topology: Topology) -> FailureSet:
    """The spec's injected failure as a concrete :class:`FailureSet`.

    Resolution uses only the spec and the topology — never the hosted
    trees — so every shard of a sharded run derives the identical
    failure without coordination.  ``auto`` picks the busiest link out
    of the *hot* source (Zipf rank 0): the source-incident link whose
    SPF first-hop subtree covers the most nodes, i.e. the single link
    failure expected to cut the largest share of hosted groups.
    """
    mode = spec.failure
    if mode == "none":
        return NO_FAILURES
    if mode == "auto":
        return _busiest_source_link(spec, topology)
    if mode.startswith("link:"):
        u_text, _, v_text = mode[len("link:"):].partition("-")
        u, v = int(u_text), int(v_text)
        if not topology.has_link(u, v):
            raise ConfigurationError(
                f"failure {mode!r}: topology has no link {u}-{v}"
            )
        return FailureSet.links((u, v))
    node = int(mode[len("node:"):])
    if not topology.has_node(node):
        raise ConfigurationError(f"failure {mode!r}: topology has no node {node}")
    return FailureSet.nodes(node)


def _busiest_source_link(spec: ServiceSpec, topology: Topology) -> FailureSet:
    from repro.controller.workload import source_pool

    hot = source_pool(spec, topology)[0]
    paths = dijkstra(topology, hot, weight="delay")
    # Count, per first hop out of the hot source, how many nodes route
    # through it; memoised walk up the SPF parent chain.
    first_hop: dict = {hot: None}

    def hop_of(node):
        if node in first_hop:
            return first_hop[node]
        hop = node if paths.parent[node] == hot else hop_of(paths.parent[node])
        first_hop[node] = hop
        return hop

    counts: dict = {}
    for node in paths.dist:
        if node == hot:
            continue
        hop = hop_of(node)
        counts[hop] = counts.get(hop, 0) + 1
    if not counts:
        raise ConfigurationError(
            f"failure 'auto': hot source {hot} has no reachable neighbors"
        )
    # Largest subtree wins; node-id tie-break keeps the choice stable.
    best = max(counts, key=lambda hop: (counts[hop], -hop))
    return FailureSet.links((hot, best))
