"""Scenario configuration: everything one simulation run depends on.

The paper's tunables (§4.1): network size ``N``, group size ``N_G``, the
Waxman edge-density parameter ``α`` (β is fixed), and the protocol knob
``D_thresh``.  A scenario additionally pins the random seeds, so every
data point in every figure is exactly reproducible.

Validation is **eager and uniform**: every field is checked at
construction time (``__post_init__``), so an invalid configuration fails
where it is created — at the API boundary or when a sweep grid is
assembled — never lazily deep inside a worker process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.topology import NodeId, Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.group import random_member_set
from repro.obs.jsonl import digest


def validate_scenario_params(
    *,
    n: int,
    group_size: int,
    alpha: float,
    beta: float,
    d_thresh: float,
    knowledge: str,
) -> None:
    """Uniform eager checks shared by :class:`ScenarioConfig` and
    :class:`repro.experiments.exec.spec.ExperimentSpec`.

    Raises :class:`ConfigurationError` on the first violated constraint.
    """
    if n < 2:
        raise ConfigurationError(f"network size N must be >= 2, got {n}")
    if group_size < 1:
        raise ConfigurationError(f"group size must be >= 1, got {group_size}")
    if group_size >= n:
        raise ConfigurationError(
            f"group size {group_size} must be below N={n} "
            "(the source is not a member)"
        )
    if not 0 < alpha <= 1:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    if not 0 < beta <= 1:
        raise ConfigurationError(f"beta must be in (0, 1], got {beta}")
    if d_thresh < 0:
        raise ConfigurationError(f"d_thresh must be >= 0, got {d_thresh}")
    if knowledge not in ("full", "query"):
        raise ConfigurationError(
            f"unknown knowledge mode {knowledge!r}; expected 'full' or 'query'"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """One evaluation scenario (paper defaults: N=100, N_G=30, α=0.2,
    D_thresh=0.3)."""

    n: int = 100
    group_size: int = 30
    alpha: float = 0.2
    beta: float = 0.25
    d_thresh: float = 0.3
    topology_seed: int = 0
    member_seed: int = 0
    reshape_enabled: bool = True
    knowledge: str = "full"

    def __post_init__(self) -> None:
        validate_scenario_params(
            n=self.n,
            group_size=self.group_size,
            alpha=self.alpha,
            beta=self.beta,
            d_thresh=self.d_thresh,
            knowledge=self.knowledge,
        )

    def waxman_config(self) -> WaxmanConfig:
        """The scenario's topology parameters — also the substrate cache
        key (:class:`repro.graph.cache.TopologyCache`)."""
        return WaxmanConfig(
            n=self.n,
            alpha=self.alpha,
            beta=self.beta,
            seed=self.topology_seed,
        )

    def build_topology(self) -> Topology:
        """The scenario's Waxman topology (connectivity-repaired)."""
        return waxman_topology(self.waxman_config()).topology

    def pick_participants(self, topology: Topology) -> tuple[NodeId, list[NodeId]]:
        """Source and member join order, drawn from ``member_seed``."""
        rng = np.random.default_rng(self.member_seed)
        source = int(rng.integers(self.n))
        members = random_member_set(topology, source, self.group_size, rng)
        return source, members

    def with_seeds(self, topology_seed: int, member_seed: int) -> "ScenarioConfig":
        """The same configuration with different random draws."""
        return replace(self, topology_seed=topology_seed, member_seed=member_seed)

    def content_key(self) -> str:
        """Stable content digest — the scenario's checkpoint identity.

        :func:`~repro.obs.jsonl.digest` of the fields.  Every field that
        influences the result is a dataclass field, so equal configs —
        however they were assembled — share a key, and any parameter
        change produces a fresh one.
        """
        return digest(asdict(self))

    def describe(self) -> str:
        return (
            f"N={self.n} N_G={self.group_size} alpha={self.alpha} "
            f"D_thresh={self.d_thresh} seeds=({self.topology_seed},{self.member_seed})"
        )
