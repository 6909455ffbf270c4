"""The declarative experiment specification.

An :class:`ExperimentSpec` is the single value object describing a whole
sweep: the base scenario parameters (what :class:`ScenarioConfig` pins
per scenario), which parameter is swept over which values, and the
seeding grid.  It consolidates what used to travel as loose
``ScenarioConfig``/``SMRPConfig`` fields and per-figure keyword plumbing,
and it is:

- **frozen and hashable** — usable as a cache/dedup key;
- **JSON-serializable** — :meth:`to_json` / :meth:`from_json` round-trip,
  so a spec can cross process boundaries or be archived next to results;
- **content-keyed** — :meth:`content_key` is a stable digest of the
  canonical JSON form, the identity used for run manifests;
- **eagerly validated** — every constraint is checked at construction,
  including that every swept value yields a valid scenario.

The executors (:mod:`repro.experiments.exec.executor`) consume specs and
produce :class:`~repro.experiments.sweeps.SweepPoint` lists; the figure
drivers are thin spec factories.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, validate_scenario_params
from repro.obs.jsonl import digest

#: Fields of :class:`ScenarioConfig` a spec may sweep, with the type the
#: swept value is coerced to when instantiating scenarios.
SWEEPABLE_PARAMETERS: dict[str, type] = {
    "d_thresh": float,
    "alpha": float,
    "group_size": int,
    "n": int,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep description (defaults mirror the paper's §4.1 setup).

    Examples
    --------
    >>> spec = ExperimentSpec(sweep_parameter="d_thresh",
    ...                       sweep_values=(0.1, 0.3),
    ...                       topologies=2, member_sets=2)
    >>> [len(configs) for _, configs in spec.points()]
    [4, 4]
    >>> ExperimentSpec.from_json(spec.to_json()) == spec
    True
    """

    # -- base scenario parameters ---------------------------------------
    n: int = 100
    group_size: int = 30
    alpha: float = 0.2
    beta: float = 0.25
    d_thresh: float = 0.3
    reshape_enabled: bool = True
    knowledge: str = "full"

    # -- what is swept --------------------------------------------------
    sweep_parameter: str = "d_thresh"
    sweep_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)

    # -- the seeding grid (§4.1: 10 × 10 = 100 scenarios per value) -----
    topologies: int = 10
    member_sets: int = 10
    seed_offset: int = 0

    def __post_init__(self) -> None:
        # Normalise to a tuple so specs built with lists are hashable.
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if self.sweep_parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigurationError(
                f"unknown sweep parameter {self.sweep_parameter!r}; "
                f"expected one of {sorted(SWEEPABLE_PARAMETERS)}"
            )
        if not self.sweep_values:
            raise ConfigurationError("sweep_values must not be empty")
        if len(set(self.sweep_values)) != len(self.sweep_values):
            raise ConfigurationError(
                f"sweep_values contain duplicates: {self.sweep_values}"
            )
        if self.topologies < 1 or self.member_sets < 1:
            raise ConfigurationError("grid dimensions must be positive")
        if self.seed_offset < 0:
            raise ConfigurationError(
                f"seed_offset must be >= 0, got {self.seed_offset}"
            )
        # Every swept value must yield a valid scenario — fail here, not
        # inside a worker process halfway through the sweep.
        for value in self.sweep_values:
            params = {
                "n": self.n,
                "group_size": self.group_size,
                "alpha": self.alpha,
                "beta": self.beta,
                "d_thresh": self.d_thresh,
                "knowledge": self.knowledge,
            }
            params[self.sweep_parameter] = SWEEPABLE_PARAMETERS[
                self.sweep_parameter
            ](value)
            validate_scenario_params(**params)

    # ------------------------------------------------------------------
    # Scenario expansion
    # ------------------------------------------------------------------
    def config_for(self, value: float) -> ScenarioConfig:
        """The base :class:`ScenarioConfig` at one swept value (seeds 0).

        The swept value is applied *during* construction — the base
        parameters alone need not form a valid scenario (e.g. a
        group-size sweep whose base ``group_size`` exceeds a small ``n``).
        """
        params = {
            "n": self.n,
            "group_size": self.group_size,
            "alpha": self.alpha,
            "beta": self.beta,
            "d_thresh": self.d_thresh,
            "reshape_enabled": self.reshape_enabled,
            "knowledge": self.knowledge,
        }
        params[self.sweep_parameter] = SWEEPABLE_PARAMETERS[self.sweep_parameter](
            value
        )
        return ScenarioConfig(**params)

    def points(self) -> list[tuple[float, tuple[ScenarioConfig, ...]]]:
        """``(value, scenario grid)`` per swept value, in declaration order.

        Every value faces the *same* topology/member-set grid (the paper
        varies one parameter at a time over a common random ensemble).
        """
        from repro.experiments.sweeps import scenario_grid

        return [
            (
                float(value),
                tuple(
                    scenario_grid(
                        self.config_for(value),
                        self.topologies,
                        self.member_sets,
                        self.seed_offset,
                    )
                ),
            )
            for value in self.sweep_values
        ]

    def scenario_configs(self) -> list[ScenarioConfig]:
        """The flat work-unit list, in deterministic (value, seed) order."""
        return [c for _, configs in self.points() for c in configs]

    # ------------------------------------------------------------------
    # Serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["sweep_values"] = list(payload["sweep_values"])
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ExperimentSpec fields: {sorted(unknown)}"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid ExperimentSpec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("ExperimentSpec JSON must be an object")
        return cls.from_dict(payload)

    def content_key(self) -> str:
        """Stable content digest — the spec's identity (run manifests)."""
        return digest(self.to_dict())

    def describe(self) -> str:
        return (
            f"sweep {self.sweep_parameter} over {list(self.sweep_values)} "
            f"(N={self.n}, N_G={self.group_size}, alpha={self.alpha}, "
            f"grid {self.topologies}x{self.member_sets}, "
            f"{len(self.sweep_values) * self.topologies * self.member_sets} "
            f"scenarios)"
        )

