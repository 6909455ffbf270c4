"""Declarative controller runs over the standard executors.

A :class:`~repro.controller.spec.ServiceSpec` names a whole multi-group
run; this module executes it.  The spec's group range is cut into
:class:`ServiceShard` work units — consecutive ``[start, stop)`` slices
of ``spec.shard_size`` groups — which implement the execution layer's
work-unit protocol (``run(obs=..., cache=...)`` + ``content_key()`` +
``describe()``), so they ride every executor the scenario sweeps do:
serial, and the process pool with checkpoint/resume
(:class:`ShardResult` registers itself under the ``"service_shard"``
checkpoint type tag).

Because every per-group quantity is a pure function of
``(spec, group index)`` — sources, member sets, workloads, and the
failure all resolve from the spec and the shared topology — each shard
builds only *its* groups yet produces exactly the rows a serial run
would for those indices.  :func:`run_service` merges shard results in
shard order and the resulting :class:`ServiceReport` renders
byte-identically whether the run was serial, pooled (faulted or not),
or resumed from a checkpoint (the determinism suite asserts this;
``benchmarks/test_goldens.py`` diffs the outputs for real).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.controller import GroupRestoration, MulticastController
from repro.controller.spec import ServiceSpec, resolve_failure
from repro.controller.workload import build_workload, group_sources
from repro.core.protocol import SMRPConfig
from repro.errors import CheckpointError
from repro.experiments.tables import format_table
from repro.obs import NULL_OBS
from repro.obs.jsonl import digest

#: Bumped when :class:`ShardResult`'s serialised layout changes, so a
#: checkpoint written by one version is never misread by another.
SERVICE_PAYLOAD_VERSION = 1


@dataclass(frozen=True)
class ServiceShard:
    """Groups ``[start, stop)`` of one service spec, as a work unit."""

    spec: ServiceSpec
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop <= self.spec.groups:
            raise CheckpointError(
                f"shard [{self.start}, {self.stop}) is outside the spec's "
                f"{self.spec.groups} groups"
            )

    def content_key(self) -> str:
        return digest({
            "kind": "service_shard",
            "spec": self.spec.to_dict(),
            "start": self.start,
            "stop": self.stop,
        })

    def describe(self) -> str:
        return (
            f"service shard groups [{self.start}, {self.stop}) of "
            f"{self.spec.describe()}"
        )

    def run(self, obs=None, cache=None) -> "ShardResult":
        """Host this shard's groups, inject the spec's failure, restore.

        ``cache`` is the executor-provided substrate cache: the topology
        comes from it (shared across shards landing on the same worker)
        and its route cache amortises SPF state across this shard's
        groups.  Workers never publish telemetry — ``group.restore``
        records are emitted parent-side after the merge, so every
        executor kind produces the identical record stream.
        """
        obs = obs if obs is not None else NULL_OBS
        spec = self.spec
        if cache is None:
            from repro.experiments.exec.cache import SubstrateCache

            cache = SubstrateCache()
        topology = cache.topology_for(spec, obs=obs)
        controller = MulticastController(
            topology,
            protocol=spec.protocol,
            smrp_config=SMRPConfig(
                d_thresh=spec.d_thresh,
                reshape_enabled=spec.reshape_enabled,
                self_check=False,
            ),
            protect_budget=spec.protect_budget,
            cache=cache,
            obs=obs,
        )
        sources = group_sources(spec, topology)
        events = 0
        with obs.span("service.shard"):
            for index in range(self.start, self.stop):
                gid = controller.open_group(sources[index], index)
                workload = build_workload(spec, topology, index, sources[index])
                events += controller.apply_workload(gid, workload)
            failures = resolve_failure(spec, topology)
            rows: tuple = ()
            failure_text = failures.describe()
            if not failures.is_empty:
                controller.fail(failures)
                rows = controller.restore().rows
        return ShardResult(
            spec_key=spec.content_key(),
            start=self.start,
            stop=self.stop,
            groups=self.stop - self.start,
            members=controller.metrics()["members"],
            events=events,
            failure=failure_text,
            rows=list(rows),
        )


@dataclass
class ShardResult:
    """One shard's outcome — plain data, checkpointable.

    ``rows`` holds a :class:`GroupRestoration` per *affected* group of
    the shard (unaffected groups contribute membership counts only).
    """

    #: Checkpoint type tag (see ``repro.experiments.exec.checkpoint``).
    checkpoint_type = "service_shard"

    spec_key: str
    start: int
    stop: int
    groups: int
    members: int
    events: int
    failure: str
    rows: list = field(default_factory=list)
    payload_version: int = SERVICE_PAYLOAD_VERSION

    def to_dict(self) -> dict:
        return {
            "payload_version": self.payload_version,
            "spec_key": self.spec_key,
            "start": self.start,
            "stop": self.stop,
            "groups": self.groups,
            "members": self.members,
            "events": self.events,
            "failure": self.failure,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardResult":
        version = payload.get("payload_version")
        if version != SERVICE_PAYLOAD_VERSION:
            raise CheckpointError(
                f"service shard payload version {version!r} is not "
                f"{SERVICE_PAYLOAD_VERSION}; refusing to reinterpret"
            )
        data = dict(payload)
        data["rows"] = [
            GroupRestoration.from_dict(row) for row in payload.get("rows", [])
        ]
        return cls(**data)


@dataclass(frozen=True)
class ServiceReport:
    """Merged outcome of a whole service run.

    :meth:`render_table` is the run's canonical text form.  It depends
    only on the spec and the merged rows — never on executor kind, job
    count, or shard placement — which is what the serial-vs-sharded
    byte-identity guarantee (and the CI diff) is asserted against.
    """

    spec: ServiceSpec
    failure: str
    groups: int
    members: int
    events: int
    shards: int
    rows: tuple

    @property
    def affected(self) -> int:
        return len(self.rows)

    @property
    def restored(self) -> int:
        return sum(row.restored for row in self.rows)

    @property
    def unrecoverable(self) -> int:
        return sum(row.unrecoverable for row in self.rows)

    def render_table(self) -> str:
        spec = self.spec
        lines = [
            f"service {spec.content_key()}",
            f"topology: waxman n={spec.n} alpha={spec.alpha:g} "
            f"beta={spec.beta:g} seed={spec.topology_seed}",
            f"population: {spec.groups} {spec.protocol} groups over "
            f"{spec.sources} sources (workload={spec.workload})",
            f"failure: {self.failure}",
            f"hosted: {self.groups} groups, {self.members} members, "
            f"{self.events} membership events, {self.shards} shards",
            "",
        ]
        if self.rows:
            table_rows = [
                (
                    f"{row.source}:{row.group}",
                    row.protocol,
                    str(row.members),
                    str(row.affected),
                    str(row.restored),
                    str(row.unrecoverable),
                    row.strategy,
                    f"{row.recovery_distance:.1f}",
                    f"{row.latency_s:.1f}",
                )
                for row in self.rows
            ]
            lines.append(
                format_table(
                    (
                        "group",
                        "proto",
                        "members",
                        "cut",
                        "restored",
                        "unrec",
                        "strategy",
                        "mean-RD",
                        "latency",
                    ),
                    table_rows,
                )
            )
            latencies = [row.latency_s for row in self.rows if row.restored]
            worst = max(latencies, default=0.0)
            lines.append("")
            lines.append(
                f"affected: {self.affected}/{self.groups} groups; "
                f"restored {self.restored} members "
                f"({self.unrecoverable} unrecoverable); "
                f"worst restoration latency {worst:.1f}"
            )
        else:
            lines.append("no groups affected")
        return "\n".join(lines)


def plan_shards(spec: ServiceSpec) -> list[ServiceShard]:
    """Cut the spec's group range into its shard work units.

    The partition depends only on ``spec.shard_size`` — never on the
    executor or job count — so shard content keys (and therefore
    checkpoint entries) survive re-runs with different ``--jobs``.
    """
    return [
        ServiceShard(spec, start, min(start + spec.shard_size, spec.groups))
        for start in range(0, spec.groups, spec.shard_size)
    ]


def run_service(spec: ServiceSpec, *, executor=None, obs=None) -> ServiceReport:
    """Execute a service spec and merge its shards into one report.

    The shards run on ``executor`` (a transient serial one by default;
    :meth:`repro.api.Session.run_service` passes the session's).  After
    the merge, one ``group.restore`` telemetry record per restored group
    is published on the executor's hub (if any) — parent-side and in
    group order, so the record stream is identical across executor kinds
    (pool workers send only heartbeats).
    """
    from repro.experiments.exec.executor import SerialExecutor

    obs = obs if obs is not None else NULL_OBS
    executor = executor if executor is not None else SerialExecutor()
    shards = plan_shards(spec)
    with obs.span("service.run"):
        results = executor.map_units(shards, obs=obs)
    hub = executor.telemetry
    rows: list[GroupRestoration] = []
    members = 0
    events = 0
    failure = "no failures"
    for result in results:
        rows.extend(result.rows)
        members += result.members
        events += result.events
        failure = result.failure
    if hub is not None:
        for row in rows:
            hub.publish(
                "group.restore",
                group=f"{row.source}:{row.group}",
                protocol=row.protocol,
                affected=row.affected,
                restored=row.restored,
                unrecoverable=row.unrecoverable,
                strategy=row.strategy,
                latency_s=row.latency_s,
            )
    return ServiceReport(
        spec=spec,
        failure=failure,
        groups=spec.groups,
        members=members,
        events=events,
        shards=len(shards),
        rows=tuple(rows),
    )
