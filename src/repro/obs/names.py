"""Registry of every observability name the codebase emits.

Metric names, span names, and trace phases are stringly-typed at their
emission sites; nothing in the type system stops a counter from being
renamed in one layer and silently orphaned in a dashboard, golden
report, or analysis script.  This module is the single inventory — the
lint test (``tests/obs/test_names.py``) scans the source tree for
emission sites and fails when a literal is emitted that is not listed
here (or listed here but emitted nowhere), so every rename shows up in
review as a registry diff.

Dynamic names (a per-kind message counter, a per-value sweep span) are
covered by ``DYNAMIC_PREFIXES``: an emitted name matches the registry
if it is listed exactly or extends a listed prefix.
"""

from __future__ import annotations

#: Counter / gauge / histogram names, as passed to
#: ``obs.counter(...)`` / ``obs.gauge(...)`` / ``obs.hdr_histogram(...)``.
METRIC_NAMES: frozenset[str] = frozenset({
    "cache.routes.batch_inserts",
    "cache.routes.evictions",
    "cache.routes.hit_rate",
    "cache.routes.hits",
    "cache.routes.reuse_proofs",
    "cache.routes.size",
    "cache.topology.evictions",
    "cache.topology.hit_rate",
    "cache.topology.size",
    "controller.failures_dispatched",
    "controller.groups_affected",
    "controller.groups_opened",
    "controller.members_restored",
    "controller.workload_events",
    "demo.widgets",
    "dist.groups",
    "dist.rows",
    "exec.checkpoint.hits",
    "exec.checkpoint.writes",
    "exec.jobs",
    "exec.retries",
    "exec.scenarios",
    "exec.worker_reports_merged",
    # Protection state is built at first need, so backups_built and
    # alternate.tables/routes count what failures (or standing-state
    # accounting) actually asked for, not what a tree change could need.
    "protection.alternate.hits",
    "protection.alternate.misses",
    "protection.alternate.routes",
    "protection.alternate.tables",
    "protection.backups_built",
    "protection.fallbacks",
    "protection.standing_links",
    "protection.switchovers",
    "recovery.global.already_connected",
    "recovery.global.attempts",
    "recovery.global.hops",
    "recovery.global.unrecoverable",
    "recovery.local.already_connected",
    "recovery.local.attempts",
    "recovery.local.hops",
    "recovery.local.unrecoverable",
    "recovery.repair.members_restored",
    # Post-failure searches a repair opened: one per pending member that
    # needed a detour (each resumed, never re-run, across rounds).
    "recovery.repair.spf_runs",
    "recovery.repair.unrecoverable",
    "routing.batch.calls",
    "routing.batch.roots",
    "routing.batch.rounds",
    "routing.candidates.batched_searches",
    # Merge points priced within the delay bound the enumeration was
    # given; a join or reshape prices only those (§3.2.2).
    "routing.candidates.evaluated",
    "routing.kernel.barrier_calls",
    "routing.kernel.calls",
    "scenario.runs",
    "sim.engine.events_cancelled",
    "sim.engine.events_fired",
    "sim.engine.events_scheduled",
    "sim.engine.queue_depth",
    "sim.msg.delivered",
    "sim.msg.lost",
    "sim.recovery.detections",
    "sim.recovery.detour_hops",
    "sim.recovery.restored",
    "sim.recovery.unrecoverable",
    "smrp.fallback_joins",
    "smrp.join_signaling_hops",
    "smrp.joins",
    "smrp.leave_signaling_hops",
    "smrp.leaves",
    "smrp.query_hops",
    "smrp.query_messages",
    "smrp.reshape_evaluations",
    "smrp.reshapes_performed",
    "smrp.state.n_updates",
    "smrp.state.shr_pulls",
    "smrp.state.shr_pushes",
    "telemetry.batch.completed",
    "telemetry.batch.total",
    "telemetry.eta_s",
    "telemetry.group_restore_latency_s",
    "telemetry.in_flight",
    "telemetry.scenario_seconds",
    "telemetry.throughput_per_s",
})

#: Span names, as passed to ``obs.span(...)`` / ``obs.spans.span(...)``.
SPAN_NAMES: frozenset[str] = frozenset({
    "controller.fail",
    "controller.restore",
    "demo.work",
    "fault.injected_hang",
    "inner",
    "outer",
    "prof.run",
    "protection.switchover",
    "recovery.repair_tree",
    "scenario.build.smrp",
    "scenario.build.spf",
    "scenario.measure",
    "scenario.topology",
    "service.run",
    "service.shard",
    "sim.join.select_path",
    "sim.recovery.detour",
    "smrp.build",
    "smrp.join",
    "smrp.leave",
    "smrp.repair",
    "smrp.reshape",
    "sweep.run",
})

#: Trace phases of restoration episodes (:mod:`repro.obs.tracing`).
TRACE_PHASES: frozenset[str] = frozenset({
    "episode",
    "detect",
    "converge",
    "search",
    "search.candidates",
    "signal",
    "signal.hop",
    "repair",
    "reshape.evaluate",
})

#: Prefixes for names built at runtime (f-strings over message kinds,
#: engines, fault-injection counters).  A dynamic emission matches
#: when its literal prefix is listed here.
DYNAMIC_PREFIXES: tuple[str, ...] = (
    "dist.",          # dist.{latency,mean_latency}.<engine> hdr histograms
    "exec.",          # exec.{timeouts,crashes,scenario_errors} fault counters
    "sim.msg.bytes.",  # per message kind
    "sim.msg.sent.",   # per message kind
    "smrp.msg.",       # per protocol message kind
)

ALL_STATIC_NAMES: frozenset[str] = METRIC_NAMES | SPAN_NAMES | TRACE_PHASES


def is_registered(name: str) -> bool:
    """Whether ``name`` is in the registry, exactly or via a prefix."""
    if name in ALL_STATIC_NAMES:
        return True
    return any(
        name.startswith(prefix) and name != prefix
        for prefix in DYNAMIC_PREFIXES
    )
