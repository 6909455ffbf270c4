"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate the paper's evaluation figures (7–10) as text tables.
``scenario``
    Run a single seeded scenario and print the per-member comparison of
    SMRP against the SPF baseline.
``simulate``
    Run the message-level simulator on a random topology, optionally
    injecting a worst-case failure, and print the event summary.
``controller`` (alias ``serve``)
    Host a whole multicast service: hundreds-to-thousands of groups on
    one topology (Zipf source popularity, heavy-tailed sizes, optional
    churn or flash-crowd workloads), inject a failure, restore every
    affected group in one pass, and print the per-group restoration
    table.  The run is declarative (``--spec service.json`` or
    individual flags) and shards over the standard executors —
    ``--jobs 4`` output is byte-identical to serial output.
``protection``
    Run the protection-family figure: restoration latency, recovery
    distance, and standing reserved state for local detour, global
    detour, precomputed per-link backup trees, hybrid, and
    alternate-path recovery across link failure rates.
``distribution``
    Restoration-latency *distribution* figure: host thousands of
    controller groups per engine, inject the same failure everywhere,
    and print p50/p90/p99/p99.9/max latency per engine from
    log-bucketed HDR histograms — the tail-behaviour companion to the
    mean-based figures.  Shards over the standard executors with
    byte-identical output.
``obs``
    Observability artifacts: ``report`` renders a captured run report,
    ``tail`` replays a telemetry flight record, ``export`` renders a run
    report as OpenMetrics text, ``diff`` compares two run reports
    (counters, span self-times, latency quantiles), ``flame`` emits a
    collapsed-stack self-time profile of a run report for flamegraph
    tooling.
``trace``
    Causal restoration traces: ``analyze`` prints per-phase latency
    breakdowns and critical paths, ``export`` converts an NDJSON trace
    to Chrome trace-event JSON (open it at https://ui.perfetto.dev),
    ``diff`` compares two analyses, ``figure`` renders the
    restoration-latency-by-phase figure family.
``info``
    Version and component inventory.

The run-producing commands accept ``--obs-out PATH`` to capture a
structured run report (metric counters, histograms, span timings) as
JSON; ``repro obs report PATH`` renders it afterwards.  They also
accept ``--trace-out PATH`` to record causal restoration episodes in
simulated time (:mod:`repro.obs.tracing`) as an NDJSON trace; tracing
is observe-only, so stdout tables stay byte-identical with or without
it, and the confirmation line goes to stderr.

``figures``, ``controller``/``serve``, ``protection``, and
``distribution`` additionally accept ``--profile``: the run body is
wrapped in a ``prof.run`` span and an exclusive-self-time profile
(where the wall clock actually went) is printed to stderr afterwards.
``--profile`` works with or without ``--obs-out``; combined with it,
the captured report carries the span tree plus a ``profile_wall_s``
meta field, and ``repro obs flame REPORT`` turns it into collapsed
stacks.  Profiling is observe-only: stdout stays byte-identical.

Live telemetry
--------------
``figures`` and ``scenario`` also stream while running: ``--progress``
renders a live progress line to stderr (throughput, ETA, in-flight,
fault counts), ``--telemetry-out PATH`` appends every lifecycle record
(scenario started / finished / retried / timed out / crashed, worker
heartbeats with span-stack snapshots) to an NDJSON flight record, and
``--openmetrics-out PATH`` keeps an OpenMetrics textfile refreshed for
node-exporter-style scraping.  All three are observe-only: stdout tables
are byte-identical with or without them.  ``repro obs tail`` replays a
flight record after the fact.

Parallel execution
------------------
Every command that runs work units (``figures``, ``scenario``,
``serve``, ``protection``, ``distribution``, ``trace figure``) runs them
on a :func:`repro.api.open_session` session and accepts ``--jobs N``.
``--jobs N`` with ``N > 1`` fans work units out over a pool of
long-lived worker processes; results are merged deterministically in
seed order, so parallel output is byte-identical to serial output.
``--jobs`` below 1 is rejected.  A ``simulate`` run is a single
discrete-event run, so it takes none of these flags.

Fault tolerance
---------------
``--timeout S``, ``--retries N``, ``--checkpoint-dir DIR``, and
``--resume`` set the pool's execution policy (each implies the pool,
even at ``--jobs 1``): a unit whose worker crashed or ran past the
timeout is retried with exponential backoff on a fresh worker, and
completed results persist to a content-keyed checkpoint store so an
interrupted sweep resumes instead of restarting.  Output stays
byte-identical to a clean serial run regardless of faults.
``--inject-fault KIND:INDEX`` (testing/CI) arms a deliberate crash,
hang, or transient error against one work unit.  Every one of these
flags is checked before any output file opens, so a rejected command
(exit 2) leaves nothing behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from repro.controller.controller import ENGINES
from repro.multicast.backup_trees import DEFAULT_BUDGET


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: in-process; N > 1 runs a pool)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="S",
        help="per-unit wall-clock limit in seconds; a hung worker is "
             "killed and its unit retried (implies the pool)",
    )
    parser.add_argument(
        "--retries", type=int, metavar="N",
        help="re-attempts per unit after a crash, timeout, or transient "
             "error (default 2; implies the pool)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist completed units to a content-keyed store in DIR "
             "(implies the pool)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="serve scenarios already in --checkpoint-dir from disk "
             "instead of recomputing them",
    )
    parser.add_argument(
        "--inject-fault", action="append", default=[], metavar="KIND:INDEX",
        help=argparse.SUPPRESS,  # testing/CI hook: crash|hang|error:INDEX
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live progress line to stderr while the sweep runs",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help="append live telemetry records (lifecycle events, worker "
             "heartbeats) to an NDJSON flight record at PATH",
    )
    parser.add_argument(
        "--openmetrics-out", metavar="PATH",
        help="keep an OpenMetrics textfile at PATH refreshed with live "
             "sweep metrics (atomic replace, scrape-safe)",
    )


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the run in a prof.run span and print a self-time "
             "profile to stderr (where did the wall clock go?)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMRP (Wu & Shin, DSN 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("--quick", action="store_true",
                         help="reduced grid (4x2 scenarios per point)")
    figures.add_argument("--figure", type=int, choices=[7, 8, 9, 10],
                         help="only this figure")
    figures.add_argument("--obs-out", metavar="PATH",
                         help="write an observability run report (JSON)")
    figures.add_argument("--trace-out", metavar="PATH",
                         help="write causal restoration episodes (NDJSON)")
    _add_profile_arg(figures)
    _add_executor_args(figures)

    scenario = sub.add_parser("scenario", help="run one seeded scenario")
    scenario.add_argument("--n", type=int, default=100)
    scenario.add_argument("--group-size", type=int, default=30)
    scenario.add_argument("--alpha", type=float, default=0.2)
    scenario.add_argument("--d-thresh", type=float, default=0.3)
    scenario.add_argument("--topology-seed", type=int, default=0)
    scenario.add_argument("--member-seed", type=int, default=0)
    scenario.add_argument("--knowledge", choices=["full", "query"],
                          default="full")
    scenario.add_argument("--no-reshape", action="store_true")
    scenario.add_argument("--obs-out", metavar="PATH",
                          help="write an observability run report (JSON)")
    scenario.add_argument("--trace-out", metavar="PATH",
                          help="write causal restoration episodes (NDJSON)")
    _add_executor_args(scenario)

    simulate = sub.add_parser("simulate", help="message-level simulation")
    simulate.add_argument("--n", type=int, default=40)
    simulate.add_argument("--members", type=int, default=6)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--d-thresh", type=float, default=0.3)
    simulate.add_argument("--fail-worst", action="store_true",
                          help="inject the first member's worst-case failure")
    simulate.add_argument("--obs-out", metavar="PATH",
                          help="write an observability run report (JSON)")
    simulate.add_argument("--trace-out", metavar="PATH",
                          help="write causal restoration episodes (NDJSON)")

    controller = sub.add_parser(
        "controller", aliases=["serve"],
        help="host a multi-group multicast service, fail it, restore it",
    )
    controller.add_argument(
        "--spec", metavar="PATH",
        help="load the full ServiceSpec from a JSON file (individual "
             "spec flags below are then rejected)",
    )
    controller.add_argument("--groups", type=int, default=200,
                            help="hosted (source, group) sessions")
    controller.add_argument("--sources", type=int, default=8,
                            help="source pool size (Zipf popularity)")
    controller.add_argument("--n", type=int, default=100)
    controller.add_argument("--alpha", type=float, default=0.2)
    controller.add_argument("--topology-seed", type=int, default=0)
    controller.add_argument("--member-seed", type=int, default=0)
    controller.add_argument(
        "--protocol",
        choices=list(ENGINES),
        default="smrp",
    )
    controller.add_argument(
        "--protect-budget", type=int, default=DEFAULT_BUDGET, metavar="F",
        help="protected-link budget for protection/hybrid groups "
             "(backup trees precomputed for the F most-loaded tree links)",
    )
    controller.add_argument("--d-thresh", type=float, default=0.3)
    controller.add_argument(
        "--workload", choices=["static", "poisson", "flash"],
        default="static",
    )
    controller.add_argument(
        "--failure", default="auto", metavar="MODE",
        help="none, auto (busiest hot-source link), link:U-V, or node:X",
    )
    controller.add_argument(
        "--shard-size", type=int, default=50, metavar="N",
        help="groups per shard work unit (part of the spec: checkpoint "
             "identities do not depend on --jobs)",
    )
    controller.add_argument("--obs-out", metavar="PATH",
                            help="write an observability run report (JSON)")
    controller.add_argument("--trace-out", metavar="PATH",
                            help="write causal restoration episodes (NDJSON)")
    _add_profile_arg(controller)
    _add_executor_args(controller)

    protection = sub.add_parser(
        "protection",
        help="protection-family figure: reactive vs precomputed recovery",
    )
    protection.add_argument("--quick", action="store_true",
                            help="reduced grid (2x1 scenarios, 2 trials)")
    protection.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, metavar="F",
        help="protected-link budget for the backup/hybrid modes",
    )
    protection.add_argument(
        "--rates", type=float, nargs="+", metavar="R",
        help="link failure rates to sweep (default 0.02 0.05 0.1; "
             "quick mode defaults to 0.02 0.1)",
    )
    protection.add_argument("--obs-out", metavar="PATH",
                            help="write an observability run report (JSON)")
    protection.add_argument("--trace-out", metavar="PATH",
                            help="write causal restoration episodes (NDJSON)")
    _add_profile_arg(protection)
    _add_executor_args(protection)

    distribution = sub.add_parser(
        "distribution",
        help="restoration-latency distribution: per-engine percentiles "
             "over thousands of controller groups",
    )
    distribution.add_argument(
        "--quick", action="store_true",
        help="reduced grid (engines smrp+spf, 1000 groups each)",
    )
    distribution.add_argument(
        "--engines", nargs="+", metavar="ENGINE",
        choices=list(ENGINES),
        help="restoration engines to compare (default: all five; "
             "--quick default: smrp spf)",
    )
    distribution.add_argument(
        "--groups", type=int, metavar="N",
        help="hosted (source, group) sessions per engine "
             "(default 2000; --quick default 1000)",
    )
    distribution.add_argument(
        "--workload", choices=["static", "poisson", "flash"],
        default="static",
    )
    distribution.add_argument(
        "--failure", default="auto", metavar="MODE",
        help="none, auto (busiest hot-source link), link:U-V, or node:X",
    )
    distribution.add_argument(
        "--shard-size", type=int, default=250, metavar="N",
        help="groups per shard work unit (part of the spec: checkpoint "
             "identities do not depend on --jobs)",
    )
    distribution.add_argument("--obs-out", metavar="PATH",
                              help="write an observability run report (JSON)")
    _add_profile_arg(distribution)
    _add_executor_args(distribution)

    obs = sub.add_parser("obs", help="observability run artifacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a run report captured with --obs-out"
    )
    obs_report.add_argument("path", help="run report JSON file")
    obs_tail = obs_sub.add_parser(
        "tail", help="replay a telemetry flight record (--telemetry-out)"
    )
    obs_tail.add_argument("path", help="NDJSON flight record file")
    obs_tail.add_argument(
        "--last", type=int, metavar="N",
        help="only the last N records (the full kind summary still prints)",
    )
    obs_export = obs_sub.add_parser(
        "export", help="render a run report in an exchange format"
    )
    obs_export.add_argument("path", help="run report JSON file")
    obs_export.add_argument(
        "--format", choices=["openmetrics"], default="openmetrics",
        help="output format (default: openmetrics)",
    )
    obs_export.add_argument(
        "--out", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two run reports (counters, span-time and "
                     "latency-quantile ratios)"
    )
    obs_diff.add_argument("path_a", help="baseline run report JSON file")
    obs_diff.add_argument("path_b", help="candidate run report JSON file")
    obs_diff.add_argument(
        "--fail-over", type=float, metavar="RATIO",
        help="exit nonzero when any span-time or latency-quantile "
             "(p50/p99) ratio (b/a) exceeds RATIO",
    )
    obs_flame = obs_sub.add_parser(
        "flame", help="collapsed-stack self-time profile of a run report "
                      "(flamegraph.pl / speedscope input)"
    )
    obs_flame.add_argument("path", help="run report JSON file (--obs-out)")
    obs_flame.add_argument(
        "--out", metavar="PATH",
        help="write collapsed stacks to PATH instead of stdout",
    )

    trace = sub.add_parser("trace", help="causal restoration traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_analyze = trace_sub.add_parser(
        "analyze", help="per-phase latency breakdown of a trace"
    )
    trace_analyze.add_argument("path", help="NDJSON trace (--trace-out)")
    trace_analyze.add_argument(
        "--check", action="store_true",
        help="validate span nesting and critical-path sums; exit 1 on "
             "any violation",
    )
    trace_export = trace_sub.add_parser(
        "export", help="convert a trace to another format"
    )
    trace_export.add_argument("path", help="NDJSON trace (--trace-out)")
    trace_export.add_argument(
        "--format", choices=["chrome", "ndjson"], default="chrome",
        help="output format (default: chrome trace-event JSON, loadable "
             "at https://ui.perfetto.dev)",
    )
    trace_export.add_argument(
        "--out", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    trace_diff = trace_sub.add_parser(
        "diff", help="compare the phase breakdowns of two traces"
    )
    trace_diff.add_argument("path_a", help="baseline NDJSON trace")
    trace_diff.add_argument("path_b", help="candidate NDJSON trace")
    trace_diff.add_argument(
        "--fail-over", type=float, metavar="RATIO",
        help="exit nonzero when any per-phase relative delta exceeds RATIO",
    )
    trace_figure = trace_sub.add_parser(
        "figure", help="restoration latency breakdown by phase"
    )
    trace_figure.add_argument("--quick", action="store_true",
                              help="reduced grid (4x2 scenarios)")
    trace_figure.add_argument(
        "--trace-out", metavar="PATH",
        help="also write the episodes behind the figure (NDJSON)",
    )
    _add_executor_args(trace_figure)

    sub.add_parser("info", help="version and component inventory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figures": _cmd_figures,
        "scenario": _cmd_scenario,
        "simulate": _cmd_simulate,
        "controller": _cmd_controller,
        "serve": _cmd_controller,
        "protection": _cmd_protection,
        "distribution": _cmd_distribution,
        "obs": _cmd_obs,
        "trace": _cmd_trace,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


def _make_obs(args: argparse.Namespace):
    """The run's Observability, or None when no capture flag was given.

    ``--obs-out`` (or ``--profile``, which needs the span profiler)
    enables the metrics and spans instruments; ``--trace-out``
    attaches a restoration tracer.  A trace-only run keeps the other
    instruments disabled, so the tracer is the only live
    instrumentation.
    """
    obs_out = getattr(args, "obs_out", None)
    trace_out = getattr(args, "trace_out", None)
    profile = bool(getattr(args, "profile", False))
    if obs_out is None and trace_out is None and not profile:
        return None
    # Fail fast on an unwritable destination rather than after the run.
    if obs_out is not None:
        _check_out_dir("--obs-out", obs_out)
    if trace_out is not None:
        _check_out_dir("--trace-out", trace_out)
    from repro.obs import Observability, RestorationTracer

    return Observability(
        enabled=obs_out is not None or profile,
        tracer=RestorationTracer() if trace_out is not None else None,
    )


def _check_out_dir(flag: str, path: str) -> None:
    """Fail fast (exit 2) when an output path's directory is missing."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        print(
            f"repro: error: {flag} directory does not exist: {parent}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _make_telemetry(args: argparse.Namespace):
    """A TelemetryHub wired to the sinks the flags asked for, else None.

    ``--progress`` adds a stderr progress renderer, ``--telemetry-out``
    an NDJSON flight recorder, ``--openmetrics-out`` an OpenMetrics
    textfile exporter.  No flags, no hub — the executors then skip all
    telemetry work.
    """
    progress = getattr(args, "progress", False)
    telemetry_out = getattr(args, "telemetry_out", None)
    openmetrics_out = getattr(args, "openmetrics_out", None)
    if not progress and telemetry_out is None and openmetrics_out is None:
        return None
    # Check both destinations before either sink opens its file.
    if telemetry_out is not None:
        _check_out_dir("--telemetry-out", telemetry_out)
    if openmetrics_out is not None:
        _check_out_dir("--openmetrics-out", openmetrics_out)
    from repro.obs import (
        FlightRecorder,
        OpenMetricsSink,
        ProgressSink,
        TelemetryHub,
    )

    sinks = []
    if progress:
        sinks.append(ProgressSink())
    if telemetry_out is not None:
        sinks.append(FlightRecorder(telemetry_out))
    if openmetrics_out is not None:
        sinks.append(OpenMetricsSink(openmetrics_out))
    return TelemetryHub(sinks=sinks)


def _exec_policy(args: argparse.Namespace):
    """The ``(ExecPolicy or None, faults)`` the executor flags ask for.

    Any of ``--timeout`` / ``--retries`` / ``--checkpoint-dir`` /
    ``--resume`` / ``--inject-fault`` implies the pool, so yields a
    policy; ``faults`` lists the ``(index, kind)`` pairs to arm.  Every
    flag is checked here, before any sink opens its file, and a bad one
    exits with status 2: ``--jobs`` below 1, a bad policy value,
    ``--resume`` without ``--checkpoint-dir``, or a malformed
    ``--inject-fault``.
    """
    from repro.errors import ConfigurationError
    from repro.experiments.exec.executor import check_fault
    from repro.experiments.exec.resilience import ExecPolicy

    try:
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        faults = []
        for spec in args.inject_fault:
            fault, sep, index = spec.partition(":")
            if not sep or not index.lstrip("-").isdigit():
                raise ConfigurationError(
                    f"--inject-fault expects KIND:INDEX, got {spec!r}"
                )
            check_fault(int(index), fault)
            faults.append((int(index), fault))
        options = {
            name: value
            for name, value in (
                ("timeout", args.timeout),
                ("retries", args.retries),
                ("checkpoint_dir", args.checkpoint_dir),
            )
            if value is not None
        }
        if not (options or args.resume or faults):
            return None, faults
        return ExecPolicy(resume=args.resume, **options), faults
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _run_command(args: argparse.Namespace, work) -> int:
    """Run one work-unit command on the session its flags describe.

    The scaffold every such command shares: the run's Observability, the
    checked executor flags, the telemetry hub, and ``--profile``'s
    scope around a session opened with ``--jobs``, the policy and the
    hub (armed with any ``--inject-fault``).  ``work(session)`` runs the
    verb, prints its result and returns the ``--obs-out`` meta; the
    executor kind and ``--jobs`` are added to it.  A ConfigurationError
    from the run exits with status 2.  The hub is closed however the run
    ends; then the run report and the ``--trace-out`` trace are written.
    """
    from repro.api import open_session
    from repro.errors import ConfigurationError

    obs = _make_obs(args)
    policy, faults = _exec_policy(args)
    telemetry = _make_telemetry(args)
    scope = _ProfileScope(args, obs)
    try:
        with scope, open_session(
            jobs=args.jobs, policy=policy, telemetry=telemetry, obs=obs
        ) as session:
            for index, fault in faults:
                session.executor.inject_fault(index, fault)
            meta = work(session)
            meta.update(executor=session.executor.kind, jobs=args.jobs)
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if telemetry is not None:
            telemetry.close()
    _write_obs_report(args, obs, scope.annotate(meta))
    _write_trace_out(args, obs)
    return 0


def _write_obs_report(args: argparse.Namespace, obs, meta: dict) -> None:
    if obs is None or getattr(args, "obs_out", None) is None:
        return
    from repro.obs import write_run_report

    write_run_report(obs.run_report(meta=meta), args.obs_out)
    print(f"\nobservability report written to {args.obs_out}")


def _write_trace_out(args: argparse.Namespace, obs) -> None:
    """Write the tracer's episodes as NDJSON when ``--trace-out`` was on.

    The confirmation goes to stderr: tracing is observe-only and stdout
    must stay byte-identical to an untraced run.
    """
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None or obs is None or obs.tracer is None:
        return
    from repro.obs import write_trace_ndjson

    tracer = obs.tracer
    tracer.finalize()
    count = write_trace_ndjson(
        tracer.episodes,
        trace_out,
        dropped=tracer.dropped,
        trimmed=tracer.trimmed,
        abandoned=tracer.abandoned,
    )
    print(
        f"restoration trace ({count} episodes) written to {trace_out}",
        file=sys.stderr,
    )


class _ProfileScope:
    """Wall-clock + ``prof.run`` span wrapper for ``--profile`` runs.

    Entering starts the clock and (when profiling) opens a ``prof.run``
    span so every span the command emits nests under one root — which is
    what makes the exclusive self-time decomposition sum back to the
    measured wall clock on a serial run.  Exiting closes the span,
    records ``wall_s``, and prints the rendered profile to stderr
    (stdout must stay byte-identical to an unprofiled run).
    """

    def __init__(self, args: argparse.Namespace, obs) -> None:
        self.enabled = bool(getattr(args, "profile", False)) and obs is not None
        self._obs = obs
        self._span = None
        self._start: float | None = None
        self.wall_s: float | None = None

    def __enter__(self) -> "_ProfileScope":
        from time import perf_counter

        self._start = perf_counter()
        if self.enabled:
            self._span = self._obs.span("prof.run")
            self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        from time import perf_counter

        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        self.wall_s = perf_counter() - self._start
        if self.enabled and exc_type is None:
            from repro.obs import render_profile

            print(
                render_profile(self._obs.spans.report(), wall_s=self.wall_s),
                file=sys.stderr,
            )
        return False

    def annotate(self, meta: dict) -> dict:
        """Stamp the measured wall clock into an obs-report meta dict."""
        if self.enabled and self.wall_s is not None:
            meta["profile_wall_s"] = round(self.wall_s, 6)
        return meta


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_figures(args: argparse.Namespace) -> int:
    figures_run = [args.figure] if args.figure else [7, 8, 9, 10]

    def work(session) -> dict:
        for figure in figures_run:
            print(f"--- Figure {figure} ---")
            print(session.build_figure(figure, quick=args.quick).render())
            print()
        return {"command": "figures", "figures": figures_run,
                "quick": bool(args.quick)}

    return _run_command(args, work)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenario import ScenarioConfig
    from repro.experiments.tables import format_table
    from repro.metrics.stats import summarize

    config = ScenarioConfig(
        n=args.n,
        group_size=args.group_size,
        alpha=args.alpha,
        d_thresh=args.d_thresh,
        topology_seed=args.topology_seed,
        member_seed=args.member_seed,
        knowledge=args.knowledge,
        reshape_enabled=not args.no_reshape,
    )

    def work(session) -> dict:
        result, = session.executor.map_units([config], obs=session.obs)
        print(f"scenario: {config.describe()}")
        print(f"source {result.source}, avg degree "
              f"{result.average_degree:.2f}, reshapes {result.smrp_reshapes}, "
              f"fallback joins {result.smrp_fallback_joins}")
        rows = []
        for m in result.measurements:
            rows.append([
                str(m.member),
                f"{m.rd_spf_global:.1f}" if m.rd_spf_global is not None else "—",
                f"{m.rd_smrp_local:.1f}" if m.rd_smrp_local is not None else "—",
                f"{m.delay_spf:.1f}",
                f"{m.delay_smrp:.1f}",
            ])
        print(format_table(
            ["member", "RD SPF", "RD SMRP", "delay SPF", "delay SMRP"], rows
        ))
        if result.rd_relative:
            print(f"\nRD_relative   {summarize(result.rd_relative)}")
            print(f"D_relative    {summarize(result.delay_relative)}")
        print(f"Cost_relative {result.cost_relative:+.4f}")
        if result.unrecoverable_members:
            print(f"unrecoverable members: {result.unrecoverable_members}")
        return {"command": "scenario", "config": config.describe()}

    return _run_command(args, work)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.graph.waxman import WaxmanConfig, waxman_topology
    from repro.core.recovery import worst_case_failure
    from repro.sim.failures import FailureSchedule
    from repro.sim.protocols import SmrpSimulation

    topology = waxman_topology(
        WaxmanConfig(n=args.n, alpha=0.4, beta=0.3, seed=args.seed)
    ).topology
    rng = np.random.default_rng(args.seed + 1)
    members = [
        int(m)
        for m in rng.choice(range(1, args.n), args.members, replace=False)
    ]
    obs = _make_obs(args)
    sim = SmrpSimulation(topology, 0, d_thresh=args.d_thresh, obs=obs)
    spacing = 50.0 * max(l.delay for l in topology.links())
    for i, m in enumerate(members):
        sim.schedule_join(spacing * (i + 1), m)
    settle = spacing * (len(members) + 2)
    sim.run(until=settle)
    tree = sim.extract_tree()
    print(f"network: {topology}")
    print(f"tree after joins: {tree}")
    for m, record in sorted(sim.join_records.items()):
        latency = f"{record.latency:.1f}" if record.latency is not None else "pending"
        print(f"  member {m:3}: join latency {latency}")
    if args.fail_worst and members:
        failure = worst_case_failure(tree, members[0])
        (u, v), = failure.failed_links
        FailureSchedule().fail_link_at(settle + 1.0, u, v).arm(sim.sim, sim.network)
        sim.run(until=settle + 60 * spacing)
        print(f"\ninjected failure: {failure.describe()}")
        for record in sim.recovery_records:
            status = (
                f"restored at t={record.restored_at:.1f} "
                f"(latency {record.restoration_latency:.1f})"
                if record.restored_at is not None
                else "not restored"
            )
            print(f"  node {record.detector}: detected at "
                  f"t={record.detected_at:.1f}, {status}")
    print(f"\nmessages: {sim.network.stats.by_kind}")
    _write_obs_report(args, obs, {
        "command": "simulate",
        "n": args.n,
        "members": args.members,
        "seed": args.seed,
        "d_thresh": args.d_thresh,
        "fail_worst": bool(args.fail_worst),
    })
    _write_trace_out(args, obs)
    return 0


#: ``controller`` flags that mirror ServiceSpec fields, with their CLI
#: defaults — used to reject flag/--spec mixtures instead of silently
#: ignoring the flags.
_CONTROLLER_SPEC_FLAGS = {
    "groups": 200,
    "sources": 8,
    "n": 100,
    "alpha": 0.2,
    "topology_seed": 0,
    "member_seed": 0,
    "protocol": "smrp",
    "d_thresh": 0.3,
    "workload": "static",
    "failure": "auto",
    "shard_size": 50,
    "protect_budget": DEFAULT_BUDGET,
}


def _controller_spec(args: argparse.Namespace):
    """The run's ServiceSpec from ``--spec`` JSON or individual flags."""
    from repro.controller import ServiceSpec
    from repro.errors import ConfigurationError

    if args.spec is not None:
        overridden = [
            f"--{name.replace('_', '-')}"
            for name, default in _CONTROLLER_SPEC_FLAGS.items()
            if getattr(args, name) != default
        ]
        if overridden:
            raise ConfigurationError(
                f"--spec replaces the whole service spec; drop "
                f"{', '.join(sorted(overridden))}"
            )
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                return ServiceSpec.from_json(handle.read())
        except FileNotFoundError:
            raise ConfigurationError(f"no such file: {args.spec}") from None
    return ServiceSpec(
        **{name: getattr(args, name) for name in _CONTROLLER_SPEC_FLAGS}
    )


def _cmd_controller(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    try:
        spec = _controller_spec(args)
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    def work(session) -> dict:
        print(session.run_service(spec).render_table())
        return {"command": "controller", "spec": spec.describe(),
                "key": spec.content_key()}

    return _run_command(args, work)


def _cmd_protection(args: argparse.Namespace) -> int:
    overrides = {"budget": args.budget}
    if args.rates:
        overrides["rates"] = tuple(args.rates)

    def work(session) -> dict:
        result = session.build_figure(
            "protection", quick=args.quick, **overrides
        )
        print("--- Protection family: reactive vs precomputed recovery ---")
        print(result.render())
        return {"command": "protection", "quick": bool(args.quick),
                "budget": args.budget}

    return _run_command(args, work)


def _cmd_distribution(args: argparse.Namespace) -> int:
    overrides = {
        "workload": args.workload,
        "failure": args.failure,
        "shard_size": args.shard_size,
    }
    if args.engines:
        overrides["engines"] = tuple(args.engines)
    if args.groups is not None:
        overrides["groups"] = args.groups

    def work(session) -> dict:
        result = session.build_figure(
            "distribution", quick=args.quick, **overrides
        )
        print(result.render())
        return {"command": "distribution",
                "engines": [dist.engine for dist in result.engines],
                "groups": result.groups, "quick": bool(args.quick)}

    return _run_command(args, work)


def _load_report_or_fail(path: str):
    import json

    from repro.errors import ConfigurationError
    from repro.obs import load_run_report

    try:
        return load_run_report(path)
    except FileNotFoundError:
        print(f"repro: error: no such file: {path}", file=sys.stderr)
        raise _ObsError
    except (ConfigurationError, json.JSONDecodeError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise _ObsError


class _ObsError(Exception):
    """Internal: an obs subcommand already printed its error; exit 1."""


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "report": _cmd_obs_report,
        "tail": _cmd_obs_tail,
        "export": _cmd_obs_export,
        "diff": _cmd_obs_diff,
        "flame": _cmd_obs_flame,
    }
    try:
        return handlers[args.obs_command](args)
    except _ObsError:
        return 1


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import render_run_report

    print(render_run_report(_load_report_or_fail(args.path)))
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs import load_flight_record, render_flight_record

    try:
        records = load_flight_record(args.path)
    except FileNotFoundError:
        print(f"repro: error: no such file: {args.path}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    print(render_flight_record(records, last=args.last))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import render_openmetrics

    report = _load_report_or_fail(args.path)
    text = render_openmetrics(report)
    if args.out is not None:
        _check_out_dir("--out", args.out)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"openmetrics written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import (
        diff_run_reports,
        max_regression_ratio,
        render_report_diff,
    )

    report_a = _load_report_or_fail(args.path_a)
    report_b = _load_report_or_fail(args.path_b)
    diff = diff_run_reports(report_a, report_b)
    print(render_report_diff(diff, threshold=args.fail_over))
    if (
        args.fail_over is not None
        and max_regression_ratio(diff) > args.fail_over
    ):
        print(
            f"repro: obs diff: span-time or latency-quantile ratio "
            f"exceeds --fail-over {args.fail_over:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    """Collapsed-stack export: one line per span path, weight = exclusive
    self-time in microseconds.  Pipe into flamegraph.pl or load into
    speedscope; the summary (frames, covered self time, wall-clock
    coverage when the report was captured with ``--profile``) goes to
    stderr so stdout stays clean collapsed-stack data."""
    from repro.obs import collapse_stacks, self_time_total

    report = _load_report_or_fail(args.path)
    spans = report.get("spans", {})
    lines = collapse_stacks(spans)
    text = "".join(line + "\n" for line in lines)
    covered = self_time_total(spans)
    if args.out is not None:
        _check_out_dir("--out", args.out)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"collapsed stacks ({len(lines)} frames) written to {args.out}")
    else:
        sys.stdout.write(text)
    print(
        f"{len(lines)} frames, {covered:.3f}s total self time",
        file=sys.stderr,
    )
    wall = report.get("meta", {}).get("profile_wall_s")
    if isinstance(wall, (int, float)) and wall > 0:
        print(
            f"wall-clock coverage: {covered / wall:.1%} of "
            f"{wall:.3f}s measured wall",
            file=sys.stderr,
        )
    return 0


def _load_trace_or_fail(path: str):
    from repro.errors import ConfigurationError
    from repro.obs import read_trace_ndjson

    try:
        return read_trace_ndjson(path)
    except FileNotFoundError:
        print(f"repro: error: no such file: {path}", file=sys.stderr)
        raise _ObsError
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise _ObsError


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "analyze": _cmd_trace_analyze,
        "export": _cmd_trace_export,
        "diff": _cmd_trace_diff,
        "figure": _cmd_trace_figure,
    }
    try:
        return handlers[args.trace_command](args)
    except _ObsError:
        return 1


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    from repro.obs import TraceAnalyzer

    trace_file = _load_trace_or_fail(args.path)
    analyzer = TraceAnalyzer(trace_file.episodes)
    print(analyzer.render())
    if args.check:
        problems = analyzer.check()
        if problems:
            for problem in problems:
                print(f"repro: trace check: {problem}", file=sys.stderr)
            return 1
        print(
            f"trace check passed: {len(trace_file.episodes)} episodes valid",
            file=sys.stderr,
        )
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs import chrome_trace_document
    from repro.obs.tracing import write_trace_ndjson

    trace_file = _load_trace_or_fail(args.path)
    if args.out is not None:
        _check_out_dir("--out", args.out)
    if args.format == "chrome":
        document = chrome_trace_document(trace_file.episodes)
        text = json.dumps(document, sort_keys=True, indent=1) + "\n"
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"chrome trace ({len(trace_file.episodes)} episodes) "
                  f"written to {args.out} — open it at https://ui.perfetto.dev")
        else:
            sys.stdout.write(text)
        return 0
    if args.out is None:
        print(
            "repro: error: --format ndjson requires --out "
            "(the NDJSON writer targets a file)",
            file=sys.stderr,
        )
        return 1
    count = write_trace_ndjson(
        trace_file.episodes,
        args.out,
        dropped=trace_file.dropped,
        trimmed=trace_file.trimmed,
        abandoned=trace_file.abandoned,
    )
    print(f"trace ({count} episodes) written to {args.out}")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.tracing import TraceAnalyzer, diff_analyses

    file_a = _load_trace_or_fail(args.path_a)
    file_b = _load_trace_or_fail(args.path_b)
    text, max_delta = diff_analyses(
        TraceAnalyzer(file_a.episodes), TraceAnalyzer(file_b.episodes)
    )
    print(text)
    if args.fail_over is not None and max_delta > args.fail_over:
        print(
            f"repro: trace diff: per-phase relative delta exceeds "
            f"--fail-over {args.fail_over:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace_figure(args: argparse.Namespace) -> int:
    def work(session) -> dict:
        result = session.build_figure("phases", quick=args.quick)
        print("--- Restoration latency breakdown by phase ---")
        print(result.render())
        return {"command": "trace figure", "quick": bool(args.quick)}

    return _run_command(args, work)


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — SMRP (Wu & Shin, DSN 2005) reproduction")
    components = [
        ("repro.graph", "Waxman / transit-stub / N-level topologies"),
        ("repro.routing", "SPF, routing tables, alternate routes, LSDB"),
        ("repro.multicast", "tree structure, SPF/TM baselines, backup trees"),
        ("repro.core", "SMRP: SHR, join/leave, reshaping, recovery, domains"),
        ("repro.sim", "discrete-event simulator + distributed protocol"),
        ("repro.metrics", "RD/delay/cost metrics and confidence intervals"),
        ("repro.experiments", "figure drivers and parameter sweeps"),
        ("repro.experiments.exec",
         "ExperimentSpec, executors, execution policy, substrate cache"),
        ("repro.controller",
         "multi-group service: ServiceSpec, controller, sharded runs"),
        ("repro.obs",
         "metrics + hdr histograms, span/self-time profiling, run "
         "reports, live telemetry"),
        ("repro.api",
         "stable facade: open_session, then run_scenario/run_sweep/"
         "build_figure/run_service"),
    ]
    for name, description in components:
        print(f"  {name:24} {description}")
    print("\nparallel execution: figures/scenario/serve/protection/"
          "distribution/trace figure accept --jobs N;\n"
          "  --jobs N > 1 fans work units over a pool of long-lived worker "
          "processes with\n"
          "  deterministic seed-order merging.\n"
          "fault tolerance: --timeout S, --retries N, "
          "--checkpoint-dir DIR, --resume (each implies the pool);\n"
          "  crashed/hung scenarios are retried with backoff and completed "
          "results persist for resume,\n"
          "  with output byte-identical to a clean serial run.\n"
          "live telemetry: --progress (stderr progress line), "
          "--telemetry-out PATH (NDJSON flight record),\n"
          "  --openmetrics-out PATH (scrapeable textfile); all "
          "observe-only.  repro obs tail/export/diff\n"
          "  replay a flight record, render OpenMetrics, and compare two "
          "run reports.\n"
          "restoration tracing: --trace-out PATH records causal "
          "restoration episodes in simulated time;\n"
          "  repro trace analyze/export/diff/figure render per-phase "
          "latency breakdowns, Perfetto-loadable\n"
          "  Chrome trace JSON, analysis diffs, and the "
          "latency-by-phase figure.\n"
          "latency distributions & profiling: repro distribution prints "
          "per-engine p50/p90/p99/p99.9\n"
          "  restoration-latency tables from hdr histograms; --profile "
          "prints a self-time profile to stderr;\n"
          "  repro obs flame turns a captured report into collapsed "
          "stacks for flamegraph tooling.")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
