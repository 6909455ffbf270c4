"""The traced run: spans around each layer's public entry points.

:meth:`Tracer.install` wraps every entry point in :data:`ENTRY_POINTS` — the
class attribute for methods, and for functions every ``repro`` module
global bound to the same function object, so callers that did
``from x import f`` are caught too.  Each call records one span (name,
start, end, parent span, op id) into flat in-memory arrays; nothing is
written until the run ends.  Tiny hot helpers such as
``MulticastTree.parent`` stay unwrapped: their time lands in the
self time of the nearest wrapped caller.

A layer's *self time* is its spans' durations minus the durations of
their direct child spans.  Op spans (``harness.op``) are the roots of
the timed phase; their own self time is the harness-side time no layer
claims (``harness.unattributed_ms``).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from importlib import import_module

import numpy as np

OP_SPAN = "harness.op"

#: ``(layer, module, attribute)`` of every timed entry point.
ENTRY_POINTS = (
    ("graph.build", "repro.graph.waxman", "waxman_topology"),
    # CsrGraph construction, not the Topology.csr accessor: every SPF call
    # goes through the accessor, which only compiles on a cold cache.
    ("graph.build", "repro.routing.csr", "CsrGraph.__init__"),
    ("routing.spf", "repro.routing.spf", "dijkstra"),
    ("routing.spf", "repro.routing.spf", "dijkstra_with_barriers"),
    ("routing.spf", "repro.routing.spf", "barrier_search_arrays"),
    ("routing.route_cache", "repro.routing.route_cache", "RouteCache.shortest_paths"),
    ("routing.batch", "repro.routing.route_cache", "RouteCache.warm_batch"),
    ("routing.batch", "repro.routing.batch", "dijkstra_multi"),
    ("core.protocol", "repro.core.protocol", "SMRPProtocol.join"),
    ("core.protocol", "repro.core.protocol", "SMRPProtocol.leave"),
    ("core.protocol", "repro.core.protocol", "SMRPProtocol.repair"),
    ("core.candidates", "repro.core.candidates", "enumerate_candidates"),
    ("core.shr", "repro.core.shr", "shr_table"),
    ("core.shr", "repro.core.shr", "adjusted_shr_table"),
    ("core.shr", "repro.core.shr", "shr_incremental"),
    ("core.shr", "repro.core.shr", "subtree_member_counts"),
    ("core.shr", "repro.core.shr", "link_utilisation"),
    ("core.state", "repro.core.state", "StateManager.notify_graft"),
    ("core.state", "repro.core.state", "StateManager.notify_prune"),
    ("core.state", "repro.core.state", "StateManager.notify_move"),
    ("core.state", "repro.core.state", "StateManager.rebind"),
    ("core.state", "repro.core.state", "StateManager.shr_snapshot"),
    ("core.state", "repro.core.state", "StateManager.condition_i_delta"),
    ("core.reshape", "repro.core.reshape", "evaluate_reshape"),
    ("core.reshape", "repro.core.reshape", "apply_reshape"),
    ("core.leave", "repro.core.leave", "process_leave"),
    ("core.recovery.detour", "repro.core.recovery", "local_detour_recovery"),
    ("core.recovery.detour", "repro.core.recovery", "global_detour_recovery"),
    ("core.recovery.repair", "repro.core.recovery", "repair_tree"),
    (
        "core.recovery.latency_model",
        "repro.core.recovery",
        "estimate_restoration_latency",
    ),
    ("multicast.tree", "repro.multicast.tree", "MulticastTree.graft"),
    ("multicast.tree", "repro.multicast.tree", "MulticastTree.prune"),
    ("multicast.tree", "repro.multicast.tree", "MulticastTree.move_subtree"),
    ("multicast.tree", "repro.multicast.tree", "MulticastTree.copy"),
    (
        "multicast.spf_protocol",
        "repro.multicast.spf_protocol",
        "SPFMulticastProtocol.join",
    ),
    (
        "multicast.backup_trees",
        "repro.multicast.backup_trees",
        "PerLinkBackupTrees.ensure",
    ),
    (
        "multicast.backup_trees",
        "repro.multicast.backup_trees",
        "AlternatePathProtocol.ensure_tables",
    ),
    ("controller.fail", "repro.controller.controller", "MulticastController.fail"),
    (
        "controller.restore",
        "repro.controller.controller",
        "MulticastController.restore",
    ),
    ("experiments.runner", "repro.experiments.runner", "run_scenario"),
)


def _count_moves(counts: dict, decision) -> None:
    counts["reshape.moves"] = counts.get("reshape.moves", 0) + int(decision.performed)


def _count_roots(counts: dict, batch) -> None:
    counts["batch.roots"] = counts.get("batch.roots", 0) + len(batch.roots)


def _count_dispatch(counts: dict, dispatch) -> None:
    for key, value in (
        ("dispatch.checked", dispatch.groups_checked),
        ("dispatch.affected", dispatch.affected),
        ("dispatch.members_cut", sum(row.affected for row in dispatch.rows)),
        (
            "protected.rows",
            sum(row.protocol in ("protection", "hybrid") for row in dispatch.rows),
        ),
        ("protected.switchovers", sum(row.strategy == "backup" for row in dispatch.rows)),
    ):
        counts[key] = counts.get(key, 0) + value


#: Counts taken from return values, in the timed phase only.
_RESULT_HOOKS = {
    "evaluate_reshape": _count_moves,
    "dijkstra_multi": _count_roots,
    "MulticastController.restore": _count_dispatch,
}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.layers: list[str] = ["harness"]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------
    def _open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self._open(0)

    def end_op(self) -> int:
        """Close the op span; returns its duration in ns."""
        now = time.perf_counter_ns()
        index = self._stack.pop()
        self.end[index] = now
        self.current_op = -1
        return now - self.start[index]

    def wrap(self, name: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        hook = _RESULT_HOOKS.get(name)
        open_span = self._open
        end = self.end
        stack = self._stack
        clock = time.perf_counter_ns
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None and self.current_op >= 0:
                hook(counts, result)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; call once per process."""
        for layer, module_name, attribute in ENTRY_POINTS:
            module = import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(attribute, layer, owner.__dict__[method]))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(attribute, layer, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)

    # -- analysis -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays()
        )


def _ms(ns) -> float:
    return float(ns) / 1e6


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, route_stats: dict, untraced_ns: int) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, plus the bases behind them.

    Everything is taken over the timed phase (spans with an op id),
    except ``graph.build_ms``, which covers the traced set-up as well:
    graph building is set-up work.
    """
    a = tracer.arrays()
    layers = np.array(tracer.layers)
    names = np.array(tracer.names)
    duration = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    children = np.zeros_like(duration)
    np.add.at(children, parent[has_parent], duration[has_parent])
    self_ns = duration - children
    span_layer = layers[a["name_id"]]
    span_name = names[a["name_id"]]
    parent_index = np.where(has_parent, parent, 0)
    parent_layer = np.where(has_parent, span_layer[parent_index], "")
    outermost = parent_layer != span_layer
    timed = a["op"] >= 0
    is_op = a["name_id"] == 0

    def self_ms(layer: str) -> float:
        return _ms(self_ns[timed & (span_layer == layer)].sum())

    def calls(mask) -> int:
        return int(np.count_nonzero(mask))

    # What the self-time accounting rests on: every span is closed and
    # lies inside its parent span.
    closed = a["end"] >= a["start"]
    nested = ~has_parent | (
        (a["start"] >= a["start"][parent_index]) & (a["end"] <= a["end"][parent_index])
    )

    counts = tracer.counts
    op_ns = int(duration[timed & is_op].sum())
    unattributed_ns = int(self_ns[timed & is_op].sum())
    attributed_ns = int(self_ns[timed & ~is_op].sum())
    evals = calls(timed & (span_name == "evaluate_reshape"))
    lookups = route_stats["hits"] + route_stats["misses"]
    metrics = {
        "graph.build_ms": _ms(
            duration[(span_layer == "graph.build") & outermost].sum()
        ),
        "routing.spf.calls": calls(timed & (span_layer == "routing.spf") & outermost),
        "routing.spf.self_ms": self_ms("routing.spf"),
        "routing.route_cache.lookups": calls(
            timed & (span_layer == "routing.route_cache")
        ),
        "routing.route_cache.hit_ratio": _ratio(route_stats["hits"], lookups),
        "routing.batch.roots": counts.get("batch.roots", 0),
        "routing.batch.self_ms": self_ms("routing.batch"),
        "core.protocol.self_ms": self_ms("core.protocol"),
        "core.candidates.calls": calls(timed & (span_layer == "core.candidates")),
        "core.candidates.self_ms": self_ms("core.candidates"),
        "core.shr.self_ms": self_ms("core.shr"),
        "core.state.self_ms": self_ms("core.state"),
        "core.reshape.evals": evals,
        "core.reshape.move_ratio": _ratio(counts.get("reshape.moves", 0), evals),
        "core.reshape.self_ms": self_ms("core.reshape"),
        "core.leave.self_ms": self_ms("core.leave"),
        "core.recovery.detour.calls": calls(
            timed & (span_layer == "core.recovery.detour")
        ),
        "core.recovery.detour.self_ms": self_ms("core.recovery.detour"),
        "core.recovery.repair.self_ms": self_ms("core.recovery.repair"),
        "core.recovery.latency_model.self_ms": self_ms("core.recovery.latency_model"),
        "multicast.tree.mutate_ms": self_ms("multicast.tree"),
        "multicast.spf_protocol.self_ms": self_ms("multicast.spf_protocol"),
        "multicast.backup_trees.precompute_ms": _ms(
            duration[timed & (span_layer == "multicast.backup_trees") & outermost].sum()
        ),
        "multicast.backup_trees.switchover_ratio": _ratio(
            counts.get("protected.switchovers", 0), counts.get("protected.rows", 0)
        ),
        "controller.fail.self_ms": self_ms("controller.fail"),
        "controller.restore.self_ms": self_ms("controller.restore"),
        "controller.dispatch_precision": _ratio(
            counts.get("dispatch.affected", 0), counts.get("dispatch.checked", 0)
        ),
        "controller.members_cut": counts.get("dispatch.members_cut", 0),
        "experiments.runner.self_ms": self_ms("experiments.runner"),
        "trace.overhead_ratio": _ratio(op_ns, untraced_ns),
        "harness.unattributed_ms": _ms(unattributed_ns),
    }
    bases = {
        "routing.route_cache.hit_ratio": {
            "hits": route_stats["hits"],
            "lookups": lookups,
        },
        "core.reshape.move_ratio": {
            "moves": counts.get("reshape.moves", 0),
            "evals": evals,
        },
        "multicast.backup_trees.switchover_ratio": {
            "switchovers": counts.get("protected.switchovers", 0),
            "protected_rows": counts.get("protected.rows", 0),
        },
        "controller.dispatch_precision": {
            "groups_affected": counts.get("dispatch.affected", 0),
            "groups_checked": counts.get("dispatch.checked", 0),
        },
        "trace.overhead_ratio": {"traced_ns": op_ns, "untraced_ns": untraced_ns},
        "self_time_accounting": {
            "op_spans_ns": op_ns,
            "layer_self_ns": attributed_ns,
            "unattributed_ns": unattributed_ns,
            "spans": int(duration.size),
            "timed_spans": int(np.count_nonzero(timed)),
            "unclosed_spans": int(np.count_nonzero(~closed)),
            "escaped_spans": int(np.count_nonzero(closed & ~nested)),
        },
    }
    return metrics, bases
