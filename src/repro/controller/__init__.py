"""Multi-session service layer: thousands of groups, one topology.

The paper evaluates SMRP one tree at a time, but its hierarchical
recovery and reshaping machinery (§3.2.3, §3.3.3) is designed for a
*service*: many concurrent ``(source, group)`` multicast sessions
sharing one topology, hit by the same failures.  This package hosts
that service:

- :mod:`repro.controller.spec` — :class:`ServiceSpec`, the declarative,
  content-keyed description of a controller run (topology, group
  population, workload shape, failure), plus the deterministic failure
  resolver;
- :mod:`repro.controller.workload` — Zipf source popularity,
  heavy-tailed group sizes, and the per-group membership workload
  generators (static joins, Poisson churn, flash crowds) extending
  :class:`~repro.multicast.group.GroupWorkload`;
- :mod:`repro.controller.controller` — the long-lived
  :class:`MulticastController`: group registry, join/leave verbs, and
  one-pass failure dispatch with per-group restoration accounting;
- :mod:`repro.controller.service` — declarative runs:
  :class:`ServiceShard` work units that ride the standard executors
  (serial, process pool with checkpoint/resume) and
  :func:`run_service`, whose merged restoration table is byte-identical
  however the groups were sharded.
"""

from repro.controller.controller import (
    FailureDispatch,
    GroupRestoration,
    MulticastController,
)
from repro.controller.service import (
    ServiceReport,
    ServiceShard,
    ShardResult,
    run_service,
)
from repro.controller.spec import ServiceSpec, resolve_failure

__all__ = [
    "FailureDispatch",
    "GroupRestoration",
    "MulticastController",
    "ServiceReport",
    "ServiceShard",
    "ServiceSpec",
    "ShardResult",
    "resolve_failure",
    "run_service",
]
