"""SMRP — the paper's primary contribution.

The Survivable Multicast Routing Protocol builds multicast trees with less
path sharing so that disconnected members can restore service through
nearby unaffected on-tree nodes.  The subpackage is organised around the
paper's own structure:

- :mod:`repro.core.shr` — the sharing metric ``SHR_{S,R}`` (Eq. 1/2),
- :mod:`repro.core.state` — the distributed per-node state of §3.2.1,
- :mod:`repro.core.candidates` — candidate-path enumeration,
- :mod:`repro.core.join` / :mod:`repro.core.leave` — §3.2.2,
- :mod:`repro.core.reshape` — tree reshaping, §3.2.3,
- :mod:`repro.core.recovery` — local/global detour restoration, §4.3.1,
- :mod:`repro.core.query` — the partial-knowledge query scheme, §3.3.1,
- :mod:`repro.core.protocol` — :class:`~repro.core.protocol.SMRPProtocol`,
  the graph-level engine tying it all together,
- :mod:`repro.core.nlevel` — the hierarchical recovery architecture of
  §3.3.3 (the 2-level transit-stub Figure 6 session and its N-level
  generalization).
"""

from repro.core.shr import shr_direct, shr_incremental, shr_table
from repro.core.state import SmrpNodeState, StateManager
from repro.core.candidates import Candidate, enumerate_candidates
from repro.core.join import PathSelection, select_path
from repro.core.query import enumerate_candidates_query
from repro.core.recovery import (
    RecoveryResult,
    global_detour_recovery,
    local_detour_recovery,
    repair_tree,
    worst_case_failure,
)
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.nlevel import NLevelMulticast, NLevelRecoveryReport

__all__ = [
    "shr_direct",
    "shr_incremental",
    "shr_table",
    "SmrpNodeState",
    "StateManager",
    "Candidate",
    "enumerate_candidates",
    "enumerate_candidates_query",
    "PathSelection",
    "select_path",
    "RecoveryResult",
    "local_detour_recovery",
    "global_detour_recovery",
    "repair_tree",
    "worst_case_failure",
    "SMRPConfig",
    "SMRPProtocol",
    "NLevelMulticast",
    "NLevelRecoveryReport",
]
