"""Extension — proactive protection vs. SMRP's reactive local recovery.

The paper positions SMRP between today's reactive SPF re-join (slow, no
standing cost) and proactive protection à la Han & Shin [22] / Medard et
al. [16] (instant, permanent resource reservation).  This bench measures
all three points of the spectrum under the worst-case failure model,
with protection modelled by the backup-tree engine
(``BackupTreeProtocol(mode="protection")`` at the default budget: the
complete post-failure tree installed for each of the most-loaded links):

- recovery distance: protection = 0 by construction, SMRP short, SPF long;
- standing resource cost: protection reserves far more than either tree.
"""

import numpy as np

from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.metrics.recovery_metrics import worst_case_recovery
from repro.multicast.backup_trees import BackupTreeProtocol
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.routing.failure_view import FailureSet


def run(scenarios: int = 8):
    rows = []
    for seed in range(scenarios):
        topology = waxman_topology(
            WaxmanConfig(n=100, alpha=0.2, beta=0.25, seed=seed)
        ).topology
        rng = np.random.default_rng(400 + seed)
        members = [int(m) for m in rng.choice(range(1, 100), 30, replace=False)]

        smrp = SMRPProtocol(topology, 0, config=SMRPConfig(self_check=False))
        smrp.build(members)
        spf = SPFMulticastProtocol(topology, 0, self_check=False)
        spf.build(members)
        protection = BackupTreeProtocol(topology, 0, mode="protection")
        protection.build(members)

        rd_smrp, rd_spf = [], []
        for member in members:
            m_smrp = worst_case_recovery(topology, smrp.tree, member, "local")
            m_spf = worst_case_recovery(topology, spf.tree, member, "global")
            if m_smrp.recovered:
                rd_smrp.append(m_smrp.recovery_distance)
            if m_spf.recovered:
                rd_spf.append(m_spf.recovery_distance)

        # Fail each protected link in turn: every member it cuts that its
        # backup tree reaches is protected, and survives if it switches
        # over with zero recovery distance.
        protected = survived = 0
        for link in protection.backups.links(protection.tree):
            failure = FailureSet.links(link)
            cut = protection.tree.disconnected_members(failure)
            report = protection.plan_repair(failure)
            protected += len(cut) - len(report.unrecoverable)
            survived += sum(
                r.strategy == "backup" and r.recovery_distance == 0.0
                for r in report.recoveries
            )
        rows.append(
            {
                "rd_smrp": float(np.mean(rd_smrp)),
                "rd_spf": float(np.mean(rd_spf)),
                "cost_smrp": smrp.tree.tree_cost(),
                "cost_spf": spf.tree.tree_cost(),
                "cost_protection": protection.tree.tree_cost()
                + protection.standing_cost(),
                "protected": protected,
                "survived": survived,
                "members": len(members),
            }
        )
    return rows


def test_protection_spectrum(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    mean = lambda key: sum(r[key] for r in rows) / len(rows)
    print(
        f"\n             standing cost    worst-case RD"
        f"\nSPF + rejoin   {mean('cost_spf'):10.0f}    {mean('rd_spf'):10.1f}"
        f"\nSMRP           {mean('cost_smrp'):10.0f}    {mean('rd_smrp'):10.1f}"
        f"\nprotection     {mean('cost_protection'):10.0f}    {0.0:10.1f} (switchover)"
    )
    protected = sum(r["protected"] for r in rows)
    survived = sum(r["survived"] for r in rows)
    # Protection delivers its promise: every member a protected-link
    # failure cuts off switches over with zero recovery distance.
    assert survived == protected
    assert protected > 0
    # The spectrum ordering the paper sketches:
    # recovery speed: protection (0) < SMRP < SPF rejoin,
    assert 0.0 < mean("rd_smrp") < mean("rd_spf")
    # standing cost: SPF tree < SMRP tree < protection (its tree plus the
    # links its backup trees reserve).
    assert mean("cost_spf") < mean("cost_smrp") < mean("cost_protection")
