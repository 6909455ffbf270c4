"""Figure 10 — the effect of the group size N_G (paper §4.3.4).

Paper setup: N=100, α=0.2, D_thresh=0.3; N_G ∈ {20, 30, 40, 50}.

Paper claims asserted here:
- performance holds steadily across group sizes (positive improvement,
  bounded overhead at every point);
- the improvement declines slightly as the group grows (more members
  mean everyone already has close neighbors).
"""

from repro.experiments.figsweep import FIGURE_10


def test_figure10_group_size_effect(benchmark, grid):
    topologies, member_sets = grid
    result = benchmark.pedantic(
        lambda: FIGURE_10.run(topologies=topologies, member_sets=member_sets),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())

    rd = [result.point(g).rd_relative.mean for g in FIGURE_10.values]
    delay = [result.point(g).delay_relative.mean for g in FIGURE_10.values]

    # Steady positive improvement at every group size.
    assert all(r > 0.08 for r in rd)
    # Bounded overheads everywhere.
    assert all(0.0 <= d <= 0.3 + 1e-9 for d in delay)
    # Slight decline with group size: the largest group does not beat the
    # smallest.
    assert rd[-1] <= rd[0] + 0.03
    # The band is narrow — "maintained steadily" (no collapse anywhere).
    assert max(rd) - min(rd) < 0.15
