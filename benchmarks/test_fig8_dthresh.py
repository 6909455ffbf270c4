"""Figure 8 — the effect of D_thresh (paper §4.3.2).

Paper setup: N=100, N_G=30, α=0.2; D_thresh ∈ {0.1, 0.2, 0.3, 0.4};
100 scenarios per point with 95% confidence intervals.

Paper claims asserted here:
- the recovery-distance improvement *grows* with D_thresh (≈linearly);
- so do the delay and cost penalties (the controlled trade-off);
- at D_thresh = 0.3 the improvement is substantial (paper ≈20%) while
  the delay penalty stays moderate (paper ≈5%).
"""

from repro.experiments.figsweep import FIGURE_8


def test_figure8_dthresh_tradeoff(benchmark, grid):
    topologies, member_sets = grid
    result = benchmark.pedantic(
        lambda: FIGURE_8.run(topologies=topologies, member_sets=member_sets),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())

    rd = [result.point(d).rd_relative.mean for d in FIGURE_8.values]
    delay = [result.point(d).delay_relative.mean for d in FIGURE_8.values]
    cost = [result.point(d).cost_relative.mean for d in FIGURE_8.values]

    # Improvement grows with D_thresh end to end (monotone up to noise:
    # compare the extremes, and require no large inversion in between).
    assert rd[-1] > rd[0]
    for a, b in zip(rd, rd[1:]):
        assert b > a - 0.05, f"RD trend inverted: {rd}"

    # Penalties grow with D_thresh too (the paper's trade-off direction).
    assert delay[-1] > delay[0]
    assert cost[-1] > cost[0]

    # Headline point: meaningful improvement, bounded penalties.
    headline = result.point(0.3)
    assert headline.rd_relative.mean > 0.10
    assert 0.0 <= headline.delay_relative.mean < 0.15
    assert 0.0 <= headline.cost_relative.mean < 0.35

    # Delay penalty can never exceed what the bound allows.
    for d in FIGURE_8.values:
        assert result.point(d).delay_relative.mean <= d + 1e-9
