"""Tests for parameter sweeps and the figure drivers (reduced scale)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.exec.spec import ExperimentSpec
from repro.experiments.fig7 import run_figure7
from repro.experiments.figsweep import FIGURE_8, FIGURE_9, FIGURE_10
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweeps import run_spec_sweep, scenario_grid


class TestScenarioGrid:
    def test_grid_size(self):
        grid = scenario_grid(ScenarioConfig(), topologies=3, member_sets=4)
        assert len(grid) == 12

    def test_seeds_unique(self):
        grid = scenario_grid(ScenarioConfig(), topologies=3, member_sets=4)
        seeds = {(c.topology_seed, c.member_seed) for c in grid}
        assert len(seeds) == 12

    def test_same_grid_shares_topologies_across_points(self):
        a = scenario_grid(ScenarioConfig(d_thresh=0.1), 2, 2)
        b = scenario_grid(ScenarioConfig(d_thresh=0.4), 2, 2)
        assert [c.topology_seed for c in a] == [c.topology_seed for c in b]

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_grid(ScenarioConfig(), 0, 1)


class TestRunSweep:
    def test_sweep_aggregates(self):
        points = run_spec_sweep(ExperimentSpec(
            n=30, group_size=8, sweep_parameter="d_thresh",
            sweep_values=(0.1, 0.4), topologies=2, member_sets=2,
        ))
        assert len(points) == 2
        for point in points:
            assert len(point.scenarios) == 4
            assert point.rd_relative.n > 0
            assert point.average_degree > 1.0


class TestFigureDrivers:
    """Smoke tests at reduced scale; shape assertions live in benchmarks."""

    def test_fig7_runs_and_renders(self):
        # Small graphs need a denser alpha or every worst-case failure is
        # a bridge and no member is recoverable.
        result = run_figure7(topologies=2, n=30, group_size=8, alpha=0.6)
        assert result.points
        text = result.render()
        assert "RD local" in text and "avg reduction" in text

    def test_fig8_runs_and_renders(self):
        result = FIGURE_8.run(
            values=[0.1, 0.3], n=30, group_size=8, topologies=2, member_sets=2
        )
        assert len(result.points) == 2
        assert result.point(0.3).rd_relative.n > 0
        assert "D_thresh" in result.render()
        with pytest.raises(KeyError):
            result.point(0.9)

    def test_fig9_reports_degrees(self):
        result = FIGURE_9.run(
            values=[0.2, 0.3], n=30, group_size=8, topologies=2, member_sets=2
        )
        degrees = [p.average_degree for p in result.points]
        assert degrees[1] > degrees[0]  # larger alpha, denser graph
        assert "avg degree" in result.render()

    def test_fig10_group_sizes(self):
        result = FIGURE_10.run(
            values=[5, 10], n=30, topologies=2, member_sets=2
        )
        assert result.point(5).rd_relative.n < result.point(10).rd_relative.n
        assert "N_G" in result.render()


#: Each sweep figure at n=30 on a 2x1 grid, rendered by the three
#: per-figure drivers that ``figsweep`` replaced.
FIGURE_TEXT = {
    8: """\
D_thresh     RD_relative    D_relative   Cost_relative
--------  --------------  ------------  --------------
     0.1  +28.5% ± 21.8%  +0.0% ± 0.0%   +1.4% ± 17.5%
     0.2  +28.5% ± 21.8%  +0.8% ± 1.7%   +7.8% ± 99.5%
     0.3  +28.5% ± 21.8%  +4.2% ± 5.1%  +9.3% ± 117.9%
     0.4  +28.5% ± 21.8%  +4.2% ± 5.1%  +9.3% ± 117.9%
(paper at 0.3: RD ≈ +20%, delay/cost penalties ≈ 5%; improvement grows with D_thresh)""",
    9: """\
alpha  avg degree     RD_relative    D_relative   Cost_relative
-----  ----------  --------------  ------------  --------------
  0.4        2.60  +28.5% ± 21.8%  +4.2% ± 5.1%  +9.3% ± 117.9%
  0.5        3.07  +23.0% ± 13.9%  +6.5% ± 5.2%  +20.7% ± 56.8%
  0.6        3.70  +19.4% ± 13.9%  +3.6% ± 3.8%  +11.6% ± 72.0%
(paper: improvement shrinks slightly as the degree grows; still ≈12% at degree 10)""",
    10: """\
N_G     RD_relative    D_relative    Cost_relative
---  --------------  ------------  ---------------
  5  +18.6% ± 21.9%  +3.1% ± 4.8%  +13.4% ± 169.7%
 10  +17.2% ± 10.4%  +1.2% ± 2.5%    +4.5% ± 56.9%
 15  +39.9% ± 14.7%  +4.0% ± 3.2%    +6.2% ± 62.2%
 20    +6.5% ± 4.2%  +3.3% ± 2.6%    -1.4% ± 53.5%
(paper: ≈20% RD reduction, ≈5% overhead, slight decline with larger groups)""",
}


class TestFigureText:
    """The sweep figures render exactly as before, byte for byte."""

    def test_figure8(self):
        result = FIGURE_8.run(n=30, group_size=8, alpha=0.4,
                              topologies=2, member_sets=1)
        assert result.render() == FIGURE_TEXT[8]

    def test_figure9(self):
        result = FIGURE_9.run(values=[0.4, 0.5, 0.6], n=30, group_size=8,
                              topologies=2, member_sets=1)
        assert result.render() == FIGURE_TEXT[9]

    def test_figure10(self):
        result = FIGURE_10.run(values=[5, 10, 15, 20], n=30, alpha=0.4,
                               topologies=2, member_sets=1)
        assert result.render() == FIGURE_TEXT[10]
