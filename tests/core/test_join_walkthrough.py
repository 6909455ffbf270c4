"""The paper's Figure 4 walkthrough, decision by decision.

These tests pin the exact narrative of §3.2.2: members E, G, F join in
order with ``D_thresh = 0.3`` and the protocol makes the choices the
paper describes.
"""

import pytest

from repro.graph.generators import node_id
from repro.core.candidates import enumerate_candidates
from repro.core.protocol import SMRPConfig, SMRPProtocol


@pytest.fixture
def proto(fig4):
    return SMRPProtocol(
        fig4, node_id("S"), config=SMRPConfig(d_thresh=0.3, reshape_enabled=False)
    )


class TestFigure4:
    def test_e_joins_over_spf_path(self, proto):
        """E's join is trivial: the empty tree makes SPF the only option."""
        selection = proto.join(node_id("E"))
        assert selection.candidate.graft_path == (
            node_id("S"),
            node_id("A"),
            node_id("D"),
            node_id("E"),
        )
        assert not selection.fallback
        assert proto.shr_values()[node_id("D")] == 2

    def test_g_prefers_min_shr_despite_longer_delay(self, proto):
        """G picks G→B→S (merge at S, SHR 0) over the shorter G→F→D→A→S."""
        proto.join(node_id("E"))
        selection = proto.join(node_id("G"))
        assert selection.candidate.merge_node == node_id("S")
        assert selection.candidate.graft_path == (
            node_id("S"),
            node_id("B"),
            node_id("G"),
        )
        # The rejected shorter option did exist:
        assert selection.num_candidates >= 2
        assert selection.candidate.total_delay == pytest.approx(3.0)
        assert selection.spf_delay == pytest.approx(2.8)

    def test_f_bound_forces_merge_at_d(self, proto):
        """F→B→S and F→G→B→S exceed 1.3 × SPF; F merges at D."""
        proto.join(node_id("E"))
        proto.join(node_id("G"))
        selection = proto.join(node_id("F"))
        assert selection.candidate.merge_node == node_id("D")
        assert selection.candidate.graft_path == (node_id("D"), node_id("F"))
        assert not selection.fallback
        # Only the option inside the bound is enumerated and priced.
        assert selection.num_candidates == selection.num_feasible == 1

    def test_f_options_beyond_the_bound_exist(self, proto):
        """The unbounded enumeration still finds F→B→S and F→G→B→S."""
        proto.join(node_id("E"))
        proto.join(node_id("G"))
        options = {
            c.graft_path: c.total_delay
            for c in enumerate_candidates(
                proto.topology, proto.tree, node_id("F"), proto.shr_values()
            )
        }
        bound = 1.3 * 2.4
        assert options[(node_id("B"), node_id("F"))] == pytest.approx(3.5)
        assert options[(node_id("G"), node_id("F"))] == pytest.approx(3.4)
        assert options[(node_id("B"), node_id("F"))] > bound
        assert options[(node_id("G"), node_id("F"))] > bound

    def test_final_tree_shape(self, proto):
        for m in ("E", "G", "F"):
            proto.join(node_id(m))
        assert proto.tree.tree_links() == {
            (node_id("S"), node_id("A")),
            (node_id("A"), node_id("D")),
            (node_id("D"), node_id("E")),
            (node_id("S"), node_id("B")),
            (node_id("B"), node_id("G")),
            (node_id("D"), node_id("F")),
        }

    def test_shr_after_f(self, proto):
        """SHR_{S,D} = 4 after F joins (Condition I's trigger value)."""
        for m in ("E", "G", "F"):
            proto.join(node_id(m))
        shr = proto.shr_values()
        assert shr[node_id("D")] == 4
        assert shr[node_id("A")] == 2
        assert shr[node_id("B")] == 1
