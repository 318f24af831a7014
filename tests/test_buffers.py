"""Unit tests for buffer insertion (path balancing)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.random_circuits import random_rqfp
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.buffers import _count_buffers, estimate_buffers
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


def _chain(length: int) -> RqfpNetlist:
    netlist = RqfpNetlist(1)
    src = 1
    for _ in range(length):
        gate = netlist.add_gate(src, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        src = netlist.gate_output_port(gate, 0)
    netlist.add_output(src)
    return netlist


def _diamond() -> RqfpNetlist:
    """PI -> g0; g0 -> g1 (short path) and g0 -> g2 -> g3; g1,g3 -> g4-ish.

    Actually: g1 consumes g0 out0; g2 consumes g0 out1; g3 consumes g2;
    g4 consumes g1 and g3 — the g1 edge spans 2 levels and needs a buffer.
    """
    n = RqfpNetlist(1)
    g0 = n.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
    g1 = n.add_gate(n.gate_output_port(g0, 0), CONST_PORT, CONST_PORT,
                    NORMAL_CONFIG)
    g2 = n.add_gate(n.gate_output_port(g0, 1), CONST_PORT, CONST_PORT,
                    NORMAL_CONFIG)
    g3 = n.add_gate(n.gate_output_port(g2, 0), CONST_PORT, CONST_PORT,
                    NORMAL_CONFIG)
    g4 = n.add_gate(n.gate_output_port(g1, 0), n.gate_output_port(g3, 0),
                    CONST_PORT, NORMAL_CONFIG)
    n.add_output(n.gate_output_port(g4, 0))
    return n


class TestChains:
    def test_pure_chain_needs_no_buffers(self):
        plan = optimal_levels(_chain(5))
        assert plan.num_buffers == 0
        assert plan.depth == 5

    def test_empty_netlist(self):
        netlist = RqfpNetlist(2)
        plan = optimal_levels(netlist)
        assert plan.depth == 0 and plan.num_buffers == 0

    def test_pi_to_po_passthrough(self):
        netlist = RqfpNetlist(1)
        netlist.add_output(1)
        plan = optimal_levels(netlist)
        # Depth 0: the PI->PO edge spans the whole (empty) pipeline.
        assert plan.num_buffers == 0


class TestDiamond:
    def test_asap_unbalanced_edge_buffered(self):
        netlist = _diamond()
        # ASAP: g1 at level 2, g4 at level 4 -> one buffer on g1->g4.
        assert estimate_buffers(netlist) >= 1

    def test_exact_not_worse_than_asap(self):
        netlist = _diamond()
        exact = optimal_levels(netlist)
        assert exact.num_buffers <= estimate_buffers(netlist)
        assert exact.depth == netlist.depth()

    def test_retiming_wins_when_slack_exists(self):
        """A gate feeding a deep consumer should slide down (ALAP-ward)."""
        n = RqfpNetlist(2)
        g0 = n.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = n.add_gate(n.gate_output_port(g0, 0), CONST_PORT, CONST_PORT,
                        NORMAL_CONFIG)
        g2 = n.add_gate(n.gate_output_port(g1, 0), CONST_PORT, CONST_PORT,
                        NORMAL_CONFIG)
        # The floater reads PI 2 and feeds g3 (level 4) twice: at its
        # ASAP level 1 both output edges need 2 buffers, at level 3 only
        # its one input edge does.
        floater = n.add_gate(2, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g3 = n.add_gate(n.gate_output_port(g2, 0),
                        n.gate_output_port(floater, 0),
                        n.gate_output_port(floater, 1), NORMAL_CONFIG)
        n.add_output(n.gate_output_port(g3, 0))
        plan = optimal_levels(n)
        assert estimate_buffers(n) == 4
        assert plan.levels[floater] == 3
        assert plan.num_buffers == 2


class TestPlanConsistency:
    def test_levels_topological(self, rng):
        for _ in range(20):
            netlist = random_rqfp(3, 8, 2, rng)
            plan = optimal_levels(netlist)
            for g, gate in enumerate(netlist.gates):
                for port in gate.inputs:
                    if netlist.is_gate_port(port):
                        src = netlist.port_gate(port)
                        assert plan.levels[g] > plan.levels[src]

    def test_buffer_total_matches_edges(self, rng):
        for _ in range(20):
            netlist = random_rqfp(3, 8, 2, rng)
            plan = optimal_levels(netlist)
            assert plan.num_buffers == sum(plan.edge_buffers.values())

    def test_estimate_matches_greedy(self, rng):
        for _ in range(20):
            netlist = random_rqfp(2, 6, 2, rng)
            assert estimate_buffers(netlist) == _count_buffers(
                netlist, netlist.levels(), netlist.depth())[1]

    def test_depth_equals_netlist_depth(self, rng):
        for _ in range(10):
            netlist = random_rqfp(3, 6, 2, rng)
            assert optimal_levels(netlist).depth == netlist.depth()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 8), st.integers(1, 3),
       st.integers(0, 2 ** 31))
def test_schedule_never_worse_than_asap(num_inputs, num_gates, num_outputs,
                                        seed):
    netlist = random_rqfp(num_inputs, num_gates, num_outputs,
                          random.Random(seed))
    exact = optimal_levels(netlist)
    assert exact.num_buffers <= estimate_buffers(netlist)
    assert exact.depth == netlist.depth()
