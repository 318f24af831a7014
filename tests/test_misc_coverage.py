"""Assorted coverage: doctest of the package docstring, PI→PO buffer
accounting with nonzero depth, describe() formatting details."""

import doctest

import pytest

import repro
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.buffers import estimate_buffers
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


class TestPackageDoctest:
    def test_module_docstring_examples_run(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 1  # the quickstart example ran


class TestPiToPoBuffers:
    def test_passthrough_pays_full_pipeline(self):
        """A PI wired straight to a PO crosses all D stages (the paper's
        PI/PO alignment protocol)."""
        netlist = RqfpNetlist(2)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0), "deep")
        netlist.add_output(2, "passthrough")
        plan = optimal_levels(netlist)
        assert plan.depth == 2
        io_edges = [(k, v) for k, v in plan.edge_buffers.items()
                    if k[0] == "io"]
        assert io_edges and io_edges[0][1] == 2  # D buffers on the wire
        assert plan.num_buffers == estimate_buffers(netlist)  # nothing to move


class TestDescribeFormatting:
    def test_matches_paper_fig3_grammar(self):
        """Gates render as "(in0, in1, in2, xxx-xxx-xxx)" and outputs as
        a final parenthesized list — the paper's green string."""
        netlist = RqfpNetlist(2)
        g = netlist.add_gate(1, 2, CONST_PORT, 352)
        netlist.add_output(netlist.gate_output_port(g, 1))
        text = netlist.describe()
        assert text == "(1, 2, 0, 101-100-000) (4)"

    def test_empty_netlist_describe(self):
        netlist = RqfpNetlist(1)
        netlist.add_output(1)
        assert netlist.describe() == " (1)"
