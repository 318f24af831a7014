"""Unit tests for the AQFP cell-level expansion."""

import pytest

from repro.api import synthesize
from repro.core.config import RcgpConfig
from repro.errors import NetlistError
from repro.logic.bitops import full_mask, variable_pattern
from repro.logic.truth_table import tabulate_word
from repro.rqfp.aqfp import (
    CELL_JJS,
    AqfpCell,
    AqfpNetlist,
    expand_to_aqfp,
    jj_breakdown,
)
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.metrics import circuit_cost
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


def _and_netlist():
    netlist = RqfpNetlist(2)
    gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
    netlist.add_output(netlist.gate_output_port(gate, 2))
    return netlist


class TestExpansionStructure:
    def test_gate_expands_to_three_splitters_three_majs(self):
        aqfp = expand_to_aqfp(_and_netlist())
        assert aqfp.count("splitter") == 3
        assert aqfp.count("maj3") == 3

    def test_jj_totals_match_cost_model(self):
        """AQFP cell JJs == 24*n_r + 4*n_b for any circuit."""
        netlist = _and_netlist()
        plan = optimal_levels(netlist)
        cost = circuit_cost(netlist, plan)
        aqfp = expand_to_aqfp(netlist, plan)
        assert aqfp.total_jjs() == cost.jjs

    def test_buffers_expand_to_two_aqfp_buffers_each(self):
        # Chain with an unbalanced edge: one RQFP buffer -> 2 AQFP buffers.
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        g2 = netlist.add_gate(netlist.gate_output_port(g1, 0),
                              netlist.gate_output_port(g0, 1),
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g2, 0))
        plan = optimal_levels(netlist)
        aqfp = expand_to_aqfp(netlist, plan)
        assert aqfp.count("buffer") == 2 * plan.num_buffers

    def test_breakdown_sums_to_total(self):
        netlist = _and_netlist()
        breakdown = jj_breakdown(netlist)
        partial = sum(v for k, v in breakdown.items() if k != "total")
        assert partial == breakdown["total"]

    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(NetlistError):
            AqfpCell("flux_capacitor", ())

    def test_dangling_fanin_rejected(self):
        aqfp = AqfpNetlist(0)
        with pytest.raises(NetlistError):
            aqfp.add_cell(AqfpCell("buffer", (5,)))


class TestExpansionSemantics:
    def _check_equivalence(self, netlist):
        plan = optimal_levels(netlist)
        aqfp = expand_to_aqfp(netlist, plan)
        n = netlist.num_inputs
        mask = full_mask(n)
        words = [variable_pattern(i, n) for i in range(n)]
        assert aqfp.simulate(words, mask) == netlist.simulate(words, mask)

    def test_and_gate(self):
        self._check_equivalence(_and_netlist())

    def test_random_netlists(self, rng):
        from repro.bench.random_circuits import random_rqfp
        from repro.rqfp.splitters import insert_splitters
        for _ in range(15):
            netlist = insert_splitters(
                random_rqfp(3, 5, 2, rng, legal_fanout=True))
            self._check_equivalence(netlist)

    def test_synthesized_decoder(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        result = synthesize(spec, RcgpConfig(generations=150, seed=9,
                                             shrink="always"))
        plan = result.plan
        aqfp = expand_to_aqfp(result.netlist, plan)
        mask = full_mask(2)
        words = [variable_pattern(i, 2) for i in range(2)]
        assert aqfp.simulate(words, mask) == \
            result.netlist.simulate(words, mask)
        assert aqfp.total_jjs() == result.cost.jjs
