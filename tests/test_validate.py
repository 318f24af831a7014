"""Unit tests for whole-circuit design-rule validation."""

import pytest

from repro.api import synthesize
from repro.core.config import RcgpConfig
from repro.errors import FanoutViolation, PathBalanceViolation
from repro.logic.truth_table import tabulate_word
from repro.rqfp.buffers import BufferPlan, schedule_levels
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist
from repro.rqfp.validate import (
    check_circuit,
    path_balance_violations,
    validate_circuit,
)


def _legal_chain():
    netlist = RqfpNetlist(1)
    g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
    g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                          CONST_PORT, NORMAL_CONFIG)
    netlist.add_output(netlist.gate_output_port(g1, 0))
    return netlist


class TestValidateCircuit:
    def test_legal_circuit_passes(self):
        netlist = _legal_chain()
        plan = validate_circuit(netlist)
        assert plan.depth == 2

    def test_fanout_violation_raised(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, 1, CONST_PORT, NORMAL_CONFIG)
        with pytest.raises(FanoutViolation):
            validate_circuit(netlist)

    def test_bad_plan_raises_path_balance(self):
        netlist = _legal_chain()
        good = schedule_levels(netlist)
        bad = BufferPlan(levels=[1, 2], depth=2, edge_buffers={
            ("gg", 0, 1, 0): 5}, num_buffers=5)
        with pytest.raises(PathBalanceViolation):
            validate_circuit(netlist, bad)
        validate_circuit(netlist, good)

    def test_plan_length_mismatch_reported(self):
        netlist = _legal_chain()
        bad = BufferPlan(levels=[1], depth=1)
        problems = path_balance_violations(netlist, bad)
        assert problems and "covers" in problems[0]

    def test_missing_pi_buffers_detected(self):
        """A gate at level 2 fed directly by a PI needs one buffer."""
        netlist = RqfpNetlist(2)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), 2,
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0))
        plan = BufferPlan(levels=[1, 2], depth=2, edge_buffers={},
                          num_buffers=0)
        problems = path_balance_violations(netlist, plan)
        assert any("ig" in p for p in problems)

    def test_negative_gate_span_reported(self):
        """A plan scheduling a consumer *before* its producer."""
        netlist = _legal_chain()
        bad = BufferPlan(levels=[2, 1], depth=2, edge_buffers={},
                         num_buffers=0)
        problems = path_balance_violations(netlist, bad)
        assert any("from the future" in p and "gate 1" in p
                   for p in problems)

    def test_negative_output_span_reported(self):
        """A plan whose depth predates the PO's driving gate: the
        output would sample a value from the future, which no buffer
        count can fix."""
        netlist = _legal_chain()
        bad = BufferPlan(levels=[1, 2], depth=1,
                         edge_buffers={("gg", 0, 1, 0): 0}, num_buffers=0)
        problems = path_balance_violations(netlist, bad)
        future = [p for p in problems if "from the future" in p]
        assert future == ["output 0 sampled from the future (span -1)"]

    def test_size_mismatch_message_appears_exactly_once(self):
        netlist = _legal_chain()
        bad = BufferPlan(levels=[1], depth=1)
        for report in (path_balance_violations(netlist, bad),
                       check_circuit(netlist, bad)):
            assert report == [
                "plan covers 1 gates, netlist has 2"
            ]

    def test_check_circuit_collects_instead_of_raising(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, 1, CONST_PORT, NORMAL_CONFIG)
        problems = check_circuit(netlist)
        assert any("fan-out" in p for p in problems)


class TestEndToEndValidation:
    def test_synthesized_circuits_are_design_rule_clean(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        result = synthesize(spec, RcgpConfig(generations=200, seed=3,
                                             shrink="always"))
        plan = validate_circuit(result.netlist, result.plan)
        assert plan.num_buffers == result.cost.n_b
        assert check_circuit(result.netlist, result.plan) == []
