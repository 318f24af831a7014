"""Unit tests for whole-circuit design-rule validation."""

import dataclasses
import re

import pytest

from repro.api import synthesize
from repro.bench.revlib import ham3
from repro.core.config import RcgpConfig
from repro.core.synthesis import initialize_netlist
from repro.core.verify import verify_evolution_result
from repro.errors import FanoutViolation, PathBalanceViolation
from repro.logic.truth_table import tabulate_word
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.buffers import BufferPlan, _count_buffers
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
        good = optimal_levels(netlist)
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


class TestTamperedPlans:
    """Plans whose per-edge buffers agree with their own levels but whose
    bookkeeping does not: the validator and the result gate reject
    each, since ``n_b`` and ``n_d`` are reported straight off the plan."""

    @staticmethod
    def _consistent(netlist, levels, depth):
        edge_buffers, total = _count_buffers(netlist, levels, depth)
        return BufferPlan(levels, depth, edge_buffers, total)

    @staticmethod
    def _rejected(netlist, plan, message):
        spec = netlist.to_truth_tables()
        with pytest.raises(PathBalanceViolation, match=re.escape(message)):
            validate_circuit(netlist, plan)
        with pytest.raises(PathBalanceViolation, match=re.escape(message)):
            verify_evolution_result(netlist, spec, plan=plan)

    def test_buffer_total_one_short(self):
        netlist = initialize_netlist(ham3(), "ham3")
        plan = optimal_levels(netlist)
        verify_evolution_result(netlist, ham3(), plan=plan)
        short = dataclasses.replace(plan, num_buffers=plan.num_buffers - 1)
        self._rejected(netlist, short,
                       f"plan reports {plan.num_buffers - 1} buffers, its "
                       f"edges need {plan.num_buffers}")

    def test_level_below_one(self):
        """A gate fed only by constants has no input edge to go
        negative, so only the level range catches stage 0."""
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT,
                              NORMAL_CONFIG)
        g1 = netlist.add_gate(1, netlist.gate_output_port(g0, 0),
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0))
        validate_circuit(netlist, self._consistent(netlist, [1, 2], 2))
        self._rejected(netlist, self._consistent(netlist, [0, 2], 2),
                       "gate 0 at level 0, outside [1, 2]")

    def test_depth_below_deepest_level(self):
        """A deepest gate that drives no output has no output edge to
        go negative, so only the level range catches a short depth."""
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g0, 0))
        netlist.add_gate(netlist.gate_output_port(g0, 1), CONST_PORT,
                         CONST_PORT, NORMAL_CONFIG)
        validate_circuit(netlist, self._consistent(netlist, [1, 2], 2))
        self._rejected(netlist, self._consistent(netlist, [1, 2], 1),
                       "gate 1 at level 2, outside [1, 1]")


class TestEndToEndValidation:
    def test_synthesized_circuits_are_design_rule_clean(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        result = synthesize(spec, RcgpConfig(generations=200, seed=3,
                                             shrink="always"))
        plan = validate_circuit(result.netlist, result.plan)
        assert plan.num_buffers == result.cost.n_b
        assert check_circuit(result.netlist, result.plan) == []
