"""Unit tests for the RQFP netlist data structure."""

import pytest

from repro.errors import FanoutViolation, NetlistError
from repro.logic.truth_table import TruthTable
from repro.rqfp.gate import NORMAL_CONFIG, SPLITTER_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpGate, RqfpNetlist


def _and_netlist():
    """Single gate computing AND on output 2 (R(a,b,1) normal config)."""
    netlist = RqfpNetlist(2)
    gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
    netlist.add_output(netlist.gate_output_port(gate, 2))
    return netlist


class TestPortIndexing:
    def test_paper_convention(self):
        """Fig. 3: const=0, PIs 1..n_pi, then 3 ports per gate."""
        netlist = RqfpNetlist(2)
        assert netlist.first_gate_port(0) == 3
        netlist.add_gate(1, 2, 0, NORMAL_CONFIG)
        assert netlist.gate_output_port(0, 0) == 3
        assert netlist.gate_output_port(0, 2) == 5
        assert netlist.first_gate_port(1) == 6
        assert netlist.num_ports() == 6

    def test_port_classification(self):
        netlist = RqfpNetlist(2)
        netlist.add_gate(1, 2, 0, NORMAL_CONFIG)
        assert netlist.is_input_port(1) and netlist.is_input_port(2)
        assert netlist.is_gate_port(3)
        assert not netlist.is_gate_port(0)

    def test_port_gate_lookup(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, 0, 0, NORMAL_CONFIG)
        netlist.add_gate(2, 0, 0, NORMAL_CONFIG)
        assert netlist.port_gate(5) == 1
        assert netlist.port_output_index(5) == 0

    def test_port_gate_rejects_pi(self):
        netlist = RqfpNetlist(1)
        with pytest.raises(NetlistError):
            netlist.port_gate(1)


class TestConstruction:
    def test_forward_reference_rejected(self):
        netlist = RqfpNetlist(1)
        with pytest.raises(NetlistError):
            netlist.add_gate(1, 5, 0, NORMAL_CONFIG)  # port 5 doesn't exist

    def test_bad_config_rejected(self):
        netlist = RqfpNetlist(1)
        with pytest.raises(ValueError):
            netlist.add_gate(1, 0, 0, 512)

    def test_gate_replace_input(self):
        gate = RqfpGate(1, 2, 0, NORMAL_CONFIG)
        gate.replace_input(1, 0)
        assert gate.inputs == (1, 0, 0)
        with pytest.raises(ValueError):
            gate.replace_input(3, 0)

    def test_copy_is_deep(self):
        netlist = _and_netlist()
        dup = netlist.copy()
        dup.gates[0].replace_input(0, 0)
        assert netlist.gates[0].in0 == 1

    def test_describe_format(self):
        netlist = _and_netlist()
        text = netlist.describe()
        assert "(1, 2, 0, 100-010-001)" in text
        assert "(5)" in text


class TestConnectivity:
    def test_consumers_and_garbage(self):
        netlist = _and_netlist()
        consumers = netlist.consumers()
        assert consumers[5] == [("po", 0, 0)]
        assert netlist.num_garbage == 2  # outputs 0 and 1 dangle
        assert sorted(netlist.garbage_ports()) == [3, 4]

    def test_fanout_violation_detection(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, 1, 0, NORMAL_CONFIG)  # PI used twice
        assert netlist.fanout_violations() == [1]
        with pytest.raises(FanoutViolation):
            netlist.validate()
        netlist.validate(require_single_fanout=False)

    def test_const_port_exempt_from_fanout(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, 0, 0, NORMAL_CONFIG)  # const twice: fine
        netlist.validate()

    def test_levels_and_depth(self):
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, 0, 0, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), 0, 0,
                              NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0))
        assert netlist.levels() == [1, 2]
        assert netlist.depth() == 2

    def test_reachable_and_shrink(self):
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, 0, 0, NORMAL_CONFIG)
        netlist.add_gate(0, 0, 0, SPLITTER_CONFIG)  # dead gate
        netlist.add_output(netlist.gate_output_port(g0, 0))
        assert netlist.reachable_gates() == [0]
        shrunk = netlist.shrink()
        assert shrunk.num_gates == 1
        assert shrunk.to_truth_tables() == netlist.to_truth_tables()

    def test_shrink_remaps_outputs(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(0, 0, 0, SPLITTER_CONFIG)  # dead
        g1 = netlist.add_gate(1, 0, 0, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 1))
        shrunk = netlist.shrink()
        assert shrunk.num_gates == 1
        assert shrunk.outputs == [shrunk.gate_output_port(0, 1)]


class TestSemantics:
    def test_and_netlist_function(self):
        netlist = _and_netlist()
        tables = netlist.to_truth_tables()
        assert tables == [TruthTable.from_function(lambda a, b: a & b, 2)]

    def test_pi_passthrough_output(self):
        netlist = RqfpNetlist(2)
        netlist.add_output(2)
        assert netlist.to_truth_tables() == [TruthTable.variable(1, 2)]

    def test_const_output(self):
        netlist = RqfpNetlist(1)
        netlist.add_output(CONST_PORT)
        assert netlist.to_truth_tables() == [TruthTable.constant(True, 1)]

    def test_simulation_matches_cnf_encoding(self, rng):
        from repro.bench.random_circuits import random_rqfp
        from repro.sat.equivalence import check_against_tables
        for _ in range(10):
            netlist = random_rqfp(3, 5, 2, rng)
            tables = netlist.to_truth_tables()
            result = check_against_tables(netlist.encoder(), tables)
            assert result.equivalent is True

    def test_simulate_wrong_arity(self):
        netlist = RqfpNetlist(2)
        with pytest.raises(NetlistError):
            netlist.simulate([1], 1)
