"""Unit tests for PLA, RevLib .real, and RQFP-JSON I/O."""

import io

import pytest

from repro.errors import ParseError
from repro.io.pla import parse_pla, write_pla
from repro.io.real import parse_real, write_real
from repro.io.rqfp_json import (
    netlist_from_dict,
    netlist_to_dict,
    read_rqfp_json,
    write_rqfp_json,
)
from repro.logic.truth_table import TruthTable
from repro.reversible.gates import Control
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


class TestPla:
    def test_parse_and(self):
        text = ".i 2\n.o 1\n.p 1\n11 1\n.e\n"
        tables, ins, outs = parse_pla(text)
        assert tables[0] == TruthTable.from_function(lambda a, b: a & b, 2)
        assert ins == ["x0", "x1"]

    def test_dont_care_rows_expand(self):
        text = ".i 3\n.o 1\n1-- 1\n.e\n"
        tables, _, _ = parse_pla(text)
        assert tables[0] == TruthTable.variable(0, 3)

    def test_names_parsed(self):
        text = ".i 1\n.o 1\n.ilb alpha\n.ob beta\n1 1\n.e\n"
        _, ins, outs = parse_pla(text)
        assert ins == ["alpha"] and outs == ["beta"]

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_pla("11 1\n")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_pla(".i 2\n.o 1\n111 1\n")

    def test_round_trip(self, random_tables):
        tables = random_tables(3, 2)
        text = write_pla(tables, ["a", "b", "c"], ["y", "z"])
        again, ins, outs = parse_pla(text)
        assert again == tables
        assert ins == ["a", "b", "c"] and outs == ["y", "z"]


TOFFOLI_REAL = """
.version 2.0
.numvars 3
.variables a b c
.constants ---
.garbage 000
.begin
t3 a b c
.end
"""


class TestReal:
    def test_toffoli(self):
        circuit = parse_real(TOFFOLI_REAL)
        assert circuit.num_wires == 3
        assert circuit.apply(0b011) == 0b111
        assert circuit.apply(0b111) == 0b011
        assert circuit.apply(0b001) == 0b001
        assert circuit.is_reversible()

    def test_negative_control(self):
        text = (".numvars 2\n.variables a b\n.begin\nt2 -a b\n.end\n")
        circuit = parse_real(text)
        # b flips when a == 0.
        assert circuit.apply(0b00) == 0b10
        assert circuit.apply(0b01) == 0b01

    def test_fredkin(self):
        text = ".numvars 3\n.variables a b c\n.begin\nf3 a b c\n.end\n"
        circuit = parse_real(text)
        assert circuit.apply(0b011) == 0b101  # a=1: swap b,c
        assert circuit.apply(0b010) == 0b010  # a=0: no swap

    def test_constants_and_garbage(self):
        text = (".numvars 3\n.variables a b c\n.constants --0\n"
                ".garbage 010\n.begin\nt3 a b c\n.end\n")
        circuit = parse_real(text)
        assert circuit.constants == [None, None, 0]
        assert circuit.garbage == [False, True, False]
        assert circuit.real_inputs() == [0, 1]
        assert circuit.real_outputs() == [0, 2]
        tables = circuit.embedded_tables()
        assert len(tables) == 2
        assert tables[0] == TruthTable.variable(0, 2)
        # Toffoli writes a AND b into the zero-initialized line c.
        assert tables[1] == TruthTable.from_function(lambda a, b: a & b, 2)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\n.variables a\n.begin\nt1 z\n.end\n")

    def test_gate_outside_body_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\n.variables a\nt1 a\n")

    def test_round_trip(self):
        circuit = parse_real(TOFFOLI_REAL)
        again = parse_real(write_real(circuit))
        assert again.permutation() == circuit.permutation()
        assert again.constants == circuit.constants

    def test_negative_control_round_trip(self):
        text = ".numvars 2\n.variables a b\n.begin\nt2 -a b\n.end\n"
        circuit = parse_real(text)
        again = parse_real(write_real(circuit))
        assert again.permutation() == circuit.permutation()


class TestRqfpJson:
    def _netlist(self):
        netlist = RqfpNetlist(2, "demo")
        gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(gate, 2), "y")
        return netlist

    def test_round_trip(self):
        netlist = self._netlist()
        text = write_rqfp_json(netlist)
        again = read_rqfp_json(io.StringIO(text))
        assert again.name == "demo"
        assert again.to_truth_tables() == netlist.to_truth_tables()
        assert again.output_names == ["y"]

    def test_plan_embedded(self):
        netlist = self._netlist()
        plan = optimal_levels(netlist)
        data = netlist_to_dict(netlist, plan)
        assert data["buffer_plan"]["depth"] == plan.depth

    def test_config_as_string(self):
        data = netlist_to_dict(self._netlist())
        assert data["gates"][0]["config"] == "100-010-001"

    def test_bad_format_rejected(self):
        with pytest.raises(ParseError):
            netlist_from_dict({"format": "something-else"})

    def test_bad_version_rejected(self):
        with pytest.raises(ParseError):
            netlist_from_dict({"format": "rqfp-netlist", "version": 99})


class TestRqfpVerilogExport:
    def _roundtrip(self, netlist):
        from repro.io.rqfp_verilog import write_rqfp_verilog
        from repro.io.verilog import parse_verilog
        text = write_rqfp_verilog(netlist)
        parsed = parse_verilog(text)
        assert parsed.to_truth_tables() == netlist.to_truth_tables()
        return text

    def test_and_gate_round_trip(self):
        netlist = RqfpNetlist(2, "andgate")
        gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(gate, 2), "y")
        text = self._roundtrip(netlist)
        assert "module andgate" in text
        assert "assign y" in text

    def test_garbage_outputs_have_no_wires(self):
        netlist = RqfpNetlist(2)
        gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(gate, 2))
        from repro.io.rqfp_verilog import write_rqfp_verilog
        text = write_rqfp_verilog(netlist)
        assert "g0_o2" in text
        assert "g0_o0" not in text and "g0_o1" not in text

    def test_random_netlists_round_trip(self, rng):
        from repro.bench.random_circuits import random_rqfp
        from repro.rqfp.splitters import insert_splitters
        for _ in range(8):
            netlist = insert_splitters(
                random_rqfp(3, 5, 2, rng, legal_fanout=True))
            self._roundtrip(netlist)

    def test_buffer_comments_present_with_plan(self):
        from repro.io.rqfp_verilog import write_rqfp_verilog
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        g2 = netlist.add_gate(netlist.gate_output_port(g1, 0),
                              netlist.gate_output_port(g0, 1),
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g2, 0))
        plan = optimal_levels(netlist)
        text = write_rqfp_verilog(netlist, plan)
        if plan.num_buffers:
            assert "RQFP buffer" in text
