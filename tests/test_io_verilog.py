"""Unit tests for the structural Verilog reader / writer."""

import re

import pytest

from repro.bench.registry import BENCHMARKS
from repro.errors import ParseError
from repro.io.verilog import parse_verilog, write_verilog
from repro.logic.truth_table import TruthTable
from repro.networks.convert import tables_to_aig

MUX_V = """
// 2:1 multiplexer
module mux2(s, d0, d1, y);
  input s, d0, d1;
  output y;
  assign y = (s & d1) | (~s & d0);
endmodule
"""

GATES_V = """
module gates(a, b, y0, y1, y2);
  input a, b;
  output y0, y1, y2;
  wire t;
  and g1 (t, a, b);
  nor g2 (y0, a, b);
  xor g3 (y1, a, b);
  not g4 (y2, t);
endmodule
"""


class TestParseAssigns:
    def test_mux(self):
        aig = parse_verilog(MUX_V)
        assert aig.name == "mux2"
        tts = aig.to_truth_tables()
        assert tts[0] == TruthTable.from_function(
            lambda s, d0, d1: d1 if s else d0, 3)

    def test_ternary(self):
        text = """module m(s, a, b, y);
  input s, a, b; output y;
  assign y = s ? a : b;
endmodule"""
        aig = parse_verilog(text)
        assert aig.to_truth_tables()[0] == TruthTable.from_function(
            lambda s, a, b: a if s else b, 3)

    def test_precedence_and_before_or(self):
        text = """module m(a, b, c, y);
  input a, b, c; output y;
  assign y = a | b & c;
endmodule"""
        aig = parse_verilog(text)
        assert aig.to_truth_tables()[0] == TruthTable.from_function(
            lambda a, b, c: a | (b & c), 3)

    def test_xor_chain_and_constants(self):
        text = """module m(a, y0, y1);
  input a; output y0, y1;
  assign y0 = a ^ 1'b1;
  assign y1 = a & 1'b0;
endmodule"""
        aig = parse_verilog(text)
        tts = aig.to_truth_tables()
        assert tts[0] == ~TruthTable.variable(0, 1)
        assert tts[1] == TruthTable.constant(False, 1)

    def test_parentheses(self):
        text = """module m(a, b, c, y);
  input a, b, c; output y;
  assign y = ~(a & (b | ~c));
endmodule"""
        aig = parse_verilog(text)
        assert aig.to_truth_tables()[0] == TruthTable.from_function(
            lambda a, b, c: 1 - (a & (b | (1 - c))), 3)


class TestParseGates:
    def test_primitive_gates(self):
        aig = parse_verilog(GATES_V)
        tts = aig.to_truth_tables()
        assert tts[0] == TruthTable.from_function(
            lambda a, b: 1 - (a | b), 2)
        assert tts[1] == TruthTable.from_function(lambda a, b: a ^ b, 2)
        assert tts[2] == TruthTable.from_function(
            lambda a, b: 1 - (a & b), 2)

    def test_wide_nand(self):
        text = """module m(a, b, c, y);
  input a, b, c; output y;
  nand g (y, a, b, c);
endmodule"""
        aig = parse_verilog(text)
        assert aig.to_truth_tables()[0] == TruthTable.from_function(
            lambda a, b, c: 1 - (a & b & c), 3)


class TestParseErrors:
    def test_no_module(self):
        with pytest.raises(ParseError):
            parse_verilog("assign y = a;")

    def test_missing_endmodule(self):
        with pytest.raises(ParseError):
            parse_verilog("module m(a); input a;")

    def test_vector_ports_rejected(self):
        with pytest.raises(ParseError):
            parse_verilog("""module m(a, y);
  input [3:0] a; output y;
  assign y = a;
endmodule""")

    def test_undriven_output(self):
        with pytest.raises(ParseError):
            parse_verilog("module m(a, y); input a; output y; endmodule")

    def test_combinational_loop(self):
        with pytest.raises(ParseError):
            parse_verilog("""module m(a, y);
  input a; output y;
  wire t;
  assign t = y;
  assign y = t;
endmodule""")


class TestWrite:
    def test_round_trip(self, random_tables):
        tables = random_tables(4, 2)
        aig = tables_to_aig(tables, name="rt")
        again = parse_verilog(write_verilog(aig))
        assert again.to_truth_tables() == tables

    def test_round_trip_constants(self):
        tables = [TruthTable.constant(True, 1)]
        aig = tables_to_aig(tables)
        again = parse_verilog(write_verilog(aig))
        assert again.to_truth_tables() == tables

    def test_module_name_override(self):
        aig = tables_to_aig([TruthTable.variable(0, 1)])
        text = write_verilog(aig, module_name="custom")
        assert text.startswith("module custom(")

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_round_trip_every_benchmark_name(self, name):
        """Names like ``4gt10`` are not Verilog identifiers; the writer
        must still emit a module its own reader accepts."""
        spec = BENCHMARKS[name].spec()
        text = write_verilog(tables_to_aig(spec, name=name))
        again = parse_verilog(text)
        assert again.to_truth_tables() == spec
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", again.name)
