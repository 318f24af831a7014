"""Unit tests for the exact-synthesis baseline."""

import pytest

from repro.errors import ExactSynthesisTimeout
from repro.exact.encoding import decode, encode
from repro.exact.synthesizer import ExactSynthesizer, exact_synthesize
from repro.logic.truth_table import TruthTable, tabulate_word
from repro.sat.solver import SAT, Solver


def _and_spec():
    return [TruthTable.from_function(lambda a, b: a & b, 2)]


def _xor_spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2)]


class TestEncoding:
    def test_decode_model_realizes_spec(self):
        enc = encode(_and_spec(), 1, 9)
        solver = Solver(enc.cnf)
        assert solver.solve() == SAT
        netlist = decode(enc, solver.model())
        assert netlist.to_truth_tables() == _and_spec()

    def test_unsat_when_too_few_gates(self):
        """XOR needs at least 2 RQFP gates (no single majority is XOR)."""
        enc = encode(_xor_spec(), 1, 9)
        from repro.sat.solver import UNSAT
        assert Solver(enc.cnf).solve() == UNSAT

    def test_garbage_cap_binds(self):
        """AND with 0 garbage allowed is UNSAT for 1 gate (2 dangle)."""
        from repro.sat.solver import UNSAT
        enc = encode(_and_spec(), 1, 0)
        assert Solver(enc.cnf).solve() == UNSAT

    def test_single_fanout_encoded(self):
        """Any model must satisfy the single-fan-out law."""
        enc = encode(_xor_spec(), 2, 6)
        solver = Solver(enc.cnf)
        assert solver.solve() == SAT
        netlist = decode(enc, solver.model())
        netlist.validate(require_single_fanout=True)


class TestSynthesizer:
    def test_and_is_one_gate_two_garbage(self):
        result = exact_synthesize(_and_spec(), max_gates=2)
        assert result.num_gates == 1
        assert result.num_garbage == 2
        assert result.gates_proved_optimal
        assert result.netlist.to_truth_tables() == _and_spec()

    def test_xor_needs_two_gates(self):
        result = exact_synthesize(_xor_spec(), max_gates=3,
                                  conflict_budget=300_000)
        assert result.num_gates == 2
        assert result.netlist.to_truth_tables() == _xor_spec()

    def test_majority_is_single_gate_free_garbage(self):
        spec = [TruthTable.from_function(
            lambda a, b, c: (a & b) | (a & c) | (b & c), 3)]
        result = exact_synthesize(spec, max_gates=2)
        assert result.num_gates == 1

    def test_identity_uses_zero_or_one_gate(self):
        spec = [TruthTable.variable(0, 1)]
        # A wire PO is legal: output reads the PI directly -> 1 gate
        # minimum is actually 0... the encoding requires >= 1 gate, so
        # expect exactly 1 with a pass-through function.
        result = exact_synthesize(spec, max_gates=2)
        assert result.num_gates == 1
        assert result.netlist.to_truth_tables() == spec

    def test_budget_exhaustion_raises_timeout(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        synthesizer = ExactSynthesizer(conflict_budget=50, max_gates=6)
        with pytest.raises(ExactSynthesisTimeout) as info:
            synthesizer.synthesize(spec)
        assert info.value.conflicts >= 0

    def test_max_gates_exhausted_raises(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        with pytest.raises(ExactSynthesisTimeout):
            exact_synthesize(spec, max_gates=1, conflict_budget=100_000)

    def test_empty_spec_rejected(self):
        from repro.errors import SynthesisError
        with pytest.raises(SynthesisError):
            exact_synthesize([])


@pytest.mark.slow
class TestDecoderOptimum:
    def test_decoder_2_4_matches_paper(self):
        """Paper Table 1: exact synthesis of decoder_2_4 = 3 gates,
        1 garbage output."""
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        result = exact_synthesize(spec, conflict_budget=600_000, max_gates=4)
        assert result.num_gates == 3
        assert result.num_garbage == 1
        assert result.netlist.to_truth_tables() == spec


class TestExactVersusTwoInputFunctions:
    """Property check: every nontrivial 2-input function is realizable
    with at most 2 gates, and the exact result always verifies."""

    def test_all_two_input_functions(self):
        from repro.logic.truth_table import TruthTable
        for bits in range(16):
            table = TruthTable(2, bits)
            if table.is_constant():
                continue  # constants need no gate (PO reads const port)
            result = exact_synthesize([table], max_gates=2,
                                      conflict_budget=200_000)
            assert result.num_gates <= 2, f"bits={bits:04b}"
            assert result.netlist.to_truth_tables() == [table]
            # XOR/XNOR need 2 gates; everything else is unate -> 1.
            if bits in (0b0110, 0b1001):
                assert result.num_gates == 2
            else:
                assert result.num_gates == 1

    def test_exact_never_beaten_by_rcgp(self):
        """On a spec where exact completes, RCGP cannot do better."""
        from repro.api import synthesize
        from repro.core import RcgpConfig
        spec = _and_spec()
        exact = exact_synthesize(spec, max_gates=2)
        rcgp = synthesize(spec, RcgpConfig(generations=400, seed=1,
                                           shrink="always"))
        assert exact.num_gates <= rcgp.cost.n_r
