"""Unit tests for windowed RCGP optimization."""

import random

import pytest

from repro.core.config import RcgpConfig
from repro.core.synthesis import initialize_netlist
from repro.core.windowing import (
    analyze_window,
    extract_window,
    optimize_window,
    splice_window,
    windowed_optimize,
)
from repro.errors import EquivalenceViolation, NetlistError
from repro.logic.truth_table import tabulate_word
from repro.rqfp.gate import NORMAL_CONFIG, SPLITTER_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


def _intdiv5_netlist():
    from repro.bench.reciprocal import intdiv
    return initialize_netlist(intdiv(5), "intdiv5")


class TestAnalyzeWindow:
    def test_boundary_ports(self):
        netlist = RqfpNetlist(2)
        g0 = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        g2 = netlist.add_gate(netlist.gate_output_port(g1, 0),
                              netlist.gate_output_port(g0, 1),
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g2, 0))
        window = analyze_window(netlist, 1, 2)  # just g1
        assert window.input_ports == [netlist.gate_output_port(g0, 0)]
        assert window.output_ports == [netlist.gate_output_port(g1, 0)]

    def test_po_counts_as_window_output(self):
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g0, 1))
        window = analyze_window(netlist, 0, 1)
        assert window.output_ports == [netlist.gate_output_port(g0, 1)]

    def test_invalid_range_rejected(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        with pytest.raises(NetlistError):
            analyze_window(netlist, 0, 2)
        with pytest.raises(NetlistError):
            analyze_window(netlist, 1, 1)


class TestExtractSplice:
    def test_identity_splice_preserves_function(self, rng):
        """Extracting a window and splicing it back unchanged is a no-op
        functionally, for arbitrary windows of a real netlist."""
        netlist = _intdiv5_netlist()
        tables = netlist.to_truth_tables()
        for _ in range(8):
            start = rng.randrange(netlist.num_gates - 1)
            stop = min(start + rng.randint(1, 10), netlist.num_gates)
            window = analyze_window(netlist, start, stop)
            sub = extract_window(netlist, window)
            assert sub.num_gates == window.num_gates
            spliced = splice_window(netlist, window, sub)
            assert spliced.num_gates == netlist.num_gates
            assert spliced.to_truth_tables() == tables

    def test_extracted_window_realizes_local_function(self):
        netlist = _intdiv5_netlist()
        window = analyze_window(netlist, 2, 8)
        sub = extract_window(netlist, window)
        sub.validate(require_single_fanout=False)
        assert sub.num_inputs == len(window.input_ports)
        assert sub.num_outputs == len(window.output_ports)

    def test_splice_arity_checks(self):
        netlist = _intdiv5_netlist()
        window = analyze_window(netlist, 0, 3)
        wrong = RqfpNetlist(99)
        with pytest.raises(NetlistError):
            splice_window(netlist, window, wrong)

    def test_splice_with_smaller_window_shifts_suffix(self):
        """Replacing a 2-gate window by 1 gate must re-index the suffix."""
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        g2 = netlist.add_gate(netlist.gate_output_port(g1, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g2, 0))
        window = analyze_window(netlist, 0, 2)
        # The two-gate window computes some f(x); build a replacement with
        # one gate only if it is functionally identical — here we simply
        # reuse the extract of a *one*-gate window... instead construct a
        # single-gate replacement realizing the same local function by
        # brute force over configs.
        sub = extract_window(netlist, window)
        spec = sub.to_truth_tables()
        replacement = None
        for config in range(512):
            cand = RqfpNetlist(1)
            cand.add_gate(1, CONST_PORT, CONST_PORT, config)
            for m in range(3):
                cand2 = cand.copy()
                cand2.add_output(cand2.gate_output_port(0, m))
                if cand2.to_truth_tables() == spec:
                    replacement = cand2
                    break
            if replacement:
                break
        assert replacement is not None, "chain of unary gates must collapse"
        spliced = splice_window(netlist, window, replacement)
        assert spliced.num_gates == 2
        assert spliced.to_truth_tables() == netlist.to_truth_tables()


class TestOptimizeWindow:
    def test_returns_none_for_dead_window(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)  # dead
        g1 = netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT,
                              NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0))
        assert optimize_window(netlist, 0, 1) is None

    def test_respects_max_inputs(self):
        netlist = _intdiv5_netlist()
        window = analyze_window(netlist, 0, netlist.num_gates)
        wide = len(window.input_ports)
        assert optimize_window(netlist, 0, netlist.num_gates,
                               max_inputs=wide - 1) is None


def _redundant_ands():
    """Two ANDs, each behind a wire gate that a window can drop."""
    netlist = RqfpNetlist(4, "redundant")
    for a, b in ((1, 2), (3, 4)):
        wire = netlist.add_gate(CONST_PORT, a, CONST_PORT, SPLITTER_CONFIG)
        gate = netlist.add_gate(netlist.gate_output_port(wire, 0), b,
                                CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(gate, 2))
    return netlist


class TestWindowGate:
    """With ``verify_result`` each improved window passes the result
    gate, which ``optimize_window`` looks up at call time."""

    CONFIG = RcgpConfig(generations=200, mutation_rate=1.0,
                        max_mutated_genes=4, shrink="always", seed=1,
                        verify_result=True)

    @pytest.fixture
    def gate_calls(self, monkeypatch):
        import repro.core.verify as verify_mod
        calls = []
        real = verify_mod.verify_evolution_result

        def counting(netlist, spec, config=None, plan=None):
            calls.append((netlist, spec))
            return real(netlist, spec, config, plan)

        monkeypatch.setattr(verify_mod, "verify_evolution_result", counting)
        return calls

    def test_gate_runs_once_per_improved_window(self, gate_calls):
        result = windowed_optimize(_redundant_ands(), window_gates=2,
                                   config=self.CONFIG, seed=0)
        assert result.windows_improved == 2
        assert len(gate_calls) == 2
        for improved, spec in gate_calls:
            # The gate sees the improved window, not the extracted one.
            assert improved.num_gates == 1
            assert improved.to_truth_tables() == spec

    def test_gate_skips_a_window_that_does_not_improve(self, gate_calls):
        netlist = RqfpNetlist(2, "and")
        gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(gate, 2))
        assert optimize_window(netlist, 0, 1, self.CONFIG) is None
        assert gate_calls == []

    def test_failing_gate_raises_its_typed_error(self, monkeypatch):
        import repro.core.verify as verify_mod
        error = EquivalenceViolation("window gate failed", counterexample=3)

        def failing(netlist, spec, config=None, plan=None):
            raise error

        monkeypatch.setattr(verify_mod, "verify_evolution_result", failing)
        with pytest.raises(EquivalenceViolation) as excinfo:
            optimize_window(_redundant_ands(), 0, 2, self.CONFIG)
        assert excinfo.value is error


class TestWindowedOptimize:
    def test_function_preserved_and_not_worse(self):
        netlist = _intdiv5_netlist()
        tables = netlist.to_truth_tables()
        config = RcgpConfig(generations=150, mutation_rate=1.0,
                            max_mutated_genes=4, seed=3, shrink="always")
        result = windowed_optimize(netlist, window_gates=10, rounds=1,
                                   config=config, seed=1)
        assert result.netlist.to_truth_tables() == tables
        assert result.gates_after <= result.gates_before
        assert result.garbage_after <= result.garbage_before
        assert result.windows_tried >= 1

    @pytest.mark.slow
    def test_windowing_actually_improves_intdiv5(self):
        netlist = _intdiv5_netlist()
        config = RcgpConfig(generations=800, mutation_rate=1.0,
                            max_mutated_genes=4, seed=5, shrink="always")
        result = windowed_optimize(netlist, window_gates=12, rounds=2,
                                   config=config, seed=2)
        assert (result.gates_after, result.garbage_after) < \
            (result.gates_before, result.garbage_before)
