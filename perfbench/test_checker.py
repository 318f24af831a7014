"""Self-test of the independent output checker.

Run with ``python3 -m pytest perfbench/test_checker.py``.  A real result
synthesized at this commit must pass; each single corruption must be
flagged for the reason it was made.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checker import check_circuit, check_result, circuit_from  # noqa: E402
from checker import input_word, simulate  # noqa: E402


@pytest.fixture(scope="module")
def real():
    from repro import RcgpConfig
    from repro.api import synthesize
    from repro.bench.registry import get_benchmark

    spec = get_benchmark("intdiv5").spec()
    result = synthesize(spec, RcgpConfig(generations=200, seed=3))
    tables = [(t.num_vars, t.bits) for t in spec]
    return result, tables, circuit_from(result.netlist, result.plan,
                                        result.cost)


def test_real_result_passes(real):
    result, tables, _ = real
    assert check_result(result, tables) == []


def test_input_words_match_the_documented_layout():
    # Bit t of input i's word is bit i of the pattern index t.
    for n in range(1, 7):
        for i in range(n):
            word = input_word(i, n)
            assert all((word >> t) & 1 == (t >> i) & 1 for t in range(1 << n))


def test_gate_semantics_match_the_paper_configurations():
    # R(1, x, 1) with SPLITTER_CONFIG 001-001-001 copies x; the normal
    # configuration 100-010-001 is M(!a,b,c), M(a,!b,c), M(a,b,!c).
    x = input_word(0, 3)
    a, b, c = input_word(0, 3), input_word(1, 3), input_word(2, 3)
    mask = 0xFF
    assert simulate(3, [(0, 1, 0, 0b001_001_001)], [4, 5, 6]) == [x, x, x]
    maj = lambda p, q, r: (p & q) | (p & r) | (q & r)  # noqa: E731
    assert simulate(3, [(1, 2, 3, 0b100_010_001)], [4, 5, 6]) == [
        maj(a ^ mask, b, c), maj(a, b ^ mask, c), maj(a, b, c ^ mask)]


def _po_source(circuit):
    """A gate output port driving PO 0, with its gate and majority."""
    base = circuit.num_inputs + 1
    for o, port in enumerate(circuit.outputs):
        if port >= base:
            return o, (port - base) // 3, (port - base) % 3
    raise AssertionError("no gate-driven primary output")


def test_flipped_inverter_bit_is_flagged(real):
    _, tables, circuit = real
    _, gate, majority = _po_source(circuit)
    in0, in1, in2, config = circuit.gates[gate]
    base = circuit.num_inputs + 1
    # Flip the inverter of the port whose two partner inputs disagree on
    # some pattern, so the driven output must change.
    words = simulate(circuit.num_inputs, circuit.gates,
                     list(range(base + 3 * len(circuit.gates))))
    ins = [words[p] for p in (in0, in1, in2)]
    port = next(p for p in range(3)
                if ins[(p + 1) % 3] != ins[(p + 2) % 3])
    flipped = config ^ (1 << (8 - (3 * majority + port)))
    gates = list(circuit.gates)
    gates[gate] = (in0, in1, in2, flipped)
    issues = check_circuit(circuit._replace(gates=gates), tables)
    assert any("differ from the specification" in i for i in issues)


def test_second_consumer_is_flagged(real):
    _, tables, circuit = real
    base = circuit.num_inputs + 1
    # Point the last gate's first input at a port that already has a
    # consumer and lies earlier in the netlist.
    last = len(circuit.gates) - 1
    used = {p for gate in circuit.gates[:last] for p in gate[:3]
            if p and p < base + 3 * last}
    in0, in1, in2, config = circuit.gates[last]
    taken = next(p for p in sorted(used) if p != in0)
    gates = list(circuit.gates)
    gates[last] = (taken, in1, in2, config)
    issues = check_circuit(circuit._replace(gates=gates), tables)
    assert any("fan-out above 1" in i for i in issues)


def test_gate_levelled_at_its_input_level_is_flagged(real):
    _, tables, circuit = real
    base = circuit.num_inputs + 1
    gate, fanin = next((g, (p - base) // 3)
                       for g, gate in enumerate(circuit.gates)
                       for p in gate[:3] if p >= base)
    levels = list(circuit.levels)
    levels[gate] = levels[fanin]
    issues = check_circuit(circuit._replace(levels=levels), tables)
    assert any("not above its fan-in" in i for i in issues)


def test_buffer_count_off_by_one_is_flagged(real):
    result, tables, circuit = real
    cost = dataclasses.replace(result.cost, n_b=result.cost.n_b + 1)
    issues = check_circuit(
        circuit_from(result.netlist, result.plan, cost), tables)
    assert any("n_b reported" in i for i in issues)
    # ... and a JJ total that follows the wrong n_b is still caught.
    assert any("JJs reported" in i for i in issues)
