"""Unit tests for the reversible-circuit substrate (MCT/MCF)."""

import random

import pytest

from repro.bench.registry import BENCHMARKS, get_benchmark
from repro.errors import NetlistError
from repro.logic.truth_table import TruthTable
from repro.reversible.circuit import ReversibleCircuit, permutation_tables
from repro.reversible.gates import Control, McfGate, MctGate
from repro.reversible.spec import bennett_embedding, minimum_garbage


class TestMctGate:
    def test_not_gate(self):
        gate = MctGate(target=0)
        assert gate.apply(0b0) == 0b1
        assert gate.apply(0b1) == 0b0

    def test_cnot(self):
        gate = MctGate(target=1, controls=(Control(0),))
        assert gate.apply(0b01) == 0b11
        assert gate.apply(0b00) == 0b00

    def test_toffoli(self):
        gate = MctGate(target=2, controls=(Control(0), Control(1)))
        assert gate.apply(0b011) == 0b111
        assert gate.apply(0b001) == 0b001

    def test_negative_control(self):
        gate = MctGate(target=1, controls=(Control(0, positive=False),))
        assert gate.apply(0b00) == 0b10
        assert gate.apply(0b01) == 0b01

    def test_self_inverse(self):
        gate = MctGate(target=2, controls=(Control(0), Control(1, False)))
        for state in range(8):
            assert gate.apply(gate.apply(state)) == state

    def test_target_as_control_rejected(self):
        with pytest.raises(ValueError):
            MctGate(target=0, controls=(Control(0),))

    def test_duplicate_control_rejected(self):
        with pytest.raises(ValueError):
            MctGate(target=2, controls=(Control(0), Control(0, False)))


class TestMcfGate:
    def test_plain_swap(self):
        gate = McfGate(0, 1)
        assert gate.apply(0b01) == 0b10
        assert gate.apply(0b11) == 0b11

    def test_controlled_swap(self):
        gate = McfGate(0, 1, controls=(Control(2),))
        assert gate.apply(0b101) == 0b110
        assert gate.apply(0b001) == 0b001

    def test_self_inverse(self):
        gate = McfGate(0, 2, controls=(Control(1),))
        for state in range(8):
            assert gate.apply(gate.apply(state)) == state

    def test_same_targets_rejected(self):
        with pytest.raises(ValueError):
            McfGate(1, 1)

    def test_target_as_control_rejected(self):
        with pytest.raises(ValueError):
            McfGate(0, 1, controls=(Control(1),))


class TestReversibleCircuit:
    def test_cascade_is_permutation(self, rng):
        circuit = ReversibleCircuit(4)
        for _ in range(12):
            wires = rng.sample(range(4), 3)
            circuit.add_mct([Control(wires[0]), Control(wires[1], False)],
                            wires[2])
        assert circuit.is_reversible()

    def test_inverse_composes_to_identity(self, rng):
        circuit = ReversibleCircuit(3)
        circuit.add_mct([Control(0)], 1)
        circuit.add_mcf([], 0, 2)
        circuit.add_mct([], 2)
        inverse = circuit.inverse()
        for state in range(8):
            assert inverse.apply(circuit.apply(state)) == state

    def test_gate_off_wires_rejected(self):
        circuit = ReversibleCircuit(2)
        with pytest.raises(NetlistError):
            circuit.add_mct([Control(5)], 0)

    @pytest.mark.parametrize("field, listed", [
        ("constants", [None, 0]), ("constants", [None, None, 0, 1]),
        ("garbage", [False, True]), ("wire_names", ["a", "b"]),
    ])
    def test_metadata_length_must_match_wires(self, field, listed):
        """A list of the wrong length is refused up front, not left to
        fail as an IndexError in embedded_tables() or write_real."""
        with pytest.raises(NetlistError, match=field):
            ReversibleCircuit(3, **{field: listed})

    def test_quantum_cost_table(self):
        circuit = ReversibleCircuit(4)
        circuit.add_mct([], 0)                              # NOT: 1
        circuit.add_mct([Control(0)], 1)                    # CNOT: 1
        circuit.add_mct([Control(0), Control(1)], 2)        # Toffoli: 5
        assert circuit.quantum_cost() == 7

    def test_permutation_tables(self):
        perm = [0, 2, 1, 3]  # swap states 1 and 2 (2-wire swap gate)
        tables = permutation_tables(perm, 2)
        assert tables[0] == TruthTable.from_values([0, 0, 1, 1])
        assert tables[1] == TruthTable.from_values([0, 1, 0, 1])

    def test_permutation_tables_rejects_bad(self):
        with pytest.raises(ValueError):
            permutation_tables([0, 0, 1, 1], 2)
        with pytest.raises(ValueError):
            permutation_tables([0, 1, 2], 2)


class TestSpecExtraction:
    def test_bennett_embedding_realizes_function(self, random_tables):
        tables = random_tables(3, 2)
        circuit = bennett_embedding(tables)
        assert circuit.is_reversible()
        extracted = circuit.embedded_tables()
        assert extracted == tables

    def test_bennett_shapes(self, random_tables):
        tables = random_tables(2, 3)
        circuit = bennett_embedding(tables)
        assert circuit.num_wires == 5
        assert circuit.real_inputs() == [0, 1]
        assert circuit.real_outputs() == [2, 3, 4]

    def test_minimum_garbage_of_constant(self):
        """A constant output maps all 2^n inputs to one image:
        needs n garbage bits."""
        tables = [TruthTable.constant(True, 3)]
        assert minimum_garbage(tables) == 3

    def test_minimum_garbage_of_permutation(self):
        from repro.bench.revlib import graycode
        assert minimum_garbage(graycode(4)) == 0

    def test_minimum_garbage_of_and(self):
        """AND has multiplicity 3 on output 0 -> ceil(log2 3) = 2."""
        tables = [TruthTable.from_function(lambda a, b: a & b, 2)]
        assert minimum_garbage(tables) == 2


def _per_state_tables(circuit):
    """Reference extraction: every input pattern pushed through
    ``apply()`` one basis state at a time."""
    ins = circuit.real_inputs()
    outs = circuit.real_outputs()
    bits = [0] * len(outs)
    for t in range(1 << len(ins)):
        state = 0
        for w in range(circuit.num_wires):
            const = circuit.constants[w]
            if const is None:
                const = (t >> ins.index(w)) & 1
            state |= const << w
        result = circuit.apply(state)
        for o, wire in enumerate(outs):
            bits[o] |= ((result >> wire) & 1) << t
    return [TruthTable(len(ins), b) for b in bits]


def _random_cascade(rng):
    wires = rng.randint(2, 7)
    circuit = ReversibleCircuit(wires)
    for w in rng.sample(range(wires), rng.randint(0, wires - 1)):
        circuit.constants[w] = rng.randint(0, 1)
    for w in rng.sample(range(wires), rng.randint(0, wires - 1)):
        circuit.garbage[w] = True
    for _ in range(rng.randint(0, 40)):
        lines = list(range(wires))
        rng.shuffle(lines)
        mcf = wires >= 3 and rng.random() < 0.3
        targets, rest = (lines[:2], lines[2:]) if mcf else \
            (lines[:1], lines[1:])
        controls = [Control(w, rng.random() < 0.6)
                    for w in rest[:rng.randint(0, len(rest))]]
        if mcf:
            circuit.add_mcf(controls, *targets)
        else:
            circuit.add_mct(controls, targets[0])
    return circuit


class TestBitParallelExtraction:
    """``embedded_tables`` (one word per wire) against the per-state
    semantics of ``apply()``/``permutation()``."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_bennett_embedding_of_every_benchmark(self, name):
        spec = get_benchmark(name).spec()
        circuit = bennett_embedding(spec, name=name)
        tables = circuit.embedded_tables()
        assert tables == spec
        if spec[0].num_vars <= 8:
            assert tables == _per_state_tables(circuit)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cascades_match_per_state_semantics(self, seed):
        circuit = _random_cascade(random.Random(seed))
        assert circuit.embedded_tables() == _per_state_tables(circuit)

    @pytest.mark.parametrize("seed", range(10))
    def test_plain_cascade_equals_its_permutation(self, seed):
        circuit = _random_cascade(random.Random(seed))
        circuit.constants = [None] * circuit.num_wires
        circuit.garbage = [False] * circuit.num_wires
        assert circuit.embedded_tables() == permutation_tables(
            circuit.permutation(), circuit.num_wires)
