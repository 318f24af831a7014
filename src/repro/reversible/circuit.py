"""Reversible circuits: ordered gate lists over ``n`` wires.

A :class:`ReversibleCircuit` composes MCT/MCF gates into a permutation
of ``2**n`` basis states — the semantics of a RevLib ``.real`` file.
Constant wires and garbage markers (also from ``.real``) are carried so
the *embedded combinational function* can be extracted: that extracted
function is what the RQFP synthesis flow takes as its specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..errors import NetlistError
from ..logic.bitops import full_mask, variable_pattern
from ..logic.truth_table import TruthTable
from .gates import McfGate, MctGate

Gate = Union[MctGate, McfGate]


@dataclass
class ReversibleCircuit:
    """A cascade of reversible gates over ``num_wires`` lines."""

    num_wires: int
    gates: List[Gate] = field(default_factory=list)
    name: str = ""
    wire_names: List[str] = field(default_factory=list)
    # RevLib metadata: constant input values per wire (None = real input)
    # and garbage flags per wire (True = output is garbage).
    constants: List[Optional[int]] = field(default_factory=list)
    garbage: List[bool] = field(default_factory=list)

    def __post_init__(self):
        if self.num_wires < 0:
            raise NetlistError("num_wires must be >= 0")
        if not self.wire_names:
            self.wire_names = [f"x{i}" for i in range(self.num_wires)]
        if not self.constants:
            self.constants = [None] * self.num_wires
        if not self.garbage:
            self.garbage = [False] * self.num_wires
        for what, listed in (("wire_names", self.wire_names),
                             ("constants", self.constants),
                             ("garbage", self.garbage)):
            if len(listed) != self.num_wires:
                raise NetlistError(
                    f"{what} lists {len(listed)} wires, the circuit has "
                    f"{self.num_wires}")

    # -- construction -----------------------------------------------------

    def add_gate(self, gate: Gate) -> None:
        for wire in gate.wires:
            if not 0 <= wire < self.num_wires:
                raise NetlistError(
                    f"gate {gate} touches wire {wire} outside 0..{self.num_wires - 1}"
                )
        self.gates.append(gate)

    def add_mct(self, controls, target: int) -> None:
        self.add_gate(MctGate(target, tuple(controls)))

    def add_mcf(self, controls, target_a: int, target_b: int) -> None:
        self.add_gate(McfGate(target_a, target_b, tuple(controls)))

    # -- semantics ----------------------------------------------------------

    def apply(self, state: int) -> int:
        """Propagate one basis state through the cascade."""
        if not 0 <= state < (1 << self.num_wires):
            raise ValueError(f"state {state} outside {self.num_wires} wires")
        for gate in self.gates:
            state = gate.apply(state)
        return state

    def permutation(self) -> List[int]:
        """The full permutation table (length ``2**num_wires``)."""
        return [self.apply(t) for t in range(1 << self.num_wires)]

    def is_reversible(self) -> bool:
        """Sanity check: the gate cascade is always a bijection, so this
        verifies the implementation rather than the circuit."""
        perm = self.permutation()
        return sorted(perm) == list(range(1 << self.num_wires))

    def inverse(self) -> "ReversibleCircuit":
        """The inverse cascade (gates reversed; MCT/MCF are self-inverse)."""
        inv = ReversibleCircuit(self.num_wires, name=f"{self.name}_inv",
                                wire_names=list(self.wire_names))
        inv.gates = [g.inverse() for g in reversed(self.gates)]
        return inv

    # -- embedded function extraction ----------------------------------------

    def real_inputs(self) -> List[int]:
        """Wires that are genuine inputs (not constant lines)."""
        return [w for w in range(self.num_wires) if self.constants[w] is None]

    def real_outputs(self) -> List[int]:
        """Wires whose outputs are not garbage."""
        return [w for w in range(self.num_wires) if not self.garbage[w]]

    def embedded_tables(self) -> List[TruthTable]:
        """Truth tables of the embedded combinational function.

        Inputs are the non-constant wires (LSB-first in wire order);
        outputs the non-garbage wires.  This is the irreversible
        specification a RevLib circuit realizes — and the spec handed to
        the RQFP flow.

        Computed bit-parallel: each wire carries one ``2**inputs``-bit
        word (bit ``t`` = the wire's value under input pattern ``t``).
        An MCT XORs the AND of its control words (complemented for
        negative controls) into its target; an MCF swaps its two targets
        where the controls fire and the targets differ.  :meth:`apply`
        is the per-state reference semantics.
        """
        ins = self.real_inputs()
        outs = self.real_outputs()
        if not outs:
            raise NetlistError("all outputs are garbage; nothing to extract")
        num_inputs = len(ins)
        full = full_mask(num_inputs)
        words = [full if const else 0 for const in self.constants]
        for k, wire in enumerate(ins):
            words[wire] = variable_pattern(k, num_inputs)
        for gate in self.gates:
            fire = full
            for control in gate.controls:
                if control.positive:
                    fire &= words[control.wire]
                else:
                    fire &= ~words[control.wire]
            if isinstance(gate, MctGate):
                words[gate.target] ^= fire
            else:
                a, b = gate.target_a, gate.target_b
                swap = (words[a] ^ words[b]) & fire
                words[a] ^= swap
                words[b] ^= swap
        return [TruthTable(num_inputs, words[wire]) for wire in outs]

    # -- metrics -----------------------------------------------------------------

    def gate_count(self) -> int:
        return len(self.gates)

    def quantum_cost(self) -> int:
        """Classic RevLib quantum-cost estimate per MCT/MCF size."""
        # Standard table: NOT/CNOT 1, Toffoli 5, then roughly 2^(c+1)-3
        # for c >= 2 controls; Fredkin = controlled-swap = MCT cost + 2.
        total = 0
        for gate in self.gates:
            controls = len(gate.controls)
            if isinstance(gate, MctGate):
                if controls <= 1:
                    total += 1
                elif controls == 2:
                    total += 5
                else:
                    total += (1 << (controls + 1)) - 3
            else:
                base = 5 if controls <= 1 else (1 << (controls + 2)) - 3
                total += base
        return total

    def __repr__(self) -> str:
        return (f"ReversibleCircuit(name={self.name!r}, wires={self.num_wires}, "
                f"gates={len(self.gates)})")


def permutation_tables(perm: Sequence[int], num_wires: int) -> List[TruthTable]:
    """Truth tables (one per wire) of an explicit permutation."""
    if len(perm) != 1 << num_wires:
        raise ValueError("permutation length must be 2**num_wires")
    if sorted(perm) != list(range(1 << num_wires)):
        raise ValueError("not a permutation")
    bits = [0] * num_wires
    for t, image in enumerate(perm):
        for w in range(num_wires):
            if (image >> w) & 1:
                bits[w] |= 1 << t
    return [TruthTable(num_wires, b) for b in bits]
