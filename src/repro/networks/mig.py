"""Majority-inverter graphs (MIGs).

MIGs are the natural intermediate representation for AQFP/RQFP
technologies because the RQFP gate's outputs *are* 3-input majorities.
This module stands in for mockturtle's MIG network: literal-addressed
nodes (same encoding as :mod:`repro.networks.aig`), structural hashing
with canonical child ordering, the standard majority simplifications,
bit-parallel simulation, and a Tseitin encoder.

Every MIG node is ``MAJ(a, b, c)`` over three child literals.  ANDs and
ORs are majorities with a constant child (``AND(a,b) = M(a,b,0)``,
``OR(a,b) = M(a,b,1)``) — precisely the constant-specialization trick the
paper uses to map optimized networks onto RQFP gates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetlistError
from ..logic.bitops import majority3
from ..logic.truth_table import TruthTable, tabulate_simulation
from ..sat.cnf import CNF
from ..sat.tseitin import encode_maj3
from .aig import CONST0, CONST1, lit, lit_complement, lit_node, lit_not


class Mig:
    """A combinational majority-inverter graph."""

    def __init__(self, num_inputs: int = 0, name: str = ""):
        self.name = name
        self._children: List[Tuple[int, int, int]] = [(0, 0, 0)]  # node 0 = const0
        self._is_pi: List[bool] = [False]
        self._strash: Dict[Tuple[int, int, int], int] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.input_names: List[str] = []
        self.output_names: List[str] = []
        for i in range(num_inputs):
            self.add_input(f"x{i}")

    # -- construction -----------------------------------------------------

    def add_input(self, name: Optional[str] = None) -> int:
        node = len(self._children)
        self._children.append((0, 0, 0))
        self._is_pi.append(True)
        self.inputs.append(node)
        self.input_names.append(name if name is not None else f"x{len(self.inputs) - 1}")
        return lit(node)

    def add_output(self, literal: int, name: Optional[str] = None) -> None:
        self._check_lit(literal)
        self.outputs.append(literal)
        self.output_names.append(
            name if name is not None else f"y{len(self.outputs) - 1}"
        )

    def add_maj(self, a: int, b: int, c: int) -> int:
        """MAJ of three literals with simplification and hashing.

        Applies the Ω.M axioms eagerly:
        ``M(a,a,b) = a``, ``M(a,!a,b) = b``, plus self-duality
        ``M(!a,!b,!c) = !M(a,b,c)`` used to canonicalize so that the
        majority of children are uncomplemented.
        """
        for literal in (a, b, c):
            self._check_lit(literal)
        # Majority axioms.
        if a == b or a == c:
            return a
        if b == c:
            return b
        if a == lit_not(b):
            return c
        if a == lit_not(c):
            return b
        if b == lit_not(c):
            return a
        children = sorted((a, b, c))
        # Self-duality canonicalization: keep at most one complemented child.
        complemented = sum(lit_complement(x) for x in children)
        invert_output = False
        if complemented >= 2:
            children = sorted(lit_not(x) for x in children)
            invert_output = True
        key = tuple(children)
        node = self._strash.get(key)
        if node is None:
            node = len(self._children)
            self._children.append(key)
            self._is_pi.append(False)
            self._strash[key] = node
        out = lit(node)
        return lit_not(out) if invert_output else out

    def add_and(self, a: int, b: int) -> int:
        return self.add_maj(a, b, CONST0)

    def add_or(self, a: int, b: int) -> int:
        return self.add_maj(a, b, CONST1)

    def add_xor(self, a: int, b: int) -> int:
        return self.add_or(self.add_and(a, lit_not(b)), self.add_and(lit_not(a), b))

    def add_mux(self, sel: int, if0: int, if1: int) -> int:
        return self.add_or(self.add_and(sel, if1), self.add_and(lit_not(sel), if0))

    # -- structure -----------------------------------------------------------

    def _check_lit(self, literal: int) -> None:
        if literal < 0 or lit_node(literal) >= len(self._children):
            raise NetlistError(f"literal {literal} out of range")

    @property
    def num_nodes(self) -> int:
        """Total allocated nodes including constant, PIs and dead gates."""
        return len(self._children)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def is_input(self, node: int) -> bool:
        return self._is_pi[node]

    def is_maj(self, node: int) -> bool:
        return node != 0 and not self._is_pi[node]

    def find_maj(self, a: int, b: int, c: int) -> Optional[int]:
        """Existing node literal for ``MAJ(a,b,c)`` if structurally present
        (after canonicalization), else None.  Never creates a node."""
        children = sorted((a, b, c))
        invert = sum(lit_complement(x) for x in children) >= 2
        if invert:
            children = sorted(lit_not(x) for x in children)
        node = self._strash.get(tuple(children))
        if node is None:
            return None
        out = lit(node)
        return lit_not(out) if invert else out

    def children(self, node: int) -> Tuple[int, int, int]:
        if not self.is_maj(node):
            raise NetlistError(f"node {node} is not a majority node")
        return self._children[node]

    def nodes(self) -> Iterable[int]:
        return range(len(self._children))

    def reachable_majs(self) -> List[int]:
        seen = set()
        stack = [lit_node(o) for o in self.outputs]
        while stack:
            node = stack.pop()
            if node in seen or not self.is_maj(node):
                continue
            seen.add(node)
            stack.extend(lit_node(c) for c in self._children[node])
        return sorted(seen)

    def size(self) -> int:
        """Number of majority gates reachable from the outputs."""
        return len(self.reachable_majs())

    def levels(self) -> List[int]:
        levels = [0] * len(self._children)
        for node in self.nodes():
            if self.is_maj(node):
                levels[node] = 1 + max(levels[lit_node(c)]
                                       for c in self._children[node])
        return levels

    def depth(self) -> int:
        levels = self.levels()
        return max((levels[lit_node(o)] for o in self.outputs), default=0)

    def fanout_counts(self) -> Dict[int, int]:
        """Consumers per node (gate children + primary outputs)."""
        counts: Dict[int, int] = {}
        for node in self.reachable_majs():
            for child in self._children[node]:
                cn = lit_node(child)
                if cn != 0:
                    counts[cn] = counts.get(cn, 0) + 1
        for out in self.outputs:
            cn = lit_node(out)
            if cn != 0:
                counts[cn] = counts.get(cn, 0) + 1
        return counts

    # -- semantics -------------------------------------------------------------

    def simulate(self, input_words: Sequence[int], mask: int) -> List[int]:
        """Bit-parallel simulation; one word per output."""
        if len(input_words) != self.num_inputs:
            raise NetlistError(
                f"expected {self.num_inputs} input words, got {len(input_words)}"
            )
        values = [0] * len(self._children)
        for word, node in zip(input_words, self.inputs):
            values[node] = word & mask

        def lit_value(literal: int) -> int:
            v = values[lit_node(literal)]
            return (v ^ mask) if lit_complement(literal) else v

        for node in self.nodes():
            if self.is_maj(node):
                a, b, c = self._children[node]
                values[node] = majority3(lit_value(a), lit_value(b), lit_value(c)) & mask
        return [lit_value(o) for o in self.outputs]

    def to_truth_tables(self) -> List[TruthTable]:
        """Exhaustive simulation into one truth table per output, in
        :func:`~repro.logic.truth_table.tabulate_simulation`'s chunks."""
        return tabulate_simulation(self.simulate, self.num_inputs)

    def to_cnf(self, cnf: CNF, input_lits: Sequence[int]) -> List[int]:
        if len(input_lits) != self.num_inputs:
            raise NetlistError("input literal count mismatch")
        const = cnf.new_var()
        cnf.add_clause([const])
        sat_lit: List[int] = [0] * len(self._children)
        sat_lit[0] = -const
        for node, external in zip(self.inputs, input_lits):
            sat_lit[node] = external

        def lookup(literal: int) -> int:
            base = sat_lit[lit_node(literal)]
            return -base if lit_complement(literal) else base

        for node in self.reachable_majs():
            a, b, c = self._children[node]
            sat_lit[node] = encode_maj3(cnf, lookup(a), lookup(b), lookup(c))
        return [lookup(o) for o in self.outputs]

    def encoder(self):
        return lambda cnf, inputs: self.to_cnf(cnf, inputs)

    # -- cleanup -------------------------------------------------------------

    def cleanup(self) -> "Mig":
        fresh = Mig(name=self.name)
        mapping = {0: CONST0}
        for node, name in zip(self.inputs, self.input_names):
            mapping[node] = fresh.add_input(name)

        def remap(literal: int) -> int:
            base = mapping[lit_node(literal)]
            return lit_not(base) if lit_complement(literal) else base

        for node in self.reachable_majs():
            a, b, c = self._children[node]
            mapping[node] = fresh.add_maj(remap(a), remap(b), remap(c))
        for literal, name in zip(self.outputs, self.output_names):
            fresh.add_output(remap(literal), name)
        return fresh

    def __repr__(self) -> str:
        return (f"Mig(name={self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, majs={self.size()}, "
                f"depth={self.depth()})")
