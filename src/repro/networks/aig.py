"""AND-inverter graphs (AIGs) with structural hashing.

This is the package's stand-in for ABC's network substrate.  Nodes are
addressed by *literals*: ``2*node`` is the plain output of ``node`` and
``2*node + 1`` its complement; node 0 is the constant false, so literal 0
is constant 0 and literal 1 is constant 1 — exactly the AIGER
convention, which makes the AIGER reader/writer in :mod:`repro.io`
trivial.

Structural hashing, constant folding and the trivial AND simplifications
(``a AND a``, ``a AND !a``, ``a AND 1`` …) happen in :meth:`Aig.add_and`,
so identical subcircuits are never duplicated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetlistError
from ..logic.bitops import full_mask, variable_pattern
from ..logic.truth_table import TruthTable
from ..sat.cnf import CNF
from ..sat.tseitin import encode_and


def lit(node: int, complement: bool = False) -> int:
    """Build a literal from a node index and complement flag."""
    return (node << 1) | bool(complement)


def lit_node(literal: int) -> int:
    """Node index of a literal."""
    return literal >> 1


def lit_complement(literal: int) -> bool:
    """Complement flag of a literal."""
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    """Complement a literal."""
    return literal ^ 1


CONST0 = 0
CONST1 = 1

#: Inputs simulated word-parallel per chunk by :meth:`Aig.to_truth_tables`
#: (``2**16`` patterns: 8 KiB words).
_CHUNK_INPUTS = 16


class Aig:
    """A combinational AND-inverter graph."""

    def __init__(self, num_inputs: int = 0, name: str = ""):
        self.name = name
        # Parallel arrays per node; node 0 is the constant.
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._is_pi: List[bool] = [False]
        self._strash: Dict[Tuple[int, int], int] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.input_names: List[str] = []
        self.output_names: List[str] = []
        for i in range(num_inputs):
            self.add_input(f"x{i}")

    # -- construction ----------------------------------------------------

    def add_input(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its (positive) literal."""
        node = len(self._fanin0)
        self._fanin0.append(0)
        self._fanin1.append(0)
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

    def add_and(self, a: int, b: int) -> int:
        """AND of two literals with folding and structural hashing."""
        self._check_lit(a)
        self._check_lit(b)
        if a == CONST0 or b == CONST0 or a == lit_not(b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1 or a == b:
            return a
        key = (a, b) if a < b else (b, a)
        node = self._strash.get(key)
        if node is not None:
            return lit(node)
        node = len(self._fanin0)
        self._fanin0.append(key[0])
        self._fanin1.append(key[1])
        self._is_pi.append(False)
        self._strash[key] = node
        return lit(node)

    # -- derived operators -------------------------------------------------

    def add_or(self, a: int, b: int) -> int:
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_xor(self, a: int, b: int) -> int:
        return self.add_or(self.add_and(a, lit_not(b)),
                           self.add_and(lit_not(a), b))

    def add_mux(self, sel: int, if0: int, if1: int) -> int:
        return self.add_or(self.add_and(sel, if1),
                           self.add_and(lit_not(sel), if0))

    def add_maj(self, a: int, b: int, c: int) -> int:
        return self.add_or(self.add_and(a, b),
                           self.add_or(self.add_and(a, c), self.add_and(b, c)))

    def add_and_many(self, lits: Sequence[int]) -> int:
        """Balanced AND tree over a literal list."""
        work = list(lits)
        if not work:
            return CONST1
        while len(work) > 1:
            nxt = [self.add_and(work[i], work[i + 1])
                   for i in range(0, len(work) - 1, 2)]
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def add_or_many(self, lits: Sequence[int]) -> int:
        return lit_not(self.add_and_many([lit_not(l) for l in lits]))

    # -- structure queries ---------------------------------------------------

    def _check_lit(self, literal: int) -> None:
        if literal < 0 or lit_node(literal) >= len(self._fanin0):
            raise NetlistError(f"literal {literal} out of range")

    @property
    def num_nodes(self) -> int:
        """Total allocated nodes including constant, PIs and dead ANDs."""
        return len(self._fanin0)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def is_input(self, node: int) -> bool:
        return self._is_pi[node]

    def is_and(self, node: int) -> bool:
        return node != 0 and not self._is_pi[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        if not self.is_and(node):
            raise NetlistError(f"node {node} is not an AND node")
        return self._fanin0[node], self._fanin1[node]

    def nodes(self) -> Iterable[int]:
        """All node indices in topological order (constant, PIs, ANDs)."""
        return range(len(self._fanin0))

    def and_nodes(self) -> Iterable[int]:
        return (n for n in self.nodes() if self.is_and(n))

    def num_ands(self) -> int:
        return sum(1 for _ in self.and_nodes())

    def reachable_ands(self) -> List[int]:
        """AND nodes in the transitive fan-in of the outputs."""
        seen = set()
        stack = [lit_node(o) for o in self.outputs]
        result = []
        while stack:
            node = stack.pop()
            if node in seen or not self.is_and(node):
                continue
            seen.add(node)
            result.append(node)
            stack.append(lit_node(self._fanin0[node]))
            stack.append(lit_node(self._fanin1[node]))
        return sorted(result)

    def size(self) -> int:
        """Number of AND gates reachable from the outputs."""
        return len(self.reachable_ands())

    def levels(self) -> List[int]:
        """Per-node logic level (PIs/constant at level 0)."""
        levels = [0] * len(self._fanin0)
        for node in self.nodes():
            if self.is_and(node):
                levels[node] = 1 + max(levels[lit_node(self._fanin0[node])],
                                       levels[lit_node(self._fanin1[node])])
        return levels

    def depth(self) -> int:
        levels = self.levels()
        return max((levels[lit_node(o)] for o in self.outputs), default=0)

    # -- semantics --------------------------------------------------------

    def simulate(self, input_words: Sequence[int], mask: int = -1) -> List[int]:
        """Bit-parallel simulation.

        ``input_words[i]`` carries one simulation bit per pattern for
        input ``i``; returns one word per output.  ``mask`` bounds the
        word width (−1 means "width of the exhaustive pattern set" is the
        caller's business and complements are taken lazily).
        """
        if len(input_words) != self.num_inputs:
            raise NetlistError(
                f"expected {self.num_inputs} input words, got {len(input_words)}"
            )
        if mask == -1:
            raise NetlistError("simulate requires an explicit pattern mask")
        values = [0] * len(self._fanin0)
        for word, node in zip(input_words, self.inputs):
            values[node] = word & mask

        def lit_value(literal: int) -> int:
            v = values[lit_node(literal)]
            return (v ^ mask) if lit_complement(literal) else v

        for node in self.nodes():
            if self.is_and(node):
                values[node] = lit_value(self._fanin0[node]) & lit_value(self._fanin1[node])
        return [lit_value(o) for o in self.outputs]

    def to_truth_tables(self) -> List[TruthTable]:
        """Exhaustive simulation into one truth table per output.

        Runs in chunks of ``2**16`` patterns, a single one up to 16
        inputs: the low 16 inputs take their projection words and each
        higher input a constant word per chunk, so no node's word
        outgrows 8 KiB however wide the network (:meth:`simulate` keeps
        one word alive per node).  Each output's chunks are joined as
        bytes, in one pass.
        """
        n = self.num_inputs
        low = min(n, _CHUNK_INPUTS)
        mask = full_mask(low)
        words = [variable_pattern(i, low) for i in range(low)]
        if n == low:
            return [TruthTable(n, w) for w in self.simulate(words, mask)]
        chunks: List[List[int]] = [[] for _ in self.outputs]
        for chunk in range(1 << (n - low)):
            got = self.simulate(
                words + [mask if (chunk >> i) & 1 else 0
                         for i in range(n - low)], mask)
            for parts, word in zip(chunks, got):
                parts.append(word)
        size = (1 << low) // 8
        return [TruthTable(n, int.from_bytes(
                    b"".join(w.to_bytes(size, "little") for w in parts),
                    "little"))
                for parts in chunks]

    def to_cnf(self, cnf: CNF, input_lits: Sequence[int]) -> List[int]:
        """Tseitin-encode onto existing input literals; returns output lits."""
        if len(input_lits) != self.num_inputs:
            raise NetlistError("input literal count mismatch")
        const = cnf.new_var()
        cnf.add_clause([const])  # constant true
        sat_lit: List[int] = [0] * len(self._fanin0)
        sat_lit[0] = -const
        for node, external in zip(self.inputs, input_lits):
            sat_lit[node] = external

        def lookup(literal: int) -> int:
            base = sat_lit[lit_node(literal)]
            return -base if lit_complement(literal) else base

        for node in self.reachable_ands():
            sat_lit[node] = encode_and(cnf, lookup(self._fanin0[node]),
                                       lookup(self._fanin1[node]))
        return [lookup(o) for o in self.outputs]

    def encoder(self):
        """CEC-compatible encoder callable for :mod:`repro.sat.equivalence`."""
        return lambda cnf, inputs: self.to_cnf(cnf, inputs)

    # -- cleanup ------------------------------------------------------------

    def cleanup(self) -> "Aig":
        """Copy keeping only logic reachable from the outputs."""
        fresh = Aig(name=self.name)
        mapping = {0: CONST0}
        for node, name in zip(self.inputs, self.input_names):
            mapping[node] = fresh.add_input(name)

        def remap(literal: int) -> int:
            base = mapping[lit_node(literal)]
            return lit_not(base) if lit_complement(literal) else base

        order = self.reachable_ands()
        for node in order:
            mapping[node] = fresh.add_and(remap(self._fanin0[node]),
                                          remap(self._fanin1[node]))
        for literal, name in zip(self.outputs, self.output_names):
            fresh.add_output(remap(literal), name)
        return fresh

    def __repr__(self) -> str:
        return (f"Aig(name={self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, ands={self.size()}, "
                f"depth={self.depth()})")
