"""Reduced ordered binary decision diagrams (ROBDDs).

The CGP literature the paper builds on (§2.2) used BDD-based fitness
functions to speed up evolution before SAT-based equivalence checking
took over; this module supplies that alternative: a small ROBDD manager
with a unique table and memoized ``ite``, plus adapters so any
simulatable network (AIG, MIG, RQFP netlist) can be compiled to BDDs
and compared canonically.  Under one manager, functional equivalence is
pointer equality — the property the BDD fitness exploits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .truth_table import TruthTable


class BddManager:
    """An ROBDD manager over a fixed variable order ``x0 < x1 < ...``.

    Node 0 is constant FALSE and node 1 constant TRUE; every other node
    is ``(var, lo, hi)`` with ``lo != hi`` and children below ``var``
    (reduced + ordered by construction via the unique table).
    """

    FALSE = 0
    TRUE = 1

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ReproError("num_vars must be >= 0")
        self.num_vars = num_vars
        # Parallel arrays; slots 0/1 are the terminals.
        self._var: List[int] = [num_vars, num_vars]
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}

    # -- construction -----------------------------------------------------

    def _node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """The BDD of the projection ``x_index``."""
        if not 0 <= index < self.num_vars:
            raise ReproError(f"variable {index} out of range")
        return self._node(index, self.FALSE, self.TRUE)

    def constant(self, value: bool) -> int:
        return self.TRUE if value else self.FALSE

    # -- core algorithm -----------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the universal ROBDD combinator."""
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self._var[f], self._var[g], self._var[h])

        def cofactor(node: int, positive: bool) -> int:
            if self._var[node] != top:
                return node
            return self._hi[node] if positive else self._lo[node]

        hi = self.ite(cofactor(f, True), cofactor(g, True), cofactor(h, True))
        lo = self.ite(cofactor(f, False), cofactor(g, False),
                      cofactor(h, False))
        result = self._node(top, lo, hi)
        self._ite_cache[key] = result
        return result

    # -- boolean operators ---------------------------------------------------

    def apply_not(self, f: int) -> int:
        return self.ite(f, self.FALSE, self.TRUE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, self.FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, self.TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_maj(self, a: int, b: int, c: int) -> int:
        return self.ite(a, self.apply_or(b, c), self.apply_and(b, c))

    # -- queries ----------------------------------------------------------

    def evaluate(self, node: int, assignment: Sequence[int]) -> int:
        while node > 1:
            node = self._hi[node] if assignment[self._var[node]] \
                else self._lo[node]
        return node

    def size(self, node: int) -> int:
        """Number of internal nodes in the cone of ``node``."""
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return len(seen)

    def num_nodes(self) -> int:
        return len(self._var)

    # -- conversions -------------------------------------------------------

    def from_truth_table(self, table: TruthTable) -> int:
        if table.num_vars != self.num_vars:
            raise ReproError("truth table arity mismatch")

        def build(bits: int, var: int) -> int:
            full = (1 << (1 << self.num_vars)) - 1
            if bits == 0:
                return self.FALSE
            if bits == full:
                return self.TRUE
            from .bitops import variable_pattern
            v = var
            while v < self.num_vars:
                pat = variable_pattern(v, self.num_vars)
                shift = 1 << v
                lo_bits = bits & ~pat
                lo_bits = lo_bits | (lo_bits << shift)
                hi_bits = (bits & pat) >> shift
                hi_bits = hi_bits | (hi_bits << shift)
                if lo_bits != hi_bits:
                    return self._node(v, build(lo_bits, v + 1),
                                      build(hi_bits, v + 1))
                v += 1
            return self.TRUE if bits & 1 else self.FALSE

        return build(table.bits, 0)

    def to_truth_table(self, node: int) -> TruthTable:
        bits = 0
        for t in range(1 << self.num_vars):
            assignment = [(t >> i) & 1 for i in range(self.num_vars)]
            if self.evaluate(node, assignment):
                bits |= 1 << t
        return TruthTable(self.num_vars, bits)


def build_rqfp_bdds(netlist, manager: Optional[BddManager] = None) -> List[int]:
    """Compile an RQFP netlist's outputs into BDDs (one per PO)."""
    from ..rqfp.netlist import CONST_PORT
    mgr = manager or BddManager(netlist.num_inputs)
    values: List[int] = [mgr.FALSE] * netlist.num_ports()
    values[CONST_PORT] = mgr.TRUE
    for i in range(netlist.num_inputs):
        values[1 + i] = mgr.var(i)
    base = netlist.num_inputs + 1
    index = base
    for gate in netlist.gates:
        operands = (values[gate.in0], values[gate.in1], values[gate.in2])
        for m in range(3):
            ports = []
            for p in range(3):
                node = operands[p]
                if (gate.config >> (8 - (3 * m + p))) & 1:
                    node = mgr.apply_not(node)
                ports.append(node)
            values[index] = mgr.apply_maj(*ports)
            index += 1
    return [values[p] for p in netlist.outputs]


def bdd_equivalent(netlist, spec: Sequence[TruthTable]) -> bool:
    """BDD-based equivalence check (canonical: pointer equality)."""
    spec = list(spec)
    manager = BddManager(spec[0].num_vars)
    got = build_rqfp_bdds(netlist, manager)
    want = [manager.from_truth_table(t) for t in spec]
    return got == want
