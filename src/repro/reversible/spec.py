"""Specification extraction from reversible circuits.

Bridges the reversible world (RevLib ``.real`` files, MCT/MCF cascades)
to the combinational specifications the RQFP flow consumes, and offers
the converse: embedding an irreversible function into a reversible one
(Bennett-style, with ancilla and garbage accounting) for comparisons
against conventional reversible synthesis.
"""

from __future__ import annotations

from typing import List, Sequence

from ..logic.truth_table import TruthTable
from .circuit import ReversibleCircuit
from .gates import Control, MctGate


def circuit_spec(circuit: ReversibleCircuit) -> List[TruthTable]:
    """The embedded combinational function of a reversible circuit."""
    return circuit.embedded_tables()


def minimum_garbage(tables: Sequence[TruthTable]) -> int:
    """Minimum garbage outputs any reversible embedding of the function
    needs: ``ceil(log2(max output-pattern multiplicity))`` (Maslov's
    classic bound).  The paper's ``g_lb`` is the looser
    ``max(0, n_pi − n_po)``."""
    tables = list(tables)
    if not tables:
        return 0
    n = tables[0].num_vars
    counts: dict = {}
    for t in range(1 << n):
        image = 0
        for o, table in enumerate(tables):
            if table.value(t):
                image |= 1 << o
        counts[image] = counts.get(image, 0) + 1
    worst = max(counts.values())
    return (worst - 1).bit_length()


def bennett_embedding(tables: Sequence[TruthTable],
                      name: str = "") -> ReversibleCircuit:
    """Embed an irreversible function reversibly: inputs pass through,
    each output lands on its own zero-initialized ancilla wire.

    Produces a (wasteful but always-correct) MCT cascade: one
    multi-controlled Toffoli per minterm per output.  Useful as a
    conventional-reversible-logic reference point in the examples.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one output")
    n = tables[0].num_vars
    o = len(tables)
    circuit = ReversibleCircuit(
        n + o,
        name=name or "bennett",
        constants=[None] * n + [0] * o,
        garbage=[True] * n + [False] * o,
    )
    for out, table in enumerate(tables):
        target = n + out
        for minterm in table.minterms():
            controls = tuple(
                Control(w, positive=bool((minterm >> w) & 1)) for w in range(n)
            )
            circuit.add_gate(MctGate(target, controls))
    return circuit
