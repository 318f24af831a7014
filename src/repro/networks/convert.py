"""Conversions between specification / network representations.

The paper's flow (Fig. 2) goes RTL → AIG → MIG → RQFP netlist; here we
provide the representation hops: truth tables → AIG (two-level ISOP
covers, structurally hashed so shared cubes merge), AIG ↔ MIG, and
network → truth tables (exhaustive bit-parallel simulation, exact for the
benchmark sizes in the paper).
"""

from __future__ import annotations

from typing import Sequence

from ..logic.isop import best_phase_isop
from ..logic.truth_table import TruthTable
from .aig import Aig, lit_complement, lit_node, lit_not
from .mig import Mig


def tables_to_aig(tables: Sequence[TruthTable], name: str = "",
                  input_names: Sequence[str] = (),
                  output_names: Sequence[str] = ()) -> Aig:
    """Build an AIG realizing a multi-output truth-table specification.

    Each output gets a best-phase irredundant SOP cover; cubes become
    balanced AND trees and the cover a balanced OR tree.  Structural
    hashing shares identical cubes/subtrees across outputs.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one output table")
    num_vars = tables[0].num_vars
    if any(t.num_vars != num_vars for t in tables):
        raise ValueError("all outputs must share the same inputs")

    aig = Aig(name=name)
    in_lits = [
        aig.add_input(input_names[i] if i < len(input_names) else None)
        for i in range(num_vars)
    ]
    for idx, table in enumerate(tables):
        cubes, complemented = best_phase_isop(table)
        cube_lits = []
        for cube in cubes:
            lits = [lit_not(in_lits[var]) if negated else in_lits[var]
                    for var, negated in cube.literals()]
            cube_lits.append(aig.add_and_many(lits))
        out = aig.add_or_many(cube_lits)
        if complemented:
            out = lit_not(out)
        aig.add_output(out, output_names[idx] if idx < len(output_names) else None)
    return aig


def aig_to_mig(aig: Aig) -> Mig:
    """Convert an AIG to a MIG (``AND(a,b) = M(a,b,0)``)."""
    mig = Mig(name=aig.name)
    mapping = {0: 0}
    for node, name in zip(aig.inputs, aig.input_names):
        mapping[node] = mig.add_input(name)

    def remap(literal: int) -> int:
        base = mapping[lit_node(literal)]
        return lit_not(base) if lit_complement(literal) else base

    for node in aig.reachable_ands():
        f0, f1 = aig.fanins(node)
        mapping[node] = mig.add_and(remap(f0), remap(f1))
    for literal, name in zip(aig.outputs, aig.output_names):
        mig.add_output(remap(literal), name)
    return mig


def mig_to_aig(mig: Mig) -> Aig:
    """Convert a MIG to an AIG (majority expanded to 2·AND + OR form)."""
    aig = Aig(name=mig.name)
    mapping = {0: 0}
    for node, name in zip(mig.inputs, mig.input_names):
        mapping[node] = aig.add_input(name)

    def remap(literal: int) -> int:
        base = mapping[lit_node(literal)]
        return lit_not(base) if lit_complement(literal) else base

    for node in mig.reachable_majs():
        a, b, c = mig.children(node)
        mapping[node] = aig.add_maj(remap(a), remap(b), remap(c))
    for literal, name in zip(mig.outputs, mig.output_names):
        aig.add_output(remap(literal), name)
    return aig


def tables_to_mig(tables: Sequence[TruthTable], name: str = "") -> Mig:
    """Truth tables straight to a MIG (via the AIG construction)."""
    return aig_to_mig(tables_to_aig(tables, name=name))
