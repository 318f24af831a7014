"""MIG algebraic optimization — the ``aqfp_resynthesis`` analogue.

mockturtle's AQFP flow resynthesizes an optimized AIG into a
majority-inverter graph and then applies majority-algebra rewriting
(Amarù et al.'s Ω rules).  This module reproduces that role:

* the Ω.M (majority), Ω.C (commutativity) and inverter-propagation rules
  are applied eagerly by :meth:`repro.networks.mig.Mig.add_maj`;
* :func:`rewrite_distributivity` applies the size-decreasing direction of
  Ω.D: ``M(M(x,y,u), M(x,y,v), z) → M(x, y, M(u,v,z))``;
* :func:`rewrite_associativity` applies Ω.A to expose structural sharing:
  ``M(x, u, M(y, u, z))`` can swap ``x`` and ``z`` when the resulting
  inner node already exists;
* :func:`relevance_rewrite` applies the relevance rule: inside
  ``M(x, y, g)``, occurrences of ``x`` in the subgraph ``g`` may be
  replaced by ``!y`` (bounded depth), which frequently triggers the
  majority axioms downstream;
* :func:`mig_algebraic_rewrite` iterates all of the above to a fixpoint
  (bounded), always keeping the smaller network.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..networks.aig import CONST0, lit_complement, lit_node, lit_not
from ..networks.mig import Mig


def _remap_factory(mapping: Dict[int, int]):
    def remap(literal: int) -> int:
        base = mapping[lit_node(literal)]
        return lit_not(base) if lit_complement(literal) else base
    return remap


def rebuild(mig: Mig) -> Mig:
    """Re-add every reachable node, letting the constructor's eager
    axioms and structural hashing collapse redundancy."""
    return mig.cleanup()


def rewrite_distributivity(mig: Mig) -> Mig:
    """Size-decreasing Ω.D: merge sibling majorities sharing two children.

    ``M(M(x,y,u), M(x,y,v), z)`` becomes ``M(x, y, M(u,v,z))`` — one gate
    saved whenever the two inner nodes are otherwise unused (strashing +
    cleanup make the transformation safe to attempt unconditionally).
    """
    fresh = Mig(name=mig.name)
    mapping: Dict[int, int] = {0: CONST0}
    for node, name in zip(mig.inputs, mig.input_names):
        mapping[node] = fresh.add_input(name)
    remap = _remap_factory(mapping)

    def inner_children(literal: int) -> Optional[Tuple[bool, Tuple[int, int, int]]]:
        node = lit_node(literal)
        if not mig.is_maj(node):
            return None
        return lit_complement(literal), mig.children(node)

    for node in mig.reachable_majs():
        kids = mig.children(node)
        new_kids = [remap(k) for k in kids]
        replaced = False
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                gi = inner_children(kids[i])
                gj = inner_children(kids[j])
                if gi is None or gj is None:
                    continue
                comp_i, ci = gi
                comp_j, cj = gj
                # Normalize child literal sets under the outer complements.
                set_i = [lit_not(c) if comp_i else c for c in ci]
                set_j = [lit_not(c) if comp_j else c for c in cj]
                shared = set(set_i) & set(set_j)
                if len(shared) != 2:
                    continue
                x, y = sorted(shared)
                rest_i = [c for c in set_i if c not in shared]
                rest_j = [c for c in set_j if c not in shared]
                if len(rest_i) != 1 or len(rest_j) != 1:
                    continue
                k = 3 - i - j
                z = kids[k]
                inner = fresh.add_maj(remap(rest_i[0]), remap(rest_j[0]), remap(z))
                mapping[node] = fresh.add_maj(remap(x), remap(y), inner)
                replaced = True
                break
            if replaced:
                break
        if not replaced:
            mapping[node] = fresh.add_maj(*new_kids)
    for literal, name in zip(mig.outputs, mig.output_names):
        fresh.add_output(remap(literal), name)
    out = fresh.cleanup()
    return out if out.size() <= mig.size() else mig


def rewrite_associativity(mig: Mig) -> Mig:
    """Ω.A sharing exposure: in ``M(x, u, M(y, u, z))`` swap ``x``/``z``
    when the swapped inner majority already exists in the network."""
    fresh = Mig(name=mig.name)
    mapping: Dict[int, int] = {0: CONST0}
    for node, name in zip(mig.inputs, mig.input_names):
        mapping[node] = fresh.add_input(name)
    remap = _remap_factory(mapping)

    for node in mig.reachable_majs():
        kids = [remap(k) for k in mig.children(node)]
        best = None
        for idx in range(3):
            inner_lit = kids[idx]
            inner_node = lit_node(inner_lit)
            if not fresh.is_maj(inner_node) or lit_complement(inner_lit):
                continue
            inner_kids = list(fresh.children(inner_node))
            outer_rest = [kids[t] for t in range(3) if t != idx]
            for u in outer_rest:
                if u not in inner_kids:
                    continue
                x = [t for t in outer_rest if t != u]
                if len(x) != 1:
                    continue
                others = [t for t in inner_kids if t != u]
                if len(others) != 2:
                    continue
                for z_pos in range(2):
                    z = others[z_pos]
                    y = others[1 - z_pos]
                    if fresh.find_maj(y, u, x[0]) is not None:
                        inner2 = fresh.add_maj(y, u, x[0])
                        best = fresh.add_maj(z, u, inner2)
                        break
                if best is not None:
                    break
            if best is not None:
                break
        mapping[node] = best if best is not None else fresh.add_maj(*kids)
    for literal, name in zip(mig.outputs, mig.output_names):
        fresh.add_output(remap(literal), name)
    out = fresh.cleanup()
    return out if out.size() <= mig.size() else mig


def relevance_rewrite(mig: Mig, max_depth: int = 2) -> Mig:
    """Relevance rule: within ``M(x, y, g)``, replace ``x`` by ``!y``
    inside ``g`` (up to ``max_depth`` levels) and keep the result if the
    network shrinks."""
    fresh = Mig(name=mig.name)
    mapping: Dict[int, int] = {0: CONST0}
    for node, name in zip(mig.inputs, mig.input_names):
        mapping[node] = fresh.add_input(name)
    remap = _remap_factory(mapping)

    def substituted(literal: int, find: int, repl: int, depth: int) -> int:
        """Copy of ``literal``'s cone with ``find`` replaced by ``repl``."""
        if literal == find:
            return repl
        if literal == lit_not(find):
            return lit_not(repl)
        node = lit_node(literal)
        if depth == 0 or not fresh.is_maj(node):
            return literal
        kids = [substituted(k, find, repl, depth - 1)
                for k in fresh.children(node)]
        rebuilt = fresh.add_maj(*kids)
        return lit_not(rebuilt) if lit_complement(literal) else rebuilt

    for node in mig.reachable_majs():
        kids = [remap(k) for k in mig.children(node)]
        built = None
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                k = 3 - i - j
                x, y, g = kids[i], kids[j], kids[k]
                if not mig_literal_is_gate(fresh, g):
                    continue
                g2 = substituted(g, x, lit_not(y), max_depth)
                if g2 != g:
                    built = fresh.add_maj(x, y, g2)
                    break
            if built is not None:
                break
        mapping[node] = built if built is not None else fresh.add_maj(*kids)
    for literal, name in zip(mig.outputs, mig.output_names):
        fresh.add_output(remap(literal), name)
    out = fresh.cleanup()
    return out if out.size() <= mig.size() else mig


def mig_literal_is_gate(mig: Mig, literal: int) -> bool:
    return mig.is_maj(lit_node(literal))


def mig_algebraic_rewrite(mig: Mig, max_rounds: int = 4) -> Mig:
    """Iterate the algebraic rules until no further size improvement."""
    best = rebuild(mig)
    for _ in range(max_rounds):
        candidate = rewrite_distributivity(best)
        candidate = rewrite_associativity(candidate)
        candidate = relevance_rewrite(candidate)
        if candidate.size() < best.size():
            best = candidate
        else:
            break
    return best


def aqfp_resynthesis(mig: Mig, rounds: int = 4) -> Mig:
    """Entry point mirroring mockturtle's ``aqfp_resynthesis`` role:
    majority-algebra size optimization of an MIG destined for AQFP/RQFP
    mapping.  Path balancing is left to the exact buffer planner
    (:func:`repro.rqfp.buffer_opt.optimal_levels`)."""
    return mig_algebraic_rewrite(mig, max_rounds=rounds)
