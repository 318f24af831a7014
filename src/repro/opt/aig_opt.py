"""AIG optimization passes — the in-repo analogue of ABC's ``resyn2``.

Three passes are provided:

* :func:`balance` — rebuilds maximal AND-cones as level-balanced trees
  (ABC ``balance``),
* :func:`refactor` — cone-based re-synthesis: for every node a bounded
  support cut is collapsed to a truth table and re-implemented from a
  best-phase ISOP cover; the cheaper construction wins (ABC
  ``refactor``),
* :func:`collapse_refactor` — whole-function collapse + ISOP rebuild,
  profitable for the small-input specs of the paper's benchmark suite
  (ABC ``collapse; strash`` style).

:func:`resyn2` chains them in the classic alternation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..logic.isop import best_phase_isop
from ..logic.truth_table import TruthTable
from ..networks.aig import Aig, CONST0, CONST1, lit_complement, lit_node, lit_not
from ..networks.convert import tables_to_aig


def _remap_factory(mapping: Dict[int, int]):
    def remap(literal: int) -> int:
        base = mapping[lit_node(literal)]
        return lit_not(base) if lit_complement(literal) else base
    return remap


def balance(aig: Aig) -> Aig:
    """Rebuild AND trees balanced by operand level to reduce depth.

    A maximal AND-cone is the set of conjuncts reachable from a node
    through uncomplemented AND edges with single use inside the cone.
    Conjuncts are combined cheapest-level-first (Huffman style), which is
    exactly ABC's balancing strategy.

    The levels of the growing network are kept in a list that grows
    with it: nodes are only ever appended, so a node's level never
    changes once known, and one pass costs no full level sweep.
    """
    fresh = Aig(name=aig.name)
    mapping: Dict[int, int] = {0: CONST0}
    for node, name in zip(aig.inputs, aig.input_names):
        mapping[node] = fresh.add_input(name)
    remap = _remap_factory(mapping)
    levels = [0] * fresh.num_nodes  # the constant and the inputs

    def level_of(literal: int) -> int:
        return levels[lit_node(literal)]

    order = aig.reachable_ands()
    refs: Dict[int, int] = {}
    for node in order:
        for fan in aig.fanins(node):
            refs[lit_node(fan)] = refs.get(lit_node(fan), 0) + 1
    for out in aig.outputs:
        refs[lit_node(out)] = refs.get(lit_node(out), 0) + 1

    def collect_conjuncts(literal: int, acc: List[int], root: bool) -> None:
        node = lit_node(literal)
        expandable = (
            aig.is_and(node)
            and not lit_complement(literal)
            and (root or refs.get(node, 0) <= 1)
        )
        if expandable:
            f0, f1 = aig.fanins(node)
            collect_conjuncts(f0, acc, False)
            collect_conjuncts(f1, acc, False)
        else:
            acc.append(literal)

    for node in order:
        conjuncts: List[int] = []
        f0, f1 = aig.fanins(node)
        collect_conjuncts(f0, conjuncts, False)
        collect_conjuncts(f1, conjuncts, False)

        # Huffman-style: repeatedly AND the two shallowest operands.
        work = sorted(set(remap(c) for c in conjuncts), key=level_of)
        while len(work) > 1:
            work.sort(key=level_of)
            a = work.pop(0)
            b = work.pop(0)
            combined = fresh.add_and(a, b)
            if fresh.num_nodes > len(levels):  # a new AND node
                g0, g1 = fresh.fanins(len(levels))
                levels.append(1 + max(levels[lit_node(g0)],
                                      levels[lit_node(g1)]))
            work.append(combined)
        mapping[node] = work[0] if work else CONST1
    for literal, name in zip(aig.outputs, aig.output_names):
        fresh.add_output(remap(literal), name)
    return fresh.cleanup()


def _bounded_cut(aig: Aig, node: int, max_leaves: int) -> Optional[List[int]]:
    """Grow a support cut of ``node`` by expanding the highest node until
    the leaf budget would be exceeded.  Returns leaf node indices."""
    leaves: Set[int] = {node}
    while True:
        expandable = [n for n in leaves if aig.is_and(n)]
        if not expandable:
            return sorted(leaves)
        # Expand the topologically latest AND leaf first.
        candidate = max(expandable)
        f0, f1 = aig.fanins(candidate)
        trial = set(leaves)
        trial.discard(candidate)
        trial.add(lit_node(f0))
        trial.add(lit_node(f1))
        trial.discard(0)
        if len(trial) > max_leaves:
            return sorted(leaves)
        leaves = trial


def _cone_table(aig: Aig, node: int, leaves: Sequence[int]) -> TruthTable:
    """Local truth table of ``node`` as a function of ``leaves``."""
    k = len(leaves)
    from ..logic.bitops import full_mask, variable_pattern
    mask = full_mask(k)
    values: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = variable_pattern(i, k)

    def lit_value(literal: int) -> int:
        v = eval_node(lit_node(literal))
        return (v ^ mask) if lit_complement(literal) else v

    def eval_node(n: int) -> int:
        if n in values:
            return values[n]
        f0, f1 = aig.fanins(n)
        values[n] = lit_value(f0) & lit_value(f1)
        return values[n]

    return TruthTable(k, eval_node(node))


def refactor(aig: Aig, max_leaves: int = 10) -> Aig:
    """Cone-based re-synthesis.

    The network is rebuilt bottom-up; each node is implemented either by
    remapping its fanins or by ISOP re-synthesis of a bounded-support
    cut, whichever adds fewer gates to the growing result.
    """
    fresh = Aig(name=aig.name)
    mapping: Dict[int, int] = {0: CONST0}
    for node, name in zip(aig.inputs, aig.input_names):
        mapping[node] = fresh.add_input(name)
    remap = _remap_factory(mapping)

    for node in aig.reachable_ands():
        f0, f1 = aig.fanins(node)
        # Plan A: structural remap.
        before = fresh.num_nodes
        direct = fresh.add_and(remap(f0), remap(f1))
        direct_cost = fresh.num_nodes - before
        leaves = _bounded_cut(aig, node, max_leaves)
        if leaves is None or any(l not in mapping and not aig.is_and(l) for l in leaves):
            mapping[node] = direct
            continue
        if not all(l in mapping for l in leaves):
            mapping[node] = direct
            continue
        table = _cone_table(aig, node, leaves)
        cubes, complemented = best_phase_isop(table)
        literal_budget = sum(c.num_literals() for c in cubes)
        if literal_budget > 4 * max_leaves:
            mapping[node] = direct
            continue
        before = fresh.num_nodes
        cube_lits = []
        leaf_lits = [mapping[l] for l in leaves]
        for cube in cubes:
            lits = [lit_not(leaf_lits[v]) if neg else leaf_lits[v]
                    for v, neg in cube.literals()]
            cube_lits.append(fresh.add_and_many(lits))
        candidate = fresh.add_or_many(cube_lits)
        if complemented:
            candidate = lit_not(candidate)
        cand_cost = fresh.num_nodes - before
        # Keep whichever construction grew the network less; strashing
        # makes the losing alternative garbage that cleanup() removes.
        mapping[node] = candidate if cand_cost < direct_cost else direct
    for literal, name in zip(aig.outputs, aig.output_names):
        fresh.add_output(remap(literal), name)
    return fresh.cleanup()


def collapse_refactor(aig: Aig, max_inputs: int = 14) -> Aig:
    """Collapse to truth tables and rebuild from ISOP covers.

    Only applied when the input count keeps exhaustive collapse cheap;
    returns the smaller of the original and the rebuilt network.
    """
    if aig.num_inputs > max_inputs:
        return aig
    tables = aig.to_truth_tables()
    rebuilt = tables_to_aig(tables, name=aig.name,
                            input_names=aig.input_names,
                            output_names=aig.output_names)
    return rebuilt if rebuilt.size() < aig.size() else aig


def resyn2(aig: Aig, rounds: int = 2) -> Aig:
    """The classic alternation: balance / refactor to a fixpoint-ish.

    Mirrors ABC's ``resyn2`` role in the paper's initialization phase:
    a size-oriented cleanup of the incoming network before MIG mapping.
    ABC's script also runs cut rewriting (``rewrite``); this one does
    not.
    """
    best = aig.cleanup()
    for _ in range(rounds):
        candidate = balance(best)
        candidate = refactor(candidate)
        candidate = collapse_refactor(candidate)
        candidate = balance(candidate)
        if candidate.size() < best.size() or (
                candidate.size() == best.size() and candidate.depth() < best.depth()):
            best = candidate
        else:
            break
    return best
