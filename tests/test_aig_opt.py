"""Unit tests for the AIG optimization passes (resyn2 analogue)."""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.random_circuits import random_aig
from repro.bench.registry import get_benchmark
from repro.logic.truth_table import TruthTable
from repro.networks.aig import (CONST0, CONST1, Aig, lit, lit_complement,
                                lit_node, lit_not)
from repro.networks.convert import tables_to_aig
from repro.opt.aig_opt import balance, collapse_refactor, refactor, resyn2


def _chain_aig(n):
    """Deliberately unbalanced AND chain over n inputs."""
    aig = Aig(n)
    acc = lit(aig.inputs[0])
    for node in aig.inputs[1:]:
        acc = aig.add_and(acc, lit(node))
    aig.add_output(acc)
    return aig


def _balance_reference(aig: Aig) -> Aig:
    """``balance`` with a full ``levels()`` sweep of the growing network
    per AND-cone and after every new AND: the quadratic original, kept
    as the reference the level-list version must match node for node."""
    fresh = Aig(name=aig.name)
    mapping: Dict[int, int] = {0: CONST0}
    for node, name in zip(aig.inputs, aig.input_names):
        mapping[node] = fresh.add_input(name)

    def remap(literal: int) -> int:
        base = mapping[lit_node(literal)]
        return lit_not(base) if lit_complement(literal) else base

    refs: Dict[int, int] = {}
    for node in aig.reachable_ands():
        for fan in aig.fanins(node):
            refs[lit_node(fan)] = refs.get(lit_node(fan), 0) + 1
    for out in aig.outputs:
        refs[lit_node(out)] = refs.get(lit_node(out), 0) + 1

    def collect_conjuncts(literal: int, acc: List[int], root: bool) -> None:
        node = lit_node(literal)
        if (aig.is_and(node) and not lit_complement(literal)
                and (root or refs.get(node, 0) <= 1)):
            f0, f1 = aig.fanins(node)
            collect_conjuncts(f0, acc, False)
            collect_conjuncts(f1, acc, False)
        else:
            acc.append(literal)

    for node in aig.reachable_ands():
        conjuncts: List[int] = []
        f0, f1 = aig.fanins(node)
        collect_conjuncts(f0, conjuncts, False)
        collect_conjuncts(f1, conjuncts, False)
        levels = fresh.levels()

        def level_of(literal: int) -> int:
            return levels[lit_node(literal)]

        work = sorted(set(remap(c) for c in conjuncts), key=level_of)
        while len(work) > 1:
            work.sort(key=level_of)
            a = work.pop(0)
            b = work.pop(0)
            combined = fresh.add_and(a, b)
            levels = fresh.levels()
            work.append(combined)
        mapping[node] = work[0] if work else CONST1
    for literal, name in zip(aig.outputs, aig.output_names):
        fresh.add_output(remap(literal), name)
    return fresh.cleanup()


def _structure(aig: Aig):
    return ([aig.fanins(node) for node in aig.and_nodes()], aig.inputs,
            aig.outputs, aig.input_names, aig.output_names)


class TestBalance:
    def test_chain_becomes_log_depth(self):
        aig = _chain_aig(8)
        assert aig.depth() == 7
        balanced = balance(aig)
        assert balanced.depth() == 3
        assert balanced.to_truth_tables() == aig.to_truth_tables()

    def test_preserves_function_random(self, random_tables):
        for _ in range(10):
            tables = random_tables(4, 2)
            aig = tables_to_aig(tables)
            assert balance(aig).to_truth_tables() == tables

    def test_respects_shared_nodes(self):
        """A multiply-used conjunct must not be duplicated destructively."""
        aig = Aig(3)
        a, b, c = (lit(n) for n in aig.inputs)
        ab = aig.add_and(a, b)
        aig.add_output(aig.add_and(ab, c))
        aig.add_output(lit_not(ab))
        balanced = balance(aig)
        assert balanced.to_truth_tables() == aig.to_truth_tables()

    def test_matches_full_sweep_reference(self):
        aigs = [random_aig(6, 60, 4, random.Random(seed))
                for seed in range(25)]
        for name in ("ham3", "graycode6", "mod5adder", "intdiv7"):
            aig = tables_to_aig(get_benchmark(name).spec())
            aigs += [aig, refactor(aig)]
        for aig in aigs:
            assert _structure(balance(aig)) == \
                _structure(_balance_reference(aig))

    def test_one_level_sweep_at_most(self, monkeypatch):
        sweeps = []
        levels = Aig.levels

        def counted(aig):
            sweeps.append(aig)
            return levels(aig)

        monkeypatch.setattr(Aig, "levels", counted)
        aig = tables_to_aig(get_benchmark("intdiv7").spec())
        balance(aig)
        assert len(sweeps) <= 1


class TestRefactor:
    def test_redundant_logic_removed(self):
        """(a&b) | (a&!b) should refactor to a."""
        aig = Aig(2)
        a, b = (lit(n) for n in aig.inputs)
        redundant = aig.add_or(aig.add_and(a, b), aig.add_and(a, lit_not(b)))
        aig.add_output(redundant)
        improved = refactor(aig)
        assert improved.to_truth_tables() == aig.to_truth_tables()
        assert improved.size() == 0  # collapses to the input wire

    def test_never_grows(self, random_tables):
        for _ in range(10):
            tables = random_tables(5, 2)
            aig = tables_to_aig(tables)
            out = refactor(aig)
            assert out.size() <= aig.size()
            assert out.to_truth_tables() == tables


class TestCollapseRefactor:
    def test_shrinks_padded_network(self):
        aig = Aig(3)
        a, b, c = (lit(n) for n in aig.inputs)
        # Build (a XOR a XOR b...) noise realizing just b & c.
        noisy = aig.add_and(aig.add_or(aig.add_and(b, c), aig.add_and(b, c)),
                            aig.add_or(c, aig.add_and(b, c)))
        aig.add_output(noisy)
        out = collapse_refactor(aig)
        assert out.to_truth_tables() == aig.to_truth_tables()
        assert out.size() <= aig.size()

    def test_skips_wide_inputs(self):
        aig = Aig(20)
        aig.add_output(lit(aig.inputs[0]))
        assert collapse_refactor(aig, max_inputs=14) is aig


class TestResyn2:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_preserves_function(self, n, data):
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        tables = [TruthTable(n, bits)]
        aig = tables_to_aig(tables)
        assert resyn2(aig).to_truth_tables() == tables

    def test_never_worse_than_input(self, random_tables):
        tables = random_tables(5, 3)
        aig = tables_to_aig(tables)
        out = resyn2(aig)
        assert out.size() <= aig.size()
