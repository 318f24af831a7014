"""Unit + property tests for the ROBDD manager."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.logic.bdd import BddManager, bdd_equivalent, build_rqfp_bdds
from repro.logic.truth_table import TruthTable


class TestBasics:
    def test_terminals(self):
        mgr = BddManager(2)
        assert mgr.constant(True) == mgr.TRUE
        assert mgr.constant(False) == mgr.FALSE

    def test_variable_evaluation(self):
        mgr = BddManager(3)
        x1 = mgr.var(1)
        assert mgr.evaluate(x1, [0, 1, 0]) == 1
        assert mgr.evaluate(x1, [1, 0, 1]) == 0

    def test_var_out_of_range(self):
        with pytest.raises(ReproError):
            BddManager(2).var(2)

    def test_canonical_sharing(self):
        """Identical functions are identical node ids."""
        mgr = BddManager(2)
        a, b = mgr.var(0), mgr.var(1)
        left = mgr.apply_and(a, b)
        right = mgr.apply_not(mgr.apply_or(mgr.apply_not(a),
                                           mgr.apply_not(b)))
        assert left == right  # De Morgan, canonically

    def test_reduction_no_redundant_tests(self):
        mgr = BddManager(2)
        a = mgr.var(0)
        assert mgr.apply_or(a, a) == a
        assert mgr.apply_and(a, mgr.TRUE) == a
        assert mgr.apply_xor(a, a) == mgr.FALSE


class TestOperators:
    def test_against_truth_tables(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            mgr = BddManager(n)
            fa = TruthTable(n, rng.getrandbits(1 << n))
            fb = TruthTable(n, rng.getrandbits(1 << n))
            na, nb = mgr.from_truth_table(fa), mgr.from_truth_table(fb)
            assert mgr.to_truth_table(mgr.apply_and(na, nb)) == (fa & fb)
            assert mgr.to_truth_table(mgr.apply_or(na, nb)) == (fa | fb)
            assert mgr.to_truth_table(mgr.apply_xor(na, nb)) == (fa ^ fb)
            assert mgr.to_truth_table(mgr.apply_not(na)) == ~fa

    def test_majority(self, rng):
        n = 3
        mgr = BddManager(n)
        nodes = [mgr.var(i) for i in range(n)]
        maj = mgr.apply_maj(*nodes)
        want = TruthTable.from_function(
            lambda a, b, c: (a & b) | (a & c) | (b & c), 3)
        assert mgr.to_truth_table(maj) == want

    def test_size_counts_internal_nodes(self):
        mgr = BddManager(3)
        node = mgr.apply_xor(mgr.apply_xor(mgr.var(0), mgr.var(1)),
                             mgr.var(2))
        # Parity of 3 vars: the classic 3-level, 2-nodes-per-level BDD.
        assert mgr.size(node) == 5  # wait: 3 + 2 + ... checked below
        assert mgr.evaluate(node, [1, 1, 1]) == 1


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_table_bdd_table(self, num_vars, data):
        bits = data.draw(st.integers(0, (1 << (1 << num_vars)) - 1))
        table = TruthTable(num_vars, bits)
        mgr = BddManager(num_vars)
        node = mgr.from_truth_table(table)
        assert mgr.to_truth_table(node) == table

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ReproError):
            BddManager(2).from_truth_table(TruthTable.variable(0, 3))


class TestRqfpBdds:
    def test_netlist_compilation_matches_simulation(self, rng):
        from repro.bench.random_circuits import random_rqfp
        for _ in range(10):
            netlist = random_rqfp(3, 5, 2, rng)
            mgr = BddManager(3)
            nodes = build_rqfp_bdds(netlist, mgr)
            tables = netlist.to_truth_tables()
            for node, table in zip(nodes, tables):
                assert mgr.to_truth_table(node) == table

    def test_bdd_equivalence_check(self):
        from repro.core.synthesis import initialize_netlist
        from repro.logic.truth_table import tabulate_word
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        netlist = initialize_netlist(spec)
        assert bdd_equivalent(netlist, spec)
        wrong = [~spec[0]] + spec[1:]
        assert not bdd_equivalent(netlist, wrong)
