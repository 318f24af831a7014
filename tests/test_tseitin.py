"""Unit tests for the Tseitin gate encodings."""

import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import SAT, UNSAT, Solver
from repro.sat.tseitin import (
    encode_and,
    encode_and_many,
    encode_buf,
    encode_const,
    encode_equal,
    encode_maj3,
    encode_mux,
    encode_or,
    encode_or_many,
    encode_xor,
    encode_xor_many,
)


def _check_gate(encode_fn, arity, reference):
    """The encoded output must equal the reference on all input patterns."""
    for pattern in itertools.product([False, True], repeat=arity):
        cnf = CNF()
        inputs = cnf.new_vars(arity)
        out = encode_fn(cnf, *inputs)
        for lit, value in zip(inputs, pattern):
            cnf.add_clause([lit if value else -lit])
        expected = reference(*pattern)
        # Forcing the correct output stays SAT...
        sat_cnf = CNF.from_dimacs(cnf.to_dimacs())
        sat_cnf.add_clause([out if expected else -out])
        assert Solver(sat_cnf).solve() == SAT, (pattern, "should be SAT")
        # ...and forcing the wrong output is UNSAT.
        unsat_cnf = CNF.from_dimacs(cnf.to_dimacs())
        unsat_cnf.add_clause([-out if expected else out])
        assert Solver(unsat_cnf).solve() == UNSAT, (pattern, "should be UNSAT")


class TestPrimitives:
    def test_and(self):
        _check_gate(encode_and, 2, lambda a, b: a and b)

    def test_or(self):
        _check_gate(encode_or, 2, lambda a, b: a or b)

    def test_xor(self):
        _check_gate(encode_xor, 2, lambda a, b: a != b)

    def test_maj3(self):
        _check_gate(encode_maj3, 3, lambda a, b, c: (a + b + c) >= 2)

    def test_mux(self):
        _check_gate(encode_mux, 3, lambda s, i0, i1: i1 if s else i0)

    def test_buf(self):
        _check_gate(encode_buf, 1, lambda a: a)

    def test_negated_inputs(self):
        """Literal negation must encode inversion for free."""
        cnf = CNF()
        a, b = cnf.new_vars(2)
        out = encode_and(cnf, -a, b)  # !a & b
        cnf.add_clauses([[-a], [b]])
        cnf.add_clause([out])
        assert Solver(cnf).solve() == SAT


class TestNary:
    def test_and_many(self):
        _check_gate(lambda cnf, *ins: encode_and_many(cnf, list(ins)), 4,
                    lambda *ins: all(ins))

    def test_or_many(self):
        _check_gate(lambda cnf, *ins: encode_or_many(cnf, list(ins)), 4,
                    lambda *ins: any(ins))

    def test_xor_many(self):
        _check_gate(lambda cnf, *ins: encode_xor_many(cnf, list(ins)), 4,
                    lambda *ins: sum(ins) % 2 == 1)

    def test_empty_and_is_true(self):
        cnf = CNF()
        out = encode_and_many(cnf, [])
        cnf.add_clause([out])
        assert Solver(cnf).solve() == SAT

    def test_empty_or_is_false(self):
        cnf = CNF()
        out = encode_or_many(cnf, [])
        cnf.add_clause([out])
        assert Solver(cnf).solve() == UNSAT


class TestHelpers:
    def test_const(self):
        cnf = CNF()
        t = encode_const(cnf, True)
        f = encode_const(cnf, False)
        cnf.add_clause([t])
        cnf.add_clause([-f])
        assert Solver(cnf).solve() == SAT

    def test_equal(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        encode_equal(cnf, a, b)
        cnf.add_clauses([[a], [-b]])
        assert Solver(cnf).solve() == UNSAT
