"""Tseitin encodings of logic primitives.

Each helper adds clauses to a :class:`~repro.sat.cnf.CNF` constraining a
fresh (or caller-supplied) output literal to equal a gate function of
input literals.  Inputs are ordinary DIMACS literals, so negation is just
arithmetic negation — inverter edges in AIGs/MIGs and RQFP inverter
configurations encode for free.

These encodings back both the CEC miter (formal half of the RCGP fitness
function) and the exact-synthesis baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cnf import CNF


def encode_const(cnf: CNF, value: bool) -> int:
    """A literal fixed to ``value``."""
    lit = cnf.new_var()
    cnf.add_clause([lit if value else -lit])
    return lit


def encode_buf(cnf: CNF, a: int, out: Optional[int] = None) -> int:
    """``out == a``."""
    out = cnf.new_var() if out is None else out
    cnf.add_clause([-a, out])
    cnf.add_clause([a, -out])
    return out


def encode_and(cnf: CNF, a: int, b: int, out: Optional[int] = None) -> int:
    """``out == a AND b``."""
    out = cnf.new_var() if out is None else out
    cnf.add_clause([-a, -b, out])
    cnf.add_clause([a, -out])
    cnf.add_clause([b, -out])
    return out


def encode_or(cnf: CNF, a: int, b: int, out: Optional[int] = None) -> int:
    """``out == a OR b``."""
    return -encode_and(cnf, -a, -b, None if out is None else -out)


def encode_xor(cnf: CNF, a: int, b: int, out: Optional[int] = None) -> int:
    """``out == a XOR b``."""
    out = cnf.new_var() if out is None else out
    cnf.add_clause([-a, -b, -out])
    cnf.add_clause([a, b, -out])
    cnf.add_clause([-a, b, out])
    cnf.add_clause([a, -b, out])
    return out


def encode_maj3(cnf: CNF, a: int, b: int, c: int,
                out: Optional[int] = None) -> int:
    """``out == MAJ(a, b, c)`` — the native RQFP/AQFP primitive.

    Uses the minimal 6-clause encoding: each pair of agreeing inputs
    forces the output.
    """
    out = cnf.new_var() if out is None else out
    cnf.add_clause([-a, -b, out])
    cnf.add_clause([-a, -c, out])
    cnf.add_clause([-b, -c, out])
    cnf.add_clause([a, b, -out])
    cnf.add_clause([a, c, -out])
    cnf.add_clause([b, c, -out])
    return out


def encode_mux(cnf: CNF, sel: int, if0: int, if1: int,
               out: Optional[int] = None) -> int:
    """``out == (sel ? if1 : if0)``."""
    out = cnf.new_var() if out is None else out
    cnf.add_clause([sel, -if0, out])
    cnf.add_clause([sel, if0, -out])
    cnf.add_clause([-sel, -if1, out])
    cnf.add_clause([-sel, if1, -out])
    return out


def encode_and_many(cnf: CNF, lits: Sequence[int],
                    out: Optional[int] = None) -> int:
    """``out == AND(lits)`` (n-ary); empty conjunction is constant 1."""
    if not lits:
        const = encode_const(cnf, True)
        return encode_buf(cnf, const, out) if out is not None else const
    out = cnf.new_var() if out is None else out
    for lit in lits:
        cnf.add_clause([lit, -out])
    cnf.add_clause([-lit for lit in lits] + [out])
    return out


def encode_or_many(cnf: CNF, lits: Sequence[int],
                   out: Optional[int] = None) -> int:
    """``out == OR(lits)``; empty disjunction is constant 0."""
    inner = encode_and_many(cnf, [-lit for lit in lits],
                            None if out is None else -out)
    return -inner


def encode_equal(cnf: CNF, a: int, b: int) -> None:
    """Constrain ``a == b``."""
    cnf.add_clause([-a, b])
    cnf.add_clause([a, -b])


def encode_xor_many(cnf: CNF, lits: Sequence[int],
                    out: Optional[int] = None) -> int:
    """``out == XOR(lits)`` via a chain; empty XOR is constant 0."""
    if not lits:
        const = encode_const(cnf, False)
        return encode_buf(cnf, const, out) if out is not None else const
    acc = lits[0]
    for lit in lits[1:]:
        acc = encode_xor(cnf, acc, lit)
    if out is not None:
        encode_equal(cnf, acc, out)
        return out
    return acc
