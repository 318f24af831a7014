"""Combinational equivalence checking (CEC) via SAT miters.

This is the "formal verification" half of the RCGP fitness evaluation
(paper §3.2.1): when simulation cannot be exhaustive, a candidate that
matches the specification on every simulated pattern is handed to the
miter; the candidate is accepted only if the miter is UNSAT.

The module is representation-agnostic: anything that can encode itself
into CNF through a callable ``encoder(cnf, input_lits) -> output_lits``
can be checked against anything else.  :mod:`repro.networks` and
:mod:`repro.rqfp` expose such encoders for AIGs, MIGs and RQFP netlists,
and truth-table specs get one here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..errors import VerificationError
from ..logic.truth_table import TruthTable
from .cnf import CNF
from .solver import SAT, UNKNOWN, UNSAT, Solver
from .tseitin import encode_mux, encode_or_many, encode_xor

Encoder = Callable[[CNF, Sequence[int]], List[int]]


@dataclass
class CecResult:
    """Outcome of an equivalence check."""

    equivalent: Optional[bool]          # None => budget exhausted
    counterexample: Optional[int] = None  # input pattern (LSB = input 0)
    conflicts: int = 0
    status: str = field(default=UNSAT)

    @property
    def decided(self) -> bool:
        return self.equivalent is not None


def truth_table_encoder(tables: Sequence[TruthTable]) -> Encoder:
    """Encoder for a truth-table specification.

    Encodes each output as a Shannon-expanded mux tree over the inputs,
    splitting on the highest remaining input first; a cofactor pair that
    is equal, or a projection of that input, costs no mux.  This is the
    spec side of every miter that sampled fitness builds, so it serves
    the 12–16-input specs whose simulation is not exhaustive.

    The recursion works on the cofactor tables themselves: a table over
    the first ``k`` inputs is a ``2**k``-bit integer whose low half is
    the cofactor with input ``k-1`` at 0 and whose high half is the one
    with it at 1, so each level halves the width and no projection
    patterns are built.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("specification must have at least one output")
    num_vars = tables[0].num_vars
    if any(t.num_vars != num_vars for t in tables):
        raise ValueError("all specification outputs must share the inputs")
    # ones[k]: the all-ones table over the first k inputs.
    ones = [(1 << (1 << k)) - 1 for k in range(num_vars + 1)]

    def encode(cnf: CNF, inputs: Sequence[int]) -> List[int]:
        if len(inputs) != num_vars:
            raise ValueError(
                f"spec has {num_vars} inputs, got {len(inputs)} literals"
            )
        const = cnf.new_var()
        cnf.add_clause([const])

        def encode_table(bits: int, var: int) -> int:
            if var == 0:
                return const if bits else -const
            # Split on the highest remaining input.
            v = var - 1
            full = ones[v]
            neg = bits & full
            pos = bits >> (1 << v)
            if neg == pos:
                return encode_table(neg, v)
            if neg == 0 and pos == full:
                return inputs[v]
            if neg == full and pos == 0:
                return -inputs[v]
            lo = encode_table(neg, v)
            hi = encode_table(pos, v)
            return encode_mux(cnf, inputs[v], lo, hi)

        return [encode_table(t.bits, num_vars) for t in tables]

    return encode


def build_miter(encoder_a: Encoder, encoder_b: Encoder,
                num_inputs: int) -> "tuple[CNF, List[int], int]":
    """Construct a miter CNF; returns ``(cnf, input_lits, differ_lit)``.

    The miter is satisfiable iff some input pattern makes any output pair
    differ.
    """
    cnf = CNF()
    inputs = cnf.new_vars(num_inputs)
    outs_a = encoder_a(cnf, inputs)
    outs_b = encoder_b(cnf, inputs)
    if len(outs_a) != len(outs_b):
        raise VerificationError(
            f"output arity mismatch: {len(outs_a)} vs {len(outs_b)}"
        )
    diffs = [encode_xor(cnf, a, b) for a, b in zip(outs_a, outs_b)]
    differ = encode_or_many(cnf, diffs)
    cnf.add_clause([differ])
    return cnf, inputs, differ


def check_equivalence(encoder_a: Encoder, encoder_b: Encoder,
                      num_inputs: int,
                      conflict_budget: Optional[int] = None,
                      time_budget: Optional[float] = None) -> CecResult:
    """SAT-based CEC between two encodable circuits."""
    cnf, inputs, _ = build_miter(encoder_a, encoder_b, num_inputs)
    solver = Solver(cnf)
    status = solver.solve(conflict_budget=conflict_budget,
                          time_budget=time_budget)
    conflicts = solver.stats["conflicts"]
    if status == UNSAT:
        return CecResult(True, None, conflicts, status)
    if status == SAT:
        model = solver.model()
        pattern = 0
        for i, lit in enumerate(inputs):
            if model.get(lit, False):
                pattern |= 1 << i
        return CecResult(False, pattern, conflicts, status)
    return CecResult(None, None, conflicts, UNKNOWN)


def check_against_tables(encoder: Encoder, tables: Sequence[TruthTable],
                         conflict_budget: Optional[int] = None,
                         time_budget: Optional[float] = None) -> CecResult:
    """Check an encodable circuit against a truth-table specification."""
    tables = list(tables)
    return check_equivalence(encoder, truth_table_encoder(tables),
                             tables[0].num_vars, conflict_budget, time_budget)
