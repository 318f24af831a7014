"""Irredundant sum-of-products computation (Minato–Morreale ISOP).

The ISOP algorithm recursively splits an incompletely-specified function
``(lower, upper)`` (must-cover onset and allowed onset) on a variable and
produces an irredundant cover.  It is the workhorse behind
``tables_to_aig``, which builds each spec's first AIG, and behind the
AIG ``refactor`` pass that stands in for ABC's ``resyn2`` in this
reproduction.

A cube is encoded as a pair of bitmasks ``(pos, neg)`` over variables:
bit ``v`` of ``pos`` means literal ``x_v`` appears positively, bit ``v``
of ``neg`` means it appears negated.  A cube with ``pos = neg = 0`` is
the tautology cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .bitops import full_mask, variable_pattern
from .truth_table import TruthTable


@dataclass(frozen=True)
class Cube:
    """A product term over a fixed variable set."""

    pos: int
    neg: int

    def __post_init__(self):
        if self.pos & self.neg:
            raise ValueError(
                f"cube has contradictory literals: pos=0x{self.pos:x} neg=0x{self.neg:x}"
            )

    def literals(self) -> List[Tuple[int, bool]]:
        """List of ``(variable, negated)`` pairs, sorted by variable."""
        out = []
        v = 0
        pos, neg = self.pos, self.neg
        while pos or neg:
            if pos & 1:
                out.append((v, False))
            if neg & 1:
                out.append((v, True))
            pos >>= 1
            neg >>= 1
            v += 1
        return out

    def num_literals(self) -> int:
        return self.pos.bit_count() + self.neg.bit_count()

    def table(self, num_vars: int) -> TruthTable:
        """Truth table of this cube over ``num_vars`` variables."""
        bits = full_mask(num_vars)
        for var, negated in self.literals():
            pattern = variable_pattern(var, num_vars)
            bits &= (full_mask(num_vars) ^ pattern) if negated else pattern
        return TruthTable(num_vars, bits)

    def __str__(self) -> str:
        if not self.pos and not self.neg:
            return "1"
        return "".join(
            f"{'!' if negated else ''}x{var}" for var, negated in self.literals()
        )


def _isop(lower: int, upper: int, num_vars: int, var: int) -> Tuple[List[Cube], int]:
    """Recursive core: cover with onset ``lower`` allowed up to ``upper``.

    Returns (cubes, covered-bits).  ``var`` is the highest variable index
    still eligible for splitting.
    """
    if lower == 0:
        return [], 0
    mask = full_mask(num_vars)
    if lower & ~upper:
        raise ValueError("ISOP requires lower ⊆ upper")
    if upper == mask:
        return [Cube(0, 0)], mask

    # Find the top variable on which either bound actually depends: a
    # table depends on v iff its two cofactor halves differ.
    split = -1
    for v in range(var, -1, -1):
        pat = variable_pattern(v, num_vars)
        shift = 1 << v
        if (lower & ~pat) != ((lower & pat) >> shift) or \
           (upper & ~pat) != ((upper & pat) >> shift):
            split = v
            break
    if split < 0:
        # Function is constant over remaining vars; lower nonzero => cover all.
        return [Cube(0, 0)], mask

    pat = variable_pattern(split, num_vars)
    shift = 1 << split
    l0 = lower & ~pat
    l0 = l0 | (l0 << shift)
    l1 = (lower & pat) >> shift
    l1 = l1 | (l1 << shift)
    u0 = upper & ~pat
    u0 = u0 | (u0 << shift)
    u1 = (upper & pat) >> shift
    u1 = u1 | (u1 << shift)

    # Minterms needing the negative (resp. positive) literal.
    cubes0, cover0 = _isop(l0 & ~u1 & mask, u0, num_vars, split - 1)
    cubes1, cover1 = _isop(l1 & ~u0 & mask, u1, num_vars, split - 1)

    cubes = [Cube(c.pos, c.neg | (1 << split)) for c in cubes0]
    cubes += [Cube(c.pos | (1 << split), c.neg) for c in cubes1]
    covered = (cover0 & ~pat) | (cover1 & pat)

    # Remainder must be covered without the split literal.
    rest_lower = (l0 & ~cover0) | (l1 & ~cover1)
    rest_lower &= mask
    cubes2, cover2 = _isop(rest_lower, u0 & u1 & mask, num_vars, split - 1)
    cubes += cubes2
    covered |= cover2
    return cubes, covered


def isop(onset: TruthTable, dcset: TruthTable = None) -> List[Cube]:
    """Irredundant sum-of-products cover of ``onset`` (+ optional DC set).

    The returned cubes cover every onset minterm, touch no offset minterm,
    and form an irredundant cover in the Minato–Morreale sense.
    """
    num_vars = onset.num_vars
    lower = onset.bits
    upper = lower | (dcset.bits if dcset is not None else 0)
    if dcset is not None and dcset.num_vars != num_vars:
        raise ValueError("onset and dcset variable counts differ")
    cubes, covered = _isop(lower, upper, num_vars, num_vars - 1)
    if covered & ~upper:
        raise AssertionError("ISOP cover exceeded the upper bound")
    if lower & ~covered:
        raise AssertionError("ISOP cover missed onset minterms")
    return cubes


def cover_table(cubes: List[Cube], num_vars: int) -> TruthTable:
    """OR of all cube tables — used to validate covers in tests."""
    acc = TruthTable.constant(False, num_vars)
    for cube in cubes:
        acc = acc | cube.table(num_vars)
    return acc


def cover_literals(cubes: List[Cube]) -> int:
    """Total literal count of a cover (a standard two-level cost)."""
    return sum(c.num_literals() for c in cubes)


def best_phase_isop(table: TruthTable) -> Tuple[List[Cube], bool]:
    """ISOP of ``f`` or ``~f``, whichever is cheaper.

    Returns ``(cubes, complemented)``; classic trick used by refactoring
    to avoid pathological covers of functions with dense onsets.
    """
    direct = isop(table)
    inverse = isop(~table)
    cost_d = (len(direct), cover_literals(direct))
    cost_i = (len(inverse), cover_literals(inverse))
    if cost_i < cost_d:
        return inverse, True
    return direct, False
