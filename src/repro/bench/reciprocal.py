"""Reversible reciprocal circuits (``intdiv4`` … ``intdiv10``).

The paper's second benchmark family comes from Soeken et al., "Design
automation and design space exploration for quantum computers"
(DATE'17), which synthesizes fixed-point reciprocal circuits via integer
division.  The original netlists are not available offline, so we use
the executable definition (DESIGN.md documents the substitution)::

    intdiv_n(x) = floor((2**n - 1) / x)   for x > 0
    intdiv_n(0) = 2**n - 1                (saturated)

This is an n-bit → n-bit arithmetic function with the same shape as the
paper's ``intdiv4``‥``intdiv10`` rows (n_pi = n_po = n) and the same
divider-style circuit character.
"""

from __future__ import annotations

from typing import List

from ..logic.truth_table import TruthTable, tabulate_word


def intdiv(bits: int) -> List[TruthTable]:
    """The n-bit reciprocal-by-integer-division specification."""
    if bits < 1:
        raise ValueError("intdiv needs at least 1 bit")
    top = (1 << bits) - 1

    def word(x: int) -> int:
        return top if x == 0 else (top // x)

    return tabulate_word(word, bits, bits)
