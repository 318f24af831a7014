"""Low-level bit manipulation helpers shared by the logic substrate.

Truth tables in this library are stored as arbitrary-precision Python
integers: bit ``t`` of the integer is the function value under input
pattern ``t`` (pattern bits map LSB-first to inputs ``x0, x1, ...``).
These helpers provide the masks and structured-pattern constants that the
rest of the package builds on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List


def full_mask(num_vars: int) -> int:
    """Mask selecting all ``2**num_vars`` pattern bits of a truth table."""
    if num_vars < 0:
        raise ValueError(f"num_vars must be >= 0, got {num_vars}")
    return (1 << (1 << num_vars)) - 1


@lru_cache(maxsize=None)
def variable_pattern(var: int, num_vars: int) -> int:
    """Truth table (as bigint) of the projection function ``x_var``.

    Bit ``t`` is 1 iff bit ``var`` of the pattern index ``t`` is 1.  For
    example with ``num_vars=3``, ``variable_pattern(0, 3)`` is
    ``0b10101010``.

    Built from one period (``block`` zeros, then ``block`` ones) that
    doubles until it covers all ``2**num_vars`` bits, so the cost is
    linear in the table size.
    """
    if not 0 <= var < num_vars:
        raise ValueError(f"variable index {var} out of range for {num_vars} vars")
    block = 1 << var           # run length of zeros then ones
    width = block << 1
    total = 1 << num_vars
    pattern = ((1 << block) - 1) << block
    while width < total:
        pattern |= pattern << width
        width <<= 1
    return pattern


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount requires a non-negative integer")
    return value.bit_count()


def bits_of(value: int, width: int) -> List[int]:
    """The ``width`` low bits of ``value``, LSB first, as a list of 0/1."""
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits) -> int:
    """Inverse of :func:`bits_of` (LSB-first bit list to integer)."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        value |= bit << i
    return value


def parity(value: int) -> int:
    """Parity (XOR of all bits) of a non-negative integer."""
    return popcount(value) & 1


def majority3(a: int, b: int, c: int) -> int:
    """Bitwise 3-input majority, the fundamental AQFP/RQFP operation."""
    return (a & b) | (a & c) | (b & c)


def cofactor_masks(var: int, num_vars: int):
    """Masks for the negative/positive cofactor positions of ``x_var``."""
    pos = variable_pattern(var, num_vars)
    return full_mask(num_vars) & ~pos, pos
