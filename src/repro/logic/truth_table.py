"""Bit-parallel truth tables.

A :class:`TruthTable` is an immutable Boolean function of ``num_vars``
inputs whose entire value vector is stored in one Python integer: bit
``t`` holds the function value under the input pattern whose binary
encoding is ``t`` (LSB = variable 0).  Because Python integers are
arbitrary precision, the same code path handles 2-input gates and the
10-input reciprocal circuits in the paper's Table 2, and bitwise
operators give whole-table logic evaluation in one machine-level op.
"""

from __future__ import annotations

from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .bitops import full_mask, majority3, popcount, variable_pattern

#: Inputs simulated word-parallel per chunk by :func:`exhaustive_chunks`
#: (``2**16`` patterns: 8 KiB words).
_CHUNK_INPUTS = 16


class TruthTable:
    """An immutable Boolean function represented as a bit-parallel table."""

    __slots__ = ("num_vars", "bits")

    def __init__(self, num_vars: int, bits: int):
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        mask = full_mask(num_vars)
        if bits < 0:
            raise ValueError("truth table bits must be non-negative")
        if bits & ~mask:
            raise ValueError(
                f"bits 0x{bits:x} exceed the {1 << num_vars} patterns "
                f"of a {num_vars}-variable table"
            )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("TruthTable is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: bool, num_vars: int = 0) -> "TruthTable":
        """Constant 0 or constant 1 over ``num_vars`` variables."""
        return cls(num_vars, full_mask(num_vars) if value else 0)

    @classmethod
    def variable(cls, var: int, num_vars: int) -> "TruthTable":
        """The projection function ``x_var``."""
        return cls(num_vars, variable_pattern(var, num_vars))

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "TruthTable":
        """Build from an explicit output list indexed by pattern."""
        n = len(values)
        if n == 0 or n & (n - 1):
            raise ValueError(f"value list length {n} is not a power of two")
        num_vars = n.bit_length() - 1
        bits = 0
        for t, v in enumerate(values):
            if v not in (0, 1, True, False):
                raise ValueError(f"value at pattern {t} is {v!r}")
            if v:
                bits |= 1 << t
        return cls(num_vars, bits)

    @classmethod
    def from_function(cls, fn: Callable[..., int], num_vars: int) -> "TruthTable":
        """Tabulate a Python predicate ``fn(x0, x1, ..)`` exhaustively."""
        bits = 0
        for t in range(1 << num_vars):
            args = [(t >> i) & 1 for i in range(num_vars)]
            if fn(*args):
                bits |= 1 << t
        return cls(num_vars, bits)

    # -- queries ---------------------------------------------------------

    def value(self, pattern: int) -> int:
        """Function value under input pattern ``pattern``."""
        if not 0 <= pattern < (1 << self.num_vars):
            raise ValueError(f"pattern {pattern} out of range")
        return (self.bits >> pattern) & 1

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Function value for an LSB-first list of input bits."""
        if len(assignment) != self.num_vars:
            raise ValueError(
                f"expected {self.num_vars} input bits, got {len(assignment)}"
            )
        pattern = 0
        for i, bit in enumerate(assignment):
            if bit:
                pattern |= 1 << i
        return self.value(pattern)

    def count_ones(self) -> int:
        """Number of minterms (satisfying patterns)."""
        return popcount(self.bits)

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == full_mask(self.num_vars)

    def depends_on(self, var: int) -> bool:
        """True iff the function actually depends on variable ``var``."""
        neg, pos = self.cofactors(var)
        return neg.bits != pos.bits

    def support(self) -> List[int]:
        """Indices of variables the function truly depends on."""
        return [v for v in range(self.num_vars) if self.depends_on(v)]

    def cofactors(self, var: int) -> "tuple[TruthTable, TruthTable]":
        """Shannon cofactors ``(f|x=0, f|x=1)`` over the same variables."""
        mask = variable_pattern(var, self.num_vars)
        shift = 1 << var
        pos_half = self.bits & mask
        neg_half = self.bits & ~mask & full_mask(self.num_vars)
        neg = neg_half | (neg_half << shift)
        pos = pos_half | (pos_half >> shift)
        return TruthTable(self.num_vars, neg), TruthTable(self.num_vars, pos)

    # -- operators --------------------------------------------------------

    def _check_compatible(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other.num_vars != self.num_vars:
            raise ValueError(
                f"mixing {self.num_vars}- and {other.num_vars}-variable tables"
            )

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, self.bits ^ full_mask(self.num_vars))

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    def implies(self, other: "TruthTable") -> bool:
        """True iff ``self <= other`` pointwise (onset containment)."""
        self._check_compatible(other)
        return self.bits & ~other.bits == 0

    @staticmethod
    def majority(a: "TruthTable", b: "TruthTable", c: "TruthTable") -> "TruthTable":
        """Three-input majority — the native RQFP/AQFP operation."""
        a._check_compatible(b)
        a._check_compatible(c)
        return TruthTable(a.num_vars, majority3(a.bits, b.bits, c.bits))

    @staticmethod
    def mux(sel: "TruthTable", if0: "TruthTable", if1: "TruthTable") -> "TruthTable":
        """2:1 multiplexer ``sel ? if1 : if0``."""
        sel._check_compatible(if0)
        sel._check_compatible(if1)
        return TruthTable(
            sel.num_vars, (sel.bits & if1.bits) | (~sel.bits & if0.bits & full_mask(sel.num_vars))
        )

    # -- transforms -------------------------------------------------------

    def extend(self, num_vars: int) -> "TruthTable":
        """Reinterpret over a larger variable set (new vars are don't-cares
        in the sense that the function ignores them)."""
        if num_vars < self.num_vars:
            raise ValueError("cannot extend to fewer variables")
        bits = self.bits
        width = 1 << self.num_vars
        for _ in range(num_vars - self.num_vars):
            bits |= bits << width
            width <<= 1
        return TruthTable(num_vars, bits)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and other.num_vars == self.num_vars
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.bits))

    def __len__(self) -> int:
        return 1 << self.num_vars

    def to_binary_string(self) -> str:
        """Pattern-indexed binary string, MSB = highest pattern index."""
        return format(self.bits, f"0{1 << self.num_vars}b")

    def minterms(self) -> List[int]:
        """Sorted list of satisfying pattern indices."""
        return [t for t in range(1 << self.num_vars) if (self.bits >> t) & 1]

    def __repr__(self) -> str:
        return f"TruthTable({self.num_vars}, 0b{self.to_binary_string()})"


def tabulate_word(word_fn: Callable[[int], int], num_inputs: int,
                  num_outputs: int) -> List[TruthTable]:
    """Tabulate a word-level function ``word_fn(x) -> y`` into per-output
    truth tables.

    ``word_fn`` maps an ``num_inputs``-bit integer to an
    ``num_outputs``-bit integer; this is the canonical way benchmark
    generators define multi-output specs.
    """
    bits = [0] * num_outputs
    limit = 1 << num_outputs
    for t in range(1 << num_inputs):
        y = word_fn(t)
        if not 0 <= y < limit:
            raise ValueError(
                f"word function returned {y} for input {t}, "
                f"outside {num_outputs}-bit range"
            )
        for o in range(num_outputs):
            if (y >> o) & 1:
                bits[o] |= 1 << t
    return [TruthTable(num_inputs, b) for b in bits]


def tables_equal(a: Iterable[TruthTable], b: Iterable[TruthTable]) -> bool:
    """Elementwise equality of two output-table lists."""
    la, lb = list(a), list(b)
    return len(la) == len(lb) and all(x == y for x, y in zip(la, lb))


def exhaustive_chunks(num_inputs: int) -> Iterator[Tuple[int, List[int], int]]:
    """Every input pattern of ``num_inputs`` inputs, in simulator chunks.

    Yields ``(offset, input_words, mask)`` per chunk of ``2**16``
    patterns (a single chunk up to 16 inputs): the low inputs take their
    projection words and each higher input a constant word, so chunk
    slot ``t`` is input pattern ``offset + t`` and no word outgrows
    8 KiB however wide the function.
    """
    low = min(num_inputs, _CHUNK_INPUTS)
    high = num_inputs - low
    mask = full_mask(low)
    words = [variable_pattern(i, low) for i in range(low)]
    for chunk in range(1 << high):
        yield (chunk << low,
               words + [mask if (chunk >> i) & 1 else 0 for i in range(high)],
               mask)


def tabulate_simulation(simulate: Callable[[List[int], int], List[int]],
                        num_inputs: int) -> List[TruthTable]:
    """One truth table per output of a bit-parallel simulator.

    ``simulate(input_words, mask)`` returns one word per output (the
    ``simulate`` of ``Aig``, ``Mig``, ``RqfpNetlist`` or
    ``NetlistKernel``); it runs once per :func:`exhaustive_chunks`
    chunk, and each output's chunks are joined as bytes.
    """
    got = [simulate(words, mask)
           for _, words, mask in exhaustive_chunks(num_inputs)]
    if len(got) == 1:
        return [TruthTable(num_inputs, word) for word in got[0]]
    size = (1 << _CHUNK_INPUTS) // 8
    return [TruthTable(num_inputs, int.from_bytes(
                b"".join(word.to_bytes(size, "little") for word in parts),
                "little"))
            for parts in zip(*got)]


def first_mismatch(simulate: Callable[[List[int], int], List[int]],
                   tables: Sequence[TruthTable]) -> Optional[int]:
    """Lowest input pattern on which a bit-parallel simulator disagrees
    with ``tables``, or ``None`` when it realizes them.

    Exhaustive, one :func:`exhaustive_chunks` chunk at a time; the first
    chunk that differs ends the check.
    """
    for offset, words, mask in exhaustive_chunks(tables[0].num_vars):
        wrong = 0
        for value, table in zip(simulate(words, mask), tables):
            wrong |= (value ^ (table.bits >> offset)) & mask
        if wrong:
            return offset + (wrong & -wrong).bit_length() - 1
    return None
