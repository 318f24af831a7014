"""Benchmark specifications: RevLib testcases and reciprocal circuits."""

from .. import logic  # noqa: F401  (re-export convenience)
from .extras import (
    EXTRA_BENCHMARKS,
    extra_spec,
    multiplier,
    one_hot_checker,
    parity,
    rd,
    rd53,
    rd73,
    ripple_adder,
    sym,
    sym6,
    sym9,
)
from .reciprocal import intdiv
from .registry import (
    BENCHMARKS,
    TABLE1_NAMES,
    TABLE2_NAMES,
    Benchmark,
    get_benchmark,
    table_benchmarks,
)
from .revlib import (
    alu,
    c17,
    decoder,
    four_gt_10,
    full_adder,
    graycode,
    gt_n,
    ham3,
    hwb,
    hwb8,
    mod5adder,
    mux4,
    revlib_4_49,
)

__all__ = [
    "Benchmark",
    "BENCHMARKS",
    "TABLE1_NAMES",
    "TABLE2_NAMES",
    "get_benchmark",
    "table_benchmarks",
    "full_adder",
    "four_gt_10",
    "gt_n",
    "alu",
    "c17",
    "decoder",
    "graycode",
    "ham3",
    "mux4",
    "revlib_4_49",
    "mod5adder",
    "hwb",
    "hwb8",
    "intdiv",
    "EXTRA_BENCHMARKS",
    "extra_spec",
    "rd", "rd53", "rd73",
    "sym", "sym6", "sym9",
    "ripple_adder", "multiplier", "parity", "one_hot_checker",
]
