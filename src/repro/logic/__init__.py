"""Boolean-function substrate: bit-parallel truth tables and ISOP covers."""

from .bitops import (
    bits_of,
    from_bits,
    full_mask,
    majority3,
    parity,
    popcount,
    variable_pattern,
)
from .bdd import BddManager, bdd_equivalent, build_rqfp_bdds
from .isop import Cube, best_phase_isop, cover_literals, cover_table, isop
from .truth_table import TruthTable, tables_equal, tabulate_word

__all__ = [
    "TruthTable",
    "tabulate_word",
    "tables_equal",
    "Cube",
    "isop",
    "best_phase_isop",
    "cover_table",
    "cover_literals",
    "BddManager",
    "bdd_equivalent",
    "build_rqfp_bdds",
    "full_mask",
    "variable_pattern",
    "popcount",
    "parity",
    "bits_of",
    "from_bits",
    "majority3",
]
