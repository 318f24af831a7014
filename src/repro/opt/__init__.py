"""Logic optimization passes (ABC / mockturtle substitutes)."""

from .aig_opt import balance, collapse_refactor, refactor, resyn2
from .mig_opt import (
    aqfp_resynthesis,
    mig_algebraic_rewrite,
    relevance_rewrite,
    rewrite_associativity,
    rewrite_distributivity,
)

__all__ = [
    "balance",
    "refactor",
    "collapse_refactor",
    "resyn2",
    "aqfp_resynthesis",
    "mig_algebraic_rewrite",
    "rewrite_distributivity",
    "rewrite_associativity",
    "relevance_rewrite",
]
