"""Logic-network substrate: structurally hashed AIGs and MIGs."""

from .aig import (
    CONST0,
    CONST1,
    Aig,
    lit,
    lit_complement,
    lit_node,
    lit_not,
)
from .convert import (
    aig_to_mig,
    mig_to_aig,
    tables_to_aig,
    tables_to_mig,
)
from .mig import Mig

__all__ = [
    "Aig",
    "Mig",
    "lit",
    "lit_not",
    "lit_node",
    "lit_complement",
    "CONST0",
    "CONST1",
    "tables_to_aig",
    "tables_to_mig",
    "aig_to_mig",
    "mig_to_aig",
]
