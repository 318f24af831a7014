"""File-level front-end for the RCGP flow (paper Fig. 2, left edge).

Dispatches on file extension — ``.v`` (structural Verilog), ``.blif``,
``.aag``/``.aig`` (AIGER), ``.bench``, ``.pla``, ``.real`` (RevLib) —
and extracts a truth-table specification.  :func:`repro.api.synthesize`
calls :func:`load_spec` when it is given a design-file path.
"""

from __future__ import annotations

import os
from typing import List, Tuple

from .errors import ParseError
from .io import (MAX_INPUTS, read_aiger, read_bench, read_blif, read_pla,
                 read_real, read_verilog)
from .logic.truth_table import TruthTable
from .reversible.spec import circuit_spec


def load_spec(path: str) -> Tuple[List[TruthTable], str]:
    """Load any supported design file into ``(tables, design_name)``."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".blif":
        network = read_blif(path)
    elif ext in (".aag", ".aig"):
        network = read_aiger(path)  # handles ASCII and binary AIGER
    elif ext == ".v":
        network = read_verilog(path)
    elif ext == ".bench":
        network = read_bench(path)
    elif ext == ".pla":
        tables, _, _ = read_pla(path)
        return tables, os.path.splitext(os.path.basename(path))[0]
    elif ext == ".real":
        circuit = read_real(path)
        return circuit_spec(circuit), circuit.name or \
            os.path.splitext(os.path.basename(path))[0]
    else:
        raise ParseError(f"unsupported design extension {ext!r}", path)
    if network.num_inputs > MAX_INPUTS:
        raise ParseError(
            f"{path}: {network.num_inputs} inputs exceed the exhaustive "
            f"specification limit ({MAX_INPUTS})", path)
    name = network.name or os.path.splitext(os.path.basename(path))[0]
    return network.to_truth_tables(), name
