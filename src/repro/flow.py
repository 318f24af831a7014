"""File-level front-end for the RCGP flow (paper Fig. 2, left edge).

Dispatches on file extension — ``.v`` (structural Verilog), ``.blif``,
``.aag`` (ASCII AIGER), ``.pla``, ``.real`` (RevLib) — extracts a
truth-table specification, and drives the synthesis pipeline.  This is
the programmatic counterpart of the ``rcgp`` command-line tool.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Optional, Tuple

from .core.config import RcgpConfig
from .core.synthesis import SynthesisResult
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


def synthesize_file(path: str,
                    config: Optional[RcgpConfig] = None) -> SynthesisResult:
    """End-to-end: design file → optimized, buffered RQFP circuit.

    .. deprecated:: 1.1
        Use :func:`repro.api.synthesize`, which accepts file paths
        directly (and shared sessions).  This shim forwards there.
    """
    warnings.warn(
        "synthesize_file is deprecated; use repro.api.synthesize, "
        "which accepts design-file paths directly",
        DeprecationWarning, stacklevel=2)
    from .api import synthesize
    return synthesize(path, config)
