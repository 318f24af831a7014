"""The (1 + λ) evolution strategy driving RCGP (§3.2.4, Algorithm 1).

Each generation mutates the single best parent into λ offspring; an
offspring whose fitness is **better or equal** becomes the next parent
(neutral drift is what lets CGP traverse plateaus).  Useless gates are
shrunk from the accepted parent according to the configured policy,
reducing the chromosome length — and with it the search space — exactly
as §3.2.3 argues.

The loop itself lives in :mod:`repro.core.engine` behind the
:class:`~repro.core.engine.EvolutionRun` API, which adds span replay on
pool workers and telemetry without changing the algorithm;
:func:`evolve` is the stable functional entry point over it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from .config import RcgpConfig
from .engine import EvolutionResult, EvolutionRun, ProgressCallback

__all__ = ["EvolutionResult", "ProgressCallback", "evolve"]


def evolve(initial: RqfpNetlist, spec: Sequence[TruthTable],
           config: Optional[RcgpConfig] = None,
           progress: Optional[ProgressCallback] = None) -> EvolutionResult:
    """Optimize ``initial`` (a functional RQFP netlist) against ``spec``.

    Thin shim over :class:`repro.core.engine.EvolutionRun` (in-process;
    worker pools belong to a :class:`repro.api.Session`); set
    ``config.telemetry_path`` for per-generation JSONL events.
    """
    return EvolutionRun(spec, config, initial=initial,
                        progress=progress).run()
