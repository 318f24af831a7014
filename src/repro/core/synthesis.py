"""The stages of the RCGP synthesis flow (paper Fig. 2).

``spec → logic synthesis (resyn2) → MIG resynthesis (aqfp) → RQFP
netlist conversion → splitter insertion → CGP optimization → buffer
insertion``.

:func:`baseline_initialization` stops right after splitter insertion and
buffers the result directly — the paper's first baseline (the
"Initialization" columns of Tables 1 and 2).  The full flow is
:func:`repro.api.synthesize`: a scheduler job that starts from
:func:`baseline_initialization` and runs the CGP optimization
(:class:`~repro.core.engine.EvolutionRun`) on its netlist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from ..logic.truth_table import TruthTable
from ..networks.convert import aig_to_mig, tables_to_aig
from ..opt.aig_opt import resyn2
from ..opt.mig_opt import aqfp_resynthesis
from ..rqfp.buffer_opt import optimal_levels
from ..rqfp.buffers import BufferPlan
from ..rqfp.from_mig import mig_to_rqfp
from ..rqfp.metrics import CircuitCost, circuit_cost
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.splitters import insert_splitters
from .evolution import EvolutionResult


@dataclass
class BaselineResult:
    """The heuristic baseline: initialization + buffer insertion."""

    netlist: RqfpNetlist
    plan: BufferPlan
    cost: CircuitCost


@dataclass
class SynthesisResult:
    """Full RCGP flow output."""

    netlist: RqfpNetlist          # optimized, fan-out legal, pre-buffer
    plan: BufferPlan              # buffer insertion schedule
    cost: CircuitCost             # the RCGP columns of the tables
    initial: BaselineResult       # the Initialization columns
    evolution: EvolutionResult
    spec: List[TruthTable]

    def verify(self) -> bool:
        """Exhaustive check that the final netlist realizes the spec."""
        return self.netlist.to_truth_tables() == self.spec


def initialize_netlist(spec: Sequence[TruthTable],
                       name: str = "") -> RqfpNetlist:
    """Initialization phase (§3.1): conventional synthesis, MIG
    resynthesis, RQFP conversion and splitter legalization."""
    spec = list(spec)
    aig = resyn2(tables_to_aig(spec, name=name))
    mig = aqfp_resynthesis(aig_to_mig(aig))
    netlist = mig_to_rqfp(mig)
    return insert_splitters(netlist)


def baseline_initialization(spec: Sequence[TruthTable],
                            name: str = "") -> BaselineResult:
    """Baseline 1: the initialization netlist buffered directly."""
    start = time.monotonic()
    netlist = initialize_netlist(spec, name)
    plan = optimal_levels(netlist)
    cost = circuit_cost(netlist, plan, runtime=time.monotonic() - start)
    return BaselineResult(netlist, plan, cost)
