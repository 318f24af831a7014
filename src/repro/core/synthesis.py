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

The Initialization baseline depends on the spec alone, so each process
computes it once per spec: :func:`baseline_initialization` keeps the
last :data:`BASELINE_MEMO_SIZE` baselines in a memo keyed by a digest
of the spec's tables, as plain arrays, and builds fresh netlist, plan
and cost objects from them on every call.
"""

from __future__ import annotations

import hashlib
import threading
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..logic.truth_table import TruthTable
from ..networks.convert import aig_to_mig, tables_to_aig
from ..opt.aig_opt import resyn2
from ..opt.mig_opt import aqfp_resynthesis
from ..rqfp.buffer_opt import optimal_levels
from ..rqfp.buffers import BufferPlan, plan_for_levels
from ..rqfp.from_mig import mig_to_rqfp
from ..rqfp.metrics import CircuitCost, circuit_cost
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.splitters import insert_splitters
from .engine import EvolutionResult
from .kernel import NetlistKernel


@dataclass
class BaselineResult:
    """The Initialization baseline: the initialization netlist with its
    exact (:func:`~repro.rqfp.buffer_opt.optimal_levels`) buffer plan."""

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


#: How many specs' Initialization baselines one process keeps; the least
#: recently used one goes first.
BASELINE_MEMO_SIZE = 32


@dataclass(frozen=True)
class _Baseline:
    """One memo entry: the Initialization baseline as plain values."""

    genome: NetlistKernel   # gene arrays and port names; never handed out
    levels: array           # the exact plan's level per gate
    depth: int
    cost: Tuple[int, int, int, int, float]  # n_r, n_b, n_d, n_g, runtime

    def result(self, name: str) -> BaselineResult:
        """Fresh objects named ``name``: nothing aliases the entry."""
        netlist = self.genome.to_netlist(name)
        plan = plan_for_levels(netlist, list(self.levels), self.depth)
        return BaselineResult(netlist, plan, CircuitCost(*self.cost))


_BASELINES: "OrderedDict[bytes, _Baseline]" = OrderedDict()
_BASELINES_LOCK = threading.Lock()


def clear_baselines() -> None:
    """Empty the process-wide Initialization memo (used by tests and
    benchmarks that time the cold front end)."""
    with _BASELINES_LOCK:
        _BASELINES.clear()


def baselines_memoized() -> int:
    """How many specs' baselines the memo holds."""
    return len(_BASELINES)


def _spec_digest(spec: Sequence[TruthTable]) -> bytes:
    """Content key of a spec: every output's input count and bits, in
    order."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(len(spec).to_bytes(4, "little"))
    for table in spec:
        width = ((1 << table.num_vars) + 7) // 8
        digest.update(table.num_vars.to_bytes(4, "little"))
        digest.update(table.bits.to_bytes(width, "little"))
    return digest.digest()


def _initialize(spec: List[TruthTable]) -> _Baseline:
    """The cold computation behind a memo entry."""
    start = time.monotonic()
    netlist = initialize_netlist(spec)
    plan = optimal_levels(netlist)
    runtime = time.monotonic() - start
    cost = circuit_cost(netlist, plan)
    return _Baseline(NetlistKernel.from_netlist(netlist),
                     array("q", plan.levels), plan.depth,
                     (cost.n_r, cost.n_b, cost.n_d, cost.n_g, runtime))


def baseline_initialization(spec: Sequence[TruthTable],
                            name: str = "") -> BaselineResult:
    """Baseline 1: the initialization netlist buffered directly.

    Computed once per spec and process, then served from the memo: the
    result's objects are new on every call and carry ``name``, and
    ``cost.runtime`` is the cold computation's runtime.  Threads may
    race to compute one spec twice; the first to finish is kept, and
    every caller gets its baseline.
    """
    spec = list(spec)
    key = _spec_digest(spec)
    with _BASELINES_LOCK:
        entry = _BASELINES.get(key)
        if entry is not None:
            _BASELINES.move_to_end(key)
    if entry is None:
        computed = _initialize(spec)
        with _BASELINES_LOCK:
            entry = _BASELINES.setdefault(key, computed)
            _BASELINES.move_to_end(key)
            while len(_BASELINES) > BASELINE_MEMO_SIZE:
                _BASELINES.popitem(last=False)
    return entry.result(name)
