"""One equivalence rule, and the end-of-run result gate built on it.

:func:`realizes` decides whether a netlist realizes a truth-table spec
by the rule fitness's formal leg uses (§3.2.1): exhaustive simulation up
to :data:`repro.core.fitness.EXHAUSTIVE_FORMAL_LIMIT` inputs, the SAT
miter above.  The result gate, :meth:`SynthesisResult.verify()
<repro.core.synthesis.SynthesisResult.verify>` and ``rcgp verify`` all
decide through it.

The evolution engine's fitness function already checks every candidate
— but through whichever fast path is configured: the flat kernel,
incremental cone resimulation, memoized fitness.  The gate is the
*independent* check that runs once per job on the final answer
(:class:`repro.jobs.Scheduler`, after the job's last slice;
:func:`~repro.core.windowing.optimize_window`, once per spliced window),
off the hot path and sharing none of those optimizations:

1. **Equivalence on the object path** — the final
   :class:`~repro.rqfp.netlist.RqfpNetlist` (never the kernel) goes
   through :func:`realizes`, under ``config.sat_conflict_budget``;
   above the limit a re-simulation on a freshly seeded pattern set
   runs first.
2. **RQFP legality** — :func:`repro.rqfp.validate.validate_circuit`
   checks the single-fan-out law and path balancing against the
   circuit's :class:`~repro.rqfp.buffers.BufferPlan`, at every width.

Violations raise typed :mod:`repro.errors` exceptions
(:class:`~repro.errors.EquivalenceViolation`, with a counterexample,
:class:`~repro.errors.FanoutViolation`,
:class:`~repro.errors.PathBalanceViolation`,
:class:`~repro.errors.VerificationUndecided`); a clean pass returns a
:class:`VerificationReport` for telemetry.  Enable per job with
``RcgpConfig(verify_result=True)`` or the CLI's ``--verify``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import (EquivalenceViolation, VerificationError,
                      VerificationUndecided)
from ..logic.truth_table import TruthTable, first_mismatch
from ..rqfp.buffer_opt import optimal_levels
from ..rqfp.buffers import BufferPlan
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.validate import validate_circuit
from ..sat.equivalence import CecResult, check_against_tables
from ..sat.solver import SAT
from . import fitness
from .config import RcgpConfig

__all__ = ["VerificationReport", "realizes", "verify_evolution_result"]

#: Pattern count for the gate's sampled re-simulation leg.  Independent
#: of ``config.simulation_patterns`` on purpose: the gate must not
#: inherit a weak fitness-side pattern budget.
_GATE_PATTERNS = 4096


def realizes(netlist: RqfpNetlist, spec: Sequence[TruthTable],
             conflict_budget: Optional[int] = None) -> CecResult:
    """Decide whether ``netlist`` realizes ``spec``, by fitness's rule.

    Up to :data:`~repro.core.fitness.EXHAUSTIVE_FORMAL_LIMIT` inputs
    (read per call) the netlist is simulated exhaustively on the object
    path, in ``2**16``-pattern chunks
    (:func:`~repro.logic.truth_table.first_mismatch`): the result has
    ``method="simulation"`` and no conflicts, and an inequivalent one
    carries the lowest input pattern that separates netlist and spec.
    Wider netlists go to the SAT miter (:func:`check_against_tables`)
    under ``conflict_budget``; ``None`` means unbounded, so the answer
    is always decided.  A netlist whose input or output count differs
    from the spec's raises :class:`~repro.errors.VerificationError`.
    """
    spec = list(spec)
    if netlist.num_inputs != spec[0].num_vars or \
            netlist.num_outputs != len(spec):
        raise VerificationError(
            f"interface mismatch: netlist {netlist.num_inputs}->"
            f"{netlist.num_outputs}, spec {spec[0].num_vars}->{len(spec)}")
    if netlist.num_inputs > fitness.EXHAUSTIVE_FORMAL_LIMIT:
        return check_against_tables(netlist.encoder(), spec,
                                    conflict_budget=conflict_budget)
    pattern = first_mismatch(netlist.simulate, spec)
    if pattern is None:
        return CecResult(True, method="simulation")
    return CecResult(False, pattern, status=SAT, method="simulation")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a clean result-gate pass."""

    simulated_patterns: int
    """Patterns re-simulated (``2^n`` when exhaustive)."""

    exhaustive: bool
    """Whether simulation covered the whole input space (up to
    :data:`~repro.core.fitness.EXHAUSTIVE_FORMAL_LIMIT` inputs)."""

    sat_checked: bool
    """Whether the SAT miter ran (only above the limit: exhaustive
    simulation already is a proof)."""

    sat_conflicts: int
    """CDCL conflicts spent by the miter (0 when skipped)."""

    plan: Optional[BufferPlan] = None
    """The buffer plan the legality check validated against."""


def _resimulate(netlist: RqfpNetlist, spec: Sequence[TruthTable],
                seed: Optional[int]) -> int:
    """Sampled object-path simulation check; returns the pattern count."""
    num_inputs = netlist.num_inputs
    rng = random.Random(0 if seed is None else seed ^ 0x5EED)
    patterns = [rng.getrandbits(num_inputs) for _ in range(_GATE_PATTERNS)]
    mask = (1 << len(patterns)) - 1
    words = [0] * num_inputs
    expected = [0] * len(spec)
    for slot, pattern in enumerate(patterns):
        for i in range(num_inputs):
            if (pattern >> i) & 1:
                words[i] |= 1 << slot
        for o, table in enumerate(spec):
            if table.value(pattern):
                expected[o] |= 1 << slot
    got = netlist.simulate(words, mask)
    for o, (value, want) in enumerate(zip(got, expected)):
        wrong = (value ^ want) & mask
        if wrong:
            slot = wrong.bit_length() - 1
            raise EquivalenceViolation(
                f"result gate: re-simulation disagrees with the "
                f"specification on output {o}",
                counterexample=patterns[slot])
    return len(patterns)


def verify_evolution_result(netlist: RqfpNetlist,
                            spec: Sequence[TruthTable],
                            config: Optional[RcgpConfig] = None,
                            plan: Optional[BufferPlan] = None) \
        -> VerificationReport:
    """Gate a finished job's netlist; raise on any violation.

    ``plan`` defaults to :func:`~repro.rqfp.buffer_opt.optimal_levels`
    over the netlist (the plan results report).
    """
    config = config or RcgpConfig()
    spec = list(spec)
    exhaustive = netlist.num_inputs <= fitness.EXHAUSTIVE_FORMAL_LIMIT

    # 1. Functional: the one rule, after a cheap sample above the limit.
    simulated = 1 << netlist.num_inputs if exhaustive else \
        _resimulate(netlist, spec, config.seed)
    result = realizes(netlist, spec,
                      conflict_budget=config.sat_conflict_budget)
    if result.equivalent is False:
        method = "exhaustive simulation" if exhaustive else "SAT"
        raise EquivalenceViolation(
            f"result gate: {method} found the circuit inequivalent to "
            "the specification",
            counterexample=result.counterexample)
    if result.equivalent is None:
        raise VerificationUndecided(
            "result gate: SAT conflict budget exhausted "
            f"({result.conflicts} conflicts) with equivalence undecided")

    # 2. Legal: single fan-out + path balancing against the plan.
    if plan is None:
        plan = optimal_levels(netlist)
    validate_circuit(netlist, plan)
    return VerificationReport(
        simulated_patterns=simulated, exhaustive=exhaustive,
        sat_checked=not exhaustive, sat_conflicts=result.conflicts,
        plan=plan)
