"""End-of-run result gate: legality + functional equivalence.

The evolution engine's fitness function already simulates (and, for
sampled specs, SAT-checks) every candidate — but through whichever fast
path is configured: the flat kernel, incremental cone resimulation,
memoized fitness.  This module is the *independent* check that runs
once per job on the final answer (:class:`repro.jobs.Scheduler`, after
the job's last slice; :func:`~repro.core.windowing.optimize_window`,
once per spliced window), off the hot path and sharing none of those
optimizations:

1. **Re-simulation on the object path** — the final
   :class:`~repro.rqfp.netlist.RqfpNetlist` (never the kernel) is
   simulated against the spec: exhaustively when the input count
   permits, otherwise on a freshly seeded pattern set.
2. **RQFP legality** — :func:`repro.rqfp.validate.validate_circuit`
   checks the single-fan-out law and path balancing against the
   circuit's :class:`~repro.rqfp.buffers.BufferPlan`.
3. **SAT equivalence** — the CEC miter
   (:func:`repro.sat.equivalence.check_against_tables`) proves the
   netlist realizes the spec, independent of the simulation patterns.

Violations raise typed :mod:`repro.errors` exceptions
(:class:`~repro.errors.EquivalenceViolation`,
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

from ..errors import EquivalenceViolation, VerificationUndecided
from ..logic.truth_table import TruthTable
from ..rqfp.buffer_opt import optimal_levels
from ..rqfp.buffers import BufferPlan
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.validate import validate_circuit
from ..sat.equivalence import check_against_tables
from .config import RcgpConfig

__all__ = ["VerificationReport", "verify_evolution_result"]

#: Pattern count for the gate's sampled re-simulation leg.  Independent
#: of ``config.simulation_patterns`` on purpose: the gate must not
#: inherit a weak fitness-side pattern budget.
_GATE_PATTERNS = 4096


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a clean result-gate pass."""

    simulated_patterns: int
    """Patterns re-simulated (``2^n`` when exhaustive)."""

    exhaustive: bool
    """Whether re-simulation covered the whole input space."""

    sat_checked: bool
    """Whether the SAT miter ran (skipped when simulation was
    exhaustive — exhaustive simulation already is a proof)."""

    sat_conflicts: int
    """CDCL conflicts spent by the miter (0 when skipped)."""

    plan: Optional[BufferPlan] = None
    """The buffer plan the legality check validated against."""


def _resimulate(netlist: RqfpNetlist, spec: Sequence[TruthTable],
                exhaustive: bool, seed: Optional[int]) -> int:
    """Object-path simulation check; returns the pattern count."""
    num_inputs = netlist.num_inputs
    if exhaustive:
        if netlist.to_truth_tables() != list(spec):
            raise EquivalenceViolation(
                "result gate: exhaustive re-simulation disagrees with "
                "the specification")
        return 1 << num_inputs
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
    exhaustive = netlist.num_inputs <= config.exhaustive_input_limit

    # 1. Functional: object-path re-simulation.
    simulated = _resimulate(netlist, spec, exhaustive, config.seed)

    # 2. Legal: single fan-out + path balancing against the plan.
    if plan is None:
        plan = optimal_levels(netlist)
    validate_circuit(netlist, plan)

    # 3. Formal: SAT miter, unless simulation already was exhaustive.
    conflicts = 0
    if not exhaustive:
        result = check_against_tables(
            netlist.encoder(), spec,
            conflict_budget=config.sat_conflict_budget)
        conflicts = result.conflicts
        if result.equivalent is False:
            raise EquivalenceViolation(
                "result gate: SAT found the circuit inequivalent to "
                "the specification",
                counterexample=result.counterexample)
        if result.equivalent is None:
            raise VerificationUndecided(
                "result gate: SAT conflict budget exhausted "
                f"({conflicts} conflicts) with equivalence undecided")
    return VerificationReport(
        simulated_patterns=simulated, exhaustive=exhaustive,
        sat_checked=not exhaustive, sat_conflicts=conflicts, plan=plan)
