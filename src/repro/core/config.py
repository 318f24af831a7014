"""Configuration for the RCGP optimizer.

Defaults follow the paper where stated (§4): linear CGP (``n_R = 1``,
implicit in the netlist representation), levels-back equal to the column
count, mutation rate ``mu = 1.0``, and a ``(1 + lambda)`` evolution
strategy.  The paper's generation budget (5·10⁷) is impractical per run
of a pure-Python reproduction, so :attr:`RcgpConfig.generations`
defaults far lower; the benchmark harness documents the budget used for
every reported number.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional


#: Config fields that never change what a run computes — only how fast
#: it runs, what it logs, or how it survives infrastructure faults.  A
#: job's identity hash leaves them out, so a submission that differs
#: only in them resumes or serves the same job.
OPERATIONAL_CONFIG_FIELDS = frozenset({
    "eval_cache_size", "telemetry_path",
    "batch_timeout", "batch_retries", "verify_result",
})


@dataclass
class RcgpConfig:
    """Tunable parameters of the CGP-based optimization (§3.2).

    There is no worker count here: worker processes belong to a
    :class:`~repro.api.Session` (``Session(workers=N)``, ``--workers``)
    and are shared by all its jobs.  Stored configs and HTTP bodies
    that still carry ``workers`` or a retired knob (``track_history``,
    ``verify_method``, ``count_buffers_in_fitness``) load, because
    :meth:`from_dict` drops unknown keys.
    """

    generations: int = 20_000
    """Maximum number of generations ``N`` (paper: 5·10⁷)."""

    offspring: int = 4
    """λ of the (1+λ) evolution strategy (classic CGP default)."""

    mutation_rate: float = 1.0
    """μ ∈ [0, 1]; up to ``max(1, round(mu * n_L))`` genes mutate per
    offspring, with the actual count drawn uniformly (paper: μ = 1)."""

    max_mutated_genes: Optional[int] = None
    """Absolute cap on mutated genes per offspring, applied after the
    rate (None: no cap).  Useful on large chromosomes where even a small
    μ would touch dozens of genes and destroy almost every offspring at
    laptop-scale generation budgets."""

    seed: Optional[int] = None
    """Random seed; None draws entropy from the OS."""

    shrink: str = "on_improvement"
    """When to remove inactive gates from the parent (§3.2.3):
    ``"always"``, ``"on_improvement"`` or ``"never"``."""

    exhaustive_input_limit: int = 14
    """Fitness simulates all ``2^n`` patterns when ``n_pi`` is at most
    this, else a sampled pattern set; the paper's entire benchmark suite
    (≤10 inputs) stays exhaustive.  Fitness sampling only: every formal
    decision (fitness's formal leg, the result gate, ``rcgp verify``)
    keys on ``repro.core.fitness.EXHAUSTIVE_FORMAL_LIMIT``."""

    simulation_patterns: int = 2048
    """Random pattern count when simulation cannot be exhaustive."""

    verify_with_sat: bool = True
    """Run formal verification on simulation-clean candidates when
    simulation was not exhaustive (the paper's sim + formal
    combination).  Up to ``EXHAUSTIVE_FORMAL_LIMIT`` (20) inputs the
    check is exhaustive simulation of the shrunk candidate, with the
    SAT miter supplying a failing candidate's counterexample (see
    :mod:`repro.core.fitness`)."""

    sat_conflict_budget: int = 50_000
    """Conflict budget per CEC call.  Above ``EXHAUSTIVE_FORMAL_LIMIT``
    inputs, budget exhaustion rejects the candidate conservatively; at
    or below it the verdict is exhaustive simulation's, and the budget
    only bounds the search for a failing candidate's
    counterexample."""

    stagnation_limit: Optional[int] = None
    """Stop after this many generations without fitness improvement
    (None: run the full budget, like the paper)."""

    time_budget: Optional[float] = None
    """Wall-clock cap in seconds (None: unlimited)."""

    simplify_wires: bool = True
    """Apply the deterministic wire-gate bypass (splitters/buffers/
    inverters with a single used, pass-through output) to improved
    parents and to the final circuit.  Exact and Lamarckian: the genome
    itself is simplified, sparing CGP from rediscovering bookkeeping
    removals by chance."""

    eval_cache_size: int = 100_000
    """Retired; has no effect.  It sized a genome → fitness memo cache
    that hit well under 1% of evaluations at μ = 1 and kept pooled runs
    off span replay.  Still validated (``>= 0``) so existing configs
    and stored job records load unchanged."""

    telemetry_path: Optional[str] = None
    """Write the job's JSONL telemetry events to this file (None: no
    telemetry).  A job (:func:`repro.api.synthesize`, a
    :class:`~repro.api.Session`) opens it; a bare
    :class:`~repro.core.engine.EvolutionRun` refuses it and takes a
    :class:`~repro.core.engine.TelemetryWriter` instead."""

    batch_timeout: Optional[float] = None
    """Wall-clock cap in seconds on one replay span's round trip to a
    pool worker (None: wait forever).  A span that overruns is treated
    like a crashed one: the worker is replaced and the span re-sent, up
    to :attr:`batch_retries` times.  Span sizing also keeps each round
    trip well under this cap."""

    batch_retries: int = 2
    """How many times a lost span (crashed, hung or disconnected worker)
    is re-sent, one generation long, before the slice finishes inline.
    The next slice tries the workers again."""

    verify_result: bool = False
    """End-of-job result gate: decide on the object path that the best
    candidate realizes the spec (:func:`repro.core.verify.realizes`:
    exhaustive simulation up to ``EXHAUSTIVE_FORMAL_LIMIT`` inputs, a
    sampled re-simulation and the SAT miter above) and check RQFP
    legality (single fan-out + path balancing via
    :func:`repro.rqfp.validate.validate_circuit`).  Violations raise
    typed :mod:`repro.errors` exceptions instead of silently returning an
    illegal or wrong circuit; :meth:`repro.jobs.Job.result` raises the
    same class.  Off by default: the gate runs once per job (a window of
    :func:`~repro.core.windowing.windowed_optimize` is one), after its
    last slice, on the buffer plan the result reports, but SAT proofs on
    specs above the limit can be costly.  A bare
    :class:`~repro.core.engine.EvolutionRun` refuses it."""

    # Mutation-kind toggles, used by the ablation benchmarks (A1).
    enable_input_mutation: bool = True
    enable_output_mutation: bool = True
    enable_inverter_mutation: bool = True

    # ------------------------------------------------------------------
    # Serialization: the single canonical way a config crosses a
    # process/file boundary (checkpoints, multi-start workers, pool
    # initializers).  Every field round-trips — nothing is dropped.

    def to_dict(self) -> Dict[str, Any]:
        """All fields as a plain JSON-serializable dictionary."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RcgpConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored so configs written by newer versions
        still load (forward compatibility for checkpoints).
        """
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def replace(self, **changes: Any) -> "RcgpConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self):
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.offspring < 1:
            raise ValueError("offspring (lambda) must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.shrink not in ("always", "on_improvement", "never"):
            raise ValueError(f"unknown shrink mode {self.shrink!r}")
        if self.eval_cache_size < 0:
            raise ValueError("eval_cache_size must be >= 0")
        if self.batch_retries < 0:
            raise ValueError("batch_retries must be >= 0")
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise ValueError("batch_timeout must be positive")
        if not (self.enable_input_mutation or self.enable_output_mutation
                or self.enable_inverter_mutation):
            raise ValueError("at least one mutation kind must stay enabled")
