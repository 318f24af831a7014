"""Fitness evaluation for RCGP candidates (§3.2.1).

Evaluation is two-phase, exactly as the paper describes:

1. **Function evaluation** — the success rate of simulation-based
   equivalence checking against the specification.  When the input count
   permits, simulation is exhaustive and therefore exact; otherwise a
   fixed random pattern set is used and simulation-clean candidates are
   formally confirmed (the "circuit simulation + formal verification"
   combination).  Up to :data:`EXHAUSTIVE_FORMAL_LIMIT` inputs the
   confirmation is exhaustive simulation of the one shrunk candidate,
   far cheaper there than the SAT miter, which still supplies the
   counterexample of a candidate that fails; wider specs take the
   miter.  Counterexamples are fed back into the pattern set so the
   same wrong candidate is never expensive twice.

2. **Performance evaluation** — only at 100 % success: the number of
   RQFP gates ``n_r`` first, then garbage outputs ``n_g``, then the
   estimated buffer count ``n_b``.

Candidates whose primary outputs share ports (possible after the paper's
direct PO reconnection mutation) are costed through splitter
legalization rather than rejected, so illegal sharing is paid for, never
smuggled in.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

from ..logic.bitops import full_mask, variable_pattern
from ..logic.truth_table import TruthTable, first_mismatch
from ..rqfp.buffers import estimate_buffers
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.simplify import bypass_wire_gates
from ..rqfp.splitters import insert_splitters
from ..sat.equivalence import check_against_tables
from .config import RcgpConfig
from .kernel import NetlistKernel
from .mutation import MutationDelta
from .simstate import SimulationState

#: Formal verdicts an :class:`Evaluator` remembers, keyed by the active
#: genome; once full, the oldest entry is evicted first.  Repeats are
#: nearly always the circuit proven just before (a child whose mutations
#: all landed on inactive genes shrinks to its parent's active circuit).
VERDICT_MEMO_SIZE = 64

#: Widest spec whose formal check is exhaustive simulation rather than a
#: proof.  On ``one_hot_checker(n)``'s initial netlist the SAT miter
#: costs 20-150x as much as exhaustive simulation at 12-18 inputs, about
#: 6x at 20 and under 2x at 22, as simulation doubles per input (2-vCPU
#: x86 VM, CPython 3.11; table in ``docs/architecture.md``).
EXHAUSTIVE_FORMAL_LIMIT = 20

#: Sort key of an early-stop output check ``(source gate, port,
#: expected word)``; the stable sort keeps output order among ties.
_source_gate = itemgetter(0)


@dataclass(frozen=True, eq=False)
class Fitness:
    """Lexicographic fitness; bigger key is better.

    All comparisons — including equality and hashing — are defined over
    :meth:`key`, giving a consistent total order: two fitnesses with
    equal keys are equal even when their raw fields differ (e.g. two
    non-functional candidates with different gate counts).  Compare
    raw fields explicitly when object identity matters.
    """

    success: float
    n_r: int = 0
    n_g: int = 0
    n_b: int = 0

    @property
    def functional(self) -> bool:
        return self.success >= 1.0

    def key(self) -> Tuple[float, int, int, int]:
        if not self.functional:
            return (self.success, 0, 0, 0)
        return (1.0, -self.n_r, -self.n_g, -self.n_b)

    def __hash__(self) -> int:
        return hash(self.key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fitness):
            return NotImplemented
        return self.key() == other.key()

    def __lt__(self, other: "Fitness") -> bool:
        if not isinstance(other, Fitness):
            return NotImplemented
        return self.key() < other.key()

    def __le__(self, other: "Fitness") -> bool:
        if not isinstance(other, Fitness):
            return NotImplemented
        return self.key() <= other.key()

    def __ge__(self, other: "Fitness") -> bool:
        if not isinstance(other, Fitness):
            return NotImplemented
        return self.key() >= other.key()

    def __gt__(self, other: "Fitness") -> bool:
        if not isinstance(other, Fitness):
            return NotImplemented
        return self.key() > other.key()

    def __str__(self) -> str:
        if not self.functional:
            return f"Fitness(success={self.success:.4%})"
        return (f"Fitness(success=100%, n_r={self.n_r}, n_g={self.n_g}, "
                f"n_b={self.n_b})")


class Evaluator:
    """Evaluates RQFP netlists against a truth-table specification."""

    def __init__(self, spec: Sequence[TruthTable], config: RcgpConfig,
                 rng: Optional[random.Random] = None):
        self.spec = list(spec)
        if not self.spec:
            raise ValueError("specification needs at least one output")
        self.num_inputs = self.spec[0].num_vars
        if any(t.num_vars != self.num_inputs for t in self.spec):
            raise ValueError("specification outputs disagree on input count")
        self.config = config
        self.exhaustive = self.num_inputs <= config.exhaustive_input_limit
        rng = rng or random.Random(config.seed)
        if self.exhaustive:
            self._mask = full_mask(self.num_inputs)
            self._words = [variable_pattern(i, self.num_inputs)
                           for i in range(self.num_inputs)]
            self._expected = [t.bits for t in self.spec]
            self._total_bits = len(self.spec) * (1 << self.num_inputs)
        else:
            count = config.simulation_patterns
            self._patterns = [rng.getrandbits(self.num_inputs)
                              for _ in range(count)]
            self._rebuild_words()
        self.sat_calls = 0
        self.evaluations = 0
        self.eval_full = 0
        self.eval_incremental = 0
        self.ports_resimulated = 0
        self._verdicts: Dict[Tuple[int, ...], bool] = {}
        self._check_incremental = \
            os.environ.get("RCGP_CHECK_INCREMENTAL", "") not in ("", "0")
        self._check_kernel = \
            os.environ.get("RCGP_CHECK_KERNEL", "") not in ("", "0")

    @property
    def pattern_epoch(self) -> int:
        """Version of the simulation pattern set.

        Exhaustive evaluators never change (epoch 0); sampled evaluators
        grow their pattern set on SAT counterexamples, which advances
        the epoch and invalidates any simulation state memoized against
        the old patterns.
        """
        return 0 if self.exhaustive else len(self._patterns)

    def _rebuild_words(self) -> None:
        count = len(self._patterns)
        self._mask = (1 << count) - 1
        words = [0] * self.num_inputs
        for slot, pattern in enumerate(self._patterns):
            for i in range(self.num_inputs):
                if (pattern >> i) & 1:
                    words[i] |= 1 << slot
        self._words = words
        expected = [0] * len(self.spec)
        for slot, pattern in enumerate(self._patterns):
            for o, table in enumerate(self.spec):
                if table.value(pattern):
                    expected[o] |= 1 << slot
        self._expected = expected
        self._total_bits = len(self.spec) * count

    def add_counterexample(self, pattern: int) -> None:
        """Fold a SAT counterexample into the simulation pattern set.

        The spec tabulation for the existing slots is already encoded in
        ``_words``/``_expected`` and the pattern epoch only ever grows,
        so only the *new* pattern's rows are tabulated here — appending
        is O(inputs + outputs) instead of the full ``_rebuild_words``
        sweep over every pattern.
        """
        if self.exhaustive:
            return
        # The counterexample is an n-bit *input assignment*; stray high
        # bits (a SAT backend quirk) must never reach the tabulation
        # below.  The mask is (1 << n) - 1 — n bits, not the 2^n-bit
        # truth-table mask full_mask(n) — so it is cheap at any input
        # count and applied unconditionally.
        pattern &= (1 << self.num_inputs) - 1
        slot = len(self._patterns)
        self._patterns.append(pattern)
        bit = 1 << slot
        self._mask |= bit
        for i in range(self.num_inputs):
            if (pattern >> i) & 1:
                self._words[i] |= bit
        for o, table in enumerate(self.spec):
            if table.value(pattern):
                self._expected[o] |= bit
        self._total_bits = len(self.spec) * len(self._patterns)

    # ------------------------------------------------------------------

    def success_rate(self, candidate) -> float:
        """Fraction of matching simulated output bits.

        ``candidate`` is an :class:`RqfpNetlist` or a
        :class:`NetlistKernel` — both simulate bit-identically.
        """
        got = candidate.simulate(self._words, self._mask)
        wrong = 0
        mask = self._mask
        for value, expected in zip(got, self._expected):
            wrong += ((value ^ expected) & mask).bit_count()
        return 1.0 - wrong / self._total_bits

    def _formally_equivalent(self, active) -> bool:
        """Formal leg of the fitness function (§3.2.1).

        ``active`` is a shrunk candidate (kernel or netlist).  A spec of
        at most :data:`EXHAUSTIVE_FORMAL_LIMIT` inputs is decided by
        exhaustive simulation (:meth:`_simulates_spec`), which is as
        complete as a proof.  The SAT miter then runs only on an
        inequivalent candidate, to supply its model as the
        counterexample, so the pattern set grows exactly as it would
        under SAT alone.  Wider specs go to the SAT miter (a
        ``sat_conflict_budget`` run-out rejects).

        The verdict is remembered by genome, so a repeat of an active
        circuit already checked skips both legs; the answer is the one a
        re-check would give, because both depend only on the genome and
        the spec, and the solver and its conflict budget are
        deterministic.  An inequivalent verdict with a counterexample is
        not remembered: the counterexample joins the pattern set, so
        that circuit never passes simulation again.  A remembered answer
        still counts in ``sat_calls``.
        """
        self.sat_calls += 1
        if isinstance(active, NetlistKernel):
            key = active.to_genome()
        else:
            key = NetlistKernel.from_netlist(active).to_genome()
        verdict = self._verdicts.get(key)
        if verdict is not None:
            return verdict
        if self.num_inputs <= EXHAUSTIVE_FORMAL_LIMIT:
            verdict = self._simulates_spec(active)
            if not verdict and self._miter(active) is False:
                return False
        else:
            verdict = self._miter(active)
            if verdict is False:
                return False
            verdict = verdict is True
        if len(self._verdicts) >= VERDICT_MEMO_SIZE:
            del self._verdicts[next(iter(self._verdicts))]
        self._verdicts[key] = verdict
        return verdict

    def _miter(self, active) -> Optional[bool]:
        """SAT miter of ``active`` against the spec (None: out of
        budget); a counterexample joins the pattern set."""
        if isinstance(active, NetlistKernel):
            active = active.to_netlist()
        result = check_against_tables(
            active.encoder(), self.spec,
            conflict_budget=self.config.sat_conflict_budget,
        )
        if result.counterexample is not None:
            self.add_counterexample(result.counterexample)
        return result.equivalent

    def _simulates_spec(self, active) -> bool:
        """Exhaustive simulation of ``active`` against the spec tables,
        in chunks of ``2**16`` patterns
        (:func:`~repro.logic.truth_table.first_mismatch`): the first
        chunk that differs ends the check."""
        return first_mismatch(active.simulate, self.spec) is None

    def evaluate(self, candidate) -> Fitness:
        """Two-phase fitness of a candidate genome (netlist or kernel).

        Simulation runs on the raw genome (inactive gates cannot affect
        the outputs); shrink and the formal check only run for
        simulation-clean candidates, keeping the hot path to a single
        bit-parallel sweep.
        """
        self.evaluations += 1
        self.eval_full += 1
        if self._check_kernel and isinstance(candidate, NetlistKernel):
            self._verify_kernel(candidate)
        return self._finish(candidate, self.success_rate(candidate))

    def prepare_parent(self, parent) -> SimulationState:
        """Memoize the parent's port values for incremental evaluation.

        The returned state is bound to the current pattern epoch;
        :meth:`evaluate_incremental` falls back to full simulation once
        the epoch moves on (new SAT counterexamples).
        """
        return SimulationState(parent, self._words, self._mask,
                               self.pattern_epoch)

    def evaluate_incremental(self, child, delta: MutationDelta,
                             state: Optional[SimulationState],
                             floor: Optional[Fitness] = None) -> Fitness:
        """Fitness of ``child = delta.apply_to(parent)``, cone-aware.

        Without a ``floor`` this is bit-identical to :meth:`evaluate` by
        construction: the success rate is counted from exactly
        recomputed port words, and the performance phase (shrink, SAT,
        splitter legalization) runs on the same candidate either way.
        Falls back to the full path when the state is stale (pattern
        epoch advanced) or shape-incompatible.

        ``floor`` is the fitness a child must reach to matter — the
        engine passes the parent's.  A functional floor means a
        non-functional child can never be selected, so its success rate
        is not worth counting: the cone sweep compares each output as
        soon as it has passed the output's source gate and stops at the
        first wrong one, and the child gets the fixed non-functional
        ``Fitness(0.0)``.  Every output is still compared, so the verdict
        is exact; a child that passes goes through the same performance
        phase as without a floor.  ``ports_resimulated`` then counts the
        ports recomputed before the verdict.

        Set ``RCGP_CHECK_INCREMENTAL=1`` to compare every sweep (and
        every early verdict) with a full simulation.

        Kernel children use the *tracked* in-place cone: the memoized
        parent vector is patched under an undo log and restored before
        returning, so a rejected offspring costs O(cone), not an
        O(ports) vector copy.
        """
        if state is None or state.epoch != self.pattern_epoch \
                or not state.compatible(child):
            return self.evaluate(child)
        self.evaluations += 1
        self.eval_incremental += 1
        expected = self._expected
        checks = None
        if floor is not None and floor.functional:
            base = child.num_inputs + 1
            checks = sorted(
                [((port - base) // 3 if port >= base else -1, port, word)
                 for port, word in zip(child.outputs, expected)],
                key=_source_gate)
        tracked = isinstance(child, NetlistKernel)
        if tracked:
            values, resimulated, undo = state.child_values_tracked(
                child, delta.touched_gates, checks)
        else:
            values, resimulated = state.child_values(
                child, delta.touched_gates, checks)
        self.ports_resimulated += resimulated
        try:
            got = [values[port] for port in child.outputs]
            if checks is None:
                mask = self._mask
                wrong = 0
                for word, want in zip(got, expected):
                    wrong += ((word ^ want) & mask).bit_count()
                rate = 1.0 - wrong / self._total_bits
            else:
                # A sweep that stopped early left the wrong output's
                # final word in place, so comparing every output gives
                # the exact verdict.
                rate = 1.0 if got == expected else None
            if self._check_incremental:
                # After an early stop later outputs may be stale: only
                # the verdict is compared then.
                full = child.simulate(self._words, self._mask)
                if (full == expected) if rate is None else (got != full):
                    raise AssertionError(
                        "incremental simulation diverged from full "
                        f"simulation (touched gates {delta.touched_gates})"
                    )
        finally:
            if tracked:
                state.restore(undo)
        if self._check_kernel and tracked:
            self._verify_kernel(child)
        if rate is None:
            return Fitness(0.0)
        return self._finish(child, rate)

    def _verify_kernel(self, kernel: NetlistKernel) -> None:
        """``RCGP_CHECK_KERNEL=1`` oracle: every flat-kernel operation
        the fitness function relies on must match the object netlist
        bit for bit."""
        netlist = kernel.to_netlist()
        if kernel.simulate(self._words, self._mask) != \
                netlist.simulate(self._words, self._mask):
            raise AssertionError(
                "flat kernel simulation diverged from the object netlist")
        if kernel.shrink().to_genome() != \
                NetlistKernel.from_netlist(netlist.shrink()).to_genome():
            raise AssertionError(
                "flat kernel shrink diverged from the object netlist")
        if kernel.levels() != netlist.levels():
            raise AssertionError(
                "flat kernel levels diverged from the object netlist")
        if kernel.estimate_buffers() != estimate_buffers(netlist):
            raise AssertionError(
                "flat kernel buffer estimate diverged from the object "
                "netlist")
        if kernel.fanout_counts_flat() != netlist.fanout_counts_flat():
            raise AssertionError(
                "flat kernel fan-out counts diverged from the object "
                "netlist")

    def _finish(self, candidate, rate: float) -> Fitness:
        """Performance phase shared by the full and incremental paths.

        Representation-polymorphic: shrink, fan-out counts and the
        buffer estimate run natively on either a netlist or a kernel;
        the cold sub-paths that need gate objects (the SAT miter,
        splitter legalization) materialize the object netlist on demand.
        """
        if rate < 1.0:
            return Fitness(rate)
        active = candidate.shrink()
        if not self.exhaustive and self.config.verify_with_sat:
            if not self._formally_equivalent(active):
                # Simulation-clean but not formally proven: keep it just
                # below functional so it never displaces a verified parent.
                return Fitness(1.0 - 1.0 / (2 * self._total_bits))
        # Flat per-port fan-out counts serve both the fan-out check and
        # the garbage count (3 ports per gate minus the gate ports with
        # a consumer) — this block runs per simulation-clean candidate,
        # which is every candidate on a plateau, so no consumer dict.
        counts = active.fanout_counts_flat()
        if len(counts) > 1 and max(counts[1:]) > 1:
            if isinstance(active, NetlistKernel):
                active = active.to_netlist()
            active = insert_splitters(active)
            counts = active.fanout_counts_flat()
        n_b = active.estimate_buffers()
        base = active.num_inputs + 1
        n_g = 3 * active.num_gates - sum(1 for c in counts[base:] if c)
        return Fitness(1.0, active.num_gates, n_g, n_b)

    def finalize(self, candidate) -> RqfpNetlist:
        """Shrunk, simplified, fan-out-legal version of a candidate."""
        if isinstance(candidate, NetlistKernel):
            candidate = candidate.to_netlist()
        active = candidate.shrink()
        if active.fanout_violations():
            active = insert_splitters(active)
        if self.config.simplify_wires:
            active = bypass_wire_gates(active)
            if active.fanout_violations():
                active = insert_splitters(active)
        return active
