"""The RCGP evolution engine: one run API, one ``(1 + λ)`` loop.

The paper's headline cost is the ``(1 + λ)`` inner loop — up to 5·10⁷
generations per circuit.  This module holds that loop once and runs it
wherever the work lands:

* :class:`EvolutionRun` — the single entry point.  ``evolve``,
  ``evolve_with_checkpoints``, ``multi_start`` and ``windowed_optimize``
  are thin shims over it.
* :func:`replay_span` — the loop itself.  Given one compact parent
  genome (:func:`encode_genome`) and a *span* of generations, it
  re-derives every offspring from its RNG key and runs mutation,
  evaluation, selection and neutral drift, returning one accept record
  per generation.  A span stops at the first strict improvement, whose
  accept block (shrink, wire bypass, history) stays with the run.
  Inline runs call it in-process on the run's own evaluator; pooled
  runs ship it to a worker through :class:`repro.jobs.pool.JobBackend`,
  whose dispatcher (:class:`repro.cluster.backend.ClusterDispatch`)
  keeps persistent workers.  Either way the run narrates the same
  records, so serial == pool holds by construction.
* **One representation** — candidates in the loop are flat
  :class:`~repro.core.kernel.NetlistKernel` genomes; the object
  :class:`~repro.rqfp.netlist.RqfpNetlist` is the input, the output and
  the correctness oracle.
* **Incremental cone-aware evaluation** — each offspring is a
  :class:`~repro.core.mutation.MutationDelta` away from the span's
  parent, whose per-port simulation words are memoized in a
  :class:`~repro.core.simstate.SimulationState` kept resident across
  spans; only the delta's fan-out cone is re-simulated.  Full
  simulation evaluates the initial, simplified and final parents, and
  is the fallback for a stale or incompatible state.  Telemetry counts
  ``eval_full`` / ``eval_incremental`` / ``ports_resimulated`` per
  generation.
* **Deterministic parallelism** — every offspring gets its own RNG
  stream derived from ``(seed, generation, offspring index)``, so a run
  is bit-identical for a fixed seed regardless of worker count or span
  boundaries.
* **Fault tolerance** — a crashed or hung worker is replaced and the
  lost span re-sent (purity makes the retry bit-identical); a slice
  whose span path fails finishes in-process instead of aborting,
  ``KeyboardInterrupt`` finalizes the incumbent cleanly, and
  ``worker_restarts`` / ``batches_retried`` / ``degraded_to_inline``
  are reported on the result and in telemetry.
* **Result gate** (``config.verify_result``) — the finished run's best
  netlist is independently re-simulated on the object path, checked for
  RQFP legality and SAT-proven equivalent to the spec
  (:mod:`repro.core.verify`); violations raise typed
  :mod:`repro.errors` exceptions.

Pooled evaluation requires the fitness function to be *pure*
(:func:`repro.jobs.pool.parallel_safe_config`): exhaustive simulation,
or seeded sampling without SAT feedback.  Otherwise (the SAT
counterexample feedback loop mutates the evaluator) the run keeps its
spans in-process; the chosen backend is reported in the telemetry
``run_start`` event.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Dict, IO, List, Optional,
                    Sequence, Tuple)

from ..errors import FrameError, SynthesisError, WorkerPoolError
from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from ..rqfp.simplify import bypass_wire_gates
from .config import RcgpConfig
from .fitness import Evaluator, Fitness
from .kernel import NetlistKernel
from .mutation import consumer_view, mutate_with_delta
from . import wire

if TYPE_CHECKING:
    from ..jobs.pool import JobBackend

ProgressCallback = Callable[[int, Fitness], None]

Genome = Tuple[int, ...]
"""Flat port-index encoding: ``(n_pi, n_gates, in0, in1, in2, config,
..., po0, po1, ...)``.  Hashable and cheap to ship (the span codec dumps
it as raw int64s); names are dropped — genomes exist to be
evaluated."""


# ----------------------------------------------------------------------
# Genome codec


def encode_genome(candidate) -> Genome:
    """Candidate -> compact port-index tuple (loses only the names).

    Accepts either representation: a :class:`NetlistKernel` flattens its
    gene arrays directly, an :class:`RqfpNetlist` walks its gate
    objects.  Both produce the identical tuple for the same chromosome.
    """
    if isinstance(candidate, NetlistKernel):
        return candidate.to_genome()
    flat: List[int] = [candidate.num_inputs, candidate.num_gates]
    for gate in candidate.gates:
        flat.extend((gate.in0, gate.in1, gate.in2, gate.config))
    flat.extend(candidate.outputs)
    return tuple(flat)


def decode_genome(genome: Genome, name: str = "") -> RqfpNetlist:
    """Inverse of :func:`encode_genome` (fresh default port names)."""
    num_inputs, num_gates = genome[0], genome[1]
    netlist = RqfpNetlist(num_inputs, name)
    base = 2
    for g in range(num_gates):
        i = base + 4 * g
        netlist.add_gate(genome[i], genome[i + 1], genome[i + 2],
                         genome[i + 3])
    for port in genome[base + 4 * num_gates:]:
        netlist.add_output(port)
    return netlist


def _decode(genome: Genome, template: NetlistKernel) -> NetlistKernel:
    """A span's genome as a kernel carrying the run's names.

    :func:`encode_genome` keeps only port indices; a candidate decoded
    from a span record re-adopts the run's names (stable through
    copy/shrink) so ``finalize()`` / ``describe()`` output matches the
    initial netlist's naming.
    """
    candidate = NetlistKernel.from_genome(genome, template.name)
    candidate.input_names = template.input_names
    candidate.output_names = template.output_names
    return candidate


def child_seed(base_seed: int, generation: int, index: int) -> int:
    """Deterministic, well-mixed RNG seed for one offspring.

    Derived by hashing rather than arithmetic so neighbouring
    ``(generation, index)`` pairs give unrelated streams, and fixed
    independently of evaluation order or worker count.  Callers that
    run a budget in slices (the scheduler, checkpointed runs) pass
    *absolute* generation numbers via
    :class:`EvolutionRun`'s ``generation_offset`` so the trajectory is
    a function of ``(seed, total budget)`` alone — independent of how
    the budget is sliced.
    """
    data = f"{base_seed}:{generation}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big")


# ----------------------------------------------------------------------
# The (1 + λ) loop


# Fault injection for the fault-tolerance test suite: when the
# environment sets RCGP_TEST_CRASH_AFTER_EVALS / RCGP_TEST_HANG_AFTER_EVALS
# to N, every worker process dies (or hangs) after its N-th evaluation.
# None in production and in every coordinator (only pool workers arm
# it) — the per-evaluation check is one "is None" branch.
_WORKER_FAULT_COUNTDOWN: Optional[int] = None
_WORKER_FAULT_MODE = ""

_Counters = Tuple[int, int, int]  # (eval_full, eval_incremental, ports)

#: Everything a recoverable span loss can look like: a worker crashed
#: or its pipe/socket died (``EOFError``/``OSError``), a span overran
#: its deadline (``TimeoutError``), or a frame arrived malformed
#: (truncated, oversized, unknown opcode — the typed
#: :class:`~repro.errors.FrameError` family).  Replay is pure, so a lost
#: span re-runs bit-identically.
RECOVERABLE_POOL_ERRORS = (TimeoutError, OSError, EOFError, FrameError)


def install_fault_injection() -> None:
    """Arm the worker-side fault hooks from the environment (test use)."""
    global _WORKER_FAULT_COUNTDOWN, _WORKER_FAULT_MODE
    for mode, variable in (("crash", "RCGP_TEST_CRASH_AFTER_EVALS"),
                           ("hang", "RCGP_TEST_HANG_AFTER_EVALS")):
        value = os.environ.get(variable, "")
        if value:
            _WORKER_FAULT_COUNTDOWN = int(value)
            _WORKER_FAULT_MODE = mode
            break


def _maybe_inject_fault() -> None:
    """Test hook: kill or wedge this worker when its countdown expires."""
    global _WORKER_FAULT_COUNTDOWN
    if _WORKER_FAULT_COUNTDOWN is None:
        return
    _WORKER_FAULT_COUNTDOWN -= 1
    if _WORKER_FAULT_COUNTDOWN > 0:
        return
    if _WORKER_FAULT_MODE == "crash":
        os._exit(17)  # simulate a hard worker crash (no cleanup)
    import time as _time
    _time.sleep(600)  # simulate a hung worker; the master kills us


def _counters(evaluator: Evaluator) -> _Counters:
    return (evaluator.eval_full, evaluator.eval_incremental,
            evaluator.ports_resimulated)


def replay_span(evaluator: Evaluator, resident,
                request: wire.SpanRequest):
    """Run the ``(1+λ)`` loop for one span of generations.

    Every mutation is derived from the deterministic RNG keys ``(seed,
    absolute generation, index)``, so the same request gives the same
    records in a pool worker and in the coordinator's own process.  Each
    generation mutates the parent into λ offspring, evaluates them
    incrementally (the parent's fitness as the early-stop floor),
    selects the best with later offspring winning ties, and accepts it
    when it is at least as good as the parent (neutral drift, §3.2.4).
    The span ends at the first *strict* improvement (the caller owns
    the shrink/simplify/history accept block) or after
    ``request.count`` generations.

    ``resident`` caches ``(genome, parent, state, consumers)`` across
    spans (``consumers`` is the parent's :func:`consumer_view`); the
    memoized state is rebuilt only when the chromosome *value* changes
    (neutral accepts that cancel out keep the warm state) or the
    pattern epoch moves.  Returns ``(SpanResult, resident)``.
    """
    config = evaluator.config
    genome = request.parent_genome
    if resident is None or resident[0] != genome:
        parent = NetlistKernel.from_genome(genome)
        resident = (genome, parent, evaluator.prepare_parent(parent),
                    consumer_view(parent))
    genome, parent, state, consumers = resident
    if state.epoch != evaluator.pattern_epoch:
        state = evaluator.prepare_parent(parent)
    parent_fitness = Fitness(*request.parent_fitness)
    rng = random.Random()
    offspring = config.offspring
    shrink_always = config.shrink == "always"
    check = request.check_deltas
    check_at = 0
    records: List[wire.SpanRecord] = []
    improved = False
    child_genome: Optional[Genome] = None
    for k in range(request.count):
        generation = request.start_gen + k
        before = _counters(evaluator)
        best_fit: Optional[Fitness] = None
        best_child = None
        for i in range(offspring):
            _maybe_inject_fault()
            rng.seed(child_seed(request.base_seed, generation, i))
            child, delta = mutate_with_delta(parent, rng, config,
                                             consumers=consumers,
                                             rollback=True)
            if check is not None:
                if delta.flatten() != check[check_at].flatten():
                    raise WorkerPoolError(
                        "span mutation replay diverged from the "
                        f"coordinator's deltas at generation {generation}, "
                        f"offspring {i}")
                check_at += 1
            if state.epoch != evaluator.pattern_epoch:
                # A SAT counterexample grew the pattern set mid-brood:
                # rebuild the memoized words rather than letting every
                # remaining offspring simulate in full.
                state = evaluator.prepare_parent(parent)
            fit = evaluator.evaluate_incremental(
                child, delta, state, floor=parent_fitness)
            if best_fit is None or fit.key() >= best_fit.key():
                best_fit = fit
                best_child = child
        after = _counters(evaluator)
        accepted = best_fit.key() >= parent_fitness.key()
        records.append((accepted,
                        (best_fit.success, best_fit.n_r, best_fit.n_g,
                         best_fit.n_b),
                        (after[0] - before[0], after[1] - before[1],
                         after[2] - before[2])))
        if accepted:
            if best_fit.key() > parent_fitness.key():
                improved = True
                child_genome = encode_genome(best_child)
                break
            # Neutral drift: advance the resident parent (shrink policy
            # included), rebuilding state/consumers only when the
            # chromosome value changed.
            parent_fitness = best_fit
            new_parent = best_child.shrink() if shrink_always else best_child
            new_genome = encode_genome(new_parent)
            if new_genome != genome:
                genome = new_genome
                parent = new_parent
                state = evaluator.prepare_parent(parent)
                consumers = consumer_view(parent)
    resident = (genome, parent, state, consumers)
    final_genome = genome \
        if not improved and genome != request.parent_genome else None
    return wire.SpanResult(records=tuple(records), improved=improved,
                           child_genome=child_genome,
                           final_genome=final_genome), resident


class SpanPlanner:
    """Adaptive sizing for replay spans.

    Spans grow geometrically while they come back well under the
    latency target and shrink when they overrun it, so long plateaus
    amortize the per-span round trip while hang detection
    (``batch_timeout``), time budgets and interrupts stay responsive.
    """

    START = 8
    MAX = 512
    #: Default wall-latency target per span (seconds).
    TARGET = 0.25

    def __init__(self, batch_timeout: Optional[float]):
        self._span = self.START
        self._target = self.TARGET if batch_timeout is None \
            else min(self.TARGET, batch_timeout / 4.0)

    def plan(self, headroom: int) -> int:
        """Generations for the next span, capped by the caller's room."""
        return max(1, min(self._span, headroom))

    def observe(self, planned: int, executed: int,
                elapsed: float) -> None:
        if executed >= planned and elapsed < self._target / 2:
            self._span = min(self.MAX, self._span * 2)
        elif elapsed > self._target and self._span > self.START:
            self._span = max(self.START, self._span // 2)


# ----------------------------------------------------------------------
# Telemetry


class TelemetryWriter:
    """Structured JSONL event sink for evolution runs.

    One JSON object per line; every event carries an ``"event"`` tag
    (``run_start`` / ``generation`` / ``run_end``).  Consumed by the CLI
    (``--telemetry``), the harness (``RCGP_BENCH_TELEMETRY_DIR``), the
    job scheduler (per-job files under the :class:`repro.jobs.JobStore`)
    and any external dashboard that can tail a file.

    ``job_id`` namespaces every event with a ``"job_id"`` field so
    multiple jobs in one process never produce ambiguous streams, and
    ``mode="a"`` appends instead of truncating — a resumed job keeps
    one continuous event history across process restarts.  Missing
    parent directories of a path are created.
    """

    def __init__(self, path_or_file, *, mode: str = "w",
                 job_id: Optional[str] = None):
        self.job_id = job_id
        if hasattr(path_or_file, "write"):
            self._handle: IO[str] = path_or_file
            self._owns = False
        else:
            parent = os.path.dirname(os.fspath(path_or_file))
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(path_or_file, mode)
            self._owns = True

    def emit(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {"event": event}
        if self.job_id is not None:
            record["job_id"] = self.job_id
        record.update(fields)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._owns:
            self._handle.close()


def read_telemetry(path: str) -> List[dict]:
    """Parse a telemetry JSONL file back into event dictionaries."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# Results


@dataclass
class EvolutionResult:
    """Outcome of a CGP optimization run.

    ``cache_hits`` is kept for compatibility with stored artifacts and
    callers that read it; the memo cache it counted is retired and it
    always reads 0.
    """

    netlist: RqfpNetlist
    fitness: Fitness
    initial_fitness: Fitness
    generations: int
    evaluations: int
    runtime: float
    history: List[Tuple[int, Fitness]] = field(default_factory=list)
    sat_calls: int = 0
    cache_hits: int = 0
    backend: str = "inline"
    eval_full: int = 0
    eval_incremental: int = 0
    ports_resimulated: int = 0
    worker_restarts: int = 0
    batches_retried: int = 0
    bytes_shipped: int = 0
    chunks_dispatched: int = 0
    pipeline_stalls: int = 0
    degraded_to_inline: bool = False
    interrupted: bool = False
    verified: bool = False

    @property
    def gate_reduction(self) -> float:
        """Fractional reduction in n_r relative to the initial netlist."""
        if self.initial_fitness.n_r == 0:
            return 0.0
        return 1.0 - self.fitness.n_r / self.initial_fitness.n_r


#: The :class:`EvolutionResult` counters that add up across the slices
#: of a sliced run (and across a job's slices in its store record).
COUNTER_FIELDS = ("evaluations", "sat_calls", "cache_hits", "eval_full",
                  "eval_incremental", "ports_resimulated",
                  "worker_restarts", "batches_retried", "bytes_shipped",
                  "chunks_dispatched", "pipeline_stalls")


def merge_slice(total: Optional[EvolutionResult], result: EvolutionResult,
                offset: int) -> EvolutionResult:
    """Fold one slice of a sliced run into the result of the slices
    before it (``total``; ``None`` for the first slice).

    ``result`` is the slice's own result, run with
    ``generation_offset=offset``.  The merge reports absolute
    ``generations`` and ``history``, and drops a later slice's starting
    history entry (the incumbent it resumed from, recorded already).
    It sums every counter and the runtime, and takes the netlist,
    fitness, ``backend``, ``verified`` and ``interrupted`` from the
    last slice.
    """
    history = result.history if total is None else result.history[1:]
    history = [(generation + offset, fitness)
               for generation, fitness in history]
    if total is None:
        return replace(
            result, generations=offset + result.generations,
            history=history)
    return replace(
        result, initial_fitness=total.initial_fitness,
        generations=offset + result.generations,
        history=total.history + history,
        runtime=total.runtime + result.runtime,
        degraded_to_inline=total.degraded_to_inline
        or result.degraded_to_inline,
        **{name: getattr(total, name) + getattr(result, name)
           for name in COUNTER_FIELDS})


# ----------------------------------------------------------------------
# The run API


class EvolutionRun:
    """One configured ``(1 + λ)`` optimization run (§3.2.4, Algorithm 1).

    >>> run = EvolutionRun(spec, RcgpConfig(generations=2000, seed=7))
    >>> result = run.run()

    Each generation mutates the single best parent into λ offspring
    (each from its own deterministic RNG stream), evaluates them, and
    accepts an offspring whose fitness is better *or equal* (neutral
    drift, §3.2.4) as the next parent.  Useless gates are shrunk from
    accepted parents per the configured policy (§3.2.3).  Generations
    run in spans of :func:`replay_span`, sized by :class:`SpanPlanner`:
    in-process on the run's own evaluator, or on a pool worker when a
    backend is in play.  The run narrates every span's records and owns
    every strict improvement.

    Parameters
    ----------
    spec:
        Target truth tables, one per primary output.
    config:
        All knobs, including ``workers`` (0/1 = inline, N>1 = one pool
        worker) and ``telemetry_path``.
    initial:
        Starting netlist; defaults to the §3.1 initialization flow.
    progress:
        Callback ``(generation, fitness)`` fired on improvements.
    telemetry:
        Pre-built :class:`TelemetryWriter`; overrides
        ``config.telemetry_path``.
    backend:
        Pre-built span backend (:class:`repro.jobs.pool.JobBackend`);
        overrides ``config.workers``.  The caller keeps ownership (it is
        not closed by :meth:`run`).
    generation_offset:
        Number of generations a *previous* slice of the same logical
        run already executed.  Offspring RNG streams are keyed by the
        absolute generation (``offset + local generation``), so a run
        sliced into checkpointed chunks follows the exact trajectory of
        the equivalent monolithic run, whatever the chunk size.  The
        returned :attr:`EvolutionResult.generations` stays local to
        this slice.
    """

    def __init__(self, spec: Sequence[TruthTable],
                 config: Optional[RcgpConfig] = None, *,
                 initial: Optional[RqfpNetlist] = None,
                 name: str = "",
                 progress: Optional[ProgressCallback] = None,
                 telemetry: Optional[TelemetryWriter] = None,
                 backend: Optional["JobBackend"] = None,
                 generation_offset: int = 0):
        self.spec = list(spec)
        self.config = config or RcgpConfig()
        self.initial = initial
        self.name = name
        self.progress = progress
        self._telemetry = telemetry
        self._backend = backend
        self.generation_offset = generation_offset

    # -- internals -----------------------------------------------------

    def _make_backend(self) -> Tuple[Optional["JobBackend"], bool]:
        """Span backend per config, ``None`` for in-process spans;
        returns ``(backend, engine_owns_it)``."""
        if self._backend is not None:
            return self._backend, False
        config = self.config
        if config.workers > 1 and config.generations > 0:
            from ..jobs.pool import parallel_safe_config, \
                process_pool_backend
            if parallel_safe_config(self.spec[0].num_vars, config):
                return process_pool_backend(self.spec, config), True
        return None, False

    # -- the run -------------------------------------------------------

    def run(self) -> EvolutionResult:
        config = self.config
        spec = self.spec
        evaluator = Evaluator(spec, config, random.Random(config.seed))
        if config.seed is not None:
            base_seed = config.seed
        else:
            base_seed = random.SystemRandom().getrandbits(48)

        if self.initial is not None:
            initial = self.initial.copy()
        else:
            from .synthesis import initialize_netlist
            initial = initialize_netlist(spec, self.name)
        # The loop runs on the flat kernel (same port-index genome as
        # the object netlist); only the boundaries convert.
        parent = NetlistKernel.from_netlist(initial)

        parent_genome = encode_genome(parent)
        parent_fitness = evaluator.evaluate(parent)
        if not parent_fitness.functional:
            raise SynthesisError(
                "initial netlist does not realize the specification: "
                f"{parent_fitness}"
            )
        initial_fitness = parent_fitness
        history: List[Tuple[int, Fitness]] = [(0, parent_fitness)]

        backend, owns_backend = self._make_backend()
        backend_name = "inline" if backend is None else backend.name
        telemetry = self._telemetry
        owns_telemetry = False
        if telemetry is None and config.telemetry_path is not None:
            telemetry = TelemetryWriter(config.telemetry_path)
            owns_telemetry = True

        # Records that came back from a worker; in-process spans count
        # on the master evaluator directly.
        pool_evaluations = 0
        # Connectivity view of the current parent for check mode's
        # coordinator-side deltas (consumer_view: a kernel's reader
        # table), built lazily and invalidated whenever the parent
        # changes.
        parent_consumers = None
        start = time.monotonic()
        stagnation = 0
        generation = 0
        if telemetry is not None:
            telemetry.emit(
                "run_start", name=self.name,
                num_inputs=spec[0].num_vars, num_outputs=len(spec),
                generations=config.generations, offspring=config.offspring,
                workers=config.workers, backend=backend_name,
                seed=config.seed, initial_key=list(parent_fitness.key()),
            )

        def counter(name: str) -> int:
            # Master-evaluator counters plus the worker records the
            # backend committed.
            value = getattr(evaluator, name)
            return value if backend is None else \
                value + getattr(backend, name)

        def live() -> Tuple[int, int, int, int]:
            return (evaluator.evaluations + pool_evaluations,
                    counter("eval_full"), counter("eval_incremental"),
                    counter("ports_resimulated"))

        def out_of_time() -> bool:
            return config.time_budget is not None and \
                time.monotonic() - start >= config.time_budget

        # Fault observability: emit a worker_fault event whenever the
        # backend's recovery counters move (checked once per span —
        # three attribute reads, nothing for in-process runs and
        # nothing at all without telemetry).
        interrupted = False
        last_faults = (0, 0, False) \
            if telemetry is not None and backend is not None else None

        # RCGP_CHECK_INCREMENTAL=1 keeps spans one generation long and
        # ships the coordinator's own deltas alongside for replay-side
        # verification.  Span records carry no formal-check counts, so
        # a run whose fitness makes them also narrates one generation
        # per span while telemetry listens: sat_calls then stays a
        # per-generation value.
        stop = False
        name_template = parent
        check_mode = os.environ.get(
            "RCGP_CHECK_INCREMENTAL", "") not in ("", "0")
        one_per_span = check_mode or (
            telemetry is not None and not evaluator.exhaustive
            and config.verify_with_sat)
        planner = SpanPlanner(config.batch_timeout)
        # Where spans go: the backend while its span path works, None
        # (in-process, on the master evaluator) for inline runs and for
        # the rest of a slice whose backend failed a span.
        spans = backend
        resident = None  # the master evaluator's replay_span cache
        offspring = config.offspring

        def span_headroom(gen: int, stag: int) -> int:
            # How many generations may run before the loop would have
            # stopped anyway (budget end or stagnation break) — spans
            # never overshoot either.  A time budget is checked before
            # every span instead.
            room = config.generations - gen
            if config.stagnation_limit is not None:
                room = min(room, config.stagnation_limit - stag)
            return room

        def make_span(first: int, count: int) -> wire.SpanRequest:
            nonlocal parent_consumers
            check = None
            if check_mode:
                if parent_consumers is None:
                    parent_consumers = consumer_view(parent)
                check = []
                for g in range(count):
                    for i in range(offspring):
                        rng = random.Random(child_seed(
                            base_seed,
                            self.generation_offset + first + g, i))
                        _, delta = mutate_with_delta(
                            parent, rng, config,
                            consumers=parent_consumers, rollback=True)
                        check.append(delta)
            return wire.SpanRequest(
                base_seed=base_seed,
                start_gen=self.generation_offset + first,
                count=count,
                parent_fitness=(parent_fitness.success, parent_fitness.n_r,
                                parent_fitness.n_g, parent_fitness.n_b),
                parent_genome=parent_genome,
                check_deltas=check)

        try:
            try:
                inflight = None  # (request, planned, sent) on a worker
                while not stop and generation < config.generations:
                    if inflight is None:
                        if out_of_time():
                            break
                        planned = 1 if one_per_span \
                            else planner.plan(
                                span_headroom(generation, stagnation))
                        request = make_span(generation + 1, planned)
                        sent = time.monotonic()
                        if spans is not None \
                                and not spans.dispatch_span(request):
                            spans = None  # no workers at all
                    else:
                        request, planned, sent = inflight
                        inflight = None
                    result = None
                    if spans is not None:
                        result = spans.collect_span()
                        if result is None:
                            # Out of retries, or no worker to send to:
                            # the slice finishes in-process.
                            spans = None
                            sent = time.monotonic()
                    if result is None:
                        result, resident = replay_span(evaluator, resident,
                                                       request)
                    else:
                        pool_evaluations += offspring * len(result.records)
                    records = result.records
                    executed = len(records)
                    planner.observe(planned, executed,
                                    time.monotonic() - sent)
                    span_start_fitness = parent_fitness
                    # Per-record cumulative counter values: the live
                    # counters already hold every record's deltas, so
                    # record j's telemetry value is the live counter
                    # minus the deltas of the records after j.  (The
                    # last record instead reads live counters after the
                    # accept block, catching the master-side simplify
                    # re-evaluation.)
                    prefixes: List[Tuple[int, int, int, int]] = []
                    if telemetry is not None:
                        at = live()
                        prefixes = [at] * executed
                        for j in range(executed - 1, 0, -1):
                            deltas = records[j][2]
                            at = (at[0] - offspring, at[1] - deltas[0],
                                  at[2] - deltas[1], at[3] - deltas[2])
                            prefixes[j - 1] = at
                    if not result.improved:
                        # Advance the incumbent *first* so a pooled run
                        # can dispatch the next span before the
                        # per-record bookkeeping below — the worker
                        # computes span k+1 while the coordinator
                        # narrates span k.
                        last_fit = None
                        for accepted, fit, _deltas in records:
                            if accepted:
                                last_fit = fit
                        if last_fit is not None:
                            parent_fitness = Fitness(*last_fit)
                        if result.final_genome is not None:
                            parent_genome = result.final_genome
                            parent = _decode(parent_genome, name_template)
                            parent_consumers = None
                        end_generation = generation + executed
                        end_stagnation = stagnation + executed
                        if spans is not None and not one_per_span \
                                and not out_of_time() and \
                                span_headroom(end_generation,
                                              end_stagnation) >= 1:
                            planned = planner.plan(
                                span_headroom(end_generation,
                                              end_stagnation))
                            request = make_span(end_generation + 1,
                                                planned)
                            sent = time.monotonic()
                            if spans.dispatch_span(request):
                                inflight = (request, planned, sent)
                    cur_fitness = span_start_fitness
                    for j, (accepted, fit, _deltas) in enumerate(records):
                        generation += 1
                        improved = result.improved and j == executed - 1
                        if accepted and not improved \
                                and telemetry is not None:
                            # cur_fitness only feeds the telemetry
                            # stream; skip the per-record construction
                            # when nothing is listening.
                            cur_fitness = Fitness(*fit)
                        if improved:
                            # The accept block for strict improvements,
                            # on the span's winning offspring.
                            parent = _decode(result.child_genome,
                                             name_template)
                            parent_fitness = Fitness(*fit)
                            if config.shrink in ("always",
                                                 "on_improvement"):
                                parent = parent.shrink()
                            if config.simplify_wires:
                                # Wire bypass is a cold structural pass
                                # that needs gate objects; round-trip
                                # through the object netlist only when
                                # it actually helps.
                                view = parent.to_netlist()
                                simplified = bypass_wire_gates(view)
                                if simplified.num_gates < view.num_gates:
                                    parent = NetlistKernel.from_netlist(
                                        simplified)
                                    parent_fitness = evaluator.evaluate(
                                        parent)
                            parent_genome = encode_genome(parent)
                            parent_consumers = None
                            cur_fitness = parent_fitness
                            stagnation = 0
                            if config.track_history:
                                history.append((generation,
                                                parent_fitness))
                            if self.progress is not None:
                                self.progress(generation, parent_fitness)
                        if telemetry is not None:
                            ev, ef, ei, pr = live() \
                                if j == executed - 1 else prefixes[j]
                            telemetry.emit(
                                "generation", generation=generation,
                                best_key=list(cur_fitness.key()),
                                improved=improved, accepted=accepted,
                                evaluations=ev,
                                sat_calls=evaluator.sat_calls,
                                eval_full=ef, eval_incremental=ei,
                                ports_resimulated=pr,
                                wall_time=round(
                                    time.monotonic() - start, 6),
                            )
                        if not improved:
                            stagnation += 1
                            if config.stagnation_limit is not None and \
                                    stagnation >= config.stagnation_limit:
                                stop = True
                    if last_faults is not None:
                        faults = (backend.worker_restarts,
                                  backend.batches_retried,
                                  backend.degraded)
                        if faults != last_faults:
                            last_faults = faults
                            telemetry.emit(
                                "worker_fault", generation=generation,
                                worker_restarts=faults[0],
                                batches_retried=faults[1],
                                degraded=faults[2])

            except KeyboardInterrupt:
                # Clean SIGINT shutdown: keep the incumbent parent,
                # kill the pool immediately (workers may be mid-span
                # or wedged), finalize and return the best-so-far
                # result with interrupted=True instead of dying with
                # a half-written telemetry stream and orphan workers.
                interrupted = True
                if owns_backend:
                    backend.terminate()
            final = evaluator.finalize(parent)
            final_fitness = evaluator.evaluate(final)
            if not final_fitness.functional:
                raise SynthesisError("finalized netlist lost functionality")
            verified = False
            if config.verify_result:
                # End-of-run result gate: independent object-path
                # re-simulation, RQFP legality, SAT equivalence.  Raises
                # typed repro.errors exceptions on any violation.
                from .verify import verify_evolution_result
                report = verify_evolution_result(final, spec, config)
                verified = True
                if telemetry is not None:
                    telemetry.emit(
                        "verify", exhaustive=report.exhaustive,
                        simulated_patterns=report.simulated_patterns,
                        sat_checked=report.sat_checked,
                        sat_conflicts=report.sat_conflicts)
            runtime = time.monotonic() - start
            result = EvolutionResult(
                netlist=final,
                fitness=final_fitness,
                initial_fitness=initial_fitness,
                generations=generation,
                evaluations=evaluator.evaluations + pool_evaluations,
                runtime=runtime,
                history=history if config.track_history else [],
                sat_calls=evaluator.sat_calls,
                backend=backend_name,
                eval_full=counter("eval_full"),
                eval_incremental=counter("eval_incremental"),
                ports_resimulated=counter("ports_resimulated"),
                worker_restarts=getattr(backend, "worker_restarts", 0),
                batches_retried=getattr(backend, "batches_retried", 0),
                bytes_shipped=getattr(backend, "bytes_shipped", 0),
                chunks_dispatched=getattr(backend, "chunks_dispatched", 0),
                pipeline_stalls=getattr(backend, "pipeline_stalls", 0),
                degraded_to_inline=getattr(backend, "degraded", False),
                interrupted=interrupted,
                verified=verified,
            )
            if telemetry is not None:
                telemetry.emit(
                    "run_end", generations=result.generations,
                    evaluations=result.evaluations,
                    sat_calls=result.sat_calls,
                    eval_full=result.eval_full,
                    eval_incremental=result.eval_incremental,
                    ports_resimulated=result.ports_resimulated,
                    worker_restarts=result.worker_restarts,
                    batches_retried=result.batches_retried,
                    bytes_shipped=result.bytes_shipped,
                    chunks_dispatched=result.chunks_dispatched,
                    pipeline_stalls=result.pipeline_stalls,
                    degraded_to_inline=result.degraded_to_inline,
                    interrupted=result.interrupted,
                    verified=result.verified,
                    runtime=round(runtime, 6),
                    final_key=list(final_fitness.key()),
                )
            return result
        finally:
            if owns_backend:
                backend.close()
            if owns_telemetry and telemetry is not None:
                telemetry.close()
