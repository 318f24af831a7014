"""One protocol, one adapter: job-keyed replay spans over a dispatcher.

Every pooled evaluation in this package — ``EvolutionRun(workers=N)``,
the scheduler's local pool, the TCP fleet — is the same conversation: a
per-slice :class:`JobBackend` hands the engine's replay spans to one
long-lived :class:`~repro.cluster.backend.ClusterDispatch` (local pipe
workers, remote fleet workers, or both), which ships them as
``OP_JOB_SPAN`` frames and runs the one fault-recovery loop.

* **Worker side.**  A span frame carries its pickled :data:`JobContext`
  (job id, spec, config), so one worker serves many jobs: it keeps a
  small LRU of per-job evaluators and replay residents
  (:class:`_WorkerState`) and runs
  :func:`~repro.core.engine.replay_span` against them.
* **Coordinator side.**  :class:`JobBackend` satisfies the engine's
  ``EvaluationBackend`` protocol with slice-local counters.  Its
  ``evaluate``/``evaluate_deltas`` run inline on an evaluator built
  exactly like a worker's; the engine uses them only when a slice has
  no span path — the dispatcher ran out of retries (``degraded``) or
  had no worker to send to.  Degradation is slice-local: the next slice
  gets a fresh adapter and tries the workers again.

Purity guarantees are unchanged: only parallel-safe jobs (exhaustive
simulation, or seeded sampling without SAT feedback) are routed here by
default, so every re-dispatched span and every inline fallback is
bit-identical to the serial loop.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.backend import ClusterDispatch
from ..core import engine as _engine
from ..core import wire
from ..core.config import RcgpConfig
from ..core.engine import Genome, InlineBackend
from ..core.fitness import Evaluator, Fitness
from ..core.mutation import MutationDelta
from ..core.transport import HANDLERS, OP_JOB_SPAN, OP_RESULT
from ..errors import WorkerPoolError
from ..logic.truth_table import TruthTable

#: Portable per-span job context: (job_id, spec bits, num_vars, config
#: dict).  Small next to the parent genome it rides along with, and only
#: decoded into an evaluator on a job's first span in a worker.
JobContext = Tuple[str, Tuple[int, ...], int, Dict[str, object]]

#: Worker-side evaluator cache size.  Evaluators hold pattern words and
#: compiled kernels; a handful of live jobs is the common case and
#: evicted jobs just rebuild on their next span.
_WORKER_JOB_CACHE = 8


class _WorkerState:
    """What one worker process keeps between frames, keyed by job id:
    evaluators (LRU-bounded) and replay residents."""

    def __init__(self):
        self.evaluators: "OrderedDict[str, Evaluator]" = OrderedDict()
        self.residents: Dict[str, tuple] = {}

    def evaluator_for(self, ctx: JobContext) -> Evaluator:
        job_id, spec_bits, num_vars, config_dict = ctx
        evaluator = self.evaluators.get(job_id)
        if evaluator is None:
            spec = [TruthTable(num_vars, bits) for bits in spec_bits]
            evaluator = Evaluator(spec, RcgpConfig.from_dict(config_dict))
            self.evaluators[job_id] = evaluator
            while len(self.evaluators) > _WORKER_JOB_CACHE:
                evicted, _ = self.evaluators.popitem(last=False)
                self.residents.pop(evicted, None)
        self.evaluators.move_to_end(job_id)
        return evaluator


#: This process's worker state; ``None`` until :func:`init_worker` runs.
_WORKER: Optional[_WorkerState] = None


def init_worker() -> None:
    """Start this process serving spans from a clean slate.

    Every pipe worker and every ``rcgp worker`` calls this before its
    first frame (and again on reconnect): no resident evaluators, fault
    injection armed from the environment.
    """
    global _WORKER
    _WORKER = _WorkerState()
    _engine.install_fault_injection()


def _handle_job_span(payload: memoryview) -> bytes:
    ctx_blob, request = wire.unpack_job_span(payload)
    ctx: JobContext = pickle.loads(ctx_blob)
    state = _WORKER
    if state is None:
        raise WorkerPoolError("pool worker used before initialization")
    job_id = ctx[0]
    result, state.residents[job_id] = _engine.replay_span(
        state.evaluator_for(ctx), state.residents.get(job_id), request)
    return bytes([OP_RESULT]) + wire.pack_span_result(result)


HANDLERS[OP_JOB_SPAN] = _handle_job_span


def _since(counter: str) -> property:
    """A slice-local view of one of the dispatcher's cumulative
    counters (the dispatcher outlives the slice)."""
    return property(
        lambda self: getattr(self._cd, counter) - self._marks[counter])


_DISPATCH_COUNTERS = ("worker_restarts", "batches_retried",
                      "bytes_shipped", "chunks_dispatched",
                      "pipeline_stalls", "spans_remote")


class JobBackend:
    """Per-slice ``EvaluationBackend`` adapter over a dispatcher.

    Created fresh for every slice (or run) so the counters the engine
    reads are slice-local, while the dispatcher — and the
    worker-resident evaluators — persist across slices and jobs.
    ``batch_timeout``/``batch_retries`` come from the job's own config,
    so fault budgets stay per-job even on shared workers.

    ``name`` is the ``backend`` label the run reports: ``process-pool``
    for a run-private pool (:func:`process_pool_backend`),
    ``shared-pool`` for the scheduler's local pool and ``cluster`` when
    a fleet is attached.  ``cluster_workers`` collects every remote
    worker name that served this slice.
    """

    remote_evaluations = True
    supports_spans = True

    def __init__(self, dispatch: ClusterDispatch, ctx: JobContext,
                 spec: Sequence[TruthTable], config: RcgpConfig, *,
                 name: str = "shared-pool", owns_dispatch: bool = False):
        self.name = name
        self._cd = dispatch
        self._ctx_blob = pickle.dumps(ctx)
        self._spec = list(spec)
        self._config = config
        self._owns_dispatch = owns_dispatch
        self._marks = {counter: getattr(dispatch, counter)
                       for counter in _DISPATCH_COUNTERS}
        self.eval_full = 0
        self.eval_incremental = 0
        self.ports_resimulated = 0
        self.cluster_workers: set = set()
        self.degraded = False
        self._inline: Optional[InlineBackend] = None
        self._fallback_evaluator: Optional[Evaluator] = None

    worker_restarts = _since("worker_restarts")
    batches_retried = _since("batches_retried")
    bytes_shipped = _since("bytes_shipped")
    chunks_dispatched = _since("chunks_dispatched")
    pipeline_stalls = _since("pipeline_stalls")
    spans_remote = _since("spans_remote")

    def _commit(self, counters) -> None:
        self.eval_full += counters[0]
        self.eval_incremental += counters[1]
        self.ports_resimulated += counters[2]

    # -- inline evaluation (same construction as a worker's evaluator,
    # -- so it cannot change results in any parallel-safe mode) -------

    def _run_inline(self, call) -> List[Fitness]:
        if self._inline is None:
            self._fallback_evaluator = Evaluator(self._spec, self._config)
            self._inline = InlineBackend(self._fallback_evaluator)
        evaluator = self._fallback_evaluator
        before = _engine._counters(evaluator)
        out = call(self._inline)
        after = _engine._counters(evaluator)
        self._commit((after[0] - before[0], after[1] - before[1],
                      after[2] - before[2]))
        return out

    def evaluate(self, genomes: Sequence[Genome]) -> List[Fitness]:
        return self._run_inline(lambda b: b.evaluate(genomes))

    def evaluate_deltas(self, parent_genome: Genome,
                        deltas: Sequence[MutationDelta],
                        children: Optional[Sequence] = None,
                        floor: Optional[Fitness] = None) \
            -> List[Fitness]:
        return self._run_inline(
            lambda b: b.evaluate_deltas(parent_genome, deltas, children,
                                        floor))

    # -- replay spans --------------------------------------------------

    def dispatch_span(self, request: wire.SpanRequest) -> bool:
        """Hand one span to the dispatcher without waiting; False when
        it has no workers at all (the engine then runs inline)."""
        return self._cd.dispatch_span(self._ctx_blob, request)

    def collect_span(self) -> Optional[wire.SpanResult]:
        """The in-flight span's result, or None when the dispatcher
        gave up on it (out of retries: the slice degrades) or had no
        worker (the slice finishes inline without degrading); either
        way the engine runs the rest of the slice inline."""
        result = self._cd.collect_span(self._config.batch_timeout,
                                       self._config.batch_retries)
        if result is None:
            if self._cd.last_failure == "exhausted":
                self.degraded = True
            return None
        self.cluster_workers.update(self._cd.last_workers)
        for _accepted, _fit, counters in result.records:
            self._commit(counters)
        return result

    def terminate(self) -> None:
        """Immediate shutdown (SIGINT path) of an owned dispatcher."""
        if self._owns_dispatch:
            self._cd.terminate()

    def close(self) -> None:
        # A shared dispatcher outlives the slice; only a run-private
        # one is released here.
        if self._owns_dispatch:
            self._cd.close()


def process_pool_backend(spec: Sequence[TruthTable], config: RcgpConfig,
                         workers: int) -> JobBackend:
    """The run-private pool ``EvolutionRun(workers=N)`` builds: a
    dispatcher over ``workers`` local pipe workers, owned by the
    returned adapter (closed with it)."""
    if workers < 2:
        raise ValueError("a process pool needs workers >= 2")
    spec = list(spec)
    ctx = ("run", tuple(t.bits for t in spec), spec[0].num_vars,
           config.to_dict())
    return JobBackend(ClusterDispatch(local_workers=workers), ctx, spec,
                      config, name="process-pool", owns_dispatch=True)


def parallel_safe_config(num_inputs: int, config: RcgpConfig) -> bool:
    """Pool-safety of a job, decidable without building an evaluator.

    Mirrors :func:`repro.core.engine.parallel_safe`: exhaustive
    simulation is pure; sampled simulation is pure iff seeded and free
    of SAT counterexample feedback.
    """
    if num_inputs <= config.exhaustive_input_limit:
        return True
    return not config.verify_with_sat and config.seed is not None


__all__ = [
    "JobBackend",
    "JobContext",
    "init_worker",
    "parallel_safe_config",
    "process_pool_backend",
]
