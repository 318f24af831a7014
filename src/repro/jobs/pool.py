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
* **Coordinator side.**  :class:`JobBackend` is the span backend an
  :class:`~repro.core.engine.EvolutionRun` dispatches to, with
  slice-local counters.  When a slice has no span path — the
  dispatcher ran out of retries (``degraded``) or had no worker to send
  to — the run finishes the slice in-process with the same
  :func:`~repro.core.engine.replay_span`.  Degradation is slice-local:
  the next slice gets a fresh adapter and tries the workers again.

Purity guarantees are unchanged: only parallel-safe jobs (exhaustive
simulation, or seeded sampling without SAT feedback) are routed here by
default, so every re-dispatched span and every in-process fallback is
bit-identical to the serial loop.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from ..cluster.backend import ClusterDispatch
from ..core import engine as _engine
from ..core import wire
from ..core.config import RcgpConfig
from ..core.fitness import Evaluator
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
    """Per-slice span backend over a dispatcher.

    Created fresh for every slice (or run) so the counters the engine
    reads are slice-local, while the dispatcher — and the
    worker-resident evaluators — persist across slices and jobs.
    ``batch_timeout``/``batch_retries`` come from the job's own config,
    so fault budgets stay per-job even on shared workers.  Workers read
    the job's spec and config from ``ctx``.

    ``name`` is the ``backend`` label the run reports: ``process-pool``
    for a run-private pool (:func:`process_pool_backend`),
    ``shared-pool`` for the scheduler's local pool and ``cluster`` when
    a fleet is attached.  ``cluster_workers`` collects every remote
    worker name that served this slice.
    """

    def __init__(self, dispatch: ClusterDispatch, ctx: JobContext,
                 config: RcgpConfig, *,
                 name: str = "shared-pool", owns_dispatch: bool = False):
        self.name = name
        self._cd = dispatch
        self._ctx_blob = pickle.dumps(ctx)
        self._config = config
        self._owns_dispatch = owns_dispatch
        self._marks = {counter: getattr(dispatch, counter)
                       for counter in _DISPATCH_COUNTERS}
        self.eval_full = 0
        self.eval_incremental = 0
        self.ports_resimulated = 0
        self.cluster_workers: set = set()
        self.degraded = False

    worker_restarts = _since("worker_restarts")
    batches_retried = _since("batches_retried")
    bytes_shipped = _since("bytes_shipped")
    chunks_dispatched = _since("chunks_dispatched")
    pipeline_stalls = _since("pipeline_stalls")
    spans_remote = _since("spans_remote")

    def evaluate(self, genomes):
        """Retired batch entry point (runs replay spans only); the name
        stays resolvable for trace hooks that wrap it."""
        raise WorkerPoolError("replay spans only")

    def evaluate_deltas(self, parent_genome, deltas, children=None,
                        floor=None):
        """Retired batch entry point, like :meth:`evaluate`."""
        raise WorkerPoolError("replay spans only")

    # -- replay spans --------------------------------------------------

    def dispatch_span(self, request: wire.SpanRequest) -> bool:
        """Hand one span to the dispatcher without waiting; False when
        it has no workers at all (the run then replays in-process)."""
        return self._cd.dispatch_span(self._ctx_blob, request)

    def collect_span(self) -> Optional[wire.SpanResult]:
        """The in-flight span's result, or None when the dispatcher
        gave up on it (out of retries: the slice degrades) or had no
        worker (the slice finishes in-process without degrading);
        either way the run replays the rest of the slice in-process."""
        result = self._cd.collect_span(self._config.batch_timeout,
                                       self._config.batch_retries)
        if result is None:
            if self._cd.last_failure == "exhausted":
                self.degraded = True
            return None
        self.cluster_workers.update(self._cd.last_workers)
        for _accepted, _fit, counters in result.records:
            self.eval_full += counters[0]
            self.eval_incremental += counters[1]
            self.ports_resimulated += counters[2]
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


def process_pool_backend(spec: Sequence[TruthTable],
                         config: RcgpConfig) -> JobBackend:
    """The run-private pool ``EvolutionRun(workers=N)`` builds: a
    dispatcher over one local pipe worker, owned by the returned adapter
    (closed with it).  One worker is all a single run can use: span
    k+1 starts from span k's final parent, so spans run one at a
    time."""
    spec = list(spec)
    ctx = ("run", tuple(t.bits for t in spec), spec[0].num_vars,
           config.to_dict())
    return JobBackend(ClusterDispatch(local_workers=1), ctx, config,
                      name="process-pool", owns_dispatch=True)


def parallel_safe_config(num_inputs: int, config: RcgpConfig) -> bool:
    """Whether a job's fitness is pure enough to run on pool workers.

    Exhaustive simulation is pure.  Sampled simulation is pure iff the
    pattern set is reproducible (seeded) and free of SAT counterexample
    feedback, which would make workers drift from the coordinator.
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
