"""One protocol, one handle: job-keyed replay spans over a dispatcher.

Every pooled evaluation in this package — the scheduler's local pipe
workers, the TCP fleet, a hand-built pooled run — is the same
conversation: a per-slice :class:`JobBackend` leases a channel from one
long-lived :class:`~repro.cluster.backend.ClusterDispatch` (a local
pipe worker or a remote fleet worker), ships the engine's replay spans
as ``OP_JOB_SPAN`` frames and runs the one fault-recovery loop.

* **Worker side.**  A span frame carries its pickled :data:`JobContext`
  (job id, spec, config), so one worker serves many jobs: it keeps a
  small LRU of per-job evaluators and replay residents
  (:class:`_WorkerState`) and runs
  :func:`~repro.core.engine.replay_span` against them.
* **Coordinator side.**  :class:`JobBackend` is the span backend an
  :class:`~repro.core.engine.EvolutionRun` dispatches to; it holds the
  slice's in-flight span and slice-local counters.  When a slice has
  no span path — the handle ran out of retries (``degraded``) or had
  no channel to lease — the run finishes the slice in-process with the
  same :func:`~repro.core.engine.replay_span`.  Degradation is
  slice-local: the next slice gets a fresh handle and tries the
  workers again.

Purity guarantees are unchanged: only parallel-safe jobs (exhaustive
simulation, or seeded sampling without SAT feedback) are routed here by
the scheduler, so every re-dispatched span and every in-process
fallback is bit-identical to the serial loop.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..cluster.backend import ClusterDispatch
from ..core import engine as _engine
from ..core import wire
from ..core.config import RcgpConfig
from ..core.fitness import Evaluator
from ..core.transport import OP_JOB_SPAN, OP_RESULT
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
    """Serve one ``OP_JOB_SPAN`` request payload (called by
    :func:`repro.core.transport.serve_frame`)."""
    ctx_blob, request = wire.unpack_job_span(payload)
    ctx: JobContext = pickle.loads(ctx_blob)
    state = _WORKER
    if state is None:
        raise WorkerPoolError("pool worker used before initialization")
    job_id = ctx[0]
    result, state.residents[job_id] = _engine.replay_span(
        state.evaluator_for(ctx), state.residents.get(job_id), request)
    return bytes([OP_RESULT]) + wire.pack_span_result(result)


class JobBackend:
    """Per-slice span handle over a dispatcher.

    Created fresh for every slice (or hand-built run) by its owner,
    who closes it: the handle owns the slice's one in-flight span — the
    request, the leased channel, the bounded retry loop — and every
    counter the engine reads, while the dispatcher (and the
    worker-resident evaluators) persist across slices and jobs.
    :meth:`close` releases a span abandoned in flight (an interrupted
    run) as failed, so its late reply is never read as another
    handle's.  ``batch_timeout``/``batch_retries`` come from the job's
    own config, so fault budgets stay per-job even on shared workers.
    Workers read the job's spec and config from ``ctx``.

    ``name`` is the ``backend`` label the run reports: ``shared-pool``
    for local pipe workers and ``cluster`` when a fleet is attached.
    ``cluster_workers`` collects every remote worker name that served
    this slice.
    """

    def __init__(self, dispatch: ClusterDispatch, ctx: JobContext,
                 config: RcgpConfig, *, name: str = "shared-pool"):
        self.name = name
        self._dispatch = dispatch
        self._ctx_blob = pickle.dumps(ctx)
        self._timeout = config.batch_timeout
        self._retries = config.batch_retries
        # The in-flight span: its request (kept for re-sends), the
        # channel it rides (None between a lost attempt and the next
        # lease) and whether its frame went out on that channel.
        self._span: Optional[wire.SpanRequest] = None
        self._channel = None
        self._sent = False
        self.eval_full = 0
        self.eval_incremental = 0
        self.ports_resimulated = 0
        self.worker_restarts = 0
        self.batches_retried = 0
        self.bytes_shipped = 0
        self.chunks_dispatched = 0
        self.pipeline_stalls = 0
        self.spans_remote = 0
        self.cluster_workers: set = set()
        self.degraded = False

    def evaluate(self, genomes):
        """Retired batch entry point (runs replay spans only); the name
        stays resolvable for trace hooks that wrap it."""
        raise WorkerPoolError("replay spans only")

    def evaluate_deltas(self, parent_genome, deltas, children=None,
                        floor=None):
        """Retired batch entry point, like :meth:`evaluate`."""
        raise WorkerPoolError("replay spans only")

    # -- replay spans --------------------------------------------------

    def _send(self, request: wire.SpanRequest) -> None:
        frame = bytes([OP_JOB_SPAN]) + wire.pack_job_span(self._ctx_blob,
                                                          request)
        self._channel.send(frame)
        self.bytes_shipped += len(frame)
        self.chunks_dispatched += 1
        self._sent = True

    def _release(self, *, failed: bool) -> None:
        channel, self._channel = self._channel, None
        self._sent = False
        if channel is not None:
            self._dispatch.release(channel, failed=failed)

    def dispatch_span(self, request: wire.SpanRequest) -> bool:
        """Ship one span without waiting for it; False when no channel
        is usable right now (the run then replays the rest of the slice
        in-process, without degrading).  A failed send is left to
        :meth:`collect_span`'s retry loop, which re-sends."""
        self._channel = self._dispatch.lease()
        if self._channel is None:
            return False
        self._span = request
        try:
            self._send(request)
        except _engine.RECOVERABLE_POOL_ERRORS:
            self._release(failed=True)
        return True

    def collect_span(self) -> Optional[wire.SpanResult]:
        """Block for the in-flight span, with bounded fault recovery.

        Each attempt waits at most ``batch_timeout``; a lost attempt
        replaces its worker and re-sends the span one generation long
        (any prefix replays identically, and the shortest is the
        likeliest to get through a worker that keeps dying), up to
        ``batch_retries`` times.  Returns None when the retries run out
        (the slice degrades) or no channel is left to lease (it does
        not); either way the run replays the rest of the slice
        in-process.
        """
        request = self._span
        if self._sent and not self._channel.ready():
            # The coordinator caught up with the worker: the overlap
            # window was shorter than the span's compute time.
            self.pipeline_stalls += 1
        attempt = 0
        while True:
            if self._channel is None:
                self._channel = self._dispatch.lease()
                if self._channel is None:
                    return None
            channel = self._channel
            try:
                if not self._sent:
                    self._send(request if attempt == 0
                               else request.head(1))
                deadline = None if self._timeout is None \
                    else time.monotonic() + self._timeout
                reply = channel.recv(deadline)
            except _engine.RECOVERABLE_POOL_ERRORS:
                self._release(failed=True)
                if attempt >= self._retries:
                    self.degraded = True
                    return None
                attempt += 1
                self.batches_retried += 1
                self.worker_restarts += 1
                continue
            if channel.remote:
                self._dispatch.fleet.record_span(channel)
                self.spans_remote += 1
                self.cluster_workers.add(channel.name)
            self._release(failed=False)
            result = wire.unpack_span_result(memoryview(reply)[1:])
            for _accepted, _fit, counters in result.records:
                self.eval_full += counters[0]
                self.eval_incremental += counters[1]
                self.ports_resimulated += counters[2]
            return result

    def close(self) -> None:
        """Release a span abandoned in flight, as failed."""
        self._release(failed=True)


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
]
