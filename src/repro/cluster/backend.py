"""The one dispatcher: replay spans over a dynamic local + remote mix.

:class:`ClusterDispatch` is long-lived — owned by the scheduler, by a
run-private pool (:func:`repro.jobs.pool.process_pool_backend`) or by a
test harness.  For each replay span it leases one *channel* — an idle
remote worker from the :class:`~repro.cluster.fleet.ClusterFleet`
first, else a lazily spawned local pipe worker — ships one job-keyed
``OP_JOB_SPAN`` frame, and runs the one bounded fault-recovery loop
every pool path shares: a failed attempt drops the remote connection it
used (the worker process dials back in) or kills the local pipe
workers, and re-sends against a fresh channel.  Per-slice counters
live in the adapter, :class:`~repro.jobs.pool.JobBackend`.

Determinism: replay is pure for every parallel-safe config and
per-offspring RNG streams are keyed by ``(seed, absolute generation,
index)``, so *any* channel mix (0 remotes, N remotes, remotes joining
or dying mid-run) returns bit-identical records **and** bit-identical
eval counters to the serial loop.  A re-sent span is one generation
long: any prefix of a span replays identically, and the shortest one is
the likeliest to get through a worker that keeps dying or overrunning
its deadline.

Degradation is slice-local, never sticky: a dispatcher that runs out of
retries, or momentarily has no usable channel, fails only the span in
hand — the run finishes that slice in-process and the next slice tries
the workers again, so a long-lived ``rcgp serve`` never inlines forever
because of one bad minute.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from ..core import transport, wire
from ..core.engine import RECOVERABLE_POOL_ERRORS
from ..core.transport import PipeWorkerPool
from .fleet import ClusterFleet, RemoteWorker


class _LocalChannel:
    """Local pipe worker 0 of the dispatch-owned pool, as a channel
    (one span is in flight at a time, so one worker serves them all)."""

    __slots__ = ("_dispatch",)
    remote = False

    def __init__(self, dispatch: "ClusterDispatch"):
        self._dispatch = dispatch

    def send(self, frame: bytes) -> None:
        self._dispatch._pool.send(0, frame)

    def recv(self, deadline: Optional[float]) -> bytes:
        return self._dispatch._pool.recv(0, deadline)

    def ready(self) -> bool:
        pool = self._dispatch._pool
        return pool is not None and pool.ready(0)

    def fail(self) -> None:
        self._dispatch._kill_pool()


class _RemoteChannel:
    """One leased fleet worker as a channel (lease held by the caller)."""

    __slots__ = ("_fleet", "worker")
    remote = True

    def __init__(self, fleet: ClusterFleet, worker: RemoteWorker):
        self._fleet = fleet
        self.worker = worker

    @property
    def name(self) -> str:
        return self.worker.name

    def send(self, frame: bytes) -> None:
        self.worker.channel.send(frame)
        self.worker.frames += 1
        self.worker.bytes_shipped += len(frame)

    def recv(self, deadline: Optional[float]) -> bytes:
        return transport.unwrap_reply(self.worker.channel.recv(deadline))

    def ready(self) -> bool:
        return self.worker.channel.ready()

    def fail(self) -> None:
        self._fleet.drop(self.worker)


class ClusterDispatch:
    """Span dispatch over whatever workers exist *right now*.

    ``fleet`` may be ``None`` (local-only: a plain pipe pool) and
    ``local_workers`` may be ``0`` (remote-only: every span rides the
    fleet, and a fleet with nobody connected has no span path until
    somebody dials in).  At most one span is in flight.
    """

    def __init__(self, fleet: Optional[ClusterFleet] = None, *,
                 local_workers: int = 0):
        self.fleet = fleet
        self.local_workers = max(0, local_workers)
        self._pool: Optional[PipeWorkerPool] = None
        # Cumulative counters; JobBackend exposes slice-local views.
        self.worker_restarts = 0
        self.batches_retried = 0
        self.bytes_shipped = 0
        self.chunks_dispatched = 0
        self.pipeline_stalls = 0
        self.spans_remote = 0
        #: Why the last ``collect_span`` returned ``None``:
        #: ``"no_channels"`` (transient) or ``"exhausted"`` (retry
        #: budget spent).
        self.last_failure = ""
        #: Remote worker names that served the last successful span.
        self.last_workers: Tuple[str, ...] = ()
        # The in-flight span: (job context blob, request), its channel.
        self._span: Optional[Tuple[bytes, wire.SpanRequest]] = None
        self._span_channel = None
        self._span_live = False

    # -- lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> PipeWorkerPool:
        if self._pool is None:
            self._pool = PipeWorkerPool(self.local_workers)
        return self._pool

    def _kill_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.kill()

    def terminate(self) -> None:
        """Immediate shutdown (SIGINT path): kill local workers now."""
        self._release_span(failed=True)
        self._kill_pool()

    def close(self) -> None:
        """Release local workers; the fleet belongs to its owner."""
        self._release_span(failed=True)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- channels ------------------------------------------------------

    def _acquire_channel(self):
        """Lease one idle remote worker, else attach local worker 0.

        The channel stays leased until its span resolves — the
        heartbeat thread must never interleave a ping with an in-flight
        span.
        """
        if self.fleet is not None:
            worker = self.fleet.lease()
            if worker is not None:
                return _RemoteChannel(self.fleet, worker)
        if self.local_workers > 0:
            try:
                self._ensure_pool()
            except OSError:
                self._pool = None
            else:
                return _LocalChannel(self)
        return None

    def _release_span(self, *, failed: bool) -> None:
        channel, self._span_channel = self._span_channel, None
        self._span_live = False
        if channel is None:
            return
        if failed:
            channel.fail()
        if channel.remote:
            self.fleet.release(channel.worker)

    def _send(self, request: wire.SpanRequest) -> None:
        frame = bytes([transport.OP_JOB_SPAN]) + wire.pack_job_span(
            self._span[0], request)
        self._span_channel.send(frame)
        self.bytes_shipped += len(frame)
        self.chunks_dispatched += 1
        self._span_live = True

    # -- replay spans --------------------------------------------------

    def dispatch_span(self, ctx_blob: bytes,
                      request: wire.SpanRequest) -> bool:
        """Ship one job's replay span without waiting for it.

        Returns False when this dispatcher has no workers at all.  Send
        failures are left for :meth:`collect_span`'s retry loop, which
        re-sends from the stored request.
        """
        if self.fleet is None and self.local_workers == 0:
            return False
        if self._span_channel is not None:
            # A span abandoned in flight (an interrupted run): its late
            # reply must never be read as this span's.
            self._release_span(failed=True)
        self._span = (ctx_blob, request)
        self._span_channel = self._acquire_channel()
        self._span_live = False
        if self._span_channel is not None:
            try:
                self._send(request)
            except (KeyboardInterrupt, SystemExit):
                self._release_span(failed=True)
                raise
            except RECOVERABLE_POOL_ERRORS:
                self._release_span(failed=True)
        return True

    def collect_span(self, timeout: Optional[float],
                     retries: int) -> Optional[wire.SpanResult]:
        """Block for the in-flight span, with bounded fault recovery.

        ``timeout`` bounds each attempt's wait; ``retries`` bounds the
        re-sends.  Returns ``None`` with :attr:`last_failure` set when
        the span cannot be served.
        """
        if self._span is None:
            raise RuntimeError("collect_span without a dispatched span")
        request = self._span[1]
        if self._span_live and not self._span_channel.ready():
            # The coordinator caught up with the worker: the overlap
            # window was shorter than the span's compute time.
            self.pipeline_stalls += 1
        attempt = 0
        while True:
            if self._span_channel is None:
                self._span_channel = self._acquire_channel()
                if self._span_channel is None:
                    self._span = None
                    self.last_failure = "no_channels"
                    return None
            channel = self._span_channel
            try:
                if not self._span_live:
                    self._send(request if attempt == 0
                               else request.head(1))
                deadline = None if timeout is None \
                    else time.monotonic() + timeout
                reply = channel.recv(deadline)
            except (KeyboardInterrupt, SystemExit):
                self._release_span(failed=True)
                raise
            except RECOVERABLE_POOL_ERRORS:
                self._release_span(failed=True)
                if attempt >= retries:
                    self._span = None
                    self.last_failure = "exhausted"
                    return None
                attempt += 1
                self.batches_retried += 1
                self.worker_restarts += 1
                continue
            if channel.remote:
                self.fleet.record_span(channel.worker)
                self.spans_remote += 1
            self.last_workers = (channel.name,) if channel.remote else ()
            self._release_span(failed=False)
            self._span = None
            return wire.unpack_span_result(memoryview(reply)[1:])


__all__ = ["ClusterDispatch"]
