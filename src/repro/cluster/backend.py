"""The one dispatcher: channel leases over a dynamic local + remote mix.

:class:`ClusterDispatch` is long-lived — owned by the scheduler or by
whoever builds a pooled run by hand (a test harness, a benchmark).  It
holds no span: it only *leases* channels — an idle remote worker from
the :class:`~repro.cluster.fleet.ClusterFleet` first, else local pipe
worker 0 of a lazily spawned pool — and takes them back, failed or not.
A failed local channel kills the pipe workers (the next lease respawns
them); a failed remote one drops its connection (the worker process
dials back in).

Everything about one span — the request in flight, the channel it
rides, the bounded retry loop with its one-generation re-send, and
every transport counter — lives in the per-slice handle,
:class:`~repro.jobs.pool.JobBackend`.  Whoever creates a handle closes
it, which releases a span abandoned in flight (an interrupted run) as
failed, so its late reply is never read as another span's.

Determinism: replay is pure for every parallel-safe config and
per-offspring RNG streams are keyed by ``(seed, absolute generation,
index)``, so *any* channel mix (0 remotes, N remotes, remotes joining
or dying mid-run) returns bit-identical records **and** bit-identical
eval counters to the serial loop.
"""

from __future__ import annotations

from typing import Optional

from ..core import transport
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
    """One leased fleet worker as a channel."""

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
    """Channel leases over whatever workers exist *right now*.

    ``fleet`` may be ``None`` (local-only: a plain pipe pool) and
    ``local_workers`` may be ``0`` (remote-only: every span rides the
    fleet, and a fleet with nobody connected has no channel until
    somebody dials in).
    """

    def __init__(self, fleet: Optional[ClusterFleet] = None, *,
                 local_workers: int = 0):
        self.fleet = fleet
        self.local_workers = max(0, local_workers)
        self._pool: Optional[PipeWorkerPool] = None

    def _kill_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.kill()

    def lease(self):
        """Lease one idle remote worker, else local worker 0; ``None``
        when no channel is usable right now.

        A remote channel stays leased until :meth:`release` — the
        heartbeat thread must never interleave a ping with an in-flight
        span.
        """
        if self.fleet is not None:
            worker = self.fleet.lease()
            if worker is not None:
                return _RemoteChannel(self.fleet, worker)
        if self.local_workers > 0:
            if self._pool is None:
                try:
                    self._pool = PipeWorkerPool(self.local_workers)
                except OSError:
                    return None
            return _LocalChannel(self)
        return None

    def release(self, channel, *, failed: bool) -> None:
        """Take a leased channel back; ``failed`` replaces its worker."""
        if failed:
            channel.fail()
        if channel.remote:
            self.fleet.release(channel.worker)

    def close(self) -> None:
        """Release local workers; the fleet belongs to its owner."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None


__all__ = ["ClusterDispatch"]
