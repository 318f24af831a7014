"""The one dispatcher: channel leases over a dynamic local + remote mix.

:class:`ClusterDispatch` is long-lived — owned by the scheduler or by
whoever builds a pooled run by hand (a test harness, a benchmark).  It
holds no span: it only *leases* channels — an idle remote worker from
the :class:`~repro.cluster.fleet.ClusterFleet` first, else an idle
local :class:`~repro.core.transport.PipeWorker`, else a new one while
fewer than ``local_workers`` run — and takes them back, failed or not.
A failed local worker is killed and forgotten alone (a later lease
starts its replacement); a failed remote one drops its connection (the
worker process dials back in).

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

from typing import List, Optional

from ..core.transport import PipeWorker
from .fleet import ClusterFleet


class ClusterDispatch:
    """Channel leases over whatever workers exist *right now*.

    ``fleet`` may be ``None`` (local-only) and ``local_workers`` may be
    ``0`` (remote-only: every span rides the fleet, and a fleet with
    nobody connected has no channel until somebody dials in).
    ``local_workers`` bounds the pipe workers alive at once; each one
    starts when a lease finds no idle worker.
    """

    def __init__(self, fleet: Optional[ClusterFleet] = None, *,
                 local_workers: int = 0):
        self.fleet = fleet
        self.local_workers = max(0, local_workers)
        self._live: List[PipeWorker] = []   # every running pipe worker
        self._idle: List[PipeWorker] = []   # released ones, newest last

    def lease(self):
        """Lease one idle remote worker, else the most recently released
        local worker (its resident evaluators are warm), else a new one
        while fewer than ``local_workers`` run; ``None`` when no channel
        is usable right now.

        A remote channel stays leased until :meth:`release` — the
        heartbeat thread must never interleave a ping with an in-flight
        span.
        """
        if self.fleet is not None:
            worker = self.fleet.lease()
            if worker is not None:
                return worker
        if self._idle:
            return self._idle.pop()
        if len(self._live) < self.local_workers:
            try:
                worker = PipeWorker(self._live)
            except OSError:
                return None
            self._live.append(worker)
            return worker
        return None

    def release(self, channel, *, failed: bool) -> None:
        """Take a leased channel back; ``failed`` replaces its worker."""
        if channel.remote:
            if failed:
                self.fleet.drop(channel)
            self.fleet.release(channel)
        elif failed:
            self._live.remove(channel)
            channel.kill()
        else:
            self._idle.append(channel)

    def close(self) -> None:
        """Close every local worker; the fleet belongs to its owner."""
        for worker in self._live:
            worker.close()
        self._live, self._idle = [], []


__all__ = ["ClusterDispatch"]
