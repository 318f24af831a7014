"""Distributed span evaluation over TCP remote workers.

The pipe transport (:mod:`repro.core.transport`) and this package are
two codecs over one frame protocol: the same opcodes, the same
``serve_frame`` dispatch, the same :mod:`repro.core.wire` payloads.  A
``rcgp worker`` process dials the coordinator's
:class:`~repro.cluster.fleet.ClusterFleet`, handshakes (protocol
version, shared token, cpu slots) and then serves exactly the frames a
local pipe worker serves; the
:class:`~repro.cluster.backend.ClusterDispatch` leases channels over a
dynamic mix of local and remote workers to the per-slice
:class:`~repro.jobs.pool.JobBackend` handles, which ship every replay
span with the one fault recovery loop, so results stay bit-identical
to the serial loop whatever the fleet does.
"""

from .backend import ClusterDispatch
from .fleet import ClusterFleet, RemoteWorker
from .protocol import PROTOCOL_VERSION, SocketChannel
from .worker import run_worker

__all__ = [
    "ClusterDispatch",
    "ClusterFleet",
    "PROTOCOL_VERSION",
    "RemoteWorker",
    "SocketChannel",
    "run_worker",
]
