"""The remote worker process (``rcgp worker --connect host:port``).

One process, one outbound TCP connection, one serve loop: dial the
coordinator, handshake (protocol version, shared token, identity, cpu
slots), then answer every incoming frame with
:func:`repro.core.transport.serve_frame` — exactly the loop a pipe
worker runs, over the TCP codec.  All evaluation state (the per-job
evaluator LRU, resident parents, replay residents) lives in the same
worker state the pipe workers use, so a remote worker computes
byte-for-byte the replies a local one would.

Fault behavior is deliberately simple: *any* connection failure —
coordinator gone, socket reset, idle silence past the heartbeat grace —
tears the connection down and reconnects with exponential backoff,
because the coordinator treats a lost worker as one recoverable span
and re-sends it elsewhere.  Only typed registration failures
(:class:`~repro.errors.ClusterAuthError`,
:class:`~repro.errors.ClusterVersionSkew`) abort the process: retrying
a bad token or a protocol mismatch would loop forever.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Optional

from ..core import transport
from ..errors import ClusterError
from . import protocol
from .fleet import DEFAULT_HEARTBEAT, IDLE_GRACE

#: Backoff bounds between reconnect attempts (seconds).
RECONNECT_MAX = 30.0


def _reset_worker_state() -> None:
    """Start (or restart) from the clean slate a spawned pipe worker
    gets: no resident evaluators, fault injection armed."""
    from ..jobs import pool as _jobs_pool
    _jobs_pool.init_worker()


def parse_endpoint(value: str) -> "tuple[str, int]":
    """``host:port`` -> ``(host, port)`` with a typed failure."""
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ClusterError(
            f"--connect wants host:port, got {value!r}")
    return host, int(port)


def _serve_connection(channel: protocol.SocketChannel,
                      idle_timeout: float) -> None:
    """Answer frames until the connection dies (raises) or the
    coordinator goes silent past ``idle_timeout`` (raises TimeoutError;
    the caller reconnects)."""
    limit = transport.max_frame_bytes()
    while True:
        frame = channel.recv(time.monotonic() + idle_timeout)
        reply = transport.serve_frame(frame, max_bytes=limit)
        channel.send(reply)


def run_worker(connect: str, token: str, *, name: str = "",
               slots: int = 0, reconnect_delay: float = 1.0,
               once: bool = False,
               log: Optional[Callable[[str], None]] = None) -> int:
    """Serve one coordinator until interrupted.

    Returns a process exit code (``0`` on clean coordinator shutdown
    with ``once=True``); typed registration failures propagate.
    """
    host, port = parse_endpoint(connect)
    if not token:
        raise ClusterError(
            "a cluster worker needs a token (--token or "
            "RCGP_CLUSTER_TOKEN)")
    name = name or f"{socket.gethostname()}-{os.getpid()}"
    slots = slots or os.cpu_count() or 1
    emit = log or (lambda message: None)
    _reset_worker_state()
    incarnation = 0
    backoff = max(0.1, reconnect_delay)
    while True:
        channel = None
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            channel = protocol.SocketChannel(sock)
            channel.send(protocol.pack_hello(
                token=token, name=name, slots=slots, pid=os.getpid(),
                host=socket.gethostname(), incarnation=incarnation))
            welcome = protocol.parse_welcome(
                channel.recv(time.monotonic() + 10.0))
            heartbeat = float(welcome.get("heartbeat",
                                          DEFAULT_HEARTBEAT))
            backoff = max(0.1, reconnect_delay)
            emit(f"worker {name}: registered as id "
                 f"{welcome.get('worker_id')} with {host}:{port} "
                 f"({slots} slots)")
            _serve_connection(channel, max(heartbeat * IDLE_GRACE, 5.0))
        except ClusterError:
            # auth / version-skew / malformed endpoint: not retryable.
            if channel is not None:
                channel.close()
            raise
        except (KeyboardInterrupt, SystemExit):
            if channel is not None:
                channel.close()
            return 0
        except Exception as exc:  # noqa: BLE001 - reconnectable fault
            if channel is not None:
                channel.close()
            if once:
                emit(f"worker {name}: connection ended ({exc!r})")
                return 0
            emit(f"worker {name}: lost coordinator ({exc!r}); "
                 f"reconnecting in {backoff:.1f}s")
            time.sleep(backoff)
            backoff = min(backoff * 2, RECONNECT_MAX)
            incarnation += 1


__all__ = ["run_worker", "parse_endpoint", "RECONNECT_MAX"]
