"""Coordinator-side registry of connected remote workers.

The :class:`ClusterFleet` owns the listening socket workers dial into
(``rcgp worker --connect host:port``), runs the registration handshake
(protocol version, shared token via ``hmac.compare_digest``, identity,
cpu slots), and keeps one :class:`RemoteWorker` per live connection.

Ownership protocol: anything that wants to *use* a worker's channel —
a :class:`~repro.jobs.pool.JobBackend` shipping frames on a channel
leased through :class:`~repro.cluster.backend.ClusterDispatch`, the
heartbeat thread probing idle connections — must hold that
worker's lock.  :meth:`lease` hands out one currently-idle live worker
and :meth:`release` returns it, so a worker mid-span is never pinged
and two spans never interleave frames on one socket.  A
worker that fails while leased is :meth:`drop`-ped by the lease holder
(socket closed, registry slot freed); the worker process notices the
dead connection and dials back in, which counts into
``reconnects_total``.

The fleet never *initiates* work; it is pure membership + liveness.
Leasing lives in :mod:`repro.cluster.backend`, spans and retries in
:mod:`repro.jobs.pool`.
"""

from __future__ import annotations

import hmac
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from ..core import transport
from . import protocol
from .protocol import PROTOCOL_VERSION, SocketChannel

#: How often idle workers are pinged, and how long a worker may sit
#: without hearing anything before it assumes the coordinator is gone
#: (workers use ``heartbeat * IDLE_GRACE`` as their read timeout).
DEFAULT_HEARTBEAT = 10.0
IDLE_GRACE = 6.0


class RemoteWorker:
    """One registered remote worker connection, and the channel a span
    rides while the worker is leased (its lock held)."""

    __slots__ = ("worker_id", "name", "host", "pid", "slots",
                 "incarnation", "connected_at", "channel", "lock",
                 "alive", "spans", "frames", "bytes_shipped")
    remote = True

    def __init__(self, worker_id: int, channel: SocketChannel,
                 hello: Dict[str, Any]):
        self.worker_id = worker_id
        self.name = str(hello.get("name") or f"worker-{worker_id}")
        self.host = str(hello.get("host", ""))
        self.pid = int(hello.get("pid", 0))
        self.slots = max(1, int(hello.get("slots", 1)))
        self.incarnation = int(hello.get("incarnation", 0))
        self.connected_at = time.time()
        self.channel = channel
        self.lock = threading.Lock()
        self.alive = True
        self.spans = 0
        self.frames = 0
        self.bytes_shipped = 0

    def send(self, frame: bytes) -> None:
        self.channel.send(frame)
        self.frames += 1
        self.bytes_shipped += len(frame)

    def recv(self, deadline: Optional[float]) -> bytes:
        return transport.unwrap_reply(self.channel.recv(deadline))

    def ready(self) -> bool:
        return self.channel.ready()

    def view(self) -> Dict[str, Any]:
        """The ``/v1/workers`` document for this connection."""
        return {
            "id": self.worker_id,
            "name": self.name,
            "host": self.host,
            "pid": self.pid,
            "slots": self.slots,
            "incarnation": self.incarnation,
            "connected_at": self.connected_at,
            "uptime_seconds": round(time.time() - self.connected_at, 3),
            "spans": self.spans,
            "frames": self.frames,
            "bytes_shipped": self.bytes_shipped,
            "busy": self.lock.locked(),
        }


class ClusterFleet:
    """Accept, authenticate and monitor remote workers.

    Parameters
    ----------
    token:
        Required shared secret; a worker presenting anything else is
        rejected with a typed ``auth`` REJECT.
    host / port:
        Listen address for worker registration (``port=0`` picks a free
        port; read it back from :attr:`port`).
    heartbeat:
        Seconds between liveness pings of *idle* workers.  Also
        advertised to workers in WELCOME so their idle read timeout
        scales with it.
    """

    def __init__(self, *, token: str, host: str = "127.0.0.1",
                 port: int = 0, heartbeat: float = DEFAULT_HEARTBEAT,
                 heartbeat_timeout: float = 5.0,
                 handshake_timeout: float = 10.0):
        if not token:
            raise ValueError(
                "a cluster fleet requires a non-empty token")
        self._token = token
        self.heartbeat = heartbeat
        self._heartbeat_timeout = heartbeat_timeout
        self._handshake_timeout = handshake_timeout
        self._lock = threading.Lock()
        self._workers: Dict[int, RemoteWorker] = {}
        self._seen_names: set = set()
        self._next_id = 1
        self._closed = threading.Event()
        self._threads: List[threading.Thread] = []
        self.reconnects_total = 0
        self.rejections_total = 0
        self.spans_remote_total = 0
        self._listener = socket.create_server(
            (host, port), reuse_port=False)
        self.host, self.port = self._listener.getsockname()[:2]

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ClusterFleet":
        accept = threading.Thread(target=self._accept_loop,
                                  name="cluster-accept", daemon=True)
        beat = threading.Thread(target=self._heartbeat_loop,
                                name="cluster-heartbeat", daemon=True)
        self._threads = [accept, beat]
        accept.start()
        beat.start()
        return self

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for worker in self.live():
            self.drop(worker)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "ClusterFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- membership ----------------------------------------------------

    def live(self) -> List[RemoteWorker]:
        with self._lock:
            return [w for w in self._workers.values() if w.alive]

    def live_count(self) -> int:
        return len(self.live())

    def workers_view(self) -> List[Dict[str, Any]]:
        return [worker.view() for worker in self.live()]

    def lease(self) -> Optional[RemoteWorker]:
        """Check out one currently-idle live worker (its lock held).

        Never blocks: a worker whose lock is taken (mid-span, or being
        heartbeated right now) is skipped.  Callers must
        :meth:`release` what they got.
        """
        for worker in self.live():
            if worker.lock.acquire(blocking=False):
                if worker.alive:
                    return worker
                worker.lock.release()
        return None

    def release(self, worker: RemoteWorker) -> None:
        worker.lock.release()

    def drop(self, worker: RemoteWorker) -> None:
        """Forget a worker and close its socket (lease holder or
        shutdown only).  The worker process reconnects on its own."""
        with self._lock:
            worker.alive = False
            self._workers.pop(worker.worker_id, None)
        worker.channel.close()

    def record_span(self, worker: RemoteWorker) -> None:
        with self._lock:
            self.spans_remote_total += 1
        worker.spans += 1

    # -- registration --------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            # Handshake in its own thread: one slow or hostile dialer
            # must not stall registration of the rest of the fleet.
            threading.Thread(target=self._register, args=(sock,),
                             name="cluster-handshake",
                             daemon=True).start()

    def _register(self, sock: socket.socket) -> None:
        channel = SocketChannel(sock)
        try:
            hello = protocol.unpack_hello(channel.recv(
                time.monotonic() + self._handshake_timeout))
            proto = int(hello.get("proto", -1))
            if proto != PROTOCOL_VERSION:
                channel.send(protocol.pack_reject(
                    "version",
                    f"coordinator speaks protocol {PROTOCOL_VERSION}, "
                    f"worker sent {proto}"))
                raise ConnectionError("protocol version skew")
            if not hmac.compare_digest(str(hello.get("token", "")),
                                       self._token):
                channel.send(protocol.pack_reject(
                    "auth", "cluster token rejected"))
                raise ConnectionError("bad token")
            with self._lock:
                worker_id = self._next_id
                self._next_id += 1
                worker = RemoteWorker(worker_id, channel, hello)
                if worker.name in self._seen_names:
                    self.reconnects_total += 1
                self._seen_names.add(worker.name)
                self._workers[worker_id] = worker
            channel.send(protocol.pack_welcome(
                worker_id=worker_id, heartbeat=self.heartbeat))
        except (ConnectionError, Exception) as exc:  # noqa: BLE001
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            with self._lock:
                self.rejections_total += 1
            channel.close()

    # -- liveness ------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        ping = bytes([transport.OP_PING])
        while not self._closed.wait(self.heartbeat):
            for worker in self.live():
                if not worker.lock.acquire(blocking=False):
                    continue  # busy with a span; that is liveness
                try:
                    if not worker.alive:
                        continue
                    worker.channel.send(ping)
                    reply = worker.channel.recv(
                        time.monotonic() + self._heartbeat_timeout)
                    transport.unwrap_reply(reply,
                                           expect=transport.OP_PONG)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:  # noqa: BLE001 - any failure = dead
                    self.drop(worker)
                finally:
                    worker.lock.release()


__all__ = ["ClusterFleet", "RemoteWorker", "DEFAULT_HEARTBEAT",
           "IDLE_GRACE"]
