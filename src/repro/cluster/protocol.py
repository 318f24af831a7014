"""The TCP codec of the worker-pool frame protocol.

One frame on a socket is a ``<I`` little-endian length prefix followed
by exactly the bytes the pipe transport would have shipped with
``send_bytes`` — first byte opcode, payload packed by
:mod:`repro.core.wire` — so the dispatch core in
:mod:`repro.core.transport` (``serve_frame`` / ``unwrap_reply``)
serves both transports unchanged.  This module owns only
what TCP adds:

* :class:`SocketChannel` — framing, deadlines and typed failures over
  one connected socket.  Failure mapping is chosen so every remote
  fault lands in :data:`repro.core.engine.RECOVERABLE_POOL_ERRORS`:
  a clean peer close between frames is ``EOFError``, a close mid-frame
  is :class:`~repro.errors.FrameTruncated`, a deadline overrun is
  ``TimeoutError`` (``socket.timeout`` is an alias since 3.10), and
  anything else the kernel reports is ``OSError``.
* the registration handshake — ``HELLO`` (protocol version, shared
  token, identity, cpu slots) answered by ``WELCOME`` (assigned worker
  id, heartbeat interval) or ``REJECT`` (typed: bad token →
  :class:`~repro.errors.ClusterAuthError`, version mismatch →
  :class:`~repro.errors.ClusterVersionSkew`).  Handshake payloads are
  JSON: they are one frame per connection, never on the hot path, and
  must stay decodable across protocol versions so skew is reported
  instead of crashing.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import time
from typing import Any, Dict, Optional

from ..core import transport
from ..errors import (ClusterAuthError, ClusterError, ClusterVersionSkew,
                      FrameTooLarge, FrameTruncated, UnknownOpcode)

#: Bumped whenever frames or handshake payloads change incompatibly.
#: Both sides send it; a mismatch is a typed rejection, never a parse
#: error mid-run.  Version 2: the job-keyed replay span is the only work
#: frame, and its seed field is variable-length.
PROTOCOL_VERSION = 2

# Handshake opcodes (0x4* block; serve_frame never dispatches them — the
# handshake happens before a connection may carry work frames).
OP_HELLO = 0x40
OP_WELCOME = 0x41
OP_REJECT = 0x42

_LEN = struct.Struct("<I")


class SocketChannel:
    """One framed, deadline-aware connection (either side).

    Not thread-safe: the owner serializes request/reply pairs (the
    fleet's per-worker lock coordinator-side, the single serve loop
    worker-side).
    """

    def __init__(self, sock: socket.socket, *,
                 max_bytes: Optional[int] = None,
                 send_timeout: float = 30.0):
        self._sock = sock
        self._max = transport.max_frame_bytes() if max_bytes is None \
            else max_bytes
        self._send_timeout = send_timeout
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (tests use socketpairs)

    def send(self, frame: bytes) -> None:
        """Ship one frame; a dead peer raises ``OSError``/``TimeoutError``
        (both recoverable)."""
        if len(frame) > self._max:
            raise FrameTooLarge(
                f"outgoing frame of {len(frame)} bytes exceeds the "
                f"{self._max}-byte cap")
        self._sock.settimeout(self._send_timeout)
        self._sock.sendall(_LEN.pack(len(frame)) + frame)

    def recv(self, deadline: Optional[float] = None) -> bytes:
        """One whole frame, or a typed failure (see module docstring)."""
        header = self._read(_LEN.size, deadline, at_boundary=True)
        (length,) = _LEN.unpack(header)
        if length > self._max:
            raise FrameTooLarge(
                f"incoming frame of {length} bytes exceeds the "
                f"{self._max}-byte cap")
        if length == 0:
            raise FrameTruncated("zero-length frame (no opcode byte)")
        return self._read(length, deadline, at_boundary=False)

    def _read(self, n: int, deadline: Optional[float], *,
              at_boundary: bool) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            if deadline is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        "cluster channel read overran its deadline")
                self._sock.settimeout(remaining)
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                if at_boundary and not buf:
                    raise EOFError("cluster connection closed")
                raise FrameTruncated(
                    f"connection closed mid-frame "
                    f"({len(buf)}/{n} bytes)")
            buf += chunk
        return bytes(buf)

    def ready(self) -> bool:
        """Whether bytes are already buffered (non-blocking; used for
        pipeline-stall accounting, not correctness)."""
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return False
        return bool(readable)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Handshake frames


def _json_frame(op: int, body: Dict[str, Any]) -> bytes:
    return bytes([op]) + json.dumps(body).encode("utf-8")


def _json_body(frame: bytes) -> Dict[str, Any]:
    try:
        return json.loads(bytes(memoryview(frame)[1:]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameTruncated(
            f"undecodable handshake payload: {exc}") from None


def pack_hello(*, token: str, name: str, slots: int, pid: int,
               host: str, incarnation: int) -> bytes:
    return _json_frame(OP_HELLO, {
        "proto": PROTOCOL_VERSION, "token": token, "name": name,
        "slots": slots, "pid": pid, "host": host,
        "incarnation": incarnation,
    })


def unpack_hello(frame: bytes) -> Dict[str, Any]:
    if not frame or frame[0] != OP_HELLO:
        raise UnknownOpcode(
            "expected HELLO as the first frame of a worker connection")
    return _json_body(frame)


def pack_welcome(*, worker_id: int, heartbeat: float) -> bytes:
    return _json_frame(OP_WELCOME, {"proto": PROTOCOL_VERSION,
                                    "worker_id": worker_id,
                                    "heartbeat": heartbeat})


def pack_reject(code: str, reason: str) -> bytes:
    return _json_frame(OP_REJECT, {"proto": PROTOCOL_VERSION,
                                   "code": code, "reason": reason})


def parse_welcome(frame: bytes) -> Dict[str, Any]:
    """The worker's view of the coordinator's handshake reply.

    Returns the WELCOME body; REJECT frames raise the typed error their
    ``code`` selects (``auth``/``version``/anything else →
    :class:`~repro.errors.ClusterError`).
    """
    transport.check_frame(frame)
    op = frame[0]
    if op == OP_REJECT:
        body = _json_body(frame)
        reason = str(body.get("reason", "registration rejected"))
        code = str(body.get("code", ""))
        if code == "auth":
            raise ClusterAuthError(reason)
        if code == "version":
            raise ClusterVersionSkew(reason)
        raise ClusterError(reason)
    if op != OP_WELCOME:
        raise UnknownOpcode(
            f"unexpected handshake reply opcode 0x{op:02x}")
    return _json_body(frame)


__all__ = [
    "PROTOCOL_VERSION", "OP_HELLO", "OP_WELCOME", "OP_REJECT",
    "SocketChannel", "pack_hello", "unpack_hello", "pack_welcome",
    "pack_reject", "parse_welcome",
]
