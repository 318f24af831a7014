"""Pipe-based worker transport for replay spans.

``concurrent.futures.ProcessPoolExecutor`` costs a surprising amount
per dispatch — a call queue with a management thread, per-task pickling
of the callable and its arguments, and a result queue on the way back.
This module is the thinnest thing that still satisfies the pool
contract:

* one ``multiprocessing.Pipe`` + long-lived ``Process`` per
  :class:`PipeWorker`, started when a lease first needs it and itself
  the channel a span rides;
* one length-prefixed **frame** per request/reply (``send_bytes`` /
  ``recv_bytes``), first byte = opcode, payload packed by
  :mod:`repro.core.wire` (no pickle on the per-span path);
* worker exceptions pickled into an ``ERROR`` frame and re-raised
  coordinator-side, so typed errors (``WorkerPoolError``) propagate;
* crash/hang/pipe-death surfaces as ``EOFError`` / ``OSError`` /
  ``TimeoutError`` — the :data:`repro.core.engine.
  RECOVERABLE_POOL_ERRORS` the span handle's retry loop handles.

There are two requests: ``OP_JOB_SPAN`` (a job-keyed replay span,
served by :mod:`repro.jobs.pool`, which :func:`serve_frame` imports at
call time because that module imports this one) and ``OP_PING``.

:func:`serve_frame` (validate + dispatch + pack errors) and
:func:`unwrap_reply` (validate + re-raise shipped errors) are the
shared dispatch core: the pipe transport here and the TCP
transport in :mod:`repro.cluster.protocol` are two codecs over the same
frames, so a remote worker serves exactly the byte streams a local one
does.  Malformed frames — empty, oversized (> :func:`max_frame_bytes`),
unknown opcode, or truncated payloads — surface as the typed
:class:`~repro.errors.FrameError` family rather than hanging a peer or
leaking ``struct.error``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import time
from typing import Optional

from ..errors import FrameTooLarge, FrameTruncated, UnknownOpcode

# Frame opcodes.  One request (a job-keyed replay span, served by
# repro.jobs.pool); one RESULT or ERROR reply per request.  PING/PONG is
# the cluster coordinator's liveness probe for idle remote workers (the
# pipe transport never sends it; worker death there surfaces as pipe
# EOF).
OP_PING = 0x01
OP_JOB_SPAN = 0x14
OP_RESULT = 0x20
OP_PONG = 0x21
OP_ERROR = 0x2E

#: Default cap on a single frame, request or reply.  Genuine frames are
#: kilobytes (a span is two compact wire frames regardless of length);
#: the cap exists so one corrupt or hostile length prefix cannot make a
#: peer buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


def max_frame_bytes() -> int:
    """The configured frame-size cap (``RCGP_MAX_FRAME_BYTES`` wins)."""
    value = os.environ.get("RCGP_MAX_FRAME_BYTES", "")
    return int(value) if value else DEFAULT_MAX_FRAME_BYTES


def check_frame(frame, *, max_bytes: Optional[int] = None) -> None:
    """Reject structurally invalid frames with typed errors.

    Empty frames (no opcode byte) raise
    :class:`~repro.errors.FrameTruncated`; frames over ``max_bytes``
    raise :class:`~repro.errors.FrameTooLarge`.
    """
    if len(frame) == 0:
        raise FrameTruncated("empty frame (no opcode byte)")
    if max_bytes is not None and len(frame) > max_bytes:
        raise FrameTooLarge(
            f"frame of {len(frame)} bytes exceeds the "
            f"{max_bytes}-byte cap")


def error_frame(exc: BaseException) -> bytes:
    """Pack an exception into an ``ERROR`` reply frame, typed when the
    exception pickles, ``RuntimeError(repr(exc))`` when it does not."""
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = pickle.dumps(RuntimeError(repr(exc)))
    return bytes([OP_ERROR]) + payload


def serve_frame(frame, *, max_bytes: Optional[int] = None) -> bytes:
    """Serve one request frame: validate, dispatch, reply.

    The worker-side half of the dispatch core, shared by the pipe main
    loop and the TCP worker.  Every failure — a malformed frame, an
    unknown opcode, a handler exception — becomes an ``ERROR`` reply
    the peer re-raises, so a bad request costs one span retry instead
    of a wedged worker.  Only ``KeyboardInterrupt``/``SystemExit``
    propagate (the serve loops exit on them).
    """
    try:
        check_frame(frame, max_bytes=max_bytes)
        op = frame[0]
        if op == OP_JOB_SPAN:
            from ..jobs.pool import _handle_job_span
            return _handle_job_span(memoryview(frame)[1:])
        if op == OP_PING:
            return bytes([OP_PONG])
        raise UnknownOpcode(f"unknown pool frame opcode 0x{op:02x}")
    except (KeyboardInterrupt, SystemExit):
        raise
    except (struct.error, pickle.UnpicklingError) as exc:
        # The pickled job context is decoded outside the typed wire
        # guards; it must not ship raw struct/pickle errors either.
        return error_frame(FrameTruncated(
            f"malformed payload for opcode 0x{frame[0]:02x}: {exc}"))
    except BaseException as exc:  # ship it back, typed
        return error_frame(exc)


def unwrap_reply(frame, *, expect: int = OP_RESULT):
    """Validate one reply frame, re-raising shipped ``ERROR`` frames.

    The coordinator-side half of the dispatch core.  Returns the frame
    itself (payload at ``frame[1:]``) when its opcode is ``expect``;
    raises the unpickled worker exception for ``ERROR`` frames and
    typed :class:`~repro.errors.FrameError` variants for everything
    structurally wrong.
    """
    check_frame(frame)
    op = frame[0]
    if op == OP_ERROR:
        try:
            exc = pickle.loads(memoryview(frame)[1:])
        except Exception as err:
            raise FrameTruncated(
                f"undecodable ERROR frame payload: {err!r}") from None
        raise exc
    if op != expect:
        raise UnknownOpcode(
            f"unexpected reply opcode 0x{op:02x} "
            f"(expected 0x{expect:02x})")
    return frame


def _worker_main(conn, stale) -> None:
    """One worker process: a frame-dispatch loop until the pipe dies."""
    # A forked worker inherits the coordinator-side handles of its own
    # pipe and of every other live worker's.  Holding them open would
    # break EOF semantics both ways: the coordinator could never signal
    # shutdown by closing its end, and another worker's crash would go
    # undetected.  Drop them first.
    for inherited in stale:
        try:
            inherited.close()
        except OSError:
            pass
    # A forked worker also inherits the coordinator's module state
    # (tests drive the handler in-process); start from a clean slate.
    from ..jobs import pool as _jobs_pool
    _jobs_pool.init_worker()
    limit = max_frame_bytes()
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return
        except KeyboardInterrupt:
            return
        try:
            reply = serve_frame(frame, max_bytes=limit)
        except (KeyboardInterrupt, SystemExit):
            return
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            return


class PipeWorker:
    """One pipe-connected worker process, itself a channel.

    Pure transport: ``send`` ships one request frame, ``recv`` blocks
    (under an optional deadline) for the reply, unwrapping ``ERROR``
    frames into re-raised exceptions.  The owner,
    :class:`~repro.cluster.backend.ClusterDispatch`, starts workers as
    leases need them and leases each to one span at a time;
    retry/degradation policy lives with the span handle,
    :class:`~repro.jobs.pool.JobBackend`.

    ``others`` are the owner's other live workers: the child closes
    their coordinator-side pipe ends (and its own), so the death of any
    worker still reads as EOF.  A failed start raises ``OSError``.
    """

    remote = False

    def __init__(self, others=()):
        ctx = multiprocessing.get_context()
        ours, theirs = ctx.Pipe(duplex=True)
        stale = [worker.conn for worker in others] + [ours]
        self.process = ctx.Process(target=_worker_main,
                                   args=(theirs, stale), daemon=True)
        try:
            self.process.start()
        except OSError:
            ours.close()
            raise
        finally:
            # The child holds its own handle; keeping ours open too
            # would mask worker death (recv would never EOF).
            theirs.close()
        self.conn = ours

    def send(self, frame: bytes) -> None:
        """Ship one frame; pipe death raises OSError (recoverable)."""
        self.conn.send_bytes(frame)

    def ready(self) -> bool:
        """Whether a reply frame is already buffered (non-blocking)."""
        return self.conn.poll(0)

    def recv(self, deadline: Optional[float]) -> bytes:
        """One reply frame, ERROR frames re-raised, deadline enforced."""
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.conn.poll(remaining):
                raise TimeoutError(
                    f"pipe worker {self.process.pid} overran the span "
                    f"deadline")
        return unwrap_reply(self.conn.recv_bytes())

    def kill(self) -> None:
        """Tear the worker down *now*, hung or not."""
        self.process.kill()
        self.conn.close()
        self.process.join(timeout=1.0)

    def close(self) -> None:
        """Graceful shutdown: close the pipe (the worker exits on EOF)."""
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.kill()
