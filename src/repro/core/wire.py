"""Compact wire codec for the worker transport.

Everything that crosses a worker pipe or socket is packed here as raw
``struct``/``array('q')`` bytes instead of pickled tuple-of-tuples.
There is one request, the job-keyed replay span, and one reply:

* **genomes** — a flat port-index genome is an ``array('q')`` memory
  dump (:func:`pack_genome`), eight bytes per gene with zero per-element
  object overhead;
* **mutation deltas** — length-prefixed flat int runs via
  :meth:`~repro.core.mutation.MutationDelta.flatten` (span check mode
  ships the coordinator's own deltas for worker-side cross-checking);
* **replay spans** — the request ("replay generations ``[start,
  start+count)`` from this parent") and the result (per-generation
  accept records plus at most one genome back) for worker-side mutation
  replay (:class:`SpanRequest` / :class:`SpanResult`), and the job
  frame payload that prefixes a request with its opaque job context
  (:func:`pack_job_span`).

The codec is deliberately dependency-light (``struct``, ``array``, the
:class:`~repro.core.mutation.MutationDelta` dataclass) and symmetric:
every ``pack_*`` has an ``unpack_*`` inverse, property-tested in
``tests/test_wire.py``.  Fitness values travel as raw ``(success, n_r,
n_g, n_b)`` tuples — rebuilding :class:`~repro.core.fitness.Fitness`
objects is the caller's business.
"""

from __future__ import annotations

import functools
import struct
from array import array
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..errors import FrameTruncated
from .mutation import MutationDelta

Fit4 = Tuple[float, int, int, int]
"""Raw fitness fields ``(success, n_r, n_g, n_b)``."""


def _checked(unpack):
    """Turn short/garbled payloads into typed frame errors.

    Every ``unpack_*`` below assumes a well-formed buffer; a truncated
    or corrupt one would otherwise leak ``struct.error`` (fixed-layout
    headers), ``ValueError`` (``array.frombytes`` on a ragged tail) or
    ``IndexError`` (length prefixes pointing past the end) to the
    transport.  All three become
    :class:`~repro.errors.FrameTruncated`, which the pool owners treat
    as one recoverable span loss.
    """
    @functools.wraps(unpack)
    def guarded(data):
        try:
            return unpack(data)
        except (struct.error, ValueError, IndexError) as exc:
            raise FrameTruncated(
                f"{unpack.__name__}: payload of {len(data)} bytes is "
                f"truncated or corrupt ({exc})") from None
    return guarded

_LEN = struct.Struct("<I")
_FIT = struct.Struct("<dqqq")
#: Per-generation replay record: accepted flag, best fitness, and the
#: generation's (eval_full, eval_incremental, ports_resimulated) deltas.
_RECORD = struct.Struct("<Bdqqqqqq")
_SPAN_REQ = struct.Struct("<qIB")
_SPAN_RES = struct.Struct("<IB")


# ----------------------------------------------------------------------
# Genomes


def pack_genome(genome: Sequence[int]) -> bytes:
    """Flat genome tuple -> raw little-endian int64 dump."""
    return array("q", genome).tobytes()


@_checked
def unpack_genome(data: bytes) -> Tuple[int, ...]:
    """Inverse of :func:`pack_genome`."""
    values = array("q")
    values.frombytes(data)
    return tuple(values)


# ----------------------------------------------------------------------
# Mutation deltas


def pack_deltas(deltas: Sequence[MutationDelta]) -> bytes:
    """Delta batch -> one flat ``array('q')`` run."""
    flat: List[int] = [len(deltas)]
    for delta in deltas:
        flat.extend(delta.flatten())
    return array("q", flat).tobytes()


@_checked
def unpack_deltas(data: bytes) -> List[MutationDelta]:
    """Inverse of :func:`pack_deltas`."""
    flat = array("q")
    flat.frombytes(data)
    count = flat[0]
    at = 1
    out = []
    for _ in range(count):
        delta, at = MutationDelta.consume(flat, at)
        out.append(delta)
    return out


# ----------------------------------------------------------------------
# Replay spans


@dataclass(frozen=True)
class SpanRequest:
    """One replay work order: run the ``(1+λ)`` loop for a span.

    A pool worker (or an inline run, in-process) re-derives every
    offspring from the RNG keys ``(seed, absolute generation, index)``
    — no deltas cross the wire — and runs mutation, incremental
    evaluation, selection and neutral-drift acceptance for up to
    ``count`` generations starting at the absolute generation
    ``start_gen``, stopping early at the first strict improvement.
    ``check_deltas`` (the ``RCGP_CHECK_INCREMENTAL`` path) carries the
    coordinator's own mutation deltas so the replay can verify it is
    bit-identical to them.
    """

    base_seed: int
    start_gen: int
    count: int
    parent_fitness: Fit4
    parent_genome: Tuple[int, ...]
    check_deltas: Optional[Sequence[MutationDelta]] = None

    def head(self, count: int) -> "SpanRequest":
        """The first ``count`` generations of this span.

        Any prefix of a span replays exactly as the full span would, so
        a retry may send a shorter one and the coordinator continues
        from wherever its records end.
        """
        if count >= self.count:
            return self
        check = self.check_deltas
        if check is not None:
            check = check[:len(check) // self.count * count]
        return replace(self, count=count, check_deltas=check)


SpanRecord = Tuple[bool, Fit4, Tuple[int, int, int]]
"""Per-generation replay outcome: ``(accepted, best fitness, counter
deltas)``."""


@dataclass(frozen=True)
class SpanResult:
    """What comes back from one :class:`SpanRequest`.

    ``records`` holds one entry per executed generation.  On a strict
    improvement the span stops and ``child_genome`` carries the winning
    offspring (pre-shrink) for the coordinator's accept block; otherwise
    ``final_genome`` carries the worker's advanced parent whenever
    neutral drift changed it during the span.
    """

    records: Tuple[SpanRecord, ...]
    improved: bool
    child_genome: Optional[Tuple[int, ...]] = None
    final_genome: Optional[Tuple[int, ...]] = None


def pack_span_request(request: SpanRequest) -> bytes:
    flags = 1 if request.check_deltas is not None else 0
    genome_blob = pack_genome(request.parent_genome)
    # The seed is any Python int (``child_seed`` hashes its decimal
    # form), so it travels as length-prefixed two's-complement bytes.
    seed = request.base_seed
    seed_blob = seed.to_bytes(seed.bit_length() // 8 + 1, "little",
                              signed=True)
    parts = [
        _SPAN_REQ.pack(request.start_gen, request.count, flags),
        _LEN.pack(len(seed_blob)),
        seed_blob,
        _FIT.pack(*request.parent_fitness),
        _LEN.pack(len(genome_blob)),
        genome_blob,
    ]
    if request.check_deltas is not None:
        check_blob = pack_deltas(request.check_deltas)
        parts.append(_LEN.pack(len(check_blob)))
        parts.append(check_blob)
    return b"".join(parts)


@_checked
def unpack_span_request(data: bytes) -> SpanRequest:
    start_gen, count, flags = _SPAN_REQ.unpack_from(data, 0)
    at = _SPAN_REQ.size
    (size,) = _LEN.unpack_from(data, at)
    at += _LEN.size
    seed_blob = bytes(data[at:at + size])
    if len(seed_blob) != size or size == 0:
        raise ValueError("seed field runs past the payload")
    base_seed = int.from_bytes(seed_blob, "little", signed=True)
    at += size
    fitness = _FIT.unpack_from(data, at)
    at += _FIT.size
    (size,) = _LEN.unpack_from(data, at)
    at += _LEN.size
    genome = unpack_genome(data[at:at + size])
    at += size
    check_deltas = None
    if flags & 1:
        (size,) = _LEN.unpack_from(data, at)
        at += _LEN.size
        check_deltas = unpack_deltas(data[at:at + size])
    return SpanRequest(base_seed=base_seed, start_gen=start_gen,
                       count=count,
                       parent_fitness=(fitness[0], fitness[1],
                                       fitness[2], fitness[3]),
                       parent_genome=genome, check_deltas=check_deltas)


def pack_span_result(result: SpanResult) -> bytes:
    flags = (1 if result.improved else 0) \
        | (2 if result.child_genome is not None else 0) \
        | (4 if result.final_genome is not None else 0)
    parts = [_SPAN_RES.pack(len(result.records), flags)]
    for accepted, fit, counters in result.records:
        parts.append(_RECORD.pack(1 if accepted else 0, fit[0], fit[1],
                                  fit[2], fit[3], counters[0],
                                  counters[1], counters[2]))
    for genome in (result.child_genome, result.final_genome):
        if genome is not None:
            blob = pack_genome(genome)
            parts.append(_LEN.pack(len(blob)))
            parts.append(blob)
    return b"".join(parts)


@_checked
def unpack_span_result(data: bytes) -> SpanResult:
    count, flags = _SPAN_RES.unpack_from(data, 0)
    at = _SPAN_RES.size
    records: List[SpanRecord] = []
    for _ in range(count):
        rec = _RECORD.unpack_from(data, at)
        at += _RECORD.size
        records.append((bool(rec[0]), (rec[1], rec[2], rec[3], rec[4]),
                        (rec[5], rec[6], rec[7])))
    genomes: List[Optional[Tuple[int, ...]]] = [None, None]
    for slot, bit in ((0, 2), (1, 4)):
        if flags & bit:
            (size,) = _LEN.unpack_from(data, at)
            at += _LEN.size
            genomes[slot] = unpack_genome(data[at:at + size])
            at += size
    return SpanResult(records=tuple(records), improved=bool(flags & 1),
                      child_genome=genomes[0], final_genome=genomes[1])


def pack_job_span(ctx_blob: bytes, request: SpanRequest) -> bytes:
    """Job span payload: an opaque job context, then the request.

    The context (which spec, which config) is the caller's business —
    the pool pickles it — so one worker can serve many jobs.
    """
    return b"".join((_LEN.pack(len(ctx_blob)), ctx_blob,
                     pack_span_request(request)))


@_checked
def unpack_job_span(data) -> Tuple[bytes, SpanRequest]:
    """Inverse of :func:`pack_job_span`."""
    (size,) = _LEN.unpack_from(data, 0)
    ctx_blob = bytes(data[_LEN.size:_LEN.size + size])
    if len(ctx_blob) != size:
        raise ValueError("job context runs past the payload")
    return ctx_blob, unpack_span_request(data[_LEN.size + size:])
