"""Exception hierarchy for the repro package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """A netlist / circuit file could not be parsed."""

    def __init__(self, message: str, filename: str = "<string>", line: int = 0):
        self.filename = filename
        self.line = line
        if line:
            message = f"{filename}:{line}: {message}"
        elif filename != "<string>":
            message = f"{filename}: {message}"
        super().__init__(message)


class NetlistError(ReproError):
    """An operation on a logic network or RQFP netlist is invalid."""


class FanoutViolation(NetlistError):
    """A signal drives more than one consumer in a single-fan-out technology."""


class PathBalanceViolation(NetlistError):
    """A gate's inputs arrive at different clock phases."""


class EncodingError(ReproError):
    """A CGP genome (or a mutation of one) is structurally invalid."""


class SynthesisError(ReproError):
    """A synthesis step failed to produce a legal circuit."""


class ExactSynthesisTimeout(SynthesisError):
    """The exact synthesizer exhausted its conflict/time budget.

    Mirrors the ``\\`` entries in the paper's tables: the method is sound
    but does not scale, and the caller is expected to treat the timeout as
    a first-class result rather than an exception in the harness.
    """

    def __init__(self, message: str = "exact synthesis budget exhausted",
                 conflicts: int = 0, elapsed: float = 0.0):
        self.conflicts = conflicts
        self.elapsed = elapsed
        super().__init__(message)


class VerificationError(ReproError):
    """Formal verification produced an unexpected/inconsistent outcome."""


class EquivalenceViolation(VerificationError):
    """A synthesized circuit does not realize its specification.

    Raised by the end-of-job result gate when re-simulation or the SAT
    miter disagrees with the spec.  ``counterexample`` (when known) is
    the offending input pattern, LSB = input 0.
    """

    def __init__(self, message: str,
                 counterexample: "int | None" = None):
        self.counterexample = counterexample
        if counterexample is not None:
            message = f"{message} (counterexample input {counterexample:#x})"
        super().__init__(message)


class VerificationUndecided(VerificationError):
    """The result gate's SAT check exhausted its budget undecided."""


class WorkerPoolError(ReproError):
    """The offspring-evaluation worker pool failed beyond recovery.

    The span dispatcher (:class:`~repro.cluster.backend.ClusterDispatch`)
    re-sends crashed/hung spans and finishes the slice inline before
    ever raising this; worker-side it also flags a worker that serves
    a span before initialization or whose mutation replay diverged
    from the coordinator's check deltas.
    """


class FrameError(WorkerPoolError):
    """A transport frame violated the pool wire protocol.

    Base class for the typed frame-level failures shared by the pipe
    transport (:mod:`repro.core.transport`) and the TCP transport
    (:mod:`repro.cluster.protocol`).  Frame errors are members of
    :data:`repro.core.engine.RECOVERABLE_POOL_ERRORS`: a corrupt frame
    costs one batch retry (kill/respawn/re-dispatch), not the run.
    """


class FrameTruncated(FrameError):
    """A frame ended before its declared payload did.

    Covers an empty frame (no opcode byte), a connection closed mid-
    frame, and any :mod:`repro.core.wire` payload too short for its
    fixed-layout header — all the shapes that used to leak
    ``struct.error`` or ``IndexError`` out of the unpack path.
    """


class FrameTooLarge(FrameError):
    """A frame exceeded the configured maximum frame size.

    The cap (default 64 MiB, override with ``RCGP_MAX_FRAME_BYTES``)
    bounds what one corrupt or hostile length prefix can make a peer
    buffer; genuine batches are kilobytes.
    """


class UnknownOpcode(FrameError):
    """A frame's opcode has no registered handler (or an unexpected
    reply opcode arrived where a ``RESULT`` was required)."""


class ClusterError(ReproError):
    """A cluster worker could not register with (or lost) its
    coordinator for a non-recoverable reason."""


class ClusterAuthError(ClusterError):
    """The coordinator rejected the worker's shared token.

    Not retried: reconnecting with the same token would loop forever.
    Fix the ``--token`` / ``RCGP_CLUSTER_TOKEN`` value and restart.
    """


class ClusterVersionSkew(ClusterError):
    """Worker and coordinator speak different protocol versions.

    Not retried: upgrade (or downgrade) one side so both run the same
    :data:`repro.cluster.protocol.PROTOCOL_VERSION`.
    """


class StoreCorruption(ReproError):
    """A job-store artifact on disk is torn, truncated or unparseable.

    Raised instead of a bare ``json.JSONDecodeError`` whenever the
    :class:`~repro.jobs.store.JobStore` cannot parse one of its own
    artifacts (``job.json``, ``checkpoint.json``, ``baseline.json``,
    ``result.json``).  The store's recovery sweep quarantines such
    files to ``<name>.corrupt-<ts>`` on open; corruption appearing
    *after* open (operator edits, shared-filesystem faults) surfaces as
    this typed error so the scheduler loop and the HTTP service can
    fail one job instead of dying.

    ``path`` is the offending artifact; ``quarantined`` the path it was
    moved to, when the sweep already put it aside.
    """

    def __init__(self, message: str, path: "str | None" = None,
                 quarantined: "str | None" = None):
        self.path = path
        self.quarantined = quarantined
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class LeaseHeld(ReproError):
    """The job is leased by another live scheduler process.

    Schedulers acquire a per-job lease (a create-if-absent lock file with
    owner id, pid and a heartbeat mtime) before adopting a job; a held,
    non-stale lease means some other process is actively running it.
    :meth:`~repro.jobs.store.JobStore.acquire_lease` with
    ``required=True`` raises this; the cooperative scheduling path just
    skips the job and the HTTP service maps it to 409.
    """

    http_status = 409

    def __init__(self, message: str, owner: "str | None" = None,
                 pid: "int | None" = None,
                 age_seconds: "float | None" = None):
        self.owner = owner
        self.pid = pid
        self.age_seconds = age_seconds
        super().__init__(message)


class ServiceError(ReproError):
    """A request to the rcgp HTTP service failed.

    Every subclass carries the HTTP status the server answers with (and
    the client raises from); anything else surfacing from a handler maps
    to 400 (malformed request) or 500 (internal failure) — see
    :func:`repro.service.server.status_for`.
    """

    http_status = 500


class JobNotFound(ServiceError):
    """No job with the requested id exists in the store or the queue."""

    http_status = 404


class JobNotReady(ServiceError):
    """The job exists but has no result yet (still pending/running/
    interrupted) — poll ``GET /v1/jobs/{id}`` and retry."""

    http_status = 409


class QueueFull(ServiceError):
    """The service's bounded submission queue is full (backpressure).

    Clients should retry with exponential backoff; the queue drains as
    the scheduler finishes slices.
    """

    http_status = 429
