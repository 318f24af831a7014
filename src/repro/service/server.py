"""The synthesis scheduler behind a network line: a stdlib HTTP server.

One :class:`ServiceServer` wraps one :class:`repro.api.Session` (job
store + fair-share scheduler + shared worker processes) and exposes it
over ``ThreadingHTTPServer``:

========  ==========================  =======================================
Method    Path                        Meaning
========  ==========================  =======================================
POST      ``/v1/jobs``                submit a spec + config (content-hash
                                      dedup; finished work served instantly)
GET       ``/v1/jobs``                all job ids the store knows
GET       ``/v1/jobs/{id}``           status/progress from record+checkpoint
GET       ``/v1/jobs/{id}/result``    the finished artifact (result.json)
GET       ``/v1/jobs/{id}/telemetry`` the job's JSONL event stream
GET       ``/v1/workers``             the live cluster worker fleet
GET       ``/healthz``                liveness + version
GET       ``/metrics``                text exposition of engine/scheduler
                                      counters
========  ==========================  =======================================

Design rules, in order of importance:

* **One scheduling thread.**  HTTP handler threads never touch the
  scheduler; they validate, hash, read the store, and push submissions
  onto a *bounded* queue (full queue → 429 backpressure).  A single
  background loop drains that queue and advances the session one
  :meth:`~repro.jobs.Scheduler.step` (= one checkpointed slice) at a
  time, so a shutdown request is honored between slices and never loses
  more than zero work — the finished slice is already in the store.
* **The store is the truth.**  A submission whose content hash is
  already ``done`` in the store is answered from it without touching
  the queue; a restarted server resumes every ``pending``/``running``
  record it finds (their specs and configs are in the records) and, by
  PR 5's determinism contract, converges to the bit-identical result an
  uninterrupted run would have produced.
* **Typed errors map to statuses.**  Handlers raise
  :mod:`repro.errors` types; :func:`status_for` turns them into HTTP
  codes (:class:`~repro.errors.JobNotFound` → 404,
  :class:`~repro.errors.JobNotReady` → 409,
  :class:`~repro.errors.QueueFull` → 429, parse/encoding/value errors →
  400, any other :class:`~repro.errors.ReproError` → 500).

``serve()`` is the blocking entry point behind ``rcgp serve``: it
installs SIGTERM/SIGINT handlers that trigger the graceful drain.
"""

from __future__ import annotations

import json
import os
import queue
import random as _random
import re
import signal
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api import Session
from ..core.config import RcgpConfig
from ..errors import (EncodingError, JobNotFound, JobNotReady, ParseError,
                      QueueFull, ReproError, StoreCorruption)
from ..jobs import (DONE, FAILED, JobSpec, JobStore, PENDING, RUNNING,
                    spec_tables_from_payload)

#: Service-level job state: the record says ``running`` but no live
#: scheduler owns the job — its process died mid-slice.  The job is
#: resumable from its last checkpoint (resubmit it, or restart a server
#: over the store).
INTERRUPTED = "interrupted"

#: State of a submission accepted into the bounded queue but not yet
#: drained into the scheduler (no store record exists yet).
QUEUED = "queued"

#: Largest accepted request body; a 10-input / 32-output spec is ~200 kB.
MAX_BODY_BYTES = 32 * 1024 * 1024

_JOB_ID = r"(?P<job_id>[0-9a-f]{8,64})"

#: The routing table, importable by the docs linter so curl examples in
#: the docs cannot reference endpoints that do not exist.
ROUTES: Tuple[Tuple[str, "re.Pattern[str]"], ...] = (
    ("POST", re.compile(r"^/v1/jobs/?$")),
    ("GET", re.compile(r"^/v1/jobs/?$")),
    ("GET", re.compile(rf"^/v1/jobs/{_JOB_ID}$")),
    ("GET", re.compile(rf"^/v1/jobs/{_JOB_ID}/result$")),
    ("GET", re.compile(rf"^/v1/jobs/{_JOB_ID}/telemetry$")),
    ("GET", re.compile(r"^/v1/workers/?$")),
    ("GET", re.compile(r"^/healthz$")),
    ("GET", re.compile(r"^/metrics$")),
)

#: Record counters summed across jobs into ``/metrics`` totals.
_METRIC_COUNTERS = ("evaluations", "eval_full", "eval_incremental",
                    "ports_resimulated", "sat_calls",
                    "worker_restarts", "batches_retried", "bytes_shipped",
                    "chunks_dispatched", "pipeline_stalls")

_JOB_STATES = (PENDING, RUNNING, DONE, FAILED)


def route_exists(method: str, path: str) -> bool:
    """Whether ``method path`` matches the service routing table."""
    return any(verb == method and pattern.match(path)
               for verb, pattern in ROUTES)


def status_for(exc: BaseException) -> int:
    """The HTTP status one of our exceptions maps to.

    Store-layer errors are part of the contract too:
    :class:`~repro.errors.LeaseHeld` carries 409 (another live
    scheduler owns the job; retry later or elsewhere) and
    :class:`~repro.errors.StoreCorruption` falls through to 500 (a
    torn artifact — reopening the store quarantines it).
    """
    http_status = getattr(exc, "http_status", None)
    if isinstance(http_status, int):
        return http_status
    if isinstance(exc, (ParseError, EncodingError)):
        return 400
    if isinstance(exc, ReproError):
        return 500
    if isinstance(exc, (KeyError, TypeError, ValueError,
                        json.JSONDecodeError)):
        return 400
    return 500


def _error_body(exc: BaseException) -> Dict[str, Any]:
    message = str(exc) if not isinstance(exc, KeyError) \
        else f"missing required field {exc.args[0]!r}"
    return {"error": {"type": type(exc).__name__, "message": message}}


class _Submission:
    """One accepted-but-not-yet-scheduled job, parked in the queue."""

    __slots__ = ("job_id", "tables", "config", "name")

    def __init__(self, job_id, tables, config, name):
        self.job_id = job_id
        self.tables = tables
        self.config = config
        self.name = name


class ServiceServer:
    """The scheduler-as-a-service: HTTP front, one scheduling thread.

    Parameters
    ----------
    store:
        ``None`` (in-memory, results live as long as the server), a
        directory path, or a prebuilt :class:`JobStore`.  Disk stores
        are what make the kill → restart → bit-identical-resume story
        work.
    workers:
        Shared offspring-evaluation budget for all jobs (``0`` inline).
    quantum:
        Generations per job per scheduler slice.  Finite values keep
        the loop responsive (checkpoints, fair-share, fast shutdown);
        ``None`` runs each job in one slice (legacy semantics —
        shutdown then waits for the slice in flight).
    max_queue:
        Bound on accepted-but-unscheduled submissions; a full queue
        answers 429.
    request_timeout:
        Per-request socket read timeout in seconds.
    operational:
        :meth:`RcgpConfig.replace` overrides applied to every submitted
        config.  Only :data:`~repro.jobs.spec.OPERATIONAL_CONFIG_FIELDS`
        belong here — they never change a job's identity or result.
    resume:
        Re-submit the store's unfinished (``pending``/``running``)
        records on :meth:`start`, so a restarted server picks up
        exactly where the killed one stopped.  With per-job leases this
        is safe even when *other* servers share the store: resubmitted
        jobs a live foreign scheduler owns are skipped until their
        lease is released or goes stale.
    lease_ttl:
        Seconds without a lease heartbeat before this server may adopt
        a job another (presumed dead) scheduler left ``running``.
    cluster:
        An optional started :class:`~repro.cluster.fleet.ClusterFleet`
        remote workers dial into (``rcgp worker --connect``).  The
        server adopts its lifecycle: :meth:`close` closes it.  Slices
        then run on the dynamic local+remote mix, ``/v1/workers`` lists
        the live fleet and ``/metrics`` gains the cluster counters.
    """

    def __init__(self, store: Union[None, str, "os.PathLike[str]",
                                    JobStore] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0, quantum: Optional[int] = 500,
                 max_queue: int = 64, request_timeout: float = 30.0,
                 operational: Optional[Dict[str, Any]] = None,
                 resume: bool = True, log: bool = False,
                 lease_ttl: Optional[float] = None, cluster=None):
        self.cluster = cluster
        self.session = Session(store, workers=workers, quantum=quantum,
                               lease_ttl=lease_ttl, fleet=cluster)
        self.operational = dict(operational or {})
        self.resume = resume
        self.log = log
        self.started_at = time.time()
        self._queue: "queue.Queue[_Submission]" = queue.Queue(
            maxsize=max_queue)
        self._queued: Dict[str, _Submission] = {}
        self._active: set = set()  # scheduled here, not done or failed
        self._done_counters: Dict[str, Tuple[int, ...]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._loop_error: Optional[str] = None
        handler = type("Handler", (_Handler,),
                       {"service": self, "timeout": request_timeout})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="rcgp-service-http",
            daemon=True)
        self._loop_thread = threading.Thread(
            target=self._loop, name="rcgp-service-scheduler", daemon=True)

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self, *, loop: bool = True) -> "ServiceServer":
        """Begin serving; returns self so ``ServiceServer(...).start()``
        reads naturally.  ``loop=False`` starts only the HTTP front
        (submissions park in the queue) — a testing hook for queue
        backpressure."""
        if self.resume:
            self.resume_incomplete()
        self._http_thread.start()
        if loop:
            self._loop_thread.start()
        return self

    def close(self) -> None:
        """Graceful drain: finish (and checkpoint) the slice in flight,
        stop scheduling, stop accepting connections, record every
        accepted submission, stop the workers.

        Unfinished jobs stay ``running``/``pending`` in the store; a
        new server over the same store resumes them bit-identically.
        """
        self._stop.set()
        self._wake.set()
        if self._loop_thread.is_alive():
            self._loop_thread.join()
        if self._http_thread.is_alive():
            # shutdown() waits for serve_forever() to acknowledge, so on
            # a server that never started it would block forever.
            self._httpd.shutdown()
            self._http_thread.join()
        self._httpd.server_close()
        # The loop has exited, so this thread alone schedules: a job
        # accepted (202) but still queued gets its pending record now.
        self._drain_submissions()
        self.session.close()
        if self.cluster is not None:
            self.cluster.close()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def resume_incomplete(self) -> List[str]:
        """Re-submit every unfinished store record (spec + config are
        persisted in it).  Records whose recomputed content hash does
        not match their directory id — e.g. jobs submitted in-process
        with an ``initial`` netlist, which the record does not carry —
        are left for their original owner."""
        resumed = []
        store = self.session.store
        for job_id in store.jobs():
            record = store.load_record(job_id) or {}
            if record.get("state") not in (PENDING, RUNNING):
                continue
            try:
                tables = spec_tables_from_payload(record["spec"])
                config = RcgpConfig.from_dict(record["config"])
                if JobSpec(tuple(tables), config,
                           name=str(record.get("name", ""))).job_id \
                        != job_id:
                    continue
            except (KeyError, TypeError, ValueError):
                continue
            job = self.session.submit(tables, config,
                                      name=str(record.get("name", "")))
            with self._lock:
                self._active.add(job.id)
            resumed.append(job.id)
        return resumed

    # -- the scheduling loop -------------------------------------------

    def _loop(self) -> None:
        scheduler = self.session.scheduler
        while not self._stop.is_set():
            try:
                drained = self._drain_submissions()
                job = self.session.step()
                # Done or failed jobs leave _active: the ticked one as it
                # ends, the rest (not waiting on a lease) at idle.
                if job is None:
                    with self._lock:
                        self._active &= set(scheduler.blocked_on())
                elif job.state in (DONE, FAILED):
                    with self._lock:
                        self._active.discard(job.id)
            except Exception:  # noqa: BLE001 - keep serving /healthz
                self._loop_error = traceback.format_exc()
                traceback.print_exc()
                return
            if job is None and not drained:
                self._wake.wait(timeout=0.1)
                self._wake.clear()

    def _drain_submissions(self) -> bool:
        drained = False
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return drained
            job = self.session.submit(list(item.tables), item.config,
                                      name=item.name)
            with self._lock:
                self._active.add(job.id)
                self._queued.pop(item.job_id, None)
            drained = True

    # -- request-side operations (handler threads) ---------------------

    def submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Validate, hash, dedup and enqueue one submission."""
        tables = spec_tables_from_payload(body["spec"])
        config = RcgpConfig.from_dict(dict(body.get("config") or {}))
        if self.operational:
            config = config.replace(**self.operational)
        if config.seed is None:
            config = config.replace(
                seed=_random.SystemRandom().getrandbits(48))
        name = str(body.get("name", ""))
        job_id = JobSpec(tuple(tables), config, name=name).job_id
        info = {"job_id": job_id, "name": name, "seed": config.seed,
                "generations": config.generations, "from_store": False}
        record = self.session.store.load_record(job_id) or {}
        if record.get("state") == DONE:
            info.update(state=DONE, from_store=True)
            return 200, info
        with self._lock:
            # A failed job scheduled here is not running: submitting it
            # again queues it, and the scheduler resumes it from its
            # last checkpoint.
            known = job_id in self._queued or (
                job_id in self._active and record.get("state") != FAILED)
        if known or record.get("state") in (PENDING, RUNNING):
            # Same content hash already queued, scheduled here, or
            # interrupted elsewhere and now resumable: idempotent.
            if not known:
                self._enqueue(_Submission(job_id, tables, config, name))
            info["state"] = self.job_view(job_id)["state"]
            return 202, info
        self._enqueue(_Submission(job_id, tables, config, name))
        info["state"] = QUEUED
        return 202, info

    def _enqueue(self, item: _Submission) -> None:
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            raise QueueFull(
                f"submission queue is full ({self._queue.maxsize} "
                f"pending); retry with backoff") from None
        with self._lock:
            self._queued[item.job_id] = item
        self._wake.set()

    def _interrupted(self, job_id: str, state: str,
                     lease: Optional[Dict[str, Any]]) -> bool:
        """Whether a ``running`` job has no live owner — not scheduled or
        queued here, no live lease — because its process died."""
        if state != RUNNING or (lease is not None and lease["live"]):
            return False
        with self._lock:
            return job_id not in self._active and \
                job_id not in self._queued

    def job_view(self, job_id: str) -> Dict[str, Any]:
        """The status document for ``GET /v1/jobs/{id}``.

        The one subtlety is liveness: a record can say ``running``
        forever if the process that ran it died mid-slice.  Such a job
        is reported ``interrupted`` (with ``resumable`` true and
        ``resume_from`` naming the restart point), not ``running``; a
        job another live scheduler leases stays ``running`` with that
        scheduler's ``owner`` surfaced.
        """
        store = self.session.store
        with self._lock:
            # Read before the record: the loop reopens a resubmitted
            # failed job before it takes the job off the queue.
            requeued = job_id in self._queued
        record = store.load_record(job_id)
        if record is None:
            with self._lock:
                queued = self._queued.get(job_id)
            if queued is not None:
                return {"job_id": job_id, "name": queued.name,
                        "state": QUEUED, "generations_done": 0,
                        "generations": queued.config.generations,
                        "resumable": False}
            raise JobNotFound(f"no job {job_id!r} in the store or queue")
        state = str(record.get("state", PENDING))
        if state == FAILED and requeued:
            state = QUEUED
        view: Dict[str, Any] = {
            "job_id": job_id,
            "name": record.get("name", ""),
            "state": state,
            "generations": int(record.get("config", {})
                               .get("generations", 0)),
            "generations_done": int(record.get("generations_done", 0)),
            "slices": int(record.get("slices", 0)),
            "seed": record.get("seed"),
            "error": record.get("error"),
            "updated_at": record.get("updated_at"),
            "resumable": False,
        }
        for field in _METRIC_COUNTERS:
            if field in record:
                view[field] = record[field]
        if "fitness" in record:
            view["fitness"] = record["fitness"]
        checkpoint_at = store.checkpoint_mtime(job_id)
        if checkpoint_at is not None:
            view["checkpoint_at"] = checkpoint_at
            view["checkpoint_age_seconds"] = \
                max(0.0, time.time() - checkpoint_at)
        lease = store.lease_info(job_id)
        if lease is not None:
            view["lease"] = lease
            if state == RUNNING and lease["live"] and \
                    lease["owner"] != store.owner:
                # Another live scheduler over the same store owns the
                # job: genuinely running, just not in this process.
                view["owner"] = lease["owner"]
        if self._interrupted(job_id, state, lease):
            # Resumable even when the crash predates the first
            # checkpoint: the record holds spec + config, so a
            # restarted scheduler re-runs it deterministically from
            # the baseline.
            view["state"] = INTERRUPTED
            view["resumable"] = True
            view["resume_from"] = "checkpoint" \
                if checkpoint_at is not None else "baseline"
        return view

    def result_payload(self, job_id: str) -> Dict[str, Any]:
        view = self.job_view(job_id)
        if view["state"] == FAILED:
            raise JobNotReady(
                f"job {job_id} failed: {view.get('error')}")
        payload = self.session.store.load_result(job_id)
        if payload is None or view["state"] != DONE:
            raise JobNotReady(
                f"job {job_id} has no result yet "
                f"(state={view['state']!r})")
        return payload

    def telemetry_bytes(self, job_id: str) -> bytes:
        self.job_view(job_id)   # 404 on unknown ids
        # Tolerant read: a SIGKILL mid-append can leave a torn final
        # line; the store replaces it with a ``telemetry_truncated``
        # marker event so the response is always valid JSONL.
        return self.session.store.read_telemetry(job_id)

    def workers_view(self) -> Dict[str, Any]:
        """The ``GET /v1/workers`` document: the live remote fleet.

        Without an attached cluster the fleet is simply empty —
        callers need no feature probe.
        """
        fleet = self.cluster
        workers = [] if fleet is None else fleet.workers_view()
        view: Dict[str, Any] = {
            "cluster": fleet is not None,
            "live": len(workers),
            "workers": workers,
        }
        if fleet is not None:
            view["listen"] = f"{fleet.host}:{fleet.port}"
            view["spans_remote_total"] = fleet.spans_remote_total
            view["reconnects_total"] = fleet.reconnects_total
            view["rejections_total"] = fleet.rejections_total
        return view

    def health(self) -> Dict[str, Any]:
        from .. import __version__
        status = "ok" if self._loop_error is None else "degraded"
        return {"status": status, "version": __version__,
                "jobs": len(self.session.store.jobs()),
                "queue_depth": self._queue.qsize(),
                "uptime_seconds": time.time() - self.started_at,
                **({"loop_error": self._loop_error}
                   if self._loop_error else {})}

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the store's counters.

        Counter totals are sums over every job record in the store, so
        they agree with the per-job ``EvolutionResult`` counters that
        the scheduler accumulated into those records.  A done job's
        record never changes again and its lease is released, so its
        counters are read once per server; the memo is rebuilt from
        ``store.jobs()`` on every scrape, so a quarantined or deleted
        job drops out of it.
        """
        store = self.session.store
        states = {state: 0 for state in _JOB_STATES}
        states[INTERRUPTED] = 0
        totals = {field: 0 for field in _METRIC_COUNTERS}
        leases_live = 0
        # Scrapes run on HTTP handler threads: each builds a new memo and
        # swaps it in, so a racing scrape at worst reads a job again.
        seen, done = self._done_counters, {}
        for job_id in store.jobs():
            state, live = DONE, False
            counters = seen.get(job_id)
            if counters is None:
                try:
                    record = store.load_record(job_id) or {}
                except StoreCorruption:
                    record = {}
                state = str(record.get("state", PENDING))
                lease = store.lease_info(job_id)
                live = lease is not None and lease["live"]
                leases_live += live
                if self._interrupted(job_id, state, lease):
                    state = INTERRUPTED
                counters = tuple(int(record.get(field, 0) or 0)
                                 for field in _METRIC_COUNTERS)
            if state == DONE and not live:
                done[job_id] = counters
            states[state] = states.get(state, 0) + 1
            for field, value in zip(_METRIC_COUNTERS, counters):
                totals[field] += value
        self._done_counters = done
        lines = []
        for field in _METRIC_COUNTERS:
            name = f"rcgp_{field}_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {totals[field]}")
        lines.append("# TYPE rcgp_jobs gauge")
        for state in sorted(states):
            lines.append(f'rcgp_jobs{{state="{state}"}} {states[state]}')
        lines.append("# TYPE rcgp_store_quarantined_total counter")
        lines.append(f"rcgp_store_quarantined_total "
                     f"{len(store.quarantined_artifacts())}")
        lines.append("# TYPE rcgp_lease_takeovers_total counter")
        lines.append(f"rcgp_lease_takeovers_total {store.lease_takeovers}")
        lines.append("# TYPE rcgp_leases_live gauge")
        lines.append(f"rcgp_leases_live {leases_live}")
        lines.append("# TYPE rcgp_queue_depth gauge")
        lines.append(f"rcgp_queue_depth {self._queue.qsize()}")
        # Cluster fleet counters (all zero without an attached fleet,
        # so dashboards need no conditional scrape config).
        fleet = self.cluster
        lines.append("# TYPE rcgp_cluster_workers_live gauge")
        lines.append(f"rcgp_cluster_workers_live "
                     f"{0 if fleet is None else fleet.live_count()}")
        lines.append("# TYPE rcgp_cluster_spans_remote_total counter")
        lines.append(f"rcgp_cluster_spans_remote_total "
                     f"{0 if fleet is None else fleet.spans_remote_total}")
        lines.append("# TYPE rcgp_cluster_reconnects_total counter")
        lines.append(f"rcgp_cluster_reconnects_total "
                     f"{0 if fleet is None else fleet.reconnects_total}")
        lines.append("# TYPE rcgp_uptime_seconds gauge")
        lines.append(f"rcgp_uptime_seconds "
                     f"{time.time() - self.started_at:.3f}")
        return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`ServiceServer` set on the class."""

    service: ServiceServer = None  # type: ignore[assignment]
    server_version = "rcgp-service"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:
        if self.service.log:
            sys.stderr.write("%s - %s\n" % (self.address_string(),
                                            fmt % args))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        try:
            if method == "POST" and ROUTES[0][1].match(path):
                status, payload = self.service.submit(self._read_json())
                return self._send_json(status, payload)
            if method == "GET":
                if re.match(rf"^/v1/jobs/{_JOB_ID}/result$", path):
                    job_id = path.split("/")[3]
                    return self._send_json(
                        200, self.service.result_payload(job_id))
                if re.match(rf"^/v1/jobs/{_JOB_ID}/telemetry$", path):
                    job_id = path.split("/")[3]
                    return self._send_bytes(
                        200, self.service.telemetry_bytes(job_id),
                        "application/x-ndjson")
                if re.match(rf"^/v1/jobs/{_JOB_ID}$", path):
                    job_id = path.split("/")[3]
                    return self._send_json(
                        200, self.service.job_view(job_id))
                if re.match(r"^/v1/jobs/?$", path):
                    return self._send_json(
                        200, {"jobs": self.service.session.store.jobs()})
                if re.match(r"^/v1/workers/?$", path):
                    return self._send_json(
                        200, self.service.workers_view())
                if path == "/healthz":
                    return self._send_json(200, self.service.health())
                if path == "/metrics":
                    return self._send_bytes(
                        200, self.service.metrics_text().encode(),
                        "text/plain; version=0.0.4")
            self._send_json(404, {"error": {
                "type": "NoSuchRoute",
                "message": f"{method} {path} is not a service endpoint"}})
        except Exception as exc:  # noqa: BLE001 - typed status mapping
            status = status_for(exc)
            if status >= 500:
                traceback.print_exc()
            try:
                self._send_json(status, _error_body(exc))
            except (BrokenPipeError, ConnectionResetError):
                pass

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required (Content-Length)")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_bytes(status, json.dumps(payload).encode(),
                         "application/json")

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def serve(store: Union[None, str, JobStore] = None, *,
          host: str = "127.0.0.1", port: int = 8787,
          workers: int = 0, quantum: Optional[int] = 500,
          max_queue: int = 64, request_timeout: float = 30.0,
          operational: Optional[Dict[str, Any]] = None,
          resume: bool = True, log: bool = True,
          lease_ttl: Optional[float] = None,
          cluster_port: Optional[int] = None,
          cluster_host: Optional[str] = None,
          cluster_token: str = "") -> int:
    """Run a service until SIGTERM/SIGINT, then drain gracefully.

    The blocking entry point behind ``rcgp serve``.  Signal handlers
    must live on the main thread, which is why this wrapper exists —
    :class:`ServiceServer` itself is signal-agnostic and embeddable.

    ``cluster_port`` (with a required ``cluster_token``) additionally
    opens a :class:`~repro.cluster.fleet.ClusterFleet` listener remote
    ``rcgp worker`` processes dial into; ``cluster_host`` defaults to
    ``host``.
    """
    stop = threading.Event()

    def _on_signal(signum, _frame):
        if log:
            print(f"rcgp serve: received {signal.Signals(signum).name}, "
                  "draining (current slice finishes and checkpoints)",
                  flush=True)
        stop.set()

    fleet = None
    if cluster_port is not None:
        from ..cluster import ClusterFleet
        if not cluster_token:
            raise ValueError(
                "--cluster-port requires a token (--cluster-token or "
                "RCGP_CLUSTER_TOKEN)")
        fleet = ClusterFleet(token=cluster_token,
                             host=cluster_host or host,
                             port=cluster_port).start()
    previous = {sig: signal.signal(sig, _on_signal)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    server = ServiceServer(store, host=host, port=port, workers=workers,
                           quantum=quantum, max_queue=max_queue,
                           request_timeout=request_timeout,
                           operational=operational, resume=resume,
                           log=log, lease_ttl=lease_ttl, cluster=fleet)
    try:
        server.start()
        if log:
            print(f"rcgp serve: listening on {server.url} "
                  f"(store={'memory' if not server.session.store.persistent else server.session.store.root}, "
                  f"workers={server.session.scheduler.workers}, "
                  f"quantum={server.session.scheduler.quantum})",
                  flush=True)
            if fleet is not None:
                print(f"rcgp serve: cluster listening on "
                      f"{fleet.host}:{fleet.port} (workers join with "
                      f"rcgp worker --connect)", flush=True)
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        server.close()
        for sig, old in previous.items():
            signal.signal(sig, old)
    if log:
        print("rcgp serve: drained, store is consistent; restart to "
              "resume unfinished jobs", flush=True)
    return 0


__all__ = [
    "INTERRUPTED",
    "QUEUED",
    "ROUTES",
    "ServiceServer",
    "route_exists",
    "serve",
    "status_for",
]
