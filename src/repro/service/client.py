"""A tiny stdlib client for the rcgp HTTP service.

Mirrors the in-process :mod:`repro.api` surface over the wire: submit a
spec + config, poll status, fetch the finished artifact back as a full
:class:`~repro.core.synthesis.SynthesisResult` (rebuilt by
:func:`repro.jobs.result_from_payload`, as every in-process
``Job.result()`` is).  Non-2xx responses raise the same typed
:mod:`repro.errors` exceptions the server mapped outward: 404 →
:class:`~repro.errors.JobNotFound`, 409 →
:class:`~repro.errors.JobNotReady` (or
:class:`~repro.errors.LeaseHeld` when another scheduler holds the
job's lease), 429 → :class:`~repro.errors.QueueFull`, anything else →
:class:`~repro.errors.ServiceError`.

>>> client = ServiceClient("http://127.0.0.1:8787")   # doctest: +SKIP
>>> result = client.synthesize(spec, RcgpConfig(generations=10_000,
...                                             seed=7))  # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from ..core.config import RcgpConfig
from ..core.synthesis import SynthesisResult
from ..errors import (JobNotFound, JobNotReady, LeaseHeld, QueueFull,
                      ServiceError)
from ..jobs import result_from_payload
from ..jobs.spec import spec_tables_to_payload

#: Job states a ``wait()`` stops on.
_TERMINAL = ("done", "failed", "interrupted")


def _error_from(status: int, body: bytes) -> ServiceError:
    error_type = ""
    try:
        info = json.loads(body.decode("utf-8"))["error"]
        error_type = str(info.get("type", ""))
        message = f"{info['type']}: {info['message']}"
    except Exception:  # noqa: BLE001 - non-JSON error body
        message = body.decode("utf-8", "replace")[:200] or f"HTTP {status}"
    cls = {404: JobNotFound, 409: JobNotReady, 429: QueueFull}.get(
        status, ServiceError)
    if status == 409 and error_type == "LeaseHeld":
        cls = LeaseHeld
    exc = cls(message)
    exc.http_status = status
    return exc


class ServiceClient:
    """Talk to one ``rcgp serve`` endpoint.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8787"`` (no trailing slash needed).
    timeout:
        Per-request socket timeout in seconds.
    """

    #: One retry after this pause when an idempotent GET hits a torn
    #: connection (server restart mid-keep-alive, LB failover).
    RETRY_BACKOFF = 0.2

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    @staticmethod
    def _connection_torn(err: urllib.error.URLError) -> bool:
        """A reset/mid-response-close, as urllib wraps them.

        ``http.client.RemoteDisconnected`` subclasses
        ``ConnectionResetError``, and urllib surfaces both either
        directly (mid-body) or as ``URLError.reason`` (pre-response).
        """
        torn = (ConnectionResetError, http.client.RemoteDisconnected)
        return isinstance(err, torn) or \
            isinstance(getattr(err, "reason", None), torn)

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None) -> bytes:
        data = None if payload is None else json.dumps(payload).encode()
        # GETs are read-only against the store and safe to repeat;
        # POSTs are only retried by the caller (submission is
        # content-hash idempotent, but that is the caller's call).
        attempts = 2 if method == "GET" else 1
        for attempt in range(attempts):
            request = urllib.request.Request(
                self.base_url + path, data=data, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    return response.read()
            except urllib.error.HTTPError as err:
                raise _error_from(err.code, err.read()) from None
            except urllib.error.URLError as err:
                if attempt + 1 < attempts and self._connection_torn(err):
                    time.sleep(self.RETRY_BACKOFF)
                    continue
                raise ServiceError(
                    f"service unreachable at {self.base_url}: "
                    f"{err.reason}") from None
            except ConnectionResetError as err:
                # Raised bare (not URLError-wrapped) when the peer
                # resets mid-response-body.
                if attempt + 1 < attempts:
                    time.sleep(self.RETRY_BACKOFF)
                    continue
                raise ServiceError(
                    f"service connection reset at {self.base_url}: "
                    f"{err}") from None

    def _json(self, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return json.loads(self._request(method, path, payload))

    # -- the API -------------------------------------------------------

    def submit(self, spec, config: Optional[RcgpConfig] = None, *,
               name: str = "") -> Dict[str, Any]:
        """Submit truth tables (or a local design-file path) + config.

        Returns the acknowledgement document: ``job_id`` (the content
        hash), ``state`` (``queued``/``pending``/``running``/``done``)
        and ``from_store`` (true when the result already existed and no
        evaluation will happen).  Raises
        :class:`~repro.errors.QueueFull` under backpressure.
        """
        from ..api import _resolve_spec
        tables, name = _resolve_spec(spec, name)
        body: Dict[str, Any] = {"spec": spec_tables_to_payload(tables),
                                "name": name}
        if config is not None:
            body["config"] = config.to_dict()
        return self._json("POST", "/v1/jobs", body)

    def jobs(self) -> List[str]:
        """Every job id the server's store knows."""
        return list(self._json("GET", "/v1/jobs")["jobs"])

    def status(self, job_id: str) -> Dict[str, Any]:
        """Progress/status document (404 → :class:`JobNotFound`)."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, *, timeout: Optional[float] = None,
             poll: float = 0.2) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state.

        Returns the final status document (``done``, ``failed`` or
        ``interrupted`` — the last meaning the server lost the job's
        process and it awaits resumption).  Raises ``TimeoutError``
        after ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.status(job_id)
            if view["state"] in _TERMINAL:
                return view
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']!r} after "
                    f"{timeout}s ({view.get('generations_done', 0)}/"
                    f"{view.get('generations', '?')} generations)")
            time.sleep(poll)

    def raw_result(self, job_id: str) -> Dict[str, Any]:
        """The stored ``result.json`` payload, verbatim."""
        return self._json("GET", f"/v1/jobs/{job_id}/result")

    def result(self, job_id: str) -> SynthesisResult:
        """The finished artifact as a full :class:`SynthesisResult`.

        Equal to what the same :class:`~repro.jobs.JobSpec` returns from
        an in-process :class:`~repro.api.Session` of the same quantum:
        both rebuild the stored artifact, netlist, buffer plans,
        ``history`` and counters included.  Raises
        :class:`~repro.errors.JobNotReady` while unfinished.
        """
        return result_from_payload(self.raw_result(job_id))

    def telemetry(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's JSONL event stream, parsed (may be empty for
        in-memory stores)."""
        body = self._request("GET", f"/v1/jobs/{job_id}/telemetry")
        return [json.loads(line) for line in body.splitlines() if line]

    def workers(self) -> Dict[str, Any]:
        """The live cluster fleet (``cluster`` false and an empty list
        when the server runs without one)."""
        return self._json("GET", "/v1/workers")

    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw ``/metrics`` text exposition."""
        return self._request("GET", "/metrics").decode("utf-8")

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` parsed into ``{"name{labels}": value}``."""
        parsed: Dict[str, float] = {}
        for line in self.metrics_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name, value = line.rsplit(None, 1)
            parsed[name] = float(value)
        return parsed

    def synthesize(self, spec, config: Optional[RcgpConfig] = None, *,
                   name: str = "", timeout: Optional[float] = None,
                   poll: float = 0.2) -> SynthesisResult:
        """Submit, wait, fetch: the one-call remote mirror of
        :func:`repro.api.synthesize`."""
        info = self.submit(spec, config, name=name)
        final = self.wait(info["job_id"], timeout=timeout, poll=poll)
        if final["state"] != "done":
            raise JobNotReady(
                f"job {info['job_id']} ended {final['state']!r}: "
                f"{final.get('error')}")
        return self.result(info["job_id"])


__all__ = ["ServiceClient"]
