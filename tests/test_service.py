"""Tests for the HTTP service layer (`repro.service`).

The headline guarantees, mirroring the in-process scheduler suite:

* **wire-identical results** — a job submitted over HTTP returns the
  bit-identical ``SynthesisResult`` that :func:`repro.api.synthesize`
  produces for the same spec + config, for any slice quantum;
* **kill-and-resume over the wire** — a server killed mid-run reports
  the job ``interrupted``/resumable, and a restarted server over the
  same store converges to the identical final result;
* **operability** — content-hash dedup, 429 backpressure on a full
  queue, typed error → HTTP status mapping, and ``/metrics`` totals
  that agree with the per-job result counters.
"""

import json
import threading

import pytest

from repro.api import Session, synthesize
from repro.cluster import ClusterFleet
from repro.core.config import RcgpConfig
from repro.errors import (JobNotFound, JobNotReady, QueueFull, ReproError,
                          ServiceError)
from repro.io.rqfp_json import netlist_to_dict
from repro.jobs import JobStore, Scheduler
from repro.logic.truth_table import TruthTable, tabulate_word
from repro.service import (INTERRUPTED, QUEUED, ServiceClient,
                           ServiceServer, route_exists, status_for)
from tests.test_jobs import result_fields


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _xor_and_spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2),
            TruthTable.from_function(lambda a, b: a & b, 2)]


def _config(**overrides):
    base = dict(generations=150, seed=9, shrink="always",
                mutation_rate=0.08, max_mutated_genes=8)
    base.update(overrides)
    return RcgpConfig(**base)


@pytest.fixture
def server():
    with ServiceServer(None, port=0, quantum=25).start() as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=10.0)


class TestRoutingTable:
    def test_known_routes_match(self):
        job = "a" * 16
        assert route_exists("POST", "/v1/jobs")
        assert route_exists("GET", "/v1/jobs")
        assert route_exists("GET", f"/v1/jobs/{job}")
        assert route_exists("GET", f"/v1/jobs/{job}/result")
        assert route_exists("GET", f"/v1/jobs/{job}/telemetry")
        assert route_exists("GET", "/healthz")
        assert route_exists("GET", "/metrics")

    def test_unknown_routes_do_not(self):
        assert not route_exists("GET", "/v2/jobs")
        assert not route_exists("DELETE", "/v1/jobs")
        assert not route_exists("GET", "/v1/jobs/NOT-HEX")
        assert not route_exists("GET", "/v1/jobs/abcdef12/logs")

    def test_status_mapping(self):
        assert status_for(JobNotFound("x")) == 404
        assert status_for(JobNotReady("x")) == 409
        assert status_for(QueueFull("x")) == 429
        assert status_for(KeyError("spec")) == 400
        assert status_for(ValueError("x")) == 400
        assert status_for(ReproError("x")) == 500
        assert status_for(RuntimeError("x")) == 500


class TestRoundTrip:
    def test_bit_identical_to_in_process_synthesize(self, client):
        spec, config = _decoder_spec(), _config()
        baseline = synthesize(spec, config)
        with Session(quantum=25) as session:   # the server's quantum
            same_slices = session.synthesize(spec, config)

        info = client.submit(spec, config)
        assert info["state"] in (QUEUED, "pending", "running", "done")
        final = client.wait(info["job_id"], timeout=120)
        assert final["state"] == "done"
        result = client.result(info["job_id"])
        assert netlist_to_dict(result.netlist) == \
            netlist_to_dict(baseline.netlist)
        assert result.evolution.fitness.key() == \
            baseline.evolution.fitness.key()
        assert len(result.evolution.history) > 1
        assert result_fields(result) == result_fields(same_slices)
        assert result.verify()

    def test_resubmit_served_from_store(self, client):
        spec, config = _xor_and_spec(), _config(generations=60)
        info = client.submit(spec, config)
        client.wait(info["job_id"], timeout=60)

        again = client.submit(spec, config)
        assert again["job_id"] == info["job_id"]
        assert again["from_store"] is True
        assert again["state"] == "done"
        assert info["job_id"] in client.jobs()

    def test_status_document_fields(self, client):
        spec, config = _xor_and_spec(), _config(generations=60)
        job_id = client.submit(spec, config)["job_id"]
        view = client.wait(job_id, timeout=60)
        assert view["generations"] == 60
        assert view["generations_done"] == 60
        assert view["seed"] == config.seed
        assert view["slices"] >= 1
        assert view["resumable"] is False
        assert view["error"] is None

    def test_metrics_agree_with_result_counters(self, client):
        spec, config = _decoder_spec(), _config(generations=100)
        job_id = client.submit(spec, config)["job_id"]
        client.wait(job_id, timeout=60)
        result = client.result(job_id)

        metrics = client.metrics()
        assert metrics["rcgp_evaluations_total"] == \
            result.evolution.evaluations
        assert "rcgp_cache_hits_total" not in metrics
        assert metrics['rcgp_jobs{state="done"}'] == 1
        assert metrics["rcgp_queue_depth"] == 0

    def test_wide_spec_submit_accepted(self, client):
        """A 15-input spec's tables travel as hex strings, so the body
        parses under the server's integer-digit limit."""
        from repro.bench.extras import one_hot_checker
        spec = one_hot_checker(15)
        result = client.synthesize(spec, _config(generations=20),
                                   timeout=120.0)
        assert result.evolution.sat_calls > 0
        assert result.spec == spec

    def test_health(self, client):
        from repro import __version__
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__

    def test_telemetry_empty_for_memory_store(self, client):
        spec, config = _xor_and_spec(), _config(generations=60)
        job_id = client.submit(spec, config)["job_id"]
        client.wait(job_id, timeout=60)
        assert client.telemetry(job_id) == []


class TestJobIdentity:
    def test_batch_and_http_agree_on_the_batch_config(self, tmp_path,
                                                      capsys):
        """``rcgp batch`` and ``POST /v1/jobs`` name the same job when
        the body carries the batch's whole config; a body of only seed
        and budget takes ``RcgpConfig``'s search defaults (mutation rate
        1.0, shrink ``on_improvement``) instead of the CLI's (0.08,
        ``always``), so it is another job."""
        from repro.bench import get_benchmark
        from repro.cli import main
        from repro.jobs import spec_tables_to_payload
        batch_store = str(tmp_path / "batch")
        assert main(["batch", "decoder_2_4", "--generations", "400",
                     "--store", batch_store, "--workers", "0"]) == 0
        (batch_id,) = JobStore(batch_store).jobs()
        payload = spec_tables_to_payload(
            get_benchmark("decoder_2_4").spec())
        cli_config = RcgpConfig(generations=400, seed=2024,
                                mutation_rate=0.08, shrink="always")
        server = ServiceServer(str(tmp_path / "svc"), port=0)
        try:
            _, same = server.submit({"spec": payload,
                                     "config": cli_config.to_dict()})
            _, bare = server.submit({"spec": payload, "config": {
                "seed": 2024, "generations": 400}})
        finally:
            server.close()
        assert same["job_id"] == batch_id
        assert bare["job_id"] != batch_id


class TestErrorMapping:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(JobNotFound):
            client.status("d" * 16)
        with pytest.raises(JobNotFound):
            client.telemetry("d" * 16)

    def test_result_before_done_is_409(self, server, client):
        # loop never runs on this server, so the job can't finish.
        server2 = ServiceServer(None, port=0).start(loop=False)
        try:
            c2 = ServiceClient(server2.url, timeout=10.0)
            job_id = c2.submit(_xor_and_spec(),
                               _config(generations=60))["job_id"]
            with pytest.raises(JobNotReady):
                c2.raw_result(job_id)
        finally:
            server2.close()

    def test_malformed_body_is_400(self, client):
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            client.base_url + "/v1/jobs", data=b'{"nope": 1}',
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"]["type"] == "KeyError"

    def test_malformed_hex_table_is_400(self, client):
        import urllib.error
        import urllib.request
        body = json.dumps({"spec": {"num_vars": 3, "bits": ["0xnope"]}})
        request = urllib.request.Request(
            client.base_url + "/v1/jobs", data=body.encode(),
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["type"] == "ParseError"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v2/nothing")
        assert err.value.http_status == 404

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError):
            client.health()


class TestBackpressure:
    def test_full_queue_answers_429(self):
        server = ServiceServer(None, port=0, max_queue=1).start(loop=False)
        try:
            client = ServiceClient(server.url, timeout=10.0)
            first = client.submit(_xor_and_spec(), _config(seed=1))
            assert first["state"] == QUEUED
            with pytest.raises(QueueFull):
                client.submit(_xor_and_spec(), _config(seed=2))
        finally:
            server.close()

    def test_duplicate_of_queued_job_is_idempotent(self):
        server = ServiceServer(None, port=0, max_queue=1).start(loop=False)
        try:
            client = ServiceClient(server.url, timeout=10.0)
            first = client.submit(_xor_and_spec(), _config(seed=1))
            again = client.submit(_xor_and_spec(), _config(seed=1))
            assert again["job_id"] == first["job_id"]
            assert again["state"] == QUEUED
            assert client.status(first["job_id"])["state"] == QUEUED
        finally:
            server.close()


class TestLifecycle:
    def test_close_without_start_returns(self, tmp_path):
        """Regression: close() on a never-started server used to block
        forever in ``httpd.shutdown()``."""
        fleet = ClusterFleet(token="secret").start()
        server = ServiceServer(str(tmp_path / "store"), port=0,
                               cluster=fleet)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=20)
        assert not closer.is_alive(), "close() hung without start()"
        with pytest.raises(OSError):  # the listening socket is closed
            server._httpd.socket.getsockname()
        with pytest.raises(OSError):  # and so is the fleet's
            fleet._listener.getsockname()


    def test_close_keeps_queued_submissions(self, tmp_path):
        """A job answered 202 but still queued when the server closes
        gets its ``pending`` record, and a successor over the same
        store finishes it."""
        store = str(tmp_path / "store")
        spec, config = _xor_and_spec(), _config(generations=60)
        server = ServiceServer(store, port=0).start(loop=False)
        try:
            client = ServiceClient(server.url, timeout=10.0)
            job_id = client.submit(spec, config)["job_id"]
            assert client.status(job_id)["state"] == QUEUED
        finally:
            server.close()
        assert JobStore(store).load_record(job_id)["state"] == "pending"
        with ServiceServer(store, port=0).start() as successor:
            client = ServiceClient(successor.url, timeout=10.0)
            assert client.wait(job_id, timeout=60)["state"] == "done"
            assert client.result(job_id).verify()

    def test_finished_jobs_leave_the_active_set(self):
        """The loop drops a job from the ids it schedules once the job
        is done, so a long-lived server keeps none of them."""
        import time
        from repro.bench import get_benchmark
        spec = get_benchmark("ham3").spec()
        with ServiceServer(None, port=0, quantum=25).start() as server:
            client = ServiceClient(server.url, timeout=10.0)
            ids = [client.submit(spec, _config(generations=30,
                                               seed=seed))["job_id"]
                   for seed in range(5)]
            for job_id in ids:
                assert client.wait(job_id, timeout=60)["state"] == "done"
            deadline = time.monotonic() + 10.0
            while server._active and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server._active == set()
            assert client.metrics()['rcgp_jobs{state="done"}'] == 5


class TestInterruptedAndResume:
    """Regression: a record left ``running`` by a dead process must be
    reported ``interrupted`` + resumable, not ``running`` forever."""

    def _strand_job(self, tmp_path, spec, config):
        """Advance a job two slices and abandon it mid-run, exactly as
        a SIGKILLed server would: record says ``running``, checkpoint
        exists, no live scheduler owns it."""
        store = str(tmp_path / "store")
        with Scheduler(JobStore(store), quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run(max_ticks=2)
            assert job.state == "running"
        return store, job.id

    def test_stranded_job_reports_interrupted(self, tmp_path):
        spec, config = _decoder_spec(), _config(generations=400)
        store, job_id = self._strand_job(tmp_path, spec, config)

        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            view = ServiceClient(server.url, timeout=10.0).status(job_id)
            assert view["state"] == INTERRUPTED
            assert view["resumable"] is True
            assert view["generations_done"] == 50
            assert view["checkpoint_age_seconds"] >= 0.0
        finally:
            server.close()

    def test_restarted_server_resumes_bit_identically(self, tmp_path):
        spec, config = _decoder_spec(), _config(generations=400)
        baseline = synthesize(spec, config)
        store, job_id = self._strand_job(tmp_path, spec, config)

        with ServiceServer(store, port=0, quantum=25).start() as server:
            client = ServiceClient(server.url, timeout=10.0)
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            result = client.result(job_id)
            assert netlist_to_dict(result.netlist) == \
                netlist_to_dict(baseline.netlist)

            # Dedup across the kill: resubmitting the same content hash
            # is answered from the store, no re-evaluation.
            again = client.submit(spec, config)
            assert again["job_id"] == job_id
            assert again["from_store"] is True

            # Disk-backed jobs stream telemetry; the events carry the id.
            events = client.telemetry(job_id)
            assert events and all(e["job_id"] == job_id for e in events)

    def test_graceful_drain_leaves_store_resumable(self, tmp_path):
        spec, config = _decoder_spec(), _config(generations=400)
        baseline = synthesize(spec, config)
        store = str(tmp_path / "store")

        server = ServiceServer(store, port=0, quantum=25).start()
        client = ServiceClient(server.url, timeout=10.0)
        job_id = client.submit(spec, config)["job_id"]
        # Close immediately: the drain finishes (and checkpoints) at
        # most the slice in flight, leaving the rest for a successor.
        server.close()

        with ServiceServer(store, port=0, quantum=25).start() as successor:
            c2 = ServiceClient(successor.url, timeout=10.0)
            final = c2.wait(job_id, timeout=120)
            assert final["state"] == "done"
            result = c2.result(job_id)
            assert netlist_to_dict(result.netlist) == \
                netlist_to_dict(baseline.netlist)
            assert result.verify()

    def test_failed_job_resubmitted_to_a_live_server_resumes(
            self, monkeypatch):
        import repro.jobs.scheduler as scheduler_module

        spec, config = _decoder_spec(), _config(generations=100)
        baseline = synthesize(spec, config)
        real_run = scheduler_module.EvolutionRun
        failures = []

        class FailSecondSliceOnce(real_run):
            def run(self):
                if self.generation_offset > 0 and not failures:
                    failures.append(self.generation_offset)
                    raise ReproError("injected failure")
                return super().run()

        monkeypatch.setattr(scheduler_module, "EvolutionRun",
                            FailSecondSliceOnce)
        with ServiceServer(None, port=0, quantum=25).start() as server:
            client = ServiceClient(server.url, timeout=10.0)
            job_id = client.submit(spec, config)["job_id"]
            assert client.wait(job_id, timeout=60)["state"] == "failed"
            assert failures == [25]

            again = client.submit(spec, config)
            assert again["job_id"] == job_id
            assert again["state"] == QUEUED
            assert client.status(job_id)["state"] != "failed"
            final = client.wait(job_id, timeout=60)
            assert final["state"] == "done"
            assert final["generations_done"] == 100
            result = client.result(job_id)
            assert netlist_to_dict(result.netlist) == \
                netlist_to_dict(baseline.netlist)


class TestCrashSurfacing:
    """Leases, quarantines and torn streams as seen over the wire."""

    def _strand_job(self, tmp_path, spec, config, *, max_ticks=2):
        store = str(tmp_path / "store")
        with Scheduler(JobStore(store), quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run(max_ticks=max_ticks)
            assert job.state == "running"
        return store, job.id

    def test_stranded_with_checkpoint_resumes_from_checkpoint(
            self, tmp_path):
        store, job_id = self._strand_job(
            tmp_path, _decoder_spec(), _config(generations=400))
        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            view = ServiceClient(server.url, timeout=10.0).status(job_id)
            assert view["state"] == INTERRUPTED
            assert view["resumable"] is True
            assert view["resume_from"] == "checkpoint"
        finally:
            server.close()

    def test_stranded_without_checkpoint_resumes_from_baseline(
            self, tmp_path):
        """A process killed before its first checkpoint leaves a
        ``running`` record and nothing else — still resumable, from
        the deterministic baseline."""
        store = str(tmp_path / "store")
        writer = JobStore(store)
        with Scheduler(writer, quantum=25) as scheduler:
            job = scheduler.submit(_decoder_spec(),
                                   _config(generations=400))
            record = writer.load_record(job.id)
            record["state"] = "running"
            writer.save_record(job.id, record)
        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            view = ServiceClient(server.url, timeout=10.0).status(job.id)
            assert view["state"] == INTERRUPTED
            assert view["resumable"] is True
            assert view["resume_from"] == "baseline"
            assert "checkpoint_at" not in view
        finally:
            server.close()

    def test_foreign_live_lease_reports_running_with_owner(
            self, tmp_path):
        store, job_id = self._strand_job(
            tmp_path, _decoder_spec(), _config(generations=400))
        foreign = JobStore(store, owner="other-scheduler")
        assert foreign.acquire_lease(job_id)
        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            view = ServiceClient(server.url, timeout=10.0).status(job_id)
            assert view["state"] == "running"
            assert view["resumable"] is False
            assert view["owner"] == "other-scheduler"
            assert view["lease"]["live"] is True
        finally:
            server.close()
            foreign.release_lease(job_id)

    def test_result_torn_after_open_is_typed_500(self, tmp_path):
        store = str(tmp_path / "store")
        with Scheduler(JobStore(store), quantum=25) as scheduler:
            job = scheduler.submit(_xor_and_spec(),
                                   _config(generations=60))
            scheduler.run()
            assert job.state == "done"
        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            # Tear the artifact *after* the server's recovery sweep ran:
            # the read path itself must surface typed corruption.
            result_path = tmp_path / "store" / job.id / "result.json"
            result_path.write_bytes(b'{"netlist": [[')
            client = ServiceClient(server.url, timeout=10.0)
            with pytest.raises(ServiceError) as err:
                client.raw_result(job.id)
            assert err.value.http_status == 500
            assert "StoreCorruption" in str(err.value)
        finally:
            server.close()
        # The next open quarantines it; the job re-runs from scratch.
        reopened = JobStore(store)
        assert reopened.quarantined
        assert reopened.load_result(job.id) is None

    def test_torn_telemetry_served_as_valid_jsonl(self, tmp_path):
        from repro.jobs import TELEMETRY_TRUNCATED
        store, job_id = self._strand_job(
            tmp_path, _decoder_spec(), _config(generations=400))
        telemetry = tmp_path / "store" / job_id / "telemetry.jsonl"
        with open(telemetry, "ab") as handle:
            handle.write(b'{"event": "job_sl')   # torn mid-append
        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            events = ServiceClient(server.url,
                                   timeout=10.0).telemetry(job_id)
            assert events[-1]["event"] == TELEMETRY_TRUNCATED
            assert events[-1]["dropped_bytes"] > 0
            assert all("event" in event for event in events)
        finally:
            server.close()

    def test_metrics_expose_lease_and_quarantine_counters(self, tmp_path):
        store, job_id = self._strand_job(
            tmp_path, _decoder_spec(), _config(generations=400))
        # One corrupt artifact for the server's sweep to quarantine...
        baseline_path = tmp_path / "store" / job_id / "baseline.json"
        baseline_path.write_bytes(b'{"cost":')
        # ...and one live foreign lease.
        foreign = JobStore(store, owner="other-scheduler")
        assert foreign.acquire_lease(job_id)
        server = ServiceServer(store, port=0, resume=False)
        server.start(loop=False)
        try:
            metrics = ServiceClient(server.url, timeout=10.0).metrics()
            assert metrics["rcgp_store_quarantined_total"] == 1
            assert metrics["rcgp_leases_live"] == 1
            assert metrics["rcgp_lease_takeovers_total"] == 0
            # Lease-aware state gauge: leased elsewhere != interrupted.
            assert metrics['rcgp_jobs{state="running"}'] == 1
        finally:
            server.close()
            foreign.release_lease(job_id)

    def test_client_maps_typed_lease_held_409(self):
        from repro.errors import LeaseHeld
        from repro.service.client import _error_from
        body = json.dumps({"error": {
            "type": "LeaseHeld",
            "message": "job abc is leased by sched-1"}}).encode()
        err = _error_from(409, body)
        assert isinstance(err, LeaseHeld)
        assert err.http_status == 409
        plain = _error_from(409, json.dumps({"error": {
            "type": "JobNotReady", "message": "no result"}}).encode())
        assert isinstance(plain, JobNotReady)
        assert not isinstance(plain, LeaseHeld)

    def test_lease_ttl_threads_through_to_the_store(self, tmp_path):
        server = ServiceServer(str(tmp_path / "store"), port=0,
                               lease_ttl=7.5)
        server.start(loop=False)
        try:
            assert server.session.store.lease_ttl == 7.5
        finally:
            server.close()


class TestMetricsScrape:
    @staticmethod
    def _parse(text):
        return {name: value for name, value in
                (line.rsplit(None, 1) for line in text.splitlines()
                 if line and not line.startswith("#"))
                if name != "rcgp_uptime_seconds"}

    @pytest.mark.parametrize("done", [10, 40])
    def test_done_jobs_are_read_once_per_server(self, tmp_path, done):
        store = JobStore(str(tmp_path))
        for index in range(done):
            store.save_record(f"done-{index}", {
                "state": "done", "evaluations": index + 1, "eval_full": 2})
        store.save_record("running", {"state": "running", "evaluations": 5})
        store.save_record("failed", {"state": "failed", "evaluations": 7})
        reads = []
        for method in ("load_record", "lease_info"):
            def counting(job_id, _read=getattr(store, method)):
                reads.append(job_id)
                return _read(job_id)
            setattr(store, method, counting)
        server = ServiceServer(store, port=0, resume=False)
        try:
            first = self._parse(server.metrics_text())
            assert sorted(reads) == sorted(2 * store.jobs())
            del reads[:]
            second = self._parse(server.metrics_text())
        finally:
            server.close()
        assert sorted(reads) == ["failed", "failed", "running", "running"]
        assert second == first
        assert first["rcgp_evaluations_total"] == \
            str(done * (done + 1) // 2 + 5 + 7)
        assert first["rcgp_eval_full_total"] == str(2 * done)
        assert first['rcgp_jobs{state="done"}'] == str(done)
        assert first['rcgp_jobs{state="failed"}'] == "1"
        assert first['rcgp_jobs{state="interrupted"}'] == "1"


class TestClientRetry:
    """Idempotent GETs survive one torn keep-alive connection (server
    restart, LB failover); non-idempotent POSTs never auto-repeat."""

    class _Response:
        def __init__(self, body):
            self._body = body

        def read(self):
            return self._body

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    def _flaky_urlopen(self, failures, error):
        calls = []

        def urlopen(request, timeout=None):
            calls.append(request.get_method())
            if len(calls) <= failures:
                raise error
            return self._Response(b'{"ok": true}')

        return urlopen, calls

    def test_get_retries_once_on_wrapped_disconnect(self, monkeypatch):
        import http.client
        import urllib.error
        import urllib.request
        from repro.service.client import ServiceClient
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "RETRY_BACKOFF", 0.0)
        error = urllib.error.URLError(
            http.client.RemoteDisconnected("closed mid-keep-alive"))
        urlopen, calls = self._flaky_urlopen(1, error)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert client._json("GET", "/healthz") == {"ok": True}
        assert calls == ["GET", "GET"]

    def test_get_retries_once_on_bare_reset(self, monkeypatch):
        import urllib.request
        from repro.service.client import ServiceClient
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "RETRY_BACKOFF", 0.0)
        urlopen, calls = self._flaky_urlopen(
            1, ConnectionResetError("reset mid-body"))
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert client._json("GET", "/healthz") == {"ok": True}
        assert calls == ["GET", "GET"]

    def test_get_gives_up_after_one_retry(self, monkeypatch):
        import http.client
        import urllib.error
        import urllib.request
        from repro.service.client import ServiceClient
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "RETRY_BACKOFF", 0.0)
        error = urllib.error.URLError(
            http.client.RemoteDisconnected("still down"))
        urlopen, calls = self._flaky_urlopen(10, error)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(ServiceError):
            client._json("GET", "/healthz")
        assert calls == ["GET", "GET"]

    def test_get_does_not_retry_other_failures(self, monkeypatch):
        import urllib.error
        import urllib.request
        from repro.service.client import ServiceClient
        client = ServiceClient("http://127.0.0.1:9")
        urlopen, calls = self._flaky_urlopen(
            10, urllib.error.URLError(ConnectionRefusedError("nope")))
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(ServiceError):
            client._json("GET", "/healthz")
        assert calls == ["GET"]

    def test_post_never_retried(self, monkeypatch):
        import http.client
        import urllib.error
        import urllib.request
        from repro.service.client import ServiceClient
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(client, "RETRY_BACKOFF", 0.0)
        error = urllib.error.URLError(
            http.client.RemoteDisconnected("closed"))
        urlopen, calls = self._flaky_urlopen(10, error)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(ServiceError):
            client._json("POST", "/v1/jobs", {"x": 1})
        assert calls == ["POST"]
