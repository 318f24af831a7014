"""Distributed evaluation over TCP workers (`repro.cluster`).

The headline guarantee extends the pool suite's across machine
boundaries: **any worker mix — local pipes, remote TCP processes,
both at once, workers dying mid-span — produces results and eval
counters bit-identical to the serial loop.**  These tests run real
``run_worker`` processes over loopback sockets, inject real deaths
(``os._exit`` mid-evaluation, SIGKILL from outside) and check both the
recovered results and the typed failure surface of the frame protocol
and the registration handshake.
"""

import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cluster import ClusterDispatch, ClusterFleet, run_worker
from repro.cluster import protocol
from repro.cluster.worker import parse_endpoint
from repro.core import transport, wire
from repro.core.config import RcgpConfig
from repro.core.engine import RECOVERABLE_POOL_ERRORS, EvolutionRun
from repro.errors import (ClusterAuthError, ClusterError,
                          ClusterVersionSkew, FrameError, FrameTooLarge,
                          FrameTruncated, UnknownOpcode, WorkerPoolError)
from repro.jobs.pool import JobBackend
from repro.logic.truth_table import TruthTable

TOKEN = "test-cluster-token"

_SPAWN = multiprocessing.get_context("spawn")


def _spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2),
            TruthTable.from_function(lambda a, b: a & b, 2)]


def _config(**overrides):
    # eval_cache_size is inert (the memo cache is retired); every
    # pooled run rides the pipelined span protocol.
    base = dict(generations=300, seed=11, shrink="always", workers=0,
                eval_cache_size=0)
    base.update(overrides)
    return RcgpConfig(**base)


def _worker_main(port, token, name, env):
    if env:
        os.environ.update(env)
    run_worker(f"127.0.0.1:{port}", token, name=name)


def _spawn_worker(port, name, env=None, token=TOKEN):
    proc = _SPAWN.Process(target=_worker_main,
                          args=(port, token, name, env), daemon=True)
    proc.start()
    return proc


def _wait_live(fleet, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if fleet.live_count() >= count:
            return
        time.sleep(0.05)
    raise AssertionError(
        f"fleet has {fleet.live_count()} live workers, wanted {count}")


def _run_cluster(spec, config, fleet, *, local_workers=0):
    """One EvolutionRun over a JobBackend on a fleet dispatch; returns
    (run, dispatch, backend) with the dispatch closed."""
    dispatch = ClusterDispatch(fleet, local_workers=local_workers)
    ctx = ("test-job", tuple(t.bits for t in spec), spec[0].num_vars,
           config.to_dict())
    backend = JobBackend(dispatch, ctx, config, name="cluster")
    try:
        run = EvolutionRun(spec, config, backend=backend).run()
    finally:
        dispatch.close()
    return run, dispatch, backend


def _assert_identical(run, serial):
    assert run.fitness.key() == serial.fitness.key()
    assert run.netlist.describe() == serial.netlist.describe()
    assert run.generations == serial.generations
    assert run.evaluations == serial.evaluations
    assert run.eval_full == serial.eval_full
    assert run.eval_incremental == serial.eval_incremental


# ----------------------------------------------------------------------
# Frame robustness (shared by pipe and TCP transports)


class TestFrameRobustness:
    def test_typed_errors_are_recoverable_pool_errors(self):
        for cls in (FrameError, FrameTruncated, FrameTooLarge,
                    UnknownOpcode):
            assert issubclass(cls, WorkerPoolError)
        assert FrameError in RECOVERABLE_POOL_ERRORS

    def test_empty_frame_truncated(self):
        with pytest.raises(FrameTruncated):
            transport.check_frame(b"")

    def test_oversized_frame_typed(self):
        with pytest.raises(FrameTooLarge):
            transport.check_frame(b"\x01" * 64, max_bytes=16)

    def test_frame_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("RCGP_MAX_FRAME_BYTES", "4096")
        assert transport.max_frame_bytes() == 4096
        monkeypatch.delenv("RCGP_MAX_FRAME_BYTES")
        assert transport.max_frame_bytes() == \
            transport.DEFAULT_MAX_FRAME_BYTES

    def test_unknown_opcode_round_trips_typed(self):
        reply = transport.serve_frame(bytes([0x7F]))
        assert reply[0] == transport.OP_ERROR
        with pytest.raises(UnknownOpcode):
            transport.unwrap_reply(reply)

    def test_garbage_payload_round_trips_truncated(self):
        # The span opcode converts struct-level garbage into
        # FrameTruncated — one recoverable retry, never a crash of the
        # serve loop.
        for garbage in (b"\x01\x02", b"\x02\x00\x00\x00ab\x03"):
            reply = transport.serve_frame(
                bytes([transport.OP_JOB_SPAN]) + garbage)
            with pytest.raises(FrameTruncated):
                transport.unwrap_reply(reply)

    def test_wire_unpack_truncated_typed(self):
        for unpack in (wire.unpack_genome, wire.unpack_deltas,
                       wire.unpack_span_request, wire.unpack_job_span,
                       wire.unpack_span_result):
            with pytest.raises(FrameTruncated):
                unpack(memoryview(b"\x07"))

    def test_unexpected_reply_opcode_typed(self):
        with pytest.raises(UnknownOpcode):
            transport.unwrap_reply(bytes([transport.OP_PONG]))

    def test_ping_pong(self):
        reply = transport.serve_frame(bytes([transport.OP_PING]))
        assert reply == bytes([transport.OP_PONG])
        transport.unwrap_reply(reply, expect=transport.OP_PONG)

    def test_socket_channel_failure_mapping(self):
        left, right = socket.socketpair()
        a = protocol.SocketChannel(left)
        b = protocol.SocketChannel(right)
        try:
            # Oversized outgoing frames are refused before hitting the
            # wire; oversized incoming ones before buffering the body.
            small = protocol.SocketChannel(left, max_bytes=8)
            with pytest.raises(FrameTooLarge):
                small.send(b"\x01" * 64)
            a.send(b"\x01" * 64)
            with pytest.raises(FrameTooLarge):
                protocol.SocketChannel(right, max_bytes=8).recv(
                    time.monotonic() + 1.0)
        finally:
            a.close()
            b.close()

    def test_socket_channel_close_mid_frame_truncated(self):
        left, right = socket.socketpair()
        b = protocol.SocketChannel(right)
        try:
            # Length prefix promises 100 bytes; peer dies after 3.
            left.sendall(b"\x64\x00\x00\x00" + b"abc")
            left.close()
            with pytest.raises(FrameTruncated):
                b.recv(time.monotonic() + 1.0)
        finally:
            b.close()

    def test_socket_channel_clean_close_is_eof(self):
        left, right = socket.socketpair()
        b = protocol.SocketChannel(right)
        try:
            left.close()
            with pytest.raises(EOFError):
                b.recv(time.monotonic() + 1.0)
        finally:
            b.close()

    def test_socket_channel_deadline_is_timeout(self):
        left, right = socket.socketpair()
        b = protocol.SocketChannel(right)
        try:
            with pytest.raises(TimeoutError):
                b.recv(time.monotonic() + 0.05)
        finally:
            left.close()
            b.close()


# ----------------------------------------------------------------------
# Registration handshake


class TestHandshake:
    def test_bad_token_rejected_typed(self):
        with ClusterFleet(token=TOKEN) as fleet:
            with pytest.raises(ClusterAuthError):
                run_worker(f"127.0.0.1:{fleet.port}", "wrong-token",
                           once=True)
            deadline = time.monotonic() + 5.0
            while fleet.rejections_total == 0 and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert fleet.rejections_total == 1
            assert fleet.live_count() == 0

    def test_version_skew_rejected_typed(self):
        # A worker still speaking protocol 1 (genome/delta batch frames)
        # must be turned away at the handshake, typed.
        assert protocol.PROTOCOL_VERSION == 2
        with ClusterFleet(token=TOKEN) as fleet:
            sock = socket.create_connection(("127.0.0.1", fleet.port),
                                            timeout=5.0)
            channel = protocol.SocketChannel(sock)
            try:
                channel.send(protocol._json_frame(protocol.OP_HELLO, {
                    "proto": 1, "token": TOKEN, "name": "skewed",
                    "slots": 1, "pid": os.getpid(), "host": "x",
                    "incarnation": 0}))
                reply = channel.recv(time.monotonic() + 5.0)
                with pytest.raises(ClusterVersionSkew):
                    protocol.parse_welcome(reply)
            finally:
                channel.close()
            assert fleet.live_count() == 0

    def test_empty_token_refused_both_sides(self):
        with pytest.raises(ValueError):
            ClusterFleet(token="")
        with pytest.raises(ClusterError):
            run_worker("127.0.0.1:1", "", once=True)

    def test_bad_endpoint_typed(self):
        for bad in ("nonsense", "host:", ":123", "host:port"):
            with pytest.raises(ClusterError):
                parse_endpoint(bad)
        assert parse_endpoint("10.0.0.1:8788") == ("10.0.0.1", 8788)


# ----------------------------------------------------------------------
# Determinism across worker mixes


class TestClusterDeterminism:
    def test_remote_and_mixed_identical_to_serial_and_pool(self):
        spec = _spec()
        config = _config()
        serial = EvolutionRun(spec, config).run()
        pool = EvolutionRun(spec, _config(workers=2)).run()
        _assert_identical(pool, serial)

        fleet = ClusterFleet(token=TOKEN, heartbeat=2.0).start()
        procs = [_spawn_worker(fleet.port, "det-w1"),
                 _spawn_worker(fleet.port, "det-w2")]
        try:
            _wait_live(fleet, 2)
            remote, r_dispatch, r_backend = _run_cluster(
                spec, config, fleet)
            mixed, m_dispatch, m_backend = _run_cluster(
                spec, config, fleet, local_workers=2)
        finally:
            fleet.close()
            for proc in procs:
                proc.terminate()
                proc.join(timeout=10)
        _assert_identical(remote, serial)
        _assert_identical(mixed, serial)
        # The remote run really rode the fleet.
        assert r_dispatch.spans_remote > 0
        assert r_backend.cluster_workers <= {"det-w1", "det-w2"}
        assert r_backend.cluster_workers
        assert r_backend.bytes_shipped > 0
        assert not r_backend.degraded
        assert not m_backend.degraded

    def test_empty_fleet_runs_inline_identical(self):
        spec = _spec()
        config = _config(generations=120)
        serial = EvolutionRun(spec, config).run()
        with ClusterFleet(token=TOKEN) as fleet:
            run, dispatch, backend = _run_cluster(spec, config, fleet)
        _assert_identical(run, serial)
        # Nobody connected is cluster weather, not machine breakage:
        # the slice inlines without flipping the degraded latch.
        assert not backend.degraded
        assert dispatch.last_failure == "no_channels"
        assert backend.cluster_workers == set()


# ----------------------------------------------------------------------
# Fault tolerance: dying workers never change results


class TestClusterFaultTolerance:
    def test_worker_death_mid_span_redispatches_bit_identical(self):
        spec = _spec()
        config = _config()
        serial = EvolutionRun(spec, config).run()
        fleet = ClusterFleet(token=TOKEN, heartbeat=0.5,
                             heartbeat_timeout=2.0).start()
        # Every worker hard-exits (os._exit, no cleanup — the same
        # syscall surface as SIGKILL) mid-evaluation after its 40th
        # eval; the serial run needs ~1200, so whoever serves spans
        # dies repeatedly and the coordinator must recover each time.
        env = {"RCGP_TEST_CRASH_AFTER_EVALS": "40"}
        procs = [_spawn_worker(fleet.port, "doomed-1", env=env),
                 _spawn_worker(fleet.port, "doomed-2", env=env)]
        try:
            _wait_live(fleet, 2)
            run, dispatch, backend = _run_cluster(spec, config, fleet)
        finally:
            fleet.close()
            for proc in procs:
                proc.terminate()
                proc.join(timeout=10)
        _assert_identical(run, serial)
        assert dispatch.batches_retried + dispatch.worker_restarts > 0

    def test_sigkill_one_worker_mid_run_bit_identical(self):
        spec = _spec()
        config = _config()
        serial = EvolutionRun(spec, config).run()
        fleet = ClusterFleet(token=TOKEN, heartbeat=0.5,
                             heartbeat_timeout=2.0).start()
        victim = _spawn_worker(fleet.port, "victim")
        survivor = _spawn_worker(fleet.port, "survivor")
        # SIGKILL lands whenever it lands — mid-span (the collect loop
        # re-dispatches to the survivor) or between spans (the
        # heartbeat drops the corpse); bit-identity must hold either
        # way.
        killer = threading.Timer(0.25, victim.kill)
        try:
            _wait_live(fleet, 2)
            killer.start()
            run, dispatch, backend = _run_cluster(spec, config, fleet)
        finally:
            killer.cancel()
            fleet.close()
            for proc in (victim, survivor):
                proc.terminate()
                proc.join(timeout=10)
        _assert_identical(run, serial)
        assert not backend.degraded


# ----------------------------------------------------------------------
# Service surface: /v1/workers, /metrics, scheduler integration


class TestServiceFleet:
    def test_workers_endpoint_and_metrics(self):
        from repro.service import ServiceClient, ServiceServer
        fleet = ClusterFleet(token=TOKEN, heartbeat=2.0).start()
        server = ServiceServer(None, port=0,
                               cluster=fleet).start(loop=False)
        proc = _spawn_worker(fleet.port, "svc-w1")
        try:
            _wait_live(fleet, 1)
            client = ServiceClient(server.url, timeout=10.0)
            view = client.workers()
            assert view["cluster"] is True
            assert view["live"] == 1
            assert view["workers"][0]["name"] == "svc-w1"
            assert view["workers"][0]["slots"] >= 1
            metrics = client.metrics()
            assert metrics["rcgp_cluster_workers_live"] == 1.0
            assert metrics["rcgp_cluster_spans_remote_total"] == 0.0
            assert metrics["rcgp_cluster_reconnects_total"] == 0.0
        finally:
            server.close()  # closes the attached fleet too
            proc.terminate()
            proc.join(timeout=10)

    def test_workers_endpoint_without_cluster(self):
        from repro.service import ServiceClient, ServiceServer
        with ServiceServer(None, port=0).start(loop=False) as server:
            client = ServiceClient(server.url, timeout=10.0)
            view = client.workers()
            assert view["cluster"] is False
            assert view["live"] == 0
            assert view["workers"] == []
            assert client.metrics()["rcgp_cluster_workers_live"] == 0.0

    def test_serve_requires_token_with_cluster_port(self):
        from repro.service.server import serve
        with pytest.raises(ValueError):
            serve(None, port=0, cluster_port=0)

    def test_session_with_fleet_bit_identical(self):
        from repro.api import Session, synthesize
        spec = _spec()
        config = _config(generations=150)
        baseline = synthesize(spec, config)
        fleet = ClusterFleet(token=TOKEN, heartbeat=2.0).start()
        proc = _spawn_worker(fleet.port, "sess-w1")
        try:
            _wait_live(fleet, 1)
            with Session(workers=0, fleet=fleet) as session:
                result = session.synthesize(spec, config)
        finally:
            fleet_spans = fleet.spans_remote_total
            fleet.close()
            proc.terminate()
            proc.join(timeout=10)
        assert result.evolution.fitness.key() == \
            baseline.evolution.fitness.key()
        assert result.evolution.evaluations == \
            baseline.evolution.evaluations
        assert result.netlist.describe() == baseline.netlist.describe()
        assert fleet_spans > 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
