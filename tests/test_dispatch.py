"""Local worker leases of the one dispatcher, ``ClusterDispatch``.

Pipe workers are leased one at a time, like fleet workers: the most
recently released idle worker first (its resident evaluators are warm),
else a new process while fewer than ``local_workers`` run.  A failed
worker is killed and forgotten alone, and a failed start leaves the
slice to run inline.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.cluster import ClusterDispatch
from repro.core import transport, wire
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, encode_genome
from repro.core.fitness import Evaluator
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import tabulate_word
from tests.pooled import pooled_run


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _span_frame(count):
    """One job-keyed span request frame, as a ``JobBackend`` sends it."""
    spec = _decoder_spec()
    config = RcgpConfig(seed=3, offspring=4)
    parent = initialize_netlist(spec)
    fitness = Evaluator(spec, config).evaluate(parent)
    ctx = ("job", tuple(t.bits for t in spec), spec[0].num_vars,
           config.to_dict())
    request = wire.SpanRequest(
        base_seed=config.seed, start_gen=1, count=count,
        parent_fitness=(fitness.success, fitness.n_r, fitness.n_g,
                        fitness.n_b),
        parent_genome=encode_genome(parent))
    return bytes([transport.OP_JOB_SPAN]) + \
        wire.pack_job_span(pickle.dumps(ctx), request)


def _children():
    return {process.pid for process in multiprocessing.active_children()}


@pytest.fixture
def dispatch():
    dispatch = ClusterDispatch(local_workers=2)
    yield dispatch
    dispatch.close()


class TestLocalLeases:
    def test_failed_worker_is_replaced_alone(self, dispatch):
        first, second = dispatch.lease(), dispatch.lease()
        assert first.process.pid != second.process.pid
        assert dispatch.lease() is None         # both workers are leased
        dispatch.release(first, failed=True)
        assert not first.process.is_alive()
        assert second.process.is_alive()
        second.send(_span_frame(3))
        reply = second.recv(time.monotonic() + 60)
        assert len(wire.unpack_span_result(memoryview(reply)[1:])
                   .records) == 3
        replacement = dispatch.lease()
        assert replacement.process.pid not in (first.process.pid,
                                                second.process.pid)
        assert replacement.process.is_alive()

    def test_clean_release_reuses_the_idle_worker(self, dispatch):
        before = _children()
        worker = dispatch.lease()
        dispatch.release(worker, failed=False)
        assert dispatch.lease() is worker
        assert len(_children() - before) == 1

    def test_most_recently_released_worker_is_leased_first(self, dispatch):
        first, second = dispatch.lease(), dispatch.lease()
        dispatch.release(first, failed=False)
        dispatch.release(second, failed=False)
        assert dispatch.lease() is second
        assert dispatch.lease() is first

    def test_close_stops_every_worker(self, dispatch):
        leased, idle = dispatch.lease(), dispatch.lease()
        dispatch.release(idle, failed=False)
        dispatch.close()
        assert not leased.process.is_alive()
        assert not idle.process.is_alive()


class TestFailedStart:
    @pytest.fixture
    def no_processes(self, monkeypatch):
        def refuse(process):
            raise OSError("no process can be started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)

    def test_lease_returns_none_and_keeps_no_pipe(self, dispatch,
                                                  no_processes):
        fds = len(os.listdir("/proc/self/fd"))
        assert dispatch.lease() is None
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_slice_runs_inline_without_degrading(self, no_processes):
        spec = _decoder_spec()
        config = RcgpConfig(generations=40, seed=5, offspring=4)
        serial = EvolutionRun(spec, config).run()
        pooled, _ = pooled_run(spec, config, local_workers=2)
        assert pooled.chunks_dispatched == 0
        assert not pooled.degraded_to_inline
        assert pooled.netlist.describe() == serial.netlist.describe()
        assert pooled.fitness.key() == serial.fitness.key()
        assert pooled.evaluations == serial.evaluations
