"""A slice boundary never changes the search, and a job gates once.

Scheduler slices (``Session(quantum=...)``), the one way to slice a
run, resume each slice from the checkpoint's *live* parent and its
generations since the last improvement, so a run cut at any quantum
ends where one slice ends: the shrink policy (``shrink="never"`` keeps
inactive gates on the parent that finalization would strip) and the
stagnation limit (which counts across slices, even when the stop lands
exactly on a slice's last generation) included.

The result gate runs once per job, after its last slice, on the buffer
plan the result reports, and ``time_budget`` bounds the whole job: each
slice gets the time the slices before it left.
"""

import json
import os

import pytest

import repro.core.engine as engine_mod
import repro.core.verify as verify_mod
from repro.api import Session
from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import read_telemetry
from repro.core.synthesis import initialize_netlist
from repro.jobs import DONE, JobStore, Scheduler

_TUNED = dict(mutation_rate=0.08, max_mutated_genes=8)


def _scheduled(spec, config, quantum):
    """(evolution result, slices run) of one job at ``quantum``."""
    with Session(quantum=quantum) as session:
        job = session.submit(spec, config)
        session.run()
        return job.result().evolution, job.record["slices"]


def _assert_same_search(sliced, whole):
    assert sliced.fitness.key() == whole.fitness.key()
    assert sliced.netlist.describe() == whole.netlist.describe()
    assert sliced.generations == whole.generations


class TestShrinkNeverAcrossSlices:
    """Finalizing shrinks the parent; a slice must not resume from it."""

    CONFIG = RcgpConfig(generations=300, seed=2, shrink="never", **_TUNED)

    @pytest.mark.parametrize("quantum", [25, 20])
    def test_scheduler_slices_equal_one_slice(self, quantum):
        spec = get_benchmark("ham3").spec()
        whole, _ = _scheduled(spec, self.CONFIG, None)
        sliced, slices = _scheduled(spec, self.CONFIG, quantum)
        assert slices == -(-300 // quantum)
        _assert_same_search(sliced, whole)


class TestStagnationLimitAcrossSlices:
    """The stagnation limit counts generations since the last
    improvement, whichever slice they ran in."""

    LIMIT = 60

    def _config(self, seed):
        return RcgpConfig(generations=600, seed=seed,
                          stagnation_limit=self.LIMIT, shrink="always",
                          **_TUNED)

    @pytest.mark.parametrize("name,seed", [("ham3", 1), ("decoder_2_4", 2)])
    def test_scheduler_slices_equal_one_slice(self, name, seed):
        spec = get_benchmark(name).spec()
        config = self._config(seed)
        whole, _ = _scheduled(spec, config, None)
        assert whole.generations < config.generations  # the limit stopped it
        # 25 cuts anywhere, 20 divides the limit, and a quantum equal to
        # the stopping generation puts the stop on a slice's last one.
        for quantum in (25, 20, whole.generations):
            sliced, slices = _scheduled(spec, config, quantum)
            _assert_same_search(sliced, whole)
            assert slices == -(-whole.generations // quantum)


class TestCheckpointStagnationCount:
    """A job resumes from its store checkpoint's ``stagnation`` count."""

    def test_stored_count_is_carried_and_a_missing_one_reads_zero(
            self, tmp_path):
        spec = get_benchmark("ham3").spec()
        initial = initialize_netlist(spec, "ham3")
        config = RcgpConfig(generations=300, seed=1, stagnation_limit=60,
                            shrink="always", **_TUNED)

        def run(store_dir, stagnation=None, drop_count=False):
            store = JobStore(str(tmp_path / store_dir))
            with Scheduler(store, quantum=100) as scheduler:
                job = scheduler.submit(spec, config, initial=initial)
                if stagnation is not None:
                    store.save_checkpoint(job.id, initial, 0, config,
                                          stagnation=stagnation)
                if drop_count:
                    path = os.path.join(store.job_dir(job.id),
                                        "checkpoint.json")
                    with open(path) as handle:
                        payload = json.load(handle)
                    del payload["stagnation"]
                    with open(path, "w") as handle:
                        json.dump(payload, handle)
                scheduler.run()
                return job.result().evolution

        fresh = run("fresh")
        counted = run("counted", stagnation=59)
        assert counted.generations < fresh.generations
        # A checkpoint written before the count existed resumes at 0.
        _assert_same_search(run("uncounted", stagnation=59, drop_count=True),
                            fresh)


class TestResultGateOncePerJob:
    @pytest.fixture
    def gate_calls(self, monkeypatch):
        calls = []
        real = verify_mod.verify_evolution_result

        def counting(netlist, spec, config=None, plan=None):
            calls.append(plan)
            return real(netlist, spec, config, plan)

        monkeypatch.setattr(verify_mod, "verify_evolution_result", counting)
        return calls

    def test_sliced_job_gates_once_on_the_reported_plan(self, gate_calls,
                                                         tmp_path):
        spec = get_benchmark("ham3").spec()
        config = RcgpConfig(generations=200, seed=3, verify_result=True,
                            telemetry_path=str(tmp_path / "t.jsonl"),
                            **_TUNED)
        with Session(quantum=50) as session:
            job = session.submit(spec, config)
            session.run()
            result = job.result()
        assert job.record["slices"] == 4
        assert len(gate_calls) == 1
        assert gate_calls[0] is not None
        assert gate_calls[0] == result.plan
        assert result.evolution.verified
        events = read_telemetry(str(tmp_path / "t.jsonl"))
        assert [e["event"] for e in events].count("verify") == 1
        assert events[-1]["event"] == "job_end"
        assert events[-1]["verified"] is True


class _Clock:
    """Stands in for the engine module's ``time``: every ``monotonic()``
    read advances one second, so a time budget stops a run after a
    fixed number of clock reads on any host."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class TestTimeBudgetAcrossSlices:
    """Every clock read costs one fake second, so a 40 s budget lasts a
    hundred-odd generations; a slice of 50 generations takes about 23
    reads, less than the budget, so a slice that restarted the budget
    would never stop the run."""

    BUDGET = 40.0

    @pytest.fixture(autouse=True)
    def fake_clock(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "time", _Clock())

    def _config(self, budget=BUDGET):
        return RcgpConfig(generations=4000, seed=5, time_budget=budget,
                          **_TUNED)

    def test_scheduler_slices_share_the_budget(self):
        spec = get_benchmark("intdiv5").spec()
        config = self._config()
        whole, _ = _scheduled(spec, config, None)
        sliced, slices = _scheduled(spec, config, 50)
        assert 0 < sliced.generations <= whole.generations \
            < config.generations
        assert slices > 1
        assert self.BUDGET <= sliced.runtime < 2 * self.BUDGET

    def test_spent_budget_survives_a_restart(self, tmp_path):
        # A store-backed job writes telemetry, whose events read the
        # clock once per generation: a bigger budget keeps several
        # slices in it.
        budget = 5 * self.BUDGET
        spec = get_benchmark("intdiv5").spec()
        config = self._config(budget)
        with Scheduler(JobStore(str(tmp_path)), quantum=50) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run(max_ticks=1)
            assert job.state != DONE
        with Scheduler(JobStore(str(tmp_path)), quantum=50) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
            record = job.record
        assert record["state"] == DONE
        assert record["slices"] > 2
        assert record["generations_done"] < config.generations
        assert budget <= record["runtime"] < 2 * budget
