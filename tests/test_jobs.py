"""Tests for the multi-job scheduler and persistent job store.

The headline guarantees:

* **fair-share determinism** — a job interleaved with any number of
  others is bit-identical to the same job run alone;
* **kill-and-resume** — a scheduler restarted over the same store
  converges to the identical final result;
* **store-served results** — finished jobs are recognized by content
  hash and never re-evaluated.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.api import Session
from repro.core.config import RcgpConfig
from repro.core.engine import COUNTER_FIELDS
from repro.core.restart import multi_start
from repro.core.synthesis import SynthesisResult
from repro.errors import LeaseHeld, ParseError, StoreCorruption
from repro.io.rqfp_json import netlist_to_dict
from repro.jobs import (DEFAULT_LEASE_TTL, DONE, FAILED, JobSpec, JobStore,
                        PENDING, RUNNING, Scheduler, TELEMETRY_TRUNCATED,
                        identity_config_dict, parallel_safe_config,
                        set_fault_hook, spec_tables_from_payload,
                        spec_tables_to_payload)
from repro.logic.truth_table import TruthTable, tabulate_word


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _xor_and_spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2),
            TruthTable.from_function(lambda a, b: a & b, 2)]


def _chromosome(result: SynthesisResult) -> dict:
    return netlist_to_dict(result.evolution.netlist)


def result_fields(result: SynthesisResult) -> dict:
    """What every way of reading one job's result must agree on: the
    netlist, both buffer plans, the cost rows (but ``T``), the
    improvement history, the flags and every counter."""
    def plan(p):
        return (list(p.levels), p.depth, p.num_buffers)

    def row(cost):
        return {k: v for k, v in cost.as_row().items() if k != "T"}

    evolution = result.evolution
    fields = {
        "netlist": netlist_to_dict(result.netlist),
        "plan": plan(result.plan),
        "initial.plan": plan(result.initial.plan),
        "cost": row(result.cost),
        "initial.cost": row(result.initial.cost),
        "history": [(generation, fitness.success, fitness.n_r, fitness.n_g,
                     fitness.n_b)
                    for generation, fitness in evolution.history],
        "interrupted": evolution.interrupted,
        "verified": evolution.verified,
    }
    for name in COUNTER_FIELDS:
        fields[name] = getattr(evolution, name)
    return fields


class TestJobSpec:
    def test_job_id_stable_and_operational_fields_ignored(self):
        spec = tuple(_xor_and_spec())
        a = JobSpec(spec, RcgpConfig(generations=100, seed=1))
        # A stored config or HTTP body may still carry the retired
        # worker count; it loads and hashes like any operational knob.
        b = JobSpec(spec, RcgpConfig.from_dict(dict(
            generations=100, seed=1, workers=8, eval_cache_size=17,
            telemetry_path="/tmp/x.jsonl", batch_retries=9,
            track_history=True, verify_result=True)))
        assert a.job_id == b.job_id

    def test_search_relevant_fields_change_identity(self):
        spec = tuple(_xor_and_spec())
        base = JobSpec(spec, RcgpConfig(generations=100, seed=1))
        assert base.job_id != JobSpec(
            spec, RcgpConfig(generations=100, seed=2)).job_id
        assert base.job_id != JobSpec(
            spec, RcgpConfig(generations=200, seed=1)).job_id
        assert base.job_id != JobSpec(
            tuple(_decoder_spec()), RcgpConfig(generations=100,
                                               seed=1)).job_id

    def test_seed_required(self):
        with pytest.raises(ValueError):
            JobSpec(tuple(_xor_and_spec()), RcgpConfig(seed=None))

    def test_identity_config_excludes_only_operational(self):
        identity = identity_config_dict(RcgpConfig(seed=3))
        assert "seed" in identity and "generations" in identity
        assert "workers" not in identity
        assert "telemetry_path" not in identity

    def test_table1_job_id_is_pinned(self):
        """Job ids of specs below 14 inputs predate hex table payloads
        and must not change (stores are keyed by them)."""
        from repro.bench.registry import get_benchmark
        spec = tuple(get_benchmark("full_adder").spec())
        assert JobSpec(spec, RcgpConfig(seed=1)).job_id == \
            "bf9fe7fef9ceea595e605cc9"

    def test_wide_spec_payload_uses_hex_strings(self):
        from repro.bench.extras import one_hot_checker
        wide = one_hot_checker(15)
        payload = spec_tables_to_payload(wide)
        assert all(isinstance(bits, str) for bits in payload["bits"])
        assert spec_tables_from_payload(json.loads(json.dumps(payload))) \
            == wide
        assert JobSpec(tuple(wide), RcgpConfig(seed=1)).job_id
        narrow = spec_tables_to_payload(one_hot_checker(13))
        assert all(isinstance(bits, int) for bits in narrow["bits"])
        # Either form is read at any width.
        assert spec_tables_from_payload(
            {"num_vars": 2, "bits": ["0x8", 8, "8"]}) == \
            [TruthTable(2, 8)] * 3

    @pytest.mark.parametrize("bits", ["zz", "", "0x", "12g4"])
    def test_malformed_hex_table_rejected_typed(self, bits):
        with pytest.raises(ParseError):
            spec_tables_from_payload({"num_vars": 3, "bits": [bits]})


class TestJobStore:
    def test_memory_round_trip(self):
        store = JobStore(None)
        assert not store.persistent
        store.save_record("j1", {"state": PENDING})
        assert store.load_record("j1")["state"] == PENDING
        assert store.load_result("j1") is None
        assert store.telemetry_path("j1") is None

    def test_disk_round_trip_and_atomicity(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.persistent
        store.save_record("j1", {"state": RUNNING, "slices": 2})
        # no stray temp files after an atomic write
        assert os.listdir(str(tmp_path / "j1")) == ["job.json"]
        again = JobStore(str(tmp_path))
        record = again.load_record("j1")
        assert record["state"] == RUNNING and record["slices"] == 2
        assert again.jobs() == ["j1"]

    def test_checkpoint_round_trip(self, tmp_path):
        from repro.core.synthesis import initialize_netlist
        store = JobStore(str(tmp_path))
        config = RcgpConfig(generations=50, seed=9)
        netlist = initialize_netlist(_xor_and_spec())
        store.save_checkpoint("j1", netlist, 30, config)
        loaded, done, stagnation, _ = store.load_checkpoint("j1")
        assert done == 30
        assert stagnation == 0
        assert netlist_to_dict(loaded) == netlist_to_dict(netlist)
        store.save_checkpoint("j1", netlist, 40, config, stagnation=12)
        assert store.load_checkpoint("j1")[1:3] == (40, 12)
        assert store.load_checkpoint("absent") is None

    def test_checkpoint_document_is_v2_with_full_config(self, tmp_path):
        from repro.core.synthesis import initialize_netlist
        store = JobStore(str(tmp_path))
        config = RcgpConfig(generations=500, seed=9, time_budget=9.0,
                            stagnation_limit=77, verify_with_sat=False,
                            sat_conflict_budget=123, verify_result=True,
                            batch_timeout=1.5, batch_retries=7)
        netlist = initialize_netlist(_xor_and_spec())
        store.save_checkpoint("j1", netlist, 42, config, stagnation=5)
        with open(tmp_path / "j1" / "checkpoint.json") as handle:
            payload = json.load(handle)
        assert payload == {"format": "rcgp-checkpoint", "version": 2,
                           "generations_done": 42, "stagnation": 5,
                           "config": config.to_dict(),
                           "netlist": netlist_to_dict(netlist)}
        assert RcgpConfig.from_dict(payload["config"]) == config


class TestSchedulerDeterminism:
    def test_concurrent_jobs_bit_identical_to_solo(self):
        """Two interleaved jobs each equal their run-alone twins."""
        spec = _xor_and_spec()
        configs = [RcgpConfig(generations=120, seed=s) for s in (11, 12)]
        solo = {}
        for config in configs:
            with Scheduler(quantum=25) as scheduler:
                job = scheduler.submit(spec, config)
                scheduler.run()
                solo[config.seed] = _chromosome(job.result())
        with Scheduler(quantum=25) as scheduler:
            jobs = [scheduler.submit(spec, c) for c in configs]
            scheduler.run()
            for config, job in zip(configs, jobs):
                assert _chromosome(job.result()) == solo[config.seed]

    def test_single_slice_matches_monolithic_run(self):
        """quantum=None preserves the legacy single-run trajectory."""
        from repro.core.engine import EvolutionRun
        from repro.core.synthesis import initialize_netlist
        spec = _xor_and_spec()
        config = RcgpConfig(generations=100, seed=4)
        initial = initialize_netlist(spec)
        direct = EvolutionRun(spec, config, initial=initial).run()
        with Scheduler() as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
            result = job.result()
        assert netlist_to_dict(result.evolution.netlist) == \
            netlist_to_dict(direct.netlist)
        assert result.evolution.fitness.key() == direct.fitness.key()
        assert result.evolution.evaluations == direct.evaluations

    def test_job_solves_each_buffer_plan_once(self, monkeypatch):
        """An in-process job solves the baseline's plan when it starts
        (unless the process already initialized its spec) and the final
        netlist's when it ends; the live result reuses the baseline's
        instead of solving it a third time."""
        from repro.core import synthesis
        from repro.jobs import scheduler as scheduler_mod
        from repro.rqfp.buffer_opt import optimal_levels
        calls = []

        def counting(netlist):
            calls.append(netlist.num_gates)
            return optimal_levels(netlist)

        monkeypatch.setattr(synthesis, "optimal_levels", counting)
        monkeypatch.setattr(scheduler_mod, "optimal_levels", counting)
        # Earlier tests initialized this spec: start the front end cold.
        synthesis.clear_baselines()
        with Scheduler(quantum=40) as scheduler:
            job = scheduler.submit(_decoder_spec(),
                                   RcgpConfig(generations=100, seed=3))
            scheduler.run()
            result = job.result()
            assert len(calls) == 2
            # A second job on the same spec reads the memoized baseline.
            again = scheduler.submit(_decoder_spec(),
                                     RcgpConfig(generations=100, seed=4))
            scheduler.run()
            assert again.result().initial.plan.levels == \
                result.initial.plan.levels
        assert len(calls) == 3
        assert result.initial.plan.levels == \
            optimal_levels(result.initial.netlist).levels

    def test_dropped_result_is_freed_without_the_cycle_collector(self):
        """A job holds its store, not its scheduler, so nothing but the
        caller keeps a transient session's result alive: dropping it
        frees it at once instead of at the next full collection."""
        import gc
        import weakref
        from repro.api import synthesize
        gc.collect()
        gc.disable()
        try:
            result = synthesize(_decoder_spec(),
                                RcgpConfig(generations=30, seed=1))
            netlist = weakref.ref(result.netlist)
            del result
            assert netlist() is None
        finally:
            gc.enable()

    def test_session_keeps_no_result_alive(self, tmp_path):
        """Every result is rebuilt from the store, so a long-lived
        session holds none of the results it handed out."""
        import gc
        import weakref
        netlists = []
        with Session(str(tmp_path)) as session:
            for seed in range(30):
                result = session.synthesize(
                    _decoder_spec(), RcgpConfig(generations=5, seed=seed))
                netlists.append(weakref.ref(result.netlist))
                del result
            gc.collect()
            assert [ref for ref in netlists if ref() is not None] == []

    def test_step_reads_only_jobs_still_to_run(self, tmp_path,
                                               monkeypatch):
        """A finished job leaves the round-robin, so the records a job
        costs to run do not grow with the jobs run before it."""
        from repro.bench import get_benchmark
        reads = []
        load_record = JobStore.load_record

        def counting(store, job_id):
            reads.append(job_id)
            return load_record(store, job_id)

        monkeypatch.setattr(JobStore, "load_record", counting)
        spec = get_benchmark("ham3").spec()
        per_job = []
        with Session(str(tmp_path)) as session:
            for seed in range(20):
                before = len(reads)
                session.synthesize(spec, RcgpConfig(generations=5,
                                                    seed=seed))
                per_job.append(len(reads) - before)
        assert len(set(per_job)) == 1, per_job

    def test_duplicate_submission_is_same_job(self):
        spec = _xor_and_spec()
        config = RcgpConfig(generations=60, seed=2)
        with Scheduler() as scheduler:
            first = scheduler.submit(spec, config)
            second = scheduler.submit(spec, config)
            assert first is second
            scheduler.run()
            assert len(scheduler.jobs()) == 1

    def test_unseeded_submission_gets_a_recorded_seed(self):
        with Scheduler() as scheduler:
            job = scheduler.submit(_xor_and_spec(),
                                   RcgpConfig(generations=10))
            assert job.spec.config.seed is not None
            assert job.record["seed"] == job.spec.config.seed


class TestSchedulerPersistence:
    def test_kill_and_resume_identical_result(self, tmp_path):
        """A run cut off mid-flight resumes to the bit-identical end."""
        spec = _xor_and_spec()
        config = RcgpConfig(generations=120, seed=11)
        with Scheduler(quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
            uninterrupted = _chromosome(job.result())

        store = JobStore(str(tmp_path))
        with Scheduler(store, quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run(max_ticks=2)
            assert job.state == RUNNING
            assert 0 < job.generations_done < config.generations
        # simulate the process dying here: fresh store + scheduler
        with Scheduler(JobStore(str(tmp_path)), quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
            assert job.state == DONE
            assert _chromosome(job.result()) == uninterrupted

    # ``rcgp batch``'s search defaults; 400 generations in four slices.
    CRASH_CONFIG = RcgpConfig(generations=400, seed=2024, mutation_rate=0.08,
                              shrink="always")

    def _reference(self, tmp_path, spec):
        with Session(str(tmp_path / "reference"), quantum=100) as session:
            return result_fields(session.synthesize(spec, self.CRASH_CONFIG))

    def _lagging_record(self, tmp_path, spec, ticks):
        """A store as a crash leaves it right after the checkpoint of a
        job's ``ticks``-th slice became durable: ``job.json`` is one
        slice behind and no ``result.json`` exists yet."""
        store = JobStore(str(tmp_path / "crashed"))
        with Scheduler(store, quantum=100) as scheduler:
            job = scheduler.submit(spec, self.CRASH_CONFIG)
            scheduler.run(max_ticks=ticks - 1)
            lagging = store.load_record(job.id)
            scheduler.run(max_ticks=1)
        store.save_record(job.id, lagging)
        result_path = os.path.join(store.job_dir(job.id), "result.json")
        if os.path.exists(result_path):
            os.unlink(result_path)
        return job.id

    @pytest.mark.parametrize("ticks", [2, 4], ids=["mid-job", "last-slice"])
    def test_record_behind_its_checkpoint_counts_every_slice_once(
            self, tmp_path, ticks):
        """The checkpoint carries the totals of the slices it covers:
        a resume after a crash between the checkpoint and the record
        keeps the slice that record missed, and the 0-generation slice
        a finished checkpoint leads to adds nothing."""
        from repro.bench import get_benchmark
        spec = get_benchmark("graycode4").spec()
        reference = self._reference(tmp_path, spec)
        job_id = self._lagging_record(tmp_path, spec, ticks)
        with Session(str(tmp_path / "crashed"), quantum=100) as session:
            job = session.submit(spec, self.CRASH_CONFIG)
            assert job.id == job_id and job.state == RUNNING
            session.run()
            resumed = result_fields(job.result())
            assert job.record["slices"] == 4
        assert len(reference["history"]) > 2
        assert resumed == reference

    def test_torn_checkpoint_restarts_the_totals(self, tmp_path):
        """A torn checkpoint is quarantined and the job re-runs from its
        baseline with fresh totals, not merged into the old record."""
        from repro.bench import get_benchmark
        spec = get_benchmark("graycode4").spec()
        reference = self._reference(tmp_path, spec)
        store = JobStore(str(tmp_path / "torn"))
        with Scheduler(store, quantum=100) as scheduler:
            job = scheduler.submit(spec, self.CRASH_CONFIG)
            scheduler.run(max_ticks=2)
            assert job.record["slices"] == 2
            path = os.path.join(store.job_dir(job.id), "checkpoint.json")
            with open(path, "wb") as handle:
                handle.write(b'{"netlist": [[')
            scheduler.run()
            assert job.state == DONE
            assert store.quarantined_artifacts()
            assert job.record["slices"] == 4
            assert result_fields(job.result()) == reference

    def test_finished_job_served_without_rerun(self, tmp_path):
        spec = _xor_and_spec()
        config = RcgpConfig(generations=80, seed=5)
        with Scheduler(JobStore(str(tmp_path))) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
            first = _chromosome(job.result())
            evaluations = job.record["evaluations"]

        with Scheduler(JobStore(str(tmp_path))) as scheduler:
            job = scheduler.submit(spec, config)
            assert job.state == DONE and job.from_store
            scheduler.run()  # nothing to do
            served = job.result()
            assert _chromosome(served) == first
            # the record still shows only the original run's work
            assert job.record["evaluations"] == evaluations
        assert served.verify()
        assert served.cost.n_r == served.evolution.fitness.n_r

    def test_served_result_reconstructs_full_synthesis_result(
            self, tmp_path):
        """The result a session returns is the one a fresh scheduler
        serves from the same store, whole and at any quantum, also
        after a kill and resume."""
        spec = _decoder_spec()
        config = RcgpConfig(generations=150, seed=3, mutation_rate=0.08,
                            max_mutated_genes=8, shrink="always")
        runs = {}
        for label, quantum, kill in (("whole", None, False),
                                     ("q25", 25, False),
                                     ("killed", 25, True)):
            store = str(tmp_path / label)
            if kill:
                with Scheduler(JobStore(store), quantum=quantum) as killed:
                    job = killed.submit(spec, config)
                    killed.run(max_ticks=2)
                    assert job.state == RUNNING
            with Session(store, quantum=quantum) as session:
                live = session.synthesize(spec, config)
            with Scheduler(JobStore(store)) as scheduler:
                job = scheduler.submit(spec, config)
                assert job.from_store
                served = job.result()
            assert isinstance(served, SynthesisResult)
            assert result_fields(served) == result_fields(live), label
            assert served.cost.as_row() == live.cost.as_row()
            assert served.evolution.generations == 150
            assert [t.bits for t in served.spec] == [t.bits for t in spec]
            runs[label] = result_fields(served)
        assert len(runs["whole"]["history"]) > 1
        assert runs["killed"] == runs["q25"]
        # Slicing changes no improvement: only boundary evaluations.
        assert runs["q25"]["history"] == runs["whole"]["history"]
        assert runs["q25"]["netlist"] == runs["whole"]["netlist"]

    def test_result_from_an_artifact_without_plans_or_history(self):
        """Artifacts written before plans, history and the interrupt
        flag were stored still load: plans solved again, history empty."""
        from repro.jobs import result_from_payload
        config = RcgpConfig(generations=60, seed=3)
        with Scheduler() as scheduler:
            job = scheduler.submit(_decoder_spec(), config)
            scheduler.run()
            payload = json.loads(json.dumps(
                scheduler.store.load_result(job.id)))
        current = result_from_payload(payload)
        for key in ("history", "interrupted"):
            payload.pop(key, None)
        for netlist in (payload["netlist"], payload["baseline"]["netlist"]):
            netlist.pop("buffer_plan", None)
        old = result_from_payload(payload)
        for plan in ("plan", "initial.plan", "cost", "initial.cost",
                     "netlist"):
            assert result_fields(old)[plan] == result_fields(current)[plan]
        assert old.evolution.history == []
        assert old.evolution.interrupted is False

    def test_tampered_stored_plan_raises_store_corruption(self):
        from repro.jobs import result_from_payload
        with Scheduler() as scheduler:
            job = scheduler.submit(_decoder_spec(),
                                   RcgpConfig(generations=60, seed=3))
            scheduler.run()
            stored = json.dumps(scheduler.store.load_result(job.id))
        tampers = {
            "num_buffers": lambda plan: plan.update(
                num_buffers=plan["num_buffers"] + 1),
            "depth": lambda plan: plan.update(depth=plan["depth"] + 1),
            "level count": lambda plan: plan["levels"].append(1),
            "levels": lambda plan: plan.update(
                levels=[level + 1 for level in plan["levels"]]),
        }
        for what, tamper in tampers.items():
            for side in ("netlist", "baseline"):
                payload = json.loads(stored)
                netlist = payload[side] if side == "netlist" \
                    else payload[side]["netlist"]
                tamper(netlist["buffer_plan"])
                with pytest.raises(StoreCorruption):
                    result_from_payload(payload)
                    pytest.fail(f"tampered {side} {what} was accepted")

    def test_telemetry_is_job_stamped_and_continuous(self, tmp_path):
        spec = _xor_and_spec()
        config = RcgpConfig(generations=100, seed=7)
        store = JobStore(str(tmp_path))
        with Scheduler(store, quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run(max_ticks=2)
        with Scheduler(JobStore(str(tmp_path)), quantum=25) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
        events = [json.loads(line) for line in
                  open(store.telemetry_path(job.id))]
        assert all(e["job_id"] == job.id for e in events)
        tags = [e["event"] for e in events]
        assert tags[0] == "job_start"
        assert "job_resume" in tags   # the second process appended
        assert "job_slice" in tags and "job_end" in tags
        assert "run_end" in tags      # engine events share the stream

    def test_failed_job_reports_and_other_jobs_continue(
            self, monkeypatch, tmp_path):
        import repro.jobs.scheduler as scheduler_module
        from repro.errors import SynthesisError

        spec = _xor_and_spec()
        good = RcgpConfig(generations=40, seed=1)
        bad = RcgpConfig(generations=40, seed=1000)
        real_run = scheduler_module.EvolutionRun

        class Boom(real_run):
            def run(self):
                if self.config.seed >= 1000:   # only the bad job's slices
                    raise SynthesisError("injected failure")
                return super().run()

        monkeypatch.setattr(scheduler_module, "EvolutionRun", Boom)
        with Scheduler(JobStore(str(tmp_path)), quantum=20) as scheduler:
            bad_job = scheduler.submit(spec, bad)
            good_job = scheduler.submit(spec, good)
            scheduler.run()
            assert bad_job.state == FAILED
            assert "injected failure" in bad_job.record["error"]
            assert good_job.state == DONE
            with pytest.raises(Exception, match="failed"):
                bad_job.result()
            assert good_job.result().verify()

    def test_failed_job_resubmitted_to_the_same_scheduler_resumes(
            self, monkeypatch):
        import repro.jobs.scheduler as scheduler_module
        from repro.bench import get_benchmark
        from repro.errors import ReproError

        spec = get_benchmark("ham3").spec()
        config = RcgpConfig(generations=50, seed=1)
        with Scheduler(quantum=20) as scheduler:
            clean = scheduler.submit(spec, config)
            scheduler.run()
            expected = clean.result()

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
        with Scheduler(quantum=20) as scheduler:
            job = scheduler.submit(spec, config)
            scheduler.run()
            assert job.state == FAILED and failures == [20]
            again = scheduler.submit(spec, config)
            assert again is job
            assert job.state == RUNNING    # reopened at its checkpoint
            assert job.generations_done == 20
            scheduler.run()
            assert job.state == DONE
            result = job.result()
        assert _chromosome(result) == _chromosome(expected)
        assert result.evolution.fitness.key() == \
            expected.evolution.fitness.key()
        assert result.verify()


class TestSharedWorkerPool:
    def test_pooled_jobs_bit_identical_to_inline(self):
        # Four jobs (two circuits, two seeds) through one two-worker
        # scheduler equal their inline runs at the same quantum, every
        # counter but the transport's included.  A slice keeps one span
        # in flight, so one worker process serves all four.
        runs = [(spec, RcgpConfig(generations=80, seed=seed, offspring=8))
                for spec in (_decoder_spec(), _xor_and_spec())
                for seed in (7, 8)]
        inline = []
        for spec, config in runs:
            with Scheduler(quantum=40) as scheduler:
                job = scheduler.submit(spec, config)
                scheduler.run()
                inline.append(job.result())
        before = {p.pid for p in multiprocessing.active_children()}
        with Scheduler(workers=2, quantum=40) as scheduler:
            jobs = [scheduler.submit(spec, config) for spec, config in runs]
            scheduler.run()
            started = {p.pid for p in multiprocessing.active_children()}
            pooled = [job.result() for job in jobs]
        assert len(started - before) == 1
        for got, twin in zip(pooled, inline):
            assert got.evolution.backend == "shared-pool"
            assert _chromosome(got) == _chromosome(twin)
            got, twin = got.evolution, twin.evolution
            assert got.fitness.key() == twin.fitness.key()
            assert got.history and [(g, f.key()) for g, f in got.history] \
                == [(g, f.key()) for g, f in twin.history]
            assert got.generations == twin.generations
            for field in COUNTER_FIELDS:
                if field not in ("bytes_shipped", "chunks_dispatched",
                                 "pipeline_stalls"):
                    assert getattr(got, field) == getattr(twin, field), \
                        field

    def test_slice_after_exhausted_retries_uses_workers_again(
            self, tmp_path, monkeypatch):
        # Degradation is slice-local: a slice whose local pool runs out
        # of retries finishes inline, and the next slice is served by
        # (respawned) workers again — still bit-identical to inline.
        spec = _decoder_spec()
        config = RcgpConfig(generations=80, seed=7, offspring=4,
                            batch_retries=0)
        with Scheduler(quantum=40) as scheduler:
            twin = scheduler.submit(spec, config)
            scheduler.run()
            twin = twin.result()
        store = JobStore(str(tmp_path))
        with Scheduler(store, workers=2, quantum=40) as scheduler:
            job = scheduler.submit(spec, config)
            monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "1")
            assert scheduler.step() is job
            monkeypatch.delenv("RCGP_TEST_CRASH_AFTER_EVALS")
            scheduler.run()
            pooled = job.result()
        ends = [json.loads(line) for line in
                store.read_telemetry(job.id).decode().splitlines()
                if '"run_end"' in line]
        assert len(ends) == 2
        assert ends[0]["degraded_to_inline"] is True
        assert ends[1]["degraded_to_inline"] is False
        assert ends[1]["chunks_dispatched"] > 0
        assert _chromosome(pooled) == _chromosome(twin)
        assert pooled.evolution.evaluations == twin.evolution.evaluations

    def test_interrupted_slice_releases_its_span(self, tmp_path,
                                                 monkeypatch):
        # A KeyboardInterrupt lands while job A's slice has a span in
        # flight on the shared pool.  The slice's handle owns that span
        # and is closed with the slice, so job B — next on the same
        # dispatcher — never reads A's late reply as its own.
        from repro.core.engine import COUNTER_FIELDS, TelemetryWriter
        from repro.jobs.pool import JobBackend
        spec = _decoder_spec()
        config_a = RcgpConfig(generations=400, seed=7,
                              telemetry_path=str(tmp_path / "a.jsonl"))
        config_b = RcgpConfig(generations=120, seed=8)
        with Scheduler() as scheduler:
            twin = scheduler.submit(spec, config_b)
            scheduler.run()
            twin = twin.result().evolution

        live = {"span": False}
        fired = []
        dispatch, collect = JobBackend.dispatch_span, JobBackend.collect_span
        emit = TelemetryWriter.emit

        def tracking_dispatch(self, request):
            live["span"] = dispatch(self, request)
            return live["span"]

        def tracking_collect(self):
            live["span"] = False
            return collect(self)

        def interrupting_emit(self, event, **fields):
            emit(self, event, **fields)
            if event == "generation" and live["span"] and not fired \
                    and fields["generation"] > 20:
                fired.append(fields["generation"])
                raise KeyboardInterrupt

        monkeypatch.setattr(JobBackend, "dispatch_span", tracking_dispatch)
        monkeypatch.setattr(JobBackend, "collect_span", tracking_collect)
        monkeypatch.setattr(TelemetryWriter, "emit", interrupting_emit)
        with Scheduler(workers=2) as scheduler:
            job_a = scheduler.submit(spec, config_a)
            scheduler.run()
            interrupted = job_a.result().evolution
            job_b = scheduler.submit(spec, config_b)
            scheduler.run()
            pooled = job_b.result().evolution
        assert fired, "the interrupt never landed mid-span"
        assert interrupted.interrupted
        assert interrupted.generations < config_a.generations
        assert pooled.backend == "shared-pool"
        assert pooled.chunks_dispatched > 0
        assert not pooled.degraded_to_inline
        assert pooled.netlist.describe() == twin.netlist.describe()
        assert pooled.fitness.key() == twin.fitness.key()
        assert pooled.generations == twin.generations
        for field in COUNTER_FIELDS:
            if field not in ("bytes_shipped", "chunks_dispatched",
                             "pipeline_stalls"):
                assert getattr(pooled, field) == getattr(twin, field), field

    def test_parallel_safe_config(self):
        safe = RcgpConfig(seed=1)
        assert parallel_safe_config(3, safe)                 # exhaustive
        sampled = RcgpConfig(seed=1, exhaustive_input_limit=2,
                             verify_with_sat=False)
        assert parallel_safe_config(3, sampled)              # seeded
        sat = RcgpConfig(seed=1, exhaustive_input_limit=2,
                         verify_with_sat=True)
        assert not parallel_safe_config(3, sat)              # SAT feedback


class TestMultiStartClient:
    def test_multi_start_keys_and_duplicates(self):
        spec = _xor_and_spec()
        config = RcgpConfig(generations=60)
        best, keys = multi_start(spec, [1, 2, 2], config, name="ms")
        assert len(keys) == 3
        assert keys[1] == keys[2]          # duplicate seed, one job
        best_key = max(keys)
        assert best is not None and best_key in keys

    def test_multi_start_resumable_via_store(self, tmp_path):
        spec = _xor_and_spec()
        config = RcgpConfig(generations=60)
        store = JobStore(str(tmp_path))
        best1, keys1 = multi_start(spec, [4, 5], config,
                                   store=store)
        best2, keys2 = multi_start(spec, [4, 5], config,
                                   store=JobStore(str(tmp_path)))
        assert keys1 == keys2
        assert netlist_to_dict(best1) == netlist_to_dict(best2)


class TestCrashSafeWrites:
    """Durable atomic writes + typed corruption + the recovery sweep."""

    def test_fault_hook_sees_every_write_step(self, tmp_path):
        seen = []
        previous = set_fault_hook(
            lambda point, path: seen.append(
                (point, os.path.basename(path))))
        try:
            JobStore(str(tmp_path)).save_record("j1", {"state": PENDING})
        finally:
            set_fault_hook(previous)
        assert seen == [("write", "job.json"), ("replace", "job.json"),
                        ("synced", "job.json")]

    def test_crash_before_replace_preserves_previous_state(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save_record("j1", {"state": PENDING, "slices": 1})

        def _boom(point, path):
            if point == "replace":
                raise RuntimeError("injected crash")

        previous = set_fault_hook(_boom)
        try:
            with pytest.raises(RuntimeError):
                store.save_record("j1", {"state": RUNNING, "slices": 2})
        finally:
            set_fault_hook(previous)
        # Old artifact intact, and the in-flight tmp file cleaned up.
        record = store.load_record("j1")
        assert record["state"] == PENDING and record["slices"] == 1
        assert os.listdir(str(tmp_path / "j1")) == ["job.json"]

    def test_open_sweep_keeps_a_live_writers_temp_file(self, tmp_path):
        """A store opened while another writer's tmp file sits between
        its write and its rename leaves the file alone; a file whose
        writer cannot be probed (another host) goes once it is older
        than the lease TTL."""
        store = JobStore(str(tmp_path))
        opened = []

        def open_another_store(point, path):
            if point == "replace":
                opened.append(JobStore(str(tmp_path)))

        previous = set_fault_hook(open_another_store)
        try:
            store.save_record("j1", {"state": RUNNING})
        finally:
            set_fault_hook(previous)
        assert opened and opened[0].recovered_tmp_files == 0
        assert store.load_record("j1")["state"] == RUNNING
        assert os.listdir(str(tmp_path / "j1")) == ["job.json"]

        foreign = tmp_path / "j1" / ".job.json.tmp.other-host.1.0"
        foreign.write_bytes(b"partial")
        JobStore(str(tmp_path))
        assert foreign.exists()
        ancient = time.time() - 10 * DEFAULT_LEASE_TTL
        os.utime(str(foreign), (ancient, ancient))
        JobStore(str(tmp_path))
        assert not foreign.exists()

    def test_torn_artifact_raises_typed_corruption(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save_record("j1", {"state": DONE})
        path = tmp_path / "j1" / "job.json"
        path.write_bytes(b'{"state": "do')   # torn mid-write
        with pytest.raises(StoreCorruption) as err:
            store.load_record("j1")
        assert err.value.path == str(path)
        assert "job.json" in str(err.value)

    def test_open_sweep_quarantines_and_cleans(self, tmp_path):
        import socket
        import subprocess
        import sys as _sys
        writer = subprocess.Popen([_sys.executable, "-c", "pass"])
        writer.wait()   # the tmp file's writer is gone
        job_dir = tmp_path / "j1"
        job_dir.mkdir()
        (job_dir / "job.json").write_text(
            json.dumps({"state": RUNNING, "slices": 1}))
        (job_dir / "checkpoint.json").write_bytes(b'{"netlist": [[')
        (job_dir / f".job.json.tmp.{socket.gethostname()}.{writer.pid}.7"
         ).write_bytes(b"partial")
        (job_dir / "telemetry.jsonl").write_bytes(
            b'{"event": "job_start", "job_id": "j1"}\n{"event": "job_sl')

        store = JobStore(str(tmp_path))
        names = sorted(os.listdir(str(job_dir)))
        assert "job.json" in names                      # intact: kept
        assert "checkpoint.json" not in names           # torn: aside
        assert any(".corrupt-" in name for name in names)
        assert not any(".tmp." in name for name in names)
        assert store.quarantined and store.quarantined_artifacts()
        assert store.load_checkpoint("j1") is None      # torn -> rerun

        # The repaired stream is valid JSONL ending in the marker.
        events = [json.loads(line) for line in
                  (job_dir / "telemetry.jsonl").read_bytes().splitlines()]
        assert events[0]["event"] == "job_start"
        assert events[-1]["event"] == TELEMETRY_TRUNCATED
        assert events[-1]["dropped_bytes"] > 0

    def test_read_telemetry_tolerates_live_torn_tail(self, tmp_path):
        store = JobStore(str(tmp_path))
        path = store.telemetry_path("j1")
        raw = b'{"event": "job_start", "job_id": "j1"}\n{"event": "tor'
        with open(path, "wb") as handle:
            handle.write(raw)
        events = [json.loads(line) for line in
                  store.read_telemetry("j1").splitlines()]
        assert [e["event"] for e in events] == \
            ["job_start", TELEMETRY_TRUNCATED]
        # Non-destructive: the file still holds the in-flight bytes.
        with open(path, "rb") as handle:
            assert handle.read() == raw


class TestLeases:
    """Per-job leases: exclusivity, heartbeat, stale takeover."""

    def _two_stores(self, tmp_path):
        return (JobStore(str(tmp_path), owner="owner-a"),
                JobStore(str(tmp_path), owner="owner-b"))

    def test_exclusive_acquire_release(self, tmp_path):
        a, b = self._two_stores(tmp_path)
        assert a.acquire_lease("j1")
        assert a.acquire_lease("j1")           # re-entrant for the owner
        assert not b.acquire_lease("j1")
        assert a.held_leases() == ["j1"]
        info = b.lease_info("j1")
        assert info["owner"] == "owner-a" and info["live"]
        a.release_lease("j1")
        assert b.acquire_lease("j1")
        assert b.lease_info("j1")["owner"] == "owner-b"

    def test_required_acquire_raises_lease_held(self, tmp_path):
        a, b = self._two_stores(tmp_path)
        assert a.acquire_lease("j1")
        with pytest.raises(LeaseHeld) as err:
            b.acquire_lease("j1", required=True)
        assert err.value.owner == "owner-a"
        assert err.value.http_status == 409

    def test_stale_heartbeat_is_taken_over(self, tmp_path):
        a, b = self._two_stores(tmp_path)
        assert a.acquire_lease("j1")
        lease_path = os.path.join(str(tmp_path), "j1", "lease.json")
        ancient = time.time() - 10 * DEFAULT_LEASE_TTL
        os.utime(lease_path, (ancient, ancient))
        assert b.acquire_lease("j1")
        assert b.lease_takeovers == 1
        assert b.lease_info("j1")["owner"] == "owner-b"
        # The previous owner notices on its next heartbeat and backs off.
        assert not a.refresh_lease("j1")
        assert a.held_leases() == []

    def test_dead_pid_is_taken_over_before_ttl(self, tmp_path):
        import socket
        import subprocess
        import sys as _sys
        child = subprocess.Popen([_sys.executable, "-c", "pass"])
        child.wait()
        b = JobStore(str(tmp_path), owner="owner-b")
        job_dir = tmp_path / "j1"
        job_dir.mkdir()
        (job_dir / "lease.json").write_text(json.dumps(
            {"owner": "ghost", "pid": child.pid,
             "host": socket.gethostname(), "acquired_at": time.time()}))
        assert b.acquire_lease("j1")           # fresh mtime, dead pid
        assert b.lease_takeovers == 1

    def test_torn_lease_file_is_cleared_and_reacquired(self, tmp_path):
        b = JobStore(str(tmp_path), owner="owner-b")
        job_dir = tmp_path / "j1"
        job_dir.mkdir()
        (job_dir / "lease.json").write_bytes(b'{"owner": "gh')
        assert b.lease_info("j1")["live"] is False
        assert b.acquire_lease("j1")
        assert b.lease_info("j1")["owner"] == "owner-b"

    def test_lease_taken_mid_creation_has_one_owner(self, tmp_path,
                                                    monkeypatch):
        """A second store acquires while the first is writing its lease
        JSON: it must not mistake the half-written lease for a torn one.
        Exactly one store wins, and the lease file names it."""
        from repro.jobs import store as store_module
        a, b = self._two_stores(tmp_path)
        real_json = store_module.json
        won, entered = {}, []

        class InterleavingJson:
            def __getattr__(self, name):
                return getattr(real_json, name)

            def dump(self, obj, handle, *args, **kwargs):
                if not entered:
                    entered.append(True)
                    won["owner-b"] = b.acquire_lease("j1")
                return real_json.dump(obj, handle, *args, **kwargs)

        monkeypatch.setattr(store_module, "json", InterleavingJson())
        won["owner-a"] = a.acquire_lease("j1")
        monkeypatch.undo()
        assert entered
        assert sorted(won.values()) == [False, True]
        winner = next(owner for owner, held in won.items() if held)
        assert a.lease_info("j1")["owner"] == winner
        assert os.listdir(tmp_path / "j1") == ["lease.json"]

    def test_scheduler_skips_foreign_lease(self, tmp_path):
        config = RcgpConfig(generations=60, seed=3)
        foreign = JobStore(str(tmp_path), owner="foreign")
        with Scheduler(JobStore(str(tmp_path), owner="mine"),
                       quantum=30) as scheduler:
            blocked = scheduler.submit(_xor_and_spec(), config)
            free = scheduler.submit(_decoder_spec(), config)
            assert foreign.acquire_lease(blocked.id)
            scheduler.run(max_ticks=10)
            assert free.state == DONE
            assert blocked.state != DONE
            foreign.release_lease(blocked.id)
            scheduler.run()
            assert blocked.state == DONE
            # Leases released with the jobs: nothing held after close.
        assert foreign.acquire_lease(blocked.id)

    def test_job_finished_elsewhere_after_pending_is_not_rerun(
            self, tmp_path, monkeypatch):
        """The window between ``pending()`` and the lease: another
        scheduler finishes the job and releases its lease.  Taking the
        free lease must not re-drive (re-finalize) the finished job."""
        config = RcgpConfig(generations=60, seed=3)
        a = Scheduler(JobStore(str(tmp_path), owner="sched-a"), quantum=30)
        b = Scheduler(JobStore(str(tmp_path), owner="sched-b"), quantum=30)
        job_a = a.submit(_xor_and_spec(), config)
        job_b = b.submit(_xor_and_spec(), config)
        stale = b.pending()
        assert [job.id for job in stale] == [job_a.id]
        a.run()
        result = a.store.load_result(job_a.id)
        monkeypatch.setattr(b, "pending", lambda: stale)
        assert b.step() is None
        assert job_b.state == DONE
        assert b.store.load_result(job_a.id) == result
        owners = {json.loads(line).get("owner") for line in
                  a.store.read_telemetry(job_a.id).splitlines()}
        assert owners - {None} == {"sched-a"}
        a.close()
        b.close()

    def test_two_schedulers_split_queue_single_owner_each(self, tmp_path):
        import threading
        config = RcgpConfig(generations=300, seed=5)
        specs = [_xor_and_spec(), _decoder_spec(),
                 [TruthTable.from_function(lambda a, b: a | b, 2)]]
        stores = [JobStore(str(tmp_path), owner=f"sched-{i}")
                  for i in range(2)]
        schedulers = [Scheduler(store, quantum=25) for store in stores]
        for scheduler in schedulers:
            for spec in specs:
                scheduler.submit(spec, config)
        threads = [threading.Thread(target=scheduler.run)
                   for scheduler in schedulers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        try:
            reader = JobStore(str(tmp_path), owner="reader")
            for job_id in reader.jobs():
                assert reader.load_record(job_id)["state"] == DONE
                owners = {json.loads(line)["owner"]
                          for line in
                          reader.read_telemetry(job_id).splitlines()
                          if json.loads(line).get("event") in
                          ("job_start", "job_resume", "job_slice")}
                assert len(owners) == 1, \
                    f"job {job_id} driven by {sorted(owners)}"
        finally:
            for scheduler in schedulers:
                scheduler.close()


class TestSigkillSweep:
    """A sampled end-to-end SIGKILL sweep (the full sweep runs in CI
    via ``tools/fault_store.py``): kill a child batch at interposed
    store write points, restart, require bit-identical recovery."""

    def test_sampled_kill_points_recover_bit_identically(self, tmp_path):
        import importlib.util
        tool = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "fault_store.py")
        spec = importlib.util.spec_from_file_location("fault_store", tool)
        fault_store = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fault_store)
        exercised = fault_store.kill_sweep(
            ["decoder_2_4"], generations=40, quantum=20, seed=0,
            sample=9, workdir=str(tmp_path), verbose=False)
        assert exercised >= 2
