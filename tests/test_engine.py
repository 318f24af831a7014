"""Unit tests for the evolution engine (run API, backends, telemetry).

The engine's headline guarantee is **determinism across backends**:
for a fixed seed, an in-process run and a run whose spans replay on
pool workers (``tests/pooled.py``) must produce bit-identical results —
same fitness key, same chromosome, same evaluation count.
"""

import io
import json
import os

import pytest

from repro.api import Session
from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import (
    EvolutionRun,
    TelemetryWriter,
    child_seed,
    decode_genome,
    encode_genome,
    read_telemetry,
)
from repro.core.fitness import Fitness
from repro.jobs.pool import parallel_safe_config
from repro.core.restart import multi_start
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import TruthTable, tabulate_word
from tests.pooled import pooled_run
from tests.reference_loop import engine_signature, textbook_run


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _xor_spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2)]


class TestGenomeCodec:
    def test_round_trip_preserves_structure_and_function(self):
        spec = _decoder_spec()
        netlist = initialize_netlist(spec, "decoder")
        genome = encode_genome(netlist)
        assert isinstance(genome, tuple)
        assert all(isinstance(v, int) for v in genome)
        back = decode_genome(genome)
        assert back.describe() == netlist.describe()
        assert back.to_truth_tables() == netlist.to_truth_tables()

    def test_genome_is_hashable_cache_key(self):
        netlist = initialize_netlist(_xor_spec())
        assert hash(encode_genome(netlist)) == hash(encode_genome(netlist))

    def test_child_seed_deterministic_and_spread(self):
        a = child_seed(7, 3, 0)
        assert a == child_seed(7, 3, 0)
        neighbours = {child_seed(7, 3, 1), child_seed(7, 4, 0),
                      child_seed(8, 3, 0)}
        assert a not in neighbours and len(neighbours) == 3


class TestConfigSerialization:
    def test_to_dict_covers_every_field(self):
        import dataclasses
        config = RcgpConfig()
        data = config.to_dict()
        assert set(data) == {f.name for f in dataclasses.fields(RcgpConfig)}

    def test_round_trip_preserves_every_field(self):
        config = RcgpConfig(
            generations=123, offspring=7, mutation_rate=0.25,
            max_mutated_genes=3, seed=42, shrink="never",
            exhaustive_input_limit=9, simulation_patterns=64,
            verify_with_sat=False,
            sat_conflict_budget=777, stagnation_limit=55,
            time_budget=1.5, simplify_wires=False,
            eval_cache_size=10, telemetry_path="/tmp/t.jsonl",
            enable_output_mutation=False)
        assert RcgpConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        # Unknown keys: a newer version's knobs, and retired ones that
        # stored records, checkpoints and HTTP bodies may still carry.
        config = RcgpConfig.from_dict({"generations": 5,
                                       "future_knob": "ignored",
                                       "kernel": "object",
                                       "incremental_eval": False,
                                       "track_history": True,
                                       "verify_method": "bdd",
                                       "count_buffers_in_fitness": False,
                                       "workers": 8})
        assert config == RcgpConfig(generations=5)

    def test_invalid_new_fields_rejected(self):
        with pytest.raises(TypeError):
            RcgpConfig(workers=2)  # worker counts belong to a Session
        with pytest.raises(ValueError):
            RcgpConfig(eval_cache_size=-1)


class TestFitnessTotalOrder:
    def test_equality_follows_key(self):
        # Distinct non-functional fitnesses with equal keys are equal.
        assert Fitness(0.5, 3, 0, 0) == Fitness(0.5, 7, 1, 2)
        assert Fitness(1.0, 3, 2, 1) == Fitness(1.0, 3, 2, 1)
        assert Fitness(1.0, 3, 2, 1) != Fitness(1.0, 4, 2, 1)

    def test_order_is_total_and_consistent(self):
        a, b = Fitness(1.0, 3, 2, 1), Fitness(1.0, 3, 2, 1)
        assert a >= b and a <= b and a == b
        assert not a > b and not a < b
        worse = Fitness(1.0, 4, 0, 0)
        assert worse < a and worse <= a and a > worse and a >= worse

    def test_hash_consistent_with_equality(self):
        assert hash(Fitness(0.5, 3, 0, 0)) == hash(Fitness(0.5, 9, 9, 9))
        assert len({Fitness(1.0, 2, 1, 0), Fitness(1.0, 2, 1, 0)}) == 1

    def test_sorting_matches_key_order(self):
        items = [Fitness(1.0, 5, 0, 0), Fitness(0.5), Fitness(1.0, 2, 0, 0)]
        assert sorted(items) == sorted(items, key=lambda f: f.key())

    def test_non_fitness_comparison(self):
        assert Fitness(1.0) != object()
        with pytest.raises(TypeError):
            Fitness(1.0) < 3


class TestDeterminismAcrossWorkers:
    """Same seed + spec must be bit-identical in-process, in a
    one-worker session (which evaluates inline) and on a four-worker
    dispatcher."""

    def _config(self, **overrides):
        kwargs = dict(generations=50, mutation_rate=0.1, seed=11,
                      offspring=4, shrink="always")
        kwargs.update(overrides)
        return RcgpConfig(**kwargs)

    def _run(self, workers, **overrides):
        spec = _decoder_spec()
        initial = initialize_netlist(spec, "decoder")
        config = self._config(**overrides)
        if workers == 0:
            return EvolutionRun(spec, config, initial=initial).run()
        if workers == 1:
            with Session(workers=1) as session:
                return session.synthesize(spec, config,
                                          initial=initial).evolution
        return pooled_run(spec, config, local_workers=workers,
                          initial=initial)[0]

    def test_serial_and_parallel_bit_identical(self):
        serial = self._run(workers=0)
        one = self._run(workers=1)
        pooled = self._run(workers=4)
        assert serial.backend == "inline"
        assert one.backend == "inline"
        assert pooled.backend == "shared-pool"
        assert serial.fitness.key() == one.fitness.key() == \
            pooled.fitness.key()
        assert serial.netlist.describe() == one.netlist.describe() == \
            pooled.netlist.describe()
        assert serial.evaluations == one.evaluations == pooled.evaluations
        assert serial.cache_hits == one.cache_hits == pooled.cache_hits

    def test_unsafe_parallel_falls_back_to_inline(self):
        # Sampled simulation with SAT feedback mutates the evaluator, so
        # a session with workers must keep the job's slices in-process.
        config = self._config(exhaustive_input_limit=1,
                              simulation_patterns=16, generations=5)
        with Session(workers=4) as session:
            result = session.synthesize(_decoder_spec(), config)
        assert result.evolution.backend == "inline"

    def test_parallel_safe_predicate(self):
        num_inputs = _decoder_spec()[0].num_vars
        exhaustive = RcgpConfig(seed=1)
        assert parallel_safe_config(num_inputs, exhaustive)
        sampled_sat = RcgpConfig(seed=1, exhaustive_input_limit=1,
                                 simulation_patterns=8)
        assert not parallel_safe_config(num_inputs, sampled_sat)
        sampled_pure = RcgpConfig(seed=1, exhaustive_input_limit=1,
                                  simulation_patterns=8,
                                  verify_with_sat=False)
        assert parallel_safe_config(num_inputs, sampled_pure)
        unseeded = RcgpConfig(exhaustive_input_limit=1,
                              simulation_patterns=8, verify_with_sat=False)
        assert not parallel_safe_config(num_inputs, unseeded)


_PAPER = {}
_TUNED = dict(mutation_rate=0.08, max_mutated_genes=8)


class TestReferenceLoop:
    """The engine against the textbook loop of ``tests/reference_loop.py``
    — inline and pooled, at paper defaults and tuned, in both shrink
    modes that act on accepted parents."""

    @pytest.mark.parametrize("shrink", ["on_improvement", "always"])
    @pytest.mark.parametrize("mutation", [_PAPER, _TUNED],
                             ids=["paper", "tuned"])
    @pytest.mark.parametrize("name", ["decoder_2_4", "ham3", "intdiv5"])
    def test_engine_matches_textbook_loop(self, name, mutation, shrink):
        spec = get_benchmark(name).spec()
        initial = initialize_netlist(spec, name)
        config = RcgpConfig(generations=600, seed=1, shrink=shrink,
                            **mutation)
        reference = textbook_run(spec, config, initial)
        inline = EvolutionRun(spec, config, initial=initial,
                              name=name).run()
        pooled, _ = pooled_run(spec, config, initial=initial, name=name)
        assert inline.backend == "inline"
        assert engine_signature(inline) == reference
        assert pooled.backend == "shared-pool"
        assert engine_signature(pooled) == reference


class TestTelemetryAcrossWorkers:
    @pytest.mark.parametrize("mutation", [_PAPER, _TUNED],
                             ids=["paper", "tuned"])
    @pytest.mark.parametrize("name", ["ham3", "intdiv5"])
    def test_generation_events_match_inline(self, name, mutation,
                                            monkeypatch):
        """Inline and pooled runs narrate the same ``generation``
        events, and both equal a run of one-generation spans
        (``RCGP_CHECK_INCREMENTAL=1``), whose counters are read live
        after every generation; only the wall clock differs."""
        spec = get_benchmark(name).spec()
        initial = initialize_netlist(spec, name)
        streams = []
        config = RcgpConfig(generations=300, seed=2, **mutation)
        for pooled, check in ((False, ""), (True, ""), (False, "1")):
            monkeypatch.setenv("RCGP_CHECK_INCREMENTAL", check)
            handle = io.StringIO()
            options = dict(initial=initial, name=name,
                           telemetry=TelemetryWriter(handle))
            if pooled:
                pooled_run(spec, config, **options)
            else:
                EvolutionRun(spec, config, **options).run()
            events = [json.loads(line)
                      for line in handle.getvalue().splitlines()]
            generations = [event for event in events
                           if event["event"] == "generation"]
            for event in generations:
                del event["wall_time"]
            streams.append(generations)
        assert len(streams[0]) == 300
        assert streams[0] == streams[1] == streams[2]

    def test_inline_sat_run_counts_per_generation(self):
        """Sampled fitness with SAT feedback stays in-process; its
        ``generation`` events carry each generation's own
        ``evaluations`` and ``sat_calls``, as the textbook loop counts
        them after every generation."""
        spec = get_benchmark("ham3").spec()
        initial = initialize_netlist(spec, "ham3")
        config = RcgpConfig(generations=300, seed=3, exhaustive_input_limit=1,
                            simulation_patterns=8, mutation_rate=0.08,
                            max_mutated_genes=8)
        trace = []
        textbook_run(spec, config, initial, trace)
        handle = io.StringIO()
        result = EvolutionRun(spec, config, initial=initial,
                              telemetry=TelemetryWriter(handle)).run()
        assert result.backend == "inline"
        events = [json.loads(line) for line in handle.getvalue().splitlines()]
        counts = [(event["evaluations"], event["sat_calls"])
                  for event in events if event["event"] == "generation"]
        assert counts == trace
        assert trace[0][1] < trace[-1][1]


class TestCacheAccounting:
    def test_duplicate_mutants_are_each_evaluated(self):
        # The memo cache is retired: duplicate mutants (plentiful with
        # one mutated gene on a tiny netlist) are evaluated like any
        # other offspring, and cache_hits always reads 0.
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=200, offspring=8, seed=3,
                            max_mutated_genes=1, mutation_rate=1.0)
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.cache_hits == 0
        # Every offspring is an evaluation; the few extra evaluations
        # are the parent/finalize checks.
        offspring_total = result.generations * config.offspring
        assert result.evaluations >= offspring_total

    def test_cache_disabled_reports_zero_hits(self):
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=100, offspring=8, seed=3,
                            max_mutated_genes=1, mutation_rate=1.0,
                            eval_cache_size=0)
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.cache_hits == 0

    def test_cache_does_not_change_results(self):
        spec = _decoder_spec()
        initial = initialize_netlist(spec)
        base = dict(generations=80, offspring=6, seed=13,
                    mutation_rate=0.1, shrink="always")
        cached = EvolutionRun(spec, RcgpConfig(**base),
                              initial=initial).run()
        uncached = EvolutionRun(spec, RcgpConfig(eval_cache_size=0, **base),
                                initial=initial).run()
        assert cached.fitness.key() == uncached.fitness.key()
        assert cached.netlist.describe() == uncached.netlist.describe()


class TestTelemetry:
    def test_jsonl_events_emitted(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=20, seed=5)
        writer = TelemetryWriter(path)
        result = EvolutionRun(spec, config, initial=initial,
                              telemetry=writer).run()
        writer.close()
        events = read_telemetry(path)
        assert events[0]["event"] == "run_start"
        assert events[0]["backend"] == "inline"
        assert events[-1]["event"] == "run_end"
        assert events[-1]["evaluations"] == result.evaluations
        generations = [e for e in events if e["event"] == "generation"]
        assert len(generations) == result.generations
        sample = generations[0]
        for field in ("generation", "best_key", "evaluations",
                      "sat_calls", "wall_time"):
            assert field in sample

    def test_writer_accepts_open_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as handle:
            writer = TelemetryWriter(handle)
            writer.emit("ping", value=1)
            writer.close()          # must not close a borrowed handle
            assert not handle.closed
        assert json.loads(path.read_text())["value"] == 1

    @pytest.mark.parametrize("job_field", [
        dict(verify_result=True), dict(telemetry_path="run.jsonl")],
        ids=["verify_result", "telemetry_path"])
    def test_run_refuses_the_jobs_fields(self, tmp_path, monkeypatch,
                                         job_field):
        """The result gate and the telemetry file are a job's: a bare
        run refuses a config that asks for either, and writes nothing."""
        monkeypatch.chdir(tmp_path)
        config = RcgpConfig(generations=5, seed=1, **job_field)
        with pytest.raises(ValueError, match="synthesize"):
            EvolutionRun(_xor_spec(), config)
        assert os.listdir(str(tmp_path)) == []


class TestMultiStartFullConfig:
    def test_stagnation_limit_survives_fan_out(self):
        # Before the redesign multi_start silently dropped
        # stagnation_limit (among others): workers ran the full budget.
        spec = _xor_spec()
        config = RcgpConfig(generations=500_000, mutation_rate=0.1,
                            stagnation_limit=10, shrink="always")
        import time
        start = time.monotonic()
        best, keys = multi_start(spec, seeds=[1, 2], config=config)
        assert time.monotonic() - start < 60.0
        assert best.to_truth_tables() == spec
        assert len(keys) == 2

    def test_nested_parallelism_is_disabled_per_start(self):
        # Starts share the portfolio's one pool (a config carries no
        # worker count of its own); the run still completes correctly.
        spec = _xor_spec()
        config = RcgpConfig(generations=60, mutation_rate=0.1,
                            shrink="always")
        best, keys = multi_start(spec, seeds=[1, 2], config=config,
                                 parallel=True)
        assert best.to_truth_tables() == spec
