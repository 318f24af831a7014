"""Fault tolerance of the span dispatcher and the engine.

The headline guarantee: because pool evaluation is pure, **worker
crashes, hung workers and pool loss never change results** — a run that
survived N pool restarts is bit-identical to the same run executed
serially.  These tests inject real faults (``os._exit`` in workers, a
wedged worker against ``batch_timeout``) through the engine's
environment hooks and check both the recovered results and the
surfaced counters.
"""

import pickle

import pytest

import repro.core.engine as engine_mod
import repro.jobs.pool as pool_mod
from repro.core import wire
from repro.core.config import RcgpConfig
from repro.core.engine import (
    EvolutionRun,
    TelemetryWriter,
    encode_genome,
    read_telemetry,
)
from repro.core.fitness import Evaluator
from repro.core.synthesis import initialize_netlist
from repro.errors import WorkerPoolError
from repro.jobs.pool import process_pool_backend
from repro.logic.truth_table import tabulate_word


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _run(workers, **overrides):
    spec = _decoder_spec()
    kwargs = dict(generations=40, mutation_rate=0.1, seed=11,
                  offspring=4, shrink="always", workers=workers)
    kwargs.update(overrides)
    return EvolutionRun(spec, RcgpConfig(**kwargs)).run()


@pytest.fixture
def reset_worker_globals():
    """In-process use of the pool worker functions mutates module
    globals; restore them so later tests see a clean slate."""
    yield
    pool_mod._WORKER = None
    engine_mod._WORKER_FAULT_COUNTDOWN = None
    engine_mod._WORKER_FAULT_MODE = ""


def _span_request(parent, config, count, start_gen=1):
    fitness = Evaluator(_decoder_spec(), config).evaluate(parent)
    return wire.SpanRequest(
        base_seed=config.seed, start_gen=start_gen, count=count,
        parent_fitness=(fitness.success, fitness.n_r, fitness.n_g,
                        fitness.n_b),
        parent_genome=encode_genome(parent))


class TestCrashRecovery:
    def test_crashing_workers_recovered_bit_identical(self, monkeypatch):
        serial = _run(workers=0)
        # Every worker process hard-exits (os._exit, no cleanup) after
        # its 7th evaluation; at ~2 evaluations per worker per
        # generation the run must survive several BrokenProcessPool
        # storms, respawning the pool and re-dispatching each time.
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "7")
        crashed = _run(workers=2)
        assert crashed.backend == "process-pool"
        assert crashed.worker_restarts > 0
        assert crashed.batches_retried > 0
        assert not crashed.degraded_to_inline
        assert crashed.fitness.key() == serial.fitness.key()
        assert crashed.netlist.describe() == serial.netlist.describe()
        assert crashed.generations == serial.generations

    def test_exhausted_retries_degrade_to_inline(self, monkeypatch):
        serial = _run(workers=0)
        # Workers die on their *first* evaluation and retries are
        # forbidden: the first batch must degrade the backend, and the
        # whole run completes inline — still bit-identical.
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "1")
        degraded = _run(workers=2, batch_retries=0)
        assert degraded.backend == "process-pool"
        assert degraded.degraded_to_inline
        assert degraded.worker_restarts == 0  # no retry budget to spend
        assert degraded.fitness.key() == serial.fitness.key()
        assert degraded.netlist.describe() == serial.netlist.describe()
        assert degraded.evaluations == serial.evaluations

    def test_fault_counters_reach_telemetry(self, monkeypatch, tmp_path):
        path = tmp_path / "faults.jsonl"
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "7")
        result = _run(workers=2, telemetry_path=str(path))
        events = read_telemetry(str(path))
        faults = [e for e in events if e["event"] == "worker_fault"]
        assert faults, "no worker_fault events despite injected crashes"
        assert faults[-1]["worker_restarts"] == result.worker_restarts
        assert faults[-1]["batches_retried"] == result.batches_retried
        end = [e for e in events if e["event"] == "run_end"][-1]
        assert end["worker_restarts"] == result.worker_restarts
        assert end["degraded_to_inline"] is False
        assert end["interrupted"] is False


class TestHangRecovery:
    def test_hung_worker_times_out_and_degrades(self, monkeypatch):
        serial = _run(workers=0, generations=10)
        # Workers wedge (sleep 600s) on their first evaluation; with a
        # short batch_timeout and no retries the backend must kill the
        # hung processes and finish the run inline, well under 600s.
        monkeypatch.setenv("RCGP_TEST_HANG_AFTER_EVALS", "1")
        hung = _run(workers=2, generations=10,
                    batch_timeout=0.5, batch_retries=0)
        assert hung.degraded_to_inline
        assert hung.fitness.key() == serial.fitness.key()
        assert hung.netlist.describe() == serial.netlist.describe()


class TestInterrupt:
    class _InterruptingTelemetry(TelemetryWriter):
        """Raises KeyboardInterrupt inside the generation loop, exactly
        where a real SIGINT would land mid-run."""

        def __init__(self, handle, after):
            super().__init__(handle)
            self._countdown = after

        def emit(self, event, **fields):
            super().emit(event, **fields)
            if event == "generation":
                self._countdown -= 1
                if self._countdown == 0:
                    raise KeyboardInterrupt

    def test_interrupt_returns_best_so_far(self, tmp_path):
        path = tmp_path / "interrupted.jsonl"
        spec = _decoder_spec()
        config = RcgpConfig(generations=200, mutation_rate=0.1, seed=11,
                            offspring=4, shrink="always", workers=0)
        with open(path, "w") as handle:
            telemetry = self._InterruptingTelemetry(handle, after=5)
            result = EvolutionRun(spec, config,
                                  telemetry=telemetry).run()
        assert result.interrupted
        assert result.generations < 200
        assert result.fitness.functional
        events = read_telemetry(str(path))
        end = [e for e in events if e["event"] == "run_end"]
        assert end and end[-1]["interrupted"] is True

    def test_interrupt_with_pool_kills_workers(self, tmp_path):
        path = tmp_path / "interrupted_pool.jsonl"
        spec = _decoder_spec()
        config = RcgpConfig(generations=200, mutation_rate=0.1, seed=11,
                            offspring=4, shrink="always", workers=2)
        with open(path, "w") as handle:
            telemetry = self._InterruptingTelemetry(handle, after=3)
            result = EvolutionRun(spec, config,
                                  telemetry=telemetry).run()
        assert result.interrupted
        assert result.backend == "process-pool"
        assert result.fitness.functional


class TestBackendInternals:
    def test_uninitialized_worker_raises_typed_error(
            self, reset_worker_globals):
        spec = _decoder_spec()
        config = RcgpConfig(seed=3)
        ctx = ("job", tuple(t.bits for t in spec), spec[0].num_vars,
               config.to_dict())
        payload = wire.pack_job_span(
            pickle.dumps(ctx),
            _span_request(initialize_netlist(spec), config, count=1))
        pool_mod._WORKER = None
        with pytest.raises(WorkerPoolError):
            pool_mod._handle_job_span(memoryview(payload))

    def test_batch_counters_not_double_counted_on_retry(self, monkeypatch):
        # Crash after 3 evaluations with a 3-generation span of 2
        # offspring (6 evaluations): the first dispatch dies mid-span,
        # the retry (fresh worker, one generation, 2 evaluations)
        # succeeds.  The eval counters must count the served span only.
        monkeypatch.setenv("RCGP_TEST_CRASH_AFTER_EVALS", "3")
        spec = _decoder_spec()
        config = RcgpConfig(seed=3, offspring=2, mutation_rate=0.1)
        request = _span_request(initialize_netlist(spec), config, count=3)
        backend = process_pool_backend(spec, config)
        try:
            assert backend.dispatch_span(request)
            result = backend.collect_span()
            assert result is not None
            assert backend.batches_retried >= 1
            assert not backend.degraded
            # The served span is the retried one-generation prefix.
            assert len(result.records) == 1
            expected, _ = engine_mod.replay_span(
                Evaluator(spec, config), None, request.head(1))
            assert result == expected
            counted = [sum(c[k] for _, _, c in result.records)
                       for k in range(3)]
            assert [backend.eval_full, backend.eval_incremental,
                    backend.ports_resimulated] == counted
            assert backend.eval_full + backend.eval_incremental == 2
        finally:
            backend.close()

    def test_terminate_is_safe_and_idempotent(self):
        spec = _decoder_spec()
        backend = process_pool_backend(spec, RcgpConfig(seed=0))
        backend.terminate()
        backend.terminate()
        backend.close()


class TestWorkerEpochInvalidation:
    """The worker-resident parent state must be rebuilt when the
    worker's own pattern set grows (SAT counterexample feedback)."""

    def _sampled_config(self):
        # Force sampled simulation: 2-input spec, exhaustive limit 1.
        return RcgpConfig(seed=5, exhaustive_input_limit=1,
                          simulation_patterns=32, verify_with_sat=False,
                          offspring=3, mutation_rate=0.15)

    def test_stale_state_rebuilt_at_chunk_entry(self):
        spec = _decoder_spec()
        config = self._sampled_config()
        evaluator = Evaluator(spec, config)
        request = _span_request(initialize_netlist(spec), config, count=1)

        _, resident = engine_mod.replay_span(evaluator, None, request)
        state_before = resident[2]
        evaluator.add_counterexample(3)  # pattern set grows: epoch moves
        assert state_before.epoch != evaluator.pattern_epoch
        result, resident = engine_mod.replay_span(evaluator, resident,
                                                  request)
        assert resident[2].epoch == evaluator.pattern_epoch
        # Same span on a fresh evaluator with the grown pattern set.
        fresh = Evaluator(spec, config)
        fresh.add_counterexample(3)
        expected, _ = engine_mod.replay_span(fresh, None, request)
        assert result.records[0][:2] == expected.records[0][:2]

    def test_stale_state_rebuilt_mid_chunk(self):
        spec = _decoder_spec()
        config = self._sampled_config()
        evaluator = Evaluator(spec, config)
        parent = initialize_netlist(spec)
        request = _span_request(parent, config, count=1)

        # Grow the pattern set *between offspring of one span*, as SAT
        # counterexample feedback would: wrap evaluate_incremental so
        # the first call advances the epoch after computing, and record
        # which state every call used.  The wrapper evaluates without
        # the engine's floor, so every fitness is exact and comparable
        # with a full evaluation.
        real = evaluator.evaluate_incremental
        seen = []

        def growing(child, delta, state=None, floor=None):
            fit = real(child, delta, state)
            seen.append((state.epoch, evaluator.pattern_epoch, child,
                         fit))
            if len(seen) == 1:
                evaluator.add_counterexample(2)
            return fit

        evaluator.evaluate_incremental = growing
        _, resident = engine_mod.replay_span(evaluator, None, request)
        evaluator.evaluate_incremental = real
        assert resident[2].epoch == evaluator.pattern_epoch
        # Every offspring after the growth ran on a rebuilt state and
        # matches full evaluation on the grown pattern set.
        assert len(seen) == config.offspring
        for state_epoch, epoch, child, fit in seen[1:]:
            assert state_epoch == epoch
            assert fit == evaluator.evaluate(child)

    def test_engine_run_with_sat_growth_under_pool_oracle(
            self, monkeypatch):
        # End-to-end: sampled simulation *with* SAT feedback is not
        # parallel-safe, but an explicitly passed pool backend forces
        # workers to grow their own pattern sets mid-run.  With the
        # RCGP_CHECK_INCREMENTAL oracle armed in every worker, any
        # stale-state reuse fails the run loudly.
        monkeypatch.setenv("RCGP_CHECK_INCREMENTAL", "1")
        spec = _decoder_spec()
        config = RcgpConfig(generations=15, mutation_rate=0.15, seed=9,
                            offspring=4, shrink="always",
                            exhaustive_input_limit=1,
                            simulation_patterns=16)
        backend = process_pool_backend(spec, config)
        try:
            result = EvolutionRun(spec, config, backend=backend).run()
        finally:
            backend.close()
        assert result.fitness.functional
