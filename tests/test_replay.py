"""Worker-side mutation replay: run-level bit-identity.

Span replay is the one cross-process protocol, and both of its modes
must produce exactly the serial engine's trajectory:

* **replay** (the default): workers re-derive every offspring from the
  RNG keys ``(seed, absolute generation, index)`` and run whole
  generation spans locally;
* **check mode** (``RCGP_CHECK_INCREMENTAL=1``): replay with span
  length one, the coordinator's own deltas shipped alongside so the
  worker cross-checks its re-derived mutations, and every incremental
  sweep verified against a full simulation.

Spans serve every pooled configuration — the defaults, the tuned
mutation settings, time budgets and seeds of any size — so no pooled
run quietly evaluates inline.

"Bit-identical" here means the final genome, the improvement history,
and every evaluation counter (``evaluations``, ``eval_full``,
``eval_incremental``, ``ports_resimulated``) — not just the fitness.
The scheduler/sliced and HTTP-served flavours of the same guarantee
live in ``tests/test_jobs.py`` and ``tests/test_service.py``.
"""

import random

import pytest

from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, encode_genome
from repro.core.synthesis import initialize_netlist
from tests.pooled import pooled_run

GENERATIONS = 120


def _config(**kwargs):
    base = dict(mutation_rate=0.08, max_mutated_genes=8, seed=2024,
                eval_cache_size=0, shrink="on_improvement",
                generations=GENERATIONS)
    base.update(kwargs)
    return RcgpConfig(**base)


def _evolve(spec, config, workers, **options):
    """In-process with ``workers=0``, else through the pooled helper."""
    if workers == 0:
        return EvolutionRun(spec, config, **options).run()
    return pooled_run(spec, config, local_workers=workers, **options)[0]


def _signature(result):
    return {
        "genome": encode_genome(result.netlist),
        "fitness": result.fitness.key(),
        "history": result.history,
        "evaluations": result.evaluations,
        "eval_full": result.eval_full,
        "eval_incremental": result.eval_incremental,
        "ports_resimulated": result.ports_resimulated,
    }


@pytest.fixture(scope="module")
def intdiv9():
    benchmark = get_benchmark("intdiv9")
    return benchmark.spec(), initialize_netlist(benchmark.spec(),
                                                benchmark.name)


def _run(spec, initial, workers, **kwargs):
    return _evolve(spec, _config(**kwargs), workers, initial=initial,
                   name="intdiv9")


class TestFourPathEquality:
    @pytest.mark.parametrize("shrink", ["on_improvement", "always"])
    def test_parallel_paths_match_serial(self, intdiv9, monkeypatch,
                                         shrink):
        spec, initial = intdiv9
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)

        serial = _signature(_run(spec, initial, workers=0, shrink=shrink))

        replay = _run(spec, initial, workers=2, shrink=shrink)
        assert replay.backend == "shared-pool"
        assert _signature(replay) == serial
        # Replay actually engaged: spans crossed the wire.
        assert replay.chunks_dispatched > 0
        assert replay.bytes_shipped > 0

        monkeypatch.setenv("RCGP_CHECK_INCREMENTAL", "1")
        checked = _run(spec, initial, workers=2, shrink=shrink)
        assert _signature(checked) == serial

    def test_replay_advances_parent_on_neutral_drift(self, intdiv9,
                                                     monkeypatch):
        """Neutral-accept decisions taken worker-side land the
        coordinator on the same parent the serial loop holds."""
        spec, initial = intdiv9
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)
        # A hotter mutation rate drives more neutral acceptance.
        serial = _run(spec, initial, workers=0, mutation_rate=0.15)
        pooled = _run(spec, initial, workers=2, mutation_rate=0.15)
        assert _signature(pooled) == _signature(serial)

    def test_small_spec_round_trips(self, monkeypatch):
        """Replay equality on a tiny random spec (fast smoke: exercises
        short spans, frequent improvements, early stop)."""
        from repro.bench.random_circuits import random_rqfp
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)
        netlist = random_rqfp(3, 10, 2, random.Random(42))
        spec = netlist.to_truth_tables()
        initial = initialize_netlist(spec)
        config = _config(generations=80, seed=7)
        serial = _signature(_evolve(spec, config, 0, initial=initial))
        pooled = _signature(_evolve(spec, config, 2, initial=initial))
        assert pooled == serial


def _assert_spans(pooled):
    """The pooled run shipped multi-generation spans, not one batch per
    generation, and never fell back to inline evaluation."""
    assert pooled.backend == "shared-pool"
    assert 0 < pooled.chunks_dispatched < pooled.generations
    assert not pooled.degraded_to_inline


def _decoder_spec():
    from repro.logic.truth_table import tabulate_word
    return tabulate_word(lambda x: 1 << x, 2, 4)


class TestSpansServeEveryPooledConfig:
    """Configurations that used to keep pooled runs off span replay."""

    @pytest.fixture(autouse=True)
    def _no_check_mode(self, monkeypatch):
        monkeypatch.delenv("RCGP_CHECK_INCREMENTAL", raising=False)

    def _both(self, spec, initial, **kwargs):
        runs = [_evolve(spec, RcgpConfig(**kwargs), workers,
                        initial=initial)
                for workers in (0, 2)]
        _assert_spans(runs[1])
        return runs

    def test_default_config_pooled_matches_serial(self, intdiv9):
        """Every counter equal at the defaults (memo-cache setting
        untouched), paper-faithful mutation included."""
        spec, initial = intdiv9
        serial, pooled = self._both(spec, initial, generations=40,
                                    seed=2024)
        assert _signature(pooled) == _signature(serial)
        assert pooled.cache_hits == serial.cache_hits == 0

    def test_full_evaluation_pooled_matches_serial(self, intdiv9):
        spec, initial = intdiv9
        serial, pooled = self._both(spec, initial, generations=GENERATIONS,
                                    seed=2024, mutation_rate=0.08,
                                    max_mutated_genes=8)
        assert _signature(pooled) == _signature(serial)

    def test_seed_beyond_int64_is_carried(self):
        spec = _decoder_spec()
        initial = initialize_netlist(spec)
        for seed in (2**70 + 12345, -(2**65)):
            serial, pooled = self._both(spec, initial, generations=60,
                                        seed=seed, mutation_rate=0.1,
                                        shrink="always")
            assert _signature(pooled) == _signature(serial)

    def test_time_budget_run_dispatches_spans_and_stops(self):
        spec = _decoder_spec()
        budget = 1.0
        config = RcgpConfig(generations=10**7, seed=5,
                            mutation_rate=0.1, time_budget=budget)
        result = _evolve(spec, config, 2,
                         initial=initialize_netlist(spec))
        _assert_spans(result)
        assert result.generations < config.generations
        # The budget is checked before every span dispatch, so the run
        # overshoots by at most the span in flight (latency-bounded at
        # SpanPlanner.TARGET) plus finalization.
        assert result.runtime < budget + 2.0
