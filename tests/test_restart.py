"""Unit tests for sliced-run merging and multi-start evolution."""

import pytest

from repro.api import Session
from repro.bench.revlib import ham3
from repro.core.config import RcgpConfig
from repro.core.engine import encode_genome
from repro.core.restart import multi_start
from repro.logic.truth_table import tabulate_word


def _decoder():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _merged(result):
    """What a sliced run must report exactly as one whole slice does."""
    return {
        "generations": result.generations,
        "history": [(g, fit.key()) for g, fit in result.history],
        "genome": encode_genome(result.netlist),
        "fitness": result.fitness.key(),
        "eval_incremental": result.eval_incremental,
        "ports_resimulated": result.ports_resimulated,
        "verified": result.verified,
    }


class TestSlicedRunMerge:
    """A scheduler job merges its slices with ``merge_slice``: a job in
    slices of 50 reports what the same job in one slice does, except
    that every extra slice re-evaluates its incumbent and the final
    parent (+2 ``eval_full``)."""

    CONFIG = RcgpConfig(generations=200, seed=5, mutation_rate=0.08,
                        max_mutated_genes=8, verify_result=True)

    def test_scheduler_slices_match_one_slice(self):
        spec = ham3()
        runs = {}
        for quantum in (None, 50):
            with Session(quantum=quantum) as session:
                runs[quantum] = session.synthesize(spec, self.CONFIG,
                                                   name="ham3").evolution
        whole, sliced = runs[None], runs[50]
        assert whole.verified
        assert _merged(sliced) == _merged(whole)
        assert len(whole.history) > 1  # an improvement to place
        assert sliced.eval_full == whole.eval_full + 2 * 3
        assert sliced.evaluations == whole.evaluations + 2 * 3

    def test_sat_feedback_slices_match_one_slice(self):
        """Sampled fitness with SAT counterexample feedback runs
        in-process, and slicing still changes no step of the search.
        (``sat_calls`` and ``ports_resimulated`` do grow with the slice
        count: each slice builds a fresh evaluator, without the earlier
        slices' counterexamples and verdict memo.)"""
        spec = ham3()
        config = RcgpConfig(generations=300, seed=3, exhaustive_input_limit=1,
                            simulation_patterns=8, mutation_rate=0.08,
                            max_mutated_genes=8)
        views = []
        for quantum in (None, 50, 7):
            with Session(quantum=quantum) as session:
                evolution = session.synthesize(spec, config).evolution
            views.append({
                "genome": encode_genome(evolution.netlist),
                "history": [(g, fit.key()) for g, fit in evolution.history],
                "generations": evolution.generations,
                "eval_incremental": evolution.eval_incremental,
            })
        assert views[0]["generations"] == 300
        assert views[0] == views[1] == views[2]


class TestMultiStart:
    def test_serial_multi_start(self):
        spec = _decoder()
        config = RcgpConfig(generations=150, mutation_rate=0.1,
                            shrink="always")
        best, keys = multi_start(spec, seeds=[1, 2, 3], config=config)
        assert best.to_truth_tables() == spec
        assert len(keys) == 3
        assert max(keys) == keys[keys.index(max(keys))]

    def test_parallel_multi_start(self):
        spec = _decoder()
        config = RcgpConfig(generations=120, mutation_rate=0.1,
                            shrink="always")
        best, keys = multi_start(spec, seeds=[1, 2], config=config,
                                 parallel=True)
        assert best.to_truth_tables() == spec
        assert len(keys) == 2

    def test_best_of_starts_dominates_each(self):
        spec = _decoder()
        config = RcgpConfig(generations=150, mutation_rate=0.1,
                            shrink="always")
        best, keys = multi_start(spec, seeds=list(range(4)), config=config)
        from repro.core.fitness import Evaluator
        evaluator = Evaluator(spec, config)
        best_fitness = evaluator.evaluate(best)
        assert best_fitness.key() >= max(keys)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            multi_start(_decoder(), seeds=[])
