"""Unit tests for checkpointing and multi-start evolution."""

import os
import shutil

import pytest

from repro.api import Session
from repro.bench.revlib import ham3
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, encode_genome
from repro.core.restart import (
    evolve_with_checkpoints,
    load_checkpoint,
    multi_start,
    save_checkpoint,
)
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import tabulate_word


def _decoder():
    return tabulate_word(lambda x: 1 << x, 2, 4)


class TestCheckpointFiles:
    def test_save_load_round_trip(self, tmp_path):
        spec = _decoder()
        netlist = initialize_netlist(spec)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, netlist, 123, RcgpConfig(generations=500))
        loaded, done = load_checkpoint(path)
        assert done == 123
        assert loaded.to_truth_tables() == netlist.to_truth_tables()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


class TestEvolveWithCheckpoints:
    def test_fresh_run_creates_checkpoint(self, tmp_path):
        spec = _decoder()
        path = str(tmp_path / "run.json")
        config = RcgpConfig(generations=300, mutation_rate=0.1, seed=4,
                            shrink="always")
        result = evolve_with_checkpoints(spec, config, path,
                                         slice_generations=100)
        assert os.path.exists(path)
        assert result.generations == 300
        assert result.netlist.to_truth_tables() == spec
        _, done = load_checkpoint(path)
        assert done == 300

    def test_resume_continues_budget(self, tmp_path):
        spec = _decoder()
        path = str(tmp_path / "run.json")
        config = RcgpConfig(generations=200, mutation_rate=0.1, seed=4,
                            shrink="always")
        evolve_with_checkpoints(spec, config, path, slice_generations=200)
        # Second call with a larger budget resumes from 200.
        bigger = RcgpConfig(generations=300, mutation_rate=0.1, seed=4,
                            shrink="always")
        result = evolve_with_checkpoints(spec, bigger, path,
                                         slice_generations=100)
        _, done = load_checkpoint(path)
        assert done == 300
        assert result.netlist.to_truth_tables() == spec

    def test_exhausted_budget_returns_incumbent(self, tmp_path):
        spec = _decoder()
        path = str(tmp_path / "run.json")
        config = RcgpConfig(generations=100, mutation_rate=0.1, seed=4,
                            shrink="always")
        evolve_with_checkpoints(spec, config, path, slice_generations=100)
        again = evolve_with_checkpoints(spec, config, path,
                                        slice_generations=100)
        assert again.generations == 100
        assert again.netlist.to_truth_tables() == spec

    def test_kill_resume_equivalence(self, tmp_path):
        """Killing between slices loses nothing: the checkpoint's
        incumbent is a functional netlist at least as fit as the start."""
        spec = _decoder()
        path = str(tmp_path / "run.json")
        config = RcgpConfig(generations=400, mutation_rate=0.1, seed=9,
                            shrink="always")
        evolve_with_checkpoints(spec, config, path, slice_generations=100)
        incumbent, _ = load_checkpoint(path)
        assert incumbent.to_truth_tables() == spec


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
    """Both sliced paths — checkpointed runs and scheduler jobs — merge
    their slices with ``merge_slice``: a run in slices of 50 reports
    what one whole slice does, except that every extra slice
    re-evaluates its incumbent and the final parent (+2 ``eval_full``)."""

    CONFIG = RcgpConfig(generations=200, seed=5, mutation_rate=0.08,
                        max_mutated_genes=8, track_history=True,
                        verify_result=True)

    @pytest.fixture(scope="class")
    def whole(self):
        spec = ham3()
        return EvolutionRun(spec, self.CONFIG,
                            initial=initialize_netlist(spec, "ham3")).run()

    def _check(self, sliced, whole):
        assert _merged(sliced) == _merged(whole)
        assert len(whole.history) > 1  # an improvement to place
        assert sliced.eval_full == whole.eval_full + 2 * 3
        assert sliced.evaluations == whole.evaluations + 2 * 3

    def test_checkpointed_slices_match_one_slice(self, tmp_path, whole):
        spec = ham3()
        sliced = evolve_with_checkpoints(
            spec, self.CONFIG, str(tmp_path / "run.json"),
            slice_generations=50, initial=initialize_netlist(spec, "ham3"))
        self._check(sliced, whole)

    def test_scheduler_slices_match_one_slice(self, whole):
        with Session(quantum=50) as session:
            sliced = session.synthesize(ham3(), self.CONFIG,
                                        name="ham3").evolution
        self._check(sliced, whole)

    def test_resumed_run_reports_absolute_generations(self, tmp_path):
        spec = ham3()
        first = str(tmp_path / "first.json")
        evolve_with_checkpoints(spec, self.CONFIG.replace(generations=100),
                                first, slice_generations=100,
                                initial=initialize_netlist(spec, "ham3"))
        views = []
        for slice_generations in (100, 50):
            path = str(tmp_path / f"resume{slice_generations}.json")
            shutil.copy(first, path)
            views.append(_merged(evolve_with_checkpoints(
                spec, self.CONFIG, path,
                slice_generations=slice_generations)))
        assert views[0] == views[1]
        assert views[0]["generations"] == 200
        assert views[0]["history"][0][0] == 100


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
