"""Incremental cone-aware evaluation: bit-exactness properties.

The contract under test: for any netlist and any mutation,
``Evaluator.evaluate_incremental(child, delta, state)`` returns exactly
the fitness ``Evaluator.evaluate(child)`` would — the incremental layer
is an optimization, never an approximation.  The properties are checked
over random netlists x random mutation sequences, plus the structured
corner cases (epoch bumps, stale states, window boundaries).
"""

import os
import random
import subprocess
import sys

import pytest

from repro.bench.random_circuits import random_rqfp
from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, encode_genome
from repro.core.fitness import Evaluator, Fitness
from repro.core.mutation import MutationDelta, mutate_with_delta
from repro.core.simstate import SimulationState
from repro.core.synthesis import initialize_netlist
from repro.core.windowing import windowed_optimize
from repro.logic.truth_table import TruthTable
from tests.pooled import pooled_run
from tests.reference_loop import engine_signature, textbook_run


def _mutation_config(**kwargs):
    base = dict(mutation_rate=0.25, max_mutated_genes=6, seed=5)
    base.update(kwargs)
    return RcgpConfig(**base)


class TestDeltaStructure:
    def test_apply_to_reconstructs_child(self):
        rng = random.Random(11)
        config = _mutation_config()
        for trial in range(30):
            parent = random_rqfp(4, 12, 3, random.Random(100 + trial))
            child, delta = mutate_with_delta(parent, random.Random(trial),
                                             config)
            rebuilt = delta.apply_to(parent)
            assert encode_genome(rebuilt) == encode_genome(child)
            # The parent itself is untouched.
            assert encode_genome(parent) != encode_genome(child) or \
                delta.is_empty or True  # equal genomes are legal (no-op)

    def test_touched_gates_cover_every_changed_gate(self):
        config = _mutation_config()
        for trial in range(30):
            parent = random_rqfp(4, 14, 3, random.Random(trial))
            child, delta = mutate_with_delta(parent, random.Random(trial),
                                             config)
            touched = set(delta.touched_gates)
            for g, (pg, cg) in enumerate(zip(parent.gates, child.gates)):
                if (pg.in0, pg.in1, pg.in2, pg.config) != \
                        (cg.in0, cg.in1, cg.in2, cg.config):
                    assert g in touched
            changed_pos = {i for i, (a, b)
                           in enumerate(zip(parent.outputs, child.outputs))
                           if a != b}
            assert changed_pos <= {i for i, _ in delta.outputs}

    def test_empty_delta_is_empty(self):
        assert MutationDelta().is_empty
        assert not MutationDelta(gates=((0, (0, 0, 0, 0)),)).is_empty


#: A functional floor, as the engine passes for any functional parent.
FLOOR = Fitness(1.0, 1, 1, 1)


def _check_early_stop(early, state, child, delta, full, exact_ports):
    """The floor's contract for one child: the exact verdict, the exact
    key of a functional child, and no more ports than the exact sweep
    (``exact_ports``) recomputed."""
    before = early.ports_resimulated
    fitness = early.evaluate_incremental(child, delta, state, FLOOR)
    assert fitness.functional == full.functional
    if full.functional:
        assert fitness.key() == full.key()
    assert early.ports_resimulated - before <= exact_ports


class TestIncrementalEqualsFull:
    def test_random_netlists_random_mutation_chains(self):
        """The core property: chains of mutations from an evolving
        parent, incremental fitness == full fitness at every step; with
        a functional floor, the same verdict in at most as many ports."""
        config = _mutation_config()
        for trial in range(12):
            outer = random.Random(1000 + trial)
            parent = random_rqfp(4, 15, 3, outer)
            spec = parent.to_truth_tables()  # parent is functional
            evaluator = Evaluator(spec, config)
            reference = Evaluator(spec, config)
            early = Evaluator(spec, config)
            state = evaluator.prepare_parent(parent)
            early_state = early.prepare_parent(parent)
            for step in range(8):
                child, delta = mutate_with_delta(parent, outer, config)
                before = evaluator.ports_resimulated
                incremental = evaluator.evaluate_incremental(child, delta,
                                                             state)
                full = reference.evaluate(child)
                assert incremental.key() == full.key(), \
                    f"trial {trial} step {step}: {incremental} != {full}"
                _check_early_stop(early, early_state, child, delta, full,
                                  evaluator.ports_resimulated - before)
                parent = child
                state = evaluator.prepare_parent(parent)
                early_state = early.prepare_parent(parent)
            assert evaluator.eval_incremental == 8
            assert evaluator.ports_resimulated >= 0
            assert early.eval_incremental == 8

    def test_non_functional_spec(self):
        """Against an unrelated random spec every candidate is partial;
        the success-rate arithmetic must still agree bit for bit."""
        config = _mutation_config()
        rng = random.Random(7)
        parent = random_rqfp(4, 12, 3, rng)
        spec = [TruthTable(4, rng.getrandbits(16)) for _ in range(3)]
        evaluator = Evaluator(spec, config)
        reference = Evaluator(spec, config)
        state = evaluator.prepare_parent(parent)
        for _ in range(20):
            child, delta = mutate_with_delta(parent, rng, config)
            assert evaluator.evaluate_incremental(
                child, delta, state).key() == reference.evaluate(child).key()

    def test_benchmark_circuit(self):
        benchmark = get_benchmark("alu")
        spec = benchmark.spec()
        parent = initialize_netlist(spec, "alu")
        config = _mutation_config(mutation_rate=0.1)
        evaluator = Evaluator(spec, config)
        reference = Evaluator(spec, config)
        early = Evaluator(spec, config)
        state = evaluator.prepare_parent(parent)
        early_state = early.prepare_parent(parent)
        rng = random.Random(13)
        for _ in range(40):
            child, delta = mutate_with_delta(parent, rng, config)
            before = evaluator.ports_resimulated
            full = reference.evaluate(child)
            assert evaluator.evaluate_incremental(
                child, delta, state).key() == full.key()
            _check_early_stop(early, early_state, child, delta, full,
                              evaluator.ports_resimulated - before)

    def test_check_incremental_env_flag(self):
        """RCGP_CHECK_INCREMENTAL verifies every sweep, and every early
        verdict, against a full simulation (and passes on correct
        code)."""
        env = dict(os.environ)
        env["RCGP_CHECK_INCREMENTAL"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        code = (
            "import random\n"
            "from repro.bench.random_circuits import random_rqfp\n"
            "from repro.core.config import RcgpConfig\n"
            "from repro.core.fitness import Evaluator\n"
            "from repro.core.mutation import mutate_with_delta\n"
            "rng = random.Random(3)\n"
            "parent = random_rqfp(4, 12, 3, rng)\n"
            "config = RcgpConfig(mutation_rate=0.3, max_mutated_genes=5,"
            " seed=1)\n"
            "ev = Evaluator(parent.to_truth_tables(), config)\n"
            "assert ev._check_incremental\n"
            "state = ev.prepare_parent(parent)\n"
            "floor = ev.evaluate(parent)\n"
            "for _ in range(15):\n"
            "    child, delta = mutate_with_delta(parent, rng, config)\n"
            "    ev.evaluate_incremental(child, delta, state)\n"
            "    ev.evaluate_incremental(child, delta, state, floor)\n"
            "print('checked', ev.eval_incremental)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "checked 30" in result.stdout


class TestFallbacks:
    def _sampled_evaluator(self, spec):
        config = RcgpConfig(exhaustive_input_limit=2, verify_with_sat=False,
                            simulation_patterns=64, seed=9,
                            mutation_rate=0.2, max_mutated_genes=4)
        return Evaluator(spec, config, random.Random(9)), config

    def test_stale_epoch_falls_back_to_full(self):
        rng = random.Random(21)
        parent = random_rqfp(4, 10, 3, rng)
        evaluator, config = self._sampled_evaluator(parent.to_truth_tables())
        state = evaluator.prepare_parent(parent)
        child, delta = mutate_with_delta(parent, rng, config)
        evaluator.add_counterexample(5)  # epoch bump
        assert state.epoch != evaluator.pattern_epoch
        before_full = evaluator.eval_full
        fitness = evaluator.evaluate_incremental(child, delta, state)
        assert evaluator.eval_full == before_full + 1
        assert evaluator.eval_incremental == 0
        # And the fallback result equals a from-scratch evaluation.
        fresh, _ = self._sampled_evaluator(parent.to_truth_tables())
        fresh.add_counterexample(5)
        assert fitness.key() == fresh.evaluate(child).key()

    def test_none_state_falls_back(self):
        rng = random.Random(4)
        parent = random_rqfp(3, 8, 2, rng)
        config = _mutation_config()
        evaluator = Evaluator(parent.to_truth_tables(), config)
        child, delta = mutate_with_delta(parent, rng, config)
        assert evaluator.evaluate_incremental(child, delta, None).key() == \
            Evaluator(parent.to_truth_tables(), config).evaluate(child).key()
        assert evaluator.eval_full == 1

    def test_shape_mismatch_falls_back(self):
        rng = random.Random(6)
        parent = random_rqfp(3, 8, 2, rng)
        other = random_rqfp(3, 9, 2, rng)  # one gate more
        config = _mutation_config()
        evaluator = Evaluator(parent.to_truth_tables(), config)
        state = evaluator.prepare_parent(parent)
        assert not state.compatible(other)
        evaluator.evaluate_incremental(other, MutationDelta(), state)
        assert evaluator.eval_full == 1
        assert evaluator.eval_incremental == 0

    def test_add_counterexample_matches_full_rebuild(self):
        """The satellite fix: appending counterexamples incrementally
        must produce exactly the words a full re-tabulation would."""
        rng = random.Random(31)
        parent = random_rqfp(4, 10, 3, rng)
        spec = parent.to_truth_tables()
        incremental, _ = self._sampled_evaluator(spec)
        for pattern in (3, 9, 14, 3, 0, 15):
            incremental.add_counterexample(pattern)
        rebuilt, _ = self._sampled_evaluator(spec)
        rebuilt._patterns = list(incremental._patterns)
        rebuilt._rebuild_words()
        assert incremental._mask == rebuilt._mask
        assert incremental._words == rebuilt._words
        assert incremental._expected == rebuilt._expected
        assert incremental._total_bits == rebuilt._total_bits


class TestEngineIntegration:
    def _run(self, **kwargs):
        """The engine run and the textbook loop's signature, which
        evaluates every offspring in full."""
        spec = get_benchmark("decoder_2_4").spec()
        initial = initialize_netlist(spec, "decoder_2_4")
        config = RcgpConfig(generations=60, offspring=4, mutation_rate=0.2,
                            max_mutated_genes=4, seed=77, **kwargs)
        result = EvolutionRun(spec, config, initial=initial,
                              name="decoder_2_4").run()
        return result, textbook_run(spec, config, initial)

    def test_incremental_run_matches_full_run(self):
        incr, full = self._run()
        assert engine_signature(incr) == full
        assert incr.eval_incremental > 0
        assert incr.ports_resimulated > 0
        assert incr.eval_full + incr.eval_incremental == incr.evaluations

    def test_paper_default_job_is_pinned(self):
        """A paper-default job (μ = 1, uncapped) keeps the cost rows and
        evaluation counts recorded before broken children stopped at
        their first wrong output, in far fewer resimulated ports."""
        from repro.api import synthesize
        result = synthesize(get_benchmark("intdiv7").spec(),
                            RcgpConfig(generations=300, seed=1),
                            name="intdiv7")
        rows = [[cost.n_r, cost.n_b, cost.n_d, cost.n_g, cost.jjs]
                for cost in (result.cost, result.initial.cost)]
        assert rows == [[92, 68, 10, 125, 2480], [92, 68, 10, 125, 2480]]
        evolution = result.evolution
        assert (evolution.evaluations, evolution.eval_full,
                evolution.eval_incremental) == (1202, 2, 1200)
        # 315,783 when every child's cone was resimulated in full.
        assert evolution.ports_resimulated < 315783

    def test_incremental_run_matches_with_cache_disabled(self):
        incr, full = self._run(eval_cache_size=0)
        assert engine_signature(incr) == full

    @pytest.mark.slow
    def test_pool_backend_incremental_matches(self):
        benchmark = get_benchmark("decoder_2_4")
        spec = benchmark.spec()
        config = RcgpConfig(generations=25, offspring=8, mutation_rate=0.2,
                            max_mutated_genes=4, seed=31)
        pooled, _ = pooled_run(spec, config, name="decoder_2_4")
        inline = EvolutionRun(spec, config, name="decoder_2_4").run()
        assert pooled.fitness.key() == inline.fitness.key()
        assert pooled.netlist.describe() == inline.netlist.describe()
        assert pooled.eval_incremental > 0


class TestWindowedCones:
    def test_window_boundary_cone_and_counters(self, monkeypatch):
        """Windowed optimization: the window is the sub-netlist, so
        every cone is window-local; the WindowResult aggregates the
        incremental counters of all window runs, and every window
        sweep agrees with full simulation."""
        benchmark = get_benchmark("intdiv4")
        spec = benchmark.spec()
        netlist = initialize_netlist(spec, "intdiv4")
        config = RcgpConfig(generations=40, mutation_rate=0.5,
                            max_mutated_genes=3, seed=17, shrink="always")
        stats = windowed_optimize(netlist, window_gates=8, rounds=1,
                                  config=config, seed=3)
        assert stats.windows_tried > 0
        assert stats.eval_incremental > 0
        # Cones cannot exceed a window: every incremental evaluation
        # resimulated at most the window's own port count.
        assert stats.ports_resimulated <= \
            stats.eval_incremental * 3 * (8 + 4)  # window + optimizer slack
        monkeypatch.setenv("RCGP_CHECK_INCREMENTAL", "1")
        checked = windowed_optimize(netlist, window_gates=8, rounds=1,
                                    config=config, seed=3)
        assert checked.netlist.describe() == stats.netlist.describe()
        assert (checked.eval_incremental, checked.ports_resimulated) == \
            (stats.eval_incremental, stats.ports_resimulated)
