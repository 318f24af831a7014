"""Unit tests for the multi-objective Pareto extension."""

import pytest

from repro.core.config import RcgpConfig
from repro.core.fitness import Evaluator
from repro.core.kernel import NetlistKernel
from repro.core.pareto import ParetoArchive, dominates, evolve_pareto
from repro.core.synthesis import initialize_netlist
from repro.core.verify import realizes
from repro.errors import SynthesisError
from repro.logic.truth_table import tabulate_word
from repro.rqfp.netlist import RqfpNetlist


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert dominates((1, 2, 2), (2, 2, 2))

    def test_equal_does_not_dominate(self):
        assert not dominates((1, 1, 1), (1, 1, 1))

    def test_incomparable(self):
        assert not dominates((1, 3, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (1, 3, 1))


class TestArchive:
    def _netlist(self):
        return RqfpNetlist(1)

    def test_insert_and_evict(self):
        archive = ParetoArchive()
        assert archive.try_insert((5, 5, 5), self._netlist())
        assert archive.try_insert((3, 6, 6), self._netlist())  # incomparable
        assert len(archive) == 2
        # A dominator evicts both.
        assert archive.try_insert((3, 5, 5), self._netlist())
        assert archive.costs() == [(3, 5, 5)]

    def test_dominated_rejected(self):
        archive = ParetoArchive()
        archive.try_insert((3, 3, 3), self._netlist())
        assert not archive.try_insert((4, 4, 4), self._netlist())
        assert not archive.try_insert((3, 3, 3), self._netlist())

    def test_capacity_bound(self):
        archive = ParetoArchive(capacity=3)
        # Mutually incomparable points along a diagonal.
        for k in range(6):
            archive.try_insert((k, 10 - k, 5), self._netlist())
        assert len(archive) <= 3

    def test_best_by_weights(self):
        archive = ParetoArchive()
        archive.try_insert((3, 0, 10), self._netlist())
        archive.try_insert((4, 0, 1), self._netlist())
        jj_cost, _ = archive.best_by((24, 0, 4))
        assert jj_cost == (4, 0, 1)  # 100 JJs < 112 JJs
        gate_cost, _ = archive.best_by((1, 0, 0))
        assert gate_cost == (3, 0, 10)

    def test_empty_best_rejected(self):
        with pytest.raises(SynthesisError):
            ParetoArchive().best_by((1, 1, 1))


class TestEvolvePareto:
    def test_archive_members_all_functional(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=400, mutation_rate=0.1, seed=6,
                            shrink="always")
        archive = evolve_pareto(initial, spec, config)
        assert len(archive) >= 1
        for cost, netlist in archive.entries:
            assert realizes(netlist, spec).equivalent
            netlist.validate(require_single_fanout=True)

    def test_sampled_archive_members_all_functional(self):
        # Three sampled patterns of four: the formal leg confirms every
        # member.
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        config = RcgpConfig(generations=400, mutation_rate=0.1, seed=6,
                            shrink="always", exhaustive_input_limit=1,
                            simulation_patterns=3)
        archive = evolve_pareto(initialize_netlist(spec), spec, config)
        assert len(archive) >= 1
        for cost, netlist in archive.entries:
            assert realizes(netlist, spec).equivalent
            netlist.validate(require_single_fanout=True)

    def test_fixed_seed_is_deterministic(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=300, mutation_rate=0.2, seed=8,
                            shrink="always")
        first, second = (evolve_pareto(initial, spec, config)
                         for _ in range(2))
        assert first.costs() == second.costs()
        assert [netlist.describe() for _, netlist in first.entries] == \
            [netlist.describe() for _, netlist in second.entries]

    def test_offspring_are_scored_incrementally(self, monkeypatch):
        calls = []
        real = Evaluator.evaluate_incremental

        def counting(self, child, delta, state, floor=None):
            calls.append(type(child))
            return real(self, child, delta, state, floor)

        monkeypatch.setattr(Evaluator, "evaluate_incremental", counting)
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        config = RcgpConfig(generations=50, offspring=3, mutation_rate=0.1,
                            seed=6)
        evolve_pareto(initialize_netlist(spec), spec, config)
        assert len(calls) == 50 * 3
        assert set(calls) == {NetlistKernel}

    def test_front_is_mutually_non_dominated(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=400, mutation_rate=0.1, seed=7,
                            shrink="always")
        archive = evolve_pareto(initial, spec, config)
        costs = archive.costs()
        for i, a in enumerate(costs):
            for j, b in enumerate(costs):
                if i != j:
                    assert not dominates(a, b) or a == b

    def test_wrong_initial_rejected(self):
        spec = tabulate_word(lambda x: 1 << x, 2, 4)
        wrong = RqfpNetlist(2)
        for _ in range(4):
            wrong.add_output(0)
        with pytest.raises(SynthesisError):
            evolve_pareto(wrong, spec, RcgpConfig(generations=1))
