"""Unit tests for the (1+λ) evolution strategy and full synthesis flow."""

import pytest

from repro.api import synthesize
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.synthesis import baseline_initialization, initialize_netlist
from repro.errors import SynthesisError
from repro.logic.truth_table import TruthTable, tabulate_word
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _xor_spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2)]


class TestInitialization:
    def test_initial_netlist_is_legal_and_correct(self):
        spec = _decoder_spec()
        netlist = initialize_netlist(spec, "decoder")
        netlist.validate(require_single_fanout=True)
        assert netlist.to_truth_tables() == spec

    def test_baseline_costs_populated(self):
        result = baseline_initialization(_decoder_spec())
        assert result.cost.n_r == result.netlist.num_gates
        assert result.cost.n_d == result.plan.depth
        assert result.cost.jjs == 24 * result.cost.n_r + 4 * result.cost.n_b


class TestEvolve:
    def test_improves_or_holds_decoder(self):
        spec = _decoder_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=400, mutation_rate=0.08, seed=11,
                            offspring=4, shrink="always")
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.fitness.functional
        assert result.fitness.n_r <= result.initial_fitness.n_r
        assert result.netlist.to_truth_tables() == spec
        result.netlist.validate(require_single_fanout=True)

    def test_rejects_wrong_initial(self):
        netlist = RqfpNetlist(2)
        netlist.add_output(1)
        with pytest.raises(SynthesisError):
            EvolutionRun(_decoder_spec()[:1], RcgpConfig(generations=1),
                         initial=netlist).run()

    def test_zero_generations_returns_initial(self):
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        result = EvolutionRun(spec, RcgpConfig(generations=0, seed=1),
                              initial=initial).run()
        assert result.generations == 0
        assert result.fitness.functional

    def test_time_budget_respected(self):
        spec = _decoder_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=10 ** 9, time_budget=0.5, seed=2)
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.runtime < 5.0

    def test_stagnation_stops_early(self):
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=100_000, stagnation_limit=50, seed=3)
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.generations < 100_000

    def test_history_tracked(self):
        spec = _decoder_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=300, seed=4, mutation_rate=0.1)
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.history[0][0] == 0
        # History fitness keys must be monotonically non-decreasing.
        keys = [f.key() for _, f in result.history]
        assert keys == sorted(keys)

    def test_never_shrinking_mode_keeps_gate_slots(self):
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=50, seed=6, shrink="never")
        result = EvolutionRun(spec, config, initial=initial).run()
        assert result.fitness.functional


class TestRcgpSynthesize:
    def test_end_to_end_decoder(self):
        config = RcgpConfig(generations=500, mutation_rate=0.1, seed=7,
                            shrink="always")
        result = synthesize(_decoder_spec(), config, name="decoder_2_4")
        assert result.verify()
        assert result.cost.n_r <= result.initial.cost.n_r
        assert result.cost.n_g <= result.initial.cost.n_g
        assert result.cost.jjs == 24 * result.cost.n_r + 4 * result.cost.n_b

    def test_supplied_initial_netlist(self):
        spec = _xor_spec()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=20, seed=8)
        result = synthesize(spec, config, initial=initial)
        assert result.verify()

    def test_gate_reduction_property(self):
        config = RcgpConfig(generations=300, mutation_rate=0.1, seed=9,
                            shrink="always")
        result = synthesize(_decoder_spec(), config)
        reduction = result.evolution.gate_reduction
        assert 0.0 <= reduction <= 1.0
