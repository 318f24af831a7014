"""Unit tests for the two-phase fitness evaluation (§3.2.1)."""

import random

import pytest

from repro.core.config import RcgpConfig
from repro.core.fitness import Evaluator, Fitness
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import TruthTable, tabulate_word
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


def _and_spec():
    return [TruthTable.from_function(lambda a, b: a & b, 2)]


def _and_netlist():
    netlist = RqfpNetlist(2)
    gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
    netlist.add_output(netlist.gate_output_port(gate, 2))
    return netlist


class TestFitnessOrdering:
    def test_success_dominates(self):
        good = Fitness(1.0, n_r=100, n_g=100, n_b=100)
        almost = Fitness(0.999, n_r=1, n_g=0, n_b=0)
        assert good > almost

    def test_lexicographic_priorities(self):
        """Gates first, then garbage, then buffers (paper's order)."""
        base = Fitness(1.0, n_r=5, n_g=5, n_b=5)
        assert Fitness(1.0, 4, 9, 9) > base
        assert Fitness(1.0, 5, 4, 9) > base
        assert Fitness(1.0, 5, 5, 4) > base
        assert not (Fitness(1.0, 6, 0, 0) > base)

    def test_equal_is_ge(self):
        a = Fitness(1.0, 3, 2, 1)
        b = Fitness(1.0, 3, 2, 1)
        assert a >= b and b >= a and not a > b

    def test_partial_success_compares_on_rate(self):
        assert Fitness(0.75) > Fitness(0.5)
        assert Fitness(0.5) >= Fitness(0.5)


class TestEvaluator:
    def test_correct_netlist_scores_functional(self):
        evaluator = Evaluator(_and_spec(), RcgpConfig())
        fitness = evaluator.evaluate(_and_netlist())
        assert fitness.functional
        assert fitness.n_r == 1
        assert fitness.n_g == 2

    def test_wrong_netlist_scores_below_one(self):
        netlist = RqfpNetlist(2)
        gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(gate, 0))  # wrong port
        evaluator = Evaluator(_and_spec(), RcgpConfig())
        fitness = evaluator.evaluate(netlist)
        assert not fitness.functional
        assert 0.0 < fitness.success < 1.0

    def test_success_rate_counts_bits(self):
        """One wrong pattern out of four -> 75 % bit success."""
        netlist = RqfpNetlist(2)
        netlist.add_output(1)  # y = a instead of a AND b
        evaluator = Evaluator(_and_spec(), RcgpConfig())
        assert evaluator.success_rate(netlist) == 0.75

    def test_inactive_gates_not_counted(self):
        netlist = _and_netlist()
        netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        evaluator = Evaluator(_and_spec(), RcgpConfig())
        fitness = evaluator.evaluate(netlist)
        assert fitness.n_r == 1  # dead gate ignored via shrink

    def test_po_fanout_violation_costed_as_splitters(self):
        """Two POs on one port must pay a splitter in n_r."""
        netlist = RqfpNetlist(2)
        gate = netlist.add_gate(1, 2, CONST_PORT, NORMAL_CONFIG)
        port = netlist.gate_output_port(gate, 2)
        netlist.add_output(port)
        netlist.add_output(port)
        spec = [_and_spec()[0], _and_spec()[0]]
        evaluator = Evaluator(spec, RcgpConfig())
        fitness = evaluator.evaluate(netlist)
        assert fitness.functional
        assert fitness.n_r == 2  # gate + legalization splitter

    def test_garbage_counted_on_active_netlist(self):
        evaluator = Evaluator(_and_spec(), RcgpConfig())
        fitness = evaluator.evaluate(_and_netlist())
        assert fitness.n_g == 2

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            Evaluator([], RcgpConfig())

    def test_mismatched_spec_rejected(self):
        with pytest.raises(ValueError):
            Evaluator([TruthTable.variable(0, 2),
                       TruthTable.variable(0, 3)], RcgpConfig())

    def test_finalize_produces_legal_equivalent(self):
        netlist = _and_netlist()
        netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        evaluator = Evaluator(_and_spec(), RcgpConfig())
        final = evaluator.finalize(netlist)
        final.validate(require_single_fanout=True)
        assert final.to_truth_tables() == _and_spec()


class TestSampledSimulationPath:
    """Force the non-exhaustive path with a tiny exhaustive limit."""

    def _config(self, **kw):
        return RcgpConfig(exhaustive_input_limit=1,
                          simulation_patterns=32, seed=3, **kw)

    def test_correct_netlist_verified_by_sat(self):
        evaluator = Evaluator(_and_spec(), self._config())
        assert not evaluator.exhaustive
        fitness = evaluator.evaluate(_and_netlist())
        assert fitness.functional
        assert evaluator.sat_calls >= 1

    def test_wrong_netlist_rejected(self):
        netlist = RqfpNetlist(2)
        netlist.add_output(1)
        evaluator = Evaluator(_and_spec(), self._config())
        fitness = evaluator.evaluate(netlist)
        assert not fitness.functional

    def test_counterexample_strengthens_patterns(self):
        """A sim-clean but wrong candidate adds its counterexample."""
        spec = tabulate_word(lambda x: int(x == 7), 3, 1)
        config = RcgpConfig(exhaustive_input_limit=1,
                            simulation_patterns=4, seed=5)
        evaluator = Evaluator(spec, config)
        # Candidate constant-0 differs only at pattern 7.
        netlist = RqfpNetlist(3)
        gate = netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT,
                                0b111_111_111)  # M(!1,!1,!1) = 0
        netlist.add_output(netlist.gate_output_port(gate, 0))
        before = len(evaluator._patterns)
        fitness = evaluator.evaluate(netlist)
        if not fitness.functional and evaluator.sat_calls:
            assert len(evaluator._patterns) >= before

    def test_sat_disabled_trusts_simulation(self):
        evaluator = Evaluator(_and_spec(), self._config(verify_with_sat=False))
        fitness = evaluator.evaluate(_and_netlist())
        assert fitness.functional
        assert evaluator.sat_calls == 0


class TestVerdictMemo:
    """Sampled fitness remembers formal verdicts by active genome."""

    @pytest.fixture(autouse=True)
    def _solver_decides(self, monkeypatch):
        # These specs are narrow enough for the exhaustive formal leg;
        # the counts below are of solver calls.
        from repro.core import fitness as fitness_module
        monkeypatch.setattr(fitness_module, "EXHAUSTIVE_FORMAL_LIMIT", 0)

    def _config(self, **kw):
        return RcgpConfig(exhaustive_input_limit=1,
                          simulation_patterns=32, seed=3, **kw)

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls

    def test_repeated_active_circuit_checked_once(self, monkeypatch):
        from repro.core import fitness as fitness_module
        from repro.core.kernel import NetlistKernel
        checks = self._count(monkeypatch, fitness_module,
                             "check_against_tables")
        evaluator = Evaluator(_and_spec(), self._config())
        first = evaluator.evaluate(_and_netlist())
        # An extra inactive gate shrinks away: same active circuit, and
        # the kernel form has the same genome as the netlist form.
        padded = _and_netlist()
        padded.add_gate(1, 1, 2, NORMAL_CONFIG)
        second = evaluator.evaluate(padded)
        third = evaluator.evaluate(NetlistKernel.from_netlist(padded))
        assert first.functional
        assert (second.n_r, second.n_g, second.n_b) == \
            (first.n_r, first.n_g, first.n_b)
        assert third == first
        assert len(checks) == 1
        assert evaluator.sat_calls == 3

    def test_sat_verdict_adds_counterexample(self, monkeypatch):
        from repro.core import fitness as fitness_module
        checks = self._count(monkeypatch, fitness_module,
                             "check_against_tables")
        spec = tabulate_word(lambda x: int(x == 7), 3, 1)
        evaluator = Evaluator(spec, RcgpConfig(
            exhaustive_input_limit=1, simulation_patterns=4, seed=5))
        assert 7 not in evaluator._patterns
        netlist = RqfpNetlist(3)
        gate = netlist.add_gate(CONST_PORT, CONST_PORT, CONST_PORT,
                                0b111_111_111)  # constant 0
        netlist.add_output(netlist.gate_output_port(gate, 0))
        assert not evaluator.evaluate(netlist).functional
        assert evaluator._patterns[-1] == 7
        # The counterexample now fails the circuit in simulation, so no
        # second formal check is asked for.
        assert evaluator.evaluate(netlist).success < 1.0
        assert len(checks) == 1
        assert evaluator.sat_calls == 1

    def test_simulation_verdicts_are_remembered(self, monkeypatch):
        from repro.core import fitness as fitness_module
        monkeypatch.setattr(fitness_module, "EXHAUSTIVE_FORMAL_LIMIT", 20)
        checks = self._count(monkeypatch, fitness_module,
                             "check_against_tables")
        calls = self._count(monkeypatch, Evaluator, "_simulates_spec")
        evaluator = Evaluator(_and_spec(), self._config())
        assert evaluator.evaluate(_and_netlist()).functional
        assert evaluator.evaluate(_and_netlist()).functional
        assert len(calls) == 1 and checks == []
        assert evaluator.sat_calls == 2

    def test_table_never_grows_past_its_bound(self, monkeypatch):
        from repro.core import fitness as fitness_module
        monkeypatch.setattr(fitness_module, "VERDICT_MEMO_SIZE", 2)
        checks = self._count(monkeypatch, fitness_module,
                             "check_against_tables")
        evaluator = Evaluator(_and_spec(), self._config())
        # Four genomes of one AND: the constant in each input position
        # (each output inverts its own position), then the inputs swapped.
        netlists = []
        for inputs, output in (((CONST_PORT, 1, 2), 0),
                               ((1, CONST_PORT, 2), 1),
                               ((1, 2, CONST_PORT), 2),
                               ((2, 1, CONST_PORT), 2)):
            netlist = RqfpNetlist(2)
            gate = netlist.add_gate(*inputs, NORMAL_CONFIG)
            netlist.add_output(netlist.gate_output_port(gate, output))
            netlists.append(netlist)
        for netlist in netlists:
            assert evaluator._formally_equivalent(netlist)
            assert len(evaluator._verdicts) <= 2
        assert len(checks) == 4
        # Oldest first out: the last two are remembered, the first is not.
        evaluator._formally_equivalent(netlists[3])
        evaluator._formally_equivalent(netlists[2])
        assert len(checks) == 4
        evaluator._formally_equivalent(netlists[0])
        assert len(checks) == 5
        assert evaluator.sat_calls == 7


class TestExhaustiveFormalLeg:
    """Up to ``EXHAUSTIVE_FORMAL_LIMIT`` inputs exhaustive simulation
    decides the formal leg; the miter runs only to supply the
    counterexample of an inequivalent candidate."""

    @staticmethod
    def _onehot12():
        from repro.bench.extras import one_hot_checker
        spec = one_hot_checker(12)
        return spec, initialize_netlist(spec, "onehot12")

    @staticmethod
    def _sampled(spec, **kw):
        return Evaluator(spec, RcgpConfig(exhaustive_input_limit=8, seed=1,
                                          **kw))

    @staticmethod
    def _mutants(netlist, count, seed):
        from repro.core.kernel import NetlistKernel
        from repro.core.mutation import mutate_with_delta
        parent = NetlistKernel.from_netlist(netlist)
        config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8)
        rng = random.Random(seed)
        return [mutate_with_delta(parent, rng, config)[0].shrink()
                for _ in range(count)]

    def test_verdict_and_counterexample_match_the_miter(self):
        from repro.core import fitness as fitness_module
        from repro.core.kernel import NetlistKernel
        from repro.sat.equivalence import check_against_tables
        spec, netlist = self._onehot12()
        assert spec[0].num_vars <= fitness_module.EXHAUSTIVE_FORMAL_LIMIT
        candidates = [NetlistKernel.from_netlist(netlist).shrink()]
        candidates += self._mutants(netlist, 20, seed=12)
        verdicts = []
        for active in candidates:
            evaluator = self._sampled(spec)
            before = list(evaluator._patterns)
            verdict = evaluator._formally_equivalent(active)
            result = check_against_tables(
                active.to_netlist().encoder(), spec,
                conflict_budget=evaluator.config.sat_conflict_budget)
            assert verdict == (result.equivalent is True)
            added = [] if result.counterexample is None \
                else [result.counterexample]
            assert evaluator._patterns == before + added
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_miter_runs_only_for_inequivalent_candidates(self, monkeypatch):
        from repro.core import fitness as fitness_module
        checks = TestVerdictMemo._count(monkeypatch, fitness_module,
                                        "check_against_tables")
        spec, netlist = self._onehot12()
        wrong = next(m for m in self._mutants(netlist, 20, seed=12)
                     if m.to_netlist().to_truth_tables() != spec)
        evaluator = self._sampled(spec)
        assert evaluator._formally_equivalent(netlist.shrink())
        assert checks == []
        assert not evaluator._formally_equivalent(wrong)
        assert len(checks) == 1
        assert evaluator.sat_calls == 2

    def test_chunked_path_agrees_with_truth_tables(self):
        rng = random.Random(18)

        def random_netlist(outputs=None):
            netlist = RqfpNetlist(18)
            for _ in range(12):
                limit = netlist.num_ports()
                netlist.add_gate(rng.randrange(limit), rng.randrange(limit),
                                 rng.randrange(limit), rng.randrange(512))
            # Ports 17 and 18 are inputs x16 and x17, constant per chunk.
            for port in outputs or (17, 18, rng.randrange(19, 55),
                                    rng.randrange(19, 55)):
                netlist.add_output(port)
            return netlist

        netlist = random_netlist()
        spec = netlist.to_truth_tables()
        evaluator = Evaluator(spec, RcgpConfig(exhaustive_input_limit=8))
        padded = netlist.copy()
        padded.add_gate(1, 2, 3, NORMAL_CONFIG)
        candidates = [netlist, padded, netlist.shrink()]
        candidates += [random_netlist(netlist.outputs) for _ in range(4)]
        candidates += [random_netlist() for _ in range(4)]
        verdicts = [evaluator._simulates_spec(c) for c in candidates]
        assert verdicts == [c.to_truth_tables() == spec for c in candidates]
        assert True in verdicts and False in verdicts
        # One flipped bit in each 2**16-pattern chunk, on every output.
        for chunk in range(4):
            for o in range(len(spec)):
                pattern = (chunk << 16) | rng.getrandbits(16)
                flipped = list(spec)
                flipped[o] = TruthTable(18, spec[o].bits ^ (1 << pattern))
                assert not Evaluator(flipped, evaluator.config) \
                    ._simulates_spec(netlist)

    def test_budget_run_out_no_longer_rejects(self):
        spec, netlist = self._onehot12()
        evaluator = self._sampled(spec, sat_conflict_budget=1)
        assert evaluator.evaluate(netlist).functional
        assert evaluator.sat_calls == 1

    def test_solver_decides_above_the_limit(self, monkeypatch):
        from repro.core import fitness as fitness_module
        monkeypatch.setattr(fitness_module, "EXHAUSTIVE_FORMAL_LIMIT", 11)
        checks = TestVerdictMemo._count(monkeypatch, fitness_module,
                                        "check_against_tables")
        spec, netlist = self._onehot12()
        assert self._sampled(spec).evaluate(netlist).functional
        # The budget run-out rejects again, as it did before the limit.
        assert not self._sampled(spec, sat_conflict_budget=1) \
            .evaluate(netlist).functional
        assert len(checks) == 2
