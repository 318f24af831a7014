"""Flat structure-of-arrays kernel: bit-exactness properties.

The contract under test: :class:`NetlistKernel` is an alternative
*representation* of the same chromosome, never an approximation.  Every
operation the fitness function relies on — simulation, the tracked
cone sweep, shrink, levels, the fused buffer estimate, fan-out counts,
mutation, genome encoding — must match the object netlist bit for bit,
over random netlists x random mutation chains; and the engine, which
runs on kernels only, must match a textbook loop on object netlists.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.bench.random_circuits import random_rqfp
from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, decode_genome, encode_genome
from repro.core.fitness import Evaluator, Fitness
from repro.core.kernel import NetlistKernel
from repro.core.mutation import mutate_with_delta, port_readers
from repro.core.synthesis import initialize_netlist
from repro.logic.bitops import full_mask, variable_pattern
from repro.rqfp.buffers import estimate_buffers
from repro.rqfp.netlist import CONST_PORT
from repro.rqfp.splitters import insert_splitters
from tests.reference_loop import engine_signature, textbook_run

pytestmark = []


def _words(num_inputs):
    return ([variable_pattern(i, num_inputs) for i in range(num_inputs)],
            full_mask(num_inputs))


def _mutation_config(**kwargs):
    base = dict(mutation_rate=0.25, max_mutated_genes=6, seed=5)
    base.update(kwargs)
    return RcgpConfig(**base)


class TestRoundTrips:
    def test_netlist_round_trip(self):
        for trial in range(20):
            netlist = random_rqfp(4, 12, 3, random.Random(trial))
            kernel = NetlistKernel.from_netlist(netlist)
            back = kernel.to_netlist()
            assert encode_genome(back) == encode_genome(netlist)
            assert back.input_names == netlist.input_names
            assert back.output_names == netlist.output_names
            assert back.name == netlist.name

    def test_genome_round_trip(self):
        for trial in range(20):
            netlist = random_rqfp(5, 10, 4, random.Random(50 + trial))
            genome = encode_genome(netlist)
            kernel = NetlistKernel.from_genome(genome)
            assert kernel.to_genome() == genome
            assert encode_genome(kernel) == genome
            assert encode_genome(decode_genome(genome)) == genome

    def test_copy_is_independent(self):
        kernel = NetlistKernel.from_netlist(
            random_rqfp(3, 8, 2, random.Random(1)))
        clone = kernel.copy()
        clone.in0[0] = (kernel.in0[0] + 1) % 4
        clone.outputs[0] = 0
        assert kernel.to_genome() != clone.to_genome()

    def test_shape_properties(self):
        netlist = random_rqfp(4, 9, 3, random.Random(2))
        kernel = NetlistKernel.from_netlist(netlist)
        assert kernel.num_inputs == netlist.num_inputs
        assert kernel.num_gates == netlist.num_gates
        assert kernel.num_outputs == netlist.num_outputs
        assert kernel.num_ports() == netlist.num_ports()
        assert kernel.first_gate_port(0) == netlist.first_gate_port(0)
        assert kernel.first_gate_port(5) == netlist.first_gate_port(5)


class TestStructuralEquality:
    """Every structural sweep matches the object netlist, for random
    netlists and for mutants thereof (exercising garbage gates,
    multi-fanout ports, and constant inputs)."""

    def _pairs(self, count=25):
        config = _mutation_config()
        for trial in range(count):
            rng = random.Random(300 + trial)
            netlist = random_rqfp(4, 14, 3, rng)
            if trial % 2:
                netlist, _ = mutate_with_delta(netlist, rng, config)
            yield netlist, NetlistKernel.from_netlist(netlist)

    def test_simulate_matches(self):
        for netlist, kernel in self._pairs():
            words, mask = _words(netlist.num_inputs)
            assert kernel.simulate(words, mask) == \
                netlist.simulate(words, mask)
            assert kernel.simulate_ports(words, mask) == \
                netlist.simulate_ports(words, mask)

    def test_levels_depth_match(self):
        for netlist, kernel in self._pairs():
            assert kernel.levels() == netlist.levels()
            assert kernel.depth() == netlist.depth()

    def test_estimate_buffers_matches(self):
        for netlist, kernel in self._pairs():
            assert kernel.estimate_buffers() == estimate_buffers(netlist)
            assert kernel.estimate_buffers() == netlist.estimate_buffers()

    def test_fanout_counts_match(self):
        for netlist, kernel in self._pairs():
            assert kernel.fanout_counts_flat() == \
                netlist.fanout_counts_flat()

    def test_reachable_and_shrink_match(self):
        for netlist, kernel in self._pairs():
            assert kernel.reachable_gates() == netlist.reachable_gates()
            assert kernel.shrink().to_genome() == \
                NetlistKernel.from_netlist(netlist.shrink()).to_genome()

    def test_port_readers_match(self):
        """The reader table says what the netlist's consumer map says,
        for shared-port netlists and for legal fan-out ones."""
        legal = [insert_splitters(random_rqfp(4, 14, 3, random.Random(t),
                                              legal_fanout=True))
                 for t in range(10)]
        shared = 0
        for netlist in [n for n, _ in self._pairs()] + legal:
            table = port_readers(NetlistKernel.from_netlist(netlist))
            gates = {}
            outputs = {}
            for port, users in netlist.consumers().items():
                if port == CONST_PORT:
                    continue
                for kind, index, position in users:
                    if kind == "gate":
                        gates.setdefault(port, []).append(4 * index
                                                          + position)
                    else:
                        outputs.setdefault(port, []).append(index)
            assert table.outputs == outputs
            assert table.limits == tuple(netlist.first_gate_port(g)
                                         for g in range(netlist.num_gates))
            assert table.limit_bits == tuple(limit.bit_length()
                                             for limit in table.limits)
            assert table.shared == any(len(genes) > 1
                                       for genes in gates.values())
            shared += table.shared
            if not table.shared:
                assert list(table.reader) == [
                    gates[port][0] if port in gates else -1
                    for port in range(netlist.num_ports())]
        assert 0 < shared < 35


class TestConeResimulation:
    def test_resimulate_cone_matches_full(self):
        """The tracked scan leaves every port at the child's fully
        simulated value."""
        config = _mutation_config()
        for trial in range(25):
            rng = random.Random(600 + trial)
            parent = NetlistKernel.from_netlist(random_rqfp(4, 14, 3, rng))
            words, mask = _words(parent.num_inputs)
            base = parent.simulate_ports(words, mask)
            child, delta = mutate_with_delta(parent, rng, config)
            values = base.copy()
            child.resimulate_cone_tracked(values, mask, delta.touched_gates)
            assert values == child.simulate_ports(words, mask)

    def test_tracked_resim_matches_and_restores(self):
        """The tracked in-place scan produces the same values and the
        same recompute counter as the object netlist's cone, and the
        undo log restores the parent vector exactly."""
        config = _mutation_config()
        for trial in range(25):
            rng = random.Random(900 + trial)
            parent = NetlistKernel.from_netlist(random_rqfp(4, 14, 3, rng))
            words, mask = _words(parent.num_inputs)
            base = parent.simulate_ports(words, mask)
            child, delta = mutate_with_delta(parent, rng, config)

            copied = base.copy()
            counted = child.to_netlist().resimulate_cone(
                copied, mask, delta.touched_gates)
            tracked = base.copy()
            counted2, undo = child.resimulate_cone_tracked(
                tracked, mask, delta.touched_gates)
            assert tracked == copied
            assert counted2 == counted
            for port, word in undo:
                tracked[port] = word
            assert tracked == base

    def test_tracked_resim_with_zipped_genes(self):
        config = _mutation_config()
        rng = random.Random(77)
        parent = NetlistKernel.from_netlist(random_rqfp(4, 12, 3, rng))
        words, mask = _words(parent.num_inputs)
        base = parent.simulate_ports(words, mask)
        child, delta = mutate_with_delta(parent, rng, config)
        zipped = list(zip(child.in0, child.in1, child.in2, child.config))
        values = base.copy()
        child.resimulate_cone_tracked(values, mask, delta.touched_gates,
                                      zipped)
        assert values == child.simulate_ports(words, mask)


class TestMutationEquivalence:
    def test_same_rng_stream_same_mutant(self):
        """Point mutation draws from the RNG in the identical order for
        both representations, so mutants are bit-identical."""
        config = _mutation_config()
        for trial in range(25):
            netlist = random_rqfp(4, 12, 3, random.Random(40 + trial))
            kernel = NetlistKernel.from_netlist(netlist)
            child_n, delta_n = mutate_with_delta(
                netlist, random.Random(trial), config)
            child_k, delta_k = mutate_with_delta(
                kernel, random.Random(trial), config)
            assert isinstance(child_k, NetlistKernel)
            assert encode_genome(child_k) == encode_genome(child_n)
            assert delta_k == delta_n
            assert delta_k.apply_to(kernel).to_genome() == \
                encode_genome(child_n)

    def test_brood_leaves_shared_table_unchanged(self):
        config = _mutation_config()
        for trial in range(15):
            rng = random.Random(70 + trial)
            netlist = random_rqfp(4, 12, 3, rng, legal_fanout=trial % 3 > 0)
            kernel = NetlistKernel.from_netlist(netlist)
            before = kernel.to_genome()
            table = port_readers(kernel)
            for i in range(4):
                mutate_with_delta(kernel, random.Random(10 * trial + i),
                                  config, consumers=table, rollback=True)
            assert kernel.to_genome() == before
            assert table == port_readers(kernel)


class TestEvaluatorEquality:
    def test_full_evaluation_matches(self):
        config = _mutation_config()
        for trial in range(10):
            rng = random.Random(2000 + trial)
            netlist = random_rqfp(4, 15, 3, rng)
            spec = netlist.to_truth_tables()
            flat = Evaluator(spec, config).evaluate(
                NetlistKernel.from_netlist(netlist))
            obj = Evaluator(spec, config).evaluate(netlist)
            assert flat.key() == obj.key()

    def test_incremental_chain_matches_object_path(self):
        """Mutation chains from an evolving parent: flat incremental
        fitness == object incremental fitness == full fitness, and the
        ports_resimulated counters agree.  A second pass with a
        functional floor: both paths stop at the same output, so keys
        and counters agree, and the verdict is a full evaluation's."""
        config = _mutation_config()
        for floor in (None, Fitness(1.0)):
            for trial in range(8):
                outer = random.Random(3000 + trial)
                netlist = random_rqfp(4, 15, 3, outer)
                spec = netlist.to_truth_tables()
                kernel = NetlistKernel.from_netlist(netlist)
                ev_obj = Evaluator(spec, config)
                ev_flat = Evaluator(spec, config)
                reference = Evaluator(spec, config)
                state_obj = ev_obj.prepare_parent(netlist)
                state_flat = ev_flat.prepare_parent(kernel)
                for step in range(6):
                    seed = outer.getrandbits(32)
                    child_n, delta_n = mutate_with_delta(
                        netlist, random.Random(seed), config)
                    child_k, delta_k = mutate_with_delta(
                        kernel, random.Random(seed), config)
                    f_obj = ev_obj.evaluate_incremental(child_n, delta_n,
                                                        state_obj, floor)
                    f_flat = ev_flat.evaluate_incremental(child_k, delta_k,
                                                          state_flat, floor)
                    full = reference.evaluate(child_n)
                    assert f_flat.key() == f_obj.key()
                    assert f_flat.functional == full.functional
                    if floor is None or full.functional:
                        assert f_flat.key() == full.key()
                    netlist, kernel = child_n, child_k
                    state_obj = ev_obj.prepare_parent(netlist)
                    state_flat = ev_flat.prepare_parent(kernel)
                assert ev_flat.ports_resimulated == ev_obj.ports_resimulated

    def test_finalize_returns_netlist(self):
        netlist = random_rqfp(4, 10, 3, random.Random(8))
        spec = netlist.to_truth_tables()
        evaluator = Evaluator(spec, _mutation_config())
        final = evaluator.finalize(NetlistKernel.from_netlist(netlist))
        assert final.describe() == evaluator.finalize(netlist).describe()

    def test_check_kernel_env_flag(self):
        """RCGP_CHECK_KERNEL verifies every kernel evaluation against
        the object netlist (and passes on correct code)."""
        env = dict(os.environ)
        env["RCGP_CHECK_KERNEL"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        code = (
            "import random\n"
            "from repro.bench.random_circuits import random_rqfp\n"
            "from repro.core.config import RcgpConfig\n"
            "from repro.core.fitness import Evaluator\n"
            "from repro.core.kernel import NetlistKernel\n"
            "from repro.core.mutation import mutate_with_delta\n"
            "rng = random.Random(3)\n"
            "netlist = random_rqfp(4, 12, 3, rng)\n"
            "parent = NetlistKernel.from_netlist(netlist)\n"
            "config = RcgpConfig(mutation_rate=0.3, max_mutated_genes=5,"
            " seed=1)\n"
            "ev = Evaluator(netlist.to_truth_tables(), config)\n"
            "assert ev._check_kernel\n"
            "state = ev.prepare_parent(parent)\n"
            "for _ in range(10):\n"
            "    child, delta = mutate_with_delta(parent, rng, config)\n"
            "    ev.evaluate_incremental(child, delta, state)\n"
            "    ev.evaluate(child)\n"
            "print('checked', ev.evaluations)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=240)
        assert result.returncode == 0, result.stderr
        assert "checked 20" in result.stdout


class TestCounterexampleMasking:
    """Satellite regression: ``add_counterexample`` must mask the
    pattern to the input width unconditionally — a counterexample is an
    n-bit input assignment, and stray high bits (from any decoder)
    previously survived whenever ``num_inputs >= 31``."""

    def _sampled_evaluator(self, spec):
        config = RcgpConfig(exhaustive_input_limit=2, verify_with_sat=False,
                            simulation_patterns=64, seed=9,
                            mutation_rate=0.2, max_mutated_genes=4)
        return Evaluator(spec, config, random.Random(9))

    def test_stray_high_bits_are_masked(self):
        netlist = random_rqfp(4, 10, 3, random.Random(31))
        spec = netlist.to_truth_tables()
        clean = self._sampled_evaluator(spec)
        stray = self._sampled_evaluator(spec)
        clean.add_counterexample(5)
        stray.add_counterexample(5 | (1 << 40))
        assert stray._patterns == clean._patterns
        assert stray._words == clean._words
        assert stray._expected == clean._expected
        assert stray._mask == clean._mask
        # Identical epoch bookkeeping: both evaluators agree on fitness.
        child = random_rqfp(4, 10, 3, random.Random(32))
        assert stray.evaluate(child).key() == clean.evaluate(child).key()


class TestEngineEquality:
    """The flat-kernel engine against the textbook loop on object
    netlists (``tests/reference_loop.py``)."""

    def _both(self, name, initial=None, **kwargs):
        spec = get_benchmark(name).spec()
        if initial is None:
            initial = initialize_netlist(spec, name)
        config = RcgpConfig(track_history=True, **kwargs)
        flat = EvolutionRun(spec, config, initial=initial, name=name).run()
        return engine_signature(flat), textbook_run(spec, config, initial)

    def test_flat_run_matches_object_run(self):
        flat, obj = self._both("decoder_2_4", generations=60, offspring=4,
                               mutation_rate=0.2, max_mutated_genes=4,
                               seed=77)
        assert flat == obj

    def test_flat_run_matches_with_cache_disabled(self):
        flat, obj = self._both("decoder_2_4", generations=60, offspring=4,
                               mutation_rate=0.2, max_mutated_genes=4,
                               seed=77, eval_cache_size=0)
        assert flat == obj

    def test_flat_run_on_benchmark_seed(self):
        flat, obj = self._both("ham3", generations=40, offspring=4, seed=11,
                               mutation_rate=0.15, max_mutated_genes=4)
        assert flat == obj

    @pytest.mark.slow
    def test_flat_pool_matches_serial(self):
        """workers=2 with the flat kernel is bit-identical to serial."""
        benchmark = get_benchmark("decoder_2_4")
        spec = benchmark.spec()
        config = RcgpConfig(generations=25, offspring=8, mutation_rate=0.2,
                            max_mutated_genes=4, seed=31, workers=2)
        pooled = EvolutionRun(spec, config, name="decoder_2_4").run()
        serial = EvolutionRun(
            spec, config.replace(workers=0), name="decoder_2_4").run()
        assert pooled.fitness.key() == serial.fitness.key()
        assert pooled.netlist.describe() == serial.netlist.describe()
