"""Wire codec round-trips and scheduled-sweep bit-identity.

Two contracts live here.  First, every ``pack_*`` in
``repro.core.wire`` has an exact ``unpack_*`` inverse — the pool
transport may never lose or reorder a gene, delta or span field.  Second, the worklist cone sweep the span-resident replay
loop uses (:meth:`NetlistKernel.resimulate_cone_scheduled` behind
:meth:`SimulationState.enable_fanout_index`) is bit-identical to the
index-ordered scan: same recomputed-port counter, same changed ports in
the same order, same values, same fitness through
``evaluate_incremental`` — with the engine's floor too, where both
sweeps stop at the first wrong output.
"""

import random

import pytest

from repro.bench.random_circuits import random_rqfp
from repro.core import wire
from repro.core.config import RcgpConfig
from repro.core.fitness import Evaluator
from repro.core.kernel import NetlistKernel
from repro.core.mutation import MutationDelta, mutate_with_delta


def _mutation_config(**kwargs):
    base = dict(mutation_rate=0.2, max_mutated_genes=6, seed=5)
    base.update(kwargs)
    return RcgpConfig(**base)


def _random_deltas(trials=40):
    """Real mutation deltas off random netlists (plus the empty one)."""
    config = _mutation_config()
    deltas = [MutationDelta()]
    for trial in range(trials):
        parent = random_rqfp(4, 10, 3, random.Random(500 + trial))
        _, delta = mutate_with_delta(parent, random.Random(trial), config)
        deltas.append(delta)
    return deltas


class TestCodecRoundTrips:
    def test_genome_round_trip(self):
        rng = random.Random(21)
        for _ in range(50):
            genome = tuple(rng.randrange(-4, 1 << 20)
                           for _ in range(rng.randrange(0, 120)))
            assert wire.unpack_genome(wire.pack_genome(genome)) == genome

    def test_delta_round_trip(self):
        deltas = _random_deltas()
        packed = wire.pack_deltas(deltas)
        assert isinstance(packed, bytes)
        assert wire.unpack_deltas(packed) == deltas

    @pytest.mark.parametrize("with_check", [False, True])
    def test_span_request_round_trip(self, with_check):
        deltas = _random_deltas(trials=6) if with_check else None
        request = wire.SpanRequest(
            base_seed=2024, start_gen=4097, count=33,
            parent_fitness=(0.875, 12, 7, 3),
            parent_genome=tuple(range(90)),
            check_deltas=deltas)
        rebuilt = wire.unpack_span_request(wire.pack_span_request(request))
        assert rebuilt.base_seed == request.base_seed
        assert rebuilt.start_gen == request.start_gen
        assert rebuilt.count == request.count
        assert rebuilt.parent_fitness == request.parent_fitness
        assert rebuilt.parent_genome == request.parent_genome
        if with_check:
            assert list(rebuilt.check_deltas) == list(deltas)
        else:
            assert rebuilt.check_deltas is None

    def test_span_result_round_trip(self):
        rng = random.Random(24)
        records = tuple(
            (bool(rng.getrandbits(1)),
             (rng.random(), rng.randrange(99), rng.randrange(99),
              rng.randrange(99)),
             (rng.randrange(50), rng.randrange(50), rng.randrange(5000)))
            for _ in range(17))
        for child, final in ((None, None), (tuple(range(30)), None),
                             (None, tuple(range(12))),
                             (tuple(range(8)), tuple(range(9)))):
            result = wire.SpanResult(records=records, improved=child
                                     is not None, child_genome=child,
                                     final_genome=final)
            rebuilt = wire.unpack_span_result(wire.pack_span_result(result))
            assert rebuilt == result

    @pytest.mark.parametrize("seed", [0, -1, 127, 128, 2**63 - 1,
                                      2**63, -(2**63) - 1, 3**90])
    def test_span_request_carries_any_seed(self, seed):
        request = wire.SpanRequest(
            base_seed=seed, start_gen=1, count=2,
            parent_fitness=(1.0, 3, 2, 1), parent_genome=(2, 0, 1, 2))
        assert wire.unpack_span_request(
            wire.pack_span_request(request)) == request

    def test_job_span_round_trip_and_head(self):
        deltas = _random_deltas(trials=5)[:6]
        request = wire.SpanRequest(
            base_seed=7, start_gen=10, count=3,
            parent_fitness=(1.0, 4, 3, 2), parent_genome=tuple(range(20)),
            check_deltas=deltas)
        ctx, rebuilt = wire.unpack_job_span(
            wire.pack_job_span(b"context", request))
        assert ctx == b"context"
        assert rebuilt.base_seed == request.base_seed
        assert list(rebuilt.check_deltas) == deltas
        head = request.head(1)
        assert (head.start_gen, head.count) == (10, 1)
        assert list(head.check_deltas) == deltas[:2]
        assert request.head(5) is request

    def test_compactness(self):
        """The codec is a dense dump: eight bytes per gene, no pickle
        framing."""
        genome = tuple(range(200))
        assert len(wire.pack_genome(genome)) == 8 * len(genome)


class TestScheduledSweepIdentity:
    """Worklist sweep == index-ordered scan, property-tested."""

    def _check_parent(self, netlist, seed, mutants):
        parent = NetlistKernel.from_netlist(netlist)
        spec = netlist.to_truth_tables()
        config = _mutation_config(seed=seed)
        evaluator = Evaluator(spec, config)
        floor = evaluator.evaluate(parent)
        assert floor.functional
        scan_state = evaluator.prepare_parent(parent)
        sched_state = evaluator.prepare_parent(parent)
        sched_state.enable_fanout_index()
        # Span mode restores from a pristine copy of the parent vector.
        assert scan_state._pristine is None
        assert sched_state._pristine is not None
        rng = random.Random(seed)
        for _ in range(mutants):
            child, delta = mutate_with_delta(parent, rng, config)
            child = NetlistKernel.from_netlist(child) \
                if not isinstance(child, NetlistKernel) else child
            touched = delta.touched_gates
            v1, r1, u1 = scan_state.child_values_tracked(child, touched)
            snap1 = v1.copy()
            scan_state.restore(u1)
            v2, r2, u2 = sched_state.child_values_tracked(child, touched)
            snap2 = v2.copy()
            sched_state.restore(u2)
            assert snap1 == snap2
            assert r1 == r2
            # Same changed ports, same order (scan logs tuples, the
            # worklist logs bare ports).
            assert [p for p, _ in u1] == list(u2)
            # Both restores land back on the pristine parent vector.
            assert scan_state.values == sched_state.values
            assert sched_state.values == sched_state._pristine
            # And the full incremental pipeline agrees on fitness.
            f1 = evaluator.evaluate_incremental(child, delta, scan_state)
            f2 = evaluator.evaluate_incremental(child, delta, sched_state)
            assert f1.key() == f2.key()
            # With the engine's floor both sweeps stop at the same gate:
            # same verdict, same counter, both vectors restored.
            start = evaluator.ports_resimulated
            e1 = evaluator.evaluate_incremental(child, delta, scan_state,
                                                floor)
            mid = evaluator.ports_resimulated
            e2 = evaluator.evaluate_incremental(child, delta, sched_state,
                                                floor)
            assert e1.key() == e2.key()
            assert mid - start == evaluator.ports_resimulated - mid
            assert scan_state.values == sched_state.values \
                == sched_state._pristine

    def test_random_netlists(self):
        for trial in range(8):
            netlist = random_rqfp(4, 24, 4, random.Random(900 + trial))
            self._check_parent(netlist, seed=trial, mutants=25)

    def test_benchmark_circuit(self):
        from repro.bench.registry import get_benchmark
        from repro.core.synthesis import initialize_netlist
        benchmark = get_benchmark("intdiv9")
        netlist = initialize_netlist(benchmark.spec(), benchmark.name)
        self._check_parent(netlist, seed=11, mutants=60)

    def test_counters_match_through_evaluator(self):
        """eval_incremental / ports_resimulated counters agree between
        the two sweeps across a mutation sequence."""
        netlist = random_rqfp(4, 20, 3, random.Random(77))
        parent = NetlistKernel.from_netlist(netlist)
        spec = netlist.to_truth_tables()
        config = _mutation_config(seed=13)
        ev1 = Evaluator(spec, config)
        ev2 = Evaluator(spec, config)
        s1 = ev1.prepare_parent(parent)
        s2 = ev2.prepare_parent(parent)
        s2.enable_fanout_index()
        rng = random.Random(13)
        for _ in range(40):
            child, delta = mutate_with_delta(parent, rng, config)
            ev1.evaluate_incremental(child, delta, s1)
            ev2.evaluate_incremental(child, delta, s2)
        assert ev1.eval_incremental == ev2.eval_incremental
        assert ev1.ports_resimulated == ev2.ports_resimulated
