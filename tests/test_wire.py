"""Wire codec round-trips.

Every ``pack_*`` in ``repro.core.wire`` has an exact ``unpack_*``
inverse — the pool transport may never lose or reorder a gene, delta or
span field.
"""

import random

import pytest

from repro.bench.random_circuits import random_rqfp
from repro.core import wire
from repro.core.config import RcgpConfig
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
