"""A4 — substrate micro-benchmarks.

Timing of the primitives the RCGP loop is built from: bit-parallel
netlist simulation, mutation, shrink, splitter legalization, buffer
scheduling, ISOP covers and CDCL solving.  These use real
pytest-benchmark statistics (multiple rounds) since each call is fast.
"""

import random

import pytest

from repro.bench.reciprocal import intdiv
from repro.core.config import RcgpConfig
from repro.core.fitness import Evaluator
from repro.core.mutation import mutate_with_delta
from repro.core.synthesis import initialize_netlist
from repro.logic.bitops import full_mask, variable_pattern
from repro.logic.isop import isop
from repro.logic.truth_table import TruthTable
from repro.rqfp.buffers import estimate_buffers
from repro.rqfp.splitters import insert_splitters
from repro.sat.cnf import CNF
from repro.sat.solver import Solver


@pytest.fixture(scope="module")
def intdiv6_netlist():
    return initialize_netlist(intdiv(6), "intdiv6")


def test_bitparallel_simulation(benchmark, intdiv6_netlist):
    """Exhaustive 64-pattern simulation of a ~50-gate netlist."""
    n = intdiv6_netlist.num_inputs
    words = [variable_pattern(i, n) for i in range(n)]
    mask = full_mask(n)
    benchmark(intdiv6_netlist.simulate, words, mask)


def test_fitness_evaluation(benchmark, intdiv6_netlist):
    evaluator = Evaluator(intdiv(6), RcgpConfig(seed=0))
    benchmark(evaluator.evaluate, intdiv6_netlist)


def test_mutation_throughput(benchmark, intdiv6_netlist):
    rng = random.Random(0)
    config = RcgpConfig(mutation_rate=0.05)
    benchmark(mutate_with_delta, intdiv6_netlist, rng, config)


def test_shrink(benchmark, intdiv6_netlist):
    benchmark(intdiv6_netlist.shrink)


def test_splitter_insertion(benchmark):
    from repro.networks.convert import tables_to_mig
    from repro.rqfp.from_mig import mig_to_rqfp
    raw = mig_to_rqfp(tables_to_mig(intdiv(6)))
    benchmark(insert_splitters, raw)


def test_isop_8var(benchmark):
    rng = random.Random(1)
    table = TruthTable(8, rng.getrandbits(256))
    benchmark(isop, table)


def test_cdcl_random_3sat(benchmark):
    """A satisfiable-ish random 3-SAT instance at clause ratio 4.0."""
    rng = random.Random(7)
    nv, nc = 40, 160
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(3)]
        for _ in range(nc)
    ]

    def solve():
        cnf = CNF(nv)
        for clause in clauses:
            cnf.add_clause(clause)
        return Solver(cnf).solve()

    status = benchmark(solve)
    assert status in ("SAT", "UNSAT")


def test_cec_miter(benchmark):
    """SAT equivalence check of an evolved-size netlist vs its spec."""
    from repro.sat.equivalence import check_against_tables
    spec = intdiv(4)
    netlist = initialize_netlist(spec)
    result = benchmark.pedantic(
        check_against_tables, args=(netlist.encoder(), spec),
        rounds=1, iterations=1, warmup_rounds=0)
    assert result.equivalent is True


def test_buffer_lp_vs_heuristic(benchmark, intdiv6_netlist):
    """A7: exact (min-cut) buffer insertion vs the fitness loop's ASAP
    estimate."""
    from repro.rqfp.buffer_opt import optimal_levels
    exact = benchmark(optimal_levels, intdiv6_netlist)
    asap = estimate_buffers(intdiv6_netlist)
    print(f"\nA7 buffers: optimal {exact.num_buffers} vs ASAP {asap}")
    assert exact.num_buffers <= asap


def test_bdd_vs_sat_equivalence(benchmark, intdiv6_netlist):
    """A10: BDD-canonical CEC vs the SAT miter on the same check —
    the two formal-verification strategies from the paper's §2.2."""
    from repro.logic.bdd import bdd_equivalent
    from repro.sat.equivalence import check_against_tables
    spec = intdiv(6)
    result = benchmark(bdd_equivalent, intdiv6_netlist, spec)
    assert result is True
    sat = check_against_tables(intdiv6_netlist.encoder(), spec)
    assert sat.equivalent is True
