"""A5 — windowed RCGP on large circuits.

The paper cites windowing (Kocnova & Vasicek) as the route from
whole-circuit CGP to million-gate instances.  This bench compares plain
RCGP against windowed RCGP on a mid-size Table-2 circuit at equal
wall-clock-ish budgets: windowing gets more optimization pressure per
gate because each window's chromosome (and simulation) is small.
"""

import pytest

from repro.bench.reciprocal import intdiv
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.synthesis import initialize_netlist
from repro.core.windowing import windowed_optimize

pytestmark = [pytest.mark.ablation]


@pytest.fixture(scope="module")
def intdiv6_start():
    return initialize_netlist(intdiv(6), "intdiv6")


def test_plain_rcgp_baseline(benchmark, intdiv6_start):
    spec = intdiv(6)
    config = RcgpConfig(generations=1200, mutation_rate=1.0,
                        max_mutated_genes=6, seed=11, shrink="always")
    result = benchmark.pedantic(
        EvolutionRun(spec, config, initial=intdiv6_start).run,
        rounds=1, iterations=1, warmup_rounds=0)
    assert result.fitness.functional
    print(f"\nplain RCGP: n_r {intdiv6_start.num_gates} -> "
          f"{result.fitness.n_r}, n_g {intdiv6_start.num_garbage} -> "
          f"{result.fitness.n_g}")


def test_windowed_rcgp(benchmark, intdiv6_start):
    config = RcgpConfig(generations=250, mutation_rate=1.0,
                        max_mutated_genes=4, seed=11, shrink="always")
    result = benchmark.pedantic(
        windowed_optimize, args=(intdiv6_start,),
        kwargs=dict(window_gates=12, rounds=2, config=config, seed=7),
        rounds=1, iterations=1, warmup_rounds=0)
    assert result.netlist.to_truth_tables() == intdiv(6)
    assert result.gates_after <= result.gates_before
    print(f"\nwindowed RCGP: n_r {result.gates_before} -> "
          f"{result.gates_after}, n_g {result.garbage_before} -> "
          f"{result.garbage_after} "
          f"({result.windows_improved}/{result.windows_tried} windows won)")
