"""E5 — the Fig. 3 worked example, quantitatively.

The paper walks a 2-to-4 decoder through CGP encoding, mutation, shrink
and buffer insertion, ending at 3 RQFP gates and 1 garbage output
(Table 1 confirms 3/1 as the exact optimum).  This bench runs RCGP with
a moderate budget and asserts it lands in the optimum's neighbourhood,
plus checks every structural claim of the worked example.
"""

import pytest

from repro.api import synthesize
from repro.core.config import RcgpConfig
from repro.core.mutation import chromosome_length
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import tabulate_word
from repro.rqfp.buffer_opt import optimal_levels

pytestmark = [pytest.mark.table1]


def _spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


def test_decoder_worked_example(benchmark):
    config = RcgpConfig(generations=12_000, mutation_rate=0.1, seed=41,
                        offspring=4, shrink="always")
    result = benchmark.pedantic(
        synthesize, args=(_spec(), config),
        kwargs={"name": "decoder_2_4"},
        rounds=1, iterations=1, warmup_rounds=0)

    assert result.verify()
    # Optimum is 3 gates / 1 garbage; a moderate budget must land close.
    assert result.cost.n_r <= 5
    assert result.cost.n_g <= 4
    assert result.cost.n_g >= 0
    print(f"\nfig3 decoder: {result.cost} "
          f"(paper optimum: n_r=3 n_g=1, JJs=84)")


def test_chromosome_length_formula():
    """n_L = n_C(n_i + 1) + n_po with n_i = 3 (paper §3.2.1)."""
    initial = initialize_netlist(_spec())
    assert chromosome_length(initial) == 4 * initial.num_gates + 4


def test_buffer_insertion_balances_all_paths():
    """After buffer insertion every gate's inputs share a clock phase —
    the Fig. 3(d) property, checked on the evolved decoder."""
    config = RcgpConfig(generations=800, mutation_rate=0.1, seed=5,
                        shrink="always")
    result = synthesize(_spec(), config)
    plan = optimal_levels(result.netlist)
    netlist = result.netlist
    for g, gate in enumerate(netlist.gates):
        for pos, port in enumerate(gate.inputs):
            if netlist.is_gate_port(port):
                src = netlist.port_gate(port)
                spanned = plan.levels[g] - plan.levels[src] - 1
                key = ("gg", src, g, pos)
                assert plan.edge_buffers.get(key, 0) == spanned
