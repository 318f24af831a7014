"""Cross-cutting property-based tests (hypothesis).

These fuzz whole pipeline segments end-to-end: any specification pushed
through any chain of representations and optimizations must come out
functionally identical, legal, and consistently costed.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.random_circuits import random_rqfp
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.fitness import Evaluator
from repro.core.mutation import mutate_with_delta
from repro.core.synthesis import initialize_netlist
from repro.logic.truth_table import TruthTable
from repro.networks.convert import aig_to_mig, tables_to_aig
from repro.opt.aig_opt import resyn2
from repro.opt.mig_opt import aqfp_resynthesis
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.buffers import _count_buffers, estimate_buffers
from repro.rqfp.from_mig import mig_to_rqfp
from repro.rqfp.splitters import insert_splitters

_spec_strategy = st.tuples(
    st.integers(1, 4),                      # inputs
    st.integers(1, 4),                      # outputs
    st.integers(0, 2 ** 63),                # table seed
)


def _tables(num_inputs, num_outputs, seed):
    rng = random.Random(seed)
    return [TruthTable(num_inputs, rng.getrandbits(1 << num_inputs))
            for _ in range(num_outputs)]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spec_strategy)
def test_full_initialization_pipeline_is_semantics_preserving(params):
    """spec -> AIG -> resyn2 -> MIG -> aqfp -> RQFP -> splitters: every
    stage must preserve the function; the final netlist must be legal."""
    tables = _tables(*params)
    aig = resyn2(tables_to_aig(tables))
    assert aig.to_truth_tables() == tables
    mig = aqfp_resynthesis(aig_to_mig(aig))
    assert mig.to_truth_tables() == tables
    netlist = mig_to_rqfp(mig)
    assert netlist.to_truth_tables() == tables
    legal = insert_splitters(netlist)
    legal.validate(require_single_fanout=True)
    assert legal.to_truth_tables() == tables


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 31), st.integers(1, 40))
def test_mutation_chain_keeps_netlist_wellformed(seed, steps):
    """Arbitrarily long mutation chains never corrupt the genome."""
    rng = random.Random(seed)
    netlist = insert_splitters(random_rqfp(3, 5, 2, rng, legal_fanout=True))
    config = RcgpConfig(mutation_rate=0.2, seed=seed)
    for _ in range(steps):
        netlist = mutate_with_delta(netlist, rng, config)[0]
        netlist.validate(require_single_fanout=False)
    # Evaluation of any mutant must produce a totally ordered fitness.
    spec = netlist.shrink().to_truth_tables()
    if spec:
        evaluator = Evaluator(spec, config)
        fitness = evaluator.evaluate(netlist)
        assert 0.0 <= fitness.success <= 1.0


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spec_strategy)
def test_evolution_result_always_verifies(params):
    """Short evolution runs on arbitrary specs end functionally correct,
    fan-out legal and never worse than the initial netlist."""
    tables = _tables(*params)
    initial = initialize_netlist(tables)
    config = RcgpConfig(generations=60, mutation_rate=0.1,
                        seed=params[2] & 0xFFFF, shrink="always")
    result = EvolutionRun(tables, config, initial=initial).run()
    assert result.netlist.to_truth_tables() == tables
    result.netlist.validate(require_single_fanout=True)
    assert result.fitness.key() >= result.initial_fitness.key()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10), st.integers(1, 3),
       st.integers(0, 2 ** 31))
def test_buffer_plans_agree_on_totals(num_inputs, num_gates, num_outputs,
                                      seed):
    """The exact and the ASAP plans count buffers the same way, the
    exact one never loses to the ASAP estimate and keeps its depth."""
    netlist = random_rqfp(num_inputs, num_gates, num_outputs,
                          random.Random(seed))
    exact = optimal_levels(netlist)
    asap_edges, asap_total = _count_buffers(netlist, netlist.levels(),
                                            netlist.depth())
    assert exact.num_buffers == sum(exact.edge_buffers.values())
    assert asap_total == sum(asap_edges.values()) == estimate_buffers(netlist)
    assert exact.num_buffers <= asap_total
    assert exact.depth == netlist.depth()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 2),
       st.integers(0, 2 ** 31))
def test_shrink_is_idempotent_and_preserves_function(num_inputs, num_gates,
                                                     num_outputs, seed):
    netlist = random_rqfp(num_inputs, num_gates, num_outputs,
                          random.Random(seed))
    once = netlist.shrink()
    twice = once.shrink()
    assert once.to_truth_tables() == netlist.to_truth_tables()
    assert twice.num_gates == once.num_gates
    assert twice.describe() == once.describe()
