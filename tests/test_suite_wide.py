"""Suite-wide integration: every registry benchmark's initialization is
legal, design-rule clean, and functionally exact."""

import pytest

from repro.bench.registry import BENCHMARKS, get_benchmark
from repro.core.synthesis import initialize_netlist
from repro.rqfp.metrics import circuit_cost
from repro.rqfp.validate import validate_circuit

_FAST_ROWS = [name for name, b in BENCHMARKS.items()
              if name not in ("hwb8",)]  # hwb8's init alone takes ~25 s


@pytest.mark.parametrize("name", _FAST_ROWS)
def test_initialization_is_exact_and_clean(name):
    benchmark = get_benchmark(name)
    spec = benchmark.spec()
    netlist = initialize_netlist(spec, name)
    # Function: exhaustively exact.
    assert netlist.to_truth_tables() == spec
    # Structure: single fan-out + balanced buffer plan.
    plan = validate_circuit(netlist)
    cost = circuit_cost(netlist, plan)
    # Cost-model invariants.
    assert cost.jjs == 24 * cost.n_r + 4 * cost.n_b
    assert cost.n_g >= benchmark.g_lb
    assert cost.n_d == netlist.depth()


@pytest.mark.slow
def test_hwb8_initialization():
    benchmark = get_benchmark("hwb8")
    spec = benchmark.spec()
    netlist = initialize_netlist(spec, "hwb8")
    assert netlist.to_truth_tables() == spec
    validate_circuit(netlist)
