"""Unit tests for exact buffer insertion (the min-cut ascent)."""

import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import TABLE1_NAMES, TABLE2_NAMES, get_benchmark
from repro.bench.random_circuits import random_rqfp
from repro.core.synthesis import initialize_netlist
from repro.core.verify import verify_evolution_result
from repro.errors import NetlistError
from repro.rqfp.aqfp import expand_to_aqfp, jj_breakdown
from repro.rqfp.buffer_opt import optimal_levels
from repro.rqfp.buffers import _count_buffers, estimate_buffers
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.metrics import circuit_cost
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist
from repro.rqfp.validate import check_circuit, validate_circuit


def _brute_force_minimum(netlist, depth):
    """Exhaustive minimum buffer count over all feasible level maps."""
    n = netlist.num_gates
    best = None
    for levels in itertools.product(range(1, depth + 1), repeat=n):
        feasible = True
        for g, gate in enumerate(netlist.gates):
            for port in gate.inputs:
                if netlist.is_gate_port(port):
                    if levels[g] <= levels[netlist.port_gate(port)]:
                        feasible = False
                        break
            if not feasible:
                break
        if not feasible:
            continue
        _, total = _count_buffers(netlist, list(levels), depth)
        if best is None or total < best:
            best = total
    return best


def _optimal_vectors(netlist, depth):
    """Every feasible level vector of minimum buffer count."""
    preds = [[netlist.port_gate(port) for port in gate.inputs
              if netlist.is_gate_port(port)] for gate in netlist.gates]
    best, optima = None, []

    def extend(levels):
        nonlocal best, optima
        g = len(levels)
        if g == netlist.num_gates:
            _, total = _count_buffers(netlist, levels, depth)
            if best is None or total < best:
                best, optima = total, []
            if total == best:
                optima.append(list(levels))
            return
        low = 1 + max((levels[p] for p in preds[g]), default=0)
        for level in range(low, depth + 1):
            extend(levels + [level])

    extend([])
    return best, optima


#: ``(n_r, n_g, num_buffers, depth)`` of the initialization netlist and
#: its plan for every Table-1/Table-2 benchmark but hwb8.  The plan
#: columns are what the LP solver (HiGHS) computed before the min-cut
#: planner replaced it; the gate and garbage columns pin the front end
#: (``resyn2`` and ``aqfp_resynthesis`` at their defaults).
PINNED_PLANS = {
    "full_adder": (14, 20, 6, 6), "4gt10": (5, 8, 5, 4),
    "alu": (30, 42, 14, 8), "c17": (9, 15, 9, 5),
    "decoder_2_4": (4, 4, 0, 2), "decoder_3_8": (10, 9, 2, 3),
    "graycode4": (9, 12, 3, 3), "ham3": (13, 17, 9, 5),
    "mux4": (11, 18, 8, 5), "4_49": (44, 59, 34, 9),
    "graycode6": (15, 20, 3, 3), "mod5adder": (199, 270, 148, 13),
    "intdiv4": (11, 15, 9, 4), "intdiv5": (22, 30, 10, 5),
    "intdiv6": (46, 62, 38, 8), "intdiv7": (92, 125, 68, 10),
    "intdiv8": (168, 228, 124, 12), "intdiv9": (271, 367, 194, 13),
    "intdiv10": (460, 621, 326, 15),
}


class TestPinnedPlans:
    def test_pins_cover_the_tables(self):
        assert set(PINNED_PLANS) == \
            set(TABLE1_NAMES + TABLE2_NAMES) - {"hwb8"}

    @pytest.mark.parametrize("name", sorted(PINNED_PLANS))
    def test_initialization_plan(self, name):
        netlist = initialize_netlist(get_benchmark(name).spec(), name)
        plan = optimal_levels(netlist)
        assert (netlist.num_gates, netlist.num_garbage, plan.num_buffers,
                plan.depth) == PINNED_PLANS[name]
        assert plan.num_buffers == sum(plan.edge_buffers.values())


@pytest.mark.parametrize("name", ["intdiv6", "mod5adder"])
def test_no_plan_defaults_report_the_exact_plan(name):
    """Every entry point that plans its own buffers prices the exact
    plan results report, on circuits where ASAP levels cost more."""
    spec = get_benchmark(name).spec()
    netlist = initialize_netlist(spec, name)
    exact = optimal_levels(netlist)
    assert exact.num_buffers < estimate_buffers(netlist)
    cost = circuit_cost(netlist)
    assert (cost.n_b, cost.n_d) == (exact.num_buffers, exact.depth)
    plan = validate_circuit(netlist)
    assert plan.num_buffers == exact.num_buffers
    assert plan.levels == exact.levels
    assert check_circuit(netlist) == []
    assert expand_to_aqfp(netlist).count("buffer") == 2 * exact.num_buffers
    assert jj_breakdown(netlist)["total"] == cost.jjs
    report = verify_evolution_result(netlist, spec)
    assert report.plan.num_buffers == exact.num_buffers
    assert report.plan.levels == exact.levels


class TestLeastOptimum:
    def test_returns_componentwise_least_optimum(self):
        rng = random.Random(2024)
        several = 0
        for case in range(240):
            netlist = random_rqfp(rng.randint(1, 3), rng.randint(1, 5),
                                  rng.randint(1, 3), rng)
            critical = max(netlist.levels())
            depth = critical + rng.randint(0, 2)
            best, optima = _optimal_vectors(netlist, depth)
            plan = optimal_levels(netlist, depth=depth)
            least = [min(column) for column in zip(*optima)]
            assert plan.num_buffers == best, (case, netlist.describe())
            assert plan.levels == least, (case, netlist.describe())
            several += len(optima) > 1
        assert several >= 20  # ties exist, so the tie-break is tested


def test_import_needs_neither_numpy_nor_scipy(tmp_path):
    """Every entry point imports and synthesizes with numpy and scipy
    unimportable, as in an environment holding only the declared
    (empty) runtime dependencies."""
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = sys.modules["scipy"] = None
        import repro, repro.api, repro.cli, repro.service
        from repro.bench import get_benchmark
        from repro.core.config import RcgpConfig
        result = repro.api.synthesize(get_benchmark("full_adder").spec(),
                                      RcgpConfig(generations=50, seed=1))
        assert result.verify()
        assert result.cost.n_b == result.plan.num_buffers
        print("ok", result.cost.n_r, result.cost.n_b)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=str(tmp_path), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok ")


class TestOptimalLevels:
    def test_empty_netlist(self):
        plan = optimal_levels(RqfpNetlist(2))
        assert plan.num_buffers == 0 and plan.depth == 0

    def test_matches_brute_force_on_small_random(self, rng):
        for _ in range(15):
            netlist = random_rqfp(2, rng.randint(1, 4), 2, rng)
            plan = optimal_levels(netlist)
            expected = _brute_force_minimum(netlist, plan.depth)
            assert plan.num_buffers == expected, netlist.describe()

    def test_never_worse_than_asap(self, rng):
        for _ in range(20):
            netlist = random_rqfp(3, rng.randint(1, 10), 2, rng)
            exact = optimal_levels(netlist)
            assert exact.num_buffers <= estimate_buffers(netlist)
            assert exact.depth == netlist.depth()

    def test_respects_topological_order(self, rng):
        netlist = random_rqfp(3, 8, 2, rng)
        plan = optimal_levels(netlist)
        for g, gate in enumerate(netlist.gates):
            for port in gate.inputs:
                if netlist.is_gate_port(port):
                    assert plan.levels[g] > plan.levels[netlist.port_gate(port)]

    def test_deeper_pipeline_rejected_below_critical(self):
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        g1 = netlist.add_gate(netlist.gate_output_port(g0, 0), CONST_PORT,
                              CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g1, 0))
        with pytest.raises(NetlistError):
            optimal_levels(netlist, depth=1)

    def test_explicit_deeper_depth_allowed(self):
        netlist = RqfpNetlist(1)
        g0 = netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        netlist.add_output(netlist.gate_output_port(g0, 0))
        plan = optimal_levels(netlist, depth=3)
        assert plan.depth == 3
        # The single gate floats to minimize PI cost (level 1) vs PO
        # cost (level 3); either extreme costs 2 buffers total.
        assert plan.num_buffers == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 2),
       st.integers(0, 2 ** 31))
def test_lp_optimum_dominates_all_heuristics(num_inputs, num_gates,
                                             num_outputs, seed):
    netlist = random_rqfp(num_inputs, num_gates, num_outputs,
                          random.Random(seed))
    exact = optimal_levels(netlist)
    assert exact.num_buffers <= estimate_buffers(netlist)
    assert exact.depth == netlist.depth()
    assert exact.num_buffers == sum(exact.edge_buffers.values())
