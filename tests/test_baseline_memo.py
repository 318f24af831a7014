"""The process-wide memo behind :func:`baseline_initialization`.

The Initialization baseline depends on the spec alone, so a process
computes it once per spec.  Every call, hit or miss, returns fresh
objects under the caller's name, equal to the cold computation's.
"""

import dataclasses
import sys
import threading

import pytest

from repro.api import Session
from repro.bench.extras import one_hot_checker
from repro.bench.registry import BENCHMARKS, get_benchmark
from repro.core import synthesis
from repro.core.config import RcgpConfig
from repro.core.engine import COUNTER_FIELDS
from repro.core.synthesis import (baseline_initialization,
                                  baselines_memoized, clear_baselines,
                                  initialize_netlist)
from repro.harness.stats import seed_sweep
from repro.io.rqfp_json import netlist_to_dict
from repro.logic.truth_table import TruthTable
from repro.rqfp.buffer_opt import optimal_levels

_CIRCUITS = sorted(name for name in BENCHMARKS if name != "hwb8") + \
    ["onehot12", "onehot13"]


def _spec(name):
    if name.startswith("onehot"):
        return one_hot_checker(int(name[len("onehot"):]))
    return get_benchmark(name).spec()


def _view(baseline):
    """Everything a baseline reports, but the netlist's name."""
    netlist = netlist_to_dict(baseline.netlist)
    del netlist["name"]
    plan = baseline.plan
    return (netlist,
            (list(plan.levels), plan.depth, plan.num_buffers,
             dict(plan.edge_buffers)),
            dataclasses.astuple(baseline.cost))


@pytest.fixture(autouse=True)
def cold_memo():
    clear_baselines()
    yield
    clear_baselines()


class TestHitEqualsCold:
    @pytest.mark.parametrize("name", _CIRCUITS)
    def test_cold_warm_and_renamed_calls_agree(self, name):
        spec = _spec(name)
        cold = baseline_initialization(spec, name)
        warm = baseline_initialization(spec, name)
        renamed = baseline_initialization(spec, "another")
        assert _view(warm) == _view(cold)
        assert _view(renamed) == _view(cold)
        assert (cold.netlist.name, warm.netlist.name,
                renamed.netlist.name) == (name, name, "another")
        # A hit reports the cold computation's runtime.
        assert warm.cost.runtime == renamed.cost.runtime == \
            cold.cost.runtime > 0
        # The memo serves what the uncached flow computes.
        reference = initialize_netlist(spec, name)
        assert netlist_to_dict(cold.netlist) == netlist_to_dict(reference)
        plan = optimal_levels(reference)
        assert (cold.plan.levels, cold.plan.depth, cold.plan.num_buffers,
                cold.plan.edge_buffers) == \
            (plan.levels, plan.depth, plan.num_buffers, plan.edge_buffers)


class TestNoAliasing:
    def test_mutating_a_result_leaves_the_next_call_intact(self):
        spec = get_benchmark("graycode4").spec()
        first = baseline_initialization(spec, "graycode4")
        expected = _view(first)
        first.netlist.gates[0].in0 = 0
        first.netlist.gates.pop()
        first.netlist.outputs[0] = 0
        first.netlist.input_names[0] = "clobbered"
        first.netlist.output_names.append("extra")
        first.plan.levels[0] = 99
        first.plan.edge_buffers.clear()
        first.plan.num_buffers = -1
        assert _view(baseline_initialization(spec, "graycode4")) == expected

    def test_concurrent_threads_get_equal_unshared_results(
            self, monkeypatch):
        spec = get_benchmark("decoder_3_8").spec()
        results = [None] * 6
        # Every thread misses before any stores: the race computes the
        # spec six times, and the first computation stored wins.
        barrier = threading.Barrier(len(results), timeout=30)

        def racing(spec, name=""):
            barrier.wait()
            return initialize_netlist(spec, name)

        monkeypatch.setattr(synthesis, "initialize_netlist", racing)

        def worker(index):
            results[index] = baseline_initialization(spec, f"t{index}")

        _run_threads(worker, len(results))
        assert all(_view(r) == _view(results[0]) for r in results)
        for attribute in ("netlist", "plan", "cost"):
            assert len({id(getattr(r, attribute)) for r in results}) == \
                len(results)
        assert len({id(r.netlist.gates) for r in results}) == len(results)
        assert len({id(r.plan.levels) for r in results}) == len(results)
        assert len({id(r.plan.edge_buffers) for r in results}) == \
            len(results)
        assert baselines_memoized() == 1

    def test_threads_filling_a_small_memo_keep_it_bounded(
            self, monkeypatch):
        monkeypatch.setattr(synthesis, "BASELINE_MEMO_SIZE", 4)
        specs = [[TruthTable(3, bits)] for bits in range(1, 25)]

        def timeless(baseline):
            # Evicted specs are computed again, with a runtime of their
            # own.
            netlist, plan, cost = _view(baseline)
            return netlist, plan, cost[:-1]

        expected = [timeless(baseline_initialization(spec))
                    for spec in specs]
        clear_baselines()
        errors = []

        def worker(index):
            for offset in range(len(specs)):
                i = (index * 5 + offset) % len(specs)
                if timeless(baseline_initialization(specs[i])) != \
                        expected[i]:
                    errors.append(i)

        _run_threads(worker, 8)
        assert errors == []
        assert baselines_memoized() == 4


def _run_threads(target, count):
    """Run ``target(i)`` on ``count`` threads with a short switch
    interval, so they interleave inside the memo's critical sections;
    fail on any thread's exception."""
    raised = []

    def guarded(index):
        try:
            target(index)
        except Exception as exc:  # noqa: BLE001 - reported below
            raised.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert raised == []


class TestBound:
    def test_least_recently_used_entry_is_evicted(self, monkeypatch):
        misses = []

        def counting(spec, name=""):
            misses.append(spec[0].bits)
            return initialize_netlist(spec, name)

        monkeypatch.setattr(synthesis, "BASELINE_MEMO_SIZE", 2)
        monkeypatch.setattr(synthesis, "initialize_netlist", counting)
        specs = {n: [TruthTable.from_function(f, 2)] for n, f in (
            ("a", lambda x, y: x & y), ("b", lambda x, y: x | y),
            ("c", lambda x, y: x ^ y))}

        def call(name):
            baseline_initialization(specs[name], name)
            assert baselines_memoized() <= 2
            return len(misses)

        assert [call(n) for n in "abacabc"] == [1, 2, 2, 3, 3, 4, 5]
        # a, b, a (hit), c evicts b, a (hit), b evicts c, c evicts a.

    def test_default_bound_holds(self):
        for bits in range(1, synthesis.BASELINE_MEMO_SIZE + 4):
            baseline_initialization([TruthTable(3, bits)])
            assert baselines_memoized() <= synthesis.BASELINE_MEMO_SIZE
        assert baselines_memoized() == synthesis.BASELINE_MEMO_SIZE


class TestSameSearch:
    def test_seed_sweep_equals_a_sweep_that_always_starts_cold(self):
        spec = get_benchmark("graycode4").spec()

        def sweep(clear_each_seed):
            def config(seed):
                if clear_each_seed:
                    clear_baselines()
                return RcgpConfig(generations=150, mutation_rate=0.08,
                                  max_mutated_genes=8, seed=seed)
            with Session() as session:
                summary = seed_sweep(spec, [1, 2, 3], config, name="g4",
                                     session=session)
                results = [job.result() for job in session.jobs()]
            return summary, results

        warm_summary, warm = sweep(False)
        cold_summary, cold = sweep(True)
        assert warm_summary.per_seed == cold_summary.per_seed
        assert len(warm) == len(cold) == 3
        for a, b in zip(warm, cold):
            assert netlist_to_dict(a.netlist) == netlist_to_dict(b.netlist)
            for cost_a, cost_b in ((a.cost, b.cost),
                                   (a.initial.cost, b.initial.cost)):
                row_a, row_b = cost_a.as_row(), cost_b.as_row()
                del row_a["T"], row_b["T"]
                assert row_a == row_b
            assert a.evolution.generations == b.evolution.generations
            for field in COUNTER_FIELDS:
                assert getattr(a.evolution, field) == \
                    getattr(b.evolution, field), field
