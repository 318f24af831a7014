"""Microbenchmarks for the (1+λ) hot path, one rate per operation.

Each benchmark times the operation the inner loop actually performs —
full evaluation, incremental (cone) evaluation (exact, and at the
paper's defaults with the early stop), mutation + copy-on-write copy
(tuned and at the paper's defaults), shrink — over a Table-1
circuit, the exact buffer plan every reported cost uses, the cold
Initialization front end, the SAT miter that the result gate runs, the
formal check that sampled fitness runs, plus two end-to-end evolution
runs (serial, and pooled over a two-worker dispatcher).  Candidates are
flat kernels, the engine's one representation.

Rates are evaluations (or operations) per second; use
``tools/perf_bench.py`` to run the suite, persist ``BENCH_perf.json``,
and gate on regressions.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Tuple

from repro.bench.extras import one_hot_checker
from repro.bench.registry import get_benchmark
from repro.cluster import ClusterDispatch
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.fitness import Evaluator
from repro.core.kernel import NetlistKernel
from repro.core.mutation import consumer_view, mutate_with_delta
from repro.core.synthesis import (baseline_initialization, clear_baselines,
                                  initialize_netlist)
from repro.jobs.pool import JobBackend
from repro.rqfp.buffer_opt import optimal_levels
from repro.sat.equivalence import check_against_tables

__all__ = ["BENCHES", "run_benches"]


def _fixture(circuit: str):
    """(spec, parent kernel, mutation config) for one circuit."""
    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    parent = NetlistKernel.from_netlist(
        initialize_netlist(spec, benchmark.name))
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=3)
    return spec, parent, config


def _mutants(parent, config, count: int):
    rng = random.Random(7)
    return [mutate_with_delta(parent, rng, config) for _ in range(count)]


def bench_full_eval(circuit: str, iterations: int) -> float:
    """Full (non-incremental) fitness evaluations per second."""
    spec, parent, config = _fixture(circuit)
    mutants = _mutants(parent, config, iterations)
    evaluator = Evaluator(spec, config, random.Random(config.seed))
    start = time.perf_counter()
    for child, _ in mutants:
        evaluator.evaluate(child)
    return iterations / (time.perf_counter() - start)


def bench_incremental_eval(circuit: str, iterations: int) -> float:
    """Cone-aware incremental evaluations per second (memoized parent)."""
    spec, parent, config = _fixture(circuit)
    mutants = _mutants(parent, config, iterations)
    evaluator = Evaluator(spec, config, random.Random(config.seed))
    state = evaluator.prepare_parent(parent)
    start = time.perf_counter()
    for child, delta in mutants:
        evaluator.evaluate_incremental(child, delta, state)
    return iterations / (time.perf_counter() - start)


def bench_incremental_eval_paper(circuit: str, iterations: int) -> float:
    """``incremental_eval`` at the paper's defaults (μ = 1, uncapped
    gene count) with the engine's floor (the parent's fitness): nearly
    every mutant is broken, and its sweep stops at the first wrong
    output."""
    spec, parent, _ = _fixture(circuit)
    config = RcgpConfig(seed=3)
    mutants = _mutants(parent, config, iterations)
    evaluator = Evaluator(spec, config, random.Random(config.seed))
    floor = evaluator.evaluate(parent)
    state = evaluator.prepare_parent(parent)
    start = time.perf_counter()
    for child, delta in mutants:
        evaluator.evaluate_incremental(child, delta, state, floor)
    return iterations / (time.perf_counter() - start)


def _mutation_rate(parent, config: RcgpConfig, iterations: int) -> float:
    consumers = consumer_view(parent)
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(iterations):
        mutate_with_delta(parent, rng, config, consumers=consumers,
                          rollback=True)
    return iterations / (time.perf_counter() - start)


def bench_mutation_copy(circuit: str, iterations: int) -> float:
    """Mutations per second, engine-style: copy-on-write child plus the
    parent's shared :func:`consumer_view` (its reader table, only
    read)."""
    _, parent, config = _fixture(circuit)
    return _mutation_rate(parent, config, iterations)


def bench_mutation_paper(circuit: str, iterations: int) -> float:
    """``mutation_copy`` at the paper's defaults (μ = 1, uncapped gene
    count): the mutation ``synthesize()`` runs unless tuned."""
    _, parent, _ = _fixture(circuit)
    return _mutation_rate(parent, RcgpConfig(seed=3), iterations)


def bench_shrink(circuit: str, iterations: int) -> float:
    """Dead-gate elimination sweeps per second."""
    _, parent, config = _fixture(circuit)
    start = time.perf_counter()
    for _ in range(iterations):
        parent.shrink()
    return iterations / (time.perf_counter() - start)


def bench_buffer_plan(circuit: str, iterations: int) -> float:
    """Exact buffer plans per second: :func:`optimal_levels` on the
    circuit's initialization netlist, the plan behind every reported
    ``n_b``/JJ count (baseline and final circuit of each job)."""
    netlist = initialize_netlist(get_benchmark(circuit).spec(), circuit)
    start = time.perf_counter()
    for _ in range(iterations):
        optimal_levels(netlist)
    return iterations / (time.perf_counter() - start)


def bench_initialize(circuit: str, iterations: int) -> float:
    """Cold Initialization baselines per second: the §3.1 front end
    (``resyn2``, ``aqfp_resynthesis``, RQFP mapping, splitters) plus
    the exact buffer plan.  The process-wide memo is cleared before each
    call, so every call computes and a front-end regression shows here
    even though jobs on a spec seen before skip it."""
    spec = get_benchmark(circuit).spec()
    elapsed = 0.0
    for _ in range(iterations):
        clear_baselines()
        start = time.perf_counter()
        baseline_initialization(spec, circuit)
        elapsed += time.perf_counter() - start
    clear_baselines()
    return iterations / elapsed


def bench_sat_miter(circuit: str, iterations: int) -> float:
    """SAT CEC checks per second: ``check_against_tables`` on
    ``one_hot_checker(12)``'s initial netlist against its spec, the
    UNSAT proof that the result gate runs on sampled specs and that
    sampled fitness runs above ``EXHAUSTIVE_FORMAL_LIMIT`` inputs (miter
    build, solver load and CDCL search).  ``circuit`` is not used:
    Table-1 specs are simulated exhaustively and never reach SAT."""
    spec = one_hot_checker(12)
    netlist = initialize_netlist(spec, "onehot12")
    start = time.perf_counter()
    for _ in range(iterations):
        check_against_tables(netlist.encoder(), spec)
    return iterations / (time.perf_counter() - start)


def bench_formal_check(circuit: str, iterations: int) -> float:
    """Formal checks per second on the ``sat_miter`` fixture, as sampled
    fitness runs them: ``Evaluator._formally_equivalent`` on the shrunk
    kernel, decided by exhaustive simulation at 12 inputs (the verdict
    memo is cleared each time).  ``circuit`` is not used."""
    spec = one_hot_checker(12)
    active = NetlistKernel.from_netlist(
        initialize_netlist(spec, "onehot12")).shrink()
    evaluator = Evaluator(spec, RcgpConfig(exhaustive_input_limit=8, seed=3))
    start = time.perf_counter()
    for _ in range(iterations):
        evaluator._verdicts.clear()
        evaluator._formally_equivalent(active)
    return iterations / (time.perf_counter() - start)


def _bench_run(circuit: str, generations: int, workers: int) -> float:
    """``workers=0`` runs in-process; otherwise the run's spans go to a
    ``JobBackend`` on a ``ClusterDispatch`` over ``workers`` local pipe
    workers, started inside the timed region."""
    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    initial = initialize_netlist(spec, benchmark.name)
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=2024,
                        shrink="on_improvement", generations=generations)
    start = time.perf_counter()
    if workers == 0:
        result = EvolutionRun(spec, config, initial=initial,
                              name=benchmark.name).run()
    else:
        dispatch = ClusterDispatch(local_workers=workers)
        ctx = (benchmark.name, tuple(t.bits for t in spec),
               spec[0].num_vars, config.to_dict())
        backend = JobBackend(dispatch, ctx, config)
        try:
            result = EvolutionRun(spec, config, initial=initial,
                                  name=benchmark.name,
                                  backend=backend).run()
        finally:
            backend.close()
            dispatch.close()
    return result.evaluations / (time.perf_counter() - start)


def bench_run_serial(circuit: str, generations: int) -> float:
    """End-to-end serial evolution, evaluations per second."""
    return _bench_run(circuit, generations, workers=0)


def bench_run_workers2(circuit: str, generations: int) -> float:
    """End-to-end evolution with a 2-worker dispatcher, evaluations per
    second (includes pool startup).  Same generation budget as
    ``run_serial`` so ``run_workers2_speedup`` compares like with
    like."""
    return _bench_run(circuit, generations, workers=2)


#: name -> (callable(circuit, n), full n, quick n)
BENCHES: Dict[str, Tuple[Callable[[str, int], float], int, int]] = {
    "full_eval": (bench_full_eval, 300, 40),
    "incremental_eval": (bench_incremental_eval, 2000, 300),
    "incremental_eval_paper": (bench_incremental_eval_paper, 2000, 300),
    "mutation_copy": (bench_mutation_copy, 5000, 800),
    "mutation_paper": (bench_mutation_paper, 1000, 150),
    "shrink": (bench_shrink, 2000, 300),
    "buffer_plan": (bench_buffer_plan, 200, 30),
    "initialize": (bench_initialize, 20, 3),
    "sat_miter": (bench_sat_miter, 60, 10),
    "formal_check": (bench_formal_check, 3000, 500),
    "run_serial": (bench_run_serial, 1200, 60),
    "run_workers2": (bench_run_workers2, 1200, 60),
}


def run_benches(circuit: str = "intdiv9", quick: bool = False,
                repeats: int = 2,
                skip_workers: bool = False) -> Dict[str, Dict[str, float]]:
    """Run every microbenchmark, best rate of ``repeats`` repetitions.

    Repetitions are *interleaved* across benchmarks (all benches once,
    then all benches again, ...) rather than run back-to-back per
    bench: machine-throughput drift over a multi-minute suite then
    lands on every bench roughly equally instead of contaminating
    cross-bench ratios such as ``run_workers2_speedup``.

    Returns ``{bench: {"rate": evals_per_sec, "iterations": n}}``.
    """
    results: Dict[str, Dict[str, float]] = {}
    for _ in range(repeats):
        for name, (func, full_n, quick_n) in BENCHES.items():
            if skip_workers and name == "run_workers2":
                continue
            n = quick_n if quick else full_n
            rate = func(circuit, n)
            entry = results.setdefault(name, {"rate": 0.0, "iterations": n})
            entry["rate"] = round(max(entry["rate"], rate), 2)
    return results
