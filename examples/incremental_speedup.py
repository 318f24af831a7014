"""Evaluation-throughput benchmark: full resimulation vs incremental.

Every offspring in the (1+λ) loop differs from the shared parent by a
handful of genes, so re-simulating the whole netlist per offspring
wastes almost all of the work.  The incremental layer
(`Evaluator.evaluate_incremental` + `SimulationState`) memoizes the
parent's per-port simulation words and recomputes only the mutation's
fan-out cone — bit-identically to the full path.

This script measures the win on one Table-1 circuit and shows it in a
live run:

1. **evaluation layer, isolated** — a fixed set of pre-generated
   mutants is evaluated through `Evaluator.evaluate` (full
   resimulation) and through `Evaluator.evaluate_incremental` (cone
   resimulation against the memoized parent).  Same candidates, same
   evaluator math; the only difference is how many ports get
   resimulated.  Fitness keys are asserted identical.
2. **end to end** — one `EvolutionRun` with telemetry, whose
   `eval_full` / `eval_incremental` / `ports_resimulated` counters show
   the cone sizes in the run's own JSONL instrumentation.  The engine
   evaluates offspring incrementally only; full resimulation is left
   for the initial, simplified and final parents.

Environment knobs::

    RCGP_INCR_CIRCUIT      Table-1 circuit            (default intdiv9)
    RCGP_INCR_MUTANTS      mutants for the isolated timing (default 400)
    RCGP_INCR_GENERATIONS  generations of the end-to-end run (default 80)
    RCGP_INCR_OFFSPRING    lambda                          (default 8)
    RCGP_INCR_MIN          if set (e.g. "2.0"), exit non-zero unless the
                           isolated evaluations/sec ratio reaches it
"""

import os
import random
import sys
import tempfile
import time

from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun, read_telemetry
from repro.core.fitness import Evaluator
from repro.core.mutation import mutate_with_delta
from repro.core.synthesis import initialize_netlist


def isolated_evaluation_timing(spec, parent, config, num_mutants):
    """(full evals/s, incremental evals/s, ports resimulated per mutant)."""
    rng = random.Random(7)
    mutants = [mutate_with_delta(parent, rng, config)
               for _ in range(num_mutants)]

    full_eval = Evaluator(spec, config, random.Random(config.seed))
    start = time.perf_counter()
    full_keys = [full_eval.evaluate(child).key() for child, _ in mutants]
    full_elapsed = time.perf_counter() - start

    incr_eval = Evaluator(spec, config, random.Random(config.seed))
    state = incr_eval.prepare_parent(parent)
    start = time.perf_counter()
    incr_keys = [incr_eval.evaluate_incremental(child, delta, state).key()
                 for child, delta in mutants]
    incr_elapsed = time.perf_counter() - start

    assert full_keys == incr_keys, \
        "incremental fitness diverged from full fitness — evaluator bug"
    return (num_mutants / full_elapsed, num_mutants / incr_elapsed,
            incr_eval.ports_resimulated / num_mutants)


def end_to_end(spec, initial, name, telemetry_path, **kwargs):
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=2024,
                        telemetry_path=telemetry_path, **kwargs)
    start = time.perf_counter()
    result = EvolutionRun(spec, config, initial=initial.copy(),
                          name=name).run()
    return result, time.perf_counter() - start


def main() -> int:
    circuit = os.environ.get("RCGP_INCR_CIRCUIT", "intdiv9")
    num_mutants = int(os.environ.get("RCGP_INCR_MUTANTS", "400"))
    generations = int(os.environ.get("RCGP_INCR_GENERATIONS", "80"))
    offspring = int(os.environ.get("RCGP_INCR_OFFSPRING", "8"))
    minimum = os.environ.get("RCGP_INCR_MIN")

    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    initial = initialize_netlist(spec, benchmark.name)
    total_ports = 3 * initial.num_gates
    print(f"circuit {benchmark.name}: {benchmark.num_inputs} inputs, "
          f"{benchmark.num_outputs} outputs, {initial.num_gates} gates "
          f"({total_ports} gate output ports)\n")

    # -- 1. evaluation layer, isolated --------------------------------
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=3)
    full_rate, incr_rate, ports_per_mutant = isolated_evaluation_timing(
        spec, initial, config, num_mutants)
    ratio = incr_rate / full_rate
    print(f"evaluation layer ({num_mutants} identical mutants):")
    print(f"  full resimulation : {full_rate:>8.0f} evaluations/s "
          f"({total_ports} ports each)")
    print(f"  incremental       : {incr_rate:>8.0f} evaluations/s "
          f"({ports_per_mutant:.0f} ports each)")
    print(f"  speedup           : {ratio:.2f}x  (fitness keys identical)\n")

    # -- 2. end to end, with telemetry --------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        result, elapsed = end_to_end(
            spec, initial, benchmark.name, path,
            generations=generations, offspring=offspring)
        run_end = read_telemetry(path)[-1]

    print(f"end to end ({generations} generations x lambda={offspring}):")
    print(f"  {'evals/s':>8} {'eval_full':>9} {'eval_incr':>9} "
          f"{'ports_resim':>11}")
    print(f"  {result.evaluations / elapsed:>8.0f} "
          f"{run_end['eval_full']:>9} {run_end['eval_incremental']:>9} "
          f"{run_end['ports_resimulated']:>11}")
    avg_cone = (run_end["ports_resimulated"] /
                max(1, run_end["eval_incremental"]))
    print(f"\n  incremental evaluations resimulated {avg_cone:.0f}/"
          f"{total_ports} ports on average (fitness key "
          f"{result.fitness.key()})")

    if minimum is not None and ratio < float(minimum):
        print(f"FAIL: evaluation-layer speedup {ratio:.2f}x "
              f"< required {minimum}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
