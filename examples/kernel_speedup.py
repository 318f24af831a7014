"""Throughput benchmark: flat structure-of-arrays kernel vs object path.

The (1+λ) inner loop spends its life mutating one shared parent and
incrementally evaluating the mutants.  On the object path each offspring
pays a full `RqfpNetlist.copy()` (one object per gate), attribute reads
per gene, and an O(ports) value-vector copy per evaluation.  The flat
kernel (`NetlistKernel`, `RcgpConfig.kernel="flat"`) stores the genome
in five flat arrays — copies are C-level `memcpy` — and evaluates
offspring *in place* against the memoized parent vector under an undo
log, with per-config compiled majority functions doing the bit-parallel
arithmetic.

Both representations are bit-identical by construction; this script
measures the win twice on one Table-1 circuit:

1. **inner loop, isolated** — a fixed sequence of (mutate + incremental
   evaluate) iterations against a shared parent, once with netlist
   candidates and once with kernel candidates.  Same RNG stream, same
   mutants, same fitness keys (asserted).
2. **end to end** — two `EvolutionRun`s (``kernel="object"`` vs
   ``"flat"``) from one precomputed initial netlist, best elapsed of
   ``RCGP_KERNEL_REPS`` repetitions per mode.  Results are asserted
   bit-identical (fitness key and final netlist).

Environment knobs::

    RCGP_KERNEL_CIRCUIT      Table-1 circuit             (default intdiv9)
    RCGP_KERNEL_MUTANTS      iterations for isolated timing (default 2000)
    RCGP_KERNEL_GENERATIONS  generations per end-to-end run (default 600)
    RCGP_KERNEL_REPS         repetitions per mode, best-of  (default 3)
    RCGP_KERNEL_MIN          if set (e.g. "1.5"), exit non-zero unless the
                             end-to-end evaluations/sec ratio reaches it
"""

import os
import random
import sys
import time

from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.fitness import Evaluator
from repro.core.kernel import NetlistKernel
from repro.core.mutation import consumer_view, mutate_with_delta
from repro.core.synthesis import initialize_netlist


def isolated_loop_timing(spec, initial, config, iterations):
    """(object evals/s, flat evals/s) for mutate + incremental evaluate."""
    results = {}
    keys = {}
    for mode in ("object", "flat"):
        parent = NetlistKernel.from_netlist(initial) \
            if mode == "flat" else initial.copy()
        evaluator = Evaluator(spec, config, random.Random(config.seed))
        state = evaluator.prepare_parent(parent)
        consumers = consumer_view(parent)
        rng = random.Random(7)
        fitness_keys = []
        start = time.perf_counter()
        for _ in range(iterations):
            child, delta = mutate_with_delta(parent, rng, config,
                                             consumers=consumers,
                                             rollback=True)
            fitness_keys.append(
                evaluator.evaluate_incremental(child, delta, state).key())
        results[mode] = iterations / (time.perf_counter() - start)
        keys[mode] = fitness_keys
    assert keys["flat"] == keys["object"], \
        "flat fitness diverged from the object path — kernel bug"
    return results["object"], results["flat"]


def end_to_end(spec, initial, name, kernel, generations, reps):
    """Best evals/s over ``reps`` runs, plus the (identical) result."""
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=2024,
                        shrink="on_improvement",
                        generations=generations, kernel=kernel)
    best_rate, result = 0.0, None
    for _ in range(reps):
        start = time.perf_counter()
        result = EvolutionRun(spec, config, initial=initial.copy(),
                              name=name).run()
        best_rate = max(best_rate,
                        result.evaluations / (time.perf_counter() - start))
    return best_rate, result


def main() -> int:
    circuit = os.environ.get("RCGP_KERNEL_CIRCUIT", "intdiv9")
    iterations = int(os.environ.get("RCGP_KERNEL_MUTANTS", "2000"))
    generations = int(os.environ.get("RCGP_KERNEL_GENERATIONS", "600"))
    reps = int(os.environ.get("RCGP_KERNEL_REPS", "3"))
    minimum = os.environ.get("RCGP_KERNEL_MIN")

    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    initial = initialize_netlist(spec, benchmark.name)
    print(f"circuit {benchmark.name}: {benchmark.num_inputs} inputs, "
          f"{benchmark.num_outputs} outputs, {initial.num_gates} gates\n")

    # -- 1. inner loop, isolated --------------------------------------
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=3)
    obj_rate, flat_rate = isolated_loop_timing(spec, initial, config,
                                               iterations)
    print(f"inner loop ({iterations} x mutate + incremental evaluate):")
    print(f"  object netlist : {obj_rate:>8.0f} evaluations/s")
    print(f"  flat kernel    : {flat_rate:>8.0f} evaluations/s")
    print(f"  speedup        : {flat_rate / obj_rate:.2f}x "
          f"(fitness keys identical)\n")

    # -- 2. end to end, best-of-reps ----------------------------------
    rows = {}
    for kernel in ("object", "flat"):
        rows[kernel] = end_to_end(spec, initial, benchmark.name, kernel,
                                  generations, reps)
    obj_best, obj_result = rows["object"]
    flat_best, flat_result = rows["flat"]
    assert flat_result.fitness.key() == obj_result.fitness.key(), \
        "modes disagreed on the result — engine bug"
    assert flat_result.netlist.describe() == obj_result.netlist.describe()
    ratio = flat_best / obj_best
    print(f"end to end ({generations} generations, best of {reps}):")
    print(f"  object netlist : {obj_best:>8.0f} evaluations/s")
    print(f"  flat kernel    : {flat_best:>8.0f} evaluations/s")
    print(f"  speedup        : {ratio:.2f}x")
    print(f"  both modes returned the identical result "
          f"(fitness key {flat_result.fitness.key()})")

    if minimum is not None and ratio < float(minimum):
        print(f"FAIL: end-to-end speedup {ratio:.2f}x "
              f"< required {minimum}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
