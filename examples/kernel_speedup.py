"""Throughput benchmark: flat structure-of-arrays kernel vs object path.

The (1+λ) inner loop spends its life mutating one shared parent and
incrementally evaluating the mutants.  On the object path each offspring
pays a full `RqfpNetlist.copy()` (one object per gate), attribute reads
per gene, and an O(ports) value-vector copy per evaluation.  The flat
kernel (`NetlistKernel`, the evolution engine's representation) stores
the genome in five flat arrays — copies are C-level `memcpy` — and
evaluates offspring *in place* against the memoized parent vector under
an undo log, with per-config compiled majority functions doing the
bit-parallel arithmetic.

Both representations are bit-identical by construction; this script
times a fixed sequence of (mutate + incremental evaluate) iterations
against a shared parent on one Table-1 circuit, once with netlist
candidates and once with kernel candidates.  Same RNG stream, same
mutants, same fitness keys (asserted).

Environment knobs::

    RCGP_KERNEL_CIRCUIT      Table-1 circuit             (default intdiv9)
    RCGP_KERNEL_MUTANTS      iterations per representation (default 2000)
    RCGP_KERNEL_MIN          if set (e.g. "1.5"), exit non-zero unless the
                             evaluations/sec ratio reaches it
"""

import os
import random
import sys
import time

from repro.bench.registry import get_benchmark
from repro.core.config import RcgpConfig
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


def main() -> int:
    circuit = os.environ.get("RCGP_KERNEL_CIRCUIT", "intdiv9")
    iterations = int(os.environ.get("RCGP_KERNEL_MUTANTS", "2000"))
    minimum = os.environ.get("RCGP_KERNEL_MIN")

    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    initial = initialize_netlist(spec, benchmark.name)
    print(f"circuit {benchmark.name}: {benchmark.num_inputs} inputs, "
          f"{benchmark.num_outputs} outputs, {initial.num_gates} gates\n")

    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=8, seed=3)
    obj_rate, flat_rate = isolated_loop_timing(spec, initial, config,
                                               iterations)
    ratio = flat_rate / obj_rate
    print(f"inner loop ({iterations} x mutate + incremental evaluate):")
    print(f"  object netlist : {obj_rate:>8.0f} evaluations/s")
    print(f"  flat kernel    : {flat_rate:>8.0f} evaluations/s")
    print(f"  speedup        : {ratio:.2f}x (fitness keys identical)")

    if minimum is not None and ratio < float(minimum):
        print(f"FAIL: kernel speedup {ratio:.2f}x "
              f"< required {minimum}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
