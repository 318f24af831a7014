"""Generation-throughput benchmark: serial loop vs span-replay pool.

The paper's cost center is the (1+λ) inner loop — 5·10⁷ generations,
43-hour runs.  This script measures how fast the evolution engine
(`repro.core.engine.EvolutionRun`) turns generations over on one
Table-1 circuit, in two configurations:

1. **serial** — mutation, evaluation and selection in the calling
   process.
2. **pooled** — whole spans of generations replayed worker-side, one
   span in flight while the coordinator narrates the previous one.  The
   run is given a span handle (`repro.jobs.pool.JobBackend`) on a
   dispatcher over N local pipe workers
   (`repro.cluster.ClusterDispatch`), built here exactly as a session's
   scheduler builds one per slice; the engine never starts workers
   itself.

Both produce bit-identical results for the fixed seed (that is the
engine's determinism guarantee; `tests/test_engine.py` and
`tests/test_replay.py` assert it) — so the only thing that differs is
throughput.

Environment knobs::

    RCGP_SPEEDUP_CIRCUIT      Table-1 circuit        (default alu)
    RCGP_SPEEDUP_GENERATIONS  generations per timing (default 300)
    RCGP_SPEEDUP_OFFSPRING    lambda                 (default 16)
    RCGP_SPEEDUP_WORKERS      pool size              (default usable CPUs,
                              at least 2)
    RCGP_SPEEDUP_MIN          if set (e.g. "1.2"), exit non-zero unless
                              the pooled-vs-serial speedup reaches it

Note: one run keeps one span in flight (span k+1 starts from span k's
final parent), so the pooled row is serial-plus-IPC at best whatever N
is; worker processes pay off when a session runs several jobs.
"""

import os
import sys
import time

from repro.bench.registry import get_benchmark
from repro.cluster import ClusterDispatch
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.synthesis import initialize_netlist
from repro.jobs.pool import JobBackend


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def timed_run(spec, initial, name, workers, **config_kwargs):
    """One run, in-process (``workers=0``) or over ``workers`` local
    pipe workers; the pooled timing includes starting them."""
    config = RcgpConfig(mutation_rate=0.1, seed=2024, shrink="always",
                        **config_kwargs)
    start = time.perf_counter()
    if workers == 0:
        result = EvolutionRun(spec, config, initial=initial,
                              name=name).run()
    else:
        dispatch = ClusterDispatch(local_workers=workers)
        ctx = (name, tuple(t.bits for t in spec), spec[0].num_vars,
               config.to_dict())
        backend = JobBackend(dispatch, ctx, config)
        try:
            result = EvolutionRun(spec, config, initial=initial, name=name,
                                  backend=backend).run()
        finally:
            backend.close()
            dispatch.close()
    elapsed = time.perf_counter() - start
    return result, elapsed


def main() -> int:
    circuit = os.environ.get("RCGP_SPEEDUP_CIRCUIT", "alu")
    generations = int(os.environ.get("RCGP_SPEEDUP_GENERATIONS", "300"))
    offspring = int(os.environ.get("RCGP_SPEEDUP_OFFSPRING", "16"))
    workers = int(os.environ.get("RCGP_SPEEDUP_WORKERS",
                                 str(max(2, _usable_cpus()))))
    minimum = os.environ.get("RCGP_SPEEDUP_MIN")

    benchmark = get_benchmark(circuit)
    spec = benchmark.spec()
    initial = initialize_netlist(spec, benchmark.name)
    print(f"circuit {benchmark.name}: {benchmark.num_inputs} inputs, "
          f"{benchmark.num_outputs} outputs, "
          f"{initial.num_gates} initial gates")
    print(f"budget: {generations} generations x lambda={offspring}, "
          f"pool size {workers} ({_usable_cpus()} usable CPUs)\n")

    modes = [("serial", 0), (f"pooled (workers={workers})", workers)]
    rows = []
    for label, pool_size in modes:
        result, elapsed = timed_run(
            spec, initial, benchmark.name, pool_size,
            generations=generations, offspring=offspring)
        rows.append((label, result, elapsed))

    serial_elapsed = rows[0][2]
    keys = {row[1].fitness.key() for row in rows}
    print(f"{'mode':<28} {'gens/s':>8} {'evals':>7} {'spans':>6} "
          f"{'speedup':>8}")
    for label, result, elapsed in rows:
        throughput = result.generations / elapsed if elapsed else 0.0
        print(f"{label:<28} {throughput:>8.1f} {result.evaluations:>7} "
              f"{result.chunks_dispatched:>6} "
              f"{serial_elapsed / elapsed:>7.2f}x")
    assert len(keys) == 1, "modes disagreed on the result — engine bug"
    print("\nboth modes returned the identical result "
          f"(fitness key {rows[0][1].fitness.key()})")

    speedup = serial_elapsed / rows[1][2]
    if minimum is not None and speedup < float(minimum):
        print(f"FAIL: pooled speedup {speedup:.2f}x "
              f"< required {minimum}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
