#!/usr/bin/env python3
"""Convergence behaviour of RCGP: fitness vs generations.

Runs the decoder (Fig. 3's example), whose result records every
improvement in its history, and draws ASCII convergence curves for
gates and garbage, plus a multi-seed summary — the standard EA
reporting the paper's tables compress into a single number.

Run:  python examples/convergence_curve.py
"""

from repro.core import EvolutionRun, RcgpConfig, initialize_netlist
from repro.logic import tabulate_word

spec = tabulate_word(lambda x: 1 << x, 2, 4)
initial = initialize_netlist(spec, "decoder_2_4")

print("=== single-run convergence (seed 5) ===")
config = RcgpConfig(generations=8000, mutation_rate=0.1, seed=5,
                    shrink="always")
result = EvolutionRun(spec, config, initial=initial).run()

events = result.history
print(f"{'generation':>10}  {'n_r':>4}  {'n_g':>4}  {'n_b':>4}")
for generation, fitness in events:
    print(f"{generation:>10}  {fitness.n_r:>4}  {fitness.n_g:>4}  "
          f"{fitness.n_b:>4}")

# ASCII curve: garbage outputs over a log-ish generation axis.
print("\ngarbage outputs vs generations:")
max_g = max(f.n_g for _, f in events)
samples = {g: f.n_g for g, f in events}
current = events[0][1].n_g
checkpoints = [0, 10, 30, 100, 300, 1000, 3000, 8000]
for checkpoint in checkpoints:
    for g, f in events:
        if g <= checkpoint:
            current = f.n_g
    bar = "#" * current
    print(f"  gen {checkpoint:>5} | {bar:<{max_g}} ({current})")

print("\n=== multi-seed summary (10 seeds, 3000 generations) ===")
results = []
for seed in range(10):
    config = RcgpConfig(generations=3000, mutation_rate=0.1, seed=seed,
                        shrink="always")
    r = EvolutionRun(spec, config, initial=initial).run()
    results.append((r.fitness.n_r, r.fitness.n_g))
gates = [r[0] for r in results]
garbage = [r[1] for r in results]
mean = lambda xs: sum(xs) / len(xs)
print(f"gates  : min {min(gates)}  mean {mean(gates):.1f}  max {max(gates)}")
print(f"garbage: min {min(garbage)}  mean {mean(garbage):.1f}  "
      f"max {max(garbage)}")
print("(paper/exact optimum: 3 gates, 1 garbage)")
