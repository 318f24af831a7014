#!/usr/bin/env python3
"""Multi-objective RQFP synthesis: the gates/garbage/buffers front.

The paper's fitness is lexicographic — gates, then garbage, then
buffers — which happily *raises* Josephson-junction cost to shave a
gate (visible in the paper's own Table 2: mod5adder 3884 → 5172 JJs).
This example evolves a Pareto archive instead and prints the front,
letting you pick the JJ-optimal, gate-optimal or depth-friendly corner.

Run:  python examples/pareto_front.py
"""

from repro.core import EvolutionRun, RcgpConfig, initialize_netlist
from repro.core.pareto import evolve_pareto
from repro.logic import tabulate_word
from repro.rqfp import JJS_PER_BUFFER, JJS_PER_GATE

from repro.bench.reciprocal import intdiv

spec = intdiv(5)  # Table 2's intdiv5: rich gates-vs-buffers trade-off
initial = initialize_netlist(spec, "intdiv5")
config = RcgpConfig(generations=2500, mutation_rate=1.0,
                    max_mutated_genes=6, seed=19, shrink="always")

print("=== lexicographic RCGP (the paper's objective) ===")
lexi = EvolutionRun(spec, config, initial=initial).run()
lexi_jj = JJS_PER_GATE * lexi.fitness.n_r + JJS_PER_BUFFER * lexi.fitness.n_b
print(f"result: n_r={lexi.fitness.n_r} n_g={lexi.fitness.n_g} "
      f"n_b={lexi.fitness.n_b}  ->  {lexi_jj} JJs")

print("\n=== Pareto archive over (n_r, n_g, n_b) ===")
archive = evolve_pareto(initial, spec, config)
print(f"{'n_r':>4} {'n_g':>4} {'n_b':>4} {'JJs':>6}")
for cost in archive.costs():
    jj = JJS_PER_GATE * cost[0] + JJS_PER_BUFFER * cost[2]
    print(f"{cost[0]:>4} {cost[1]:>4} {cost[2]:>4} {jj:>6}")

jj_cost, jj_netlist = archive.best_by((JJS_PER_GATE, 0.0, JJS_PER_BUFFER))
gate_cost, _ = archive.best_by((1.0, 0.0, 0.0))
print(f"\nJJ-optimal pick   : {jj_cost} -> "
      f"{JJS_PER_GATE * jj_cost[0] + JJS_PER_BUFFER * jj_cost[2]} JJs")
print(f"gate-optimal pick : {gate_cost}")
assert jj_netlist.to_truth_tables() == spec
print("JJ-optimal circuit verified against the specification.")
