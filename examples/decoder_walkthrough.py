#!/usr/bin/env python3
"""Walkthrough of the paper's Fig. 3 worked example, step by step.

Reproduces the 2-to-4 decoder story quantitatively:

* the CGP chromosome encoding (`(in0, in1, in2, cfg)` per gate, port
  indices with constant = 0),
* the shrink step (useless gates reduce the chromosome length),
* RQFP buffer insertion for path balancing,
* the end state the paper reports: 3 gates / 1 garbage output after
  exact synthesis, which RCGP approaches with enough generations.

Run:  python examples/decoder_walkthrough.py
"""

from repro import EvolutionRun, RcgpConfig
from repro.core.mutation import chromosome_length
from repro.core.synthesis import initialize_netlist
from repro.logic import tabulate_word
from repro.rqfp import circuit_cost, optimal_levels

spec = tabulate_word(lambda x: 1 << x, 2, 4)

print("=== Step 1: initialization (Fig. 2 left pipeline) ===")
initial = initialize_netlist(spec, "decoder_2_4")
print("initial chromosome:", initial.describe())
print(f"n_C = {initial.num_gates} gates, "
      f"n_L = {chromosome_length(initial)} genes "
      f"(4 per gate + {initial.num_outputs} output genes)")
print(f"garbage outputs: {initial.num_garbage}")
print()

print("=== Step 2: CGP optimization (Algorithm 1) ===")
improvements = []
config = RcgpConfig(generations=6000, mutation_rate=0.1, seed=7,
                    offspring=4, shrink="always")
result = EvolutionRun(spec, config, initial=initial).run()
for generation, fitness in result.history:
    print(f"  gen {generation:>6}: {fitness}")
print("final chromosome:", result.netlist.describe())
print(f"n_L shrunk from {chromosome_length(initial)} to "
      f"{chromosome_length(result.netlist)} genes")
print()

print("=== Step 3: RQFP buffer insertion (Fig. 3(d)) ===")
plan = optimal_levels(result.netlist)
cost = circuit_cost(result.netlist, plan)
print(f"gate levels: {plan.levels}")
print(f"buffers per edge: { {k: v for k, v in plan.edge_buffers.items()} }")
print(f"final cost: {cost}")
print()
print("Paper's Table 1 row (decoder_2_4):")
print("  exact synthesis : n_r=3  n_b=3  JJs=84  n_d=3  n_g=1")
print("  RCGP (5e7 gens) : n_r=3  n_b=3  JJs=84  n_d=3  n_g=1")
print(f"  this run        : n_r={cost.n_r}  n_b={cost.n_b}  "
      f"JJs={cost.jjs}  n_d={cost.n_d}  n_g={cost.n_g}")
