#!/usr/bin/env python3
"""Quickstart: synthesize an RQFP circuit for a 2-to-4 decoder.

This is the paper's running example (Fig. 3).  The flow is:

1. specify the function as truth tables,
2. run the RCGP flow (initialization -> CGP optimization -> buffers),
3. inspect the cost metrics the paper reports (n_r, n_b, JJs, n_d, n_g).

Run:  python examples/quickstart.py
"""

from repro import RcgpConfig, synthesize
from repro.logic import tabulate_word

# A 2-to-4 decoder: output bit i is high iff the input equals i.
spec = tabulate_word(lambda x: 1 << x, num_inputs=2, num_outputs=4)

config = RcgpConfig(
    generations=4000,      # the paper runs 5e7; a few thousand suffice here
    mutation_rate=0.08,
    offspring=4,           # the lambda of the (1+lambda) strategy
    seed=2024,
    shrink="always",       # remove useless gates as soon as they appear
)

result = synthesize(spec, config, name="decoder_2_4")

print("=== RCGP quickstart: 2-to-4 decoder ===")
print(f"initialization baseline : {result.initial.cost}")
print(f"after CGP optimization  : {result.cost}")
print(f"functionally verified   : {result.verify()}")
print(f"generations / evals     : {result.evolution.generations} / "
      f"{result.evolution.evaluations}")
print()
print("final netlist (paper-style chromosome):")
print(" ", result.netlist.describe())
print()
print("buffer schedule:", result.plan.describe())
