#!/usr/bin/env python3
"""Reversible reciprocal circuits (Table 2's intdiv family), swept.

Synthesizes ``intdiv4`` .. ``intdiv6`` with the initialization baseline
and RCGP, printing the same columns as the paper's Table 2 — this is a
scaled-down version of the experiment harness showing how RQFP costs
grow with operand width and how much the CGP stage recovers.

Run:  python examples/reciprocal_sweep.py          (about a minute)
      RCGP_SWEEP_MAX_BITS=8 python examples/reciprocal_sweep.py
"""

import os
import time

from repro import RcgpConfig, synthesize
from repro.bench.reciprocal import intdiv

max_bits = int(os.environ.get("RCGP_SWEEP_MAX_BITS", "6"))

print(f"{'circuit':<10} {'':>6} {'n_r':>6} {'n_b':>6} {'JJs':>8} "
      f"{'n_d':>4} {'n_g':>6} {'T(s)':>7}")

for bits in range(4, max_bits + 1):
    name = f"intdiv{bits}"
    spec = intdiv(bits)
    # Scale the budget inversely with circuit size so the sweep stays
    # interactive; the harness uses bigger budgets.
    generations = max(300, 3000 // (bits - 2))
    config = RcgpConfig(generations=generations, mutation_rate=0.05,
                        seed=bits, shrink="always", offspring=4)
    start = time.time()
    result = synthesize(spec, config, name=name)
    elapsed = time.time() - start
    assert result.verify(), f"{name} failed verification!"

    init = result.initial.cost
    rcgp = result.cost
    print(f"{name:<10} {'init':>6} {init.n_r:>6} {init.n_b:>6} "
          f"{init.jjs:>8} {init.n_d:>4} {init.n_g:>6} {'-':>7}")
    print(f"{'':<10} {'rcgp':>6} {rcgp.n_r:>6} {rcgp.n_b:>6} "
          f"{rcgp.jjs:>8} {rcgp.n_d:>4} {rcgp.n_g:>6} {elapsed:>7.1f}")

print()
print("Paper Table 2 shape check: RCGP cuts gates ~32% and garbage ~59%")
print("versus the initialization baseline on this family.")
