#!/usr/bin/env python3
"""Windowed RCGP on a large circuit (Table 2 scale).

Whole-circuit CGP slows down linearly with netlist size — the paper
burns 43 hours on hwb8.  Windowing (cited in §2.2 as the route to
million-gate instances) optimizes bounded regions against their local
functions instead: each window's chromosome and simulation are small,
so optimization pressure per second is much higher on big designs.

Run:  python examples/windowed_large_circuit.py           (~1-2 min)
      RCGP_WINDOW_CIRCUIT=intdiv8 python examples/windowed_large_circuit.py
"""

import os
import time

from repro.bench import get_benchmark
from repro.core import RcgpConfig, initialize_netlist, windowed_optimize
from repro.io import write_rqfp_verilog
from repro.rqfp import circuit_cost, optimal_levels

name = os.environ.get("RCGP_WINDOW_CIRCUIT", "intdiv6")
spec = get_benchmark(name).spec()

print(f"=== windowed RCGP on {name} ===")
t0 = time.time()
initial = initialize_netlist(spec, name)
print(f"initialization: {initial.num_gates} gates, "
      f"{initial.num_garbage} garbage ({time.time() - t0:.1f}s)")

config = RcgpConfig(generations=400, mutation_rate=1.0,
                    max_mutated_genes=4, seed=7, shrink="always")
t0 = time.time()
result = windowed_optimize(initial, window_gates=14, rounds=2,
                           config=config, seed=11)
elapsed = time.time() - t0

assert result.netlist.to_truth_tables() == spec, "function changed!"
print(f"windowed optimization: {result.gates_before} -> "
      f"{result.gates_after} gates, {result.garbage_before} -> "
      f"{result.garbage_after} garbage "
      f"({result.windows_improved}/{result.windows_tried} windows improved, "
      f"{elapsed:.1f}s)")

plan = optimal_levels(result.netlist)
cost = circuit_cost(result.netlist, plan)
print(f"final circuit: {cost}")

verilog = write_rqfp_verilog(result.netlist, plan)
print(f"\nstructural Verilog export: {len(verilog.splitlines())} lines "
      f"(write with repro.io.write_rqfp_verilog)")
