#!/usr/bin/env python3
"""Regenerate RevLib-style .real benchmark files and push one through RQFP.

RevLib circuits are not shipped offline, so this example produces them:
every permutation benchmark of Tables 1-2 is synthesized into an MCT
cascade with the Miller-Maslov-Dueck transformation algorithm and
written as a ``.real`` file.  One of them is then re-parsed and driven
through the complete RQFP flow, demonstrating the paper's RevLib ->
RQFP path end to end.

Run:  python examples/build_revlib_suite.py [output_dir]
"""

import os
import sys
import tempfile

from repro import RcgpConfig, synthesize
from repro.bench.revlib import graycode, ham3, hwb, revlib_4_49
from repro.io.real import write_real
from repro.reversible import synthesize_tables

out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
    prefix="revlib_")
os.makedirs(out_dir, exist_ok=True)

suite = {
    "ham3": ham3(),
    "4_49": revlib_4_49(),
    "graycode4": graycode(4),
    "graycode6": graycode(6),
    "hwb4": hwb(4),
    "hwb6": hwb(6),
}

print(f"=== building RevLib-style suite in {out_dir} ===")
paths = {}
for name, tables in suite.items():
    circuit = synthesize_tables(tables, name=name)
    path = os.path.join(out_dir, f"{name}.real")
    with open(path, "w") as handle:
        handle.write(write_real(circuit))
    paths[name] = path
    print(f"{name:<10} {circuit.gate_count():>3} MCT gates, "
          f"quantum cost {circuit.quantum_cost():>5}  -> {path}")

print()
print("=== RQFP synthesis from ham3.real (the paper's Fig. 2 path) ===")
result = synthesize(paths["ham3"],
                    RcgpConfig(generations=3000, mutation_rate=0.1,
                               seed=3, shrink="always"))
print(f"initialization: {result.initial.cost}")
print(f"rcgp          : {result.cost}")
print(f"verified      : {result.verify()}")
print(f"(paper's ham3 row: init 16 gates/18 garbage -> RCGP 5/2)")
