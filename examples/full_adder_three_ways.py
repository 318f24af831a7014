#!/usr/bin/env python3
"""The 1-bit full adder, three ways (paper Table 1, row 1).

1. **Conventional reversible logic** — a Bennett-style MCT embedding
   (what RevLib circuits look like), with its quantum cost.
2. **Exact RQFP synthesis** (baseline 2) — provably minimal gates and
   garbage, at exponential runtime.
3. **RCGP** — the paper's CGP flow, near-optimal in a fraction of the
   exact method's effort.

The example also demonstrates the file-based front-end: the adder is
written as structural Verilog and synthesized from its path by
`synthesize`.

Run:  python examples/full_adder_three_ways.py      (a few minutes; the
      exact phase dominates — set RCGP_SKIP_EXACT=1 to skip it)
"""

import os
import tempfile

from repro import RcgpConfig, exact_synthesize, synthesize
from repro.bench.revlib import full_adder
from repro.errors import ExactSynthesisTimeout
from repro.reversible import bennett_embedding

spec = full_adder()

print("=== 1. Conventional reversible logic (MCT embedding) ===")
embedding = bennett_embedding(spec, name="full_adder")
print(f"wires: {embedding.num_wires}  MCT gates: {embedding.gate_count()}  "
      f"quantum cost: {embedding.quantum_cost()}")
print(f"garbage lines: {sum(embedding.garbage)}")
print()

print("=== 2. Exact RQFP synthesis (SAT, baseline 2) ===")
if os.environ.get("RCGP_SKIP_EXACT"):
    print("skipped (RCGP_SKIP_EXACT set); the paper reports 3 gates, "
          "2 garbage in 41.19 s with Z3")
else:
    try:
        exact = exact_synthesize(spec, name="full_adder",
                                 conflict_budget=400_000, max_gates=4)
        print(f"gates: {exact.num_gates} (optimal: "
              f"{exact.gates_proved_optimal})  "
              f"garbage: {exact.num_garbage} (optimal: "
              f"{exact.garbage_proved_optimal})  "
              f"runtime: {exact.runtime:.1f}s")
        print("netlist:", exact.netlist.describe())
    except ExactSynthesisTimeout as exc:
        print(f"timed out: {exc} — this is the paper's '\\' outcome")
print()

print("=== 3. RCGP on a Verilog description (Fig. 2 full flow) ===")
verilog = """module full_adder(a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  assign sum = a ^ b ^ cin;
  assign cout = (a & b) | (a & cin) | (b & cin);
endmodule
"""
with tempfile.NamedTemporaryFile("w", suffix=".v", delete=False) as handle:
    handle.write(verilog)
    path = handle.name
try:
    result = synthesize(path, RcgpConfig(generations=5000,
                                         mutation_rate=0.08,
                                         seed=1, shrink="always"))
finally:
    os.unlink(path)

print(f"initialization : {result.initial.cost}")
print(f"rcgp           : {result.cost}")
print(f"verified       : {result.verify()}")
print()
print("Paper row: init 6 gates/7 garbage -> RCGP 3 gates/2 garbage "
      "(80 JJs); exact matches RCGP at 3/2.")
