"""Cost metrics for RQFP circuits — the columns of the paper's tables.

* ``n_r``  — RQFP logic gates (including splitters; they are RQFP gates
  built from constants, and the paper's gate counts include them),
* ``n_b``  — RQFP buffers inserted for path balancing,
* ``JJs``  — Josephson junctions: ``24 * n_r + 4 * n_b`` (validated
  against every row of Table 1),
* ``n_d``  — circuit depth in gate levels,
* ``n_g``  — garbage outputs,
* ``g_lb`` — the garbage lower bound ``max(0, n_pi - n_po)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .buffer_opt import optimal_levels
from .buffers import BufferPlan
from .gate import JJS_PER_BUFFER, JJS_PER_GATE
from .netlist import RqfpNetlist


@dataclass(frozen=True)
class CircuitCost:
    """The per-testcase tuple reported in Tables 1 and 2."""

    n_r: int
    n_b: int
    n_d: int
    n_g: int
    runtime: float = 0.0

    @property
    def jjs(self) -> int:
        return JJS_PER_GATE * self.n_r + JJS_PER_BUFFER * self.n_b

    def as_row(self) -> dict:
        return {
            "n_r": self.n_r,
            "n_b": self.n_b,
            "JJs": self.jjs,
            "n_d": self.n_d,
            "n_g": self.n_g,
            "T": round(self.runtime, 2),
        }

    def __str__(self) -> str:
        return (f"n_r={self.n_r} n_b={self.n_b} JJs={self.jjs} "
                f"n_d={self.n_d} n_g={self.n_g} T={self.runtime:.2f}s")


def garbage_lower_bound(num_inputs: int, num_outputs: int) -> int:
    """The paper's ``g_lb = max(0, n_pi - n_po)``."""
    return max(0, num_inputs - num_outputs)


def circuit_cost(netlist: RqfpNetlist, plan: Optional[BufferPlan] = None,
                 runtime: float = 0.0) -> CircuitCost:
    """Full cost of a legal netlist; ``plan`` defaults to the exact
    :func:`~repro.rqfp.buffer_opt.optimal_levels` plan."""
    if plan is None:
        plan = optimal_levels(netlist)
    return CircuitCost(
        n_r=netlist.num_gates,
        n_b=plan.num_buffers,
        n_d=plan.depth,
        n_g=netlist.num_garbage,
        runtime=runtime,
    )
