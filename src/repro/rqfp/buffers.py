"""RQFP buffer insertion (path balancing): the buffer count of a level
assignment.

All inputs of an AQFP gate must arrive in the same clock phase, so every
edge spanning more than one level needs RQFP buffers (two cascaded AQFP
buffers, 4 JJs each).  This module prices a level assignment
(:class:`BufferPlan`) and gives the fitness loop its ASAP estimate
(:func:`estimate_buffers`); the levels every reported cost, design-rule
check and AQFP expansion uses come from the exact planner,
:func:`repro.rqfp.buffer_opt.optimal_levels`.  Following the paper's
experimental protocol, the primary inputs all launch in stage 0 and the
primary outputs are all buffered to a common final stage, so PI→gate and
gate→PO edges pay buffers too.  Constant inputs are excitation-driven
and phase-free, so constant edges are exempt.

Given gate levels ``L``, the buffer count is::

    n_b =   sum over gate->gate edges (u,v) of  L[v] - L[u] - 1
          + sum over PI->gate edges   (v)   of  L[v] - 1
          + sum over gate->PO edges   (u)   of  D - L[u]
          + sum over PI->PO edges           of  D

with ``D = max level``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .netlist import RqfpNetlist


@dataclass
class BufferPlan:
    """Level assignment and the buffers it implies."""

    levels: List[int]                       # per gate, stage >= 1
    depth: int                              # D = max level (paper's n_d)
    edge_buffers: Dict[Tuple[str, int, int, int], int] = field(default_factory=dict)
    num_buffers: int = 0                    # paper's n_b

    def describe(self) -> str:
        return (f"depth={self.depth}, buffers={self.num_buffers}, "
                f"levels={self.levels}")


def _edge_list(netlist: RqfpNetlist):
    """Edges as (kind, src, dst, slot): kind in {gg, ig, go, io}.

    ``slot`` is the consuming input position (or 0 for POs) so parallel
    edges between the same pair of gates stay distinct.  Ports are
    classified by inline arithmetic (gate ports are ``>= base``, the
    constant port is 0, everything else is a PI) — this walk sits on the
    functional-fitness path.
    """
    base = netlist.num_inputs + 1
    edges = []
    for g, gate in enumerate(netlist.gates):
        for pos, port in enumerate((gate.in0, gate.in1, gate.in2)):
            if port >= base:
                edges.append(("gg", (port - base) // 3, g, pos))
            elif port:
                edges.append(("ig", port, g, pos))
    for o, port in enumerate(netlist.outputs):
        if port >= base:
            edges.append(("go", (port - base) // 3, o, 0))
        elif port:
            edges.append(("io", port, o, 0))
    return edges


def _count_buffers(netlist: RqfpNetlist, levels: List[int], depth: int):
    edge_buffers: Dict[Tuple[str, int, int, int], int] = {}
    total = 0
    for kind, src, dst, slot in _edge_list(netlist):
        if kind == "gg":
            span = levels[dst] - levels[src] - 1
        elif kind == "ig":
            span = levels[dst] - 1
        elif kind == "go":
            span = depth - levels[src]
        else:  # io: PI straight to PO crosses the whole pipeline
            span = depth
        if span < 0:
            raise ValueError("negative edge span — levels not topological")
        if span:
            edge_buffers[(kind, src, dst, slot)] = span
            total += span
    return edge_buffers, total


def plan_for_levels(netlist: RqfpNetlist, levels: List[int],
                    depth: int) -> BufferPlan:
    """The :class:`BufferPlan` of a level assignment: per-edge buffers
    and their total."""
    edge_buffers, total = _count_buffers(netlist, levels, depth)
    return BufferPlan(levels, depth, edge_buffers, total)


def estimate_buffers(netlist: RqfpNetlist) -> int:
    """Fast n_b estimate used inside the CGP fitness loop.

    Equivalent to summing spans over :func:`_edge_list` with ASAP
    levels, but walks the gates directly instead of materializing the
    edge tuples — this runs for every simulation-clean candidate.
    """
    base = netlist.num_inputs + 1
    levels = netlist.levels()
    depth = max(levels, default=0)
    total = 0
    for g, gate in enumerate(netlist.gates):
        here = levels[g]
        for port in (gate.in0, gate.in1, gate.in2):
            if port >= base:
                total += here - levels[(port - base) // 3] - 1
            elif port:
                total += here - 1
    for port in netlist.outputs:
        if port >= base:
            total += depth - levels[(port - base) // 3]
        elif port:
            total += depth
    return total
