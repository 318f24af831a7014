"""Provably minimal buffer insertion by a warm-started min-cut ascent.

:func:`optimal_levels` is the buffer planner: every reported cost,
design-rule check and AQFP expansion uses its plan.  It solves exactly,
in pure Python, the level-scheduling problem the buffer insertion
literature the paper builds on poses (Lee et al., DAC'22; Fu et al.,
ASP-DAC'23).

Objective.  With integer gate levels ``p`` and depth ``D``::

    buffers = sum_gg (p[dst] - p[src] - 1)
            + sum_ig (p[dst] - 1)
            + sum_go (D - p[src])
            + sum_io (D)

subject to ``p[dst] >= p[src] + 1`` on every gate-to-gate edge and
``1 <= p <= D``.  Only the ``p`` terms vary: raising gate ``g`` by one
changes the count by its *weight*, (its gate+PI in-degree) − (its
gate+PO out-degree), so the count is a linear function over a region
cut out by difference constraints.

L♮-convexity.  Such a function is L♮-convex (Murota, *Discrete Convex
Analysis*), and an L♮-convex function is minimized by steepest descent
over unit steps ``p ± χ_X``.  Started at the ASAP levels — the least
feasible point, below every optimum — only upward steps are needed:
each step raises by one the *minimal* set ``X`` minimizing the weight
sum among the sets that may rise together, i.e. the gates below ``D``
closed under tight successor edges (``p[dst] == p[src] + 1``: raising
the tail forces the head).  If ``p`` lies below the least optimum
``p*``, the gates where ``p == p*`` never enter that minimal ``X``
(submodularity of the function on the lattice), so every step stays
below ``p*``; the ascent stops when no set has negative weight, where
``p`` minimizes the count over ``{q >= p}``, a set containing ``p*``.
So :func:`optimal_levels` returns ``p*`` itself: the componentwise
least optimal levels, a canonical plan that does not depend on edge
order, after at most ``max(p* - ASAP) <= D`` steps.

Min cut.  A step is a minimum-weight closure: an s–t network with an
arc ``s -> g`` of capacity ``-weight`` on every gate that wants to
rise, ``g -> t`` of capacity ``weight`` on every gate that resists,
an infinite ``g -> t`` on gates already at ``D`` and an infinite arc
along every tight edge.  The gates reachable from ``s`` in the
residual network of a maximum flow form the minimal minimum cut, and
that cut lowers the count exactly when the flow leaves some ``s``-arc
unsaturated.

Warm start.  One residual network serves the whole ascent.  Raising
the reachable set ``X`` leaves no flow on a tight arc entering ``X``
(its tail would otherwise be reachable too), so the arcs that stop
being tight carry none; the arcs that become tight leave ``X`` and
the new infinite sink arcs sit on ``X``, both only adding capacity.
The last maximum flow therefore stays feasible, and each step merely
augments it (Dinic's algorithm, layered by residual distance to ``t``)
instead of solving from scratch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import NetlistError
from .buffers import BufferPlan, _edge_list, plan_for_levels
from .netlist import RqfpNetlist


def optimal_levels(netlist: RqfpNetlist,
                   depth: Optional[int] = None) -> BufferPlan:
    """Minimum-buffer level assignment (exact; the least optimal levels).

    ``depth`` defaults to the ASAP critical-path depth — raising it can
    never help because every PI→PO path pays the full pipeline length.
    """
    num_gates = netlist.num_gates
    if num_gates == 0:
        return BufferPlan([], 0, {}, 0)
    levels = netlist.levels()
    critical = max(levels)
    if depth is None:
        depth = critical
    elif depth < critical:
        raise NetlistError(
            f"depth {depth} below the critical path {critical}"
        )

    weight = [0] * num_gates
    arcs = {}     # distinct gate-to-gate pairs, in edge order
    for kind, src, dst, _slot in _edge_list(netlist):
        if kind == "gg":
            weight[dst] += 1
            weight[src] -= 1
            arcs[(src, dst)] = None
        elif kind == "ig":
            weight[dst] += 1
        elif kind == "go":
            weight[src] -= 1
        # io edges are constant-cost.
    _ascend(levels, depth, weight, list(arcs))
    return plan_for_levels(netlist, levels, depth)


def _ascend(levels: List[int], depth: int, weight: Sequence[int],
            arcs: Sequence[Tuple[int, int]]) -> None:
    """Raise ``levels`` in place to the least minimizer of
    ``sum(weight[g] * levels[g])`` over the feasible levels above them.

    ``levels`` must be feasible for the difference constraints of
    ``arcs`` (``levels[head] >= levels[tail] + 1``) and at most
    ``depth``.  An arc is *tight* while ``levels[head] ==
    levels[tail] + 1``; only tight arcs carry flow, so tightness is
    read off the levels instead of being stored.
    """
    num_gates = len(levels)
    flow = [0] * len(arcs)
    # Residual neighbours per gate: (arc, other end, forward?).  A
    # forward step follows a tight arc (infinite capacity); a backward
    # step cancels flow already on it.
    incident: List[List[Tuple[int, int, bool]]] = \
        [[] for _ in range(num_gates)]
    for arc, (tail, head) in enumerate(arcs):
        incident[tail].append((arc, head, True))
        incident[head].append((arc, tail, False))
    source = [-w if w < 0 else 0 for w in weight]   # unused s->g capacity
    sink = [w if w > 0 else 0 for w in weight]      # unused g->t capacity
    roots = [g for g in range(num_gates) if source[g]]

    def to_sink() -> List[int]:
        """Residual distance of each gate to ``t`` (-1: none)."""
        dist = [-1] * num_gates
        frontier = [g for g in range(num_gates)
                    if sink[g] or levels[g] == depth]
        for g in frontier:
            dist[g] = 0
        d = 0
        while frontier:
            d += 1
            found = []
            for g in frontier:
                down = levels[g] - 1
                for arc, other, forward in incident[g]:
                    # Is there a residual step other -> g?
                    if dist[other] < 0 and (
                            flow[arc] if forward
                            else levels[other] == down):
                        dist[other] = d
                        found.append(other)
            frontier = found
        return dist

    def from_source() -> List[int]:
        """The gates reachable from ``s`` in the residual network."""
        seen = [False] * num_gates
        reached = [g for g in roots if source[g]]
        for g in reached:
            seen[g] = True
        for g in reached:       # grows while it is walked
            up = levels[g] + 1
            for arc, other, forward in incident[g]:
                if not seen[other] and (
                        levels[other] == up if forward else flow[arc]):
                    seen[other] = True
                    reached.append(other)
        return reached

    while True:
        # Dinic phases up to a maximum flow.  Each augments along
        # residual steps that bring a root one step closer to ``t``
        # until none is left, which lengthens every root's distance.
        while True:
            dist = to_sink()
            live = [g for g in roots if source[g] and dist[g] >= 0]
            if not live:
                break
            cursor = [0] * num_gates
            for root in live:
                while source[root] and dist[root] >= 0:
                    # Walk down the distances from root to a gate with
                    # a residual t-arc; prune dead ends as they appear.
                    path = [root]
                    via: List[Tuple[int, bool]] = []
                    while path:
                        g = path[-1]
                        if not dist[g]:
                            if sink[g] or levels[g] == depth:
                                break
                        else:
                            adjacent = incident[g]
                            size = len(adjacent)
                            i = cursor[g]
                            nxt = dist[g] - 1
                            up = levels[g] + 1
                            while i < size:
                                arc, other, forward = adjacent[i]
                                if dist[other] == nxt and (
                                        levels[other] == up if forward
                                        else flow[arc]):
                                    break
                                i += 1
                            cursor[g] = i
                            if i < size:
                                path.append(other)
                                via.append((arc, forward))
                                continue
                        dist[g] = -1
                        path.pop()
                        if via:
                            via.pop()
                    if not path:
                        break
                    end = path[-1]
                    capped = levels[end] != depth
                    amount = source[root]
                    if capped and sink[end] < amount:
                        amount = sink[end]
                    for arc, forward in via:
                        if not forward and flow[arc] < amount:
                            amount = flow[arc]
                    source[root] -= amount
                    if capped:
                        sink[end] -= amount
                    for arc, forward in via:
                        flow[arc] += amount if forward else -amount
        raised = from_source()
        if not raised:
            return
        for g in raised:
            levels[g] += 1
