"""Whole-circuit validation: the RQFP design rules in one place.

A *final* RQFP circuit (netlist + buffer plan) must satisfy:

1. structural sanity (ports in range, DAG ordering, valid configs),
2. the single-fan-out law (constant port exempt),
3. path balancing: under the plan's level assignment, every edge's
   clock-phase difference is covered by its scheduled buffers, all
   primary inputs launch at stage 0 and all primary outputs sample at
   the common final stage; every gate sits in a stage of ``[1, D]``
   and the plan's ``num_buffers`` (the reported ``n_b``) is the sum of
   the spans.

:func:`validate_circuit` raises the precise
:class:`~repro.errors.NetlistError` subclass for the first violated
rule; :func:`check_circuit` returns the violation list instead, for
reporting.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import FanoutViolation, NetlistError, PathBalanceViolation
from .buffer_opt import optimal_levels
from .buffers import BufferPlan
from .netlist import RqfpNetlist


def path_balance_violations(netlist: RqfpNetlist,
                            plan: BufferPlan) -> List[str]:
    """Describe every edge whose phase difference is not buffered, every
    level outside ``[1, depth]``, and a ``num_buffers`` that is not the
    sum of the spans (the ``n_b`` the plan's cost reports)."""
    problems: List[str] = []
    if netlist.num_gates != len(plan.levels):
        return [
            f"plan covers {len(plan.levels)} gates, netlist has "
            f"{netlist.num_gates}"
        ]
    for g, level in enumerate(plan.levels):
        if not 1 <= level <= plan.depth:
            problems.append(
                f"gate {g} at level {level}, outside [1, {plan.depth}]")
    total = 0
    for g, gate in enumerate(netlist.gates):
        for pos, port in enumerate(gate.inputs):
            if netlist.is_gate_port(port):
                src = netlist.port_gate(port)
                span = plan.levels[g] - plan.levels[src] - 1
                key = ("gg", src, g, pos)
            elif netlist.is_input_port(port):
                span = plan.levels[g] - 1
                key = ("ig", port, g, pos)
            else:
                continue  # constants are phase-free
            if span < 0:
                problems.append(
                    f"gate {g} input {pos} arrives from the future "
                    f"(span {span})"
                )
                continue
            total += span
            scheduled = plan.edge_buffers.get(key, 0)
            if scheduled != span:
                problems.append(
                    f"edge {key}: needs {span} buffers, plan has {scheduled}"
                )
    for o, port in enumerate(netlist.outputs):
        if netlist.is_gate_port(port):
            span = plan.depth - plan.levels[netlist.port_gate(port)]
            key = ("go", netlist.port_gate(port), o, 0)
        elif netlist.is_input_port(port):
            span = plan.depth
            key = ("io", port, o, 0)
        else:
            continue
        if span < 0:
            # The driving gate is scheduled after the plan's final
            # stage — the output would sample a value from the future.
            # Same class of violation as the gate→gate case above; a
            # buffer count can never fix it, so report it distinctly.
            problems.append(
                f"output {o} sampled from the future (span {span})"
            )
            continue
        total += span
        scheduled = plan.edge_buffers.get(key, 0)
        if scheduled != span:
            problems.append(
                f"output {o}: needs {span} buffers, plan has {scheduled}"
            )
    if plan.num_buffers != total:
        problems.append(
            f"plan reports {plan.num_buffers} buffers, its edges need "
            f"{total}")
    return problems


def check_circuit(netlist: RqfpNetlist,
                  plan: Optional[BufferPlan] = None) -> List[str]:
    """All design-rule violations of a circuit, as human-readable strings."""
    problems: List[str] = []
    try:
        netlist.validate(require_single_fanout=False)
    except NetlistError as exc:
        problems.append(f"structure: {exc}")
        return problems
    fanout = netlist.fanout_violations()
    if fanout:
        problems.append(f"fan-out: ports {fanout} drive multiple consumers")
    if plan is None:
        plan = optimal_levels(netlist)
    problems.extend(path_balance_violations(netlist, plan))
    return problems


def validate_circuit(netlist: RqfpNetlist,
                     plan: Optional[BufferPlan] = None) -> BufferPlan:
    """Raise on the first design-rule violation; returns the plan used
    (by default the exact :func:`~repro.rqfp.buffer_opt.optimal_levels`
    plan, the one results report)."""
    netlist.validate(require_single_fanout=False)
    fanout = netlist.fanout_violations()
    if fanout:
        raise FanoutViolation(
            f"ports {fanout} drive more than one consumer"
        )
    if plan is None:
        plan = optimal_levels(netlist)
    problems = path_balance_violations(netlist, plan)
    if problems:
        raise PathBalanceViolation("; ".join(problems))
    return plan
