"""Windowed RCGP optimization for large circuits.

The paper's related-work section points at windowing (Kocnova &
Vasicek) as the way EA-based resynthesis reaches circuits with millions
of gates: optimize a bounded *window* of the netlist against its local
function, splice the improvement back, repeat.  This module implements
that extension for RQFP netlists, which keeps hwb8-class circuits
workable at laptop budgets.

Windows are **contiguous gate-index ranges** ``[start, stop)``.  Because
netlist gates are stored in topological order, an index-range window is
automatically *convex* (no path leaves the window and re-enters it), so
extraction and splicing are exact:

* window inputs — the distinct non-constant ports feeding window gates
  from before ``start`` (primary inputs or earlier gates),
* window outputs — window-gate ports consumed at or after ``stop`` (or
  by primary outputs),
* the local specification is the window's own truth table over its
  inputs (exhaustive, bounded by ``max_inputs``).

The sub-netlist is optimized as a job of an in-memory
:class:`~repro.api.Session` and spliced back with all suffix ports
re-indexed; the caller-visible function is unchanged by construction
and re-checked by :func:`~repro.core.verify.realizes`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import EquivalenceViolation, NetlistError
from ..rqfp.netlist import CONST_PORT, RqfpNetlist
from .config import RcgpConfig
from .verify import realizes


@dataclass
class Window:
    """A convex (index-contiguous) region of an RQFP netlist."""

    start: int
    stop: int
    input_ports: List[int]      # distinct external, non-const ports
    output_ports: List[int]     # window ports consumed outside

    @property
    def num_gates(self) -> int:
        return self.stop - self.start


def analyze_window(netlist: RqfpNetlist, start: int, stop: int) -> Window:
    """Compute the boundary of the index range ``[start, stop)``."""
    if not 0 <= start < stop <= netlist.num_gates:
        raise NetlistError(f"invalid window [{start}, {stop})")
    boundary = netlist.first_gate_port(start)
    inputs: List[int] = []
    seen = set()
    for g in range(start, stop):
        for port in netlist.gates[g].inputs:
            if port != CONST_PORT and port < boundary and port not in seen:
                seen.add(port)
                inputs.append(port)

    window_ports = {
        netlist.gate_output_port(g, m)
        for g in range(start, stop) for m in range(3)
    }
    outputs: List[int] = []
    out_seen = set()
    for g in range(stop, netlist.num_gates):
        for port in netlist.gates[g].inputs:
            if port in window_ports and port not in out_seen:
                out_seen.add(port)
                outputs.append(port)
    for port in netlist.outputs:
        if port in window_ports and port not in out_seen:
            out_seen.add(port)
            outputs.append(port)
    return Window(start, stop, inputs, sorted(outputs))


def extract_window(netlist: RqfpNetlist, window: Window) -> RqfpNetlist:
    """The window as a standalone netlist (window inputs become PIs)."""
    sub = RqfpNetlist(len(window.input_ports),
                      name=f"{netlist.name}[{window.start}:{window.stop}]")
    port_map: Dict[int, int] = {CONST_PORT: CONST_PORT}
    for i, port in enumerate(window.input_ports):
        port_map[port] = 1 + i
    for g in range(window.start, window.stop):
        gate = netlist.gates[g]
        new_index = g - window.start
        sub.add_gate(port_map[gate.in0], port_map[gate.in1],
                     port_map[gate.in2], gate.config)
        for m in range(3):
            port_map[netlist.gate_output_port(g, m)] = \
                sub.gate_output_port(new_index, m)
    for port in window.output_ports:
        sub.add_output(port_map[port])
    return sub


def splice_window(netlist: RqfpNetlist, window: Window,
                  optimized: RqfpNetlist) -> RqfpNetlist:
    """Replace the window with an optimized sub-netlist.

    ``optimized`` must have the window's input arity and its outputs in
    the same order as ``window.output_ports``.
    """
    if optimized.num_inputs != len(window.input_ports):
        raise NetlistError("optimized window input arity mismatch")
    if optimized.num_outputs != len(window.output_ports):
        raise NetlistError("optimized window output arity mismatch")

    fresh = RqfpNetlist(netlist.num_inputs, netlist.name,
                        list(netlist.input_names), [])
    # Prefix gates copy verbatim (indices unchanged).
    for g in range(window.start):
        gate = netlist.gates[g]
        fresh.add_gate(gate.in0, gate.in1, gate.in2, gate.config)

    # Window gates from the optimized sub-netlist, ports remapped from
    # sub space to global space.
    sub_to_global: Dict[int, int] = {CONST_PORT: CONST_PORT}
    for i, port in enumerate(window.input_ports):
        sub_to_global[1 + i] = port
    for g_sub, gate in enumerate(optimized.gates):
        g_new = window.start + g_sub
        fresh.add_gate(sub_to_global[gate.in0], sub_to_global[gate.in1],
                       sub_to_global[gate.in2], gate.config)
        for m in range(3):
            sub_to_global[optimized.gate_output_port(g_sub, m)] = \
                fresh.gate_output_port(g_new, m)

    # Mapping for old window output ports -> new global ports.
    old_to_new: Dict[int, int] = {}
    for old_port, sub_port in zip(window.output_ports, optimized.outputs):
        old_to_new[old_port] = sub_to_global[sub_port]

    shift = 3 * (optimized.num_gates - window.num_gates)
    old_suffix_base = netlist.first_gate_port(window.stop)

    def remap(port: int) -> int:
        if port in old_to_new:
            return old_to_new[port]
        if port >= old_suffix_base:
            return port + shift
        if port >= netlist.first_gate_port(window.start):
            raise NetlistError(
                f"port {port} belongs to the replaced window but is not a "
                f"window output"
            )
        return port

    for g in range(window.stop, netlist.num_gates):
        gate = netlist.gates[g]
        fresh.add_gate(remap(gate.in0), remap(gate.in1), remap(gate.in2),
                       gate.config)
    for port, name in zip(netlist.outputs, netlist.output_names):
        fresh.add_output(remap(port), name)
    return fresh


@dataclass
class WindowResult:
    """Outcome of one windowed optimization sweep."""

    netlist: RqfpNetlist
    windows_tried: int = 0
    windows_improved: int = 0
    gates_before: int = 0
    gates_after: int = 0
    garbage_before: int = 0
    garbage_after: int = 0
    history: List[Tuple[int, int, int]] = field(default_factory=list)
    eval_full: int = 0
    eval_incremental: int = 0
    ports_resimulated: int = 0


def optimize_window(netlist: RqfpNetlist, start: int, stop: int,
                    config: Optional[RcgpConfig] = None,
                    max_inputs: int = 12,
                    stats: Optional[WindowResult] = None) \
        -> Optional[RqfpNetlist]:
    """Optimize one window; returns the improved netlist or None.

    The window's local function is computed exhaustively, so windows
    whose boundary exceeds ``max_inputs`` inputs are skipped (return
    None) rather than sampled.

    Incremental evaluation composes naturally with windowing: the
    window *is* the sub-netlist the engine optimizes, so every
    offspring's resimulation cone is window-local by construction —
    mutations near the window's output boundary touch only a handful of
    ports, independent of the full circuit's size.  ``stats``
    aggregates the run's evaluation counters into a
    :class:`WindowResult`.

    The window is a job of a transient session, as in
    :func:`repro.api.synthesize`: the job honors ``config`` unchanged,
    so ``verify_result`` gates the window and ``telemetry_path`` gets
    the job's events.
    """
    from ..api import Session  # call time: repro.api imports repro.core
    with Session() as session:
        return _optimize_window(session, netlist, start, stop, config,
                                max_inputs, stats)


def _optimize_window(session, netlist: RqfpNetlist, start: int, stop: int,
                     config: Optional[RcgpConfig], max_inputs: int,
                     stats: Optional[WindowResult]) -> Optional[RqfpNetlist]:
    """:func:`optimize_window` as a job of ``session``, a
    :class:`~repro.api.Session`."""
    window = analyze_window(netlist, start, stop)
    if not window.output_ports:
        return None  # dead region; plain shrink handles it
    if len(window.input_ports) > max_inputs:
        return None
    sub = extract_window(netlist, window)
    config = config or RcgpConfig(generations=400, mutation_rate=1.0,
                                  max_mutated_genes=4, shrink="always")
    result = session.synthesize(sub.to_truth_tables(), config,
                                name=sub.name, initial=sub)
    if stats is not None:
        stats.eval_full += result.evolution.eval_full
        stats.eval_incremental += result.evolution.eval_incremental
        stats.ports_resimulated += result.evolution.ports_resimulated
    improved = result.netlist
    if (improved.num_gates, improved.num_garbage) >= \
            (sub.shrink().num_gates, sub.shrink().num_garbage):
        return None
    return splice_window(netlist, window, improved)


def windowed_optimize(netlist: RqfpNetlist,
                      window_gates: int = 16,
                      max_inputs: int = 12,
                      rounds: int = 1,
                      config: Optional[RcgpConfig] = None,
                      seed: Optional[int] = None) -> WindowResult:
    """Sweep fixed-size windows across the netlist, splicing improvements.

    The windows are jobs of one session, run in order.  Every accepted
    splice is checked by :func:`~repro.core.verify.realizes` against the
    original function — windowing is exact by construction, so a
    mismatch raises :class:`~repro.errors.EquivalenceViolation`.
    """
    from ..api import Session
    rng = random.Random(seed)
    current = netlist.shrink()
    reference = netlist.to_truth_tables()

    stats = WindowResult(current, gates_before=current.num_gates,
                         garbage_before=current.num_garbage)
    with Session() as session:
        for _ in range(rounds):
            start = 0
            while start < current.num_gates:
                stop = min(start + window_gates, current.num_gates)
                stats.windows_tried += 1
                improved = _optimize_window(session, current, start, stop,
                                            config, max_inputs, stats)
                if improved is not None:
                    improved = improved.shrink()
                    check = realizes(improved, reference)
                    if not check.equivalent:
                        raise EquivalenceViolation(
                            "windowed optimization changed the function",
                            counterexample=check.counterexample)
                    current = improved
                    stats.windows_improved += 1
                    stats.history.append((start, current.num_gates,
                                          current.num_garbage))
                # Jitter window boundaries between rounds so repeated
                # sweeps see different cuts.
                start += max(1, window_gates
                             - rng.randrange(window_gates // 2 + 1))
    stats.netlist = current
    stats.gates_after = current.num_gates
    stats.garbage_after = current.num_garbage
    return stats
