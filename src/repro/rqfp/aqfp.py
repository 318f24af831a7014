"""AQFP cell-level expansion of RQFP circuits.

An RQFP logic gate is physically three AQFP splitters driving three
3-input AQFP majority gates (with inverters realized as negated mutual
inductances on the majority inputs — zero JJ cost); an RQFP buffer is
two cascaded AQFP buffers.  This module expands an
:class:`~repro.rqfp.netlist.RqfpNetlist` plus its
:class:`~repro.rqfp.buffers.BufferPlan` into the flat AQFP cell netlist,
giving the physical view used to justify the paper's JJ cost model
(buffer/splitter = 2 JJs, 3-input majority = 6 JJs ⇒ RQFP gate = 24,
RQFP buffer = 4).

The expansion is simulatable and is checked in tests against the
RQFP-level simulation — a structural-to-physical equivalence argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import NetlistError
from ..logic.bitops import majority3
from .buffer_opt import optimal_levels
from .buffers import BufferPlan
from .netlist import CONST_PORT, RqfpNetlist

# JJ counts per AQFP cell (paper §4).
CELL_JJS = {
    "buffer": 2,
    "splitter": 2,
    "maj3": 6,
    "const": 0,   # excitation-driven constant source
    "input": 0,
    "output": 0,
}


@dataclass
class AqfpCell:
    """One AQFP cell: kind, fan-in signal ids, optional inversion mask."""

    kind: str
    fanins: Tuple[int, ...]
    invert: Tuple[bool, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.kind not in CELL_JJS:
            raise NetlistError(f"unknown AQFP cell kind {self.kind!r}")
        if self.invert and len(self.invert) != len(self.fanins):
            raise NetlistError("invert mask must match fan-in count")


@dataclass
class AqfpNetlist:
    """A flat AQFP cell netlist (signal ids index ``cells``)."""

    num_inputs: int
    cells: List[AqfpCell] = field(default_factory=list)
    outputs: List[int] = field(default_factory=list)
    name: str = ""

    def add_cell(self, cell: AqfpCell) -> int:
        for fanin in cell.fanins:
            if not 0 <= fanin < len(self.cells):
                raise NetlistError(f"cell fan-in {fanin} undefined")
        self.cells.append(cell)
        return len(self.cells) - 1

    def count(self, kind: str) -> int:
        return sum(1 for cell in self.cells if cell.kind == kind)

    def total_jjs(self) -> int:
        return sum(CELL_JJS[cell.kind] for cell in self.cells)

    def simulate(self, input_words: List[int], mask: int) -> List[int]:
        """Bit-parallel simulation of the cell netlist."""
        if len(input_words) != self.num_inputs:
            raise NetlistError("input word count mismatch")
        values: List[int] = []
        input_cursor = 0
        for cell in self.cells:
            ins = []
            for k, fanin in enumerate(cell.fanins):
                value = values[fanin]
                if cell.invert and cell.invert[k]:
                    value ^= mask
                ins.append(value)
            if cell.kind == "input":
                values.append(input_words[input_cursor] & mask)
                input_cursor += 1
            elif cell.kind == "const":
                values.append(mask)
            elif cell.kind in ("buffer", "splitter", "output"):
                values.append(ins[0] if ins else 0)
            elif cell.kind == "maj3":
                values.append(majority3(*ins) & mask)
        return [values[o] for o in self.outputs]


def expand_to_aqfp(netlist: RqfpNetlist,
                   plan: Optional[BufferPlan] = None,
                   name: str = "") -> AqfpNetlist:
    """Expand an RQFP netlist (+ buffer plan, by default the exact
    :func:`~repro.rqfp.buffer_opt.optimal_levels` plan) into AQFP cells.

    Each RQFP gate becomes 3 splitters + 3 majorities; each scheduled
    RQFP buffer becomes 2 cascaded AQFP buffers on its edge.
    """
    if plan is None:
        plan = optimal_levels(netlist)
    aqfp = AqfpNetlist(netlist.num_inputs, name=name or netlist.name)

    # Signal id carrying each RQFP port's value (post splitter layer of
    # the *producing* gate, pre buffers of the consuming edge).
    port_signal: Dict[int, int] = {}
    const_signal = aqfp.add_cell(AqfpCell("const", ()))
    port_signal[CONST_PORT] = const_signal
    for i in range(netlist.num_inputs):
        port_signal[1 + i] = aqfp.add_cell(
            AqfpCell("input", (), label=netlist.input_names[i]))

    def buffered(signal: int, count: int) -> int:
        """Chain ``count`` RQFP buffers (2 AQFP buffers each)."""
        for _ in range(2 * count):
            signal = aqfp.add_cell(AqfpCell("buffer", (signal,)))
        return signal

    for g, gate in enumerate(netlist.gates):
        # Each input passes its edge buffers, then a splitter replicates
        # it to the three majorities (the RQFP gate's splitter stage).
        split_signals = []
        for pos, port in enumerate(gate.inputs):
            signal = port_signal[port]
            if netlist.is_gate_port(port):
                key = ("gg", netlist.port_gate(port), g, pos)
            elif netlist.is_input_port(port):
                key = ("ig", port, g, pos)
            else:
                key = None
            if key is not None:
                signal = buffered(signal, plan.edge_buffers.get(key, 0))
            split_signals.append(
                aqfp.add_cell(AqfpCell("splitter", (signal,),
                                       label=f"g{g}s{pos}")))
        for m in range(3):
            invert = tuple(
                bool((gate.config >> (8 - (3 * m + p))) & 1) for p in range(3)
            )
            maj = aqfp.add_cell(AqfpCell("maj3", tuple(split_signals),
                                         invert=invert, label=f"g{g}m{m}"))
            port_signal[netlist.gate_output_port(g, m)] = maj

    for o, port in enumerate(netlist.outputs):
        signal = port_signal[port]
        if netlist.is_gate_port(port):
            key = ("go", netlist.port_gate(port), o, 0)
        elif netlist.is_input_port(port):
            key = ("io", port, o, 0)
        else:
            key = None
        if key is not None:
            signal = buffered(signal, plan.edge_buffers.get(key, 0))
        out = aqfp.add_cell(AqfpCell("output", (signal,),
                                     label=netlist.output_names[o]))
        aqfp.outputs.append(out)
    return aqfp


def jj_breakdown(netlist: RqfpNetlist,
                 plan: Optional[BufferPlan] = None) -> Dict[str, int]:
    """Per-cell-kind JJ totals of the expanded circuit."""
    aqfp = expand_to_aqfp(netlist, plan)
    breakdown: Dict[str, int] = {}
    for cell in aqfp.cells:
        breakdown[cell.kind] = breakdown.get(cell.kind, 0) + CELL_JJS[cell.kind]
    breakdown["total"] = aqfp.total_jjs()
    return breakdown
