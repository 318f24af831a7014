"""RQFP netlists.

A netlist is an ordered list of RQFP gates over a shared *port index
space* that follows the paper's Fig. 3 convention exactly:

* port ``0`` — the constant 1 (exempt from the fan-out limit; constants
  are supplied by the excitation environment),
* ports ``1 .. n_pi`` — primary inputs,
* ports ``n_pi + 1 + 3*p + m`` — output ``m`` of gate ``p``.

Gate inputs may only reference ports of strictly earlier gates (the
netlist is a DAG by construction).  Primary outputs are port references.

*Garbage outputs* are gate output ports that drive neither a gate input
nor a primary output — the quantity the paper minimizes alongside gate
count, because every garbage output dissipates the information (and
energy) reversibility was meant to preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FanoutViolation, NetlistError
from ..logic.bitops import full_mask, variable_pattern
from ..logic.truth_table import TruthTable
from ..sat.cnf import CNF
from ..sat.tseitin import encode_const, encode_maj3
from .gate import check_config, config_to_string

CONST_PORT = 0


@dataclass
class RqfpGate:
    """One RQFP logic gate: three input port references + inverter config."""

    in0: int
    in1: int
    in2: int
    config: int

    def __post_init__(self):
        check_config(self.config)

    @property
    def inputs(self) -> Tuple[int, int, int]:
        return (self.in0, self.in1, self.in2)

    def replace_input(self, position: int, port: int) -> None:
        if position == 0:
            self.in0 = port
        elif position == 1:
            self.in1 = port
        elif position == 2:
            self.in2 = port
        else:
            raise ValueError(f"gate input position {position} out of range")

    def __str__(self) -> str:
        return (f"({self.in0}, {self.in1}, {self.in2}, "
                f"{config_to_string(self.config)})")


def _fast_gate(in0: int, in1: int, in2: int, config: int) -> RqfpGate:
    """Build a gate from already-validated genes, skipping the dataclass
    machinery (``copy``/``shrink`` construct thousands of gates per
    second inside the evolution loop)."""
    gate = RqfpGate.__new__(RqfpGate)
    gate.in0 = in0
    gate.in1 = in1
    gate.in2 = in2
    gate.config = config
    return gate


class RqfpNetlist:
    """An RQFP logic circuit prior to buffer insertion."""

    def __init__(self, num_inputs: int, name: str = "",
                 input_names: Sequence[str] = (),
                 output_names: Sequence[str] = ()):
        if num_inputs < 0:
            raise NetlistError("num_inputs must be >= 0")
        self.name = name
        self.num_inputs = num_inputs
        self.gates: List[RqfpGate] = []
        self.outputs: List[int] = []
        self.input_names = list(input_names) or [f"x{i}" for i in range(num_inputs)]
        self.output_names: List[str] = list(output_names)

    # -- port arithmetic ---------------------------------------------------

    def first_gate_port(self, gate_index: int) -> int:
        return self.num_inputs + 1 + 3 * gate_index

    def gate_output_port(self, gate_index: int, output: int) -> int:
        if not 0 <= output < 3:
            raise NetlistError(f"gate output index {output} out of range")
        return self.first_gate_port(gate_index) + output

    def num_ports(self) -> int:
        return self.num_inputs + 1 + 3 * len(self.gates)

    def is_const_port(self, port: int) -> bool:
        return port == CONST_PORT

    def is_input_port(self, port: int) -> bool:
        return 1 <= port <= self.num_inputs

    def is_gate_port(self, port: int) -> bool:
        return self.num_inputs < port < self.num_ports() and port != CONST_PORT

    def port_gate(self, port: int) -> int:
        """Gate index owning an output port."""
        if not self.is_gate_port(port):
            raise NetlistError(f"port {port} is not a gate output port")
        return (port - self.num_inputs - 1) // 3

    def port_output_index(self, port: int) -> int:
        """Which of the owning gate's three outputs a port is."""
        if not self.is_gate_port(port):
            raise NetlistError(f"port {port} is not a gate output port")
        return (port - self.num_inputs - 1) % 3

    def _check_port(self, port: int, max_gate: Optional[int] = None) -> None:
        limit = self.num_ports() if max_gate is None else self.first_gate_port(max_gate)
        if not 0 <= port < limit:
            raise NetlistError(
                f"port {port} out of range (limit {limit})"
            )

    # -- construction ------------------------------------------------------

    def add_gate(self, in0: int, in1: int, in2: int, config: int) -> int:
        """Append a gate; inputs must reference earlier ports.  Returns the
        new gate's index."""
        gate_index = len(self.gates)
        for port in (in0, in1, in2):
            self._check_port(port, max_gate=gate_index)
        self.gates.append(RqfpGate(in0, in1, in2, check_config(config)))
        return gate_index

    def add_output(self, port: int, name: Optional[str] = None) -> None:
        self._check_port(port)
        self.outputs.append(port)
        self.output_names.append(
            name if name is not None else f"y{len(self.outputs) - 1}"
        )

    def copy(self) -> "RqfpNetlist":
        # Per-offspring hot path of the (1+λ) loop: every gate here was
        # validated when first constructed, so bypass the dataclass
        # __init__ (and its check_config) rather than re-checking a
        # value that cannot have gone bad.
        dup = RqfpNetlist(self.num_inputs, self.name,
                          list(self.input_names), [])
        make = RqfpGate.__new__
        gates = []
        for g in self.gates:
            h = make(RqfpGate)
            h.in0 = g.in0
            h.in1 = g.in1
            h.in2 = g.in2
            h.config = g.config
            gates.append(h)
        dup.gates = gates
        dup.outputs = list(self.outputs)
        dup.output_names = list(self.output_names)
        return dup

    # -- connectivity ---------------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def consumers(self) -> Dict[int, List[Tuple[str, int, int]]]:
        """Map port -> list of consumers.

        A consumer is ``("gate", gate_index, position)`` or
        ``("po", output_index, 0)``.  The constant port's consumers are
        tracked too, though it is exempt from the fan-out limit.
        """
        result: Dict[int, List[Tuple[str, int, int]]] = {}
        for g, gate in enumerate(self.gates):
            for pos, port in enumerate(gate.inputs):
                result.setdefault(port, []).append(("gate", g, pos))
        for o, port in enumerate(self.outputs):
            result.setdefault(port, []).append(("po", o, 0))
        return result

    def fanout_counts_flat(self) -> List[int]:
        """Consumer count per port, as a flat list (index = port).

        The single fan-out-counting implementation: the evaluator's
        performance phase, :meth:`fanout_counts`,
        :meth:`fanout_violations` and :meth:`garbage_ports` all read
        from it.  Index 0 is the constant port (exempt from the fan-out
        limit); a count of 0 on a gate output port means garbage.
        """
        counts = [0] * self.num_ports()
        for gate in self.gates:
            counts[gate.in0] += 1
            counts[gate.in1] += 1
            counts[gate.in2] += 1
        for port in self.outputs:
            counts[port] += 1
        return counts

    def fanout_counts(self) -> Dict[int, int]:
        return {port: count
                for port, count in enumerate(self.fanout_counts_flat())
                if count}

    def fanout_violations(self) -> List[int]:
        """Non-constant ports with more than one consumer."""
        counts = self.fanout_counts_flat()
        return [port for port in range(1, len(counts)) if counts[port] > 1]

    def garbage_ports(self) -> List[int]:
        """Gate output ports with no consumer at all."""
        counts = self.fanout_counts_flat()
        base = self.num_inputs + 1
        return [port for port in range(base, len(counts))
                if not counts[port]]

    @property
    def num_garbage(self) -> int:
        return len(self.garbage_ports())

    def levels(self) -> List[int]:
        """ASAP level per gate (a gate fed only by PIs/constant is level 1).

        Runs on every functional fitness evaluation (buffer estimate),
        so the port classification is inline arithmetic rather than
        ``is_gate_port``/``port_gate`` calls.
        """
        base = self.num_inputs + 1
        levels: List[int] = []
        for gate in self.gates:
            level = 0
            if gate.in0 >= base:
                level = levels[(gate.in0 - base) // 3]
            if gate.in1 >= base:
                other = levels[(gate.in1 - base) // 3]
                if other > level:
                    level = other
            if gate.in2 >= base:
                other = levels[(gate.in2 - base) // 3]
                if other > level:
                    level = other
            levels.append(level + 1)
        return levels

    def depth(self) -> int:
        """Circuit depth in gate levels (the paper's ``n_d``)."""
        levels = self.levels()
        return max(levels, default=0)

    def estimate_buffers(self) -> int:
        """Estimated path-balancing buffer count (``n_b``).

        Delegates to :func:`repro.rqfp.buffers.estimate_buffers`; the
        method exists so netlists and :class:`~repro.core.kernel.
        NetlistKernel` share one call surface in the evaluator.
        """
        from .buffers import estimate_buffers
        return estimate_buffers(self)

    def reachable_gates(self) -> List[int]:
        """Gates in the transitive fan-in of the primary outputs.

        Gate inputs reference strictly earlier gates, so one reverse
        sweep propagates reachability completely — no DFS stack, no
        sort, and flat flags instead of a set (this feeds ``shrink`` on
        every functional fitness evaluation).
        """
        base = self.num_inputs + 1
        gates = self.gates
        keep = bytearray(len(gates))
        for port in self.outputs:
            if port >= base:
                keep[(port - base) // 3] = 1
        for g in range(len(gates) - 1, -1, -1):
            if keep[g]:
                gate = gates[g]
                if gate.in0 >= base:
                    keep[(gate.in0 - base) // 3] = 1
                if gate.in1 >= base:
                    keep[(gate.in1 - base) // 3] = 1
                if gate.in2 >= base:
                    keep[(gate.in2 - base) // 3] = 1
        return [g for g in range(len(gates)) if keep[g]]

    def shrink(self) -> "RqfpNetlist":
        """Remove gates unreachable from the POs (paper §3.2.3).

        Returns a new netlist; port indices are remapped compactly.
        Runs on every functional fitness evaluation, so the remap is
        plain arithmetic on the port-index layout.
        """
        keep = self.reachable_gates()
        fresh = RqfpNetlist(self.num_inputs, self.name,
                            list(self.input_names), [])
        base = self.num_inputs + 1

        # Flat old-port -> new-port table (pruned gates' ports stay -1;
        # nothing kept can reference them).
        remap = [-1] * self.num_ports()
        for port in range(base):
            remap[port] = port
        for new, old in enumerate(keep):
            src = base + 3 * old
            dst = base + 3 * new
            remap[src] = dst
            remap[src + 1] = dst + 1
            remap[src + 2] = dst + 2

        gates = self.gates
        fresh_gates = fresh.gates
        for old in keep:
            gate = gates[old]
            fresh_gates.append(_fast_gate(remap[gate.in0],
                                          remap[gate.in1],
                                          remap[gate.in2],
                                          gate.config))
        for port, name in zip(self.outputs, self.output_names):
            fresh.add_output(remap[port], name)
        return fresh

    # -- validation --------------------------------------------------------------

    def validate(self, require_single_fanout: bool = True) -> None:
        """Raise if the netlist is structurally ill-formed."""
        for g, gate in enumerate(self.gates):
            for port in gate.inputs:
                if port >= self.first_gate_port(g):
                    raise NetlistError(
                        f"gate {g} consumes port {port} from a later gate"
                    )
                if port < 0:
                    raise NetlistError(f"gate {g} has negative input port")
            check_config(gate.config)
        for port in self.outputs:
            self._check_port(port)
        if require_single_fanout:
            bad = self.fanout_violations()
            if bad:
                raise FanoutViolation(
                    f"ports {bad} drive more than one consumer"
                )

    # -- semantics -----------------------------------------------------------------

    def simulate_ports(self, input_words: Sequence[int], mask: int) -> List[int]:
        """Bit-parallel simulation returning a value word for every port.

        This is the innermost loop of the CGP fitness function, so the
        per-majority evaluation is inlined rather than calling
        :func:`repro.rqfp.gate.gate_outputs`.
        """
        if len(input_words) != self.num_inputs:
            raise NetlistError(
                f"expected {self.num_inputs} input words, got {len(input_words)}"
            )
        values = [0] * self.num_ports()
        values[CONST_PORT] = mask
        for i, word in enumerate(input_words):
            values[1 + i] = word & mask
        index = self.num_inputs + 1
        for gate in self.gates:
            a = values[gate.in0]
            b = values[gate.in1]
            c = values[gate.in2]
            config = gate.config
            for shift in (6, 3, 0):
                bits = config >> shift
                pa = a ^ mask if bits & 4 else a
                pb = b ^ mask if bits & 2 else b
                pc = c ^ mask if bits & 1 else c
                values[index] = (pa & pb) | (pa & pc) | (pb & pc)
                index += 1
        return values

    def resimulate_cone(self, values: List[int], mask: int,
                        touched_gates: Sequence[int],
                        checks: Optional[
                            Sequence[Tuple[int, int, int]]] = None) -> int:
        """Recompute the transitive fan-out cone of ``touched_gates``.

        ``values`` must be a full per-port value vector for this netlist
        under the same input words and ``mask`` (typically the parent's
        :meth:`simulate_ports` result, copied); it is updated in place.
        Touched gates are recomputed unconditionally; downstream gates
        are recomputed only when one of their input ports actually
        changed value (value-identity pruning), so a mutation whose
        effect is masked out stops propagating immediately.

        ``checks`` — ``(source gate, port, expected word)`` per primary
        output in (source gate, output index) order, -1 for an output
        driven by the constant or a primary input — stops the sweep at
        the first output found wrong once its source gate is passed, or
        after the last output's source gate; compared outputs hold their
        final words.  This is the early stop of
        :meth:`repro.core.kernel.NetlistKernel.resimulate_cone_tracked`,
        with the same counter.

        Returns the number of gate output ports recomputed — the
        ``ports_resimulated`` telemetry counter.
        """
        if not touched_gates:
            return 0
        gates = self.gates
        # Flat flag arrays beat sets here: the sweep tests three flags
        # per skipped gate and raises one per changed port, and
        # bytearray indexing is far cheaper than hashing into a set.
        touched = bytearray(len(gates))
        for g in touched_gates:
            touched[g] = 1
        dirty = bytearray(self.num_ports())
        recomputed = 0
        base = self.num_inputs + 1
        pos = min(touched_gates)  # the next gate the sweep reaches
        if checks is None:
            checks = ((len(gates) - 1, CONST_PORT, None),)
        for due, port, want in checks:
            if due >= pos:
                index = base + 3 * pos
                for g in range(pos, due + 1):
                    gate = gates[g]
                    if not touched[g] and not (
                            dirty[gate.in0] or dirty[gate.in1]
                            or dirty[gate.in2]):
                        index += 3
                        continue
                    recomputed += 1
                    a = values[gate.in0]
                    b = values[gate.in1]
                    c = values[gate.in2]
                    config = gate.config
                    for shift in (6, 3, 0):
                        bits = config >> shift
                        pa = a ^ mask if bits & 4 else a
                        pb = b ^ mask if bits & 2 else b
                        pc = c ^ mask if bits & 1 else c
                        word = (pa & pb) | (pa & pc) | (pb & pc)
                        if values[index] != word:
                            values[index] = word
                            dirty[index] = 1
                        index += 1
                pos = due + 1
            if want is not None and values[port] != want:
                break
        return 3 * recomputed

    def simulate(self, input_words: Sequence[int], mask: int) -> List[int]:
        """Bit-parallel simulation returning one word per primary output."""
        values = self.simulate_ports(input_words, mask)
        return [values[p] for p in self.outputs]

    def to_truth_tables(self) -> List[TruthTable]:
        n = self.num_inputs
        mask = full_mask(n)
        words = [variable_pattern(i, n) for i in range(n)]
        return [TruthTable(n, w) for w in self.simulate(words, mask)]

    def to_cnf(self, cnf: CNF, input_lits: Sequence[int]) -> List[int]:
        """Tseitin-encode the netlist; returns PO literals."""
        if len(input_lits) != self.num_inputs:
            raise NetlistError("input literal count mismatch")
        const = encode_const(cnf, True)
        port_lit: List[int] = [0] * self.num_ports()
        port_lit[CONST_PORT] = const
        for i, external in enumerate(input_lits):
            port_lit[1 + i] = external
        base = self.num_inputs + 1
        for g, gate in enumerate(self.gates):
            ins = [port_lit[gate.in0], port_lit[gate.in1], port_lit[gate.in2]]
            for m in range(3):
                lits = []
                for p in range(3):
                    lit = ins[p]
                    if (gate.config >> (8 - (3 * m + p))) & 1:
                        lit = -lit
                    lits.append(lit)
                port_lit[base + 3 * g + m] = encode_maj3(cnf, *lits)
        return [port_lit[p] for p in self.outputs]

    def encoder(self):
        """CEC-compatible encoder for :mod:`repro.sat.equivalence`."""
        return lambda cnf, inputs: self.to_cnf(cnf, inputs)

    # -- presentation -----------------------------------------------------------

    def describe(self) -> str:
        """Paper-style chromosome rendering (Fig. 3's green string)."""
        gates = " ".join(str(g) for g in self.gates)
        outs = ", ".join(str(p) for p in self.outputs)
        return f"{gates} ({outs})"

    def __repr__(self) -> str:
        return (f"RqfpNetlist(name={self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, gates={self.num_gates}, "
                f"garbage={self.num_garbage}, depth={self.depth()})")
