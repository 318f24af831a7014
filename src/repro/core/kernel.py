"""Flat structure-of-arrays kernel for the CGP inner loop.

Every hot operation of the ``(1 + λ)`` loop — bit-parallel port
simulation, cone resimulation, copy, shrink, ASAP levels, the fused
buffer estimate, mutation, genome encoding — used to walk a Python list
of :class:`~repro.rqfp.netlist.RqfpGate` objects, paying an attribute
lookup (a dict probe on a non-slotted dataclass) per gene per offspring
per generation, plus one object allocation per gate per ``copy``.

:class:`NetlistKernel` stores the same genome as five flat
``array('q')`` gene arrays — ``in0``/``in1``/``in2``/``config`` per
gate, plus ``outputs`` — and implements the hot operations directly on
the arrays:

* ``copy`` / ``apply_delta`` are C-level ``memcpy`` (copy-on-write from
  the parent) instead of per-gate object churn,
* ``simulate_ports`` / ``resimulate_cone_tracked`` index the arrays
  with no attribute lookups (the cone sweep patches a memoized value
  vector *in place* with an undo log, so a failing offspring costs
  O(cone), not O(ports)),
* ``shrink`` / ``levels`` / ``estimate_buffers`` / ``fanout_counts_flat``
  are single array sweeps (the buffer estimate fuses the ASAP level pass
  with the span accumulation),
* ``to_genome`` builds the engine's flat genome tuple straight from the
  arrays.

The kernel is **bit-identical** to :class:`~repro.rqfp.netlist.
RqfpNetlist` by construction: it encodes the identical port-index
genome, and the object netlist remains the user-facing API and the
correctness oracle (``RCGP_CHECK_KERNEL=1`` makes the evaluator verify
every kernel evaluation against the object path, mirroring
``RCGP_CHECK_INCREMENTAL``; ``tests/test_kernel.py`` checks the same
properties over random netlists × mutation chains).  The evolution
engine runs on kernels only; netlists convert at its boundaries.

Simulation *values* stay plain Python ints: they are bit-parallel words
of one bit per pattern (up to ``2^14`` bits when simulation is
exhaustive), far beyond any fixed-width array element.  Only the genome
— port indices and 9-bit inverter configs — lives in the typed arrays.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..rqfp.netlist import CONST_PORT, RqfpNetlist, _fast_gate

__all__ = ["NetlistKernel"]


# ----------------------------------------------------------------------
# Per-config compiled majority functions
#
# A gate's 9-bit inverter config fixes which of the nine majority-input
# readings are complemented.  The generic evaluator re-decides that with
# nine data-dependent branches per gate, every time; since only 512
# configs exist (and a circuit uses far fewer), each config instead
# compiles — lazily, once per process — to a tiny specialized function
# computing all three output words with the XORs inlined, inverted
# inputs computed at most once, and duplicate output rows shared.  The
# win is interpreter overhead, not arithmetic: the specialized body is a
# straight-line expression with no tests or loop machinery.

_MAJ_FUNCS: Dict[int, "object"] = {}


def _compile_maj(config: int):
    inverted: List[str] = []
    lines: List[str] = []
    rows: List[str] = []
    seen: Dict[str, str] = {}
    for shift in (6, 3, 0):
        bits = (config >> shift) & 7
        pa, pb, pc = (("n" + var if bits & bit else var)
                      for bit, var in ((4, "a"), (2, "b"), (1, "c")))
        expr = f"({pa}&{pb})|({pa}&{pc})|({pb}&{pc})"
        name = seen.get(expr)
        if name is None:
            name = seen[expr] = f"r{len(seen)}"
            lines.append(f"    {name} = {expr}")
        rows.append(name)
    used = (config >> 6) | (config >> 3) | config
    for bit, var in ((4, "a"), (2, "b"), (1, "c")):
        if used & bit:
            inverted.append(f"    n{var} = {var} ^ m")
    source = ("def _f(a, b, c, m):\n" + "\n".join(inverted + lines) +
              f"\n    return {rows[0]}, {rows[1]}, {rows[2]}\n")
    namespace: Dict[str, object] = {}
    exec(source, namespace)
    return namespace["_f"]


class NetlistKernel:
    """Structure-of-arrays compilation of one RQFP netlist genome.

    The port index space is exactly the netlist's (constant = port 0,
    PIs = ports ``1..n``, three output ports per gate), so kernels,
    netlists and genome tuples all describe the same chromosome and can
    be converted freely (:meth:`from_netlist` / :meth:`to_netlist`,
    :meth:`from_genome` / :meth:`to_genome`).  Port names ride along as
    immutable tuples so a round trip through the kernel loses nothing.
    """

    __slots__ = ("num_inputs", "name", "in0", "in1", "in2", "config",
                 "outputs", "input_names", "output_names")

    def __init__(self, num_inputs: int, name: str = ""):
        self.num_inputs = num_inputs
        self.name = name
        self.in0 = array("q")
        self.in1 = array("q")
        self.in2 = array("q")
        self.config = array("q")
        self.outputs = array("q")
        self.input_names: Tuple[str, ...] = ()
        self.output_names: Tuple[str, ...] = ()

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_netlist(cls, netlist: RqfpNetlist) -> "NetlistKernel":
        """Compile an (already validated) netlist into flat arrays."""
        kernel = cls.__new__(cls)
        kernel.num_inputs = netlist.num_inputs
        kernel.name = netlist.name
        gates = netlist.gates
        kernel.in0 = array("q", [g.in0 for g in gates])
        kernel.in1 = array("q", [g.in1 for g in gates])
        kernel.in2 = array("q", [g.in2 for g in gates])
        kernel.config = array("q", [g.config for g in gates])
        kernel.outputs = array("q", netlist.outputs)
        kernel.input_names = tuple(netlist.input_names)
        kernel.output_names = tuple(netlist.output_names)
        return kernel

    def to_netlist(self, name: str = None) -> RqfpNetlist:
        """Materialize the object netlist (splitters, SAT encoding,
        export and every other cold path run on the object form)."""
        netlist = RqfpNetlist(self.num_inputs,
                              self.name if name is None else name,
                              list(self.input_names))
        in0, in1, in2, config = self.in0, self.in1, self.in2, self.config
        netlist.gates = [_fast_gate(in0[g], in1[g], in2[g], config[g])
                         for g in range(len(in0))]
        netlist.outputs = list(self.outputs)
        netlist.output_names = list(self.output_names) or \
            [f"y{i}" for i in range(len(self.outputs))]
        return netlist

    @classmethod
    def from_genome(cls, genome: Sequence[int],
                    name: str = "") -> "NetlistKernel":
        """Inverse of :meth:`to_genome` (fresh default port names)."""
        num_inputs, num_gates = genome[0], genome[1]
        end = 2 + 4 * num_gates
        genes = genome[2:end]
        kernel = cls.__new__(cls)
        kernel.num_inputs = num_inputs
        kernel.name = name
        kernel.in0 = array("q", genes[0::4])
        kernel.in1 = array("q", genes[1::4])
        kernel.in2 = array("q", genes[2::4])
        kernel.config = array("q", genes[3::4])
        kernel.outputs = array("q", genome[end:])
        kernel.input_names = ()
        kernel.output_names = ()
        return kernel

    def to_genome(self) -> Tuple[int, ...]:
        """The engine's flat genome tuple, straight from the arrays."""
        return tuple(chain(
            (self.num_inputs, len(self.in0)),
            chain.from_iterable(zip(self.in0, self.in1, self.in2,
                                    self.config)),
            self.outputs,
        ))

    def copy(self) -> "NetlistKernel":
        """Five array copies (C memcpy) — the per-offspring fast path."""
        dup = NetlistKernel.__new__(NetlistKernel)
        dup.num_inputs = self.num_inputs
        dup.name = self.name
        dup.in0 = self.in0[:]
        dup.in1 = self.in1[:]
        dup.in2 = self.in2[:]
        dup.config = self.config[:]
        dup.outputs = self.outputs[:]
        dup.input_names = self.input_names
        dup.output_names = self.output_names
        return dup

    def apply_delta(self, delta) -> "NetlistKernel":
        """Copy-on-write offspring: copy the parent arrays, patch the
        delta's final gene values in place."""
        child = self.copy()
        in0, in1, in2, config = child.in0, child.in1, child.in2, child.config
        for g, (a, b, c, f) in delta.gates:
            in0[g] = a
            in1[g] = b
            in2[g] = c
            config[g] = f
        outputs = child.outputs
        for index, port in delta.outputs:
            outputs[index] = port
        return child

    # -- port arithmetic ---------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.in0)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def first_gate_port(self, gate_index: int) -> int:
        return self.num_inputs + 1 + 3 * gate_index

    def num_ports(self) -> int:
        return self.num_inputs + 1 + 3 * len(self.in0)

    # -- connectivity ------------------------------------------------------

    def fanout_counts_flat(self) -> List[int]:
        """Consumer count per port, index = port (0 on a gate output
        port means garbage)."""
        counts = [0] * self.num_ports()
        for port in self.in0:
            counts[port] += 1
        for port in self.in1:
            counts[port] += 1
        for port in self.in2:
            counts[port] += 1
        for port in self.outputs:
            counts[port] += 1
        return counts

    # -- structure ---------------------------------------------------------

    def levels(self) -> List[int]:
        """ASAP level per gate (fed only by PIs/constant -> level 1)."""
        base = self.num_inputs + 1
        in0, in1, in2 = self.in0, self.in1, self.in2
        levels: List[int] = []
        append = levels.append
        for g in range(len(in0)):
            level = 0
            port = in0[g]
            if port >= base:
                level = levels[(port - base) // 3]
            port = in1[g]
            if port >= base:
                other = levels[(port - base) // 3]
                if other > level:
                    level = other
            port = in2[g]
            if port >= base:
                other = levels[(port - base) // 3]
                if other > level:
                    level = other
            append(level + 1)
        return levels

    def depth(self) -> int:
        return max(self.levels(), default=0)

    def estimate_buffers(self) -> int:
        """Fused ASAP levels + buffer-span accumulation, one sweep.

        Bit-identical to :func:`repro.rqfp.buffers.estimate_buffers` on
        the materialized netlist: a gate's level is known before any
        consumer reads it (gates are topological), so the level pass and
        the gate-input span sum run in the same loop; the PO spans need
        the final depth and run after.
        """
        base = self.num_inputs + 1
        in0, in1, in2 = self.in0, self.in1, self.in2
        levels: List[int] = []
        append = levels.append
        total = 0
        for g in range(len(in0)):
            level = 0
            spans = 0    # per-port terms not involving this gate's level
            paying = 0   # non-constant inputs (each pays one `here` term)
            for port in (in0[g], in1[g], in2[g]):
                if port >= base:
                    other = levels[(port - base) // 3]
                    if other > level:
                        level = other
                    spans -= other + 1  # gate edge: here - other - 1
                    paying += 1
                elif port:
                    spans -= 1          # PI edge: here - 1
                    paying += 1
                # constant edges are phase-free: no span at all
            here = level + 1
            append(here)
            total += spans + paying * here
        depth = max(levels, default=0)
        for port in self.outputs:
            if port >= base:
                total += depth - levels[(port - base) // 3]
            elif port:
                total += depth
        return total

    def reachable_gates(self) -> List[int]:
        """Gates in the transitive fan-in of the primary outputs."""
        base = self.num_inputs + 1
        in0, in1, in2 = self.in0, self.in1, self.in2
        keep = bytearray(len(in0))
        for port in self.outputs:
            if port >= base:
                keep[(port - base) // 3] = 1
        for g in range(len(in0) - 1, -1, -1):
            if keep[g]:
                port = in0[g]
                if port >= base:
                    keep[(port - base) // 3] = 1
                port = in1[g]
                if port >= base:
                    keep[(port - base) // 3] = 1
                port = in2[g]
                if port >= base:
                    keep[(port - base) // 3] = 1
        return [g for g in range(len(in0)) if keep[g]]

    def shrink(self) -> "NetlistKernel":
        """Drop gates unreachable from the POs; remap ports compactly."""
        keep = self.reachable_gates()
        base = self.num_inputs + 1
        remap = list(range(base)) + [-1] * (3 * len(self.in0))
        for new, old in enumerate(keep):
            src = base + 3 * old
            dst = base + 3 * new
            remap[src] = dst
            remap[src + 1] = dst + 1
            remap[src + 2] = dst + 2
        fresh = NetlistKernel.__new__(NetlistKernel)
        fresh.num_inputs = self.num_inputs
        fresh.name = self.name
        in0, in1, in2, config = self.in0, self.in1, self.in2, self.config
        fresh.in0 = array("q", [remap[in0[g]] for g in keep])
        fresh.in1 = array("q", [remap[in1[g]] for g in keep])
        fresh.in2 = array("q", [remap[in2[g]] for g in keep])
        fresh.config = array("q", [config[g] for g in keep])
        fresh.outputs = array("q", [remap[p] for p in self.outputs])
        fresh.input_names = self.input_names
        fresh.output_names = self.output_names
        return fresh

    # -- semantics ---------------------------------------------------------

    def simulate_ports(self, input_words: Sequence[int],
                       mask: int) -> List[int]:
        """Bit-parallel simulation returning a value word for every port.

        Same arithmetic as :meth:`RqfpNetlist.simulate_ports`, with the
        per-gate genes read from the flat arrays.
        """
        num_inputs = self.num_inputs
        in0, in1, in2, cfg = self.in0, self.in1, self.in2, self.config
        values = [0] * (num_inputs + 1 + 3 * len(in0))
        values[CONST_PORT] = mask
        for i, word in enumerate(input_words):
            values[1 + i] = word & mask
        funcs = _MAJ_FUNCS
        index = num_inputs + 1
        for g in range(len(in0)):
            config = cfg[g]
            f = funcs.get(config)
            if f is None:
                f = funcs[config] = _compile_maj(config)
            (values[index], values[index + 1], values[index + 2]) = \
                f(values[in0[g]], values[in1[g]], values[in2[g]], mask)
            index += 3
        return values

    def simulate(self, input_words: Sequence[int], mask: int) -> List[int]:
        """One word per primary output."""
        values = self.simulate_ports(input_words, mask)
        return [values[p] for p in self.outputs]

    def resimulate_cone_tracked(self, values: List[int], mask: int,
                                touched_gates: Sequence[int],
                                gates: Optional[
                                    List[Tuple[int, int, int, int]]] = None,
                                checks: Optional[
                                    Sequence[Tuple[int, int, int]]] = None) \
            -> Tuple[int, List[Tuple[int, int]]]:
        """Cone resimulation with an undo log, in place.

        ``values`` (typically the memoized *parent* vector, shared by
        all offspring of a generation) is patched in place; the returned
        undo list holds ``(port, previous word)`` for every port that
        actually changed, so the caller restores the parent vector in
        O(changed ports) instead of copying all ports per offspring.

        ``gates`` optionally supplies the genes of every *untouched*
        gate pre-zipped as ``(in0, in1, in2, config)`` tuples — one list
        read per swept gate instead of three-to-four boxed array reads.
        :meth:`SimulationState.child_values_tracked` passes the parent's
        list, built once per parent: a touched gate's genes are read
        from this kernel's arrays when the sweep reaches it, so an
        offspring whose sweep stops early never pays for the touched
        gates it did not reach.

        ``checks`` turns on the early stop: ``(source gate, port,
        expected word)`` per primary output, in (source gate, output
        index) order, a source of -1 standing for the constant or a
        primary input.  Each output is compared as soon as the sweep has
        passed its source gate (an output driven below the first touched
        gate before any gate is recomputed), and the sweep stops at the
        first wrong output, or after the last output's source gate when
        all are right.  Every compared output then holds its final word,
        so a caller comparing all outputs afterwards gets the exact
        verdict.  The counter covers the gates recomputed up to the
        stopping gate — the same as :meth:`RqfpNetlist.resimulate_cone`.

        The sweep itself is the same forward scan with value-identity
        pruning as :meth:`RqfpNetlist.resimulate_cone` — same gate set,
        same counter.  (A heap-driven worklist over a fan-out index was
        measured against it and lost, even with the index kept warm
        across a span: mutation cones here are wide enough that the
        scheduling costs more than the three-flag skip test per
        untouched gate.)
        """
        undo: List[Tuple[int, int]] = []
        if not touched_gates:
            return 0, undo
        if gates is None:
            gates = list(zip(self.in0, self.in1, self.in2, self.config))
        num_gates = len(gates)
        touched = bytearray(num_gates)
        for g in touched_gates:
            touched[g] = 1
        dirty = bytearray(self.num_inputs + 1 + 3 * num_gates)
        first = min(touched_gates)
        last = max(touched_gates)
        base = self.num_inputs + 1
        in0, in1, in2, cfg = self.in0, self.in1, self.in2, self.config
        record = undo.append
        funcs = _MAJ_FUNCS
        recomputed = 0
        pos = first  # the next gate the sweep reaches
        if checks is None:
            checks = ((num_gates - 1, CONST_PORT, None),)
        for due, port, want in checks:
            if due >= pos:
                # Segment 1: up to the last touched gate, where either
                # the touched flag or a dirty input can trigger a
                # recompute.
                index = base + 3 * pos
                for g in range(pos, min(due, last) + 1):
                    if touched[g]:
                        ia, ib, ic, config = in0[g], in1[g], in2[g], cfg[g]
                    else:
                        ia, ib, ic, config = gates[g]
                        if not (dirty[ia] or dirty[ib] or dirty[ic]):
                            index += 3
                            continue
                    recomputed += 1
                    f = funcs.get(config)
                    if f is None:
                        f = funcs[config] = _compile_maj(config)
                    w0, w1, w2 = f(values[ia], values[ib], values[ic], mask)
                    old = values[index]
                    if old != w0:
                        record((index, old))
                        values[index] = w0
                        dirty[index] = 1
                    index += 1
                    old = values[index]
                    if old != w1:
                        record((index, old))
                        values[index] = w1
                        dirty[index] = 1
                    index += 1
                    old = values[index]
                    if old != w2:
                        record((index, old))
                        values[index] = w2
                        dirty[index] = 1
                    index += 1
                # Segment 2: past the last touched gate only dirty values
                # can propagate — an empty undo log means nothing changed
                # anywhere, so the tail scan (often most of the netlist)
                # is skipped.
                if due > last and undo:
                    start = max(pos, last + 1)
                    index = base + 3 * start
                    for g in range(start, due + 1):
                        ia, ib, ic, config = gates[g]
                        if not (dirty[ia] or dirty[ib] or dirty[ic]):
                            index += 3
                            continue
                        recomputed += 1
                        f = funcs.get(config)
                        if f is None:
                            f = funcs[config] = _compile_maj(config)
                        w0, w1, w2 = f(values[ia], values[ib], values[ic],
                                       mask)
                        old = values[index]
                        if old != w0:
                            record((index, old))
                            values[index] = w0
                            dirty[index] = 1
                        index += 1
                        old = values[index]
                        if old != w1:
                            record((index, old))
                            values[index] = w1
                            dirty[index] = 1
                        index += 1
                        old = values[index]
                        if old != w2:
                            record((index, old))
                            values[index] = w2
                            dirty[index] = 1
                        index += 1
                pos = due + 1
            if want is not None and values[port] != want:
                break
        return 3 * recomputed, undo

    # -- presentation ------------------------------------------------------

    def describe(self) -> str:
        """Chromosome rendering, identical to the netlist's."""
        return self.to_netlist().describe()

    def __repr__(self) -> str:
        return (f"NetlistKernel(name={self.name!r}, "
                f"inputs={self.num_inputs}, outputs={len(self.outputs)}, "
                f"gates={len(self.in0)})")
