"""RCGP mutation operators (§3.2.2).

The genome *is* an RQFP netlist (CGP genotype and phenotype share the
paper's port-index encoding), with chromosome length
``n_L = 4 * n_C + n_po``: four genes per gate (three input connections
plus the 9-bit inverter configuration) and one gene per primary output.

Point mutation modifies up to ``m`` genes, ``m`` drawn uniformly from
``[1, max(1, round(mu * n_L))]``.  A mutated gene is one of:

* **node-input reconnection** — honouring the single-fan-out rule by the
  paper's *swap* trick: if the freshly chosen source port already feeds
  another gene, the two genes exchange values (skipped when the swap
  would make the other gate read from its own future); connecting to the
  constant port or an unused port is a direct assignment;
* **primary-output reconnection** — direct update (per the paper; any
  resulting port sharing is costed by the evaluator through splitter
  legalization);
* **inverter-configuration flip** — ``f' = f XOR (1 << beta)`` with
  ``beta`` uniform in ``[0, 9)``.

A candidate is either a flat :class:`~repro.core.kernel.NetlistKernel`
(the engine's hot loop) or an :class:`~repro.rqfp.netlist.RqfpNetlist`
(the oracle, and the route for kernels with shared ports), and each
has its own implementation:

* :func:`_mutate_kernel` — one fused loop over the kernel's
  ``in0/in1/in2/config/outputs`` columns, with no per-gene method calls;
* the object path — :class:`_NetlistState` with
  :func:`_mutate_gate_input`, :func:`_mutate_output` and
  :func:`_mutate_config`.  It is the oracle the kernel loop is held to
  (``RCGP_CHECK_KERNEL``, ``tests/test_mutation.py``,
  ``tools/fuzz_diff.py``).

Callers reach either through one entry point, :func:`mutate_with_delta`,
which returns the offspring and its delta.

Both make the identical RNG draws, so the mutant, the swap-rule choices
and the delta are bit-identical across representations.  The object
path calls ``rng.randrange(n)`` / ``rng.randint(1, m)``; for
:class:`random.Random` those reduce to
``Random._randbelow_with_getrandbits`` — draw
``getrandbits(n.bit_length())`` until the value is below ``n`` — and
the kernel loop makes exactly those ``getrandbits`` calls inline.  That
equality holds for every RNG whose class draws integers through that
method (``random.Random``, ``random.SystemRandom``, subclasses that only
override ``getrandbits``); any other RNG — say a subclass that only
overrides ``random()`` — gets a ``TypeError`` on a kernel parent rather
than a silently different mutant.

The swap rule asks which gene reads a port.  The object path asks a
consumer map ``port -> [("gate", g, position) | ("po", index, 0), ...]``
in ``consumers()`` order (the first gate consumer wins, so list order is
semantics).  With ``rollback=True`` its edits are journalled and undone,
so a (1+λ) brood shares one parent map that ends as it began; an owned
map (``rollback=False``) is left as the child's map.

The kernel loop asks a :class:`PortReaders` table, built once per parent
in one sweep over its columns (:func:`port_readers`): ``reader[port]``
is the gene index ``4*g + position`` of the gate input reading the port,
or -1, and the primary outputs reading a port are an output-index list
in ``consumers()`` order.  Each child copies ``reader`` with a C-level
slice and edits the copy by direct stores (PO lists copy-on-write), so
the table is never written and a whole brood shares it; the swap
partner is one array index.  One gate reader per port is an invariant of
the swap rule — it moves readers in pairs — so a parent that has it
hands it to every child.  Port 0 (``CONST_PORT``) is untracked:
connecting to the constant is a direct assignment, so the swap rule
never asks who reads it (about 45% of all gate inputs do).  A parent in
which some other port feeds two or more gate inputs (only user-supplied
netlists have one) is flagged while its table is built and mutated
through the object path instead (``to_netlist()``, the object loop,
``apply_delta``), so there is still one loop per representation.
"""

from __future__ import annotations

import functools
import random
from array import array
from dataclasses import dataclass
from typing import (Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
                    Union)

from ..rqfp.netlist import CONST_PORT, RqfpNetlist
from .config import RcgpConfig
from .kernel import NetlistKernel

Candidate = Union[RqfpNetlist, NetlistKernel]
Consumer = Tuple[str, int, int]  # ("gate", gate_index, position) | ("po", index, 0)


@dataclass(frozen=True)
class MutationDelta:
    """The structured footprint of one point mutation.

    Records the *final* gene values of every touched gate and primary
    output, so a delta is self-sufficient: ``delta.apply_to(parent)``
    reconstructs the offspring exactly, without the offspring's full
    genome.  That makes deltas the unit of transport for incremental
    evaluation — both for the in-process :class:`~repro.core.simstate.
    SimulationState` cone resimulation (``touched_gates`` seeds the
    dirty set) and for check mode's replay spans
    (``RCGP_CHECK_INCREMENTAL=1``), which ship the coordinator's deltas
    so a worker can cross-check the mutations it re-derives.

    A gate is *touched* when any of its input connections or its
    inverter configuration changed, including gates edited indirectly by
    the paper's swap rule.  Note the recorded values may coincidentally
    equal the parent's (e.g. the same inverter bit flipped twice);
    touched gates are still resimulated, and value-identity pruning
    stops the propagation.
    """

    gates: Tuple[Tuple[int, Tuple[int, int, int, int]], ...] = ()
    """``(gate_index, (in0, in1, in2, config))`` pairs, ascending index."""

    outputs: Tuple[Tuple[int, int], ...] = ()
    """``(output_index, port)`` pairs for rewired POs, ascending index."""

    @property
    def touched_gates(self) -> Tuple[int, ...]:
        """Gate indices whose outputs may differ from the parent's."""
        return tuple([g for g, _ in self.gates])

    @property
    def is_empty(self) -> bool:
        return not self.gates and not self.outputs

    def flatten(self) -> List[int]:
        """The delta as a flat int run, for the pool's wire codec.

        Layout: ``n_gates, n_outputs`` then ``(g, in0, in1, in2, config)``
        per gate and ``(index, port)`` per output.  ``touched_gates`` is
        derived from ``gates`` and never serialized.  Inverse of
        :meth:`consume`.
        """
        flat = [len(self.gates), len(self.outputs)]
        for g, (in0, in1, in2, config) in self.gates:
            flat.extend((g, in0, in1, in2, config))
        for index, port in self.outputs:
            flat.extend((index, port))
        return flat

    @classmethod
    def consume(cls, flat: Sequence[int], at: int) \
            -> Tuple["MutationDelta", int]:
        """Rebuild one delta from ``flat[at:]``; returns it and the new
        cursor, so a packed stream of deltas parses in one pass."""
        n_gates, n_outputs = flat[at], flat[at + 1]
        at += 2
        gates = []
        for _ in range(n_gates):
            gates.append((flat[at],
                          (flat[at + 1], flat[at + 2], flat[at + 3],
                           flat[at + 4])))
            at += 5
        outputs = []
        for _ in range(n_outputs):
            outputs.append((flat[at], flat[at + 1]))
            at += 2
        return cls(gates=tuple(gates), outputs=tuple(outputs)), at

    def apply_to(self, parent: Candidate) -> Candidate:
        """Reconstruct the offspring this delta was recorded against.

        Works on either representation: a :class:`NetlistKernel` parent
        patches flat gene arrays copy-on-write
        (:meth:`NetlistKernel.apply_delta`), an object netlist patches
        gate objects.
        """
        if isinstance(parent, NetlistKernel):
            return parent.apply_delta(self)
        child = parent.copy()
        for g, (in0, in1, in2, config) in self.gates:
            gate = child.gates[g]
            gate.in0, gate.in1, gate.in2 = in0, in1, in2
            gate.config = config
        for index, port in self.outputs:
            child.outputs[index] = port
        return child


def chromosome_length(candidate: Candidate) -> int:
    """The paper's ``n_L = n_C * (n_i + 1) + n_po`` with ``n_i = 3``."""
    return 4 * candidate.num_gates + candidate.num_outputs


class _NetlistState:
    """Mutation primitives over :class:`RqfpNetlist` gate objects.

    Maintains the consumer map incrementally during one mutation and
    records which gates and primary outputs were touched, so the caller
    can build the :class:`MutationDelta` without diffing the whole
    chromosome afterwards.

    With ``track_undo`` the consumer-map edits are journalled so
    :meth:`rollback` restores the map to its pre-mutation state —
    including list order, which the swap rule's first-consumer choice
    depends on.
    """

    __slots__ = ("netlist", "consumers", "touched_gates", "touched_outputs",
                 "_undo")

    def __init__(self, netlist: RqfpNetlist,
                 consumers: Optional[Dict[int, List[Consumer]]] = None,
                 track_undo: bool = False):
        self.netlist = netlist
        self.consumers = consumers if consumers is not None \
            else netlist.consumers()
        self.touched_gates: Set[int] = set()
        self.touched_outputs: Set[int] = set()
        self._undo: Optional[List[Tuple[bool, int, int, Consumer]]] = \
            [] if track_undo else None

    # -- consumer bookkeeping ------------------------------------------

    def _detach(self, port: int, consumer: Consumer) -> None:
        users = self.consumers.get(port)
        if users is None:
            return
        try:
            at = users.index(consumer)
        except ValueError:
            return
        users.pop(at)
        if self._undo is not None:
            self._undo.append((False, port, at, consumer))
        if not users:
            del self.consumers[port]

    def _attach(self, port: int, consumer: Consumer) -> None:
        self.consumers.setdefault(port, []).append(consumer)
        if self._undo is not None:
            self._undo.append((True, port, 0, consumer))

    def rollback(self) -> None:
        """Undo every consumer-map edit, restoring exact list order.

        Replayed in reverse, so when an *attach* is undone all later
        edits are already gone and the attached consumer is the list's
        last element again; a *detach* re-inserts at its recorded index.
        """
        undo = self._undo
        if not undo:
            return
        consumers = self.consumers
        for was_attach, port, at, consumer in reversed(undo):
            if was_attach:
                users = consumers[port]
                users.pop()
                if not users:
                    del consumers[port]
            else:
                consumers.setdefault(port, []).insert(at, consumer)
        undo.clear()

    def gene_consumer_of(self, port: int,
                         exclude: Consumer) -> Optional[Consumer]:
        """Some consumer of ``port`` other than ``exclude`` (None if free).

        Gate consumers take priority: a port may transiently carry one
        gate consumer plus PO consumers (PO genes mutate by direct
        update), and swapping with the *gate* is what preserves the
        at-most-one-gate-consumer invariant.
        """
        fallback: Optional[Consumer] = None
        for user in self.consumers.get(port, ()):
            if user == exclude:
                continue
            if user[0] == "gate":
                return user
            if fallback is None:
                fallback = user
        return fallback

    # -- genes -----------------------------------------------------------

    def num_ports(self) -> int:
        return self.netlist.num_ports()

    def source_limit(self, gate: int) -> int:
        """Gate inputs may reference any strictly earlier port (``n_l``
        spans every previous column, as in the paper's setup)."""
        return self.netlist.first_gate_port(gate)

    def input(self, gate: int, position: int) -> int:
        return self.netlist.gates[gate].inputs[position]

    def config(self, gate: int) -> int:
        return self.netlist.gates[gate].config

    def output(self, index: int) -> int:
        return self.netlist.outputs[index]

    def set_gate_input(self, gate: int, position: int, port: int) -> None:
        old = self.netlist.gates[gate].inputs[position]
        self._detach(old, ("gate", gate, position))
        self.netlist.gates[gate].replace_input(position, port)
        self._attach(port, ("gate", gate, position))
        self.touched_gates.add(gate)

    def set_config(self, gate: int, config: int) -> None:
        self.netlist.gates[gate].config = config
        self.touched_gates.add(gate)

    def set_output(self, index: int, port: int) -> None:
        old = self.netlist.outputs[index]
        self._detach(old, ("po", index, 0))
        self.netlist.outputs[index] = port
        self._attach(port, ("po", index, 0))
        self.touched_outputs.add(index)

    def build_delta(self) -> MutationDelta:
        gates = self.netlist.gates
        return MutationDelta(
            gates=tuple((g, (gates[g].in0, gates[g].in1, gates[g].in2,
                             gates[g].config))
                        for g in sorted(self.touched_gates)),
            outputs=tuple((i, self.netlist.outputs[i])
                          for i in sorted(self.touched_outputs)),
        )


def _mutate_gate_input(state: _NetlistState, gate: int, position: int,
                       rng: random.Random) -> bool:
    limit = state.source_limit(gate)
    new_port = rng.randrange(limit)
    me: Consumer = ("gate", gate, position)
    old_port = state.input(gate, position)
    if new_port == old_port:
        return False
    if new_port == CONST_PORT:
        state.set_gate_input(gate, position, new_port)
        return True
    other = state.gene_consumer_of(new_port, exclude=me)
    if other is None:
        # Unused (or garbage) port: direct assignment (paper case 2).
        state.set_gate_input(gate, position, new_port)
        return True
    # Paper case 1: the target port is taken — swap the two genes'
    # values, provided the other gene may legally read ``old_port``.
    kind, index, pos = other
    if kind == "gate":
        if old_port >= state.source_limit(index):
            return False  # swap would let a gate read from its future
        state.set_gate_input(gate, position, new_port)
        state.set_gate_input(index, pos, old_port)
        return True
    # Other consumer is a primary output: it can reference any port.
    state.set_gate_input(gate, position, new_port)
    state.set_output(index, old_port)
    return True


def _mutate_output(state: _NetlistState, index: int,
                   rng: random.Random) -> bool:
    new_port = rng.randrange(state.num_ports())
    if new_port == state.output(index):
        return False
    state.set_output(index, new_port)
    return True


def _mutate_config(state: _NetlistState, gate: int,
                   rng: random.Random) -> bool:
    beta = rng.randrange(9)
    state.set_config(gate, state.config(gate) ^ (1 << beta))
    return True


def _mutate_netlist(child: RqfpNetlist, rng: random.Random,
                    config: RcgpConfig, max_m: int,
                    consumers: Optional[Dict[int, List[Consumer]]],
                    rollback: bool) -> MutationDelta:
    """The object path: point-mutate ``child``'s gate objects in place."""
    n_l = chromosome_length(child)
    m = rng.randint(1, max_m)
    state = _NetlistState(child, consumers, rollback)
    node_genes = 4 * child.num_gates

    for _ in range(m):
        for _attempt in range(8):
            gene = rng.randrange(n_l)
            if gene < node_genes:
                gate, field = divmod(gene, 4)
                if field < 3:
                    if not config.enable_input_mutation:
                        continue
                    _mutate_gate_input(state, gate, field, rng)
                    break
                if not config.enable_inverter_mutation:
                    continue
                _mutate_config(state, gate, rng)
                break
            else:
                if not config.enable_output_mutation:
                    continue
                _mutate_output(state, gene - node_genes, rng)
                break
    delta = state.build_delta()
    if rollback:
        state.rollback()
    return delta


class PortReaders(NamedTuple):
    """Who reads each port of one kernel parent, int-coded.

    Built by :func:`port_readers` and only ever read, so a (1+λ) brood
    shares one (module docstring).
    """

    reader: array
    """Per port (``array('q')``, so a child's copy is one ``memcpy``):
    the gene index ``4*g + position`` of the gate input reading it, or
    -1; port 0 is always -1."""

    outputs: Dict[int, List[int]]
    """Non-constant port -> the indices of the primary outputs reading
    it, in ``consumers()`` order."""

    limits: Tuple[int, ...]
    """Per gate: its first port, so its inputs are drawn below it."""

    limit_bits: Tuple[int, ...]
    """Per gate: ``limits[g].bit_length()``, the ``getrandbits`` width of
    one draw."""

    shared: bool
    """Some non-constant port feeds two or more gate inputs: children
    take the object path."""


@functools.lru_cache(maxsize=16)
def _gate_limits(base: int, num_gates: int) \
        -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    limits = tuple(range(base, base + 3 * num_gates, 3))
    return limits, tuple([limit.bit_length() for limit in limits])


def port_readers(kernel: NetlistKernel) -> PortReaders:
    """The :class:`PortReaders` table of ``kernel``, in one sweep.

    A port feeding two gate inputs keeps only one of them in ``reader``,
    so sharing shows as fewer tracked ports than non-constant gate
    inputs (both counted at C level).
    """
    in0, in1, in2 = kernel.in0, kernel.in1, kernel.in2
    base = kernel.num_inputs + 1
    reader = array("q", [-1]) * (base + 3 * len(in0))
    gene = 0
    for a, b, c in zip(in0, in1, in2):
        reader[a] = gene
        reader[b] = gene + 1
        reader[c] = gene + 2
        gene += 4
    reader[CONST_PORT] = -1
    fed = 3 * len(in0) - in0.count(0) - in1.count(0) - in2.count(0)
    shared = len(reader) - reader.count(-1) != fed
    outputs: Dict[int, List[int]] = {}
    for index, port in enumerate(kernel.outputs):
        if port:
            users = outputs.get(port)
            if users is None:
                outputs[port] = [index]
            else:
                users.append(index)
    limits, limit_bits = _gate_limits(base, len(in0))
    return PortReaders(reader, outputs, limits, limit_bits, shared)


def consumer_view(parent: Candidate) \
        -> Union[PortReaders, Dict[int, List[Consumer]]]:
    """What a (1+λ) brood of ``parent`` shares as ``consumers=`` with
    ``rollback=True``: a kernel's :class:`PortReaders` table, a
    netlist's consumer map."""
    if isinstance(parent, NetlistKernel):
        return port_readers(parent)
    return parent.consumers()


_RANDBELOW = random.Random._randbelow_with_getrandbits


def _require_getrandbits(rng: random.Random) -> None:
    cls = type(rng)
    if (getattr(cls, "_randbelow", None) is not _RANDBELOW
            or getattr(cls, "randrange", None) is not random.Random.randrange
            or getattr(cls, "randint", None) is not random.Random.randint):
        raise TypeError(
            f"{cls.__name__} does not draw integers through "
            "random.Random._randbelow_with_getrandbits, so the kernel "
            "mutation loop cannot reproduce its randrange() stream")


def _enabled_gene(gene: int, getrandbits, n_l: int, node_genes: int,
                  kinds_on: Tuple[bool, ...]) -> int:
    """The object path's up to eight draws for a gene of an enabled kind,
    ``gene`` being the first: the gene they land on, or -1."""
    bits = n_l.bit_length()
    for _ in range(7):
        if kinds_on[gene & 3 if gene < node_genes else 4]:
            return gene
        gene = getrandbits(bits)
        while gene >= n_l:
            gene = getrandbits(bits)
    return gene if kinds_on[gene & 3 if gene < node_genes else 4] else -1


def _mutate_kernel(child: NetlistKernel, rng: random.Random,
                   config: RcgpConfig, max_m: int,
                   table: PortReaders) -> MutationDelta:
    """Point-mutate ``child``'s gene columns in place; returns the delta.

    The object path fused into one loop (module docstring): each
    ``rng.randrange(n)`` there is an inline ``getrandbits`` rejection
    loop here, and each consumer-map edit is a store into ``reader``, a
    private copy of the parent's table, or an edit of a copied PO list.
    Ports are ints and ``CONST_PORT`` is 0, so ``if port`` reads "not the
    constant".
    """
    getrandbits = rng.getrandbits
    reader = table.reader[:]
    parent_pos = table.outputs
    pos_of = dict(parent_pos)  # the parent's PO lists until edited
    limits, limit_bits = table.limits, table.limit_bits
    columns = (child.in0, child.in1, child.in2)
    configs = child.config
    outputs = child.outputs
    node_genes = 4 * len(configs)
    n_l = node_genes + len(outputs)
    n_l_bits = n_l.bit_length()
    num_ports = len(reader)
    num_ports_bits = num_ports.bit_length()
    # The object path's kind test per gene field (three inputs, the
    # inverter config) and for PO genes, last.
    kinds_on = (config.enable_input_mutation,) * 3 + (
        config.enable_inverter_mutation, config.enable_output_mutation)
    all_on = all(kinds_on)
    touched_gates: Set[int] = set()
    touched_outputs: Set[int] = set()
    touch = touched_gates.add

    def own(port: int) -> List[int]:
        """This child's private copy of ``port``'s PO list."""
        users = pos_of.get(port)
        if users is None or users is parent_pos.get(port):
            users = pos_of[port] = list(users or ())
        return users

    bits = max_m.bit_length()
    m = getrandbits(bits)
    while m >= max_m:
        m = getrandbits(bits)
    for _ in range(m + 1):  # randint(1, max_m) == 1 + randbelow(max_m)
        gene = getrandbits(n_l_bits)
        while gene >= n_l:
            gene = getrandbits(n_l_bits)
        if not all_on:
            gene = _enabled_gene(gene, getrandbits, n_l, node_genes,
                                 kinds_on)
            if gene < 0:
                continue

        if gene >= node_genes:  # primary-output reconnection
            index = gene - node_genes
            new = getrandbits(num_ports_bits)
            while new >= num_ports:
                new = getrandbits(num_ports_bits)
            old = outputs[index]
            if new != old:
                outputs[index] = new
                touched_outputs.add(index)
                if old:
                    own(old).remove(index)
                if new:
                    own(new).append(index)
            continue

        gate = gene >> 2
        field = gene & 3
        if field == 3:  # inverter-configuration flip
            beta = getrandbits(4)
            while beta >= 9:
                beta = getrandbits(4)
            configs[gate] ^= 1 << beta
            touch(gate)
            continue

        limit = limits[gate]  # node-input reconnection
        bits = limit_bits[gate]
        new = getrandbits(bits)
        while new >= limit:
            new = getrandbits(bits)
        column = columns[field]
        old = column[gate]
        if new == old:
            continue
        if new:  # a constant connection is a direct assignment
            # The swap partner: the gate input reading ``new``, else its
            # first PO.  (This gene reads ``old``, so it is not the
            # partner.)
            other = reader[new]
            if other >= 0:
                partner = other >> 2
                if old >= limits[partner]:
                    continue  # swap would let a gate read from its future
                # Paper case 1: the partner takes over ``old``.
                columns[other & 3][partner] = old
                touch(partner)
                if old:
                    reader[old] = other
            else:
                if pos_of.get(new):
                    # Paper case 1: the first PO takes over ``old`` (a
                    # PO may reference any port).
                    index = own(new).pop(0)
                    outputs[index] = old
                    touched_outputs.add(index)
                    if old:
                        own(old).append(index)
                if old:
                    reader[old] = -1
            reader[new] = gene
        else:
            reader[old] = -1
        column[gate] = new
        touch(gate)

    in0, in1, in2 = columns
    if 4 * len(touched_gates) > len(configs):
        genes = list(zip(in0, in1, in2, configs))  # one C-level pass
        gates = tuple([(g, genes[g]) for g in sorted(touched_gates)])
    else:
        gates = tuple([(g, (in0[g], in1[g], in2[g], configs[g]))
                       for g in sorted(touched_gates)])
    return MutationDelta(
        gates=gates,
        outputs=tuple([(i, outputs[i]) for i in sorted(touched_outputs)]),
    )


def mutate_with_delta(parent: Candidate, rng: random.Random,
                      config: RcgpConfig,
                      consumers: Union[None, PortReaders,
                                       Dict[int, List[Consumer]]] = None,
                      rollback: bool = False) \
        -> Tuple[Candidate, MutationDelta]:
    """One offspring of ``parent`` plus its structured footprint.

    The delta records every gate and primary output the mutation wrote
    to (including swap-rule side effects), with their final gene
    values — enough for :meth:`MutationDelta.apply_to` to rebuild the
    child from the parent, and for the evaluator to resimulate only the
    delta's fan-out cone.  The parent is not modified, the offspring has
    the parent's representation (netlist or kernel), and the RNG stream
    is identical across representations.  A kernel parent needs an RNG
    whose integers come from ``getrandbits`` (module docstring); any
    other raises ``TypeError``.

    ``consumers``, when given, is the parent's :func:`consumer_view`.
    A kernel parent's :class:`PortReaders` table is only read, whatever
    ``rollback`` says.  A netlist parent's consumer map is taken over
    with ``rollback=False`` and updated to the child's map; with
    ``rollback=True`` it is left as it was (list order included).
    Either way a (1+λ) loop shares one view across the whole brood.
    """
    n_l = chromosome_length(parent)
    if n_l == 0:
        return parent.copy(), MutationDelta()
    max_m = max(1, round(config.mutation_rate * n_l))
    if config.max_mutated_genes is not None:
        max_m = max(1, min(max_m, config.max_mutated_genes))
    if isinstance(parent, NetlistKernel):
        _require_getrandbits(rng)
        table = port_readers(parent) if consumers is None else consumers
        if not table.shared:
            child = parent.copy()
            return child, _mutate_kernel(child, rng, config, max_m, table)
        # A port feeding several gate inputs: the object path's consumer
        # lists handle any number of gate readers.
        delta = _mutate_netlist(parent.to_netlist(), rng, config, max_m,
                                None, False)
        return parent.apply_delta(delta), delta
    child = parent.copy()
    return child, _mutate_netlist(child, rng, config, max_m, consumers,
                                  rollback)
