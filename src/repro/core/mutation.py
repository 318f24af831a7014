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
(``kernel="object"``), and each has its own implementation:

* :func:`_mutate_kernel` — one fused loop over the kernel's
  ``in0/in1/in2/config/outputs`` columns, with no per-gene method calls;
* the object path — :class:`_NetlistState` with
  :func:`_mutate_gate_input`, :func:`_mutate_output` and
  :func:`_mutate_config`.  It is the oracle the kernel loop is held to
  (``RCGP_CHECK_KERNEL``, ``tests/test_mutation.py``,
  ``tools/fuzz_diff.py``).

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

The swap rule asks which gene reads a port, through a consumer map
``port -> [("gate", g, position) | ("po", index, 0), ...]`` in
``consumers()`` order (the first gate consumer wins, so list order is
semantics).  The kernel loop edits it copy-on-write: the first edit of
a port copies its list into a call-private overlay, and lookups read
the overlay first.  With ``rollback=True`` the overlay is dropped, so
a (1+λ) brood shares one parent map that is never written; an owned map
(``rollback=False``) gets the overlay written back.  Port 0
(``CONST_PORT``) needs no bookkeeping unless the map is owned:
connecting to the constant is a direct assignment, so the swap rule
never reads its consumers — and about 45% of all gate inputs read the
constant, which makes its list the longest in the map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
    dirty set) and for the process-pool backend, which ships deltas
    instead of whole genomes when the parent is already resident in the
    worker.

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


_RANDBELOW = random.Random._randbelow_with_getrandbits


def _mutate_kernel(child: NetlistKernel, rng: random.Random,
                   config: RcgpConfig, max_m: int,
                   consumers: Optional[Dict[int, List[Consumer]]],
                   rollback: bool) -> MutationDelta:
    """Point-mutate ``child``'s gene columns in place; returns the delta.

    The object path fused into one loop (module docstring): each
    ``rng.randrange(n)`` there is an inline ``getrandbits`` rejection
    loop here, and each detach/attach goes to the copy-on-write overlay
    ``edited``.  Ports are ints and ``CONST_PORT`` is 0, so ``if port``
    reads "not the constant".
    """
    cls = type(rng)
    if (getattr(cls, "_randbelow", None) is not _RANDBELOW
            or getattr(cls, "randrange", None) is not random.Random.randrange
            or getattr(cls, "randint", None) is not random.Random.randint):
        raise TypeError(
            f"{cls.__name__} does not draw integers through "
            "random.Random._randbelow_with_getrandbits, so the kernel "
            "mutation loop cannot reproduce its randrange() stream")
    getrandbits = rng.getrandbits
    write_back = consumers is not None and not rollback
    if consumers is None:
        consumers = child.consumers()
    edited: Dict[int, List[Consumer]] = {}
    columns = (child.in0, child.in1, child.in2)
    configs = child.config
    outputs = child.outputs
    base = child.num_inputs + 1
    node_genes = 4 * len(configs)
    n_l = node_genes + len(outputs)
    n_l_bits = n_l.bit_length()
    num_ports = base + 3 * len(configs)
    num_ports_bits = num_ports.bit_length()
    inputs_on = config.enable_input_mutation
    configs_on = config.enable_inverter_mutation
    outputs_on = config.enable_output_mutation
    touched_gates: Set[int] = set()
    touched_outputs: Set[int] = set()

    bits = max_m.bit_length()
    m = getrandbits(bits)
    while m >= max_m:
        m = getrandbits(bits)
    for _ in range(m + 1):  # randint(1, max_m) == 1 + randbelow(max_m)
        # Up to eight draws to land on an enabled gene kind.  (A counted
        # ``while`` costs markedly less per gene than ``range(8)``.)
        attempts = 8
        while attempts:
            attempts -= 1
            gene = getrandbits(n_l_bits)
            while gene >= n_l:
                gene = getrandbits(n_l_bits)

            if gene >= node_genes:  # primary-output reconnection
                if not outputs_on:
                    continue
                index = gene - node_genes
                new = getrandbits(num_ports_bits)
                while new >= num_ports:
                    new = getrandbits(num_ports_bits)
                old = outputs[index]
                if new != old:
                    outputs[index] = new
                    touched_outputs.add(index)
                    me = ("po", index, 0)
                    if old or write_back:
                        users = edited.get(old)
                        if users is None:
                            users = edited[old] = list(consumers.get(old, ()))
                        users.remove(me)
                    if new or write_back:
                        users = edited.get(new)
                        if users is None:
                            users = edited[new] = list(consumers.get(new, ()))
                        users.append(me)
                break

            gate = gene >> 2
            field = gene & 3
            if field == 3:  # inverter-configuration flip
                if not configs_on:
                    continue
                beta = getrandbits(4)
                while beta >= 9:
                    beta = getrandbits(4)
                configs[gate] ^= 1 << beta
                touched_gates.add(gate)
                break

            if not inputs_on:  # node-input reconnection
                continue
            limit = base + 3 * gate
            bits = limit.bit_length()
            new = getrandbits(bits)
            while new >= limit:
                new = getrandbits(bits)
            column = columns[field]
            old = column[gate]
            if new == old:
                break
            me = ("gate", gate, field)
            other = None
            if new or write_back:
                users = edited.get(new)
                if users is None:
                    users = edited[new] = list(consumers.get(new, ()))
                if new:
                    # The swap partner: the first gate consumer of
                    # ``new``, else its first PO.  (This gene reads
                    # ``old``, so it is never in ``new``'s list.)  A
                    # constant connection is a direct assignment.
                    for user in users:
                        if user[0] == "gate":
                            other = user
                            break
                        if other is None:
                            other = user
                    if other is not None and other[0] == "gate" \
                            and old >= base + 3 * other[1]:
                        break  # swap would let a gate read from its future
                users.append(me)
            column[gate] = new
            touched_gates.add(gate)
            if old or write_back:
                olds = edited.get(old)
                if olds is None:
                    olds = edited[old] = list(consumers.get(old, ()))
                olds.remove(me)
            if other is not None:
                # Paper case 1: the partner takes over ``old`` (a PO may
                # reference any port).
                users.remove(other)
                index = other[1]
                if other[0] == "gate":
                    columns[other[2]][index] = old
                    touched_gates.add(index)
                else:
                    outputs[index] = old
                    touched_outputs.add(index)
                if old or write_back:
                    olds.append(other)
            break

    if write_back:
        for port, users in edited.items():
            if users:
                consumers[port] = users
            else:
                consumers.pop(port, None)
    in0, in1, in2 = columns
    return MutationDelta(
        gates=tuple((g, (in0[g], in1[g], in2[g], configs[g]))
                    for g in sorted(touched_gates)),
        outputs=tuple((i, outputs[i]) for i in sorted(touched_outputs)),
    )


def mutate_with_delta(parent: Candidate, rng: random.Random,
                      config: RcgpConfig,
                      consumers: Optional[Dict[int, List[Consumer]]] = None,
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

    ``consumers``, when given, must be a consumer map of ``parent``.
    With ``rollback=False`` the call takes ownership and updates it to
    the child's map; with ``rollback=True`` it is left as it was (list
    order included), so a (1+λ) loop can share one parent map across
    the whole brood with no per-offspring copy at all.
    """
    child = parent.copy()
    n_l = chromosome_length(child)
    if n_l == 0:
        return child, MutationDelta()
    max_m = max(1, round(config.mutation_rate * n_l))
    if config.max_mutated_genes is not None:
        max_m = max(1, min(max_m, config.max_mutated_genes))
    if isinstance(child, NetlistKernel):
        return child, _mutate_kernel(child, rng, config, max_m, consumers,
                                     rollback)
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
    return child, delta


def mutate(parent: Candidate, rng: random.Random,
           config: RcgpConfig) -> Candidate:
    """Create one offspring of ``parent`` (the parent is not modified)."""
    return mutate_with_delta(parent, rng, config)[0]
