"""Memoized per-port simulation state for incremental fitness.

The ``(1 + λ)`` hot path evaluates offspring that differ from one
shared parent by a handful of genes (a :class:`~repro.core.mutation.
MutationDelta`).  Re-simulating the whole netlist per offspring wastes
almost all of that work: only the transitive fan-out *cone* of the
touched gates can change value.  :class:`SimulationState` caches the
parent's bit-parallel port values (in topological order — the parent's
gate order) so every offspring evaluation starts from the memoized
words and recomputes just its cone, with value-identity pruning cutting
the cone short wherever a recomputed word matches the parent's.

The parent may be a flat :class:`~repro.core.kernel.NetlistKernel` —
the engine's representation — or an :class:`~repro.rqfp.netlist.
RqfpNetlist`, the object oracle.  Kernel children take the *tracked*
cone (:meth:`SimulationState.child_values_tracked`): the memoized
parent vector is patched in place under an undo log and restored
afterwards, so a rejected offspring — the overwhelmingly common case —
costs O(cone) instead of an O(ports) copy of the whole vector.  Netlist
children take :meth:`~repro.rqfp.netlist.RqfpNetlist.resimulate_cone`
on a copy (:meth:`SimulationState.child_values`).

A state is only valid for one ``(parent, pattern set)`` pair: it
records the evaluator's ``pattern_epoch`` at construction, and the
evaluator falls back to full simulation whenever the epoch has moved on
(a SAT counterexample grew the pattern set) or the candidate's shape no
longer matches (callers other than the mutation loop).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["SimulationState"]


class SimulationState:
    """Per-port simulation words of one parent netlist or kernel.

    Parameters
    ----------
    parent:
        The parent candidate (netlist or kernel); its gate order defines
        the port index space shared with every offspring (point mutation
        never changes the shape).
    words:
        One bit-parallel input word per primary input.
    mask:
        Valid-bit mask of the words (``2^patterns - 1``).
    epoch:
        The evaluator's ``pattern_epoch`` the words belong to.
    """

    __slots__ = ("num_gates", "num_ports", "values", "mask", "epoch",
                 "_parent", "_zipped")

    def __init__(self, parent, words: Sequence[int], mask: int,
                 epoch: int = 0):
        self.num_gates = parent.num_gates
        self.num_ports = parent.num_ports()
        self.values: List[int] = parent.simulate_ports(words, mask)
        self.mask = mask
        self.epoch = epoch
        self._parent = parent
        self._zipped = None  # parent genes zipped per gate, on demand

    def compatible(self, candidate) -> bool:
        """Whether ``candidate`` lives in the same port index space."""
        return candidate.num_gates == self.num_gates

    def child_values(self, child, touched_gates: Sequence[int],
                     checks: Optional[Sequence[Tuple[int, int, int]]] = None) \
            -> Tuple[List[int], int]:
        """Port values of ``child``, resimulating only the dirty cone.

        ``child`` must be shape-compatible with the parent and differ
        from it in (at most) the ``touched_gates``.  Returns a fresh
        full per-port value vector plus the number of gate output ports
        that were actually recomputed.  ``checks`` stops the sweep at
        the first wrong output (see :meth:`~repro.rqfp.netlist.
        RqfpNetlist.resimulate_cone`).
        """
        values = self.values.copy()
        resimulated = child.resimulate_cone(values, self.mask,
                                            touched_gates, checks)
        return values, resimulated

    def child_values_tracked(self, child, touched_gates: Sequence[int],
                             checks: Optional[
                                 Sequence[Tuple[int, int, int]]] = None) \
            -> Tuple[List[int], int, list]:
        """In-place variant of :meth:`child_values` (kernel children).

        The memoized *parent* vector itself is patched and returned,
        together with the undo log of ``(port, previous word)`` entries;
        the caller must pass that log to :meth:`restore` once done with
        the values.  Requires a child exposing
        ``resimulate_cone_tracked`` (:class:`~repro.core.kernel.
        NetlistKernel`).

        The sweep reads untouched gates' genes from a per-parent zipped
        list (one tuple per gate), built once per state and shared by
        the whole brood, and touched gates' genes from the child itself.
        ``checks`` is the sweeps' early stop (see
        :meth:`~repro.core.kernel.NetlistKernel.resimulate_cone_tracked`).
        """
        zipped = self._zipped
        if zipped is None:
            parent = self._parent
            zipped = self._zipped = list(zip(parent.in0, parent.in1,
                                             parent.in2, parent.config))
        resimulated, undo = child.resimulate_cone_tracked(
            self.values, self.mask, touched_gates, zipped, checks)
        return self.values, resimulated, undo

    def restore(self, undo) -> None:
        """Rewind a :meth:`child_values_tracked` patch from its
        ``(port, old word)`` undo log."""
        values = self.values
        for port, word in undo:
            values[port] = word
