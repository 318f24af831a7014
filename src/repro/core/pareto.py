"""Multi-objective RCGP: a Pareto archive over (n_r, n_g, n_b).

Both the paper's Table 2 and our reproduction show the lexicographic
fitness trading Josephson junctions for gates: removing a gate is
always accepted even when it costs many path-balancing buffers
(mod5adder's JJs *rise* in both).  A Pareto treatment keeps the whole
trade-off front instead, letting the designer pick the JJ-optimal or
depth-optimal circuit afterwards — a natural "future work" extension of
the paper implemented here on the same mutation/evaluation machinery.

The optimizer is a steady-state archive evolution: each generation
draws a random archive member as parent, mutates λ offspring, and
inserts every *functional* offspring whose cost vector is not dominated
(minimization in all coordinates); dominated members are evicted.
Offspring are kernel mutants on their own RNG streams
(:func:`~repro.core.engine.child_seed`), scored incrementally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import SynthesisError
from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from .config import RcgpConfig
from .engine import child_seed
from .fitness import Evaluator, Fitness
from .kernel import NetlistKernel
from .mutation import consumer_view, mutate_with_delta

Cost = Tuple[int, int, int]  # (n_r, n_g, n_b), all minimized


def dominates(a: Cost, b: Cost) -> bool:
    """True iff ``a`` is at least as good everywhere and better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and a != b


@dataclass
class ParetoArchive:
    """A bounded archive of mutually non-dominated circuits."""

    capacity: int = 32
    entries: List[Tuple[Cost, RqfpNetlist]] = field(default_factory=list)

    def try_insert(self, cost: Cost, netlist: RqfpNetlist) -> bool:
        """Insert unless dominated; evict anything the newcomer dominates."""
        for existing_cost, _ in self.entries:
            if dominates(existing_cost, cost) or existing_cost == cost:
                return False
        self.entries = [(c, n) for c, n in self.entries
                        if not dominates(cost, c)]
        self.entries.append((cost, netlist))
        if len(self.entries) > self.capacity:
            # Evict the entry most crowded (here: worst gate count) to
            # keep the front spread cheaply.
            worst = max(range(len(self.entries)),
                        key=lambda i: self.entries[i][0])
            self.entries.pop(worst)
        return True

    def costs(self) -> List[Cost]:
        return sorted(c for c, _ in self.entries)

    def best_by(self, weights: Tuple[float, float, float]) -> \
            Tuple[Cost, RqfpNetlist]:
        """The archive member minimizing a weighted cost (e.g. JJ weights
        ``(24, 0, 4)``)."""
        if not self.entries:
            raise SynthesisError("empty Pareto archive")
        return min(self.entries,
                   key=lambda e: sum(w * c for w, c in zip(weights, e[0])))

    def __len__(self) -> int:
        return len(self.entries)


#: Only functional offspring enter the archive: a broken one stops at
#: its first wrong output.
_FLOOR = Fitness(1.0)


def evolve_pareto(initial: RqfpNetlist, spec: Sequence[TruthTable],
                  config: Optional[RcgpConfig] = None,
                  capacity: int = 32) -> ParetoArchive:
    """Multi-objective evolution; returns the non-dominated archive."""
    config = config or RcgpConfig()
    evaluator = Evaluator(spec, config)
    picks = random.Random(config.seed)
    base_seed = config.seed if config.seed is not None \
        else random.SystemRandom().getrandbits(48)

    archive = ParetoArchive(capacity=capacity)
    start = NetlistKernel.from_netlist(initial)
    first = evaluator.evaluate(start)
    if not first.functional:
        raise SynthesisError("initial netlist does not realize the spec")
    archive.try_insert((first.n_r, first.n_g, first.n_b),
                       evaluator.finalize(start))

    rng = random.Random()
    for generation in range(1, config.generations + 1):
        parent = NetlistKernel.from_netlist(picks.choice(archive.entries)[1])
        state = evaluator.prepare_parent(parent)
        consumers = consumer_view(parent)
        for i in range(config.offspring):
            rng.seed(child_seed(base_seed, generation, i))
            child, delta = mutate_with_delta(parent, rng, config,
                                             consumers=consumers,
                                             rollback=True)
            fitness = evaluator.evaluate_incremental(child, delta, state,
                                                     floor=_FLOOR)
            if fitness.functional:
                cost = (fitness.n_r, fitness.n_g, fitness.n_b)
                archive.try_insert(cost, evaluator.finalize(child))
    return archive
