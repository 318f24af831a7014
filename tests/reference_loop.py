"""A textbook ``(1 + λ)`` loop, the tests' independent reference.

:class:`repro.core.engine.EvolutionRun` runs the loop as replay spans on
flat kernels, with incremental evaluation, early stops and span
planning.  This loop has none of that: it works on
:class:`~repro.rqfp.netlist.RqfpNetlist` candidates, one generation at a
time, and evaluates every offspring in full — Algorithm 1 of the paper
as written.  The engine must land on the same final genome, fitness,
improvement history and evaluation count.
"""

import random

from repro.core.engine import child_seed, encode_genome
from repro.core.fitness import Evaluator
from repro.core.mutation import mutate_with_delta
from repro.rqfp.simplify import bypass_wire_gates


def textbook_run(spec, config, initial, trace=None):
    """Evolve ``initial`` toward ``spec`` under ``config``.

    Returns the signature the engine is pinned on: ``genome``,
    ``fitness`` (key), ``history`` (improvement generations and keys,
    starting with generation 0) and ``evaluations``.  Offspring ``i`` of
    generation ``g`` mutates with the RNG seeded by ``child_seed(seed,
    g, i)``; later offspring win ties; an offspring at least as good as
    the parent replaces it, shrunk per ``config.shrink``; a strict
    improvement also gets the wire-gate bypass.  ``trace``, a list,
    receives ``(evaluations, sat_calls)`` after every generation.
    """
    evaluator = Evaluator(spec, config, random.Random(config.seed))
    parent = initial.copy()
    parent_fitness = evaluator.evaluate(parent)
    history = [(0, parent_fitness.key())]
    for generation in range(1, config.generations + 1):
        children = [
            mutate_with_delta(parent, random.Random(
                child_seed(config.seed, generation, i)), config)[0]
            for i in range(config.offspring)]
        fits = [evaluator.evaluate(child) for child in children]
        best = 0
        for i in range(1, len(children)):
            if fits[i].key() >= fits[best].key():
                best = i
        if fits[best].key() >= parent_fitness.key():
            improved = fits[best].key() > parent_fitness.key()
            parent, parent_fitness = children[best], fits[best]
            if config.shrink == "always" or (
                    config.shrink == "on_improvement" and improved):
                parent = parent.shrink()
            if improved:
                if config.simplify_wires:
                    simplified = bypass_wire_gates(parent)
                    if simplified.num_gates < parent.num_gates:
                        parent = simplified
                        parent_fitness = evaluator.evaluate(parent)
                history.append((generation, parent_fitness.key()))
        if trace is not None:
            trace.append((evaluator.evaluations, evaluator.sat_calls))
    final = evaluator.finalize(parent)
    final_fitness = evaluator.evaluate(final)
    return {
        "genome": encode_genome(final),
        "fitness": final_fitness.key(),
        "history": history,
        "evaluations": evaluator.evaluations,
    }


def engine_signature(result):
    """The same signature, read off an :class:`EvolutionResult`."""
    return {
        "genome": encode_genome(result.netlist),
        "fitness": result.fitness.key(),
        "history": [(g, fit.key()) for g, fit in result.history],
        "evaluations": result.evaluations,
    }
