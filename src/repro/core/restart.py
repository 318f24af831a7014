"""Multi-start evolution: independent restarts, keep the best.

:func:`multi_start` runs one job per seed on the
:class:`repro.jobs.Scheduler` — the cheap, embarrassingly parallel way
to spend extra cores on a stochastic optimizer.  Starts share one
worker budget, duplicate seeds evaluate once, and a disk-backed store
makes the whole portfolio resumable.  A single long run that must
survive process death is a store-backed scheduler job too:
``Session(store=..., quantum=...)``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from .config import RcgpConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..jobs import JobStore


def multi_start(spec: Sequence[TruthTable], seeds: Sequence[int],
                config: Optional[RcgpConfig] = None,
                parallel: bool = False,
                name: str = "",
                store: Optional["JobStore"] = None) \
        -> Tuple[RqfpNetlist, List[tuple]]:
    """Independent evolution restarts; returns (best netlist, all keys).

    A thin client of the :class:`repro.jobs.Scheduler`: each seed is one
    job.  With ``parallel`` the jobs share a worker pool sized to the
    machine; duplicate seeds map to the same job and are evaluated once.
    Passing a disk-backed ``store`` makes the whole portfolio resumable
    (and re-runs of finished seeds come straight from the store).
    """
    spec = list(spec)
    if not seeds:
        raise ValueError("need at least one seed")
    config = config or RcgpConfig(generations=2000, mutation_rate=0.08,
                                  max_mutated_genes=8, shrink="always")
    from ..jobs import Scheduler
    workers = min(len(set(seeds)), os.cpu_count() or 1) \
        if parallel and len(seeds) > 1 else 0
    with Scheduler(store, workers=workers) as scheduler:
        # Per-start overrides: each start gets its own seed and keeps
        # telemetry off — one sink cannot serve concurrent writers.
        jobs = [scheduler.submit(
                    spec,
                    config.replace(seed=seed, telemetry_path=None),
                    name=name)
                for seed in seeds]
        scheduler.run()
        keys = [job.result().evolution.fitness.key() for job in jobs]
        best_index = max(range(len(jobs)), key=lambda i: keys[i])
        best = jobs[best_index].result().netlist
    return best, keys
