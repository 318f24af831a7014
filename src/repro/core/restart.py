"""Long-run support: checkpointing and multi-start evolution.

The paper's 5·10⁷-generation runs take up to 43 hours per circuit;
infrastructure like this is what makes such runs operable:

* :func:`evolve_with_checkpoints` — wraps the evolution engine in
  budget slices, persisting the incumbent netlist (JSON), progress and
  the **full** run configuration after every slice so a killed run
  resumes where it stopped (and warns when resumed under a different
  configuration);
* :func:`multi_start` — independent restarts with different seeds,
  keeping the best result; the cheap, embarrassingly parallel way to
  spend extra cores on a stochastic optimizer.  Each start is one job
  on the :class:`repro.jobs.Scheduler`, so starts share one worker
  budget, duplicate seeds evaluate once, and a disk-backed store makes
  the whole portfolio resumable.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..io.rqfp_json import netlist_from_dict, netlist_to_dict
from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist
from .config import OPERATIONAL_CONFIG_FIELDS, RcgpConfig
from .engine import EvolutionResult, EvolutionRun, merge_slice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..jobs import JobStore

CHECKPOINT_FORMAT = "rcgp-checkpoint"
CHECKPOINT_VERSION = 2

#: Config fields a resume may change without a mismatch warning: the
#: operational ones, plus the run's budget (a bigger budget is the
#: usual reason to resume).
_RESUMABLE_FIELDS = OPERATIONAL_CONFIG_FIELDS | {
    "generations", "seed", "time_budget", "stagnation_limit"}


def checkpoint_payload(netlist: RqfpNetlist, generations_done: int,
                       config: RcgpConfig) -> Dict[str, Any]:
    """The checkpoint document: incumbent parent, progress and the full
    config.  Job-store checkpoints use it too, so both load with
    :func:`load_checkpoint`."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "generations_done": generations_done,
        "config": config.to_dict(),
        "netlist": netlist_to_dict(netlist),
    }


def save_checkpoint(path: str, netlist: RqfpNetlist,
                    generations_done: int, config: RcgpConfig) -> None:
    """Persist the incumbent parent, progress and the full config."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(checkpoint_payload(netlist, generations_done, config),
                  handle, indent=2)
    os.replace(tmp, path)


def load_checkpoint(path: str, with_config: bool = False) -> Union[
        Tuple[RqfpNetlist, int],
        Tuple[RqfpNetlist, int, Optional[Dict[str, Any]]]]:
    """Read a checkpoint back.

    Returns ``(incumbent netlist, generations already done)``; with
    ``with_config`` a third element carries the stored config
    dictionary (None for version-1 checkpoints, which recorded only a
    partial config).
    """
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not an RCGP checkpoint")
    version = payload.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    netlist = netlist_from_dict(payload["netlist"])
    done = int(payload["generations_done"])
    if not with_config:
        return netlist, done
    config = payload.get("config") if version >= 2 else None
    return netlist, done, config


def _warn_on_config_mismatch(path: str, stored: Optional[Dict[str, Any]],
                             config: RcgpConfig) -> None:
    """Warn when a resume changes search-relevant configuration."""
    if stored is None:
        warnings.warn(
            f"checkpoint {path} predates full-config checkpoints; cannot "
            "verify the resumed run matches the original configuration",
            RuntimeWarning, stacklevel=3)
        return
    current = config.to_dict()
    differing = sorted(
        name for name, value in current.items()
        if name not in _RESUMABLE_FIELDS and name in stored
        and stored[name] != value
    )
    if differing:
        details = ", ".join(
            f"{name}: {stored.get(name)!r} -> {current[name]!r}"
            for name in differing)
        warnings.warn(
            f"resuming {path} with a different configuration ({details}); "
            "the continued search will not match the original run",
            RuntimeWarning, stacklevel=3)
    # Search fields the live config has but an older checkpoint never
    # recorded: resume under the live configuration, but say so, since
    # the original run's behaviour for that knob is unknowable.
    missing = sorted(
        name for name in current
        if name not in _RESUMABLE_FIELDS and name not in stored)
    if missing:
        details = ", ".join(
            f"{name}={current[name]!r}" for name in missing)
        warnings.warn(
            f"checkpoint {path} was written by an older version and does "
            f"not record {', '.join(missing)}; resuming with the live "
            f"configuration ({details})",
            RuntimeWarning, stacklevel=3)


def evolve_with_checkpoints(spec: Sequence[TruthTable],
                            config: RcgpConfig,
                            checkpoint_path: str,
                            slice_generations: int = 1000,
                            initial: Optional[RqfpNetlist] = None,
                            name: str = "") -> EvolutionResult:
    """Run evolution in slices, checkpointing after each.

    If ``checkpoint_path`` exists, the run resumes from its incumbent
    and remaining budget (warning when the stored configuration differs
    in search-relevant fields); otherwise it starts from ``initial`` (or
    the standard initialization).  The checkpoint is updated atomically
    after every slice, so a kill loses at most one slice of work.
    Slices merge by :func:`~repro.core.engine.merge_slice`, so a resumed
    run reports absolute ``generations`` and ``history`` too.
    """
    spec = list(spec)
    done = 0
    if os.path.exists(checkpoint_path):
        incumbent, done, stored = load_checkpoint(checkpoint_path,
                                                  with_config=True)
        _warn_on_config_mismatch(checkpoint_path, stored, config)
    else:
        from .synthesis import initialize_netlist
        incumbent = initial if initial is not None \
            else initialize_netlist(spec, name)

    total: Optional[EvolutionResult] = None
    while done < config.generations:
        budget = min(slice_generations, config.generations - done)
        # Same seed every slice; the engine keys offspring RNG streams
        # by the absolute generation (offset + local), so the sliced
        # run follows the monolithic trajectory for any slice size.
        slice_config = config.replace(generations=budget)
        result = EvolutionRun(spec, slice_config, initial=incumbent,
                              name=name, generation_offset=done).run()
        total = merge_slice(total, result, done)
        incumbent = result.netlist
        done += result.generations
        save_checkpoint(checkpoint_path, incumbent, done, config)
        if result.generations < budget:
            break  # stagnation/time cut the slice short; stop cleanly
    if total is None:
        # Budget already exhausted by the checkpoint: evaluate incumbent.
        total = merge_slice(
            None, EvolutionRun(spec, config.replace(generations=0),
                               initial=incumbent, name=name).run(), done)
    return total


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
                    config.replace(seed=seed, workers=0,
                                   telemetry_path=None),
                    name=name)
                for seed in seeds]
        scheduler.run()
        keys = [job.result().evolution.fitness.key() for job in jobs]
        best_index = max(range(len(jobs)), key=lambda i: keys[i])
        best = jobs[best_index].result().netlist
    return best, keys
