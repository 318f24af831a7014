"""The multi-job synthesis scheduler.

Many independent synthesis jobs — a multi-start portfolio, a Table-1/2
benchmark sweep, a ``rcgp batch`` invocation — share one machine.  The
:class:`Scheduler` runs them against a single global worker budget and
a persistent :class:`~repro.jobs.store.JobStore`:

* **Fair-share interleaving.**  Each live job advances one *slice* (at
  most ``quantum`` generations) per scheduler tick, round-robin, so no
  job starves and every job's replay spans flow through the same
  :class:`~repro.cluster.backend.ClusterDispatch` instead of spawning a
  pool per job.  Slices keep the job's own seed and pass the engine a
  ``generation_offset`` so offspring RNG streams are keyed by the
  *absolute* generation — exactly the
  :func:`repro.core.restart.evolve_with_checkpoints` contract.  A
  job's trajectory is therefore a function of its own spec, config and
  seed alone: results are bit-identical whether the job runs alone,
  interleaved with any number of others, or under any slice quantum
  (including ``quantum=None``, one monolithic run).
* **Persistence & resume.**  After every slice the incumbent is
  checkpointed to the store (atomically).  A killed process loses at
  most one slice; a new scheduler over the same store re-runs that
  slice deterministically and converges to the identical final result.
* **Store-served results.**  A completed job's artifact is written once
  and re-submitting the same :class:`~repro.jobs.spec.JobSpec` (same
  spec hash) returns it without any re-evaluation.
* **Fault tolerance.**  Worker crashes and hangs inside a slice are
  recovered by the dispatcher's span retry loop; a slice out of retries
  finishes inline and the next slice tries the workers again.  Recovery
  counters are accumulated per job in the store.
* **Per-job leases.**  A scheduler acquires the store's lease for a job
  before adopting it and heartbeats it every slice, so N processes
  pointed at one store directory split the queue instead of all
  running every job: jobs leased by another live scheduler are skipped
  (and waited on in :meth:`Scheduler.run`), stale leases — owner dead
  or heartbeat older than the store's TTL — are taken over, and a
  scheduler that discovers its own lease was lost abandons the slice
  without writing, so two processes never clobber one job's artifacts.

``quantum=None`` (the default) runs each job's whole remaining budget
in a single slice — no mid-job checkpoint granularity, but byte-for-byte
the legacy single-run semantics, which is what the one-shot
:func:`repro.api.synthesize` facade uses.
"""

from __future__ import annotations

import random as _random
import time
from typing import Dict, List, Optional, Sequence

from ..core.config import RcgpConfig
from ..core.engine import (COUNTER_FIELDS, EvolutionResult, EvolutionRun,
                           TelemetryWriter, merge_slice)
from ..core.fitness import Fitness
from ..core.synthesis import (BaselineResult, SynthesisResult,
                              baseline_initialization)
from ..errors import ReproError, StoreCorruption
from ..logic.truth_table import TruthTable
from ..rqfp.buffer_opt import optimal_levels
from ..rqfp.metrics import CircuitCost, circuit_cost
from ..rqfp.netlist import RqfpNetlist
from ..io.rqfp_json import netlist_from_dict, netlist_to_dict
from ..cluster.backend import ClusterDispatch
from .pool import JobBackend, parallel_safe_config
from .spec import (JobSpec, spec_tables_from_payload,
                   spec_tables_to_payload)
from .store import DONE, FAILED, JobStore, PENDING, RUNNING


def _fitness_fields(fitness: Fitness) -> List[float]:
    return [fitness.success, fitness.n_r, fitness.n_g, fitness.n_b]


def _cost_fields(cost: CircuitCost) -> Dict[str, float]:
    return {"n_r": cost.n_r, "n_b": cost.n_b, "n_d": cost.n_d,
            "n_g": cost.n_g, "runtime": cost.runtime}


def result_from_payload(payload: Dict[str, object]) -> SynthesisResult:
    """Rebuild a :class:`SynthesisResult` from a stored job artifact.

    Netlists and scalar statistics are stored verbatim; buffer plans
    are recomputed (``optimal_levels`` is deterministic), and the
    improvement ``history`` is not persisted.
    """
    netlist = netlist_from_dict(payload["netlist"])
    plan = optimal_levels(netlist)
    baseline_net = netlist_from_dict(payload["baseline"]["netlist"])
    baseline = BaselineResult(
        baseline_net, optimal_levels(baseline_net),
        CircuitCost(**payload["baseline"]["cost"]))
    evolution = EvolutionResult(
        netlist=netlist,
        fitness=Fitness(*payload["fitness"]),
        initial_fitness=Fitness(*payload["initial_fitness"]),
        generations=int(payload["generations"]),
        evaluations=int(payload["evaluations"]),
        runtime=float(payload["runtime"]),
        sat_calls=int(payload["sat_calls"]),
        cache_hits=int(payload["cache_hits"]),
        backend=str(payload["backend"]),
        eval_full=int(payload["eval_full"]),
        eval_incremental=int(payload["eval_incremental"]),
        ports_resimulated=int(payload["ports_resimulated"]),
        worker_restarts=int(payload["worker_restarts"]),
        batches_retried=int(payload["batches_retried"]),
        # Transport counters postdate the store schema; absent in
        # artifacts written by older sessions.
        bytes_shipped=int(payload.get("bytes_shipped", 0)),
        chunks_dispatched=int(payload.get("chunks_dispatched", 0)),
        pipeline_stalls=int(payload.get("pipeline_stalls", 0)),
        degraded_to_inline=bool(payload["degraded_to_inline"]),
        verified=bool(payload.get("verified", False)),
    )
    return SynthesisResult(
        netlist=netlist,
        plan=plan,
        cost=CircuitCost(**payload["cost"]),
        initial=baseline,
        evolution=evolution,
        spec=spec_tables_from_payload(payload["spec"]),
    )


class Job:
    """Handle to one scheduled job (live or served from the store)."""

    def __init__(self, scheduler: "Scheduler", spec: JobSpec):
        self._scheduler = scheduler
        self.spec = spec
        self.id = spec.job_id
        self.name = spec.name
        self._live_result: Optional[SynthesisResult] = None
        # This process's slices, merged (merge_slice) with what the
        # store drops (history, interrupt flag); only trusted when
        # every slice ran here (no foreign checkpoint).
        self._live_evolution: Optional[EvolutionResult] = None
        self._live_ok = True
        # The baseline (with its buffer plan) when this process started
        # the job; the live result reuses it instead of re-solving the
        # plan's LP.
        self._baseline: Optional[BaselineResult] = None

    @property
    def record(self) -> Dict[str, object]:
        try:
            return self._scheduler.store.load_record(self.id) or {}
        except StoreCorruption as exc:
            # Self-healing read: quarantine the torn record and report
            # the job pending — the next tick rebuilds it from scratch
            # (or from its surviving checkpoint) instead of the
            # corruption killing whoever polled the state.
            if exc.path:
                self._scheduler.store.quarantine(exc.path)
            return {}

    @property
    def state(self) -> str:
        return str(self.record.get("state", PENDING))

    @property
    def generations_done(self) -> int:
        try:
            checkpoint = self._scheduler.store.load_checkpoint(self.id)
        except StoreCorruption as exc:
            if exc.path:
                self._scheduler.store.quarantine(exc.path)
            return 0
        return 0 if checkpoint is None else checkpoint[1]

    @property
    def from_store(self) -> bool:
        """Whether this job was already complete when submitted."""
        return self._live_result is None and self.state == DONE

    def result(self) -> SynthesisResult:
        """The finished artifact; raises if the job is not done."""
        if self._live_result is not None:
            return self._live_result
        record = self.record
        state = record.get("state", PENDING)
        if state == FAILED:
            raise ReproError(
                f"job {self.name or self.id} failed: {record.get('error')}")
        payload = self._scheduler.store.load_result(self.id)
        if payload is None:
            raise ReproError(
                f"job {self.name or self.id} is not finished "
                f"(state={state!r}); run the scheduler first")
        return result_from_payload(payload)


class Scheduler:
    """Round-robin multi-job scheduler over one shared worker budget.

    Parameters
    ----------
    store:
        The persistent artifact store; ``None`` uses an in-memory store
        (no resume across processes, results still served within the
        session).
    workers:
        Global offspring-evaluation budget shared by *all* jobs.  ``0``
        or ``1`` evaluates inline; ``N > 1`` routes every parallel-safe
        job's replay spans through one
        :class:`~repro.cluster.backend.ClusterDispatch` over ``N`` local
        pipe workers (backend label ``shared-pool``).
    quantum:
        Generations per job per tick.  ``None`` runs each job's whole
        remaining budget in one slice (legacy single-run semantics);
        a finite quantum buys mid-job checkpoints and fair-share
        interleaving at slice granularity.
    fleet:
        An optional started :class:`~repro.cluster.fleet.ClusterFleet`.
        When attached, the same dispatcher mixes the fleet's remote
        workers with ``workers`` local pipe workers (backend label
        ``cluster``; bit-identical to both the local pool and the
        serial loop).  The fleet's lifecycle belongs to the caller.
    """

    def __init__(self, store: Optional[JobStore] = None, *,
                 workers: int = 0, quantum: Optional[int] = None,
                 fleet=None):
        if quantum is not None and quantum < 1:
            raise ValueError("quantum must be >= 1 (or None)")
        self.store = store if store is not None else JobStore(None)
        self.workers = workers
        self.quantum = quantum
        self.fleet = fleet
        self._jobs: Dict[str, Job] = {}
        self._dispatch: Optional[ClusterDispatch] = None  # lazy
        self._rr_next = 0  # round-robin cursor for step()
        self._blocked: List[str] = []  # foreign-leased, last step()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.store.release_all_leases()
        if self._dispatch is not None:
            self._dispatch.close()
            self._dispatch = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _dispatcher(self) -> ClusterDispatch:
        if self._dispatch is None:
            self._dispatch = ClusterDispatch(
                self.fleet,
                local_workers=self.workers if self.workers > 1 else 0)
        return self._dispatch

    # -- submission ----------------------------------------------------

    def submit(self, spec: Sequence[TruthTable],
               config: Optional[RcgpConfig] = None, *,
               name: str = "",
               initial: Optional[RqfpNetlist] = None) -> Job:
        """Register one job; completed work is recognized immediately.

        A ``config.seed`` of ``None`` is replaced by fresh OS entropy
        (recorded in the store) so the job stays resumable.
        """
        config = config or RcgpConfig()
        if config.seed is None:
            config = config.replace(
                seed=_random.SystemRandom().getrandbits(48))
        jobspec = JobSpec(tuple(spec), config, name=name, initial=initial)
        job_id = jobspec.job_id
        existing = self._jobs.get(job_id)
        if existing is not None:
            return existing
        job = Job(self, jobspec)
        try:
            record = self.store.load_record(job_id)
        except StoreCorruption as exc:
            if exc.path:
                self.store.quarantine(exc.path)
            record = None
        if record is None or record.get("state") not in (DONE, FAILED,
                                                         RUNNING):
            record = self._fresh_record(jobspec)
            self.store.save_record(job_id, record)
        elif record.get("state") == FAILED:
            # A failed job is retried from its last checkpoint.
            record["state"] = RUNNING if self.store.load_checkpoint(job_id) \
                else PENDING
            record["error"] = None
            self.store.save_record(job_id, record)
        self._jobs[job_id] = job
        return job

    def _fresh_record(self, jobspec: JobSpec) -> Dict[str, object]:
        record: Dict[str, object] = {
            "job_id": jobspec.job_id,
            "name": jobspec.name,
            "state": PENDING,
            "seed": jobspec.config.seed,
            "spec": spec_tables_to_payload(jobspec.spec),
            "config": jobspec.config.to_dict(),
            "error": None,
            "owner": None,
            "slices": 0,
            "runtime": 0.0,
            "backend": "inline",
            "degraded": False,
            "submitted_at": time.time(),
        }
        for field in COUNTER_FIELDS:
            record[field] = 0
        return record

    # -- the scheduling loop -------------------------------------------

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def pending(self) -> List[Job]:
        return [job for job in self._jobs.values()
                if job.state in (PENDING, RUNNING)]

    def blocked_on(self) -> List[str]:
        """Job ids the last :meth:`step` skipped because another live
        scheduler holds their lease."""
        return list(self._blocked)

    def step(self) -> Optional[Job]:
        """Advance the next adoptable pending job by one slice.

        Round-robin over the pending jobs, skipping any whose lease is
        held by another live scheduler (their ids land in
        :meth:`blocked_on`; they will be retried — and adopted, once
        the foreign lease is released or goes stale — on a later call).
        Returns the job that was ticked, or ``None`` when every
        submitted job is done, failed or leased elsewhere.  This is the
        unit the HTTP service's scheduling loop runs between checking
        for new submissions and a shutdown request — a finished slice
        is always checkpointed, so stopping between ``step()`` calls
        never loses work.
        """
        runnable = self.pending()
        self._blocked = []
        if not runnable:
            return None
        for offset in range(len(runnable)):
            job = runnable[(self._rr_next + offset) % len(runnable)]
            if self.store.acquire_lease(job.id):
                if job.state not in (PENDING, RUNNING):
                    # Another scheduler finished it after pending() read
                    # its record and released the lease since: nothing
                    # is left to run, and re-driving would re-finalize.
                    self.store.release_lease(job.id)
                    continue
                self._rr_next += offset + 1
                self._tick(job)
                return job
            self._blocked.append(job.id)
        return None

    def run(self, *, max_ticks: Optional[int] = None,
            lease_poll: float = 0.2) -> List[Job]:
        """Drive all submitted jobs to completion, round-robin.

        ``max_ticks`` bounds the number of slices executed (testing /
        kill-and-resume hooks); the default runs until every job is
        done or failed.  Jobs leased by another live scheduler are
        waited on (polling every ``lease_poll`` seconds): they either
        finish there — we then serve their stored result — or their
        lease goes stale and we adopt them.  With ``max_ticks`` set
        there is no waiting; foreign-leased jobs simply don't consume
        ticks.
        """
        ticks = 0
        while max_ticks is None or ticks < max_ticks:
            if self.step() is not None:
                ticks += 1
                continue
            if self._blocked and max_ticks is None:
                time.sleep(lease_poll)
                continue
            break
        return self.jobs()

    def results(self) -> Dict[str, SynthesisResult]:
        """``job_id -> SynthesisResult`` for every finished job."""
        return {job.id: job.result() for job in self._jobs.values()
                if job.state == DONE}

    # -- one slice -----------------------------------------------------

    def _tick(self, job: Job) -> None:
        config = job.spec.config
        spec = list(job.spec.spec)
        telemetry = None
        try:
            # Fresh corruption (after the store's open-time recovery
            # sweep — operator edits, shared-filesystem faults) is
            # quarantined here so one torn artifact costs at most this
            # job's progress, never the scheduling loop.
            try:
                record = self.store.load_record(job.id)
            except StoreCorruption as exc:
                if exc.path:
                    self.store.quarantine(exc.path)
                record = None
            if record is None:
                record = self._fresh_record(job.spec)
            try:
                checkpoint = self.store.load_checkpoint(job.id)
            except StoreCorruption as exc:
                # A torn checkpoint is recoverable: quarantine it and
                # deterministically re-run from the baseline.
                if exc.path:
                    self.store.quarantine(exc.path)
                checkpoint = None
            resuming = checkpoint is not None \
                and job._live_evolution is None
            if checkpoint is not None:
                incumbent, done = checkpoint
            else:
                incumbent, done = self._start_job(job, record), 0
            if done > 0 and job._live_evolution is None:
                # Resumed from another process's checkpoint: the live
                # merge would miss earlier slices, so the finished job
                # serves its result from the store instead.
                job._live_ok = False
            record["owner"] = self.store.owner
            telemetry = self._telemetry_for(job, fresh=checkpoint is None)
            if telemetry is not None:
                if checkpoint is None:
                    telemetry.emit("job_start", name=job.name,
                                   seed=config.seed,
                                   generations=config.generations,
                                   quantum=self.quantum,
                                   workers=self.workers,
                                   owner=self.store.owner)
                elif resuming:
                    telemetry.emit("job_resume", generations_done=done,
                                   generations=config.generations,
                                   owner=self.store.owner)

            remaining = config.generations - done
            budget = remaining if self.quantum is None \
                else min(self.quantum, remaining)
            slice_config = config.replace(
                generations=budget,
                workers=0, telemetry_path=None)
            backend = None
            pooled = self.workers > 1 or (
                self.fleet is not None and self.fleet.live_count() > 0)
            if pooled and budget > 0 and \
                    parallel_safe_config(spec[0].num_vars, slice_config):
                # Keyed by the bare job id: slices share one seed and
                # pattern set now, so workers keep their evaluator (and
                # resident decoded parent) warm across slice boundaries.
                ctx = (job.id,
                       tuple(t.bits for t in spec), spec[0].num_vars,
                       slice_config.to_dict())
                backend = JobBackend(
                    self._dispatcher(), ctx, slice_config,
                    name="cluster" if self.fleet is not None
                    else "shared-pool")
            result = EvolutionRun(spec, slice_config, initial=incumbent,
                                  name=job.name, telemetry=telemetry,
                                  backend=backend, generation_offset=done
                                  ).run()
            if not self.store.refresh_lease(job.id):
                # Our lease is gone: this process stalled past the TTL
                # and another scheduler adopted the job.  Its
                # deterministic re-run supersedes ours — write nothing,
                # the finished result is served from the store later.
                job._live_ok = False
                if telemetry is not None:
                    telemetry.emit("lease_lost", owner=self.store.owner,
                                   generations_done=done)
                return
            job._live_evolution = merge_slice(job._live_evolution, result,
                                              done)
            done += result.generations
            self.store.save_checkpoint(job.id, result.netlist, done, config)
            self._accumulate(record, result, done)
            finished = done >= config.generations \
                or result.generations < budget or result.interrupted
            if telemetry is not None:
                # Worker identity for cluster slices: which remote
                # workers served frames, and how many replay spans ran
                # off-host.
                extras: Dict[str, object] = {}
                if backend is not None and backend.name == "cluster":
                    extras["cluster_workers"] = sorted(
                        backend.cluster_workers)
                    extras["spans_remote"] = backend.spans_remote
                telemetry.emit("job_slice", slice=record["slices"],
                               generations_done=done,
                               budget=budget, backend=result.backend,
                               owner=self.store.owner,
                               best_key=list(result.fitness.key()),
                               **extras)
            if finished:
                self._finalize(job, record, result, done, telemetry)
                self.store.release_lease(job.id)
            else:
                record["state"] = RUNNING
                self.store.save_record(job.id, record)
        except ReproError as exc:
            record["state"] = FAILED
            record["error"] = str(exc)
            self.store.save_record(job.id, record)
            self.store.release_lease(job.id)
            if telemetry is not None:
                telemetry.emit("job_failed", error=str(exc))
        finally:
            if telemetry is not None:
                telemetry.close()

    def _start_job(self, job: Job, record: Dict[str, object]) \
            -> RqfpNetlist:
        """First slice: produce and persist the initialization baseline."""
        spec = list(job.spec.spec)
        if job.spec.initial is not None:
            incumbent = job.spec.initial
            plan = optimal_levels(incumbent)
            baseline = BaselineResult(incumbent, plan,
                                      circuit_cost(incumbent, plan))
        else:
            baseline = baseline_initialization(spec, job.name)
            incumbent = baseline.netlist
        self.store.save_baseline(job.id, {
            "netlist": netlist_to_dict(baseline.netlist),
            "cost": _cost_fields(baseline.cost),
        })
        job._baseline = baseline
        return incumbent

    def _accumulate(self, record: Dict[str, object],
                    result: EvolutionResult, done: int) -> None:
        for field in COUNTER_FIELDS:
            record[field] = int(record.get(field, 0)) + \
                getattr(result, field)
        record["runtime"] = float(record.get("runtime", 0.0)) + \
            result.runtime
        record["slices"] = int(record.get("slices", 0)) + 1
        record["backend"] = result.backend
        record["degraded"] = bool(record.get("degraded")) or \
            result.degraded_to_inline
        record["generations_done"] = done
        record["fitness"] = _fitness_fields(result.fitness)
        if "initial_fitness" not in record:
            record["initial_fitness"] = \
                _fitness_fields(result.initial_fitness)

    def _finalize(self, job: Job, record: Dict[str, object],
                  result: EvolutionResult, done: int,
                  telemetry: Optional[TelemetryWriter]) -> None:
        final = result.netlist
        plan = optimal_levels(final)
        cost = circuit_cost(final, plan,
                            runtime=float(record.get("runtime", 0.0)))
        baseline = self.store.load_baseline(job.id) or {
            "netlist": netlist_to_dict(final), "cost": _cost_fields(cost)}
        payload: Dict[str, object] = {
            "job_id": job.id,
            "name": job.name,
            "netlist": netlist_to_dict(final),
            "baseline": baseline,
            "cost": _cost_fields(cost),
            "fitness": record["fitness"],
            "initial_fitness": record["initial_fitness"],
            "generations": done,
            "spec": record.get("spec") or
            spec_tables_to_payload(job.spec.spec),
            "runtime": record["runtime"],
            "backend": record["backend"],
            "degraded_to_inline": record["degraded"],
            "verified": result.verified,
        }
        for field in COUNTER_FIELDS:
            payload[field] = record[field]
        self.store.save_result(job.id, payload)
        live = job._live_evolution if job._live_ok else None
        record["state"] = DONE
        self.store.save_record(job.id, record)
        if telemetry is not None:
            telemetry.emit("job_end", generations=done,
                           cost=cost.as_row(),
                           fitness_key=list(Fitness(*record["fitness"])
                                            .key()))
        if live is not None:
            initial = job._baseline
            if initial is None:
                # Started by another process: only its stored baseline
                # is here, so the plan is solved again.
                baseline_net = netlist_from_dict(baseline["netlist"])
                initial = BaselineResult(baseline_net,
                                         optimal_levels(baseline_net),
                                         CircuitCost(**baseline["cost"]))
            job._live_result = SynthesisResult(
                netlist=final,
                plan=plan,
                cost=cost,
                initial=initial,
                evolution=live,
                spec=list(job.spec.spec),
            )

    def _telemetry_for(self, job: Job,
                       fresh: bool) -> Optional[TelemetryWriter]:
        store_path = self.store.telemetry_path(job.id)
        if store_path is not None:
            # Store-backed streams are rotated atomically (a fresh run
            # never leaves a torn truncation) and repaired before
            # appending (a tail torn by a crash mid-append is replaced
            # with a `telemetry_truncated` marker), so the file on disk
            # is valid JSONL at every instant a writer owns it.
            if fresh:
                self.store.rotate_telemetry(job.id)
            else:
                self.store.repair_telemetry(job.id)
            return TelemetryWriter(store_path, mode="a", job_id=job.id)
        path = job.spec.config.telemetry_path
        if path is None:
            return None
        return TelemetryWriter(path, mode="w" if fresh else "a",
                               job_id=job.id)
