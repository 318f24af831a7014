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
  *absolute* generation.  A job's trajectory is therefore a function
  of its own spec, config and seed alone: results are bit-identical
  whether the job runs alone, interleaved with any number of others,
  or under any slice quantum (including ``quantum=None``, one
  monolithic run).
* **Persistence & resume.**  After every slice the live parent, its
  generations since the last improvement and the job's merged history
  and counters are checkpointed to the store (atomically, in one
  document), so the next slice continues exactly where a monolithic
  run would be — shrink policy and stagnation limit included.  A
  killed process loses at most one slice; a new scheduler over the
  same store re-runs that slice deterministically and converges to
  the identical final result, history and counters included.  This is
  the only sliced, resumable run: ``Session(store=..., quantum=...)``.
* **One result path.**  A completed job's artifact (netlists with
  their buffer plans, costs, ``history``, counters) is written once;
  every :meth:`Job.result` rebuilds it from the store, and
  re-submitting the same :class:`~repro.jobs.spec.JobSpec` (same spec
  hash) returns it without any re-evaluation.
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

import os
import random as _random
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import RcgpConfig
from ..core.engine import (COUNTER_FIELDS, EvolutionResult, EvolutionRun,
                           TelemetryWriter, merge_slice, slice_stopped,
                           time_left)
from ..core.fitness import Fitness
from ..core.synthesis import (BaselineResult, SynthesisResult,
                              baseline_initialization)
from .. import errors
from ..errors import ReproError, StoreCorruption
from ..logic.truth_table import TruthTable
from ..rqfp.buffer_opt import optimal_levels
from ..rqfp.buffers import BufferPlan, plan_for_levels
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


#: Where the job record's names differ from ``result.json``'s.
_RECORD_NAMES = {"generations": "generations_done",
                 "degraded_to_inline": "degraded"}


def _evolution_fields(evolution: EvolutionResult,
                      names: Optional[Dict[str, str]] = None) \
        -> Dict[str, object]:
    """A job's merged :class:`EvolutionResult` as the JSON fields its
    record and ``result.json`` hold; only the result adds ``verified``."""
    fields: Dict[str, object] = {
        "fitness": _fitness_fields(evolution.fitness),
        "initial_fitness": _fitness_fields(evolution.initial_fitness),
        "generations": evolution.generations,
        "history": [[generation, _fitness_fields(fitness)]
                    for generation, fitness in evolution.history],
        "runtime": evolution.runtime,
        "backend": evolution.backend,
        "degraded_to_inline": evolution.degraded_to_inline,
        "interrupted": evolution.interrupted,
    }
    for field in COUNTER_FIELDS:
        fields[field] = getattr(evolution, field)
    names = names or {}
    return {names.get(key, key): value for key, value in fields.items()}


def _evolution_from_fields(data: Dict[str, object], netlist: RqfpNetlist,
                           names: Optional[Dict[str, str]] = None) \
        -> EvolutionResult:
    """Inverse of :func:`_evolution_fields`.  A field that artifacts
    written by older versions lack (transport counters, ``history``,
    ``interrupted``, ``verified``) reads as its default."""
    names = names or {}

    def get(key: str, default: object = None) -> object:
        return data.get(names.get(key, key), default)

    return EvolutionResult(
        netlist=netlist,
        fitness=Fitness(*get("fitness")),
        initial_fitness=Fitness(*get("initial_fitness")),
        generations=int(get("generations")),
        runtime=float(get("runtime")),
        history=[(int(generation), Fitness(*fitness))
                 for generation, fitness in get("history", [])],
        backend=str(get("backend")),
        degraded_to_inline=bool(get("degraded_to_inline")),
        interrupted=bool(get("interrupted", False)),
        verified=bool(get("verified", False)),
        **{field: int(get(field, 0)) for field in COUNTER_FIELDS})


def _netlist_and_plan(data: Dict[str, object], cost: CircuitCost) \
        -> Tuple[RqfpNetlist, BufferPlan]:
    """A stored netlist with its stored buffer plan, checked against the
    stored cost (artifacts written before plans were stored: solved)."""
    netlist = netlist_from_dict(data)
    stored = data.get("buffer_plan")
    if stored is None:
        return netlist, optimal_levels(netlist)
    levels, depth = list(stored["levels"]), stored["depth"]
    try:
        plan = plan_for_levels(netlist, levels, depth)
    except (ValueError, IndexError):  # a negative span, a missing level
        plan = None
    if plan is None or (netlist.num_gates, len(levels), depth,
                        stored["num_buffers"], plan.num_buffers) != \
            (cost.n_r, cost.n_r, cost.n_d, cost.n_b, cost.n_b):
        raise StoreCorruption(f"stored buffer plan of {netlist.name!r} "
                              f"does not match its cost {cost}")
    return netlist, plan


def result_from_payload(payload: Dict[str, object]) -> SynthesisResult:
    """Rebuild a :class:`SynthesisResult` from a stored job artifact —
    the only way a job's result is read, in-process and over HTTP.

    Netlists, buffer plans, ``history`` and statistics are stored
    verbatim.  A stored plan that disagrees with its stored cost raises
    :class:`~repro.errors.StoreCorruption`.
    """
    cost = CircuitCost(**payload["cost"])
    netlist, plan = _netlist_and_plan(payload["netlist"], cost)
    baseline_cost = CircuitCost(**payload["baseline"]["cost"])
    baseline = BaselineResult(
        *_netlist_and_plan(payload["baseline"]["netlist"], baseline_cost),
        baseline_cost)
    return SynthesisResult(
        netlist=netlist,
        plan=plan,
        cost=cost,
        initial=baseline,
        evolution=_evolution_from_fields(payload, netlist),
        spec=spec_tables_from_payload(payload["spec"]),
    )


class Job:
    """Handle to one scheduled job.

    A job reads its state and its result from the store and holds no
    reference to its scheduler, so nothing but the caller keeps a
    result alive."""

    def __init__(self, store: JobStore, spec: JobSpec):
        self._store = store
        self.spec = spec
        self.id = spec.job_id
        self.name = spec.name
        #: Whether the job was already complete when submitted.
        self.from_store = False

    @property
    def record(self) -> Dict[str, object]:
        try:
            return self._store.load_record(self.id) or {}
        except StoreCorruption as exc:
            # Self-healing read: quarantine the torn record and report
            # the job pending — the next tick rebuilds it from scratch
            # (or from its surviving checkpoint) instead of the
            # corruption killing whoever polled the state.
            if exc.path:
                self._store.quarantine(exc.path)
            return {}

    @property
    def state(self) -> str:
        return str(self.record.get("state", PENDING))

    @property
    def generations_done(self) -> int:
        try:
            checkpoint = self._store.load_checkpoint(self.id)
        except StoreCorruption as exc:
            if exc.path:
                self._store.quarantine(exc.path)
            return 0
        return 0 if checkpoint is None else checkpoint[1]

    def result(self) -> SynthesisResult:
        """The finished artifact, rebuilt from the store; raises if the
        job is not done.  A failed job raises the :mod:`repro.errors`
        class its record names (``error_type``), else :class:`ReproError`."""
        record = self.record
        state = record.get("state", PENDING)
        if state == FAILED:
            error = getattr(errors, str(record.get("error_type")), None)
            if not (isinstance(error, type) and issubclass(error, ReproError)):
                error = ReproError
            raise error(
                f"job {self.name or self.id} failed: {record.get('error')}")
        payload = self._store.load_result(self.id)
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
        Upper bound on the worker processes shared by *all* jobs — the
        only place (with :class:`~repro.api.Session`) that starts
        them.  ``0`` or ``1`` evaluates inline; ``N > 1`` routes every
        parallel-safe job's replay spans through one
        :class:`~repro.cluster.backend.ClusterDispatch` that starts up
        to ``N`` local pipe workers as spans need them (backend label
        ``shared-pool``); each slice leases its channel through its own
        :class:`~repro.jobs.pool.JobBackend` handle.  One span is in
        flight at a time, so one worker runs today; a failed worker is
        replaced alone.
    quantum:
        Generations per job per tick.  ``None`` runs each job's whole
        remaining budget in one slice (legacy single-run semantics);
        a finite quantum buys mid-job checkpoints and fair-share
        interleaving at slice granularity.
    fleet:
        An optional started :class:`~repro.cluster.fleet.ClusterFleet`.
        When attached, the same dispatcher mixes the fleet's remote
        workers with up to ``workers`` local pipe workers (backend label
        ``cluster``; bit-identical to both local workers and the
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
        # The jobs still to run: one leaves once a read shows it done or
        # failed, and a failed one submitted again comes back (_retry).
        self._open: Dict[str, Job] = {}
        self._dispatch: Optional[ClusterDispatch] = None  # lazy
        self._rr_next = 0  # round-robin cursor for step()
        self._blocked: List[str] = []  # foreign-leased, last step()
        # config.telemetry_path files this scheduler has written: jobs
        # that share one append to it instead of truncating each other.
        self._telemetry_written: Set[str] = set()

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
        (recorded in the store) so the job stays resumable.  A failed
        job, submitted again, resumes from its last checkpoint.
        """
        config = config or RcgpConfig()
        if config.seed is None:
            config = config.replace(
                seed=_random.SystemRandom().getrandbits(48))
        jobspec = JobSpec(tuple(spec), config, name=name, initial=initial)
        job_id = jobspec.job_id
        existing = self._jobs.get(job_id)
        if existing is not None:
            record = existing.record
            if record.get("state") == FAILED:
                self._retry(existing, record)
            return existing
        job = Job(self.store, jobspec)
        try:
            record = self.store.load_record(job_id)
        except StoreCorruption as exc:
            if exc.path:
                self.store.quarantine(exc.path)
            record = None
        state = None if record is None else record.get("state")
        if state == DONE:
            job.from_store = True
        elif state == FAILED:
            self._retry(job, record)
        else:
            if state != RUNNING:
                self.store.save_record(job_id, self._fresh_record(jobspec))
            self._open[job_id] = job
        self._jobs[job_id] = job
        return job

    def _retry(self, job: Job, record: Dict[str, object]) -> None:
        """Reopen a failed job at its last checkpoint (or baseline)."""
        record["state"] = RUNNING if self.store.load_checkpoint(job.id) \
            else PENDING
        record["error"] = None
        record.pop("error_type", None)
        self.store.save_record(job.id, record)
        self._open[job.id] = job

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
        """The submitted jobs still to run.  Reads the state of each job
        not yet seen done or failed, and forgets the ones that are."""
        for job in list(self._open.values()):
            if job.state not in (PENDING, RUNNING):
                del self._open[job.id]
        return list(self._open.values())

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
                    self._open.pop(job.id, None)
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
            # The merged record fields of the slices the checkpoint
            # covers (None: no slice yet).  The record may lag it by a
            # slice (a crash between the two writes) or lead a
            # quarantined one; only older checkpoints lack them.
            if checkpoint is not None:
                incumbent, done, stagnation, totals = checkpoint
                if totals is None and record.get("slices"):
                    totals = record
            else:
                incumbent, done, stagnation = self._start_job(job), 0, 0
                totals = None
            # The last slice was another scheduler's (or an earlier
            # process's): this one resumes the job.
            resuming = checkpoint is not None and \
                record.get("owner") != self.store.owner
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
            # The result gate runs once, when the job finishes, on the
            # plan the result reports (_finalize), not on every slice.
            # A time budget is the job's: each slice gets what earlier
            # slices (their runtime, kept across restarts) left.
            slice_config = config.replace(
                generations=budget, telemetry_path=None,
                verify_result=False,
                time_budget=time_left(
                    config, float((totals or {}).get("runtime", 0.0))))
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
            try:
                result = EvolutionRun(
                    spec, slice_config, initial=incumbent, name=job.name,
                    telemetry=telemetry, backend=backend,
                    generation_offset=done, stagnation=stagnation).run()
            finally:
                if backend is not None:
                    backend.close()
            if not self.store.refresh_lease(job.id):
                # Our lease is gone: this process stalled past the TTL
                # and another scheduler adopted the job.  Its
                # deterministic re-run supersedes ours — write nothing,
                # the finished result is served from the store later.
                if telemetry is not None:
                    telemetry.emit("lease_lost", owner=self.store.owner,
                                   generations_done=done)
                return
            earlier, slices = None, 0
            if totals is not None:
                earlier = _evolution_from_fields(totals, result.netlist,
                                                 _RECORD_NAMES)
                slices = int(totals["slices"])
            if earlier is not None and not result.generations:
                # A slice that ran no generation (one restarted after
                # the last checkpoint, or out of time) adds nothing but
                # its re-finalized netlist.
                total = earlier
            else:
                total = merge_slice(earlier, result, done)
                slices += 1
            done = total.generations
            totals = _evolution_fields(total, _RECORD_NAMES)
            totals["slices"] = slices
            self.store.save_checkpoint(job.id, result.parent, done, config,
                                       stagnation=result.stagnation,
                                       totals=totals)
            record.update(totals)
            finished = done >= config.generations \
                or slice_stopped(result, budget, config)
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
                self._finalize(job, record, total, telemetry)
                self.store.release_lease(job.id)
            else:
                record["state"] = RUNNING
                self.store.save_record(job.id, record)
        except ReproError as exc:
            record["state"] = FAILED
            record["error"] = str(exc)
            record["error_type"] = type(exc).__name__
            self.store.save_record(job.id, record)
            self.store.release_lease(job.id)
            if telemetry is not None:
                telemetry.emit("job_failed", error=str(exc))
        finally:
            if telemetry is not None:
                telemetry.close()

    def _start_job(self, job: Job) -> RqfpNetlist:
        """First slice: produce and persist the initialization baseline."""
        if job.spec.initial is not None:
            incumbent = job.spec.initial
            plan = optimal_levels(incumbent)
            baseline = BaselineResult(incumbent, plan,
                                      circuit_cost(incumbent, plan))
        else:
            baseline = baseline_initialization(list(job.spec.spec),
                                               job.name)
        self.store.save_baseline(job.id, {
            "netlist": netlist_to_dict(baseline.netlist, baseline.plan),
            "cost": _cost_fields(baseline.cost),
        })
        return baseline.netlist

    def _finalize(self, job: Job, record: Dict[str, object],
                  total: EvolutionResult,
                  telemetry: Optional[TelemetryWriter]) -> None:
        final = total.netlist
        plan = optimal_levels(final)
        config = job.spec.config
        verified = False
        if config.verify_result:
            # The result gate, once per job, on the buffer plan the
            # result reports; imported at call time so a wrapper
            # installed on the module sees the call.
            from ..core.verify import verify_evolution_result
            report = verify_evolution_result(final, job.spec.spec, config,
                                             plan=plan)
            verified = True
            if telemetry is not None:
                telemetry.emit(
                    "verify", exhaustive=report.exhaustive,
                    simulated_patterns=report.simulated_patterns,
                    sat_checked=report.sat_checked,
                    sat_conflicts=report.sat_conflicts)
        cost = circuit_cost(final, plan, runtime=total.runtime)
        baseline = self.store.load_baseline(job.id) or {
            "netlist": netlist_to_dict(final, plan),
            "cost": _cost_fields(cost)}
        self.store.save_result(job.id, {
            "job_id": job.id,
            "name": job.name,
            "netlist": netlist_to_dict(final, plan),
            "baseline": baseline,
            "cost": _cost_fields(cost),
            "spec": record.get("spec") or
            spec_tables_to_payload(job.spec.spec),
            "verified": verified,
            **_evolution_fields(total),
        })
        record["state"] = DONE
        self.store.save_record(job.id, record)
        if telemetry is not None:
            telemetry.emit("job_end", generations=total.generations,
                           cost=cost.as_row(),
                           fitness_key=list(total.fitness.key()),
                           verified=verified)

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
        # A path starts empty the first time this scheduler writes it.
        key = os.path.abspath(path)
        mode = "w" if fresh and key not in self._telemetry_written else "a"
        self._telemetry_written.add(key)
        return TelemetryWriter(path, mode=mode, job_id=job.id)
