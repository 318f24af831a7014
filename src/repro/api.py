"""The front door: one call for one result, one session for many.

Everything user-facing funnels through two names:

* :func:`synthesize` — spec (truth tables **or** a design-file path) in,
  :class:`~repro.core.synthesis.SynthesisResult` out.  Stateless calls
  get a transient in-memory session; passing ``session=`` joins a
  shared one.
* :class:`Session` — owns the worker processes (one global worker
  budget; nothing else starts them), the :class:`~repro.jobs.Scheduler`
  and the :class:`~repro.jobs.JobStore`.  Submitting the same work twice —
  within a session or across processes over the same store directory —
  returns the stored result instead of re-running the search.

There is no other synthesis entry point: ``multi_start``, the
benchmark harness and the CLI are thin clients of the same scheduler
underneath.  For remote access, the :mod:`repro.service` package serves
a ``Session`` over HTTP (``rcgp serve``); its scheduling loop drives
the session one :meth:`Session.step` at a time so it can interleave
slices with submissions and shutdown checks.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Union

from .core.config import RcgpConfig
from .core.synthesis import SynthesisResult
from .jobs import DONE, Job, JobStore, Scheduler
from .logic.truth_table import TruthTable
from .rqfp.netlist import RqfpNetlist

#: What callers may pass as a specification: a design-file path (any
#: extension ``repro.flow.load_spec`` understands) or truth tables.
SpecLike = Union[str, "os.PathLike[str]", Sequence[TruthTable]]


def _resolve_spec(spec_or_path: SpecLike,
                  name: str) -> "tuple[List[TruthTable], str]":
    if isinstance(spec_or_path, (str, os.PathLike)):
        from .flow import load_spec
        tables, design = load_spec(os.fspath(spec_or_path))
        return tables, (name or design)
    return list(spec_or_path), name


class Session:
    """A scheduling context: worker budget + job store + scheduler.

    Parameters
    ----------
    store:
        ``None`` for in-memory (results are cached for the session's
        lifetime only), a directory path, or a pre-built
        :class:`JobStore`.  Disk-backed sessions survive SIGKILL: a new
        session over the same directory resumes unfinished jobs and
        serves finished ones without re-running.
    workers:
        Upper bound on the worker processes shared fairly by all jobs
        (``0`` or ``1`` = inline), each started when a span first needs
        it; the only way to give a job worker processes.
    quantum:
        Generations per job per scheduler tick; ``None`` (default) runs
        each job to completion in one slice — bit-identical to a direct
        :class:`~repro.core.engine.EvolutionRun`.
    lease_ttl:
        Seconds without a lease heartbeat before another session over
        the same store directory may take one of this session's jobs
        over (see :meth:`JobStore.acquire_lease`).  Size it well above
        one slice's wall-clock; ignored when ``store`` is a prebuilt
        :class:`JobStore` (which already carries its own TTL).
    fleet:
        An optional started :class:`~repro.cluster.fleet.ClusterFleet`
        of remote TCP workers; parallel-safe slices then run on a
        dynamic mix of the fleet and the local worker budget.  The
        session does not own the fleet's lifecycle.

    >>> with Session(store="runs/", workers=8, quantum=1000) as session:
    ...     jobs = [session.submit(path) for path in designs]
    ...     session.run()
    ...     best = {job.name: job.result() for job in jobs}
    """

    def __init__(self, store: Union[None, str, "os.PathLike[str]",
                                    JobStore] = None, *,
                 workers: int = 0, quantum: Optional[int] = None,
                 lease_ttl: Optional[float] = None, fleet=None):
        if store is None or isinstance(store, JobStore):
            self.store = store if store is not None else JobStore(None)
            if lease_ttl is not None:
                self.store.lease_ttl = float(lease_ttl)
        else:
            self.store = JobStore(
                os.fspath(store),
                **({} if lease_ttl is None else {"lease_ttl": lease_ttl}))
        self.scheduler = Scheduler(self.store, workers=workers,
                                   quantum=quantum, fleet=fleet)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.scheduler.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the API -------------------------------------------------------

    def submit(self, spec_or_path: SpecLike,
               config: Optional[RcgpConfig] = None, *,
               name: str = "",
               initial: Optional[RqfpNetlist] = None) -> Job:
        """Queue one synthesis job; completed work is recognized
        immediately (``job.from_store``)."""
        tables, name = _resolve_spec(spec_or_path, name)
        return self.scheduler.submit(tables, config, name=name,
                                     initial=initial)

    def run(self, *, max_ticks: Optional[int] = None) -> List[Job]:
        """Drive all pending jobs to completion (fair-share)."""
        return self.scheduler.run(max_ticks=max_ticks)

    def step(self) -> Optional[Job]:
        """Advance the next pending job by one checkpointed slice.

        Returns the job ticked, or ``None`` when the session is idle.
        This is the granularity the HTTP service loop runs at.
        """
        return self.scheduler.step()

    def synthesize(self, spec_or_path: SpecLike,
                   config: Optional[RcgpConfig] = None, *,
                   name: str = "",
                   initial: Optional[RqfpNetlist] = None) \
            -> SynthesisResult:
        """Submit and run to completion, returning this job's result.

        Drives the whole session queue, so earlier pending submissions
        finish too.
        """
        job = self.submit(spec_or_path, config, name=name, initial=initial)
        if job.state != DONE:
            self.scheduler.run()
        return job.result()

    def jobs(self) -> List[Job]:
        return self.scheduler.jobs()

    def results(self) -> Dict[str, SynthesisResult]:
        return self.scheduler.results()


def synthesize(spec_or_path: SpecLike,
               config: Optional[RcgpConfig] = None, *,
               session: Optional[Session] = None,
               name: str = "",
               initial: Optional[RqfpNetlist] = None) -> SynthesisResult:
    """Synthesize one RQFP circuit; the single recommended entry point.

    ``spec_or_path`` is either a list of :class:`TruthTable` (one per
    primary output) or a design-file path (``.v``/``.blif``/``.aag``/
    ``.bench``/``.pla``/``.real``).  Without ``session=`` a transient
    in-memory session runs the job inline in one slice; with one, the
    job shares the session's workers and store (and may be served from
    it without any evaluation).

    >>> from repro.api import synthesize
    >>> result = synthesize(spec, RcgpConfig(generations=2000, seed=7))
    """
    if session is not None:
        return session.synthesize(spec_or_path, config, name=name,
                                  initial=initial)
    with Session() as transient:
        return transient.synthesize(spec_or_path, config, name=name,
                                    initial=initial)


__all__ = ["Session", "SpecLike", "synthesize"]
