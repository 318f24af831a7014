"""A pooled run built by hand, as the scheduler builds one per slice.

The engine never starts worker processes: a pooled run is an
:class:`~repro.core.engine.EvolutionRun` given a
:class:`~repro.jobs.pool.JobBackend` handle on a
:class:`~repro.cluster.backend.ClusterDispatch`.  Tests that compare
pooled and inline runs build it here.
"""

import contextlib

from repro.cluster import ClusterDispatch
from repro.core.engine import EvolutionRun
from repro.jobs.pool import JobBackend


@contextlib.contextmanager
def pooled_backend(spec, config, *, fleet=None, local_workers=1):
    """A span handle on a fresh dispatcher (local pipe workers, a fleet
    or both); the handle and the dispatcher are closed on exit."""
    dispatch = ClusterDispatch(fleet, local_workers=local_workers)
    ctx = ("test-job", tuple(t.bits for t in spec), spec[0].num_vars,
           config.to_dict())
    backend = JobBackend(dispatch, ctx, config,
                         name="shared-pool" if fleet is None else "cluster")
    try:
        yield backend
    finally:
        backend.close()
        dispatch.close()


def pooled_run(spec, config, *, fleet=None, local_workers=1, **options):
    """One EvolutionRun whose spans replay on workers; returns
    ``(result, backend)``.  ``options`` go to :class:`EvolutionRun`."""
    with pooled_backend(spec, config, fleet=fleet,
                        local_workers=local_workers) as backend:
        result = EvolutionRun(spec, config, backend=backend,
                              **options).run()
    return result, backend
