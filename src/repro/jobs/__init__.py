"""Concurrent multi-job synthesis scheduling with persistent state.

The public surface:

* :class:`JobSpec` — one unit of schedulable work (spec + config +
  optional starting netlist), identified by a content hash;
* :class:`JobStore` — disk-backed (or in-memory) per-job artifact
  store: records, checkpoints, baselines, results, telemetry;
* :class:`Scheduler` — fair-share round-robin execution of many live
  jobs over one global worker budget, resumable after SIGKILL;
* :class:`Job` — the handle ``Scheduler.submit`` returns.

``multi_start``, the benchmark harness and the ``rcgp batch`` CLI are
all thin clients of this package.
"""

from .pool import JobBackend, parallel_safe_config
from .scheduler import Job, Scheduler, result_from_payload
from .spec import (OPERATIONAL_CONFIG_FIELDS, JobSpec,
                   identity_config_dict, spec_tables_from_payload,
                   spec_tables_to_payload)
from .store import (DEFAULT_LEASE_TTL, DONE, FAILED, JobStore, PENDING,
                    RUNNING, TELEMETRY_TRUNCATED, set_fault_hook)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DONE",
    "FAILED",
    "Job",
    "JobBackend",
    "JobSpec",
    "JobStore",
    "OPERATIONAL_CONFIG_FIELDS",
    "PENDING",
    "RUNNING",
    "Scheduler",
    "TELEMETRY_TRUNCATED",
    "identity_config_dict",
    "set_fault_hook",
    "parallel_safe_config",
    "result_from_payload",
    "spec_tables_from_payload",
    "spec_tables_to_payload",
]
