"""Job specifications: what uniquely identifies one synthesis run.

A :class:`JobSpec` is the unit of work the scheduler accepts: a
truth-table specification, a complete :class:`~repro.core.config.RcgpConfig`
(whose ``seed`` pins the stochastic search) and an optional starting
netlist.  Its :attr:`~JobSpec.job_id` is a stable content hash over the
*search-relevant* parts of that triple, so:

* the same work submitted twice maps to the same store entry — a
  completed job is served from the :class:`~repro.jobs.store.JobStore`
  without re-running;
* purely operational knobs (worker count, cache size, telemetry paths,
  batch fault budgets) do not change the identity — a job finished on 8
  workers is the same job when queried from a 2-worker session, because
  results are bit-identical for a fixed seed regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import OPERATIONAL_CONFIG_FIELDS, RcgpConfig
from ..errors import ParseError
from ..logic.truth_table import TruthTable
from ..rqfp.netlist import RqfpNetlist


def identity_config_dict(config: RcgpConfig) -> Dict[str, Any]:
    """The search-relevant slice of a config, for hashing/matching.

    :data:`~repro.core.config.OPERATIONAL_CONFIG_FIELDS` are left out;
    ``generations`` and ``seed`` are kept (a bigger budget or another
    seed is a different job).
    """
    identity = {name: value for name, value in config.to_dict().items()
                if name not in OPERATIONAL_CONFIG_FIELDS}
    # Retired knobs stay hashed at their only values, so stored job ids
    # keep matching.
    identity["kernel"] = "flat"
    identity["incremental_eval"] = True
    identity["verify_method"] = "sat"
    identity["count_buffers_in_fitness"] = True
    return identity


#: Specs with at least this many inputs carry their tables as hex strings.
#: A 14-input table is a 16,384-bit integer, more than the 4,300 decimal
#: digits Python lets ``json`` and ``int``/``str`` convert; smaller specs
#: keep plain integers, so their job ids and stored records are unchanged.
HEX_TABLE_MIN_INPUTS = 14


def spec_tables_to_payload(spec: Sequence[TruthTable]) -> Dict[str, Any]:
    """Portable JSON form of a truth-table specification."""
    spec = list(spec)
    num_vars = spec[0].num_vars
    if num_vars >= HEX_TABLE_MIN_INPUTS:
        bits: List[Any] = [format(t.bits, "#x") for t in spec]
    else:
        bits = [t.bits for t in spec]
    return {"num_vars": num_vars, "bits": bits}


def spec_tables_from_payload(payload: Dict[str, Any]) -> List[TruthTable]:
    """Inverse of :func:`spec_tables_to_payload`; a table is an integer
    or a hex string (``"0x..."``), whatever the input count."""
    num_vars = int(payload["num_vars"])
    tables = []
    for i, bits in enumerate(payload["bits"]):
        if isinstance(bits, str):
            try:
                bits = int(bits, 16)
            except ValueError:
                raise ParseError(f"spec table {i} is not a hex string: "
                                 f"{bits[:40]!r}") from None
        tables.append(TruthTable(num_vars, bits))
    return tables


@dataclass(frozen=True)
class JobSpec:
    """One schedulable synthesis job: spec + config + optional seed netlist.

    ``config.seed`` must be set — the scheduler assigns one at submit
    time when the caller left it ``None``, because a resumable job needs
    a reproducible search.
    """

    spec: Tuple[TruthTable, ...]
    config: RcgpConfig
    name: str = ""
    initial: Optional[RqfpNetlist] = None
    _job_id: str = field(default="", compare=False, repr=False)

    def __post_init__(self):
        if not self.spec:
            raise ValueError("job specification needs at least one output")
        if self.config.seed is None:
            raise ValueError("a scheduled job needs config.seed set "
                             "(the scheduler assigns one on submit)")

    @property
    def num_inputs(self) -> int:
        return self.spec[0].num_vars

    @property
    def job_id(self) -> str:
        """Stable content hash identifying this job in the store."""
        if self._job_id:
            return self._job_id
        from ..io.rqfp_json import netlist_to_dict
        material = {
            "spec": spec_tables_to_payload(self.spec),
            "config": identity_config_dict(self.config),
            "initial": None if self.initial is None
            else netlist_to_dict(self.initial),
        }
        blob = json.dumps(material, sort_keys=True).encode()
        digest = hashlib.blake2b(blob, digest_size=12).hexdigest()
        object.__setattr__(self, "_job_id", digest)
        return digest
