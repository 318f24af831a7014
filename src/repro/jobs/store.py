"""Disk-backed, resumable persistence for scheduled synthesis jobs.

One directory per job, keyed by the :attr:`JobSpec.job_id` content
hash::

    <store root>/
        <job_id>/
            job.json          # record: spec, config, state, counters
            checkpoint.json   # rcgp-checkpoint v2 (incumbent + progress)
            baseline.json     # initialization netlist + its cost
            result.json       # final artifact once the job is done
            lease.json        # liveness lock of the owning scheduler
            telemetry.jsonl   # job_id-stamped engine events, appended

Three properties make the store safe under SIGKILL, power loss and
concurrent schedulers:

* **Durable atomic writes.**  Every artifact write goes to a tmp file
  whose name is unique per writer (pid + sequence number, so two
  processes never collide), is ``fsync``\\ ed, moved into place with
  ``os.replace`` and sealed with an ``fsync`` of the containing
  directory.  A crash at any instant leaves either the previous or the
  next consistent state on disk, and a completed write survives power
  loss.
* **Per-job leases.**  A scheduler must :meth:`~JobStore.acquire_lease`
  before adopting a job: a lock file recording owner id, pid and host,
  written whole to a tmp file and hard-linked into place (the link
  fails if a lease exists), heartbeat by mtime on every
  :meth:`~JobStore.refresh_lease`.  A lease whose heartbeat is older
  than ``lease_ttl`` (or whose same-host pid is dead) is *stale* and
  can be taken over, so N processes can share one store directory and
  split the queue without ever running the same job twice at once.
* **Recovery sweep.**  Opening a disk store runs :meth:`~JobStore.recover`:
  stray tmp files are deleted, unparseable artifacts are quarantined to
  ``<name>.corrupt-<ts>`` (surfaced as :class:`~repro.errors.StoreCorruption`
  if read before the sweep), stale leases are cleared so
  ``running`` records left by a dead process become adoptable again,
  and a telemetry stream torn mid-append is repaired in place with a
  ``telemetry_truncated`` marker.

Because scheduler slices are deterministic, a restarted
:class:`~repro.jobs.scheduler.Scheduler` over a recovered store resumes
from the last completed checkpoint and converges to the identical
final result.

``JobStore(None)`` is a purely in-memory store with the same API — the
transient backing used by one-shot :func:`repro.api.synthesize` calls
that need scheduling but not persistence.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.config import RcgpConfig
from ..core.restart import checkpoint_payload
from ..errors import LeaseHeld, StoreCorruption
from ..io.rqfp_json import netlist_from_dict
from ..rqfp.netlist import RqfpNetlist

RECORD_FORMAT = "rcgp-job"
RECORD_VERSION = 1
RESULT_FORMAT = "rcgp-job-result"
RESULT_VERSION = 1

#: Job lifecycle states stored in the record.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Artifacts the recovery sweep parses (and quarantines when torn).
ARTIFACT_NAMES = ("job.json", "checkpoint.json", "baseline.json",
                  "result.json")
LEASE_NAME = "lease.json"
TELEMETRY_NAME = "telemetry.jsonl"

#: Event tag of the marker that replaces a torn trailing telemetry line.
TELEMETRY_TRUNCATED = "telemetry_truncated"

#: Default seconds without a heartbeat before a lease is stale.  Must
#: comfortably exceed one scheduler slice (the heartbeat cadence).
DEFAULT_LEASE_TTL = 60.0

_WRITE_SEQ = itertools.count()

# ----------------------------------------------------------------------
# Fault injection
#
# ``tools/fault_store.py`` and the crash-consistency tests interpose on
# the write path through these hooks: either an in-process callable, or
# (for SIGKILL realism in a child process) the ``RCGP_STORE_FAULT``
# environment variable — ``count:<file>`` appends one ``point:name``
# line per interposition, ``kill:<n>`` SIGKILLs the process at the
# n-th interposition (0-based).  Production runs pay one dict lookup.

_fault_hook: Optional[Callable[[str, str], None]] = None
_fault_counter = itertools.count()


def set_fault_hook(
        hook: Optional[Callable[[str, str], None]]
) -> Optional[Callable[[str, str], None]]:
    """Install ``hook(point, path)`` on every store write step;
    returns the previous hook.  Testing/tooling only."""
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


def _fault_point(point: str, path: str) -> None:
    if _fault_hook is not None:
        _fault_hook(point, path)
        return
    spec = os.environ.get("RCGP_STORE_FAULT")
    if not spec:
        return
    index = next(_fault_counter)
    mode, _, arg = spec.partition(":")
    if mode == "count":
        with open(arg, "a") as handle:
            handle.write(f"{point}:{os.path.basename(path)}\n")
    elif mode == "kill" and index == int(arg):
        os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# Durable atomic writes


def _unlink_quiet(path: str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _fsync_dir(path: str) -> None:
    """Make a just-completed rename in ``path`` durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(path: str, data: bytes, *,
                        durable: bool = True) -> None:
    """Write-whole-or-not-at-all, surviving SIGKILL and power loss.

    The tmp name embeds pid + a process-wide sequence number so
    concurrent writers (two schedulers sharing a store) never clobber
    each other's in-flight tmp files; the tmp file is fsynced before
    ``os.replace`` and the directory after, so the rename itself is on
    stable storage when this returns.
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(
        directory,
        f".{os.path.basename(path)}.tmp.{os.getpid()}.{next(_WRITE_SEQ)}")
    _fault_point("write", path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        _fault_point("replace", path)
        os.replace(tmp, path)
    except BaseException:
        _unlink_quiet(tmp)
        raise
    if durable:
        _fsync_dir(directory)
    _fault_point("synced", path)


def _atomic_write_json(path: str, payload: Dict[str, Any], *,
                       durable: bool = True) -> None:
    _atomic_write_bytes(path, json.dumps(payload, indent=2).encode("utf-8"),
                        durable=durable)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Parse one artifact; ``None`` if absent, typed on torn content.

    Opens directly instead of ``exists()``-then-``open()`` so a file
    vanishing between the two (another process finishing a quarantine,
    say) is indistinguishable from never existing, and a torn or empty
    file raises :class:`StoreCorruption` with the offending path
    instead of leaking ``json.JSONDecodeError`` into the scheduler
    loop or the HTTP handlers.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreCorruption(
            f"unparseable store artifact ({exc}); a crash may have torn "
            "the write — reopening the store quarantines it",
            path=path) from exc


def _split_torn_tail(data: bytes) -> Tuple[bytes, Optional[bytes]]:
    """``(kept, dropped)`` — the valid JSONL prefix and the torn tail.

    Only the final line can be torn: earlier lines were completed by
    earlier appends.  ``dropped`` is ``None`` when the stream is clean.
    """
    if not data:
        return data, None
    if not data.endswith(b"\n"):
        head, _, tail = data.rpartition(b"\n")
        return (head + b"\n" if head else b""), tail
    head = data[:-1]
    prev, _, last = head.rpartition(b"\n")
    try:
        json.loads(last.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return (prev + b"\n" if prev else b""), last
    return data, None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


class JobStore:
    """Spec-hash-keyed artifact store; disk-backed or in-memory.

    The disk layout, durability and lease semantics are documented in
    the module docstring.  All methods take the ``job_id`` content
    hash; nothing here interprets configs or netlists beyond
    (de)serializing them.

    Parameters
    ----------
    root:
        Store directory, or ``None`` for a purely in-memory store.
    durable:
        ``fsync`` every artifact write (file + directory).  Disable
        only for throwaway stores on tmpfs.
    lease_ttl:
        Seconds without a heartbeat before another process may take a
        job's lease over.  Size it well above one scheduler slice.
    owner:
        Stable identity written into leases; defaults to a
        host/pid/uuid triple unique to this store instance.
    """

    def __init__(self, root: Optional[str] = None, *,
                 durable: bool = True,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 owner: Optional[str] = None):
        self.root = root
        self.durable = durable
        self.lease_ttl = float(lease_ttl)
        self.owner = owner or (f"{socket.gethostname()}:{os.getpid()}:"
                               f"{uuid.uuid4().hex[:8]}")
        self._mem: Dict[str, Dict[str, Any]] = {}
        self._held: set = set()
        self.lease_takeovers = 0
        self.quarantined: List[str] = []
        self.recovered_tmp_files = 0
        self.repaired_telemetry = 0
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self.recover()

    @property
    def persistent(self) -> bool:
        return self.root is not None

    def job_dir(self, job_id: str) -> Optional[str]:
        if self.root is None:
            return None
        return os.path.join(self.root, job_id)

    def _ensure_dir(self, job_id: str) -> str:
        path = self.job_dir(job_id)
        os.makedirs(path, exist_ok=True)
        return path

    def _slot(self, job_id: str) -> Dict[str, Any]:
        return self._mem.setdefault(job_id, {})

    def jobs(self) -> List[str]:
        """All job ids present in the store."""
        if self.root is None:
            return sorted(self._mem)
        return sorted(
            entry for entry in os.listdir(self.root)
            if os.path.isfile(os.path.join(self.root, entry, "job.json")))

    # -- crash recovery ------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Sweep the store back to a consistent state after a crash.

        Runs automatically when a disk store is opened: deletes stray
        tmp files from interrupted writes, quarantines unparseable
        artifacts to ``<name>.corrupt-<ts>``, clears stale leases (so
        ``running`` records whose owner died become adoptable/resumable
        again) and repairs telemetry streams torn mid-append.  Every
        action is idempotent and safe against concurrent live
        schedulers — only *stale* leases are touched.
        """
        summary = {"tmp_files": 0, "quarantined": 0, "stale_leases": 0,
                   "telemetry_repaired": 0}
        if self.root is None:
            return summary
        for entry in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, entry)
            if not os.path.isdir(path):
                if ".tmp." in entry and _unlink_quiet(path):
                    summary["tmp_files"] += 1
                continue
            for fname in sorted(os.listdir(path)):
                fpath = os.path.join(path, fname)
                if ".tmp." in fname or ".stale." in fname:
                    if _unlink_quiet(fpath):
                        summary["tmp_files"] += 1
                elif fname in ARTIFACT_NAMES:
                    try:
                        _read_json(fpath)
                    except StoreCorruption:
                        if self.quarantine(fpath) is not None:
                            summary["quarantined"] += 1
                elif fname == LEASE_NAME:
                    try:
                        info = _read_json(fpath)
                    except StoreCorruption:
                        info = None
                    if (info is None or self._lease_stale(fpath, info)) \
                            and _unlink_quiet(fpath):
                        summary["stale_leases"] += 1
                elif fname == TELEMETRY_NAME:
                    if self.repair_telemetry(entry):
                        summary["telemetry_repaired"] += 1
        self.recovered_tmp_files += summary["tmp_files"]
        return summary

    def quarantine(self, path: str) -> Optional[str]:
        """Move an unreadable artifact aside as ``<path>.corrupt-<ts>``.

        Returns the quarantine path (recorded in :attr:`quarantined`),
        or ``None`` when the file vanished first (e.g. another
        process's sweep won the race).
        """
        target = f"{path}.corrupt-{int(time.time() * 1000)}" \
                 f"-{next(_WRITE_SEQ)}"
        try:
            os.replace(path, target)
        except OSError:
            return None
        if self.durable:
            _fsync_dir(os.path.dirname(target) or ".")
        self.quarantined.append(target)
        return target

    def quarantined_artifacts(self) -> List[str]:
        """Every ``*.corrupt-*`` file currently present in the store
        (from this and any previous process's recovery sweeps)."""
        if self.root is None:
            return []
        found = []
        for entry in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, entry)
            if not os.path.isdir(path):
                continue
            found.extend(os.path.join(path, fname)
                         for fname in sorted(os.listdir(path))
                         if ".corrupt-" in fname)
        return found

    # -- leases --------------------------------------------------------

    def _lease_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), LEASE_NAME)

    def _lease_stale(self, path: str, info: Dict[str, Any]) -> bool:
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            return True
        if time.time() - mtime > self.lease_ttl:
            return True
        # Same host and the pid is gone: no heartbeat is ever coming.
        if info.get("host") == socket.gethostname():
            pid = info.get("pid")
            if isinstance(pid, int) and pid > 0 and not _pid_alive(pid):
                return True
        return False

    def _try_create_lease(self, path: str) -> bool:
        """Publish a complete lease file at ``path`` unless one exists.

        The JSON goes to a tmp file first and is hard-linked into place,
        so a contender never reads a lease that is still being written
        (and mistakes it for one torn by a crash).
        """
        _fault_point("lease", path)
        tmp = os.path.join(
            os.path.dirname(path),
            f".{LEASE_NAME}.tmp.{os.getpid()}.{next(_WRITE_SEQ)}")
        try:
            with open(tmp, "w") as handle:
                json.dump({"owner": self.owner, "pid": os.getpid(),
                           "host": socket.gethostname(),
                           "acquired_at": time.time()}, handle)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
        finally:
            _unlink_quiet(tmp)
        return True

    def acquire_lease(self, job_id: str, *,
                      required: bool = False) -> bool:
        """Claim exclusive scheduling rights for one job.

        Returns ``True`` when this store instance now holds the lease
        (fresh, refreshed, or taken over from a stale owner) and
        ``False`` when another live owner holds it — unless
        ``required=True``, which raises :class:`LeaseHeld` with the
        holder's identity instead.
        """
        if self.root is None:
            slot = self._slot(job_id)
            lease = slot.get("lease")
            stale = lease is not None and \
                time.time() - lease["at"] > self.lease_ttl
            if lease is None or lease["owner"] == self.owner or stale:
                if stale and lease["owner"] != self.owner:
                    self.lease_takeovers += 1
                slot["lease"] = {"owner": self.owner, "at": time.time()}
                self._held.add(job_id)
                return True
            if required:
                raise LeaseHeld(
                    f"job {job_id} is leased by {lease['owner']}",
                    owner=lease["owner"])
            return False
        self._ensure_dir(job_id)
        path = self._lease_path(job_id)
        if job_id in self._held and self.refresh_lease(job_id):
            return True
        if self._try_create_lease(path):
            self._held.add(job_id)
            return True
        try:
            info = _read_json(path)
        except StoreCorruption:
            info = None
        if info is None:
            # Torn by a crash (or vanished under us): a lease that
            # cannot be parsed can never heartbeat, so clear and retry.
            _unlink_quiet(path)
            if self._try_create_lease(path):
                self._held.add(job_id)
                return True
        elif info.get("owner") == self.owner:
            self._held.add(job_id)
            self.refresh_lease(job_id)
            return True
        elif self._lease_stale(path, info):
            # Takeover: rename the stale lease to a unique name first —
            # exactly one contender's replace succeeds, so exactly one
            # proceeds to recreate and win the link race deciding the
            # new owner.
            stale_name = f"{path}.stale.{os.getpid()}.{next(_WRITE_SEQ)}"
            try:
                os.replace(path, stale_name)
            except FileNotFoundError:
                pass
            else:
                _unlink_quiet(stale_name)
            if self._try_create_lease(path):
                self._held.add(job_id)
                self.lease_takeovers += 1
                return True
        if required:
            holder = self.lease_info(job_id) or {}
            raise LeaseHeld(
                f"job {job_id} is leased by "
                f"{holder.get('owner', 'another scheduler')}",
                owner=holder.get("owner"), pid=holder.get("pid"),
                age_seconds=holder.get("age_seconds"))
        return False

    def refresh_lease(self, job_id: str) -> bool:
        """Heartbeat a held lease.  ``False`` means the lease was lost
        (this process stalled past the TTL and another took over) —
        the caller must stop writing this job's artifacts."""
        if self.root is None:
            slot = self._slot(job_id)
            lease = slot.get("lease")
            if lease is None or lease["owner"] != self.owner:
                self._held.discard(job_id)
                return False
            lease["at"] = time.time()
            return True
        if job_id not in self._held:
            return False
        path = self._lease_path(job_id)
        try:
            info = _read_json(path)
        except StoreCorruption:
            info = None
        if info is None or info.get("owner") != self.owner:
            self._held.discard(job_id)
            return False
        try:
            os.utime(path, None)
        except OSError:
            self._held.discard(job_id)
            return False
        return True

    def release_lease(self, job_id: str) -> None:
        """Give the job's lease back (no-op when not held by us)."""
        if self.root is None:
            slot = self._slot(job_id)
            lease = slot.get("lease")
            if lease is not None and lease["owner"] == self.owner:
                slot.pop("lease", None)
            self._held.discard(job_id)
            return
        if job_id in self._held:
            path = self._lease_path(job_id)
            try:
                info = _read_json(path)
            except StoreCorruption:
                info = None
            if info is not None and info.get("owner") == self.owner:
                _unlink_quiet(path)
        self._held.discard(job_id)

    def release_all_leases(self) -> None:
        for job_id in sorted(self._held):
            self.release_lease(job_id)

    def held_leases(self) -> List[str]:
        """Job ids whose lease this store instance currently holds."""
        return sorted(self._held)

    def lease_info(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Snapshot of the job's lease: owner, pid, host, heartbeat age
        and computed liveness.  ``None`` when no lease exists; a torn
        lease file reports ``live: False``."""
        if self.root is None:
            lease = self._slot(job_id).get("lease")
            if lease is None:
                return None
            age = max(0.0, time.time() - lease["at"])
            return {"owner": lease["owner"], "pid": os.getpid(),
                    "host": socket.gethostname(), "age_seconds": age,
                    "live": age <= self.lease_ttl}
        path = self._lease_path(job_id)
        try:
            info = _read_json(path)
        except StoreCorruption:
            return {"owner": None, "pid": None, "host": None,
                    "age_seconds": None, "live": False}
        if info is None:
            return None
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            return None
        return {"owner": info.get("owner"), "pid": info.get("pid"),
                "host": info.get("host"),
                "age_seconds": max(0.0, time.time() - mtime),
                "live": not self._lease_stale(path, info)}

    def lease_is_live(self, job_id: str) -> bool:
        """Whether *some* live scheduler (us included) owns the job."""
        info = self.lease_info(job_id)
        return bool(info and info["live"])

    # -- records -------------------------------------------------------

    def load_record(self, job_id: str) -> Optional[Dict[str, Any]]:
        if self.root is None:
            return self._slot(job_id).get("record")
        return _read_json(os.path.join(self.job_dir(job_id), "job.json"))

    def save_record(self, job_id: str, record: Dict[str, Any]) -> None:
        record = dict(record)
        record.setdefault("format", RECORD_FORMAT)
        record.setdefault("version", RECORD_VERSION)
        record["updated_at"] = time.time()
        if self.root is None:
            self._slot(job_id)["record"] = record
            return
        _atomic_write_json(os.path.join(self._ensure_dir(job_id),
                                        "job.json"), record,
                           durable=self.durable)

    # -- checkpoints ---------------------------------------------------

    def save_checkpoint(self, job_id: str, netlist: RqfpNetlist,
                        generations_done: int, config: RcgpConfig) -> None:
        """Persist the incumbent parent (the standard checkpoint
        document, so job checkpoints and
        :func:`repro.core.restart.load_checkpoint` stay interchangeable)."""
        payload = checkpoint_payload(netlist, generations_done, config)
        if self.root is None:
            slot = self._slot(job_id)
            slot["checkpoint"] = payload
            slot["checkpoint_at"] = time.time()
            return
        _atomic_write_json(os.path.join(self._ensure_dir(job_id),
                                        "checkpoint.json"), payload,
                           durable=self.durable)

    def load_checkpoint(self, job_id: str) \
            -> Optional[Tuple[RqfpNetlist, int]]:
        """The incumbent netlist and generations completed, if any."""
        if self.root is None:
            payload = self._slot(job_id).get("checkpoint")
        else:
            payload = _read_json(os.path.join(self.job_dir(job_id),
                                              "checkpoint.json"))
        if payload is None:
            return None
        return (netlist_from_dict(payload["netlist"]),
                int(payload["generations_done"]))

    def checkpoint_mtime(self, job_id: str) -> Optional[float]:
        """When the job's checkpoint was last written (epoch seconds).

        ``None`` when no checkpoint exists.  This is how liveness
        observers (the HTTP service's status endpoint) distinguish a job
        that is genuinely advancing from one whose process died
        mid-slice: a ``running`` record whose checkpoint has stopped
        moving and which no live scheduler owns is *interrupted*, not
        running.
        """
        if self.root is None:
            return self._slot(job_id).get("checkpoint_at")
        path = os.path.join(self.job_dir(job_id), "checkpoint.json")
        try:
            return os.path.getmtime(path)
        except OSError:
            return None

    # -- baseline ------------------------------------------------------

    def save_baseline(self, job_id: str,
                      payload: Dict[str, Any]) -> None:
        if self.root is None:
            self._slot(job_id)["baseline"] = payload
            return
        _atomic_write_json(os.path.join(self._ensure_dir(job_id),
                                        "baseline.json"), payload,
                           durable=self.durable)

    def load_baseline(self, job_id: str) -> Optional[Dict[str, Any]]:
        if self.root is None:
            return self._slot(job_id).get("baseline")
        return _read_json(os.path.join(self.job_dir(job_id),
                                       "baseline.json"))

    # -- results -------------------------------------------------------

    def save_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        payload = dict(payload)
        payload.setdefault("format", RESULT_FORMAT)
        payload.setdefault("version", RESULT_VERSION)
        if self.root is None:
            self._slot(job_id)["result"] = payload
            return
        _atomic_write_json(os.path.join(self._ensure_dir(job_id),
                                        "result.json"), payload,
                           durable=self.durable)

    def load_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        if self.root is None:
            return self._slot(job_id).get("result")
        return _read_json(os.path.join(self.job_dir(job_id),
                                       "result.json"))

    # -- telemetry -----------------------------------------------------

    def telemetry_path(self, job_id: str) -> Optional[str]:
        """Per-job JSONL telemetry file (None for in-memory stores)."""
        if self.root is None:
            return None
        return os.path.join(self._ensure_dir(job_id), TELEMETRY_NAME)

    def rotate_telemetry(self, job_id: str) -> None:
        """Atomically reset the job's stream to empty (fresh run).

        Replaces the open-with-truncate idiom: a crash mid-rotation
        leaves either the complete old stream or the complete empty
        one, never a torn prefix.
        """
        if self.root is None:
            return
        path = self.telemetry_path(job_id)
        if os.path.exists(path):
            _atomic_write_bytes(path, b"", durable=self.durable)

    def repair_telemetry(self, job_id: str) -> bool:
        """Fix a stream torn by a crash mid-append, in place.

        The torn trailing line is dropped and replaced by a
        ``telemetry_truncated`` marker event, so the on-disk file is
        valid JSONL again before the next process appends to it.
        Returns ``True`` when a repair happened.
        """
        if self.root is None:
            return False
        path = self.telemetry_path(job_id)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return False
        kept, dropped = _split_torn_tail(data)
        if dropped is None:
            return False
        marker = json.dumps({"event": TELEMETRY_TRUNCATED,
                             "job_id": job_id,
                             "dropped_bytes": len(dropped)}) + "\n"
        _atomic_write_bytes(path, kept + marker.encode("utf-8"),
                            durable=self.durable)
        self.repaired_telemetry += 1
        return True

    def read_telemetry(self, job_id: str) -> bytes:
        """The job's JSONL stream, always valid JSONL.

        A torn trailing line (another process crashed mid-append, or is
        appending right now) is replaced by a ``telemetry_truncated``
        marker in the returned bytes — the file itself is untouched, so
        this is safe to call on a job another scheduler owns.
        """
        if self.root is None:
            return b""
        try:
            with open(self.telemetry_path(job_id), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return b""
        kept, dropped = _split_torn_tail(data)
        if dropped is None:
            return data
        marker = json.dumps({"event": TELEMETRY_TRUNCATED,
                             "job_id": job_id,
                             "dropped_bytes": len(dropped)}) + "\n"
        return kept + marker.encode("utf-8")
