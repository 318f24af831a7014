"""Crash-consistency harness for the job store: SIGKILL everywhere.

Two modes, both exercising real child processes over a real store
directory (not mocks — the point is that ``os.replace`` + ``fsync``
actually delivered):

* **Kill sweep** (default).  Runs one ``rcgp batch`` to completion as
  the reference, counts every interposed write point on the store's
  durable-write path (``RCGP_STORE_FAULT=count:<file>``), then for
  each point spawns a fresh child told to SIGKILL *itself* at exactly
  that point (``RCGP_STORE_FAULT=kill:<n>``).  After each kill the
  same command is re-run without faults and must (a) exit 0, (b) leave
  no stray tmp/lease files behind, and (c) produce a result payload
  identical to the reference on every deterministic field (netlist,
  fitness, cost structure, generations — wall-clock counters excluded).

* **Shared-store smoke** (``--shared``).  Launches two concurrent
  ``rcgp batch`` processes over one store directory with several jobs
  (by default four, 2000 generations each, so both processes hold
  leases at once).  Per-job leases must split the queue: both exit 0,
  every job is done, and no job's telemetry ever shows two owners — the
  "never run the same job twice at once" guarantee, observed end to
  end.  How many processes end up driving jobs is reported, not
  asserted: one may finish the queue before the other adopts a job.

Usage::

    PYTHONPATH=src python tools/fault_store.py --seed 0
    PYTHONPATH=src python tools/fault_store.py --seed 0 --sample 7
    PYTHONPATH=src python tools/fault_store.py --shared --seed 0

Any violation prints the failing kill index (re-runnable via
``--only N``) and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.jobs import DONE, JobStore                          # noqa: E402

#: ``(targets, generations, quantum)`` when not given, per mode.
SWEEP_DEFAULTS = (["decoder_2_4"], 60, 20)
SHARED_DEFAULTS = (["decoder_2_4", "graycode4", "full_adder", "ham3"],
                   2000, 100)

#: Result-payload fields that depend on the wall clock, not on the
#: search.  Everything else — history and every counter included — must
#: match bit for bit: each checkpoint carries the totals of the slices
#: it covers, so a slice re-run after a crash is counted once.
VOLATILE_RESULT_FIELDS = frozenset({"runtime"})


def batch_command(store: str, targets: Sequence[str], *,
                  generations: int, quantum: int, seed: int,
                  lease_ttl: Optional[float] = None) -> List[str]:
    """The exact ``rcgp batch`` invocation the harness crashes."""
    cmd = [sys.executable, "-m", "repro.cli", "batch", *targets,
           "--store", store, "--workers", "0",
           "--generations", str(generations),
           "--quantum", str(quantum), "--seed", str(seed)]
    if lease_ttl is not None:
        cmd += ["--lease-ttl", str(lease_ttl)]
    return cmd


def run_batch(cmd: List[str], *,
              fault: Optional[str] = None) -> subprocess.CompletedProcess:
    """Run one child batch, optionally under ``RCGP_STORE_FAULT``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if fault is not None:
        env["RCGP_STORE_FAULT"] = fault
    else:
        env.pop("RCGP_STORE_FAULT", None)
    return subprocess.run(cmd, env=env, cwd=REPO_ROOT,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)


def count_write_points(cmd_for: "CommandFactory",
                       workdir: str) -> List[str]:
    """One clean instrumented run; returns the ``point:file`` trace.

    The trace length is the number of distinct instants a SIGKILL can
    land between ("just before the tmp write", "between write and
    rename", "after the rename is durable", "at lease creation"), and
    with ``--workers 0`` plus a fixed seed it is deterministic — the
    sweep replays the exact same schedule.
    """
    store = os.path.join(workdir, "count-store")
    trace = os.path.join(workdir, "points.log")
    proc = run_batch(cmd_for(store), fault=f"count:{trace}")
    if proc.returncode != 0:
        raise RuntimeError("instrumented reference run failed "
                           f"(rc={proc.returncode}):\n"
                           + proc.stdout.decode("utf-8", "replace"))
    with open(trace) as handle:
        return [line.strip() for line in handle if line.strip()]


class CommandFactory:
    """Builds the same batch command for any store directory."""

    def __init__(self, targets: Sequence[str], *, generations: int,
                 quantum: int, seed: int):
        self.targets = list(targets)
        self.generations = generations
        self.quantum = quantum
        self.seed = seed

    def __call__(self, store: str) -> List[str]:
        return batch_command(store, self.targets,
                             generations=self.generations,
                             quantum=self.quantum, seed=self.seed)


def stable_result_view(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A result payload with wall-clock/accounting fields removed.

    What remains is exactly what determinism promises: the synthesized
    netlist, fitness trajectory endpoints, generation count, spec,
    baseline netlist and the structural cost components.
    """
    view = {key: value for key, value in payload.items()
            if key not in VOLATILE_RESULT_FIELDS}
    for key in ("cost",):
        if isinstance(view.get(key), dict):
            view[key] = {k: v for k, v in view[key].items()
                         if k != "runtime"}
    baseline = view.get("baseline")
    if isinstance(baseline, dict) and isinstance(baseline.get("cost"),
                                                 dict):
        view["baseline"] = dict(baseline)
        view["baseline"]["cost"] = {
            k: v for k, v in baseline["cost"].items() if k != "runtime"}
    return view


def store_results(store_dir: str) -> Dict[str, Dict[str, Any]]:
    """``job_id -> stable result view`` for every finished job."""
    results: Dict[str, Dict[str, Any]] = {}
    store = JobStore(store_dir)
    for job_id in store.jobs():
        payload = store.load_result(job_id)
        if payload is not None:
            results[job_id] = stable_result_view(payload)
    return results


def assert_store_clean(store_dir: str) -> None:
    """No stray tmp files, stale-rename leftovers or held leases."""
    for dirpath, _dirnames, filenames in os.walk(store_dir):
        for fname in filenames:
            if ".tmp." in fname or ".stale." in fname:
                raise AssertionError(
                    f"stray write artifact survived recovery: "
                    f"{os.path.join(dirpath, fname)}")
            if fname == "lease.json":
                raise AssertionError(
                    f"lease not released after clean finish: "
                    f"{os.path.join(dirpath, fname)}")


def kill_sweep(targets: Sequence[str], *, generations: int, quantum: int,
               seed: int, sample: int = 1, only: Optional[int] = None,
               workdir: Optional[str] = None,
               verbose: bool = True) -> int:
    """SIGKILL a child batch at every write point; demand full recovery.

    Returns the number of points exercised; raises ``AssertionError``
    on the first violation.
    """
    cmd_for = CommandFactory(targets, generations=generations,
                             quantum=quantum, seed=seed)
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="rcgp-fault-")
    try:
        reference_store = os.path.join(workdir, "reference-store")
        proc = run_batch(cmd_for(reference_store))
        if proc.returncode != 0:
            raise RuntimeError(
                f"reference run failed (rc={proc.returncode}):\n"
                + proc.stdout.decode("utf-8", "replace"))
        reference = store_results(reference_store)
        if not reference:
            raise RuntimeError("reference run produced no results")
        points = count_write_points(cmd_for, workdir)
        indices = [only] if only is not None else \
            list(range(0, len(points), max(1, sample)))
        if verbose:
            print(f"fault_store: {len(points)} write points, "
                  f"sweeping {len(indices)} "
                  f"(targets={list(targets)}, seed={seed})")
        for n in indices:
            label = points[n] if n < len(points) else "?"
            store = os.path.join(workdir, f"kill-{n}")
            killed = run_batch(cmd_for(store), fault=f"kill:{n}")
            if killed.returncode != -signal.SIGKILL:
                raise AssertionError(
                    f"kill point {n} ({label}): child exited "
                    f"{killed.returncode}, expected SIGKILL "
                    f"(replay: --only {n})")
            resumed = run_batch(cmd_for(store))
            if resumed.returncode != 0:
                raise AssertionError(
                    f"kill point {n} ({label}): restart exited "
                    f"{resumed.returncode} (replay: --only {n}):\n"
                    + resumed.stdout.decode("utf-8", "replace"))
            assert_store_clean(store)
            recovered = store_results(store)
            if recovered != reference:
                raise AssertionError(
                    f"kill point {n} ({label}): recovered results "
                    f"diverge from reference (replay: --only {n})\n"
                    f"reference: {json.dumps(reference, sort_keys=True)[:400]}\n"
                    f"recovered: {json.dumps(recovered, sort_keys=True)[:400]}")
            shutil.rmtree(store, ignore_errors=True)
            if verbose:
                print(f"  kill {n:>3} @ {label:<28} recovered "
                      "bit-identically")
        return len(indices)
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)


def shared_smoke(targets: Sequence[str], *, generations: int,
                 quantum: int, seed: int,
                 workdir: Optional[str] = None,
                 verbose: bool = True) -> Dict[str, List[str]]:
    """Two concurrent batches over one store must split the queue.

    Returns ``job_id -> sorted owner list`` (each must have at most one
    entry); raises ``AssertionError`` on any lease violation.
    """
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="rcgp-shared-")
    try:
        store_dir = os.path.join(workdir, "shared-store")
        cmd = batch_command(store_dir, targets, generations=generations,
                            quantum=quantum, seed=seed)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        env.pop("RCGP_STORE_FAULT", None)
        children = [subprocess.Popen(cmd, env=env, cwd=REPO_ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT)
                    for _ in range(2)]
        outputs = [child.communicate()[0] for child in children]
        for child, output in zip(children, outputs):
            if child.returncode != 0:
                raise AssertionError(
                    f"shared-store batch exited {child.returncode}:\n"
                    + output.decode("utf-8", "replace"))
        store = JobStore(store_dir)
        owners: Dict[str, List[str]] = {}
        for job_id in store.jobs():
            record = store.load_record(job_id) or {}
            if record.get("state") != DONE:
                raise AssertionError(
                    f"job {job_id} not done after both batches: "
                    f"{record.get('state')!r}")
            seen = set()
            for line in store.read_telemetry(job_id).splitlines():
                event = json.loads(line)
                if event.get("event") in ("job_start", "job_resume",
                                          "job_slice"):
                    seen.add(event["owner"])
            owners[job_id] = sorted(seen)
            if len(seen) > 1:
                raise AssertionError(
                    f"job {job_id} was driven by {len(seen)} owners "
                    f"concurrently: {sorted(seen)} — lease violated")
        if not owners:
            raise AssertionError("shared-store smoke ran no jobs")
        if verbose:
            distinct = {owner for names in owners.values()
                        for owner in names}
            print(f"fault_store: shared-store smoke ok — "
                  f"{len(owners)} jobs, single owner each "
                  f"({len(distinct)} schedulers participated)")
        return owners
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SIGKILL crash-consistency sweep for the job store")
    parser.add_argument("--targets", nargs="+", default=None,
                        help="benchmark names / design files for the "
                             "child batches (default: decoder_2_4; with "
                             "--shared: decoder_2_4 graycode4 full_adder "
                             "ham3)")
    parser.add_argument("--generations", type=int, default=None,
                        help="default: 60; with --shared: 2000")
    parser.add_argument("--quantum", type=int, default=None,
                        help="default: 20; with --shared: 100")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=1,
                        help="exercise every N-th write point "
                             "(default 1 = all of them)")
    parser.add_argument("--only", type=int, default=None,
                        help="replay a single kill index")
    parser.add_argument("--shared", action="store_true",
                        help="run the two-process shared-store smoke "
                             "instead of the kill sweep")
    args = parser.parse_args(argv)
    targets, generations, quantum = \
        SHARED_DEFAULTS if args.shared else SWEEP_DEFAULTS
    targets = args.targets or targets
    if args.generations is not None:
        generations = args.generations
    if args.quantum is not None:
        quantum = args.quantum
    try:
        if args.shared:
            shared_smoke(targets, generations=generations, quantum=quantum,
                         seed=args.seed)
        else:
            kill_sweep(targets, generations=generations, quantum=quantum,
                       seed=args.seed, sample=args.sample, only=args.only)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
