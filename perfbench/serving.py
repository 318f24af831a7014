"""The serve-pool workload: an ``rcgp serve`` process and its clients.

Load is closed-loop: each client thread posts one job, polls its status
every :data:`POLL_S` seconds (the polls are part of the load), fetches
the result, checks it, and only then posts its next job.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import metrics
from workloads import Job, Workload, rcgp_config

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
#: Status poll interval: ``ServiceClient.wait``'s default.
POLL_S = 0.2
#: Status poll interval of the set-up's warm-up job, so that set-up time
#: ends within 20 ms of the job's end instead of within 0.2 s.
SETUP_POLL_S = 0.02
JOB_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "interrupted")


class Server:
    """``rcgp serve --workers 2 --store DIR`` on a free port."""

    def __init__(self, store: str, log_dir: str, env: Dict[str, str],
                 trace_out: Optional[str] = None):
        # Launch time on the clock that ``run.py`` times set-up with:
        # wall time less hypervisor steal.
        self.launched = time.perf_counter() - metrics.steal_s()
        os.makedirs(log_dir, exist_ok=True)
        self._stdout = os.path.join(log_dir, "serve.out")
        # The server logs one stderr line per request: a pipe nobody reads
        # fills up and wedges every handler thread, so it goes to a file.
        with open(self._stdout, "w") as out, \
                open(os.path.join(log_dir, "serve.err"), "w") as err:
            trace = ["--trace-out", trace_out] if trace_out else []
            self.proc = subprocess.Popen(
                [sys.executable, LAUNCHER, *trace, "--", "serve",
                 "--workers", "2", "--store", store, "--port", "0"],
                stdout=out, stderr=err, env=env)

    def url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._stdout) as handle:
                found = re.search(r"listening on (http://\S+)", handle.read())
            if found:
                return found.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start (exit {self.proc.poll()})")

    def _tree(self) -> List[int]:
        """The server and its descendant processes (pool workers)."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children.setdefault(int(fields[1]), []).append(int(entry))
        tree, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo.extend(children.get(pid, []))
        return tree

    def peak_rss_kb(self) -> int:
        """Summed VmHWM of the server and its pool workers."""
        total = 0
        for pid in self._tree():
            try:
                total += metrics.vmhwm_kb(pid)
            except OSError:
                continue
        return total

    def cpu_s(self) -> float:
        """CPU seconds the server and its pool workers have used."""
        ticks = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])   # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait for the drain; kill if it overruns."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not drain after SIGTERM")


class ClientStats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency: Dict[str, List[float]] = {"submit": [], "status": [],
                                                "result": []}
        self.http_errors = 0

    def summary(self) -> dict:
        out: dict = dict(self.latency)
        out["requests"] = sum(len(v) for v in self.latency.values())
        out["http_errors"] = self.http_errors
        return out


def run_job(client, job: Job, workload: Workload, spec,
            stats: ClientStats, deadline: float,
            poll_s: float = POLL_S) -> dict:
    """Post, poll, fetch and check one job; every failure is a row."""
    from repro.errors import ServiceError

    if time.perf_counter() > deadline:
        return metrics.failed_row(job, 0.0, "run deadline passed")

    def call(op, fn, *args, **kwargs):
        begin = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except ServiceError:
            with stats.lock:
                stats.http_errors += 1
            raise
        finally:
            with stats.lock:
                stats.latency[op].append(time.perf_counter() - begin)

    start = time.perf_counter()
    try:
        info = call("submit", client.submit, spec,
                    rcgp_config(workload, job.seed), name=job.name)
        state = info["state"]
        while state not in TERMINAL:
            if time.perf_counter() - start > JOB_TIMEOUT_S:
                raise TimeoutError(f"still {state!r} after {JOB_TIMEOUT_S}s")
            time.sleep(poll_s)
            state = call("status", client.status, info["job_id"])["state"]
        if state != "done":
            raise RuntimeError(f"job ended {state!r}")
        result = call("result", client.result, info["job_id"])
        return metrics.result_row(job, result, spec, start,
                                  workload.generations)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return metrics.failed_row(job, time.perf_counter() - start,
                                  f"{type(exc).__name__}: {exc}"[:300])


def run_clients(url: str, plan, specs: dict, stats: ClientStats,
                deadline: float) -> tuple:
    """Every client list in its own thread; returns (rows, wall seconds).
    Jobs not started by ``deadline`` (a ``perf_counter`` time) fail."""
    from repro.service import ServiceClient

    rows: List[List[dict]] = [[] for _ in plan.clients]

    def loop(index: int) -> None:
        client = ServiceClient(url, timeout=30.0)
        for job in plan.clients[index]:
            rows[index].append(run_job(client, job, plan.workload,
                                       specs[job.circuit], stats, deadline))

    threads = [threading.Thread(target=loop, args=(i,))
               for i in range(len(plan.clients))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [row for client in rows for row in client], \
        time.perf_counter() - start
