#!/usr/bin/env python3
"""End-to-end cluster smoke: ``rcgp serve`` + two ``rcgp worker``.

Starts a real HTTP service with a cluster listener, dials two real
worker processes into it over loopback TCP, submits a fixed-seed job,
SIGKILLs one worker mid-run, and requires:

* the served artifact is **bit-identical** to an uninterrupted
  in-process run of the same spec + config at the same slice quantum
  (netlist, fitness and every eval counter — slicing re-primes the
  parent at each resume, so equal counters require equal quanta);
* ``/v1/workers`` and the ``rcgp_cluster_*`` metrics reflect the
  fleet (two registered, one surviving the kill, remote spans served);
* the per-slice telemetry names the remote workers that evaluated it.

Exit code 0 = all checks passed.  Run from a checkout::

    python tools/cluster_smoke.py

"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import Session  # noqa: E402
from repro.bench import get_benchmark  # noqa: E402
from repro.core.config import RcgpConfig  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

TOKEN = "cluster-smoke-token"


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except Exception:  # noqa: BLE001 - service still starting
            pass
        time.sleep(0.1)
    raise SystemExit(f"cluster smoke: timed out waiting for {what}")


def rcgp(*argv, env):
    return subprocess.Popen([sys.executable, "-m", "repro.cli", *argv],
                            cwd=REPO_ROOT, env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rcgp serve + two rcgp worker over loopback, with "
                    "a SIGKILL mid-run; asserts bit-identity to the "
                    "in-process baseline.")
    parser.add_argument("--benchmark", default="decoder_2_4")
    parser.add_argument("--generations", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--port", type=int, default=8797)
    parser.add_argument("--cluster-port", type=int, default=8796)
    parser.add_argument("--store", default="store_cluster")
    parser.add_argument("--quantum", type=int, default=200)
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    spec = get_benchmark(args.benchmark).spec()
    config = RcgpConfig(generations=args.generations, seed=args.seed)

    env = dict(os.environ,
               RCGP_CLUSTER_TOKEN=TOKEN,
               PYTHONPATH=os.pathsep.join(
                   p for p in (os.path.join(REPO_ROOT, "src"),
                               os.environ.get("PYTHONPATH")) if p))

    serve = rcgp("serve", "--store", args.store,
                 "--port", str(args.port),
                 "--cluster-port", str(args.cluster_port),
                 "--quantum", str(args.quantum), env=env)
    workers = [rcgp("worker",
                    "--connect", f"127.0.0.1:{args.cluster_port}",
                    "--name", f"smoke-w{index}", env=env)
               for index in (1, 2)]
    client = ServiceClient(f"http://127.0.0.1:{args.port}",
                           timeout=30.0)
    try:
        wait_for(lambda: client.health()["status"] == "ok", 30,
                 "the service to come up")
        wait_for(lambda: client.workers()["live"] == 2, 30,
                 "both workers to register")
        print("cluster smoke: 2 workers registered:",
              [w["name"] for w in client.workers()["workers"]])

        job_id = client.submit(spec, config,
                               name=args.benchmark)["job_id"]
        wait_for(lambda: client.status(job_id).get(
            "generations_done", 0) > 0, 60, "the first slice")

        # SIGKILL one worker mid-run: the coordinator must drop it and
        # re-dispatch to the survivor without changing a single bit.
        os.kill(workers[0].pid, signal.SIGKILL)
        print("cluster smoke: SIGKILLed smoke-w1 mid-run")

        final = client.wait(job_id, timeout=args.timeout)
        if final["state"] != "done":
            raise SystemExit(f"job ended {final['state']!r}: "
                             f"{final.get('error')}")
        served = client.result(job_id)

        with Session(workers=0, quantum=args.quantum) as session:
            baseline = session.synthesize(spec, config)
        assert served.netlist.describe() == \
            baseline.netlist.describe(), \
            "killing a worker changed the synthesized netlist"
        assert served.evolution.fitness.key() == \
            baseline.evolution.fitness.key(), "fitness diverged"
        for field in ("evaluations", "eval_full", "eval_incremental"):
            got = getattr(served.evolution, field)
            want = getattr(baseline.evolution, field)
            assert got == want, \
                f"{field}: served {got} != in-process {want}"
        assert served.verify()

        # Liveness is heartbeat-driven (idle sockets are only probed
        # every DEFAULT_HEARTBEAT seconds), so the dead worker may
        # linger in /v1/workers briefly after the kill.
        wait_for(lambda: client.workers()["live"] == 1, 30,
                 "fleet to reap the killed worker")
        view = client.workers()
        assert view["cluster"] is True
        assert view["workers"][0]["name"] == "smoke-w2"
        metrics = client.metrics()
        assert metrics["rcgp_cluster_workers_live"] == 1.0
        assert metrics["rcgp_cluster_spans_remote_total"] > 0, \
            "no replay span ever ran on a remote worker"

        slices = [event for event in client.telemetry(job_id)
                  if event.get("event") == "job_slice"
                  and event.get("cluster_workers")]
        assert slices, "no job_slice telemetry names a remote worker"
        names = {name for event in slices
                 for name in event["cluster_workers"]}
        assert names <= {"smoke-w1", "smoke-w2"}, names

        print("cluster smoke OK:",
              json.dumps({
                  "benchmark": args.benchmark,
                  "evaluations": served.evolution.evaluations,
                  "spans_remote":
                      metrics["rcgp_cluster_spans_remote_total"],
                  "slice_workers": sorted(names),
              }))
        return 0
    finally:
        serve.send_signal(signal.SIGTERM)
        code = serve.wait(timeout=60)
        assert code == 0, f"rcgp serve drained with exit {code}"
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
                worker.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
