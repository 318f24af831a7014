"""Smoke tests: every example script must run to completion.

Examples are user-facing documentation; a broken one is a bug.  Heavy
examples run here with reduced environment budgets (or are marked slow).
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(name, env_extra=None, timeout=300):
    env = dict(os.environ)
    env.update(env_extra or {})
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert result.returncode == 0, \
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    return result.stdout


class TestExampleScripts:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "functionally verified   : True" in out

    def test_decoder_walkthrough(self):
        out = _run("decoder_walkthrough.py")
        assert "Step 3: RQFP buffer insertion" in out
        assert "this run" in out

    def test_windowed_large_circuit(self):
        out = _run("windowed_large_circuit.py",
                   env_extra={"RCGP_WINDOW_CIRCUIT": "intdiv4"})
        assert "windowed optimization" in out
        assert "final circuit" in out

    def test_reciprocal_sweep_small(self):
        out = _run("reciprocal_sweep.py",
                   env_extra={"RCGP_SWEEP_MAX_BITS": "4"})
        assert "intdiv4" in out

    def test_full_adder_three_ways_without_exact(self):
        out = _run("full_adder_three_ways.py",
                   env_extra={"RCGP_SKIP_EXACT": "1"})
        assert "Conventional reversible logic" in out
        assert "verified       : True" in out

    def test_build_revlib_suite(self, tmp_path):
        out = _run("build_revlib_suite.py", timeout=420)
        assert "ham3" in out and "verified      : True" in out

    def test_parallel_speedup(self):
        out = _run("parallel_speedup.py",
                   env_extra={"RCGP_SPEEDUP_CIRCUIT": "decoder_2_4",
                              "RCGP_SPEEDUP_GENERATIONS": "40",
                              "RCGP_SPEEDUP_OFFSPRING": "8",
                              "RCGP_SPEEDUP_WORKERS": "2"})
        assert "identical result" in out
        assert "pooled (workers=2)" in out

    def test_incremental_speedup(self):
        out = _run("incremental_speedup.py",
                   env_extra={"RCGP_INCR_CIRCUIT": "alu",
                              "RCGP_INCR_MUTANTS": "60",
                              "RCGP_INCR_GENERATIONS": "30",
                              "RCGP_INCR_OFFSPRING": "4"})
        assert "fitness keys identical" in out
        assert "eval_incr" in out

    @pytest.mark.slow
    def test_pareto_front(self):
        out = _run("pareto_front.py", timeout=420)
        assert "Pareto archive" in out
        assert "verified against the specification" in out

    @pytest.mark.slow
    def test_convergence_curve(self):
        out = _run("convergence_curve.py", timeout=420)
        assert "multi-seed summary" in out
