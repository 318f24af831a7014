"""Tests for the ``repro.api`` facade, the only synthesis entry point.

The facade must match a direct engine run bit-for-bit — plus sessions,
stores and file paths.
"""

import repro
import repro.core
import repro.flow
from repro.api import Session, synthesize
from repro.core.config import RcgpConfig
from repro.core.engine import EvolutionRun
from repro.core.synthesis import SynthesisResult, initialize_netlist
from repro.io.rqfp_json import netlist_to_dict
from repro.logic.truth_table import TruthTable, tabulate_word

TOFFOLI_REAL = (".numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n")


def _real_fixture(tmp_path) -> str:
    path = tmp_path / "toffoli.real"
    path.write_text(TOFFOLI_REAL)
    return str(path)


def _xor_spec():
    return [TruthTable.from_function(lambda a, b: a ^ b, 2)]


def _decoder_spec():
    return tabulate_word(lambda x: 1 << x, 2, 4)


class TestSynthesize:
    def test_tables_in_result_out(self):
        result = synthesize(_xor_spec(), RcgpConfig(generations=60, seed=3))
        assert isinstance(result, SynthesisResult)
        assert result.verify()
        assert result.evolution.fitness.functional

    def test_wide_spec_reaches_the_sat_leg(self):
        """15 inputs is above the default exhaustive limit (14): sampled
        simulation plus SAT, and a table too wide for a decimal int."""
        from repro.bench.extras import one_hot_checker
        result = synthesize(one_hot_checker(15),
                            RcgpConfig(generations=20, seed=3))
        assert result.evolution.sat_calls > 0
        assert result.evolution.fitness.functional

    def test_matches_direct_engine_run(self):
        """The facade adds scheduling, not different results."""
        spec = _decoder_spec()
        config = RcgpConfig(generations=100, seed=4)
        direct = EvolutionRun(spec, config,
                              initial=initialize_netlist(spec)).run()
        result = synthesize(spec, config)
        assert netlist_to_dict(result.evolution.netlist) == \
            netlist_to_dict(direct.netlist)
        assert result.evolution.evaluations == direct.evaluations
        assert result.evolution.fitness.key() == direct.fitness.key()

    def test_accepts_design_file_path(self, tmp_path):
        path = _real_fixture(tmp_path)
        result = synthesize(path, RcgpConfig(generations=40, seed=1))
        assert result.verify()

    def test_session_reuses_completed_jobs(self, tmp_path):
        spec = _xor_spec()
        config = RcgpConfig(generations=60, seed=3)
        with Session(str(tmp_path)) as session:
            first = session.synthesize(spec, config)
        with Session(str(tmp_path)) as session:
            job = session.submit(spec, config)
            assert job.from_store
            second = synthesize(spec, config, session=session)
        assert netlist_to_dict(first.evolution.netlist) == \
            netlist_to_dict(second.evolution.netlist)

    def test_session_many_jobs(self):
        specs = {"xor": _xor_spec(), "decoder": _decoder_spec()}
        with Session() as session:
            jobs = {name: session.submit(spec,
                                         RcgpConfig(generations=40, seed=2),
                                         name=name)
                    for name, spec in specs.items()}
            session.run()
            results = {name: job.result() for name, job in jobs.items()}
        assert all(r.verify() for r in results.values())
        assert set(session.results()) == {job.id for job in jobs.values()}

    def test_track_history_survives_the_facade(self):
        config = RcgpConfig(generations=60, seed=3, track_history=True)
        result = synthesize(_xor_spec(), config)
        assert result.evolution.history
        assert result.evolution.history[0][0] == 0


class TestPublicSurface:
    def test_retired_entry_points_are_gone(self):
        for module in (repro, repro.core, repro.flow):
            for name in ("rcgp_synthesize", "synthesize_file"):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in getattr(module, "__all__", ())
        assert repro.synthesize is synthesize
        assert repro.Session is Session
        for name in ("synthesize", "Session", "Scheduler", "JobStore",
                     "JobSpec", "Job"):
            assert name in repro.__all__


class TestSessionTelemetry:
    def test_transient_session_honors_config_telemetry(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        config = RcgpConfig(generations=40, seed=2, telemetry_path=path)
        synthesize(_xor_spec(), config)
        lines = open(path).read().splitlines()
        assert lines, "telemetry file should not be empty"
        import json
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "job_start"
        assert all("job_id" in e for e in events)
        assert any(e["event"] == "run_end" for e in events)


class TestPackageVersion:
    def test_pyproject_matches_package_version(self):
        """The distribution version and ``repro.__version__`` (which
        ``/healthz`` reports) are one number.  Read with a regex: CI's
        oldest Python has no ``tomllib``."""
        import os
        import re
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "pyproject.toml")
        with open(path) as handle:
            match = re.search(r'^version\s*=\s*"([^"]+)"', handle.read(),
                              re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__
