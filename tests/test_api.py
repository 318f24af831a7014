"""Tests for the ``repro.api`` facade, the only synthesis entry point.

The facade must match a direct engine run bit-for-bit — plus sessions,
stores and file paths.
"""

import pytest

import repro
import repro.core
import repro.flow
from repro.api import Session, synthesize
from repro.core.config import RcgpConfig
from repro.bench.registry import get_benchmark
from repro.core.engine import EvolutionRun, read_telemetry
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
        """History is always recorded (there is no switch): a result
        under the default config starts at the initial fitness."""
        result = synthesize(_xor_spec(), RcgpConfig(generations=60, seed=3))
        evolution = result.evolution
        assert evolution.history[0] == (0, evolution.initial_fitness)


class TestPublicSurface:
    def test_retired_entry_points_are_gone(self):
        import importlib
        for module in (repro, repro.core, repro.flow):
            for name in ("rcgp_synthesize", "synthesize_file", "evolve",
                         "mutate"):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in getattr(module, "__all__", ())
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.evolution")
        assert not hasattr(repro.core.engine, "ProgressCallback")
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

    def test_jobs_sharing_a_path_keep_every_event(self, tmp_path):
        """Sliced jobs that share one ``telemetry_path`` append to it;
        only the session's first write of the path truncates it."""
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "stale"}\n')
        config = RcgpConfig(generations=200, seed=1, mutation_rate=0.08,
                            max_mutated_genes=8, telemetry_path=str(path))
        with Session(quantum=50) as session:
            jobs = [session.submit(get_benchmark(name).spec(), config,
                                   name=name)
                    for name in ("decoder_2_4", "graycode4")]
            session.run()
        events = read_telemetry(str(path))
        assert "stale" not in [e["event"] for e in events]
        for job in jobs:
            tags = [e["event"] for e in events if e["job_id"] == job.id]
            assert tags.count("job_start") == tags.count("job_end") == 1
            starts = [i for i, tag in enumerate(tags) if tag == "run_start"]
            ends = [i for i, tag in enumerate(tags) if tag == "run_end"]
            assert len(starts) == len(ends) == 4, job.name
            assert all(s < e for s, e in zip(starts, ends))
            assert all(e < s for e, s in zip(ends, starts[1:]))
            assert tags.count("generation") == 200, job.name


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
