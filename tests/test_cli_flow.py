"""Unit tests for the CLI and the file-level flow front-end."""

import json
import os

import pytest

from repro.api import synthesize
from repro.cli import main
from repro.errors import ParseError
from repro.flow import load_spec
from repro.io import (MAX_INPUTS, write_aiger, write_bench, write_blif,
                      write_verilog)
from repro.io.rqfp_json import read_rqfp_json
from repro.logic.bitops import full_mask, variable_pattern
from repro.logic.truth_table import TruthTable
from repro.networks.aig import Aig, lit

AND_BLIF = """.model andgate
.inputs a b
.outputs y
.names a b y
11 1
.end
"""

XOR_V = """module xorm(a, b, y);
  input a, b;
  output y;
  assign y = a ^ b;
endmodule
"""


@pytest.fixture
def blif_file(tmp_path):
    path = tmp_path / "and.blif"
    path.write_text(AND_BLIF)
    return str(path)


class TestLoadSpec:
    def test_blif(self, blif_file):
        tables, name = load_spec(blif_file)
        assert name == "andgate"
        assert tables == [TruthTable.from_function(lambda a, b: a & b, 2)]

    def test_verilog(self, tmp_path):
        path = tmp_path / "xor.v"
        path.write_text(XOR_V)
        tables, name = load_spec(str(path))
        assert name == "xorm"
        assert tables == [TruthTable.from_function(lambda a, b: a ^ b, 2)]

    def test_pla(self, tmp_path):
        path = tmp_path / "f.pla"
        path.write_text(".i 2\n.o 1\n11 1\n.e\n")
        tables, name = load_spec(str(path))
        assert name == "f"
        assert tables[0].count_ones() == 1

    def test_real(self, tmp_path):
        path = tmp_path / "toffoli.real"
        path.write_text(".numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n")
        tables, _ = load_spec(str(path))
        assert len(tables) == 3

    def test_aag(self, tmp_path):
        path = tmp_path / "g.aag"
        path.write_text("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        tables, _ = load_spec(str(path))
        assert tables[0] == TruthTable.from_function(lambda a, b: a & b, 2)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.xyz"
        path.write_text("")
        with pytest.raises(ParseError):
            load_spec(str(path))

    def test_binary_aiger_supported(self, tmp_path):
        from repro.io.aiger import write_aiger_binary
        from repro.networks.convert import tables_to_aig
        aig = tables_to_aig([TruthTable.from_function(lambda a, b: a | b, 2)])
        path = tmp_path / "x.aig"
        path.write_bytes(write_aiger_binary(aig))
        tables, _ = load_spec(str(path))
        assert tables == aig.to_truth_tables()

    def test_empty_aiger_rejected(self, tmp_path):
        path = tmp_path / "x.aig"
        path.write_text("")
        with pytest.raises(ParseError):
            load_spec(str(path))

    @pytest.mark.parametrize("num_inputs", [17, 20])
    def test_wide_design_loads_alike_in_every_format(self, tmp_path,
                                                     num_inputs):
        """Up to ``MAX_INPUTS`` every format gives the same tables; an
        AIG simulates in 2^16-pattern chunks above 16 inputs."""
        last = num_inputs - 1
        covers = [["11" + "-" * (last - 1), "-" * (last - 2) + "01-",
                   "-" * last + "1"],
                  ["0----1" + "-" * (last - 6) + "1"]]
        aig = Aig(num_inputs, name="wide")
        for cubes in covers:
            aig.add_output(aig.add_or_many([
                aig.add_and_many([lit(aig.inputs[i], ch == "0")
                                  for i, ch in enumerate(cube) if ch != "-"])
                for cube in cubes]))
        words = [variable_pattern(i, num_inputs) for i in range(num_inputs)]
        mask = full_mask(num_inputs)
        expected = []
        for cubes in covers:
            bits = 0
            for cube in cubes:
                word = mask
                for i, ch in enumerate(cube):
                    if ch != "-":
                        word &= words[i] if ch == "1" else ~words[i] & mask
                bits |= word
            expected.append(TruthTable(num_inputs, bits))
        pla = [f".i {num_inputs}", f".o {len(covers)}"]
        for o, cubes in enumerate(covers):
            pla += [cube + " " + "01"[o == 0] + "01"[o == 1]
                    for cube in cubes]
        files = {"wide.pla": "\n".join(pla + [".e", ""]),
                 "wide.blif": write_blif(aig), "wide.aag": write_aiger(aig),
                 "wide.v": write_verilog(aig), "wide.bench": write_bench(aig)}
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            assert load_spec(str(path))[0] == expected, name

    def test_design_above_the_input_bound_rejected(self, tmp_path):
        aig = Aig(MAX_INPUTS + 1, name="wide")
        aig.add_output(aig.add_and(lit(aig.inputs[0]), lit(aig.inputs[-1])))
        for name, text in (("w.blif", write_blif(aig)),
                           ("w.aag", write_aiger(aig)),
                           ("w.v", write_verilog(aig)),
                           ("w.bench", write_bench(aig))):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ParseError):
                load_spec(str(path))


class TestSynthesizeFile:
    def test_end_to_end(self, blif_file):
        from repro.core.config import RcgpConfig
        result = synthesize(blif_file, RcgpConfig(generations=100, seed=1))
        assert result.verify()
        assert result.netlist.name == "andgate"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "decoder_2_4" in out and "intdiv10" in out

    def test_bench_decoder(self, capsys, tmp_path):
        out_path = str(tmp_path / "decoder.json")
        rc = main(["bench", "decoder_2_4", "--generations", "100",
                   "--seed", "3", "-o", out_path, "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified      : True" in out
        netlist = read_rqfp_json(out_path)
        assert netlist.num_inputs == 2

    def test_synth_blif(self, capsys, blif_file):
        rc = main(["synth", blif_file, "--generations", "50", "--seed", "2"])
        assert rc == 0
        assert "rcgp" in capsys.readouterr().out

    def test_exact_and_like_benchmark(self, capsys):
        rc = main(["exact", "decoder_2_4", "--conflicts", "30",
                   "--max-gates", "2"])
        assert rc == 2  # budget exhausted -> timeout path
        assert "timeout" in capsys.readouterr().out

    def test_unknown_benchmark_errors(self, capsys):
        with pytest.raises(KeyError):
            main(["bench", "not_a_benchmark"])

    def test_table_runs_subset(self, capsys, monkeypatch):
        monkeypatch.setenv("RCGP_BENCH_GENERATIONS", "60")
        rc = main(["table", "1", "decoder_2_4", "--no-exact"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "decoder_2_4" in out
        assert "measured" in out


class TestCliVerifyStats:
    def test_verify_equivalent(self, capsys, tmp_path, blif_file):
        out_path = str(tmp_path / "and.json")
        assert main(["bench", "decoder_2_4", "--generations", "50",
                     "--seed", "4", "-o", str(tmp_path / "dec.json")]) == 0
        # verify against a matching design: write decoder as PLA
        pla = tmp_path / "dec.pla"
        pla.write_text(".i 2\n.o 4\n00 1000\n10 0100\n01 0010\n11 0001\n.e\n")
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "dec.json"), str(pla)])
        out = capsys.readouterr().out
        assert rc == 0 and "EQUIVALENT" in out

    def test_verify_detects_mismatch(self, capsys, tmp_path):
        assert main(["bench", "decoder_2_4", "--generations", "30",
                     "--seed", "5", "-o", str(tmp_path / "dec.json")]) == 0
        wrong = tmp_path / "wrong.pla"
        wrong.write_text(".i 2\n.o 4\n00 0100\n10 1000\n01 0010\n11 0001\n.e\n")
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "dec.json"), str(wrong)])
        out = capsys.readouterr().out
        assert rc == 1 and "NOT EQUIVALENT" in out

    def test_verify_interface_mismatch(self, capsys, tmp_path, blif_file):
        assert main(["bench", "decoder_2_4", "--generations", "20",
                     "--seed", "6", "-o", str(tmp_path / "dec.json")]) == 0
        capsys.readouterr()
        rc = main(["verify", str(tmp_path / "dec.json"), blif_file])
        assert rc == 1
        assert "mismatch" in capsys.readouterr().out

    def test_stats(self, capsys, tmp_path):
        """``stats`` prices an artifact as ``bench`` reported it, also on
        intdiv6, whose ASAP levels cost more buffers than the exact
        plan."""
        def cost_fields(out, label):
            line = next(line for line in out.splitlines()
                        if line.startswith(label))
            fields = dict(field.split("=") for field in
                          line.split(":", 1)[1].split())
            del fields["T"]
            return fields

        for name, generations, seed in (("full_adder", "80", "7"),
                                        ("intdiv6", "20", "1")):
            path = str(tmp_path / f"{name}.json")
            assert main(["bench", name, "--generations", generations,
                         "--seed", seed, "-o", path]) == 0
            reported = cost_fields(capsys.readouterr().out, "rcgp ")
            rc = main(["stats", path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "JJs" in out and "clean" in out
            assert cost_fields(out, "cost ") == reported, name
            assert set(reported) == {"n_r", "n_b", "JJs", "n_d", "n_g"}


class TestCliInputErrors:
    """Bad input ends in one ``rcgp: error: ...`` line and status 2."""

    def test_telemetry_creates_missing_parent_dirs(self, capsys, tmp_path,
                                                    blif_file):
        path = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        rc = main(["synth", blif_file, "--generations", "20", "--seed",
                   "2", "--telemetry", str(path)])
        assert rc == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["event"] == "job_start"
        assert events[-1]["event"] == "job_end"

    def test_bad_option_value_is_one_line(self, capsys, blif_file):
        rc = main(["synth", blif_file, "--mutation-rate", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("rcgp: error: ")
        assert err.count("\n") == 1 and "mutation_rate" in err

    def test_missing_input_file_is_one_line(self, capsys, tmp_path):
        rc = main(["synth", str(tmp_path / "x.pla")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("rcgp: error: ")
        assert err.count("\n") == 1 and "x.pla" in err
