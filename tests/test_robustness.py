"""Fault-injection tests: malformed inputs must fail loudly and cleanly.

Every failure here must raise a :class:`~repro.errors.ReproError`
subclass (or ValueError for plain argument validation) — never a bare
KeyError/IndexError escaping from internals.
"""

import contextlib
import json
import random
import signal

import pytest

from repro.errors import NetlistError, ParseError, ReproError
from repro.flow import load_spec
from repro.io import MAX_INPUTS
from repro.io.aiger import parse_aiger, parse_aiger_binary
from repro.io.blif import parse_blif
from repro.io.pla import parse_pla
from repro.io.real import parse_real
from repro.io.rqfp_json import netlist_from_dict, read_rqfp_json
from repro.io.verilog import parse_verilog
from repro.rqfp.gate import NORMAL_CONFIG
from repro.rqfp.netlist import CONST_PORT, RqfpNetlist


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no verdict within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: Design files whose headers declare more than they hold, or fields
#: that are not what they should be: each must raise ParseError at once.
MALFORMED_DESIGNS = [
    # Allocating the declared outputs ran out of memory.
    ("huge_outputs.pla", ".i 2\n.o 4294967296\n11 1\n.e\n"),
    # Expanding the cube looped over 2^40 minterms.
    ("wide_cube.pla", ".i 40\n.o 1\n" + "-" * 40 + " 1\n.e\n"),
    ("too_many_inputs.pla", f".i {MAX_INPUTS + 1}\n.o 1\n.e\n"),
    ("text_count.pla", ".i two\n.o 1\n.e\n"),
    ("missing_count.pla", ".i\n.o 1\n.e\n"),
    ("missing_type.pla", ".i 1\n.o 1\n.type\n1 1\n.e\n"),
    ("short_row.pla", ".i 3\n.o 1\n11 1\n.e\n"),
    # Five ANDs declared, one present: an IndexError escaped.
    ("short.aag", "aag 3 2 0 1 5\n2\n4\n6\n6 2 4\n"),
    # Creating the declared inputs ran for seconds.
    ("huge.aag", "aag 4294967296 4294967296 0 0 0\n"),
    ("huge.aig", "aig 4294967296 4294967296 0 0 0\n"),
    ("negative.aag", "aag 1 -1 0 0 0\n"),
    ("text_output.aag", "aag 1 1 0 1 0\n2\nz\n"),
    ("blank_input.aag", "aag 1 1 0 1 0\n\n2\n"),
    ("bad_and.aag", "aag 2 1 0 1 1\n2\n4\n4 2 q\n"),
    ("bad_symbol.aag", "aag 1 1 0 1 0\n2\n2\ni0\n"),
    ("text_symbol.aag", "aag 1 1 0 1 0\n2\n2\nix a\n"),
    ("bytes_short.aig", "aig 3 1 0 1 2\n6\n"),
    ("text_header.aig", "aig 1 x 0 0 0\n"),
    ("text_output.aig", "aig 1 1 0 1 0\nz\n"),
    # Allocating the declared wires ran out of memory.
    ("huge.real", ".numvars 4294967296\n.begin\n.end\n"),
    ("text_count.real", ".numvars two\n.begin\n.end\n"),
    ("names_short.real", ".numvars 3\n.variables a b\n.begin\n.end\n"),
    ("constants_short.real",
     ".numvars 2\n.variables a b\n.constants 0\n.begin\n.end\n"),
    ("bad_constant.real",
     ".numvars 2\n.variables a b\n.constants 0x\n.begin\n.end\n"),
    ("duplicate_control.real",
     ".numvars 2\n.variables a b\n.begin\nt3 a a b\n.end\n"),
    ("equal_targets.real",
     ".numvars 2\n.variables a b\n.begin\nf2 a a\n.end\n"),
    ("target_controls.real",
     ".numvars 2\n.variables a b\n.begin\nt2 b b\n.end\n"),
    ("unknown_default.real", ".numvars 2\n.begin\nt1 x2\n.end\n"),
]


def _minterm_expansion(rows, num_outputs):
    """Reference PLA semantics: enumerate every minterm of each cube."""
    bits = [0] * num_outputs
    for row in rows:
        pattern, output = row.split()
        dashes = [i for i, ch in enumerate(pattern) if ch == "-"]
        for fill in range(1 << len(dashes)):
            t = sum(1 << i for i, ch in enumerate(pattern) if ch == "1")
            for k, i in enumerate(dashes):
                if (fill >> k) & 1:
                    t |= 1 << i
            for o, ch in enumerate(output):
                if ch == "1":
                    bits[o] |= 1 << t
    return bits


class TestMalformedFiles:
    @pytest.mark.parametrize("text", [
        "",                                   # empty
        ".model x\n.inputs a\n.outputs",      # dangling outputs... legal-ish
        ".names a b\n11 1\n",                 # cover before model: rows ok?
    ])
    def test_blif_garbage_never_crashes_weirdly(self, text):
        try:
            parse_blif(text)
        except ReproError:
            pass  # expected failure mode

    def test_blif_cover_without_names(self):
        with pytest.raises(ParseError):
            parse_blif(".model m\n.inputs a\n.outputs y\n11 1\n.end\n")

    @pytest.mark.parametrize("text", [
        "aag",                       # truncated header
        "aag 1 1 0 0 0 extra\n2\n",  # too many fields
        "aag x y z w v\n",           # non-numeric
    ])
    def test_aiger_bad_headers(self, text):
        with pytest.raises(ParseError):
            parse_aiger(text)

    def test_binary_aiger_bad_delta(self):
        # AND whose delta would make rhs negative.
        with pytest.raises(ParseError):
            parse_aiger_binary(b"aig 2 1 0 0 1\n\xff\xff\xff\xff\xff")

    @pytest.mark.parametrize("text", [
        "module m(a, y; input a; output y; endmodule",  # broken portlist
        "module m(a, y); input a; output y; assign y = a +; endmodule",
        "module m(a, y); input a; output y; assign y = (a; endmodule",
    ])
    def test_verilog_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_verilog(text)

    @pytest.mark.parametrize("text", [
        ".numvars 2\n.variables a b\n.begin\nt5 a b\n.end\n",  # arity
        ".numvars 2\n.variables a b\n.begin\nq2 a b\n.end\n",  # bad kind
        ".numvars 2\n.variables a b\n.begin\nt2 -a -b\n.end\n",  # neg target
    ])
    def test_real_bad_gates(self, text):
        with pytest.raises(ParseError):
            parse_real(text)
    @pytest.mark.parametrize("name,text", MALFORMED_DESIGNS,
                             ids=[name for name, _ in MALFORMED_DESIGNS])
    def test_declared_sizes_and_fields_are_checked(self, tmp_path, name,
                                                   text):
        path = tmp_path / name
        path.write_text(text)
        with _deadline(5), pytest.raises(ParseError):
            load_spec(str(path))

    def test_real_default_names_resolve(self):
        circuit = parse_real(".numvars 2\n.begin\nt2 x0 x1\n.end\n")
        assert circuit.gates[0].target == 1

    def test_pla_cubes_match_minterm_expansion(self):
        """Bit-parallel cube expansion equals the per-minterm loop."""
        rng = random.Random(17)
        for _ in range(200):
            num_inputs = rng.randint(1, 8)
            num_outputs = rng.randint(1, 3)
            rows = ["".join(rng.choice("01-") for _ in range(num_inputs))
                    + " " + "".join(rng.choice("01-")
                                    for _ in range(num_outputs))
                    for _ in range(rng.randint(0, 6))]
            text = "\n".join([f".i {num_inputs}", f".o {num_outputs}"]
                             + rows + [".e"])
            tables, _, _ = parse_pla(text)
            assert [t.bits for t in tables] == \
                _minterm_expansion(rows, num_outputs)


class TestMalformedJson:
    def _valid(self):
        return {
            "format": "rqfp-netlist",
            "version": 1,
            "num_inputs": 1,
            "gates": [{"inputs": [1, 0, 0], "config": "100-010-001"}],
            "outputs": [{"port": 2}],
        }

    def test_valid_parses(self):
        netlist = netlist_from_dict(self._valid())
        assert netlist.num_gates == 1

    def test_forward_reference_rejected(self):
        data = self._valid()
        data["gates"][0]["inputs"] = [9, 0, 0]
        with pytest.raises(NetlistError):
            netlist_from_dict(data)

    def test_bad_config_string_rejected(self):
        data = self._valid()
        data["gates"][0]["config"] = "nonsense"
        with pytest.raises(ValueError):
            netlist_from_dict(data)

    def test_config_out_of_range_rejected(self):
        data = self._valid()
        data["gates"][0]["config"] = 700
        with pytest.raises(ValueError):
            netlist_from_dict(data)

    def test_output_port_out_of_range(self):
        data = self._valid()
        data["outputs"][0]["port"] = 99
        with pytest.raises(NetlistError):
            netlist_from_dict(data)

    def test_read_rejects_non_json_payload(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            read_rqfp_json(str(path))


class TestNetlistGuards:
    def test_simulate_port_count_guard(self):
        netlist = RqfpNetlist(2)
        with pytest.raises(NetlistError):
            netlist.simulate([1, 1, 1], 1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(NetlistError):
            RqfpNetlist(-1)

    def test_gate_output_index_guard(self):
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        with pytest.raises(NetlistError):
            netlist.gate_output_port(0, 3)

    def test_windowing_guards(self):
        from repro.core.windowing import analyze_window
        netlist = RqfpNetlist(1)
        netlist.add_gate(1, CONST_PORT, CONST_PORT, NORMAL_CONFIG)
        with pytest.raises(NetlistError):
            analyze_window(netlist, -1, 1)
