"""RevLib ``.real`` reader / writer.

The ``.real`` format describes reversible circuits: a header
(``.version .numvars .variables .inputs .outputs .constants .garbage``)
followed by a gate list between ``.begin`` and ``.end``.  Gate tokens:
``t<n>`` = Toffoli with ``n-1`` controls, ``f<n>`` = Fredkin with
``n-2`` controls; a leading ``-`` on a variable denotes a negative
control.  Declared sizes must match what the file lists (``.numvars``
against ``.variables``, ``.constants`` and ``.garbage``), and the
non-constant wires — the specification's inputs — are bounded by
:data:`repro.io.limits.MAX_INPUTS`.
"""

from __future__ import annotations

from typing import List, Optional, TextIO, Union

from ..errors import ParseError
from ..reversible.circuit import ReversibleCircuit
from ..reversible.gates import Control, McfGate, MctGate
from .limits import MAX_INPUTS, parse_count


def parse_real(text: str, filename: str = "<string>") -> ReversibleCircuit:
    num_wires: Optional[int] = None
    variables: List[str] = []
    constants: List[Optional[int]] = []
    garbage: List[bool] = []
    name = ""
    gates = []
    in_body = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key.startswith("."):
            spec = tokens[1] if len(tokens) > 1 else ""
            if key == ".numvars":
                num_wires = parse_count(spec, ".numvars", filename, lineno)
            elif key == ".variables":
                variables = tokens[1:]
            elif key in (".inputs", ".outputs"):
                pass  # cosmetic labels; wire identity comes from .variables
            elif key in (".constants", ".garbage"):
                if spec.strip("-01"):
                    raise ParseError(f"{key} takes '-', '0' and '1', got "
                                     f"{spec!r}", filename, lineno)
                if key == ".constants":
                    constants = [None if ch == "-" else int(ch)
                                 for ch in spec]
                else:
                    garbage = [ch == "1" for ch in spec]
            elif key == ".begin":
                in_body = True
            elif key == ".end":
                in_body = False
            elif key in (".version", ".mode", ".define", ".module"):
                if key == ".module" and len(tokens) > 1:
                    name = tokens[1]
            else:
                raise ParseError(f"unsupported .real directive {key}",
                                 filename, lineno)
            continue
        if not in_body:
            raise ParseError(f"gate line outside .begin/.end: {line!r}",
                             filename, lineno)
        if num_wires is None:
            raise ParseError("gate before .numvars", filename, lineno)

        kind = key[0].lower()
        try:
            arity = int(key[1:])
        except ValueError:
            raise ParseError(f"bad gate token {key!r}", filename, lineno) from None
        operands = tokens[1:]
        if len(operands) != arity:
            raise ParseError(
                f"gate {key} expects {arity} operands, got {len(operands)}",
                filename, lineno)

        def wire_of(token: str):
            negative = token.startswith("-")
            label = token[1:] if negative else token
            if variables:
                wire = variables.index(label) if label in variables else -1
            else:  # the default names x0, x1, ..., without the list
                wire = int(label[1:]) if label[:1] == "x" \
                    and label[1:].isdecimal() else -1
                if f"x{wire}" != label:
                    wire = -1
            if not 0 <= wire < num_wires:
                raise ParseError(f"unknown variable {label!r}",
                                 filename, lineno)
            return wire, negative

        try:
            if kind == "t":
                *ctrl_tokens, target_token = operands
                target, neg = wire_of(target_token)
                if neg:
                    raise ParseError("target cannot be negated", filename,
                                     lineno)
                controls = tuple(
                    Control(w, not negative)
                    for w, negative in (wire_of(tok) for tok in ctrl_tokens)
                )
                gates.append(MctGate(target, controls))
            elif kind == "f":
                *ctrl_tokens, token_a, token_b = operands
                ta, neg_a = wire_of(token_a)
                tb, neg_b = wire_of(token_b)
                if neg_a or neg_b:
                    raise ParseError("swap targets cannot be negated",
                                     filename, lineno)
                controls = tuple(
                    Control(w, not negative)
                    for w, negative in (wire_of(tok) for tok in ctrl_tokens)
                )
                gates.append(McfGate(ta, tb, controls))
            else:
                raise ParseError(f"unsupported gate kind {key!r}",
                                 filename, lineno)
        except ValueError as exc:  # the gate's own wire checks
            raise ParseError(f"bad gate {line!r}: {exc}", filename,
                             lineno) from None

    if num_wires is None:
        raise ParseError("missing .numvars", filename)
    for key, listed in ((".variables", variables), (".constants", constants),
                        (".garbage", garbage)):
        if listed and len(listed) != num_wires:
            raise ParseError(f"{key} lists {len(listed)} wires, .numvars "
                             f"declares {num_wires}", filename)
    inputs = num_wires - sum(c is not None for c in constants)
    if inputs > MAX_INPUTS:
        raise ParseError(f"{inputs} inputs exceed the limit of "
                         f"{MAX_INPUTS}", filename)
    if not variables:
        variables = [f"x{i}" for i in range(num_wires)]
    circuit = ReversibleCircuit(
        num_wires,
        name=name,
        wire_names=variables,
        constants=constants or [None] * num_wires,
        garbage=garbage or [False] * num_wires,
    )
    for gate in gates:
        circuit.add_gate(gate)
    return circuit


def read_real(path_or_file: Union[str, TextIO]) -> ReversibleCircuit:
    if hasattr(path_or_file, "read"):
        return parse_real(path_or_file.read())
    with open(path_or_file) as handle:
        return parse_real(handle.read(), filename=str(path_or_file))


def write_real(circuit: ReversibleCircuit) -> str:
    lines = [".version 2.0"]
    lines.append(f".numvars {circuit.num_wires}")
    lines.append(".variables " + " ".join(circuit.wire_names))
    lines.append(".constants " + "".join(
        "-" if c is None else str(c) for c in circuit.constants))
    lines.append(".garbage " + "".join(
        "1" if g else "0" for g in circuit.garbage))
    lines.append(".begin")
    for gate in circuit.gates:
        if isinstance(gate, MctGate):
            arity = len(gate.controls) + 1
            tokens = [f"t{arity}"]
            for control in gate.controls:
                prefix = "" if control.positive else "-"
                tokens.append(prefix + circuit.wire_names[control.wire])
            tokens.append(circuit.wire_names[gate.target])
        else:
            arity = len(gate.controls) + 2
            tokens = [f"f{arity}"]
            for control in gate.controls:
                prefix = "" if control.positive else "-"
                tokens.append(prefix + circuit.wire_names[control.wire])
            tokens.append(circuit.wire_names[gate.target_a])
            tokens.append(circuit.wire_names[gate.target_b])
        lines.append(" ".join(tokens))
    lines.append(".end")
    return "\n".join(lines) + "\n"
