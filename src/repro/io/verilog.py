"""Structural Verilog reader / writer (gate-level RTL subset).

The reader accepts the netlist dialect logic-synthesis tools exchange:
one module, ``input``/``output``/``wire`` declarations, primitive gate
instantiations (``and``, ``or``, ``nand``, ``nor``, ``xor``, ``xnor``,
``not``, ``buf``) and continuous ``assign`` statements over ``&``,
``|``, ``^``, ``~``, ``?:``, parentheses and the constants ``1'b0`` /
``1'b1``.  That covers what the paper's flow means by "RTL description
inputs" for combinational blocks.  The writer emits flat assign-style
Verilog from an AIG.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, TextIO, Tuple, Union

from ..errors import ParseError
from ..networks.aig import Aig, CONST0, CONST1, lit_not

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_$]*)|(?P<const>1'b[01])"
    r"|(?P<op>[()~&|^?:])|(?P<bad>\S))"
)


class _ExprParser:
    """Recursive-descent parser for assign right-hand sides."""

    def __init__(self, text: str, aig: Aig, resolve, filename: str):
        self.tokens = self._lex(text, filename)
        self.pos = 0
        self.aig = aig
        self.resolve = resolve
        self.filename = filename

    @staticmethod
    def _lex(text: str, filename: str) -> List[Tuple[str, str]]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                break
            pos = match.end()
            if match.lastgroup == "bad":
                raise ParseError(
                    f"unexpected character {match.group('bad')!r} in expression",
                    filename)
            if match.lastgroup is not None:
                tokens.append((match.lastgroup, match.group(match.lastgroup)))
        return tokens

    def _peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of expression", self.filename)
        self.pos += 1
        return token

    def _expect(self, value: str) -> None:
        token = self._next()
        if token[1] != value:
            raise ParseError(f"expected {value!r}, got {token[1]!r}",
                             self.filename)

    def parse(self) -> int:
        lit = self._ternary()
        if self._peek() is not None:
            raise ParseError(
                f"trailing tokens in expression: {self.tokens[self.pos:]}",
                self.filename)
        return lit

    def _ternary(self) -> int:
        cond = self._or_expr()
        if self._peek() == ("op", "?"):
            self._next()
            if_true = self._ternary()
            self._expect(":")
            if_false = self._ternary()
            return self.aig.add_mux(cond, if_false, if_true)
        return cond

    def _or_expr(self) -> int:
        lit = self._xor_expr()
        while self._peek() == ("op", "|"):
            self._next()
            lit = self.aig.add_or(lit, self._xor_expr())
        return lit

    def _xor_expr(self) -> int:
        lit = self._and_expr()
        while self._peek() == ("op", "^"):
            self._next()
            lit = self.aig.add_xor(lit, self._and_expr())
        return lit

    def _and_expr(self) -> int:
        lit = self._unary()
        while self._peek() == ("op", "&"):
            self._next()
            lit = self.aig.add_and(lit, self._unary())
        return lit

    def _unary(self) -> int:
        token = self._next()
        kind, value = token
        if kind == "op" and value == "~":
            return lit_not(self._unary())
        if kind == "op" and value == "(":
            inner = self._ternary()
            self._expect(")")
            return inner
        if kind == "const":
            return CONST1 if value.endswith("1") else CONST0
        if kind == "id":
            return self.resolve(value)
        raise ParseError(f"unexpected token {value!r}", self.filename)


_GATE_FUNCS = {
    "and": ("and", False),
    "nand": ("and", True),
    "or": ("or", False),
    "nor": ("or", True),
    "xor": ("xor", False),
    "xnor": ("xor", True),
    "buf": ("buf", False),
    "not": ("buf", True),
}


def parse_verilog(text: str, filename: str = "<string>") -> Aig:
    """Parse a single structural-Verilog module into an AIG."""
    # Strip comments.
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)

    module = re.search(r"\bmodule\s+([A-Za-z_][\w$]*)\s*(\(.*?\))?\s*;",
                       text, flags=re.DOTALL)
    if module is None:
        raise ParseError("no module declaration found", filename)
    name = module.group(1)
    end = text.find("endmodule")
    if end < 0:
        raise ParseError("missing endmodule", filename)
    body = text[module.end():end]

    inputs: List[str] = []
    outputs: List[str] = []
    statements = [s.strip() for s in body.split(";") if s.strip()]
    drivers: Dict[str, Tuple[str, object]] = {}

    for statement in statements:
        head = statement.split(None, 1)[0]
        if head in ("input", "output", "wire"):
            rest = statement[len(head):].strip()
            if re.match(r"\[\s*\d+\s*:\s*\d+\s*\]", rest):
                raise ParseError(
                    "vector ports are not supported by the structural reader",
                    filename)
            names = [n.strip() for n in rest.split(",") if n.strip()]
            if head == "input":
                inputs.extend(names)
            elif head == "output":
                outputs.extend(names)
        elif head == "assign":
            match = re.match(r"assign\s+([A-Za-z_][\w$]*)\s*=\s*(.+)$",
                             statement, flags=re.DOTALL)
            if match is None:
                raise ParseError(f"unparsable assign: {statement!r}", filename)
            drivers[match.group(1)] = ("expr", match.group(2))
        elif head in _GATE_FUNCS:
            match = re.match(
                r"\w+\s+(?:[A-Za-z_][\w$]*\s+)?\(([^)]*)\)", statement)
            if match is None:
                raise ParseError(f"unparsable gate: {statement!r}", filename)
            pins = [p.strip() for p in match.group(1).split(",")]
            if len(pins) < 2:
                raise ParseError(f"gate needs >= 2 pins: {statement!r}",
                                 filename)
            drivers[pins[0]] = ("gate", (head, pins[1:]))
        else:
            raise ParseError(f"unsupported statement {statement!r}", filename)

    aig = Aig(name=name)
    signal: Dict[str, int] = {}
    for port in inputs:
        signal[port] = aig.add_input(port)
    building: set = set()

    def resolve(sig: str) -> int:
        if sig in signal:
            return signal[sig]
        if sig in building:
            raise ParseError(f"combinational loop through {sig!r}", filename)
        if sig not in drivers:
            raise ParseError(f"undriven signal {sig!r}", filename)
        building.add(sig)
        kind, payload = drivers[sig]
        if kind == "expr":
            lit = _ExprParser(payload, aig, resolve, filename).parse()
        else:
            func, pins = payload
            op, invert = _GATE_FUNCS[func]
            pin_lits = [resolve(p) for p in pins]
            if op == "buf":
                lit = pin_lits[0]
            elif op == "and":
                lit = aig.add_and_many(pin_lits)
            elif op == "or":
                lit = aig.add_or_many(pin_lits)
            else:  # xor chain
                lit = pin_lits[0]
                for extra in pin_lits[1:]:
                    lit = aig.add_xor(lit, extra)
            if invert:
                lit = lit_not(lit)
        building.discard(sig)
        signal[sig] = lit
        return lit

    for port in outputs:
        aig.add_output(resolve(port), port)
    return aig


def read_verilog(path_or_file: Union[str, TextIO]) -> Aig:
    if hasattr(path_or_file, "read"):
        return parse_verilog(path_or_file.read())
    with open(path_or_file) as handle:
        return parse_verilog(handle.read(), filename=str(path_or_file))


def _identifier(name: str) -> str:
    """``name`` as a legal Verilog identifier: other characters become
    ``_``, and a name that starts with neither a letter nor ``_`` (the
    RevLib circuit ``4gt10``, say) gets an ``m_`` prefix."""
    ident = re.sub(r"[^A-Za-z0-9_$]", "_", name)
    return ident if re.match(r"[A-Za-z_]", ident) else "m_" + ident


def write_verilog(aig: Aig, module_name: Optional[str] = None) -> str:
    """Emit flat assign-style Verilog from an AIG."""
    clean = aig.cleanup()
    name = _identifier(module_name or clean.name or "top")
    ports = clean.input_names + clean.output_names
    lines = [f"module {name}({', '.join(ports)});"]
    for port in clean.input_names:
        lines.append(f"  input {port};")
    for port in clean.output_names:
        lines.append(f"  output {port};")

    def ref(literal: int) -> str:
        from ..networks.aig import lit_complement, lit_node
        node = lit_node(literal)
        if literal == CONST0:
            return "1'b0"
        if literal == CONST1:
            return "1'b1"
        if clean.is_input(node):
            base = clean.input_names[clean.inputs.index(node)]
        else:
            base = f"n{node}"
        return f"~{base}" if lit_complement(literal) else base

    ands = clean.reachable_ands()
    for node in ands:
        lines.append(f"  wire n{node};")
    for node in ands:
        f0, f1 = clean.fanins(node)
        lines.append(f"  assign n{node} = {ref(f0)} & {ref(f1)};")
    for literal, port in zip(clean.outputs, clean.output_names):
        lines.append(f"  assign {port} = {ref(literal)};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
