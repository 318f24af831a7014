"""ASCII AIGER (``aag``) reader / writer.

The AIGER literal convention is identical to this package's AIG literal
encoding (0 = const0, 1 = const1, even = plain, odd = complemented), so
the mapping is direct.  Only the combinational subset is supported: a
header with latches ``L != 0`` is rejected.  Header counts are checked
against the lines (ASCII) or bytes (binary) the file holds before
anything is built, and ``I`` is bounded by
:data:`repro.io.limits.MAX_INPUTS`.
"""

from __future__ import annotations

from typing import Dict, List, TextIO, Union

from ..errors import ParseError
from ..networks.aig import Aig, lit_complement, lit_node, lit_not
from .limits import MAX_INPUTS, parse_count


def _header(fields: List[str], filename: str) -> List[int]:
    """``M I L O A`` of an AIGER header: non-negative integers, inputs
    bounded by :data:`~repro.io.limits.MAX_INPUTS`, no latches."""
    m, i, l, o, a = (parse_count(field, name, filename, 1,
                                 MAX_INPUTS if name == "I" else None)
                     for field, name in zip(fields, "MILOA"))
    if l != 0:
        raise ParseError("sequential AIGER (latches) not supported",
                         filename, 1)
    return [m, i, l, o, a]


def _literal(token: str, filename: str, line: int) -> int:
    return parse_count(token, "literal", filename, line)


def _symbols(lines, first_line: int, filename: str):
    """The input and output names of a symbol table, as two
    ``{index: name}`` dicts (reading stops at the comment section)."""
    inputs: Dict[int, str] = {}
    outputs: Dict[int, str] = {}
    for offset, line in enumerate(lines):
        if not line or line.startswith("c"):
            break
        if line[0] in "io":
            index, _, name = line[1:].partition(" ")
            if not name:
                raise ParseError(f"bad symbol line {line!r}", filename,
                                 first_line + offset)
            table = inputs if line[0] == "i" else outputs
            table[_literal(index, filename, first_line + offset)] = name
    return inputs, outputs


def parse_aiger(text: str, filename: str = "<string>") -> Aig:
    lines = [l for l in text.splitlines()]
    if not lines:
        raise ParseError("empty AIGER file", filename)
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise ParseError(f"bad AIGER header {lines[0]!r}", filename, 1)
    m, i, l, o, a = _header(header[1:], filename)
    if 1 + i + o + a > len(lines):
        raise ParseError(
            f"header declares {i} inputs, {o} outputs and {a} ANDs but "
            f"the file has {len(lines) - 1} lines after it", filename, 1)

    def fields(index: int, count: int) -> List[int]:
        parts = lines[index].split()
        if len(parts) != count:
            raise ParseError(f"bad AIGER line {lines[index]!r}", filename,
                             index + 1)
        return [_literal(part, filename, index + 1) for part in parts]

    aig = Aig()
    # AIGER inputs are literals 2, 4, ..., 2i in order.
    ext_to_int: Dict[int, int] = {0: 0}
    for k in range(i):
        ext_to_int[2 * (k + 1)] = aig.add_input()

    cursor = 1
    for idx in range(i):
        lit, = fields(cursor + idx, 1)
        if lit != 2 * (idx + 1):
            raise ParseError(
                f"non-canonical input literal {lit}", filename, cursor + idx + 1
            )
    cursor += i
    output_ext = [fields(cursor + idx, 1)[0] for idx in range(o)]
    cursor += o

    def resolve(ext: int) -> int:
        base = ext_to_int.get(ext & ~1)
        if base is None:
            raise ParseError(f"literal {ext} used before definition", filename)
        return lit_not(base) if ext & 1 else base

    for idx in range(a):
        lhs, rhs0, rhs1 = fields(cursor + idx, 3)
        if lhs & 1 or lhs <= 0:
            raise ParseError(f"bad AND lhs {lhs}", filename, cursor + idx + 1)
        ext_to_int[lhs] = aig.add_and(resolve(rhs0), resolve(rhs1))
    cursor += a

    # Symbol table (optional).
    input_syms, output_syms = _symbols(lines[cursor:], cursor + 1, filename)
    for idx, name in input_syms.items():
        if 0 <= idx < len(aig.input_names):
            aig.input_names[idx] = name
    for idx, ext in enumerate(output_ext):
        aig.add_output(resolve(ext), output_syms.get(idx))
    return aig


def parse_aiger_binary(data: bytes, filename: str = "<bytes>") -> Aig:
    """Parse binary AIGER (``aig``) — the paper's ``.aig`` input format.

    Binary AIGER encodes each AND gate as two LEB128-style deltas
    (``delta0 = lhs - rhs0``, ``delta1 = rhs0 - rhs1``) after an ASCII
    header and output list; inputs are implicit.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise ParseError("missing AIGER header line", filename)
    header = data[:newline].decode("ascii", errors="replace").split()
    if len(header) != 6 or header[0] != "aig":
        raise ParseError(f"bad binary AIGER header {header!r}", filename, 1)
    m, i, l, o, a = _header(header[1:], filename)
    cursor = newline + 1
    # An output line takes at least two bytes, an AND two delta bytes.
    if 2 * (o + a) > len(data) - cursor:
        raise ParseError(
            f"header declares {o} outputs and {a} ANDs but only "
            f"{len(data) - cursor} bytes follow it", filename, 1)

    output_ext: List[int] = []
    for idx in range(o):
        end = data.find(b"\n", cursor)
        if end < 0:
            raise ParseError("truncated output section", filename)
        output_ext.append(_literal(
            data[cursor:end].decode("ascii", errors="replace"), filename,
            idx + 2))
        cursor = end + 1

    def read_delta() -> int:
        nonlocal cursor
        value = 0
        shift = 0
        while True:
            if cursor >= len(data):
                raise ParseError("truncated AND section", filename)
            byte = data[cursor]
            cursor += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    aig = Aig()
    ext_to_int: Dict[int, int] = {0: 0}
    for k in range(i):
        ext_to_int[2 * (k + 1)] = aig.add_input()

    def resolve(ext: int) -> int:
        base = ext_to_int.get(ext & ~1)
        if base is None:
            raise ParseError(f"literal {ext} used before definition",
                             filename)
        return lit_not(base) if ext & 1 else base

    for k in range(a):
        lhs = 2 * (i + l + k + 1)
        delta0 = read_delta()
        delta1 = read_delta()
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0 or rhs0 >= lhs:
            raise ParseError(f"bad AND deltas at gate {k}", filename)
        ext_to_int[lhs] = aig.add_and(resolve(rhs0), resolve(rhs1))

    # Optional ASCII symbol table (line numbers count from its start).
    rest = data[cursor:].decode("ascii", errors="replace").splitlines()
    input_syms, output_syms = _symbols(rest, 1, filename)
    for idx, name in input_syms.items():
        if 0 <= idx < len(aig.input_names):
            aig.input_names[idx] = name
    for idx, ext in enumerate(output_ext):
        aig.add_output(resolve(ext), output_syms.get(idx))
    return aig


def write_aiger_binary(aig: Aig) -> bytes:
    """Serialize an AIG as binary AIGER (``aig``)."""
    clean = aig.cleanup()
    ands = clean.reachable_ands()
    ext: Dict[int, int] = {0: 0}
    for k, node in enumerate(clean.inputs):
        ext[node] = 2 * (k + 1)
    next_lit = 2 * (len(clean.inputs) + 1)
    for node in ands:
        ext[node] = next_lit
        next_lit += 2

    def ext_lit(literal: int) -> int:
        base = ext[lit_node(literal)]
        return base | 1 if lit_complement(literal) else base

    m = len(clean.inputs) + len(ands)
    out = bytearray()
    out += (f"aig {m} {len(clean.inputs)} 0 "
            f"{len(clean.outputs)} {len(ands)}\n").encode()
    for literal in clean.outputs:
        out += f"{ext_lit(literal)}\n".encode()

    def write_delta(value: int) -> None:
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                return

    for node in ands:
        lhs = ext[node]
        f0, f1 = clean.fanins(node)
        rhs = sorted((ext_lit(f0), ext_lit(f1)), reverse=True)
        write_delta(lhs - rhs[0])
        write_delta(rhs[0] - rhs[1])
    for idx, name in enumerate(clean.input_names):
        out += f"i{idx} {name}\n".encode()
    for idx, name in enumerate(clean.output_names):
        out += f"o{idx} {name}\n".encode()
    return bytes(out)


def read_aiger(path_or_file: Union[str, TextIO]) -> Aig:
    """Read AIGER from a path or file object, ASCII or binary."""
    if hasattr(path_or_file, "read"):
        content = path_or_file.read()
        if isinstance(content, bytes):
            if content.startswith(b"aig "):
                return parse_aiger_binary(content)
            return parse_aiger(content.decode())
        return parse_aiger(content)
    with open(path_or_file, "rb") as handle:
        content = handle.read()
    if content.startswith(b"aig "):
        return parse_aiger_binary(content, filename=str(path_or_file))
    return parse_aiger(content.decode(), filename=str(path_or_file))


def write_aiger(aig: Aig) -> str:
    """Serialize an AIG as ASCII AIGER (``aag``)."""
    clean = aig.cleanup()
    ands = clean.reachable_ands()
    # External literals: inputs get 2..2i; ANDs follow in topological order.
    ext: Dict[int, int] = {0: 0}
    for k, node in enumerate(clean.inputs):
        ext[node] = 2 * (k + 1)
    next_lit = 2 * (len(clean.inputs) + 1)
    for node in ands:
        ext[node] = next_lit
        next_lit += 2

    def ext_lit(literal: int) -> int:
        base = ext[lit_node(literal)]
        return base | 1 if lit_complement(literal) else base

    m = len(clean.inputs) + len(ands)
    lines = [f"aag {m} {len(clean.inputs)} 0 {len(clean.outputs)} {len(ands)}"]
    for k in range(len(clean.inputs)):
        lines.append(str(2 * (k + 1)))
    for literal in clean.outputs:
        lines.append(str(ext_lit(literal)))
    for node in ands:
        f0, f1 = clean.fanins(node)
        lines.append(f"{ext[node]} {ext_lit(f0)} {ext_lit(f1)}")
    for idx, name in enumerate(clean.input_names):
        lines.append(f"i{idx} {name}")
    for idx, name in enumerate(clean.output_names):
        lines.append(f"o{idx} {name}")
    return "\n".join(lines) + "\n"
