"""PLA (Berkeley two-level) reader / writer.

Reads ``.i``/``.o``/``.p``/``.ilb``/``.ob`` headers and product-term
rows, producing truth tables (the specification format RCGP consumes).
Only the ``F`` type (on-set specification) is supported; ``-`` input
don't-cares expand, output ``-`` is treated as 0.  Declared counts are
checked against the rows before anything is allocated, and ``.i`` is
bounded by :data:`repro.io.limits.MAX_INPUTS`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TextIO, Tuple, Union

from ..errors import ParseError
from ..logic.truth_table import TruthTable
from .limits import MAX_INPUTS, parse_count


def parse_pla(text: str, filename: str = "<string>"):
    """Parse PLA text; returns ``(tables, input_names, output_names)``."""
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    input_names: List[str] = []
    output_names: List[str] = []
    rows: List[Tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key in (".i", ".o", ".type") and len(parts) < 2:
                raise ParseError(f"{key} needs a value", filename, lineno)
            if key == ".i":
                num_inputs = parse_count(parts[1], ".i", filename, lineno,
                                         MAX_INPUTS)
            elif key == ".o":
                num_outputs = parse_count(parts[1], ".o", filename, lineno)
            elif key == ".ilb":
                input_names = parts[1:]
            elif key == ".ob":
                output_names = parts[1:]
            elif key in (".p", ".e", ".end", ".type"):
                if key == ".type" and parts[1] not in ("f", "fr"):
                    raise ParseError(f"unsupported PLA type {parts[1]}",
                                     filename, lineno)
            else:
                raise ParseError(f"unsupported PLA directive {key}",
                                 filename, lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad PLA row {line!r}", filename, lineno)
        rows.append((lineno, parts[0], parts[1]))

    if num_inputs is None or num_outputs is None:
        raise ParseError("PLA needs .i and .o", filename)
    # Every row spells out each output, so only an empty cover can
    # declare more outputs than the file has characters.
    if num_outputs > len(text):
        raise ParseError(f".o {num_outputs} exceeds the file's "
                         f"{len(text)} characters", filename)
    for lineno, pattern, output in rows:
        if len(pattern) != num_inputs or len(output) != num_outputs:
            raise ParseError(f"row width mismatch: {pattern} {output}",
                             filename, lineno)

    bits = [0] * num_outputs
    for _, pattern, output in rows:
        word = cube_word(pattern)
        for o, ch in enumerate(output):
            if ch == "1":
                bits[o] |= word
    tables = [TruthTable(num_inputs, b) for b in bits]
    if not input_names:
        input_names = [f"x{i}" for i in range(num_inputs)]
    if not output_names:
        output_names = [f"y{o}" for o in range(num_outputs)]
    return tables, input_names, output_names


def cube_word(pattern: str) -> int:
    """Minterms of one PLA input cube, as a truth-table word.

    Bit ``t`` is set when input pattern ``t`` (input ``i`` = bit ``i``)
    lies in the cube.  The fixed literals give the smallest minterm, and
    each ``-`` at input ``i`` doubles the set with a shift by ``2**i`` —
    one shift per don't-care instead of one pass per minterm.
    """
    lowest = 0
    for i, ch in enumerate(pattern):
        if ch == "1":
            lowest |= 1 << i
    word = 1 << lowest
    for i, ch in enumerate(pattern):
        if ch == "-":
            word |= word << (1 << i)
    return word


def read_pla(path_or_file: Union[str, TextIO]):
    if hasattr(path_or_file, "read"):
        return parse_pla(path_or_file.read())
    with open(path_or_file) as handle:
        return parse_pla(handle.read(), filename=str(path_or_file))


def write_pla(tables: Sequence[TruthTable],
              input_names: Sequence[str] = (),
              output_names: Sequence[str] = ()) -> str:
    """Serialize truth tables as a (canonical minterm) PLA."""
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one output table")
    n = tables[0].num_vars
    o = len(tables)
    lines = [f".i {n}", f".o {o}"]
    if input_names:
        lines.append(".ilb " + " ".join(input_names))
    if output_names:
        lines.append(".ob " + " ".join(output_names))
    terms = []
    for t in range(1 << n):
        out = "".join("1" if table.value(t) else "0" for table in tables)
        if "1" in out:
            pattern = "".join("1" if (t >> i) & 1 else "0" for i in range(n))
            terms.append(f"{pattern} {out}")
    lines.append(f".p {len(terms)}")
    lines.extend(terms)
    lines.append(".e")
    return "\n".join(lines) + "\n"
