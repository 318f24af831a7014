"""Checks the design-file readers apply to a file's declared sizes.

A header states counts (inputs, outputs, gates, wires) before the data
they describe.  Each reader compares them with what the file actually
holds before allocating anything, and bounds declared input counts by
:data:`MAX_INPUTS`: a specification is one ``2**inputs``-bit truth table
per output, so a wider header could only exhaust memory or time.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError

#: Widest design a reader accepts, in primary inputs.  Specifications
#: of 22 inputs run end to end (the exhaustive formal leg was timed up
#: to there); 24 leaves headroom while a 2^24-bit table is still 2 MiB.
MAX_INPUTS = 24


def parse_count(token: str, what: str, filename: str, line: int,
                limit: Optional[int] = None) -> int:
    """A non-negative integer header field, at most ``limit`` if one is
    given; anything else raises :class:`ParseError`."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}",
                         filename, line) from None
    if value < 0:
        raise ParseError(f"{what} must be non-negative, got {value}",
                         filename, line)
    if limit is not None and value > limit:
        raise ParseError(f"{what} {value} exceeds the limit of {limit}",
                         filename, line)
    return value
