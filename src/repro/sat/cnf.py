"""CNF formula container with DIMACS-style literals.

Literals are non-zero Python ints: variable ``v`` (1-based) appears
positively as ``v`` and negated as ``-v``, exactly like DIMACS.  The
container hands out fresh variables, accumulates clauses, and can parse /
emit DIMACS text so the solver can be exercised against external
artifacts in tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ParseError


class CNF:
    """A growable CNF formula."""

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []

    # -- variables -------------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable (positive literal)."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def _check_literal(self, lit: int) -> None:
        if lit == 0:
            raise ValueError("0 is not a valid literal")
        if abs(lit) > self.num_vars:
            raise ValueError(
                f"literal {lit} references variable beyond num_vars={self.num_vars}"
            )

    # -- clauses -----------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause (a disjunction of literals).

        Duplicate literals are collapsed; tautological clauses (containing
        both ``v`` and ``-v``) are silently dropped since they constrain
        nothing.
        """
        num_vars = self.num_vars
        seen = set()
        clause: List[int] = []
        for lit in literals:
            if not (0 < lit <= num_vars or 0 < -lit <= num_vars):
                self._check_literal(lit)
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def assume_true(self, lit: int) -> None:
        """Constrain ``lit`` to be true (unit clause)."""
        self.add_clause([lit])

    def __len__(self) -> int:
        return len(self.clauses)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, model: Dict[int, bool]) -> bool:
        """True iff the assignment satisfies every clause."""
        for clause in self.clauses:
            if not any(model.get(abs(lit), False) == (lit > 0) for lit in clause):
                return False
        return True

    # -- DIMACS ----------------------------------------------------------

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        cnf: Optional[CNF] = None
        pending: List[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ParseError(f"bad problem line {line!r}", line=lineno)
                cnf = cls(int(parts[2]))
                continue
            if cnf is None:
                raise ParseError("clause before problem line", line=lineno)
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError:
                    raise ParseError(f"bad literal {token!r}", line=lineno) from None
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if cnf is None:
            raise ParseError("missing problem line")
        if pending:
            cnf.add_clause(pending)
        return cnf


def negate(literals: Sequence[int]) -> List[int]:
    """Negate every literal (useful for blocking clauses)."""
    return [-lit for lit in literals]
