"""A CDCL SAT solver.

This is the in-repo replacement for the Z3/MiniSat role in the paper's
flow: it backs combinational equivalence checking (the formal half of the
RCGP fitness function) and the exact-synthesis baseline.  The solver
implements the standard modern recipe:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and backjumping,
* VSIDS-style variable activities (exponential bumping) with phase saving,
* Luby-sequence restarts,
* learned-clause database reduction keyed by literal-block distance (LBD),
* solving under assumptions and optional conflict / time budgets
  (budget exhaustion reports :data:`UNKNOWN`, which the exact-synthesis
  baseline maps onto the paper's ``\\`` timeout entries).

It is pure Python, so its hot paths are laid out for the interpreter.
The public API speaks DIMACS literals (``v`` / ``-v``); inside, a literal
is *encoded* as ``2v`` (positive) or ``2v + 1`` (negative), so negation
is ``x ^ 1``, the variable is ``x >> 1``, and one list indexed by the
encoded literal holds its value (+1 true, -1 false, 0 unassigned; both
polarities are written on every assignment).  Clauses store encoded
literals; ``_watches[x]`` holds the clauses watching literal ``x ^ 1``,
i.e. the ones to visit when ``x`` becomes true.  ``_propagate`` reads
literal values inline, compacts each watch list in place, checks the
third literal of a ternary clause without entering the replacement loop,
and keeps its counters in locals; ``_analyze`` and ``_cancel_until``
likewise inline the value, activity and heap updates.

Same-search contract: every step is the one the straightforward
implementation takes, in the same order — watch-list order, the swaps
inside each clause, activity bumps and heap pushes, learnt clauses,
restarts and database reductions — so for any CNF and any sequence of
calls the status, ``stats`` and model are exactly those of the
textbook loop.  There are no blocker literals or other shortcuts that
would visit clauses in a different order.  ``tests/test_solver_trace.py``
pins the per-call status, ``stats`` and model digest over a fixed corpus
(random 3-SAT through the activity rescale and ``_reduce_db``,
pigeonhole under budgets, assumptions with solver reuse, and the
sampled-fitness CEC miters of ``one_hot_checker(12)``).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cnf import CNF

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_UNASSIGNED = 0


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    if i <= 0:
        raise ValueError("Luby sequence is 1-based")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class _Clause:
    """Internal clause record; ``lits[0:2]`` are the watched (encoded)
    literals."""

    __slots__ = ("lits", "learnt", "lbd", "activity")

    def __init__(self, lits: List[int], learnt: bool = False, lbd: int = 0):
        self.lits = lits
        self.learnt = learnt
        self.lbd = lbd
        self.activity = 0.0


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    def __init__(self, cnf: Optional[CNF] = None):
        self._num_vars = 0
        # Indexed by encoded literal (slots 0 and 1 unused).
        self._vals: List[int] = [_UNASSIGNED, _UNASSIGNED]
        # Indexed by variable (1-based; slot 0 unused).
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        # Saved phase as the encoded literal to decide on (negative first).
        self._phase: List[int] = [1]
        self._seen: List[bool] = [False]
        # Watch lists indexed by encoded literal.
        self._watches: List[List[_Clause]] = [[], []]
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._ok = True
        self._model: Dict[int, bool] = {}
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
        }
        if cnf is not None:
            self._ensure_vars(cnf.num_vars)
            add_clause = self.add_clause
            for clause in cnf.clauses:
                add_clause(clause)

    # ------------------------------------------------------------------
    # construction

    def _ensure_vars(self, num_vars: int) -> None:
        grow = num_vars - self._num_vars
        if grow <= 0:
            return
        first = self._num_vars + 1
        self._num_vars = num_vars
        self._vals.extend([_UNASSIGNED] * (2 * grow))
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend((v << 1) | 1 for v in range(first, num_vars + 1))
        self._seen.extend([False] * grow)
        self._watches.extend([] for _ in range(2 * grow))

    def new_var(self) -> int:
        self._ensure_vars(self._num_vars + 1)
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause; returns False on immediate inconsistency."""
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("add_clause only allowed at decision level 0")
        vals = self._vals
        lits: List[int] = []
        for lit in literals:
            if lit > 0:
                if lit > self._num_vars:
                    self._ensure_vars(lit)
                x = lit << 1
            elif lit < 0:
                if -lit > self._num_vars:
                    self._ensure_vars(-lit)
                x = (-lit << 1) | 1
            else:
                raise ValueError("0 is not a literal")
            # ``lits`` holds exactly the literals kept so far, so it
            # doubles as the seen-set (clauses are short).
            if x ^ 1 in lits:
                return True  # tautology
            if x in lits:
                continue
            value = vals[x]
            if value == 1:
                return True  # already satisfied at level 0
            if value == -1:
                continue  # falsified at level 0: drop literal
            lits.append(x)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        clause = _Clause(lits)
        self._clauses.append(clause)
        self._watches[lits[0] ^ 1].append(clause)
        self._watches[lits[1] ^ 1].append(clause)
        return True

    # ------------------------------------------------------------------
    # trail management

    def _enqueue(self, x: int, reason: Optional[_Clause]) -> bool:
        vals = self._vals
        value = vals[x]
        if value == 1:
            return True
        if value == -1:
            return False
        var = x >> 1
        vals[x] = 1
        vals[x ^ 1] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(x)
        return True

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        bound = trail_lim[level]
        vals = self._vals
        phase = self._phase
        reasons = self._reason
        for x in trail[bound:]:
            var = x >> 1
            phase[var] = x
            vals[x] = _UNASSIGNED
            vals[x ^ 1] = _UNASSIGNED
            reasons[var] = None
        del trail[bound:]
        del trail_lim[level:]
        if self._qhead > bound:
            self._qhead = bound

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        qhead = start = self._qhead
        if qhead >= len(trail):
            return None
        watches = self._watches
        vals = self._vals
        levels = self._level
        reasons = self._reason
        level = len(self._trail_lim)
        conflict = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[p]
            n = len(ws)
            i = j = 0
            while i < n:
                clause = ws[i]
                i += 1
                lits = clause.lits
                # Normalize so the falsified watch sits at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if vals[first] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                # Search for a replacement watch (ternary clauses check
                # their third literal without entering the loop).
                size = len(lits)
                if size > 2:
                    other = lits[2]
                    if vals[other] != -1:
                        lits[2] = lits[1]
                        lits[1] = other
                        watches[other ^ 1].append(clause)
                        continue
                    if size > 3:
                        for k in range(3, size):
                            other = lits[k]
                            if vals[other] != -1:
                                lits[k] = lits[1]
                                lits[1] = other
                                watches[other ^ 1].append(clause)
                                break
                        else:
                            other = 0
                        if other:
                            continue
                ws[j] = clause
                j += 1
                if vals[first] == -1:
                    # Conflict: keep the remaining watchers and report.
                    conflict = clause
                    break
                var = first >> 1
                vals[first] = 1
                vals[first ^ 1] = -1
                levels[var] = level
                reasons[var] = clause
                trail.append(first)
            del ws[j:i]
            if conflict is not None:
                break
        self.stats["propagations"] += qhead - start
        self._qhead = len(trail) if conflict is not None else qhead
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)

    def _rescale_var_activity(self) -> None:
        """Scale every activity down once one passes 1e100, and rebuild
        the heap from the unassigned variables."""
        activity = self._activity
        for v in range(1, self._num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        vals = self._vals
        self._heap = [(-activity[v], v) for v in range(1, self._num_vars + 1)
                      if vals[v << 1] == _UNASSIGNED]
        heapq.heapify(self._heap)

    def _analyze(self, conflict: _Clause):
        """Derive a 1UIP learnt clause; returns (lits, backjump level, lbd)."""
        learnt: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = self._seen
        levels = self._level
        reasons = self._reason
        activity = self._activity
        trail = self._trail
        heap = self._heap
        heappush = heapq.heappush
        var_inc = self._var_inc
        to_clear: List[int] = []
        counter = 0
        index = len(trail)
        clause = conflict
        lits = clause.lits
        start = 0
        current_level = len(self._trail_lim)

        while True:
            act = clause.activity + self._cla_inc
            clause.activity = act
            if act > 1e20:
                for c in self._learnts:
                    c.activity *= 1e-20
                self._cla_inc *= 1e-20
            for q in lits[start:] if start else lits:
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = True
                    to_clear.append(var)
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_var_activity()
                        var_inc = self._var_inc
                        heap = self._heap
                    else:
                        heappush(heap, (-act, var))
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Walk the trail back to the next marked literal.
            while True:
                index -= 1
                p = trail[index]
                if seen[p >> 1]:
                    break
            counter -= 1
            if counter == 0:
                learnt[0] = p ^ 1
                break
            clause = reasons[p >> 1]
            lits = clause.lits
            if lits[0] != p:
                # Reason invariant: lits[0] is the implied literal.
                pos = lits.index(p)
                lits[pos], lits[0] = lits[0], lits[pos]
            start = 1

        # Clause minimization: drop literals whose reason is already
        # subsumed by the remaining learnt literals (seen flags stay set
        # for the duration of the check, as in MiniSat's local mode).
        minimized = [learnt[0]]
        for q in learnt[1:]:
            qvar = q >> 1
            reason = reasons[qvar]
            if reason is None:
                minimized.append(q)
                continue
            for r in reason.lits:
                rvar = r >> 1
                if rvar != qvar and not seen[rvar] and levels[rvar] != 0:
                    minimized.append(q)
                    break
        learnt = minimized

        if len(learnt) == 1:
            backjump = 0
        else:
            # Second-highest decision level among the learnt literals.
            max_i = 1
            max_level = levels[learnt[1] >> 1]
            for i in range(2, len(learnt)):
                lvl = levels[learnt[i] >> 1]
                if lvl > max_level:
                    max_i = i
                    max_level = lvl
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            backjump = max_level

        lbd = len({levels[q >> 1] for q in learnt})
        for var in to_clear:
            seen[var] = False
        return learnt, backjump, lbd

    # ------------------------------------------------------------------
    # decision heuristic

    def _pick_branch_var(self) -> int:
        # Lazy-deletion activity heap: entries with stale activity or an
        # assigned variable are discarded on pop.
        heap = self._heap
        vals = self._vals
        activity = self._activity
        heappop = heapq.heappop
        while heap:
            neg_act, var = heappop(heap)
            if vals[var << 1] == _UNASSIGNED and -neg_act == activity[var]:
                return var
        # Heap exhausted: rebuild from scratch (covers fresh variables and
        # stale-entry starvation alike).
        self._heap = [(-activity[v], v)
                      for v in range(1, self._num_vars + 1)
                      if vals[v << 1] == _UNASSIGNED]
        heapq.heapify(self._heap)
        if not self._heap:
            return 0
        neg_act, var = heappop(self._heap)
        return var

    # ------------------------------------------------------------------
    # learned clause DB reduction

    def _reduce_db(self) -> None:
        self._learnts.sort(key=lambda c: (c.lbd, -c.activity))
        keep_count = len(self._learnts) // 2
        kept: List[_Clause] = []
        reasons = self._reason
        locked = {id(reasons[x >> 1]) for x in self._trail
                  if reasons[x >> 1] is not None}
        for i, clause in enumerate(self._learnts):
            if i < keep_count or clause.lbd <= 2 or id(clause) in locked:
                kept.append(clause)
            else:
                self._detach(clause)
                self.stats["deleted"] += 1
        self._learnts = kept

    def _detach(self, clause: _Clause) -> None:
        for x in clause.lits[:2]:
            watchers = self._watches[x ^ 1]
            try:
                watchers.remove(clause)
            except ValueError:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    # main search

    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None,
              time_budget: Optional[float] = None) -> str:
        """Run CDCL search; returns :data:`SAT`, :data:`UNSAT` or
        :data:`UNKNOWN` (budget exhausted)."""
        if not self._ok:
            return UNSAT
        self._model = {}
        start_time = time.monotonic()
        restart_idx = 1
        restart_base = 64
        restart_limit = luby(restart_idx) * restart_base
        conflicts_since_restart = 0
        max_learnts = max(1000, len(self._clauses) // 2)

        self._cancel_until(0)
        assumption_list = []
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a literal")
            self._ensure_vars(abs(lit))
            assumption_list.append(lit << 1 if lit > 0 else (-lit << 1) | 1)

        stats = self.stats
        conflicts = decisions = learned = restarts = 0
        vals = self._vals
        trail = self._trail
        trail_lim = self._trail_lim
        learnts = self._learnts
        propagate = self._propagate
        try:
            while True:
                conflict = propagate()
                if conflict is not None:
                    conflicts += 1
                    conflicts_since_restart += 1
                    if not trail_lim:
                        self._ok = False
                        return UNSAT
                    learnt, backjump, lbd = self._analyze(conflict)
                    self._cancel_until(backjump)
                    if len(learnt) == 1:
                        if not self._enqueue(learnt[0], None):
                            self._ok = False
                            return UNSAT
                    else:
                        clause = _Clause(learnt, learnt=True, lbd=lbd)
                        learnts.append(clause)
                        learned += 1
                        self._watches[learnt[0] ^ 1].append(clause)
                        self._watches[learnt[1] ^ 1].append(clause)
                        # 1UIP guarantees the asserting literal is
                        # unassigned after the backjump, so this enqueue
                        # always succeeds.
                        self._enqueue(learnt[0], clause)
                    self._var_inc *= self._var_decay
                    self._cla_inc *= 1.001
                    if conflict_budget is not None and \
                            conflicts >= conflict_budget:
                        self._cancel_until(0)
                        return UNKNOWN
                    if time_budget is not None and \
                            time.monotonic() - start_time >= time_budget:
                        self._cancel_until(0)
                        return UNKNOWN
                    continue

                if conflicts_since_restart >= restart_limit:
                    restarts += 1
                    restart_idx += 1
                    restart_limit = luby(restart_idx) * restart_base
                    conflicts_since_restart = 0
                    self._cancel_until(0)
                    continue

                if len(learnts) >= max_learnts:
                    self._reduce_db()
                    learnts = self._learnts
                    max_learnts = int(max_learnts * 1.3)

                # Extend with the next unassigned assumption, if any.
                next_lit = 0
                for x in assumption_list:
                    value = vals[x]
                    if value == -1:
                        # Assumption contradicted by the current (level-0
                        # or implied) assignment: the instance is UNSAT
                        # under the assumptions.
                        self._cancel_until(0)
                        return UNSAT
                    if value == 0:
                        next_lit = x
                        break
                if not next_lit:
                    var = self._pick_branch_var()
                    if var == 0:
                        self._record_model()
                        self._cancel_until(0)
                        return SAT
                    next_lit = self._phase[var]

                decisions += 1
                trail_lim.append(len(trail))
                self._enqueue(next_lit, None)
        finally:
            stats["conflicts"] += conflicts
            stats["decisions"] += decisions
            stats["restarts"] += restarts
            stats["learned"] += learned

    def _record_model(self) -> None:
        vals = self._vals
        self._model = {
            var: vals[var << 1] == 1
            for var in range(1, self._num_vars + 1)
            if vals[var << 1] != _UNASSIGNED
        }

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment from the last :data:`SAT` answer."""
        return dict(self._model)


def solve_cnf(cnf: CNF, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None,
              time_budget: Optional[float] = None):
    """One-shot convenience wrapper: returns ``(status, model)``."""
    solver = Solver(cnf)
    status = solver.solve(assumptions, conflict_budget, time_budget)
    return status, (solver.model() if status == SAT else {})
