"""Same-search contract of the CDCL solver: pinned per-call traces.

Every ``solve()`` call below is pinned to the status, the full ``stats``
dict and a digest of the model it returned.  The literals were recorded
before the solver's hot paths were rewritten for speed; a rewrite that
reorders a watch list, a literal swap, a heap push, a learnt clause, a
restart or a database reduction changes at least one of them.  The
corpus covers the paths that only long searches reach (the activity
rescale past ~4,500 conflicts and ``_reduce_db`` past 1,000 learnt
clauses), conflict budgets, assumptions with solver reuse, and the CEC
miters that sampled fitness builds for ``one_hot_checker(12)``.
"""

import hashlib
import random

import pytest

from repro.bench.extras import one_hot_checker
from repro.core.config import RcgpConfig
from repro.core.mutation import mutate_with_delta
from repro.core.synthesis import initialize_netlist
from repro.sat.cnf import CNF
from repro.sat.equivalence import (build_miter, check_against_tables,
                                   truth_table_encoder)
from repro.sat.solver import Solver


def _digest(model):
    return hashlib.sha256(
        repr(sorted(model.items())).encode()).hexdigest()[:16]


def _call(solver, trace, *args, **kwargs):
    status = solver.solve(*args, **kwargs)
    trace.append((status, dict(solver.stats), _digest(solver.model())))


def random_3sat(seed, num_vars, ratio=4.26):
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(round(num_vars * ratio)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def pigeonhole(pigeons, holes):
    def var(i, j):
        return 1 + i * holes + j
    cnf = CNF(pigeons * holes)
    for i in range(pigeons):
        cnf.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                cnf.add_clause([-var(i, j), -var(k, j)])
    return cnf


def _one_shot(cnf, **kwargs):
    trace = []
    _call(Solver(cnf), trace, **kwargs)
    return trace


def _assumption_reuse():
    """One solver through SAT, UNSAT-under-assumptions, budget and a
    clause added between calls."""
    cnf = random_3sat(7, 60, ratio=3.5)
    first = cnf.clauses[0]
    solver = Solver(cnf)
    trace = []
    _call(solver, trace, [1, -2, 3])
    _call(solver, trace, [-lit for lit in first])
    _call(solver, trace)
    _call(solver, trace, [4, 5, -6, 7], conflict_budget=2)
    solver.add_clause([-4, -5])
    fresh = solver.new_var()
    solver.add_clause([fresh, -8])
    _call(solver, trace, [4, 8])
    _call(solver, trace, [-fresh, 9])
    return trace


def _budget_reuse():
    """An UNKNOWN under a budget, then the same solver run to the end."""
    solver = Solver(random_3sat(2, 100))
    trace = []
    _call(solver, trace, conflict_budget=50)
    _call(solver, trace, [10, -20])
    _call(solver, trace)
    return trace


_MITER_SPEC = one_hot_checker(12)
_MITER_BASE = None


def _miter_candidate(seed):
    global _MITER_BASE
    if _MITER_BASE is None:
        _MITER_BASE = initialize_netlist(_MITER_SPEC, "onehot12")
    if seed is None:
        return _MITER_BASE
    config = RcgpConfig(mutation_rate=0.08, max_mutated_genes=1)
    return mutate_with_delta(_MITER_BASE, random.Random(seed),
                             config)[0].shrink()


MITER_SEEDS = (None, 1, 11, 12, 15, 16)

CASES = {
    "3sat-60-0": lambda: _one_shot(random_3sat(0, 60)),
    "3sat-60-1": lambda: _one_shot(random_3sat(1, 60)),
    "3sat-100-2": lambda: _one_shot(random_3sat(2, 100)),
    "3sat-100-3": lambda: _one_shot(random_3sat(3, 100)),
    "3sat-140-1": lambda: _one_shot(random_3sat(1, 140)),
    "3sat-200-2": lambda: _one_shot(random_3sat(2, 200)),
    "php-5-4-budget": lambda: _one_shot(pigeonhole(5, 4),
                                        conflict_budget=15),
    "php-6-5-budget": lambda: _one_shot(pigeonhole(6, 5),
                                        conflict_budget=100),
    "assumption-reuse": _assumption_reuse,
    "budget-reuse": _budget_reuse,
}
for _seed in MITER_SEEDS:
    CASES[f"miter-onehot12-{_seed}"] = (
        lambda seed=_seed: _one_shot(build_miter(
            _miter_candidate(seed).encoder(),
            truth_table_encoder(_MITER_SPEC), 12)[0]))


# Recorded on the solver before its hot-path rewrite; see the module
# docstring.  [status, stats, model digest] per solve() call.
PINNED = {
    "3sat-100-2": [
        ["UNSAT", dict(conflicts=593, decisions=691, propagations=13868,
                       restarts=6, learned=586, deleted=0),
         "4f53cda18c2baa0c"],
    ],
    "3sat-100-3": [
        ["SAT", dict(conflicts=164, decisions=205, propagations=3908,
                     restarts=2, learned=164, deleted=0),
         "31e63b92b765e36b"],
    ],
    "3sat-140-1": [
        ["UNSAT", dict(conflicts=1454, decisions=1759, propagations=43136,
                       restarts=13, learned=1449, deleted=500),
         "4f53cda18c2baa0c"],
    ],
    "3sat-200-2": [
        ["SAT", dict(conflicts=4737, decisions=5938, propagations=182992,
                     restarts=30, learned=4737, deleted=3087),
         "f59fac19cc2fd637"],
    ],
    "3sat-60-0": [
        ["UNSAT", dict(conflicts=120, decisions=137, propagations=1990,
                       restarts=1, learned=113, deleted=0),
         "4f53cda18c2baa0c"],
    ],
    "3sat-60-1": [
        ["SAT", dict(conflicts=10, decisions=30, propagations=199,
                     restarts=0, learned=10, deleted=0),
         "a9c33fe7b8250760"],
    ],
    "assumption-reuse": [
        ["UNSAT", dict(conflicts=0, decisions=2, propagations=3,
                       restarts=0, learned=0, deleted=0),
         "4f53cda18c2baa0c"],
        ["UNSAT", dict(conflicts=0, decisions=4, propagations=6,
                       restarts=0, learned=0, deleted=0),
         "4f53cda18c2baa0c"],
        ["SAT", dict(conflicts=9, decisions=23, propagations=212,
                     restarts=0, learned=9, deleted=0),
         "611a338b15f66be7"],
        ["UNKNOWN", dict(conflicts=11, decisions=33, propagations=250,
                         restarts=0, learned=11, deleted=0),
         "4f53cda18c2baa0c"],
        ["SAT", dict(conflicts=28, decisions=77, propagations=618,
                     restarts=0, learned=28, deleted=0),
         "d88b19da862ec20b"],
        ["SAT", dict(conflicts=28, decisions=92, propagations=679,
                     restarts=0, learned=28, deleted=0),
         "0fca458256c44ddb"],
    ],
    "budget-reuse": [
        ["UNKNOWN", dict(conflicts=50, decisions=71, propagations=1106,
                         restarts=0, learned=50, deleted=0),
         "4f53cda18c2baa0c"],
        ["UNSAT", dict(conflicts=130, decisions=176, propagations=2922,
                       restarts=1, learned=130, deleted=0),
         "4f53cda18c2baa0c"],
        ["UNSAT", dict(conflicts=507, decisions=630, propagations=12590,
                       restarts=5, learned=499, deleted=0),
         "4f53cda18c2baa0c"],
    ],
    "miter-onehot12-1": [
        ["SAT", dict(conflicts=32, decisions=53, propagations=1563,
                     restarts=0, learned=32, deleted=0),
         "09472bc6cc7db196"],
    ],
    "miter-onehot12-11": [
        ["SAT", dict(conflicts=45, decisions=82, propagations=2192,
                     restarts=0, learned=45, deleted=0),
         "c8a0bfc5c970288a"],
    ],
    "miter-onehot12-12": [
        ["SAT", dict(conflicts=62, decisions=115, propagations=3096,
                     restarts=0, learned=62, deleted=0),
         "7e65e5a840b5fc2c"],
    ],
    "miter-onehot12-15": [
        ["UNSAT", dict(conflicts=121, decisions=179, propagations=8398,
                       restarts=1, learned=119, deleted=0),
         "4f53cda18c2baa0c"],
    ],
    "miter-onehot12-16": [
        ["SAT", dict(conflicts=64, decisions=129, propagations=3396,
                     restarts=1, learned=64, deleted=0),
         "a35adf42fe16c0dd"],
    ],
    "miter-onehot12-None": [
        ["UNSAT", dict(conflicts=103, decisions=172, propagations=7014,
                       restarts=1, learned=98, deleted=0),
         "4f53cda18c2baa0c"],
    ],
    "php-5-4-budget": [
        ["UNKNOWN", dict(conflicts=15, decisions=30, propagations=150,
                         restarts=0, learned=13, deleted=0),
         "4f53cda18c2baa0c"],
    ],
    "php-6-5-budget": [
        ["UNKNOWN", dict(conflicts=100, decisions=140, propagations=1130,
                         restarts=1, learned=97, deleted=0),
         "4f53cda18c2baa0c"],
    ],
}

# [equivalent, counterexample, conflicts, status] per mutant seed.
PINNED_CEC = {
    None: [True, None, 103, "UNSAT"],
    1: [False, 32, 32, "SAT"],
    11: [False, 16, 45, "SAT"],
    12: [False, 1544, 62, "SAT"],
    15: [True, None, 121, "UNSAT"],
    16: [False, 8, 64, "SAT"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_trace_is_pinned(name):
    assert [list(call) for call in CASES[name]()] == PINNED[name]


@pytest.mark.parametrize("seed", MITER_SEEDS)
def test_cec_result_is_pinned(seed):
    result = check_against_tables(_miter_candidate(seed).encoder(),
                                  _MITER_SPEC)
    assert [result.equivalent, result.counterexample, result.conflicts,
            result.status] == PINNED_CEC[seed]


def test_long_search_reaches_rescale_and_reduction():
    """The corpus really exercises the rare paths it claims to hold."""
    status, stats, _ = PINNED["3sat-200-2"][0]
    assert stats["conflicts"] > 4500 and stats["deleted"] > 0
    assert [call[0] for call in PINNED["php-5-4-budget"]] == ["UNKNOWN"]
    assert [call[0] for call in PINNED["php-6-5-budget"]] == ["UNKNOWN"]
    assert "UNSAT" in [call[0] for call in PINNED["assumption-reuse"]]
    verdicts = {PINNED_CEC[seed][0] for seed in MITER_SEEDS}
    assert verdicts == {True, False}
