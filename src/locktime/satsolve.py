"""A small, deterministic, incremental CDCL SAT solver.

Features: two-watched-literal unit propagation, VSIDS-style decaying
activity with lowest-index tie-break, first-UIP clause learning with
non-chronological backjumping, and a wall clock timeout reported as a
distinct status.  Values and watch lists are indexed by literal, and
clauses are plain lists that watch lists and reasons hold directly.

A :class:`Solver` can live across calls (MiniSat style, Eén & Sörensson,
SAT 2003): each ``solve(f, timeout_seconds, solver)`` loads only the
clauses of ``f`` at decision level 0 and searches again.  Variables grow
with the formulas loaded; activities, saved phases and learnt clauses
carry over.  A plain ``solve(f)`` is the same code on a fresh, empty
solver.

A call may also take assumption literals, held true for that call only:
the search decides them first, in order, each one not yet true on a
level of its own, before any activity branch.  An assumption found false
when its turn comes answers UNSAT for this call only; the solver stays
usable.  UNSAT is final for a solver only when it comes from a conflict
at level 0.  A call without assumptions searches exactly as before.

Determinism contract: identical call sequences of (clauses, assumptions)
give identical statuses, models and effort counters across runs and
machines, unless a call times out: the clock decides only whether and
where a search stops.  Stats are per call and hold counters only.

Counter semantics: ``decisions`` counts branch assignments (assumption
levels are not decisions), ``propagations`` counts literals enqueued
with a reason (unit propagation, initial units, asserting literals),
``conflicts`` counts conflicting clauses encountered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cnf import CnfFormula


# VSIDS: each conflict scales all earlier activity by this factor
ACTIVITY_DECAY = 0.95
# seeds the generator that draws each new variable's initial phase
PHASE_SEED = 0


class SolveStatus(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    TIMEOUT = "TIMEOUT"


@dataclass
class SolverStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0

    def merged(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(self.decisions + other.decisions,
                           self.propagations + other.propagations,
                           self.conflicts + other.conflicts)


@dataclass
class SolveResult:
    status: SolveStatus
    model: dict | None  # var -> bool, full assignment when SAT
    stats: SolverStats = field(default_factory=SolverStats)


def verify_model(f: CnfFormula, model: dict) -> bool:
    """True iff ``model`` (a full var -> bool map) satisfies every clause."""
    if not all(map(model.__contains__, range(1, f.n_vars + 1))):
        v = next(v for v in range(1, f.n_vars + 1) if v not in model)
        raise ValueError(f"partial model: variable {v} unassigned")
    true_lits = {v if b else -v for v, b in model.items()}
    return not any(map(true_lits.isdisjoint, f.clauses))


class Solver:
    """CDCL search state that lives across :func:`solve` calls.

    Create one per growing formula and pass it to :func:`solve`; its
    methods are internal.  Every clause loaded stays loaded, so the
    formula only ever grows.  ``loaded`` holds every input clause as
    given, against which each SAT model is checked.

    ``val`` and ``watches`` hold ``+1..+n``, then ``-n..-1``, so negative
    indexing makes ``val[lit]`` True, False or None (unassigned) and
    ``watches[lit]`` the clauses watched by ``lit``, one of their first
    two literals; those lists are the only record of the stored clauses,
    input and learnt.  ``reason[v]`` is the clause that made ``v`` true, its
    other literals all false, or None for a decision.

    ``_load`` reads level-0 status straight from ``val``: right after
    backtracking to level 0, a literal true or false there is exactly
    one true or false at level 0.  ``free[v]`` is ``activity[v]`` while
    ``v`` is unassigned and ``-inf`` otherwise (and at index 0), so a
    branch is one ``argmax`` over it.
    """

    def __init__(self):
        self.rng = np.random.default_rng(PHASE_SEED)
        self.n = 0
        self.loaded = CnfFormula([], 0)
        self.val: list[bool | None] = [None]  # index 0 is not a literal
        self.watches: list[list[list[int]]] = [[]]
        self.level: list[int] = []
        self.reason: list[list[int] | None] = []
        self.phase: list[int] = []
        self.trail: list[int] = []  # literals in assignment order (true literals)
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = np.zeros(0, dtype=np.float64)
        self.free = np.zeros(0, dtype=np.float64)
        self.var_inc = 1.0
        self.stats = SolverStats()
        self.ok = True

    # --- clause plumbing ---

    def _grow(self, n: int):
        """Extend every per-variable and per-literal list to variables ``1..n``.

        A fresh solver draws n + 1 phases (index 0 included) at once, so
        its phases equal a one-shot solver's; later variables draw on.
        New literals are spliced in between ``+old_n`` and ``-old_n``.
        """
        k = n + 1 - len(self.level)
        if k <= 0:
            return
        self.level += [0] * k
        self.reason += [None] * k
        self.phase += self.rng.integers(0, 2, size=k, dtype=np.int64).tolist()
        self.activity = np.concatenate([self.activity, np.zeros(k)])
        self.free = np.concatenate([self.free, np.zeros(k)])
        self.free[0] = -np.inf  # index 0 is not a variable
        at, new = self.n + 1, 2 * (n - self.n)
        self.val[at:at] = [None] * new
        self.watches[at:at] = [[] for _ in range(new)]
        self.n = n

    def _load(self, f: CnfFormula):
        """Add ``f``'s clauses at decision level 0.

        Literals false at level 0 are dropped and clauses true there are
        skipped, as are tautologies; a repeated literal keeps its first
        occurrence.  Units are enqueued after the whole batch, so a batch
        is simplified only against what earlier calls fixed, and a fresh
        solver watches exactly the clauses it is given.
        """
        self._backtrack(0)
        self._grow(f.n_vars)
        self.loaded.clauses.extend(f.clauses)
        self.loaded.n_vars = self.n
        if not self.ok:
            return
        val, watches = self.val, self.watches
        units = []
        for cl in f.clauses:
            out = []
            for lit in cl:  # val holds only level-0 values after backtrack(0)
                x = val[lit]
                if x is None and lit not in out:  # repeats are dropped
                    if -lit in out:
                        break  # tautology
                    out.append(lit)
                elif x:
                    break  # true at level 0
            else:
                if len(out) > 1:
                    watches[out[0]].append(out)
                    watches[out[1]].append(out)
                elif out:
                    units.append(out)
                else:
                    self.ok = False
                    return
        for unit in units:
            if not self._enqueue(unit[0], unit):
                self.ok = False
                return

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        """Make ``lit`` true for ``reason`` (None: a decision); False if it is false."""
        if self.val[lit] is not None:
            return self.val[lit]
        self.val[lit], self.val[-lit] = True, False
        v = lit if lit > 0 else -lit
        self.free[v] = -np.inf
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        if reason is not None:
            self.stats.propagations += 1
        return True

    # --- search ---

    def _run(self, f: CnfFormula, timeout_seconds: float | None,
             assumptions: tuple[int, ...]) -> SolveResult:
        """Load ``f``, then search under ``assumptions``; stats cover this call only."""
        deadline = None if timeout_seconds is None else time.perf_counter() + timeout_seconds
        self.stats = SolverStats()
        n = max(self.n, f.n_vars)
        if not all(0 < abs(lit) <= n for lit in assumptions):
            raise ValueError(f"assumptions {assumptions} outside variables 1..{n}")
        self._load(f)
        status, model = self._search(deadline, assumptions)
        return SolveResult(status, model, self.stats)

    def _search(self, deadline, assumptions):
        if not self.ok:
            return SolveStatus.UNSAT, None
        check = 0
        while True:
            check += 1
            if deadline is not None and check % 32 == 0 and time.perf_counter() > deadline:
                return SolveStatus.TIMEOUT, None

            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                if not self.trail_lim:
                    self.ok = False  # clauses are only ever added: UNSAT is final
                    return SolveStatus.UNSAT, None
                learnt, back_level = self._analyze(confl)
                self._backtrack(back_level)
                self._learn(learnt)  # learnt[0] is unassigned after the backjump
                self._decay_activity()
                continue

            for lit in assumptions:  # decided first, before any branch
                if self.val[lit] is None:
                    break
                if self.val[lit] is False:  # implied false: UNSAT under them only
                    return SolveStatus.UNSAT, None
            else:
                v = self._pick_branch()
                if v == 0:
                    model = {u: self.val[u] for u in range(1, self.n + 1)}
                    return SolveStatus.SAT, model
                self.stats.decisions += 1
                lit = v if self.phase[v] else -v
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _propagate(self):
        """Two-watched-literal BCP; returns a conflicting clause or None."""
        val, watches, trail = self.val, self.watches, self.trail
        level, reason, free = self.level, self.reason, self.free
        lvl, ninf = len(self.trail_lim), -np.inf
        qhead = self.qhead
        props = 0
        confl = None
        while confl is None and qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            watches[false_lit] = keep = []
            rest = iter(ws)
            for cl in rest:
                first = cl[0]
                if first == false_lit:
                    first = cl[0] = cl[1]
                    cl[1] = false_lit
                vf = val[first]
                if vf is True:
                    keep.append(cl)
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    if val[lk] is not False:  # a new literal to watch
                        cl[1] = lk
                        cl[k] = false_lit
                        watches[lk].append(cl)
                        break
                else:
                    keep.append(cl)
                    if vf is False:  # conflict: keep the unvisited watches
                        keep += rest
                        confl = cl
                        break
                    val[first], val[-first] = True, False
                    v = first if first > 0 else -first
                    free[v] = ninf
                    level[v] = lvl
                    reason[v] = cl
                    trail.append(first)
                    props += 1
        self.qhead = qhead
        self.stats.propagations += props
        return confl

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity, lowest index on ties;
        0 (whose ``free`` is -inf) when every variable is assigned."""
        return int(np.argmax(self.free))

    def _decay_activity(self):
        self.var_inc /= ACTIVITY_DECAY
        if self.var_inc > 1e100:
            self.activity[1:] *= 1e-100
            self.free[1:] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, confl: list[int]):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        level, trail, reason = self.level, self.trail, self.reason
        seen = bytearray(self.n + 1)
        bumped = []
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        p = 0
        cur_level = len(self.trail_lim)
        idx = len(trail) - 1
        cl = confl
        while True:
            for q in cl:
                if q == p:  # the propagated literal itself, true in its reason
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    bumped.append(v)
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            pv = p if p > 0 else -p
            idx -= 1
            seen[pv] = 0
            counter -= 1
            if counter == 0:
                break
            cl = reason[pv]
        self.activity[bumped] += self.var_inc  # each variable is bumped once
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        back = max(level[q if q > 0 else -q] for q in learnt[1:])
        # move a literal of the backjump level into the second watch slot
        for k in range(1, len(learnt)):
            v = learnt[k] if learnt[k] > 0 else -learnt[k]
            if level[v] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _learn(self, learnt: list[int]):
        if len(learnt) > 1:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)

    def _backtrack(self, back_level: int):
        if len(self.trail_lim) > back_level:
            lim = self.trail_lim[back_level]
            undone = self.trail[lim:]  # starts with a decision: never empty
            del self.trail[lim:], self.trail_lim[back_level:]
            val, phase = self.val, self.phase
            for lit in undone:
                val[lit] = val[-lit] = None
                phase[lit if lit > 0 else -lit] = lit > 0  # phase saving
            undone = np.abs(undone)
            self.free[undone] = self.activity[undone]
        self.qhead = min(self.qhead, len(self.trail))


def solve(f: CnfFormula, timeout_seconds: float | None = None,
          solver: Solver | None = None, assumptions: tuple[int, ...] = ()) -> SolveResult:
    """Decide a formula; see module docstring for the determinism contract.

    ``timeout_seconds`` bounds this call's wall time; past it the status
    is TIMEOUT.  With ``solver``, ``f`` holds only the clauses added
    since that solver's last call and the answer is for everything
    loaded so far.  ``assumptions`` are literals held true for this call
    only.  Every SAT model is checked against all clauses the solver
    holds and against the assumptions.
    """
    solver = solver or Solver()
    result = solver._run(f, timeout_seconds, assumptions)
    if result.status is SolveStatus.SAT and not (
            verify_model(solver.loaded, result.model)
            and all(result.model[abs(lit)] is (lit > 0) for lit in assumptions)):
        raise RuntimeError("internal error: model check failed")
    return result
