"""A small, deterministic, incremental CDCL SAT solver.

Features: two-watched-literal unit propagation, VSIDS-style decaying
activity with lowest-index tie-break, first-UIP clause learning with
non-chronological backjumping, and a wall clock timeout reported as a
distinct status.

A :class:`Solver` can live across calls (MiniSat style, Eén & Sörensson,
SAT 2003): each ``solve(f, timeout_seconds, solver)`` loads only the
clauses of ``f`` at decision level 0 and searches again.  Variables grow
with the formulas loaded; activities, saved phases and learnt clauses
carry over.  A plain ``solve(f)`` is the same code on a fresh, empty
solver.

Determinism contract: identical call sequences of clauses give
identical statuses, models and effort counters across runs and
machines.  ``wall_seconds`` is the single nondeterministic field.
Stats are per call.

Counter semantics: ``decisions`` counts branch assignments,
``propagations`` counts literals enqueued with a reason (unit
propagation, initial units, asserting literals), ``conflicts`` counts
conflicting clauses encountered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from operator import neg

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
    wall_seconds: float = 0.0

    def merged(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(self.decisions + other.decisions,
                           self.propagations + other.propagations,
                           self.conflicts + other.conflicts,
                           self.wall_seconds + other.wall_seconds)


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
    """

    UNASSIGNED = -1

    def __init__(self):
        self.rng = np.random.default_rng(PHASE_SEED)
        self.n = 0
        self.loaded = CnfFormula([], 0)
        self.assigns: list[int] = []
        self.level: list[int] = []
        self.reason: list[int] = []  # clause index, -1 for decisions
        self.phase: list[int] = []
        self.trail: list[int] = []  # literals in assignment order (true literals)
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []  # watched: input, then learnt
        self.watches: list[list[int]] = []
        self.activity = np.zeros(0, dtype=np.float64)
        self.unassigned = np.zeros(0, dtype=bool)
        self.var_inc = 1.0
        self.stats = SolverStats()
        self.ok = True

    # --- clause plumbing ---

    def _grow(self, n: int):
        """Extend every per-variable array to variables ``1..n``.

        A fresh solver draws n + 1 phases (index 0 included) at once, so
        its phases equal a one-shot solver's; later variables draw on.
        """
        k = n + 1 - len(self.assigns)
        if k <= 0:
            return
        self.n = n
        self.assigns += [self.UNASSIGNED] * k
        self.level += [0] * k
        self.reason += [-1] * k
        self.phase += self.rng.integers(0, 2, size=k, dtype=np.int64).tolist()
        self.watches += [[] for _ in range(2 * k)]
        self.activity = np.concatenate([self.activity, np.zeros(k)])
        self.unassigned = np.concatenate([self.unassigned, np.ones(k, dtype=bool)])
        self.activity[0] = -np.inf  # index 0 is not a variable
        self.unassigned[0] = False

    def _load(self, f: CnfFormula):
        """Add ``f``'s clauses at decision level 0.

        Literals false at level 0 are dropped and clauses true there are
        skipped.  Units are enqueued after the whole batch, so a batch
        is simplified only against what earlier calls fixed, and a fresh
        solver watches exactly the clauses it is given.
        """
        self._backtrack(0)
        self._grow(f.n_vars)
        self.loaded.clauses.extend(f.clauses)
        self.loaded.n_vars = self.n
        if not self.ok:
            return
        true0 = set(self.trail)  # after backtrack(0): exactly the level-0 literals
        false0 = {-l for l in self.trail}
        clauses, watches, lidx = self.clauses, self.watches, self._lidx
        units = []
        for cl in f.clauses:
            if not true0.isdisjoint(cl):
                continue  # true at level 0
            if not false0.isdisjoint(cl):
                cl = [l for l in cl if l not in false0]
            if len(set(map(abs, cl))) < len(cl):  # a variable repeats
                if not set(cl).isdisjoint(map(neg, cl)):
                    continue  # tautology
                cl = dict.fromkeys(cl)  # drop repeats, keep first order
            out = list(cl)
            if len(out) > 1:
                ci = len(clauses)
                clauses.append(out)
                watches[lidx(out[0])].append(ci)
                watches[lidx(out[1])].append(ci)
            elif out:
                units.append(out[0])
            else:
                self.ok = False
                return
        for lit in units:
            if not self._enqueue(lit, reason=-2):  # -2: input unit
                self.ok = False
                return

    def _watch(self, lit: int, ci: int):
        self.watches[self._lidx(lit)].append(ci)

    @staticmethod
    def _lidx(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = lit if lit > 0 else -lit
        a = self.assigns[v]
        want = 1 if lit > 0 else 0
        if a >= 0:
            return a == want
        self.assigns[v] = want
        self.unassigned[v] = False
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        if reason != -1:
            self.stats.propagations += 1
        return True

    # --- search ---

    def _run(self, f: CnfFormula, timeout_seconds: float | None) -> SolveResult:
        """Load ``f``, then search; stats cover this call only."""
        t0 = time.perf_counter()
        deadline = None if timeout_seconds is None else t0 + timeout_seconds
        self.stats = SolverStats()
        try:
            self._load(f)
            status, model = self._search(deadline)
        finally:
            self.stats.wall_seconds = time.perf_counter() - t0
        if status is SolveStatus.UNSAT:
            self.ok = False  # clauses are only ever added: UNSAT is final
        return SolveResult(status, model, self.stats)

    def _search(self, deadline):
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
                    return SolveStatus.UNSAT, None
                learnt, back_level = self._analyze(confl)
                self._backtrack(back_level)
                if not self._learn(learnt):
                    return SolveStatus.UNSAT, None
                self._decay_activity()
                continue

            v = self._pick_branch()
            if v == 0:
                model = {u: bool(self.assigns[u]) for u in range(1, self.n + 1)}
                return SolveStatus.SAT, model
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            lit = v if self.phase[v] else -v
            self._enqueue(lit, reason=-1)

    def _propagate(self):
        """Two-watched-literal BCP; returns a conflicting clause index or None."""
        assigns = self.assigns
        clauses = self.clauses
        watches = self.watches
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            fidx = self._lidx(-lit)
            ws = watches[fidx]
            keep = []
            i = 0
            nw = len(ws)
            while i < nw:
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == -lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                a = assigns[first] if first > 0 else assigns[-first]
                v0 = -1 if a < 0 else (a if first > 0 else 1 - a)
                if v0 == 1:
                    keep.append(ci)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    lk = cl[k]
                    ak = assigns[lk] if lk > 0 else assigns[-lk]
                    vk = -1 if ak < 0 else (ak if lk > 0 else 1 - ak)
                    if vk != 0:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches[self._lidx(cl[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if v0 == 0:
                    keep.extend(ws[i:])
                    watches[fidx] = keep
                    return ci
                self._enqueue(first, reason=ci)
            watches[fidx] = keep
        return None

    def _pick_branch(self) -> int:
        masked = np.where(self.unassigned, self.activity, -np.inf)
        v = int(np.argmax(masked))  # first max == lowest index on ties
        if masked[v] == -np.inf:
            return 0
        return v

    def _decay_activity(self):
        self.var_inc /= ACTIVITY_DECAY
        if self.var_inc > 1e100:
            self.activity[1:] *= 1e-100
            self.var_inc *= 1e-100

    def _bump(self, v: int):
        self.activity[v] += self.var_inc

    def _analyze(self, confl: int):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        seen = bytearray(self.n + 1)
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        p = 0
        cur_level = len(self.trail_lim)
        idx = len(self.trail) - 1
        reason = confl
        while True:
            cl = self.clauses[reason]
            for q in cl:
                if q == p:  # the propagated literal itself, true in its reason
                    continue
                v = q if q > 0 else -q
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] if self.trail[idx] > 0 else -self.trail[idx]]:
                idx -= 1
            p = self.trail[idx]
            pv = p if p > 0 else -p
            idx -= 1
            seen[pv] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[pv]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[q if q > 0 else -q] for q in learnt[1:])
        # move a literal of the backjump level into the second watch slot
        for k in range(1, len(learnt)):
            v = learnt[k] if learnt[k] > 0 else -learnt[k]
            if self.level[v] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _learn(self, learnt: list[int]) -> bool:
        if len(learnt) == 1:
            return self._enqueue(learnt[0], reason=-2)
        ci = len(self.clauses)
        self.clauses.append(learnt)
        self._watch(learnt[0], ci)
        self._watch(learnt[1], ci)
        return self._enqueue(learnt[0], reason=ci)

    def _backtrack(self, back_level: int):
        while len(self.trail_lim) > back_level:
            lim = self.trail_lim.pop()
            while len(self.trail) > lim:
                lit = self.trail.pop()
                v = lit if lit > 0 else -lit
                self.phase[v] = self.assigns[v]  # phase saving
                self.assigns[v] = self.UNASSIGNED
                self.unassigned[v] = True
                self.reason[v] = -1
        self.qhead = min(self.qhead, len(self.trail))


def solve(f: CnfFormula, timeout_seconds: float | None = None,
          solver: Solver | None = None) -> SolveResult:
    """Decide a formula; see module docstring for the determinism contract.

    ``timeout_seconds`` bounds this call's wall time; past it the status
    is TIMEOUT.  With ``solver``, ``f`` holds only the clauses added
    since that solver's last call and the answer is for everything
    loaded so far.  Every SAT model is checked against all clauses the
    solver holds.
    """
    solver = solver or Solver()
    result = solver._run(f, timeout_seconds)
    if result.status is SolveStatus.SAT and not verify_model(solver.loaded,
                                                             result.model):
        raise RuntimeError("internal error: model check failed")
    return result
