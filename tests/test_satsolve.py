import math
import random
from operator import neg

import pytest

import locktime.satsolve

from locktime.cnf import CnfFormula, tseitin
from locktime.netlist import simulate
from locktime.satsolve import (
    Solver,
    SolverStats,
    SolveStatus,
    solve,
    verify_model,
)
from oracles import (all_input_vectors, cnf_is_satisfiable, enumerate_cnf, random_3sat,
                     random_circuit, tseitin_vars)


def F(clauses, n):
    return CnfFormula([tuple(c) for c in clauses], n)


def pigeonhole(pigeons, holes):
    """PHP(p, h): UNSAT when p > h; classic resolution-hard family."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return F(clauses, pigeons * holes)


def test_smallest_contradiction():
    r = solve(F([[1], [-1]], 1))
    assert r.status is SolveStatus.UNSAT
    assert r.model is None


def test_forced_by_propagation():
    r = solve(F([[1, 2], [-1]], 2))
    assert r.status is SolveStatus.SAT
    assert r.model == {1: False, 2: True}
    assert r.stats.propagations >= 2  # both assignments forced, no search
    assert r.stats.decisions == 0


def test_empty_formula_and_free_vars():
    r = solve(F([], 3))
    assert r.status is SolveStatus.SAT
    assert set(r.model) == {1, 2, 3}
    assert solve(F([], 0)).status is SolveStatus.SAT


def _as_given(clauses, n, rng):
    return [clauses]


def _reversed(clauses, n, rng):
    return [[list(reversed(c)) for c in reversed(clauses)]]


def _renumbered(clauses, n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [[[perm[abs(l) - 1] * (1 if l > 0 else -1) for l in c]
             for c in clauses]]


def _in_two_halves(clauses, n, rng):
    cut = len(clauses) // 2
    return [clauses[:cut], clauses[cut:]]


def _random_3cnfs():
    """120 seeded (clauses, n_vars) pairs, 3 to 8 variables each."""
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(3, 8)
        yield random_3sat(rng, n, rng.randint(int(3 * n), 5 * n)), n


# Each cfg presents the same formula differently to the solver: clause
# and literal order, variable numbering and incremental loading all steer
# the search down another path, none may change the verdict.
@pytest.mark.parametrize("cfg", [_as_given, _reversed, _renumbered, _in_two_halves],
                         ids=["cfg0", "cfg1", "cfg2", "cfg3"])
def test_random_3sat_vs_enumeration(cfg):
    shuffle_rng = random.Random(7)
    for clauses, n in _random_3cnfs():
        chunks = cfg(clauses, n, shuffle_rng)
        solver = Solver()
        for chunk in chunks:
            r = solve(F(chunk, n), solver=solver)
        expect = cnf_is_satisfiable(clauses, n)
        assert (r.status is SolveStatus.SAT) == expect
        if r.status is SolveStatus.SAT:
            assert verify_model(F([c for ch in chunks for c in ch], n), r.model)


def test_unsat_answers_cross_checked():
    rng = random.Random(55)
    unsat_seen = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        clauses = random_3sat(rng, n, 6 * n)
        r = solve(F(clauses, n))
        if r.status is SolveStatus.UNSAT:
            unsat_seen += 1
            assert not enumerate_cnf(clauses, n)
    assert unsat_seen >= 20  # the batch actually exercises the UNSAT path


def test_pigeonhole_unsat():
    assert solve(pigeonhole(5, 4)).status is SolveStatus.UNSAT
    assert solve(pigeonhole(4, 4)).status is SolveStatus.SAT


def test_circuit_formulas_sat_and_unsat():
    rng = random.Random(77)
    for _ in range(30):
        c = random_circuit(rng, n_inputs=rng.randint(2, 4), n_gates=rng.randint(2, 8))
        f = tseitin(c)
        names = tseitin_vars(c)
        out_vars = [names[c.gates[g].name] for g in c.primary_outputs]
        vecs = all_input_vectors(len(c.primary_inputs))
        reachable = {tuple(int(b) for b in simulate(c, v)) for v in vecs}
        all_pats = {tuple(int(b) for b in p)
                    for p in all_input_vectors(len(out_vars))}
        for pat in sorted(reachable) + sorted(all_pats - reachable)[:2]:
            units = [(v,) if b else (-v,) for v, b in zip(out_vars, pat)]
            r = solve(CnfFormula(f.clauses + units, f.n_vars))
            assert (r.status is SolveStatus.SAT) == (pat in reachable)


def test_determinism_full_counters():
    rng = random.Random(5)
    clauses = random_3sat(rng, 12, 50)
    f = F(clauses, 12)
    runs = [solve(f) for _ in range(3)]
    for r in runs[1:]:
        assert r.status is runs[0].status
        assert r.model == runs[0].model
        assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == \
               (runs[0].stats.decisions, runs[0].stats.propagations, runs[0].stats.conflicts)


def test_timeout_is_distinct_status():
    r = solve(pigeonhole(9, 8), timeout_seconds=0.02)
    assert r.status is SolveStatus.TIMEOUT
    assert r.model is None


def test_failed_model_check_raises(monkeypatch):
    monkeypatch.setattr(locktime.satsolve, "verify_model", lambda f, model: False)
    with pytest.raises(RuntimeError, match="model check failed"):
        solve(F([[1, 2]], 2))


def test_verify_model():
    f = F([[1], [1, 2]], 2)
    assert verify_model(f, {1: True, 2: False})
    assert not verify_model(f, {1: False, 2: True})  # forced var flipped
    with pytest.raises(ValueError):
        verify_model(f, {1: True})


def test_verify_model_random_agreement():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 6)
        clauses = random_3sat(rng, n, rng.randint(2, 12))
        model = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        direct = all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses)
        assert verify_model(F(clauses, n), model) == direct


def test_stats_merge():
    a = SolverStats(1, 2, 3)
    b = SolverStats(10, 20, 30)
    m = a.merged(b)
    assert (m.decisions, m.propagations, m.conflicts) == (11, 22, 33)


def test_tautology_and_duplicate_literals():
    # (x ∨ ¬x) is dropped; (y ∨ y) collapses to a unit
    r = solve(F([[1, -1], [2, 2]], 2))
    assert r.status is SolveStatus.SAT
    assert r.model[2] is True



# --- a solver that lives across calls ---

def test_fresh_counters_match_the_one_shot_solver():
    # recorded from the solver before it could live across calls
    r = solve(pigeonhole(5, 4))
    assert r.status is SolveStatus.UNSAT
    assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == (36, 338, 32)
    r = solve(F(random_3sat(random.Random(1), 30, 128), 30))
    assert r.status is SolveStatus.SAT
    assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == (36, 413, 31)


def _chunks(rng, clauses, n):
    """Split ``clauses`` into 2-4 consecutive formulas whose n_vars grow."""
    clauses = sorted(clauses, key=lambda cl: max(map(abs, cl)))
    cuts = sorted(rng.sample(range(1, len(clauses)), rng.randint(1, 3)))
    parts = [clauses[a:b] for a, b in zip([0] + cuts, cuts + [len(clauses)])]
    out, top = [], 0
    for part in parts:
        top = max([top] + [abs(l) for cl in part for l in cl])
        out.append(F(part, top if part is not parts[-1] else n))
    return out


def _chunked_cnfs():
    """150 seeded 3-CNFs, each split by :func:`_chunks` into 2-4 formulas."""
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(4, 10)
        clauses = random_3sat(rng, n, rng.randint(2 * n, 5 * n))
        yield _chunks(rng, clauses, n)


def test_incremental_verdicts_equal_fresh_solves_of_the_union():
    unsat_seen = grown = 0
    for chunks in _chunked_cnfs():
        solver = Solver()
        union = []
        for k, chunk in enumerate(chunks):
            union += chunk.clauses
            whole = F(union, chunk.n_vars)
            r = solve(chunk, solver=solver)
            assert r.status is solve(whole).status
            assert (r.status is SolveStatus.SAT) == cnf_is_satisfiable(union, chunk.n_vars)
            if r.status is SolveStatus.SAT:
                assert verify_model(whole, r.model)
            else:
                unsat_seen += 1
            grown += k > 0 and chunk.n_vars > chunks[k - 1].n_vars
    assert unsat_seen >= 20 and grown >= 20


def _stored(solver):
    """The clauses the solver stores, input and learnt: those its watch lists hold."""
    return {id(cl): cl for watching in solver.watches for cl in watching}


def test_level_zero_literals_in_later_chunks():
    solver = Solver()
    r = solve(F([[1], [-2], [1, 2, 3]], 3), solver=solver)
    assert r.status is SolveStatus.SAT and r.model[1] and not r.model[2]
    watched = _stored(solver)
    # (1 ∨ 4) is true at level 0 and skipped; -1 and 2 are false there and
    # dropped: (-1 ∨ 3 ∨ 4) is watched as (3 ∨ 4), (-1 ∨ 2 ∨ 5) becomes the
    # unit 5, and (4 ∨ -5 ∨ 3) is watched as given
    r = solve(F([[1, 4], [-1, 3, 4], [-1, 2, 5], [4, -5, 3]], 5), solver=solver)
    assert r.status is SolveStatus.SAT and r.model[5]
    new = [cl for key, cl in _stored(solver).items() if key not in watched]
    assert sorted(sorted(cl) for cl in new) == [[-5, 3, 4], [3, 4]]
    assert verify_model(solver.loaded, r.model)
    r = solve(F([[-3]], 5), solver=solver)
    assert r.status is SolveStatus.SAT and r.model[4] and not r.model[3]
    # every literal false at level 0: the formula turns UNSAT for good
    r = solve(F([[-1, 2, -5]], 5), solver=solver)
    assert r.status is SolveStatus.UNSAT and r.model is None
    assert solve(F([[6]], 6), solver=solver).status is SolveStatus.UNSAT


def test_chunk_that_turns_the_formula_unsat_by_search():
    php = pigeonhole(5, 4)
    solver = Solver()
    at_most_one = [cl for cl in php.clauses if cl[0] < 0]
    at_least_one = [cl for cl in php.clauses if cl[0] > 0]
    assert solve(F(at_most_one, php.n_vars), solver=solver).status is SolveStatus.SAT
    r = solve(F(at_least_one, php.n_vars), solver=solver)
    assert r.status is SolveStatus.UNSAT and r.stats.conflicts > 0
    # UNSAT is final: later calls answer without search
    r = solve(F([[php.n_vars + 1]], php.n_vars + 1), solver=solver)
    assert r.status is SolveStatus.UNSAT
    assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == (0, 0, 0)


def test_stats_are_per_call():
    f = F(random_3sat(random.Random(1), 30, 128), 30)
    fresh = solve(f)
    solver = Solver()
    first = solve(f, solver=solver)
    assert (first.stats.decisions, first.stats.propagations, first.stats.conflicts) == \
           (fresh.stats.decisions, fresh.stats.propagations, fresh.stats.conflicts)
    # saved phases replay the model: no conflict, at most one assignment per variable
    again = solve(F([], 30), solver=solver)
    assert again.status is SolveStatus.SAT and again.model == first.model
    assert again.stats.conflicts == 0
    assert again.stats.decisions + again.stats.propagations <= 30


def test_later_call_can_time_out():
    solver = Solver()
    assert solve(F([[1, 2]], 2), solver=solver).status is SolveStatus.SAT
    hard = pigeonhole(9, 8)
    shifted = F([[l + 2 if l > 0 else l - 2 for l in cl] for cl in hard.clauses],
                hard.n_vars + 2)
    r = solve(shifted, 0.02, solver)
    assert r.status is SolveStatus.TIMEOUT and r.model is None
    assert r.stats.conflicts > 0


def test_incremental_determinism():
    rng = random.Random(8)
    clauses = random_3sat(rng, 12, 50)
    chunks = _chunks(rng, clauses, 12)

    def run():
        solver = Solver()
        return [(r.status, r.model, r.stats.decisions, r.stats.propagations,
                 r.stats.conflicts)
                for r in (solve(c, solver=solver) for c in chunks)]

    assert run() == run()


def test_model_checked_against_every_loaded_clause(monkeypatch):
    checked = []
    monkeypatch.setattr(locktime.satsolve, "verify_model",
                        lambda f, model: checked.append(list(f.clauses)) or True)
    solver = Solver()
    solve(F([[1, 2]], 2), solver=solver)
    solve(F([[-1, 3]], 3), solver=solver)
    assert checked[-1] == [(1, 2), (-1, 3)]


# --- the kernel: same search, counted and checked ---

def _effort(results):
    return tuple(map(sum, zip(*((r.stats.conflicts, r.stats.decisions,
                                 r.stats.propagations) for r in results))))


def test_kernel_counters_are_pinned():
    # summed (conflicts, decisions, propagations), recorded before the
    # literal-indexed kernel: a change to the order in which clauses are
    # visited, watches move or literals are learnt shows up here
    assert _effort(solve(F(cl, n)) for cl, n in _random_3cnfs()) == (205, 407, 935)
    incremental = []
    for chunks in _chunked_cnfs():
        solver = Solver()
        incremental += [solve(chunk, solver=solver) for chunk in chunks]
    assert _effort(incremental) == (259, 1664, 2197)


def _check_watches_and_reasons(solver):
    n, val = solver.n, solver.val
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    watched_by = {}
    for lit in lits:
        for cl in solver.watches[lit]:
            watched_by.setdefault(id(cl), []).append(lit)
    # each stored clause, the watch lists' content, has two or more literals
    # and is watched by its first two and by no other
    for key, cl in _stored(solver).items():
        assert len(cl) >= 2 and sorted(watched_by[key]) == sorted(cl[:2]), cl
    assert all((val[v], val[-v]) in ((True, False), (False, True), (None, None))
               for v in range(1, n + 1))
    assert {l for l in lits if val[l] is True} == set(solver.trail)
    # branching reads free: a variable's activity while unassigned, else -inf
    assert solver.free[0] == -math.inf
    for v in range(1, n + 1):
        assert solver.free[v] == (solver.activity[v] if val[v] is None else -math.inf), v
    for lit in solver.trail:
        v = abs(lit)
        reason = solver.reason[v]
        if solver.level[v] > 0 and reason is not None:
            assert lit in reason, (lit, reason)
            assert all(val[q] is False for q in reason if q != lit), (lit, reason)


def test_watches_and_reasons_hold_after_every_call():
    rng = random.Random(17)
    calls = assumed = 0
    for chunks in _chunked_cnfs():
        solver = Solver()
        for chunk in chunks:
            solve(chunk, solver=solver)
            _check_watches_and_reasons(solver)
            # the same invariants after a call under assumptions
            r = solve(F([], chunk.n_vars), solver=solver,
                      assumptions=_random_assumptions(rng, chunk.n_vars))
            _check_watches_and_reasons(solver)
            solver._backtrack(0)  # what the next call does first: free is restored
            _check_watches_and_reasons(solver)
            calls += 2
            assumed += r.status is SolveStatus.SAT and r.stats.propagations > 0
    # a call that leaves propagated literals above level 0 behind
    solver = Solver()
    r = solve(F(random_3sat(random.Random(1), 30, 128), 30), solver=solver)
    assert r.stats.decisions > 0 and r.stats.conflicts > 0
    _check_watches_and_reasons(solver)
    assert any(solver.level[abs(l)] > 0 and solver.reason[abs(l)] is not None
               for l in solver.trail)
    assert calls > 600 and assumed > 100


def test_activity_rescale_keeps_free_in_step():
    # var_inc starts just below 1e100, so the first conflict's decay
    # rescales activity and free together; check right after each decay
    solver = Solver()
    solver.var_inc = 0.99e100
    decay, rescaled = solver._decay_activity, []

    def decay_and_check():
        decay()
        rescaled.append(solver.var_inc < 1e50)
        assert any(solver.val[v] is None for v in range(1, solver.n + 1))
        _check_watches_and_reasons(solver)

    solver._decay_activity = decay_and_check
    r = solve(F(random_3sat(random.Random(1), 30, 128), 30), solver=solver)
    assert r.status is SolveStatus.SAT and r.stats.conflicts > 1
    assert rescaled[0] and all(rescaled)
    assert 0 < solver.activity[1:].max() < 1e3


def _reference_load(level0, clauses):
    """The set-based simplification ``_load`` once applied, kept as an oracle.

    Returns (clauses to watch, trail after enqueueing the units, ok).  An
    empty clause stops the batch: the clauses before it stay watched and
    no unit is enqueued.  Units are enqueued in order until one is false.
    """
    true0 = set(level0)
    false0 = {-l for l in level0}
    watched, units = [], []
    for cl in clauses:
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
            watched.append(out)
        elif out:
            units.append(out[0])
        else:
            return watched, list(level0), False
    trail = list(level0)
    for unit in units:
        if -unit in trail:
            return watched, trail, False
        if unit not in trail:
            trail.append(unit)
    return watched, trail, True


def _messy_clause(rng, n, level0):
    """1-6 literals over 1..n that often repeat a literal, hold a
    complement or name a variable fixed at level 0."""
    cl = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        pick = rng.random()
        if pick < 0.3:
            cl.append(rng.choice(cl))
        elif pick < 0.45:
            cl.append(-rng.choice(cl))
        elif level0:
            cl.append(rng.choice((1, -1)) * rng.choice(level0))
    rng.shuffle(cl)
    return tuple(cl)


def test_load_equals_the_set_based_rule():
    rng = random.Random(99)
    seen = dict.fromkeys(("level0", "repeat", "tautology", "unit", "empty", "unsat"), 0)
    for _ in range(150):
        solver = Solver()
        n = rng.randint(4, 9)
        lits = [l for v in range(1, n + 1) for l in (v, -v)]
        for _ in range(rng.randint(2, 5)):
            level0 = solver.trail[:solver.trail_lim[0] if solver.trail_lim else None]
            chunk = F([_messy_clause(rng, n, level0) for _ in range(rng.randint(1, 12))], n)
            was_ok = solver.ok
            if was_ok:
                watched, trail, ok = _reference_load(level0, chunk.clauses)
            else:  # UNSAT for good: nothing more is loaded
                watched, trail, ok = [], level0, False
            stored = _stored(solver)
            watches = {l: list(solver.watches[l]) for l in lits if abs(l) <= solver.n}
            solver._load(chunk)
            new = [cl for key, cl in _stored(solver).items() if key not in stored]
            assert sorted(new) == sorted(watched)
            # the clauses stored before keep their places; each new one is
            # appended, in load order, to the lists of its first two literals
            for l in lits:
                assert solver.watches[l] == watches.get(l, []) + [cl for cl in watched
                                                                  if l in cl[:2]]
            assert solver.trail == trail
            assert solver.ok is ok
            _check_watches_and_reasons(solver)
            fixed = {abs(l) for l in level0}
            seen["level0"] += any(abs(l) in fixed for cl in chunk.clauses for l in cl)
            seen["repeat"] += any(len(set(cl)) < len(cl) for cl in chunk.clauses)
            seen["tautology"] += any(-l in cl for cl in chunk.clauses for l in cl)
            seen["unit"] += len(trail) > len(level0)
            seen["empty"] += any(set(cl) <= {-l for l in level0} for cl in chunk.clauses)
            seen["unsat"] += was_ok and not ok
            solve(F([], n), solver=solver)  # search: fixes more at level 0
    assert min(seen.values()) >= 20, seen


# --- assumptions: literals held true for one call ---

def _random_assumptions(rng, n):
    """0-3 random literals over 1..n; repeats and complements may occur."""
    return tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 3)))


def test_assumption_verdicts_match_restricted_enumeration():
    rng = random.Random(31)
    seen = {SolveStatus.SAT: 0, SolveStatus.UNSAT: 0}
    for clauses, n in _random_3cnfs():
        solver = Solver()
        for k in range(4):  # one living solver, new clauses only in the first call
            assumptions = _random_assumptions(rng, n)
            r = solve(F(clauses if k == 0 else [], n), solver=solver,
                      assumptions=assumptions)
            units = [[lit] for lit in assumptions]
            assert (r.status is SolveStatus.SAT) == cnf_is_satisfiable(clauses + units, n)
            if r.status is SolveStatus.SAT:
                assert verify_model(F(clauses + units, n), r.model)
            seen[r.status] += 1
        # the formula's own verdict is untouched by the calls before
        r = solve(F([], n), solver=solver)
        assert (r.status is SolveStatus.SAT) == cnf_is_satisfiable(clauses, n)
    assert min(seen.values()) >= 100


def test_failed_assumption_is_not_final():
    # the pigeonhole's at-least-one clauses, each guarded by -21: UNSAT under
    # 21 only after search, satisfiable without it
    php = pigeonhole(5, 4)
    guarded = F([cl + (-21,) if cl[0] > 0 else cl for cl in php.clauses], 21)
    solver = Solver()
    r = solve(guarded, solver=solver, assumptions=(21,))
    assert r.status is SolveStatus.UNSAT and r.model is None
    assert r.stats.conflicts > 0
    r = solve(F([], 21), solver=solver)
    assert r.status is SolveStatus.SAT and not r.model[21]
    # -21 is now fixed at level 0: the assumption fails at once, and a
    # formula whose own clauses fail still turns UNSAT for good
    r = solve(F([], 21), solver=solver, assumptions=(21,))
    assert r.status is SolveStatus.UNSAT
    assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == (0, 0, 0)
    assert solve(F([(21,)], 21), solver=solver).status is SolveStatus.UNSAT
    assert solve(F([], 21), solver=solver).status is SolveStatus.UNSAT


def test_assumption_levels_are_not_decisions():
    r = solve(F([[1, 2, 3], [-3, 4]], 4), assumptions=(-1, -2))
    assert r.status is SolveStatus.SAT and r.model[3] and r.model[4]
    assert (r.stats.decisions, r.stats.propagations) == (0, 2)
    with pytest.raises(ValueError, match="outside variables"):
        solve(F([[1, 2]], 2), assumptions=(3,))
