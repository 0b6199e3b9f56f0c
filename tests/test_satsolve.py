import random

import pytest

import locktime.satsolve

from locktime.cnf import CnfFormula, tseitin
from locktime.netlist import all_input_vectors, simulate
from locktime.satsolve import (
    SolverConfig,
    SolverStats,
    SolveStatus,
    luby,
    solve,
    verify_model,
)
from oracles import cnf_is_satisfiable, enumerate_cnf, random_3sat, random_circuit


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


@pytest.mark.parametrize("cfg", [
    SolverConfig(),
    SolverConfig(restarts=True, restart_interval=4, seed=7),
    SolverConfig(restarts=True, restart_interval=4),
    SolverConfig(seed=99),
])
def test_random_3sat_vs_enumeration(cfg):
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(3, 8)
        clauses = random_3sat(rng, n, rng.randint(int(3 * n), 5 * n))
        f = F(clauses, n)
        r = solve(f, cfg)
        expect = cnf_is_satisfiable(clauses, n)
        assert (r.status is SolveStatus.SAT) == expect
        if r.status is SolveStatus.SAT:
            assert verify_model(f, r.model)


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
        out_vars = [f.var_map[c.gates[g].name] for g in c.primary_outputs]
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
    runs = [solve(f, SolverConfig(seed=3, restarts=True)) for _ in range(3)]
    for r in runs[1:]:
        assert r.status is runs[0].status
        assert r.model == runs[0].model
        assert (r.stats.decisions, r.stats.propagations, r.stats.conflicts) == \
               (runs[0].stats.decisions, runs[0].stats.propagations, runs[0].stats.conflicts)


def test_seed_only_changes_phases_not_status():
    rng = random.Random(6)
    for _ in range(10):
        clauses = random_3sat(rng, 8, 30)
        f = F(clauses, 8)
        s0 = solve(f, SolverConfig(seed=0)).status
        s1 = solve(f, SolverConfig(seed=1)).status
        assert s0 is s1


def test_timeout_is_distinct_status():
    r = solve(pigeonhole(9, 8), SolverConfig(timeout_seconds=0.02))
    assert r.status is SolveStatus.TIMEOUT
    assert r.model is None
    assert r.stats.wall_seconds >= 0.0


def test_failed_model_check_raises(monkeypatch):
    monkeypatch.setattr(locktime.satsolve, "verify_model", lambda f, model: False)
    with pytest.raises(RuntimeError, match="model check failed"):
        solve(F([[1, 2]], 2))


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


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
    a = SolverStats(1, 2, 3, 0.5)
    b = SolverStats(10, 20, 30, 1.0)
    m = a.merged(b)
    assert (m.decisions, m.propagations, m.conflicts, m.wall_seconds) == (11, 22, 33, 1.5)


def test_tautology_and_duplicate_literals():
    # (x ∨ ¬x) is dropped; (y ∨ y) collapses to a unit
    r = solve(F([[1, -1], [2, 2]], 2))
    assert r.status is SolveStatus.SAT
    assert r.model[2] is True

