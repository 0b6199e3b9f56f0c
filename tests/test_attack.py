import math
import random

import numpy as np
import pytest
from scipy import stats as scipy_stats

import locktime.attack
import locktime.satsolve
from locktime.attack import (
    LABEL_KINDS,
    RANDOM_VERIFY_VECTORS,
    VERIFY_SEED,
    AttackResult,
    AttackStatus,
    attack_log_record,
    keys_equivalent,
    runtime_labels,
    sat_attack,
    verification_words,
)
from locktime.cnf import add_dip_constraint, build_miter, tseitin
from locktime.experiments import generate_records
from locktime.netlist import parse_bench, simulate
from locktime.obfuscate import (
    ObfuscationInstance,
    ObfuscationKind,
    apply_at_locations,
    random_obfuscate,
)
from locktime.satsolve import SolveResult, SolverStats, SolveStatus
from oracles import all_input_vectors, event_driven_simulate, random_circuit, word_rows

XOR = ObfuscationKind("xor")
LUT2 = ObfuscationKind("lut", 2)


def test_single_keygate_attack(c17):
    inst = random_obfuscate(c17, 1, XOR, seed=4)
    r = sat_attack(inst)
    assert r.status == AttackStatus.SOLVED
    assert 1 <= len(r.dips) <= 32
    assert r.recovered_key == (0,)  # only the transparent key survives
    assert keys_equivalent(c17, inst.obfuscated, r.recovered_key)


def test_unsatisfiable_key_constraints_raise(monkeypatch, c17):
    inst = random_obfuscate(c17, 1, XOR, seed=4)
    monkeypatch.setattr(locktime.attack, "solve",
                        lambda f, timeout_seconds=None, solver=None, assumptions=():
                        SolveResult(SolveStatus.UNSAT, None))
    with pytest.raises(RuntimeError, match="key constraints must stay satisfiable"):
        sat_attack(inst)


@pytest.mark.parametrize("circuit, kind, n_loc, seed", [
    ("c17", LUT2, 3, 2), ("mid12", XOR, 4, 1), ("mid12", LUT2, 2, 0)])
def test_every_solve_is_observable(monkeypatch, request, circuit, kind, n_loc, seed):
    calls = []
    real = locktime.attack.solve

    def counting(f, timeout_seconds=None, solver=None, assumptions=()):
        res = real(f, timeout_seconds, solver, assumptions)
        calls.append((len(f.clauses), solver, assumptions, res))
        return res

    monkeypatch.setattr(locktime.attack, "solve", counting)
    inst = random_obfuscate(request.getfixturevalue(circuit), n_loc, kind, seed=seed)
    r = sat_attack(inst)
    assert r.status == AttackStatus.SOLVED
    assert len(calls) == len(r.dips) + 2
    for field in ("decisions", "propagations", "conflicts"):
        assert sum(getattr(res.stats, field) for *_, res in calls) == \
               getattr(r.total_stats, field)
    # one solver for every call, the key call included
    solver = calls[0][1]
    assert solver is not None and all(s is solver for _, s, _, _ in calls)
    # every DIP call assumes the activation literal and the last one fails
    # on it; the key call assumes nothing and loads only the unit -act
    hunts, (key_loaded, _, key_assumed, _) = calls[:-1], calls[-1]
    (act,) = hunts[0][2]
    assert all(a == (act,) for _, _, a, _ in hunts) and key_assumed == ()
    assert [res.status for *_, res in hunts] == [SolveStatus.SAT] * len(r.dips) + [
        SolveStatus.UNSAT]
    assert key_loaded == 1 and solver.loaded.clauses[-1] == (-act,)
    # each clause is loaded once: the miter, its DIP constraints, each over
    # the model of the call that found its DIP, and the unit
    m = build_miter(inst.obfuscated)
    for (*_, res), dip in zip(hunts, r.dips):
        assert tuple(int(res.model[v]) for v in m.input_vars) == dip
        add_dip_constraint(m, res.model, simulate(inst.base, dip))
    assert sum(n for n, *_ in calls) == len(m.clauses) + 1


def test_attack_loads_the_miter_formula(monkeypatch, c17):
    calls = []
    real = locktime.attack.solve

    def capturing(f, timeout_seconds=None, solver=None, assumptions=()):
        calls.append((list(f.clauses), f.n_vars, assumptions))
        return real(f, timeout_seconds, solver, assumptions)

    monkeypatch.setattr(locktime.attack, "solve", capturing)
    inst = random_obfuscate(c17, 3, LUT2, seed=2)
    assert sat_attack(inst).status == AttackStatus.SOLVED
    m = build_miter(inst.obfuscated)
    # the first call decides the exported miter: its clauses, with the
    # formula's closing unit (act,) held as the assumption
    assert calls[0] == (m.clauses, m.n_vars, (m.act,))
    assert m.formula.clauses == calls[0][0] + [calls[0][2]]
    # the key is extracted under -act, numbered as in the miter
    assert calls[-1][0] == [(-m.act,)] and calls[-1][2] == ()


def test_redundant_keygate_attack_zero_iterations():
    base = parse_bench(
        "INPUT(a)\nOUTPUT(z)\nna = NOT(a)\nc0 = AND(a, na)\nz = BUFF(c0)\n")
    obf = parse_bench(
        "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(z)\n"
        "na = NOT(a)\nc0 = AND(a, na)\nkg = XOR(c0, keyinput0)\nz = AND(kg, c0)\n")
    mask = [0] * obf.n
    mask[obf.name_to_id["kg"]] = 1
    inst = ObfuscationInstance(base, obf, XOR, (obf.name_to_id["kg"],), (0,),
                               tuple(mask), seed=0)
    r = sat_attack(inst)
    assert r.status == AttackStatus.SOLVED
    assert r.dips == []
    assert r.recovered_key in ((0,), (1,))  # any key is correct here


def test_lock_that_reaches_no_output_attack_zero_iterations():
    # d feeds no output: the miter has no difference to find, and any key
    # is correct
    base = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nd = OR(a, b)\n")
    for kind in (XOR, LUT2):
        inst = apply_at_locations(base, kind, (base.name_to_id["d"],))
        r = sat_attack(inst)
        assert r.status == AttackStatus.SOLVED and r.dips == []
        assert keys_equivalent(base, inst.obfuscated, r.recovered_key)


def test_lut_attack_key_functional_not_literal(c17):
    for seed in (1, 2, 3):
        inst = random_obfuscate(c17, 3, LUT2, seed=seed)
        r = sat_attack(inst)
        assert r.status == AttackStatus.SOLVED
        assert len(r.recovered_key) == 12
        assert keys_equivalent(c17, inst.obfuscated, r.recovered_key)
        assert len(r.dips) <= 32


def test_multi_keygate_attack(c17, mid12):
    inst = random_obfuscate(c17, 3, XOR, seed=8)
    r = sat_attack(inst)
    assert r.status == AttackStatus.SOLVED
    assert r.recovered_key == (0, 0, 0)

    inst2 = random_obfuscate(mid12, 3, XOR, seed=8)
    r2 = sat_attack(inst2)
    assert r2.status == AttackStatus.SOLVED
    assert len(r2.dips) <= 2 ** 12
    assert keys_equivalent(mid12, inst2.obfuscated, r2.recovered_key)


def test_dips_never_recur(c17):
    for seed in range(6):
        inst = random_obfuscate(c17, 2, LUT2, seed=seed)
        r = sat_attack(inst)
        assert len(set(r.dips)) == len(r.dips)


def test_attack_determinism(c17):
    inst = random_obfuscate(c17, 2, LUT2, seed=9)
    a = sat_attack(inst)
    b = sat_attack(inst)
    assert a.recovered_key == b.recovered_key
    assert a.total_stats.conflicts == b.total_stats.conflicts
    assert a.total_stats.decisions == b.total_stats.decisions
    assert a.dips == b.dips


@pytest.mark.parametrize("circuit, kind, n_loc, seed, counters", [
    # (DIPs, conflicts, decisions, propagations): the benchmark's attack-mid12
    # list and the README example
    ("mid12", XOR, 8, 0, (3, 213, 701, 8742)),
    ("mid12", LUT2, 4, 4, (9, 85, 464, 5538)),
    ("mid12", ObfuscationKind("lut", 3), 2, 5, (7, 89, 412, 4896)),
    ("c17", ObfuscationKind("xnor"), 2, 3, (2, 3, 21, 85)),
], ids=["mid12-xor8", "mid12-lut2x4", "mid12-lut3x2", "c17-xnor2"])
def test_attack_counters_are_pinned(request, circuit, kind, n_loc, seed, counters):
    # conflicts are the dataset's reproducible label: any change to the
    # search (phases, decay, clause order) shows here first
    inst = random_obfuscate(request.getfixturevalue(circuit), n_loc, kind, seed=seed)
    r = sat_attack(inst)
    st = r.total_stats
    assert r.status == AttackStatus.SOLVED
    assert (len(r.dips), st.conflicts, st.decisions, st.propagations) == counters


def test_gendata_c17_counters_are_pinned(c17):
    # the benchmark's 50 short c17 attacks, where solver set-up is about
    # half the cost: summed (dips, conflicts, decisions, propagations)
    totals = [0, 0, 0, 0]
    for seed in (0, 1):
        _, logs = generate_records(c17, 25, LUT2, (1, 3), seed)
        for log in logs:
            assert log["status"] == AttackStatus.SOLVED
            for k, name in enumerate(("iterations", "conflicts", "decisions", "propagations")):
                totals[k] += log[name]
    assert tuple(totals) == (333, 1095, 6757, 53080)


# the most of the variance of log1p(conflicts) that the solver's phase seed
# may explain.  The shared miter reads 0.047 (lut2) and 0.031 (xor) here; a
# miter of two full copies reads 0.74 and 0.63, labels mostly solver noise
PHASE_NOISE_SHARE_BOUND = 0.2


@pytest.mark.parametrize("kind", [LUT2, XOR], ids=["lut2", "xor"])
def test_labels_depend_on_the_instance_not_the_phase_seed(monkeypatch, mid12, kind):
    # 12 seeded mid12 instances with 1-6 locations, each attacked under
    # phase seeds 0-2: the within-instance sum of squares of log1p(conflicts)
    # over the total is the share of label variance that is solver noise
    labels = np.empty((12, 3))
    for i in range(labels.shape[0]):
        inst = random_obfuscate(mid12, 1 + i % 6, kind, seed=500 + i)
        for j in range(labels.shape[1]):
            monkeypatch.setattr(locktime.satsolve, "PHASE_SEED", j)
            labels[i, j] = np.log1p(sat_attack(inst).total_stats.conflicts)
    within = ((labels - labels.mean(axis=1, keepdims=True)) ** 2).sum()
    total = ((labels - labels.mean()) ** 2).sum()
    assert within / total < PHASE_NOISE_SHARE_BOUND


# y = AND(a, a) repeats a fanin, so its Tseitin clauses repeat a variable
AND_AA = ("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
          "t = AND(a, a)\ny = OR(t, b)\nz = NAND(t, c)\n")


@pytest.mark.parametrize("kind", [XOR, LUT2], ids=["xor", "lut2"])
def test_attack_on_a_repeated_fanin(kind):
    base = parse_bench(AND_AA)
    for seed in range(3):
        inst = random_obfuscate(base, 3, kind, seed=seed)  # every gate, t too
        for c in (base, inst.obfuscated):
            assert any(len({abs(l) for l in cl}) < len(cl) for cl in tseitin(c).clauses)
        r = sat_attack(inst)
        assert r.status == AttackStatus.SOLVED
        assert keys_equivalent(base, inst.obfuscated, r.recovered_key)


def test_attack_timeout(mid12):
    inst = random_obfuscate(mid12, 4, XOR, seed=2)
    r = sat_attack(inst, timeout_seconds=1e-4)
    assert r.status == AttackStatus.TIMEOUT
    assert r.recovered_key is None
    assert runtime_labels(r)["conflicts"] == r.total_stats.conflicts


@pytest.mark.parametrize("timeout", [-1.0, 0.0, math.nan])
def test_attack_rejects_bad_timeout(c17, timeout):
    inst = random_obfuscate(c17, 2, XOR, seed=3)
    with pytest.raises(ValueError, match="timeout must be > 0"):
        sat_attack(inst, timeout_seconds=timeout)
    assert sat_attack(inst, timeout_seconds=math.inf).status == AttackStatus.SOLVED


def test_runtime_labels_arithmetic():
    # raw effort only: the regressor applies log1p itself
    r = AttackResult((0,), [], 0.5, SolverStats(conflicts=999), AttackStatus.SOLVED)
    labels = runtime_labels(r)
    assert LABEL_KINDS == ("wall_seconds", "conflicts")
    assert tuple(labels) == LABEL_KINDS
    assert labels["wall_seconds"] == 0.5
    assert labels["conflicts"] == 999.0


def test_conflicts_label_reproducible_wall_not_required(c17):
    inst = random_obfuscate(c17, 2, XOR, seed=3)
    r1, r2 = sat_attack(inst), sat_attack(inst)
    assert runtime_labels(r1)["conflicts"] == runtime_labels(r2)["conflicts"]
    assert r1.status == AttackStatus.SOLVED


def test_verification_vectors_bounds(c17):
    # every input vector up to 16 inputs; 1000 seeded random ones above
    words, count = verification_words(c17)
    assert count == 32
    np.testing.assert_array_equal(word_rows(words, count), all_input_vectors(5))
    big = parse_bench(
        "\n".join(f"INPUT(i{k})" for k in range(17)) + "\nOUTPUT(z)\n"
        + "z = AND(" + ", ".join(f"i{k}" for k in range(17)) + ")\n")
    words, count = verification_words(big)
    assert (len(words), count) == (17, 1000)
    assert all(0 <= w < 1 << 1000 for w in words)
    expect = np.random.default_rng(VERIFY_SEED).integers(0, 2, (1000, 17), dtype=np.uint8)
    np.testing.assert_array_equal(word_rows(words, count), expect)
    assert verification_words(big) == (words, count)


@pytest.mark.parametrize("kind", ["xor", "lut2"])
def test_keys_equivalent_on_the_sampled_vectors_above_16_inputs(kind):
    # 18 inputs take the random-vector path: the true key passes, and a
    # one-bit-flipped key fails exactly when it changes an output on a sample
    base = random_circuit(random.Random(18), 18, 30)
    inst = random_obfuscate(base, 4, ObfuscationKind.parse(kind), seed=3)
    words, count = verification_words(base)
    assert count == RANDOM_VERIFY_VECTORS
    vecs = word_rows(words, count)
    expect = [event_driven_simulate(base, row) for row in vecs]
    assert keys_equivalent(base, inst.obfuscated, inst.key_truth)
    failing = 0
    for i in range(len(inst.key_truth)):
        key = list(inst.key_truth)
        key[i] ^= 1
        differs = any(event_driven_simulate(inst.obfuscated, row, key) != out
                      for row, out in zip(vecs, expect))
        assert keys_equivalent(base, inst.obfuscated, key) is not differs, i
        failing += differs
    assert 0 < failing < len(inst.key_truth)


def test_attack_log_record_fields(c17):
    inst = random_obfuscate(c17, 1, XOR, seed=0)
    r = sat_attack(inst)
    rec = attack_log_record("inst-000", inst, r)
    assert set(rec) == {"id", "n_locations", "iterations", "wall_seconds",
                        "decisions", "propagations", "conflicts", "status"}
    assert rec["n_locations"] == 1
    assert rec["iterations"] == len(r.dips)
    assert rec["status"] == "SOLVED"


def test_effort_grows_with_locations(c17):
    """More locked gates -> more solver effort, in rank correlation."""
    n_locs, conflicts = [], []
    for seed in range(40):
        n = 1 + seed % 3
        inst = random_obfuscate(c17, n, LUT2, seed=seed)
        r = sat_attack(inst)
        assert r.status == AttackStatus.SOLVED
        n_locs.append(n)
        conflicts.append(r.total_stats.conflicts)
    rho = scipy_stats.spearmanr(n_locs, conflicts).statistic
    assert rho > 0.3
