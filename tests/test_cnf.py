import hashlib
import itertools
import random

import numpy as np
import pytest

from locktime.cnf import (
    CnfFormula,
    add_dip_constraint,
    build_miter,
    to_dimacs,
    tseitin,
)
from locktime.netlist import Circuit, GateType, key_cone, parse_bench, simulate
from locktime.obfuscate import (ObfuscationKind, apply_at_locations, eligible_gates,
                                random_obfuscate)
from locktime.satsolve import Solver, SolveStatus, solve
from oracles import (dip_model, enumerate_cnf, enumerate_models_np, full_copy_dip_constraint,
                     layered_dag, parse_dimacs, random_circuit, simulate_many, tseitin_vars,
                     two_copy_miter)


def test_single_and_clause_set():
    c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
    f, v = tseitin(c), tseitin_vars(c)
    a, b, y = v["a"], v["b"], v["y"]
    assert (a, b, y) == (1, 2, 3)  # inputs first, then internals in topo order
    got = {frozenset(cl) for cl in f.clauses}
    assert got == {frozenset({-y, a}), frozenset({-y, b}), frozenset({y, -a, -b})}
    models = enumerate_cnf([list(cl) for cl in f.clauses], f.n_vars)
    assert {(m[a], m[b], m[y]) for m in models} == \
           {(False, False, False), (False, True, False),
            (True, False, False), (True, True, True)}


def test_not_clause_set():
    c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    f, v = tseitin(c), tseitin_vars(c)
    a, y = v["a"], v["y"]
    assert {frozenset(cl) for cl in f.clauses} == {frozenset({y, a}), frozenset({-y, -a})}


@pytest.mark.parametrize("gtype,arity,expect", [
    ("AND", 3, 4), ("NAND", 4, 5), ("OR", 2, 3), ("NOR", 3, 4),
    ("XOR", 2, 4), ("XNOR", 2, 4), ("BUFF", 1, 2),
])
def test_clause_counts(gtype, arity, expect):
    ins = "\n".join(f"INPUT(i{k})" for k in range(arity))
    args = ", ".join(f"i{k}" for k in range(arity))
    f = tseitin(parse_bench(f"{ins}\nOUTPUT(y)\ny = {gtype}({args})\n"))
    assert len(f.clauses) == expect


# the exact clauses, in order, of a one-gate circuit y = TYPE(i0, ...): the
# inputs are variables 1..arity, y is arity + 1, and the one auxiliary of a
# three-input xor chain is arity + 2.  Clause order drives solver counters.
CLAUSE_ORDER = {
    ("AND", 2): [(-3, 1), (-3, 2), (3, -1, -2)],
    ("AND", 3): [(-4, 1), (-4, 2), (-4, 3), (4, -1, -2, -3)],
    ("NAND", 2): [(3, 1), (3, 2), (-3, -1, -2)],
    ("NAND", 3): [(4, 1), (4, 2), (4, 3), (-4, -1, -2, -3)],
    ("OR", 2): [(3, -1), (3, -2), (-3, 1, 2)],
    ("OR", 3): [(4, -1), (4, -2), (4, -3), (-4, 1, 2, 3)],
    ("NOR", 2): [(-3, -1), (-3, -2), (3, 1, 2)],
    ("NOR", 3): [(-4, -1), (-4, -2), (-4, -3), (4, 1, 2, 3)],
    ("XOR", 2): [(-3, 1, 2), (-3, -1, -2), (3, -1, 2), (3, 1, -2)],
    ("XOR", 3): [(-5, 1, 2), (-5, -1, -2), (5, -1, 2), (5, 1, -2),
                 (-4, 5, 3), (-4, -5, -3), (4, -5, 3), (4, 5, -3)],
    ("XNOR", 2): [(3, 1, 2), (3, -1, -2), (-3, -1, 2), (-3, 1, -2)],
    ("XNOR", 3): [(-5, 1, 2), (-5, -1, -2), (5, -1, 2), (5, 1, -2),
                  (4, 5, 3), (4, -5, -3), (-4, -5, 3), (-4, 5, -3)],
    ("NOT", 1): [(2, 1), (-2, -1)],
    ("BUFF", 1): [(-2, 1), (2, -1)],
}


@pytest.mark.parametrize("gtype,arity", list(CLAUSE_ORDER))
def test_clause_order_per_gate_type(gtype, arity):
    ins = "\n".join(f"INPUT(i{k})" for k in range(arity))
    args = ", ".join(f"i{k}" for k in range(arity))
    f = tseitin(parse_bench(f"{ins}\nOUTPUT(y)\ny = {gtype}({args})\n"))
    assert f.clauses == CLAUSE_ORDER[gtype, arity]


def _pinned_instances(c17, mid12):
    """Seeded c17, mid12 and 300-gate DAG instances of every locking kind,
    each with its rng for DIPs and simulation vectors."""
    for base, m in ((c17, 2), (mid12, 3), (layered_dag(300), 6)):
        for kind in map(ObfuscationKind.parse, ("xor", "xnor", "lut1", "lut2", "lut3", "lut4")):
            n_locations = min(m, len(eligible_gates(base, kind)))  # c17 has no lut1 site
            for seed in (0, 1) if n_locations else ():
                obf = random_obfuscate(base, n_locations, kind, seed).obfuscated
                yield base, obf, np.random.default_rng(seed)


# sha256 over tseitin's DIMACS and simulate_many's output bytes of the
# pinned instances: the single-copy encoding and the simulator
ENCODING_PIN = "80cf4b1db691f4fe79e7a9adcabff142da7441f1b1ff09d9d8e686ffa91a88c9"
# sha256 over a two-DIP build_miter DIMACS of the same instances, each DIP
# constraint over the model values that dip_model simulates
MITER_PIN = "5fdd6c545506d322aa0b899d8b533f4a78038801b021c072ad35fbcfcaa34264"


def test_encoding_and_simulation_bytes_are_pinned(c17, mid12):
    h = hashlib.sha256()
    for base, obf, rng in _pinned_instances(c17, mid12):
        h.update(to_dimacs(tseitin(obf)).encode())
        inputs = rng.integers(0, 2, (64, len(base.primary_inputs)))
        key = rng.integers(0, 2, obf.key_bits)
        h.update(simulate_many(obf, inputs, key).tobytes())
    assert h.hexdigest() == ENCODING_PIN


def test_miter_bytes_are_pinned(c17, mid12):
    h = hashlib.sha256()
    for base, obf, rng in _pinned_instances(c17, mid12):
        miter = build_miter(obf)
        for dip in rng.integers(0, 2, (2, len(base.primary_inputs))):
            add_dip_constraint(miter, dip_model(miter, dip), simulate(base, dip))
        h.update(to_dimacs(miter.formula).encode())
    assert h.hexdigest() == MITER_PIN


def test_lut1_models_are_inverter():
    c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = LUT[10](a)\n")
    f, v = tseitin(c), tseitin_vars(c)
    a, y = v["a"], v["y"]
    k0, k1 = v["y$k0"], v["y$k1"]
    clauses = [list(cl) for cl in f.clauses] + [[k0], [-k1]]  # key = (1, 0)
    models = enumerate_cnf(clauses, f.n_vars)
    assert {(m[a], m[y]) for m in models} == {(False, True), (True, False)}
    assert len(models) == 2  # aux selector vars are forced


def test_lut2_models_match_every_table():
    c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT[0000](a, b)\n")
    f, v = tseitin(c), tseitin_vars(c)
    a, b, y = v["a"], v["b"], v["y"]
    kv = [v[f"y$k{j}"] for j in range(4)]
    for table in range(16):
        bits = [(table >> (3 - j)) & 1 for j in range(4)]
        clauses = [list(cl) for cl in f.clauses]
        clauses += [[kv[j]] if bits[j] else [-kv[j]] for j in range(4)]
        models = enumerate_cnf(clauses, f.n_vars)
        assert len(models) == 4
        for m in models:
            idx = (int(m[a]) << 1) | int(m[b])
            assert int(m[y]) == bits[idx]


def test_projection_matches_simulation():
    """Model set projected onto nets == graph of simulate, small circuits."""
    rng = random.Random(19)
    for _ in range(25):
        c = random_circuit(rng, n_inputs=rng.randint(1, 3), n_gates=rng.randint(1, 6))
        f = tseitin(c)
        if f.n_vars > 18:
            continue
        models = enumerate_models_np([list(cl) for cl in f.clauses], f.n_vars)
        n_pi = len(c.primary_inputs)
        assert models.shape[0] == 2 ** n_pi  # exactly one model per input vector
        names = tseitin_vars(c)
        pi_vars = [names[c.gates[g].name] - 1 for g in c.primary_inputs]
        net_vars = {g.id: names[g.name] - 1 for g in c.gates}
        for row in models:
            invec = [row[v] for v in pi_vars]
            expect = {g.id: v for g, v in zip(c.gates, _all_values(c, invec))}
            for gid, var in net_vars.items():
                assert row[var] == expect[gid]


def _all_values(c, invec):
    """Recompute every net value via the public simulator, one net at a time."""
    probe = Circuit(c.gates, c.primary_inputs, tuple(range(c.n)), c.key_inputs)
    return simulate(probe, invec)


def test_tseitin_var_numbering_with_keys(c17):
    inst = random_obfuscate(c17, 2, ObfuscationKind("xor"), seed=1)
    v = tseitin_vars(inst.obfuscated)
    n_pi = len(c17.primary_inputs)
    for i, gid in enumerate(inst.obfuscated.primary_inputs):
        assert v[inst.obfuscated.gates[gid].name] == i + 1
    key_vars = [v[inst.obfuscated.gates[g].name] for g in inst.obfuscated.key_inputs]
    assert key_vars == [n_pi + 1, n_pi + 2]
    # through that numbering, the one model of each input vector and key
    # (key bit i is variable n_pi + 1 + i) gives every net its simulated value
    rng = np.random.default_rng(3)
    for kind in ("xor", "lut2"):
        obf = random_obfuscate(c17, 2, ObfuscationKind.parse(kind), seed=1).obfuscated
        f, v = tseitin(obf), tseitin_vars(obf)
        probe = Circuit(obf.gates, obf.primary_inputs, tuple(range(obf.n)), obf.key_inputs)
        for _ in range(8):
            vec = rng.integers(0, 2, n_pi).tolist()
            key = rng.integers(0, 2, obf.key_bits).tolist()
            fixed = [v[obf.gates[g].name] for g in obf.primary_inputs]
            fixed += range(n_pi + 1, n_pi + 1 + obf.key_bits)
            units = [(x,) if b else (-x,) for x, b in zip(fixed, vec + key)]
            r = solve(CnfFormula(f.clauses + units, f.n_vars))
            assert [int(r.model[v[g.name]]) for g in obf.gates] == list(simulate(probe, vec, key))


def test_cnf_formula_validation():
    with pytest.raises(ValueError, match="empty clause"):
        CnfFormula([()], 2)
    with pytest.raises(ValueError, match=r"literal 3 out of range \(n_vars=2\)"):
        CnfFormula([(1, 3)], 2)
    with pytest.raises(ValueError, match="literal 0 out of range"):
        CnfFormula([(0,)], 2)
    # the message names the first offence in clause order
    with pytest.raises(ValueError, match="literal 5 out of range"):
        CnfFormula([(1, 5), (-7,)], 2)
    with pytest.raises(ValueError, match="literal -4 out of range"):
        CnfFormula([(1, -2), (-4, 0), ()], 3)
    with pytest.raises(ValueError, match="empty clause"):
        CnfFormula([(1,), (), (0,)], 3)
    assert CnfFormula([(1, -2), (-1,)], 2).n_vars == 2
    assert CnfFormula([], 0).clauses == []


# --- miter ---

def _tiny_locked():
    base = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    return base, apply_at_locations(base, ObfuscationKind("xor"),
                                    (base.name_to_id["z"],)).obfuscated


def test_miter_requires_keys(c17):
    with pytest.raises(ValueError):
        build_miter(c17)


def test_miter_models_are_differing_key_pairs():
    base, obf = _tiny_locked()
    m = build_miter(obf)
    f = m.formula
    models = enumerate_models_np([list(cl) for cl in f.clauses], f.n_vars)
    assert models.shape[0] > 0  # some DIP distinguishes the two keys
    k1, k2 = m.key1_vars[0] - 1, m.key2_vars[0] - 1
    assert np.all(models[:, k1] != models[:, k2])


def test_redundant_keygate_miter_unsat():
    # key-gate output is ANDed with (a AND NOT a) == 0: key can never matter
    obf = parse_bench(
        "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(z)\n"
        "na = NOT(a)\nc0 = AND(a, na)\nkg = XOR(na, keyinput0)\nz = AND(kg, c0)\n")
    m = build_miter(obf)
    f = m.formula
    models = enumerate_models_np([list(cl) for cl in f.clauses], f.n_vars)
    assert models.shape[0] == 0


def test_dip_constraint_prunes_and_extracts_key():
    base, obf = _tiny_locked()
    m = build_miter(obf)
    oracle_out = simulate(base, [0])
    assert add_dip_constraint(m, dip_model(m, [0]), oracle_out) is None  # grows m in place
    f = m.formula
    assert enumerate_models_np([list(cl) for cl in f.clauses], f.n_vars).shape[0] == 0
    # without the unit (act,) the difference clause can be switched off,
    # so only the key constraints remain
    models = enumerate_models_np([list(cl) for cl in m.clauses], m.n_vars)
    assert models.shape[0] > 0
    assert np.all(models[:, m.key1_vars[0] - 1] == 0)  # only the correct key remains
    assert np.all(models[:, m.key2_vars[0] - 1] == 0)


def test_dip_constraint_dimension_errors(c17):
    inst = random_obfuscate(c17, 1, ObfuscationKind("xor"), seed=2)
    m = build_miter(inst.obfuscated)
    model = dip_model(m, [0, 1, 0, 1, 0])
    for oracle_out in ([0], [0, 0, 0]):
        with pytest.raises(ValueError, match="circuit has 2 outputs"):
            add_dip_constraint(m, model, oracle_out)


def test_miter_shares_inputs_between_copies(c17):
    inst = random_obfuscate(c17, 2, ObfuscationKind("lut", 2), seed=3)
    m = build_miter(inst.obfuscated)
    assert len(m.input_vars) == 5
    assert len(m.key1_vars) == len(m.key2_vars) == 8
    assert set(m.key1_vars).isdisjoint(m.key2_vars)


def test_miter_variable_layout(c17):
    # lut2 at c17's gates 10 and 22: output 22 lies in the key cone, 23 does not
    obf = random_obfuscate(c17, 2, ObfuscationKind("lut", 2), seed=3).obfuscated
    m = build_miter(obf)
    n_pi, k = len(obf.primary_inputs), obf.key_bits
    assert m.input_vars == list(range(1, n_pi + 1))
    assert m.key1_vars == list(range(n_pi + 1, n_pi + k + 1))
    assert m.key2_vars == list(range(n_pi + k + 1, n_pi + 2 * k + 1))
    cone = key_cone(obf)
    logic = [g for g in obf.topo_order if obf.gates[g].type is not GateType.INPUT]
    shared, coned = [g for g in logic if g not in cone], [g for g in logic if g in cone]
    outs = [g for g in obf.primary_outputs if g in cone]
    assert shared and coned and 0 < len(outs) < len(obf.primary_outputs)
    assert m.cone_gates == coned
    # the shared nets follow the keys as one block in topological order (c17's
    # NANDs need no auxiliaries), then each copy's cone: its nets in
    # topological order and the four minterm selectors of each lut2
    first = n_pi + 2 * k + 1
    start1 = first + len(shared)
    width = 5 * len(coned)
    start2 = start1 + width
    net = {g: first + i for i, g in enumerate(shared)}
    net.update((g, start1 + i) for i, g in enumerate(coned))

    def top(cl):
        return max(map(abs, cl))
    i1 = next(i for i, cl in enumerate(m.clauses) if top(cl) >= start1)
    i2 = next(i for i, cl in enumerate(m.clauses) if top(cl) >= start2)
    n_diff = 4 * len(outs) + 2
    sh, c1, c2, diff = (m.clauses[:i1], m.clauses[i1:i2], m.clauses[i2:-n_diff],
                        m.clauses[-n_diff:])
    # the shared gates read no key bit
    assert all(abs(lit) <= n_pi or abs(lit) >= first for cl in sh for lit in cl)
    # shared gates and copy 1's cone are the single-key encoding, renumbered
    # (tseitin's auxiliaries follow its nets; here they are the lut2
    # selectors, which follow the nets of copy 1's cone)
    t = tseitin(obf)
    t_last_net = n_pi + k + len(logic)
    t_vars = tseitin_vars(obf)
    t_net = {t_vars[obf.gates[g].name]: v for g, v in net.items()}

    def from_tseitin(lit):
        v = abs(lit)
        if v > n_pi + k:
            v = t_net[v] if v <= t_last_net else v - t_last_net + start1 + len(coned) - 1
        return v if lit > 0 else -v
    assert sorted(sh + c1) == sorted(tuple(map(from_tseitin, cl)) for cl in t.clauses)
    # copy 2's cone is copy 1's over key 2 and its own block
    key1 = set(m.key1_vars)

    def to_copy2(lit):
        v = abs(lit)
        v = v + k if v in key1 else v + width if v >= start1 else v
        return v if lit > 0 else -v
    assert c2 == [tuple(map(to_copy2, cl)) for cl in c1]
    # one xor difference per output inside the cone, opening with
    # (-d, y1, y2), then the constant-true variable's unit, the guarded
    # at-least-one-difference clause and the activation literal, numbered last
    dvars = list(range(start2 + width, start2 + width + len(outs)))
    assert [diff[4 * i][:3] for i in range(len(outs))] == [
        (-d, net[g], net[g] + width) for g, d in zip(outs, dvars)]
    assert m.true_var == dvars[-1] + 1 and m.act == m.n_vars == dvars[-1] + 2
    assert diff[-2:] == [(m.true_var,), tuple(dvars) + (-m.act,)]
    assert m.formula.clauses == m.clauses + [(m.act,)]
    # the nets outside the cone, inputs first, each with its one variable
    assert m.shared == {**dict(zip(obf.primary_inputs, m.input_vars)),
                        **{g: net[g] for g in shared}}


def _locked_random_circuits(kinds, count, seed):
    """Seeded random circuits of 3-5 inputs and 6-12 gates, each locked at
    up to 3 eligible gates with each kind that has one."""
    rng = random.Random(seed)
    for i in range(count):
        c = random_circuit(rng, n_inputs=rng.randint(3, 5), n_gates=rng.randint(6, 12))
        for kind in map(ObfuscationKind.parse, kinds):
            eligible = len(eligible_gates(c, kind))
            if eligible:
                yield random_obfuscate(c, min(3, eligible), kind, seed=i)


def test_shared_and_two_copy_miters_agree_on_every_dip_sequence():
    # the same DIPs, drawn in turn from each miter's model, keep both
    # satisfiable or both not, step by step, until no DIP remains
    steps = instances = 0
    for inst in _locked_random_circuits(("xor", "xnor", "lut1", "lut2", "lut3"), 30, 43):
        instances += 1
        shared, two_copy = build_miter(inst.obfuscated), two_copy_miter(inst.obfuscated)
        for turn in range(2 ** len(inst.base.primary_inputs) + 1):
            answers = [solve(m.formula) for m in (shared, two_copy)]
            assert answers[0].status is answers[1].status
            steps += 1
            if answers[0].status is SolveStatus.UNSAT:
                break
            m, res = (shared, answers[0]) if turn % 2 == 0 else (two_copy, answers[1])
            dip = [int(res.model[v]) for v in m.input_vars]
            for m in (shared, two_copy):
                full_copy_dip_constraint(m, dip, simulate(inst.base, dip))
        assert answers[0].status is SolveStatus.UNSAT
    assert instances == 147 and steps > 2 * instances  # most need several DIPs


def test_a_lock_that_reaches_no_output_leaves_nothing_to_distinguish():
    # d feeds no output, so its key cone holds none, and the guarded
    # at-least-one-difference clause has no difference to offer
    base = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nd = OR(a, b)\n")
    for kind in ("xor", "lut2"):
        obf = apply_at_locations(base, ObfuscationKind.parse(kind),
                                 (base.name_to_id["d"],)).obfuscated
        m = build_miter(obf)
        assert m.clauses[-1] == (-m.act,)
        assert solve(m.formula).status is SolveStatus.UNSAT


def test_add_dip_constraint_is_append_only(c17):
    inst = random_obfuscate(c17, 2, ObfuscationKind("xor"), seed=1)
    m = build_miter(inst.obfuscated)
    keys = set(m.key1_vars) | set(m.key2_vars)
    act = m.act
    for dip in ([0, 1, 1, 0, 1], [1, 1, 0, 0, 0]):
        before, n_before = list(m.clauses), m.n_vars
        add_dip_constraint(m, dip_model(m, dip), simulate(inst.base, dip))
        assert m.clauses[:len(before)] == before
        new_vars = {abs(lit) for cl in m.clauses[len(before):] for lit in cl}
        assert new_vars and all(v in keys or v == m.true_var or n_before < v <= m.n_vars
                                for v in new_vars)
        assert m.act == act
    assert m.formula.n_vars == m.n_vars
    assert m.formula.clauses[-1] == (act,)


def _admitted_keys(m, keys):
    """The keys of ``keys`` that ``m.clauses`` admits as both K1 and K2 at
    once, with ``act`` left free, decided by one solver under assumptions."""
    solver = Solver()
    solve(CnfFormula(m.clauses, m.n_vars), None, solver)
    admitted = set()
    for key in keys:
        assume = tuple(v if b else -v for kv in (m.key1_vars, m.key2_vars)
                       for v, b in zip(kv, key))
        if solve(CnfFormula([], m.n_vars), None, solver, assume).status is SolveStatus.SAT:
            admitted.add(key)
    return admitted


def test_cone_and_full_copy_dip_constraints_admit_the_same_keys(c17, mid12):
    # the DIP loop of seeded c17 and mid12 locks, each DIP bound by the
    # cone-only constraint on one miter and the full-copy reference on
    # another: after every DIP both admit the same keys, checked over
    # every key up to 12 bits and 512 seeded random keys above
    instances = dips = 0
    for base in (c17, mid12):
        for kind in map(ObfuscationKind.parse, ("xor", "xnor", "lut2", "lut3")):
            for seed in range(3):
                inst = random_obfuscate(base, 1 + seed, kind, seed=seed)
                cone, full = build_miter(inst.obfuscated), build_miter(inst.obfuscated)
                bits = inst.obfuscated.key_bits
                rng = np.random.default_rng(seed)
                keys = ({tuple(k) for k in rng.integers(0, 2, (512, bits)).tolist()}
                        if bits > 12 else set(itertools.product((0, 1), repeat=bits)))
                keys.add(inst.key_truth)
                while (res := solve(cone.formula)).status is SolveStatus.SAT:
                    dip = [int(res.model[v]) for v in cone.input_vars]
                    add_dip_constraint(cone, res.model, simulate(inst.base, dip))
                    full_copy_dip_constraint(full, dip, simulate(inst.base, dip))
                    admitted = _admitted_keys(cone, keys)
                    assert inst.key_truth in admitted
                    assert admitted == _admitted_keys(full, keys)
                    dips += 1
                instances += 1
    assert instances == 24 and dips > 3 * instances


def test_a_model_that_contradicts_the_oracle_is_refused(c17):
    # output 23 of this lock lies outside the key cone, so the model alone
    # fixes it: a model that disagrees with the oracle there is refused
    inst = random_obfuscate(c17, 2, ObfuscationKind("lut", 2), seed=3)
    m = build_miter(inst.obfuscated)
    dip = [1, 0, 1, 1, 0]
    model = dip_model(m, dip)
    out23 = m.shared[inst.obfuscated.name_to_id["23"]]
    model[out23] = not model[out23]
    n_clauses = len(m.clauses)
    with pytest.raises(RuntimeError, match="solver model gives output '23'"):
        add_dip_constraint(m, model, simulate(inst.base, dip))
    assert len(m.clauses) == n_clauses


# --- dimacs ---

def test_dimacs_exact_format():
    assert to_dimacs(CnfFormula([(1, -2)], 2)) == "p cnf 2 1\n1 -2 0\n"
    assert to_dimacs(CnfFormula([], 3)) == "p cnf 3 0\n"


def test_dimacs_roundtrip(c17):
    f = tseitin(c17)
    back = parse_dimacs(to_dimacs(f))
    assert back.n_vars == f.n_vars
    assert sorted(back.clauses) == sorted(f.clauses)


def test_enumerators_agree():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 6)
        clauses = [[rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(1, 8))]
        scalar = enumerate_cnf(clauses, n)
        vec = enumerate_models_np(clauses, n)
        assert len(scalar) == vec.shape[0]
        scalar_set = {tuple(int(m[v]) for v in range(1, n + 1)) for m in scalar}
        assert scalar_set == {tuple(int(x) for x in row) for row in vec}
