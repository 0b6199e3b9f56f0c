"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test prints ``ACCEPTANCE <n>: PASS|FAIL — <detail>`` straight to the
terminal (bypassing pytest capture) before asserting, so the verdict of
each criterion is always visible in the run log.
"""

import dataclasses
import json
import random
import time

import numpy as np
import pytest

from locktime import load_bundled
from locktime.attack import keys_equivalent, sat_attack
from locktime.cnf import CnfFormula, tseitin
from locktime.experiments import (
    evaluate,
    generate_dataset,
    generate_records,
    load_dataset,
    mean_predictor_mse,
    records_to_samples,
    spearman,
)
from locktime.icnet import (
    Model,
    ModelConfig,
    baseline_gcn_config,
    forward,
    loss_and_grads,
    new_model,
    predict,
    save_checkpoint,
    train,
)
from locktime.netlist import Circuit, GateType, simulate
from locktime.obfuscate import ObfuscationKind, random_obfuscate
from locktime.satsolve import SolveStatus, solve

from oracles import (
    all_input_vectors,
    cnf_is_satisfiable,
    enumerate_models_np,
    event_driven_simulate,
    numeric_grads,
    random_3sat,
    random_circuit,
    random_structure,
    synthetic_mask_records,
    tseitin_vars,
)


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)
    assert ok, f"acceptance criterion {num} failed: {detail}"


# --- 1: parser / simulator oracle ---

def test_c01_parser_simulator_oracle(capsys):
    t0 = time.perf_counter()
    c = load_bundled("c17")
    nand_count = sum(1 for g in c.gates if g.type is GateType.NAND)
    structure_ok = (len(c.primary_inputs) == 5 and len(c.primary_outputs) == 2
                    and nand_count == 6 and c.n == 11)
    vectors = all_input_vectors(5)
    matches = sum(1 for vec in vectors
                  if simulate(c, vec) == event_driven_simulate(c, vec))
    elapsed = time.perf_counter() - t0
    ok = structure_ok and matches == 32 and elapsed < 1.0
    verdict(capsys, 1, ok,
            f"c17 has 5 PIs / 2 POs / {nand_count} NANDs; {matches}/32 "
            f"vectors match the reference evaluator ({elapsed:.3f} s < 1 s)")


# --- 2: CNF soundness by full model projection ---

def test_c02_cnf_model_projection(capsys):
    rng = random.Random(20)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n_inputs = rng.randint(2, 4)
        n_gates = rng.randint(2, 12 - n_inputs)  # nets <= 12
        c = random_circuit(rng, n_inputs, n_gates)
        f = tseitin(c)
        models = enumerate_models_np(f.clauses, f.n_vars)
        assert models.shape[0] == 2 ** n_inputs, \
            f"{models.shape[0]} models for {n_inputs} inputs"
        v = tseitin_vars(c)
        net_cols = [v[g.name] - 1 for g in c.gates]
        got = {tuple(int(b) for b in row) for row in models[:, net_cols]}
        probe = Circuit(c.gates, c.primary_inputs, tuple(range(c.n)))
        expect = {event_driven_simulate(probe, vec)
                  for vec in all_input_vectors(n_inputs)}
        assert got == expect
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 30.0
    verdict(capsys, 2, ok,
            f"Tseitin models of {checked}/200 random circuits project "
            f"exactly onto the simulated net space ({elapsed:.2f} s < 30 s)")


# --- 3: solver correctness against exhaustive enumeration ---

def test_c03_solver_vs_enumeration(capsys):
    rng = random.Random(30)
    t0 = time.perf_counter()
    agree = 0
    for _ in range(500):
        n_vars = rng.randint(3, 8)
        clauses = [tuple(cl) for cl in
                   random_3sat(rng, n_vars, rng.randint(2, 4 * n_vars))]
        res = solve(CnfFormula(clauses, n_vars))
        expected = cnf_is_satisfiable(clauses, n_vars)
        agree += (res.status is SolveStatus.SAT) == expected
    circuit_agree = 0
    for _ in range(100):
        n_inputs = rng.randint(2, 4)
        c = random_circuit(rng, n_inputs, rng.randint(4, 16 - n_inputs))
        f = tseitin(c)
        v = tseitin_vars(c)
        out_vars = [v[c.gates[g].name] for g in c.primary_outputs]
        pattern = tuple(rng.randint(0, 1) for _ in out_vars)
        units = [(y,) if b else (-y,) for y, b in zip(out_vars, pattern)]
        res = solve(CnfFormula(f.clauses + units, f.n_vars))
        reachable = {event_driven_simulate(c, vec)
                     for vec in all_input_vectors(n_inputs)}
        circuit_agree += (res.status is SolveStatus.SAT) == (pattern in reachable)
    elapsed = time.perf_counter() - t0
    ok = agree == 500 and circuit_agree == 100 and elapsed < 60.0
    verdict(capsys, 3, ok,
            f"status matches enumeration on {agree}/500 random 3-SAT and "
            f"{circuit_agree}/100 circuit formulas ({elapsed:.2f} s < 60 s)")


# --- 4: attack correctness on 100 instances ---

@pytest.fixture(scope="module")
def attack_results(c17, mid12):
    specs = []
    for i in range(25):
        specs.append((c17, "xor", 1 + i % 3, 100 + i))
    for i in range(25):
        specs.append((c17, "lut2", 1 + i % 3, 200 + i))
    for i in range(25):
        specs.append((mid12, "xor", 1 + i % 3, 300 + i))
    for i in range(25):
        specs.append((mid12, "lut2", 1 + i % 3, 400 + i))
    t0 = time.perf_counter()
    results = []
    for base, kind, n_loc, seed in specs:
        inst = random_obfuscate(base, n_loc, ObfuscationKind.parse(kind), seed)
        results.append((inst, sat_attack(inst)))
    return results, time.perf_counter() - t0


def test_c04_attack_correctness(capsys, attack_results):
    results, elapsed = attack_results
    solved = sum(1 for _, r in results if r.status == "SOLVED")
    verified = sum(
        1 for inst, r in results
        if r.status == "SOLVED" and keys_equivalent(inst.base, inst.obfuscated,
                                                    r.recovered_key))
    iter_ok = all(len(r.dips) <= 2 ** len(inst.base.primary_inputs)
                  for inst, r in results)
    ok = (len(results) == 100 and solved == 100 and verified == solved
          and iter_ok and elapsed < 300.0)
    verdict(capsys, 4, ok,
            f"{solved}/100 instances solved, {verified}/{solved} recovered "
            f"keys verified functionally equivalent (exhaustive), iteration "
            f"bound respected ({elapsed:.1f} s < 300 s)")


# --- 5: gradient fidelity ---

def test_c05_gradient_fidelity(capsys):
    rng = np.random.default_rng(12)
    n = 6
    a = random_structure(rng, n, 0.35)
    x = rng.random((n, 1))
    x[:, 0] = (rng.random(n) < 0.5).astype(float)
    x[0, 0] = 1.0
    from locktime.icnet import GraphSample
    samples = [GraphSample(a, x, 7.5), GraphSample(a, 1.0 - x, 2.25)]
    worst = 0.0
    combos = 0
    for feat_agg in ("attention", "mean"):
        for gate_agg in ("attention", "mean"):
            cfg = ModelConfig(hidden_dims=(5, 4),
                              feature_set="location_only", seed=2,
                              feat_agg=feat_agg, gate_agg=gate_agg)
            model = new_model(cfg)
            _, analytic = loss_and_grads(model, samples)
            numeric = numeric_grads(model, samples, h=1e-5)
            for name in analytic:
                an, nu = analytic[name], numeric[name]
                rel = np.abs(an - nu) / np.maximum.reduce(
                    [np.abs(an), np.abs(nu), np.full_like(an, 1e-6)])
                worst = max(worst, float(np.max(rel)))
            combos += 1
    ok = combos == 4 and worst < 1e-4
    verdict(capsys, 5, ok,
            f"analytic vs central-difference gradients (h=1e-5): max "
            f"relative error {worst:.2e} < 1e-4 over {combos} "
            f"aggregation combinations (exp head) on n=6 inputs")


# --- 6: architectural invariants ---

def test_c06_architectural_invariants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    cfg = ModelConfig(hidden_dims=(6, 4),
                      feature_set="location_only", seed=1)
    model = new_model(cfg)
    n = 9
    a = random_structure(rng, n, 0.4)
    rows, cols, vals = a
    x = (rng.random((n, 1)) < 0.5).astype(float)
    x[0, 0] = 1.0
    base = forward(model, a, x)
    perm_dev = 0.0
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(n)
        inv = np.argsort(perm)  # gate perm[i] becomes gate i
        got = forward(model, (inv[rows], inv[cols], vals), x[perm])
        perm_dev = max(perm_dev, abs(got.z - base.z),
                       float(np.max(np.abs(got.a_gate - base.a_gate[perm]))))
    simplex_ok = (np.all(base.a_feat >= 0) and np.all(base.a_gate >= 0)
                  and abs(base.a_feat.sum() - 1.0) < 1e-12
                  and abs(base.a_gate.sum() - 1.0) < 1e-12)
    zeroed = new_model(cfg)
    zeroed.params["feat"][:] = 0.0
    zeroed.params["gate"][:] = 0.0
    mean_model = Model(dataclasses.replace(cfg, feat_agg="mean",
                                           gate_agg="mean"), zeroed.params)
    zero_dev = abs(forward(zeroed, a, x).z - forward(mean_model, a, x).z)
    positive = all(
        forward(model, a, (rng.random((n, 1)) < 0.5).astype(float)).yhat > 0
        for _ in range(20))
    elapsed = time.perf_counter() - t0
    ok = (perm_dev <= 1e-10 and simplex_ok and zero_dev <= 1e-12
          and positive and elapsed < 10.0)
    verdict(capsys, 6, ok,
            f"permutation deviation {perm_dev:.1e} <= 1e-10; attentions on "
            f"the simplex; zero-logit attention == mean (dev {zero_dev:.1e}); "
            f"exp head positive ({elapsed:.2f} s < 10 s)")


# --- 7: learning capability on a synthetic law ---

def test_c07_synthetic_learning(capsys):
    t0 = time.perf_counter()
    _, records = synthetic_mask_records(count=300, seed=11, n_gates=120,
                                        coeff=0.05, noise=0.01, m_range=(1, 8))
    cfg = ModelConfig(hidden_dims=(16, 8), feature_set="location_only",
                      learning_rate=0.01, max_epochs=300, batch_size=32,
                      seed=0)
    samples = records_to_samples(records, cfg, "synthetic")
    res = train(samples, cfg)
    test = [samples[i] for i in res.test_indices]
    rep = evaluate(res.model, test)
    base_mse = mean_predictor_mse(
        [np.log1p(samples[i].label) for i in res.train_indices],
        [np.log1p(s.label) for s in test])
    elapsed = time.perf_counter() - t0
    ratio = base_mse / rep.mse if rep.mse > 0 else float("inf")
    ok = rep.mse < 0.01 and ratio >= 10.0 and elapsed < 120.0
    verdict(capsys, 7, ok,
            f"300-instance synthetic set (log-label 0.05*mask+noise): test "
            f"mse {rep.mse:.5f} < 0.01, {ratio:.0f}x better than the mean "
            f"predictor (>= 10x required) ({elapsed:.1f} s < 120 s)")


# --- 8: relative ordering on a real attack dataset ---

@pytest.fixture(scope="module")
def conflicts_dataset(c17):
    records, _ = generate_records(c17, 120, ObfuscationKind.parse("lut2"),
                                  (1, 4), seed=42)
    return records


@pytest.fixture(scope="module")
def trained_trials(conflicts_dataset):
    trials = []
    for seed in (0, 1, 2):
        att_cfg = ModelConfig(hidden_dims=(16, 8), learning_rate=0.01,
                              max_epochs=200, batch_size=16, seed=seed)
        gcn_cfg = baseline_gcn_config(att_cfg)
        mses = {}
        att_model = None
        for name, cfg in (("att", att_cfg), ("gcn", gcn_cfg)):
            samples = records_to_samples(conflicts_dataset, cfg, "conflicts")
            res = train(samples, cfg)
            test = [samples[i] for i in res.test_indices]
            mses[name] = evaluate(res.model, test).mse
            if name == "att":
                att_model = res.model
        trials.append((seed, mses["att"], mses["gcn"], att_model))
    return trials


def test_c08_relative_ordering(capsys, conflicts_dataset, trained_trials):
    locs = [rec.n_locations for rec in conflicts_dataset]
    conflicts = [rec.labels["conflicts"] for rec in conflicts_dataset]
    rho = spearman(locs, conflicts)
    wins = sum(1 for _, att, gcn, _ in trained_trials if att <= gcn)
    pairs = ", ".join(f"seed {s}: {att:.3f} vs {gcn:.3f}"
                      for s, att, gcn, _ in trained_trials)
    ok = rho > 0.3 and wins >= 2
    verdict(capsys, 8, ok,
            f"Spearman(locations, conflicts) = {rho:.3f} > 0.3; attention "
            f"model beats Laplacian-GCN-mean in {wins}/3 seeds ({pairs})")


# --- 9: inference speed vs attack cost ---

def test_c09_inference_speed(capsys, attack_results, trained_trials):
    results, _ = attack_results
    inst, r = max(results, key=lambda pair: pair[0].obfuscated.n)
    model = trained_trials[0][3]
    predict(model, results[0][0])  # warm-up on a different instance
    pred = predict(model, inst)
    ratio = pred.wall_seconds / r.wall_seconds
    ok = ratio < 0.01
    verdict(capsys, 9, ok,
            f"inference {pred.wall_seconds * 1e3:.2f} ms on the largest "
            f"instance ({inst.obfuscated.n} nodes) vs attack "
            f"{r.wall_seconds:.3f} s: {100 * ratio:.3f}% < 1%")


# --- 10: determinism of the whole pipeline ---

def _strip_timing(doc):
    labels = dict(doc["labels"])
    labels.pop("wall_seconds", None)
    return {**doc, "labels": labels}


def test_c10_determinism(capsys, c17, tmp_path):
    kind = ObfuscationKind.parse("xor")
    for name in ("a", "b"):
        generate_dataset(c17, tmp_path / name, 6, kind, (1, 3), seed=7)
    manifest_same = ((tmp_path / "a" / "manifest.json").read_bytes()
                     == (tmp_path / "b" / "manifest.json").read_bytes())
    bench_same = ((tmp_path / "a" / "base.bench").read_bytes()
                  == (tmp_path / "b" / "base.bench").read_bytes())
    inst_same = True
    for f in sorted((tmp_path / "a" / "instances").glob("*.json")):
        da = _strip_timing(json.loads(f.read_text()))
        db = _strip_timing(json.loads(
            (tmp_path / "b" / "instances" / f.name).read_text()))
        inst_same = inst_same and da == db
    log_same = True
    la = (tmp_path / "a" / "attacks.log.jsonl").read_text().splitlines()
    lb = (tmp_path / "b" / "attacks.log.jsonl").read_text().splitlines()
    for ra, rb in zip(la, lb):
        pa, pb = json.loads(ra), json.loads(rb)
        pa.pop("wall_seconds"), pb.pop("wall_seconds")
        log_same = log_same and pa == pb

    _, records, _ = load_dataset(tmp_path / "a")
    cfg = ModelConfig(hidden_dims=(6, 3), max_epochs=10, learning_rate=0.02,
                      batch_size=4, seed=0)
    checkpoints = []
    metrics = []
    for name in ("m1.json", "m2.json"):
        samples = records_to_samples(records, cfg, "conflicts")
        res = train(samples, cfg)
        save_checkpoint(res.model, tmp_path / name, "conflicts")
        checkpoints.append((tmp_path / name).read_bytes())
        subset = [samples[i] for i in res.test_indices]
        metrics.append(json.dumps(evaluate(res.model, subset).to_dict(),
                                  sort_keys=True))
    ckpt_same = checkpoints[0] == checkpoints[1]
    metrics_same = metrics[0] == metrics[1]
    ok = (manifest_same and bench_same and inst_same and log_same
          and ckpt_same and metrics_same)
    verdict(capsys, 10, ok,
            "regenerated dataset, checkpoint, and metrics byte-identical "
            f"modulo timing fields (manifest {manifest_same}, instances "
            f"{inst_same}, logs {log_same}, checkpoint {ckpt_same}, "
            f"metrics {metrics_same})")
