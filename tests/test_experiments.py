"""Dataset pipeline, ranking metrics, and report generation."""

import json
import re
import warnings

import numpy as np
import pytest
import scipy.stats

import locktime.experiments

from locktime.attack import LABEL_KINDS
from locktime.experiments import (
    DATASET_VERSION,
    attention_report,
    average_ranks,
    dataset_report,
    evaluate,
    generate_dataset,
    generate_records,
    load_dataset,
    mean_predictor_mse,
    mse,
    pearson,
    records_to_samples,
    spearman,
    write_dataset,
)
from locktime.icnet import (
    GraphSample,
    Model,
    ModelConfig,
    build_graph_input,
    forward,
    loss_and_grads,
    new_model,
    train,
)
from locktime.netlist import GateType, simulate
from locktime.numerics import NonFiniteError, zeros_like
from locktime.obfuscate import ObfuscationKind, random_obfuscate
from oracles import chain_circuit, synthetic_mask_records


# --- metrics ---

def test_mse_hand_value():
    assert mse([1.0, 2.0], [2.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])


def test_pearson_basics():
    x = [1.0, 2.0, 3.0, 4.0]
    assert np.isclose(pearson(x, [2.0, 4.0, 6.0, 8.0]), 1.0)
    assert np.isclose(pearson(x, [8.0, 6.0, 4.0, 2.0]), -1.0)
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4])) < 1.0
    with pytest.raises(ValueError, match="zero-variance"):
        pearson(x, [5.0, 5.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])


def test_average_ranks_with_ties():
    assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]
    assert average_ranks([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]


def test_spearman_hand_value():
    assert np.isclose(spearman([1, 2, 3, 4], [1, 3, 2, 4]), 0.8)
    # invariant under monotone transforms
    x = [0.5, 1.5, 3.0, 9.0, 27.0]
    assert np.isclose(spearman(x, np.exp(x)), 1.0)
    assert np.isclose(spearman(x, [-v for v in x]), -1.0)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.integers(0, 6, size=15).astype(float)  # plenty of ties
        y = x * 0.5 + rng.normal(size=15)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        ref = scipy.stats.spearmanr(x, y).statistic
        assert np.isclose(spearman(x, y), ref, atol=1e-12)


def test_mean_predictor_mse():
    assert mean_predictor_mse([1.0, 3.0], [2.0, 4.0]) == 2.0
    with pytest.raises(ValueError):
        mean_predictor_mse([], [1.0])


# --- generation ---

@pytest.fixture(scope="module")
def small_records(c17):
    records, logs = generate_records(c17, 6, ObfuscationKind.parse("xor"),
                                     (1, 3), seed=0)
    return records, logs


def test_generate_records_contents(small_records):
    records, logs = small_records
    assert len(records) == len(logs) == 6
    for rec, log in zip(records, logs):
        assert rec.status == "SOLVED" and not rec.censored
        assert tuple(rec.labels) == LABEL_KINDS
        assert rec.labels["conflicts"] == int(rec.labels["conflicts"]) >= 0
        assert 1 <= rec.n_locations <= 3
        assert log["id"] == rec.instance_id
        assert log["n_locations"] == rec.n_locations
        assert log["conflicts"] == rec.labels["conflicts"]
    assert [rec.instance_id for rec in records] == \
           [f"inst-{i:05d}" for i in range(6)]


def test_generate_records_deterministic_modulo_timing(c17):
    kind = ObfuscationKind.parse("xor")
    r1, _ = generate_records(c17, 4, kind, (1, 2), seed=9)
    r2, _ = generate_records(c17, 4, kind, (1, 2), seed=9)
    for a, b in zip(r1, r2):
        assert a.instance.locations == b.instance.locations
        assert a.instance.key_truth == b.instance.key_truth
        assert a.labels["conflicts"] == b.labels["conflicts"]
        assert a.iterations == b.iterations
    r3, _ = generate_records(c17, 4, kind, (1, 2), seed=10)
    assert any(a.instance.locations != b.instance.locations
               for a, b in zip(r1, r3))


@pytest.mark.parametrize("circuit", ["c17", "mid12"])
def test_generate_records_parallel_matches_serial(request, tmp_path, circuit):
    base = request.getfixturevalue(circuit)
    kind = ObfuscationKind.parse("xor")
    serial, logs = generate_records(base, 4, kind, (1, 2), seed=3, workers=1)
    parallel, _ = generate_records(base, 4, kind, (1, 2), seed=3, workers=2)
    write_dataset(tmp_path, base, serial, logs)
    _, loaded, _ = load_dataset(tmp_path)
    assert len(serial) == len(parallel) == len(loaded) == 4
    for a, b, back in zip(serial, parallel, loaded):
        assert a.instance_id == b.instance_id == back.instance_id
        assert a.instance.locations == b.instance.locations == back.instance.locations
        assert a.instance.mask == b.instance.mask == back.instance.mask
        assert a.instance.key_truth == b.instance.key_truth == back.instance.key_truth
        assert a.labels["conflicts"] == b.labels["conflicts"] == back.labels["conflicts"]
        assert a.instance.base is b.instance.base is base


def test_generate_records_validation(c17):
    kind = ObfuscationKind.parse("xor")
    with pytest.raises(ValueError, match="location range"):
        generate_records(c17, 2, kind, (0, 2), seed=0)
    with pytest.raises(ValueError, match="eligible"):
        generate_records(c17, 2, kind, (1, 99), seed=0)
    with pytest.raises(ValueError, match="count"):
        generate_records(c17, 0, kind, (1, 2), seed=0)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            generate_records(c17, 2, kind, (1, 2), seed=0, workers=workers)


def test_generate_records_refuses_a_locked_base_before_its_range(c17):
    # c17 locked at two gates has 8 gates eligible for xor: a range up to
    # 20 exceeds them, and still the refusal is what the caller hears
    locked = random_obfuscate(c17, 2, ObfuscationKind.parse("xnor"), seed=3).obfuscated
    for hi in (1, 20):
        with pytest.raises(ValueError, match="already has 2 key bits"):
            generate_records(locked, 2, ObfuscationKind.parse("xor"), (1, hi), seed=0)


class _InProcessContext:
    """Stands in for a spawn context: records pool sizes, runs tasks here."""

    def __init__(self):
        self.pool_sizes = []

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, tasks):
        return [fn(*t) for t in tasks]


def test_generate_records_pool_never_exceeds_count(monkeypatch, c17):
    ctx = _InProcessContext()
    monkeypatch.setattr(locktime.experiments, "get_context", lambda method: ctx)
    kind = ObfuscationKind.parse("xor")
    serial, _ = generate_records(c17, 3, kind, (1, 2), seed=4)
    capped, _ = generate_records(c17, 3, kind, (1, 2), seed=4, workers=64)
    generate_records(c17, 1, kind, (1, 2), seed=4, workers=64)
    assert ctx.pool_sizes == [3]  # a single task runs in this process
    assert [r.labels["conflicts"] for r in capped] == \
        [r.labels["conflicts"] for r in serial]


def test_dataset_round_trip(tmp_path, c17, small_records):
    records, logs = small_records
    write_dataset(tmp_path / "ds", c17, records, logs,
                  {"kind": "xor", "seed": 0})
    base, loaded, manifest = load_dataset(tmp_path / "ds")
    assert manifest["count"] == 6 and manifest["kind"] == "xor"
    assert base.n == c17.n
    assert len(loaded) == 6
    for orig, back in zip(records, loaded):
        assert back.instance_id == orig.instance_id
        assert back.instance.locations == orig.instance.locations
        assert back.instance.key_truth == orig.instance.key_truth
        assert back.instance.mask == orig.instance.mask
        assert back.labels == orig.labels
    log_lines = (tmp_path / "ds" / "attacks.log.jsonl").read_text().splitlines()
    assert len(log_lines) == 6
    assert json.loads(log_lines[0])["id"] == "inst-00000"


def test_load_dataset_rejects_foreign_directory(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format": "other", "version": 1}')
    with pytest.raises(ValueError, match="dataset"):
        load_dataset(tmp_path)


def test_load_dataset_refuses_version_1(tmp_path, c17, small_records):
    # version 1 conflict labels came from a fresh solver per DIP call,
    # version 2 ones from a fresh solver for the key, version 3 also
    # stored pre-logged label kinds, version 5 ones from full-copy DIP
    # constraints: all are refused
    records, logs = small_records
    write_dataset(tmp_path, c17, records, logs)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == DATASET_VERSION == 6
    assert manifest["label_kinds"] == ["wall_seconds", "conflicts"]
    for old in (1, 2, 3, 5):
        manifest["version"] = old
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        path = tmp_path / "manifest.json"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: version: "
                                             f"expected 6, got {old}$"):
            load_dataset(tmp_path)


def test_generate_dataset_writes_everything(tmp_path, c17):
    records, manifest = generate_dataset(
        c17, tmp_path / "out", 3, ObfuscationKind.parse("xnor"), (1, 2),
        seed=5)
    assert len(records) == 3
    assert (tmp_path / "out" / "base.bench").exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    assert len(list((tmp_path / "out" / "instances").glob("*.json"))) == 3
    assert manifest["kind"] == "xnor" and manifest["seed"] == 5
    assert manifest["location_range"] == [1, 2]


def test_written_instances_identical_across_runs_modulo_timing(tmp_path, c17):
    kind = ObfuscationKind.parse("xor")
    for name in ("a", "b"):
        generate_dataset(c17, tmp_path / name, 3, kind, (1, 2), seed=7)
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
           (tmp_path / "b" / "manifest.json").read_bytes()
    assert (tmp_path / "a" / "base.bench").read_bytes() == \
           (tmp_path / "b" / "base.bench").read_bytes()
    for f in sorted((tmp_path / "a" / "instances").glob("*.json")):
        da = json.loads(f.read_text())
        db = json.loads((tmp_path / "b" / "instances" / f.name).read_text())
        for doc in (da, db):
            doc["labels"].pop("wall_seconds")  # the only wall-clock field
        assert da == db


def test_records_to_samples(small_records, c17):
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(6, 3))
    samples = records_to_samples(records, cfg, "conflicts")
    assert len(samples) == 6
    for rec, smp in zip(records, samples):
        a, x = build_graph_input(rec.instance, cfg)
        assert smp.ax.tobytes() == GraphSample(a, x, smp.label).ax.tobytes()
        assert smp.label == rec.labels["conflicts"]
        assert x[:, 0].sum() == rec.n_locations
        assert smp.instance_id == rec.instance_id
        assert x.shape[1] == 11
        assert smp.ax.shape == (rec.instance.obfuscated.n, 11)


# --- evaluation and reports ---

def test_evaluate_constant_model_degenerates_gracefully(small_records):
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(5, 4))
    model = new_model(cfg)
    zero = Model(cfg, zeros_like(model.params))
    samples = records_to_samples(records, cfg, "conflicts")
    rep = evaluate(zero, samples)
    assert rep.n == 6
    targets = [np.log1p(r.labels["conflicts"]) for r in records]
    assert rep.mse == pytest.approx(float(np.mean(np.square(targets))))
    assert np.isnan(rep.pearson) and np.isnan(rep.spearman)
    assert np.isnan(rep.slope)
    assert rep.intercept == pytest.approx(float(np.mean(targets)))
    d = rep.to_dict()
    assert d["n"] == 6 and "mse" in d


def test_evaluate_trained_model_fields(small_records):
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(6, 3), max_epochs=20, learning_rate=0.01,
                      seed=1)
    samples = records_to_samples(records, cfg, "conflicts")
    res = train(samples, cfg)
    rep = evaluate(res.model, samples)
    assert rep.n == 6
    assert np.isfinite(rep.mse)
    assert -1.0 <= rep.spearman <= 1.0 or np.isnan(rep.spearman)
    with pytest.raises(ValueError):
        evaluate(res.model, [])


def test_reports_bit_identical_to_public_forward(monkeypatch, small_records):
    # evaluate and attention_report reuse each sample's cached A·X; the
    # public forward recomputes it from (A, X) and must give the same bits
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(6, 3), max_epochs=5, learning_rate=0.01, seed=2)
    samples = records_to_samples(records, cfg, "conflicts")
    model = train(samples, cfg).model
    cached = (evaluate(model, samples).to_dict(),
              attention_report(model, samples).to_dict())
    inputs = {id(smp.ax): build_graph_input(rec.instance, cfg)
              for rec, smp in zip(records, samples)}

    def public_forward(model, layout, ax):
        return forward(model, *inputs[id(ax)])

    monkeypatch.setattr(locktime.experiments, "_forward", public_forward)
    recomputed = (evaluate(model, samples).to_dict(),
                  attention_report(model, samples).to_dict())
    assert json.dumps(cached) == json.dumps(recomputed)


def test_passes_over_an_overflowing_model_raise_no_numpy_warning(small_records):
    # the products of the second convolution overflow: the reports, a
    # training step and the public forward say so by NonFiniteError alone
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(6, 3), seed=2)
    samples = records_to_samples(records, cfg, "conflicts")
    model = new_model(cfg)
    for arr in model.params.values():
        arr[...] = 1e200
    passes = [lambda: evaluate(model, samples), lambda: attention_report(model, samples),
              lambda: loss_and_grads(model, samples),
              lambda: forward(model, *build_graph_input(records[0].instance, cfg))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in passes:
            with pytest.raises(NonFiniteError, match="conv1 pre-activation"):
                run()


def test_attention_report_attention_mode(small_records):
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(6, 3), seed=4)
    samples = records_to_samples(records, cfg, "conflicts")
    rep = attention_report(new_model(cfg), samples)
    assert set(rep.input_shares) == {"mask"} | {f"type:{t.name}" for t in GateType}
    assert sum(rep.input_shares.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in rep.input_shares.values())
    assert len(rep.feat_attention) == 3
    assert sum(rep.feat_attention) == pytest.approx(1.0)
    assert rep.gate_entropy is not None and 0.0 < rep.gate_entropy <= 1.0
    assert "mask" in rep.to_dict()["input_shares"]


def test_attention_report_mean_mode_and_location_only(small_records):
    records, _ = small_records
    cfg = ModelConfig(hidden_dims=(6, 3), feat_agg="mean", gate_agg="mean",
                      feature_set="location_only", seed=4)
    samples = records_to_samples(records, cfg, "conflicts")
    rep = attention_report(new_model(cfg), samples)
    assert rep.input_shares == {"mask": 1.0}
    assert rep.feat_attention is None
    assert rep.gate_entropy is None
    with pytest.raises(ValueError):
        attention_report(new_model(cfg), [])


def test_dataset_report(small_records):
    records, _ = small_records
    rep = dataset_report(records)
    assert rep["count"] == 6 and rep["censored"] == 0
    assert rep["locations"]["min"] >= 1
    assert rep["conflicts"]["max"] >= rep["conflicts"]["min"]
    assert "spearman_locations_conflicts" in rep
    json.dumps(rep)  # JSON-safe
    with pytest.raises(ValueError):
        dataset_report([])


# --- synthetic circuits ---

def test_chain_circuit_structure_and_function():
    c = chain_circuit(5)
    assert len(c.primary_inputs) == 1 and len(c.primary_outputs) == 1
    assert sum(1 for g in c.gates if g.type == GateType.NOT) == 5
    # odd-length inverter chain flips the input
    assert simulate(c, (0,)) == (1,)
    assert simulate(c, (1,)) == (0,)
    c6 = chain_circuit(6)
    assert simulate(c6, (0,)) == (0,)
    with pytest.raises(ValueError):
        chain_circuit(0)


def test_synthetic_mask_records():
    base, records = synthetic_mask_records(count=30, seed=1, n_gates=40,
                                           coeff=0.05, noise=0.01,
                                           m_range=(1, 5))
    assert len(records) == 30
    for rec in records:
        m = rec.n_locations
        assert 1 <= m <= 5
        assert sum(rec.instance.mask) == m
        assert rec.labels["synthetic"] > 0
        g = np.log1p(rec.labels["synthetic"])
        assert abs(g - 0.05 * m) < 0.01 * 6  # within six sigma
        luts = [gt for gt in rec.instance.obfuscated.gates
                if gt.type == GateType.LUT]
        assert len(luts) == m
    # labels vary across draws of the same m
    same_m = [np.log1p(r.labels["synthetic"]) for r in records
              if r.n_locations == records[0].n_locations]
    assert len(set(same_m)) == len(same_m)


def test_synthetic_dataset_learnable_end_to_end():
    base, records = synthetic_mask_records(count=60, seed=3, n_gates=60,
                                           coeff=0.05, noise=0.01,
                                           m_range=(1, 6))
    cfg = ModelConfig(hidden_dims=(8, 4), feature_set="location_only",
                      learning_rate=0.01, max_epochs=80, batch_size=16,
                      seed=0)
    samples = records_to_samples(records, cfg, "synthetic")
    res = train(samples, cfg)
    test_set = [samples[i] for i in res.test_indices]
    rep = evaluate(res.model, test_set)
    train_targets = [np.log1p(samples[i].label) for i in res.train_indices]
    test_targets = [np.log1p(s.label) for s in test_set]
    base_mse = mean_predictor_mse(train_targets, test_targets)
    assert rep.mse < 0.02, f"model mse {rep.mse}"
    assert rep.mse * 3 < base_mse, f"model {rep.mse} vs mean {base_mse}"
