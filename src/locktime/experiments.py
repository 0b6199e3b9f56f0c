"""Attack-labelled datasets, ranking metrics, and experiment reports.

A dataset directory is self-contained:

    base.bench            the unlocked circuit
    manifest.json         generation parameters and instance ids
    instances/<id>.json   one locked instance + its runtime labels
    attacks.log.jsonl     one solver-effort record per attack

Instances are stored as replayable descriptions (kind, location names,
seed).  Generation keeps the instance each attack ran on; loading
re-applies the locking to ``base.bench`` and cross-checks key/mask, so a
dataset read back can never drift from its ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .attack import (
    LABEL_KINDS,
    AttackStatus,
    attack_log_record,
    runtime_labels,
    sat_attack,
)
from .icnet import (
    GraphSample,
    Model,
    ModelConfig,
    _forward,
    build_graph_input,
    fit_linear,
    target_value,
)
from .netlist import (COUNT, FILE_NAME, NONNEGATIVE, ONE_HOT_ORDER, TEXT, Circuit, check_json,
                      emit_bench, json_choice, read_bench, read_json_object, write_json)
from .numerics import NonFiniteError, no_fp_warnings
from .obfuscate import (
    INSTANCE,
    ObfuscationInstance,
    ObfuscationKind,
    eligible_gates,
    instance_from_json,
    instance_to_json,
    kind_name,
    random_obfuscate,
    require_unlocked,
)

DATASET_FORMAT = "locktime-dataset"
DATASET_VERSION = 6  # 6: conflicts with each DIP constraint encoding only the key cone


# --- ranking metrics ---

def mse(pred, true) -> float:
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(true, dtype=np.float64).ravel()
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"bad shapes: {p.shape} vs {t.shape}")
    return float(np.mean((p - t) ** 2))


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need two same-length sequences of >= 2 values")
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt((xc * xc).sum()), np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float((xc * yc).sum() / (sx * sy))


def average_ranks(v) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    _, group, counts = np.unique(np.asarray(v, dtype=np.float64).ravel(),
                                 return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based sorted position of each tie group's last value
    return (last - (counts - 1) / 2.0)[group]


def spearman(x, y) -> float:
    return pearson(average_ranks(x), average_ranks(y))


# --- dataset records ---

@dataclass
class DatasetRecord:
    instance_id: str
    instance: ObfuscationInstance
    labels: dict  # label kind -> value
    censored: bool
    iterations: int
    status: str

    @property
    def n_locations(self) -> int:
        return len(self.instance.locations)


def records_to_samples(records, config: ModelConfig,
                       label_kind: str) -> list:
    """Graph samples carrying the chosen label."""
    return [GraphSample(*build_graph_input(rec.instance, config),
                        float(rec.labels[label_kind]), rec.instance_id,
                        rec.censored)
            for rec in records]


# --- generation ---

def _generate_one(base: Circuit, kind: ObfuscationKind, n_locations: int,
                  obf_seed: int, timeout, rec_id: str):
    inst = random_obfuscate(base, n_locations, kind, obf_seed)
    r = sat_attack(inst, timeout_seconds=timeout)
    rec = DatasetRecord(rec_id, inst, runtime_labels(r),
                        r.status == AttackStatus.TIMEOUT, len(r.dips), r.status)
    return rec, attack_log_record(rec_id, inst, r)


def generate_records(base: Circuit, count: int, kind: ObfuscationKind,
                     location_range, seed: int,
                     timeout_seconds: float | None = None, workers: int = 1):
    """Lock, attack, and label ``count`` instances; returns (records, logs).

    Each instance draws its location count and locking seed from an
    independent child of one seed sequence, so results do not depend on
    worker scheduling.  A locked ``base`` is refused before the location
    range is checked against its eligible gates.
    """
    require_unlocked(base)
    lo, hi = int(location_range[0]), int(location_range[1])
    n_eligible = len(eligible_gates(base, kind))
    if not 1 <= lo <= hi:
        raise ValueError(f"bad location range [{lo}, {hi}]")
    if hi > n_eligible:
        raise ValueError(f"location range up to {hi} exceeds the "
                         f"{n_eligible} eligible gates for {kind}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(child)
        n_loc = int(rng.integers(lo, hi + 1))
        obf_seed = int(rng.integers(0, 2**31 - 1))
        tasks.append((base, kind, n_loc, obf_seed, timeout_seconds,
                      f"inst-{i:05d}"))
    processes = min(workers, count)
    if processes > 1:
        with get_context("spawn").Pool(processes) as pool:
            done = pool.starmap(_generate_one, tasks)
        # each result arrives with its own unpickled base; share the caller's
        for rec, _ in done:
            rec.instance = replace(rec.instance, base=base)
    else:
        done = [_generate_one(*t) for t in tasks]
    return [rec for rec, _ in done], [log for _, log in done]


# instances/<id>.json, as write_dataset writes it
RECORD = {"id": TEXT, "obfuscation": INSTANCE, "labels": {k: NONNEGATIVE for k in LABEL_KINDS},
          "censored": ("true or false", lambda v: isinstance(v, bool)), "iterations": COUNT,
          "status": json_choice(AttackStatus.SOLVED, AttackStatus.TIMEOUT)}
# manifest.json, as write_dataset writes it; generate_dataset adds the optional keys
MANIFEST = {
    "format": json_choice(DATASET_FORMAT), "version": json_choice(DATASET_VERSION),
    "base": FILE_NAME, "count": COUNT, "label_kinds": json_choice(list(LABEL_KINDS)),
    "instances": [FILE_NAME], "kind?": kind_name, "seed?": COUNT,
    "location_range?": ("[lo, hi], integers with 1 <= lo <= hi", lambda v: isinstance(v, list)
                        and len(v) == 2 and type(v[0]) is type(v[1]) is int and 1 <= v[0] <= v[1]),
    "timeout_seconds?": ("null or a number > 0",
                         lambda v: v is None or type(v) in (int, float) and v > 0),
}


def write_dataset(out_dir, base: Circuit, records, logs,
                  manifest_extra: dict | None = None) -> dict:
    out = Path(out_dir)
    (out / "instances").mkdir(parents=True, exist_ok=True)
    (out / "base.bench").write_text(emit_bench(base))
    ids = []
    for rec in records:
        write_json(out / "instances" / f"{rec.instance_id}.json", {
            "id": rec.instance_id,
            "obfuscation": instance_to_json(rec.instance, "base.bench"),
            "labels": rec.labels,
            "censored": rec.censored,
            "iterations": rec.iterations,
            "status": rec.status,
        })
        ids.append(rec.instance_id)
    with (out / "attacks.log.jsonl").open("w") as fh:
        for log in logs:
            fh.write(json.dumps(log, sort_keys=True, allow_nan=False) + "\n")
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "base": "base.bench",
        "count": len(records),
        "label_kinds": list(LABEL_KINDS),
        "instances": ids,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    write_json(out / "manifest.json", manifest)
    return manifest


def generate_dataset(base: Circuit, out_dir, count: int,
                     kind: ObfuscationKind, location_range, seed: int,
                     timeout_seconds: float | None = None,
                     workers: int = 1):
    """generate_records + write_dataset; returns (records, manifest)."""
    records, logs = generate_records(base, count, kind, location_range, seed,
                                     timeout_seconds, workers)
    manifest = write_dataset(out_dir, base, records, logs, {
        "kind": str(kind),
        "location_range": [int(location_range[0]), int(location_range[1])],
        "seed": seed,
        "timeout_seconds": None if timeout_seconds == math.inf else timeout_seconds,
    })
    return records, manifest


def load_dataset(dataset_dir):
    """Read a dataset directory, each file checked; returns (base, records, manifest)."""
    root = Path(dataset_dir)
    path = root / "manifest.json"
    manifest = read_json_object(path, MANIFEST)
    ids = manifest["instances"]
    if manifest["count"] != len(ids):
        raise ValueError(f"{path}: count: expected {len(ids)}, the number of instances, "
                         f"got {manifest['count']}")
    if len(set(ids)) != len(ids):
        twice = next(rec_id for i, rec_id in enumerate(ids) if rec_id in ids[:i])
        raise ValueError(f"{path}: instances: {twice!r} is listed twice")
    base = read_bench(root / manifest["base"])
    return base, [read_json_object(root / "instances" / f"{rec_id}.json",
                                   partial(_read_record, rec_id, base, manifest["base"]))
                  for rec_id in ids], manifest


def _read_record(rec_id: str, base: Circuit, base_file: str, doc) -> DatasetRecord:
    """An instances/<rec_id>.json document that matches :data:`RECORD` with its file's id,
    is censored exactly when it timed out and replays on the manifest's base."""
    doc = check_json(doc, {**RECORD, "id": json_choice(rec_id)}, "")
    censored, status, obfuscation = doc["censored"], doc["status"], doc["obfuscation"]
    if censored != (status == AttackStatus.TIMEOUT):
        raise ValueError(f"censored: {censored} with status {status!r}; a record is "
                         f"censored exactly when it timed out")
    check_json(obfuscation["base_file"], json_choice(base_file), "obfuscation.base_file")
    inst = check_json(obfuscation, lambda ob: instance_from_json(ob, base), "obfuscation")
    return DatasetRecord(rec_id, inst, doc["labels"], censored, doc["iterations"], status)


# --- model evaluation ---

@dataclass
class MetricsReport:
    n: int
    mse: float
    pearson: float | None  # None: undefined, as for constant predictions or targets
    spearman: float | None
    slope: float | None
    intercept: float

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(model: Model, samples) -> MetricsReport:
    """Latent-vs-target metrics on the model's training scale.

    Zero-variance predictions or targets leave the correlations (and,
    for constant predictions, the slope) undefined: None, rather than
    failing the whole report.  A non-finite MSE raises NonFiniteError.
    """
    if not samples:
        raise ValueError("no samples to evaluate")
    with no_fp_warnings():
        z = np.array([_forward(model, smp.layout, smp.ax).z for smp in samples])
        t = np.array([target_value(smp.label) for smp in samples])
        err = mse(z, t)
        if not math.isfinite(err):
            raise NonFiniteError("evaluation MSE")
        try:
            pr, sr = pearson(z, t), spearman(z, t)
        except ValueError:
            pr = sr = None
        if z.size >= 2 and np.ptp(z) > 0:
            w = fit_linear(z[:, None], t)
            slope, intercept = float(w[0]), float(w[1])
        else:
            slope, intercept = None, float(t.mean() - z.mean())
    return MetricsReport(len(samples), err, pr, sr, slope, intercept)


def mean_predictor_mse(train_targets, test_targets) -> float:
    """MSE of always predicting the training-set mean target."""
    tr = np.asarray(train_targets, dtype=np.float64)
    te = np.asarray(test_targets, dtype=np.float64)
    if tr.size == 0 or te.size == 0:
        raise ValueError("empty target list")
    return float(np.mean((te - tr.mean()) ** 2))


# --- attention / attribution reports ---

@dataclass
class AttentionReport:
    input_shares: dict  # feature name -> share of input attribution
    feat_attention: tuple | None  # mean feature attention (attention mode)
    gate_entropy: float | None  # mean normalized gate-attention entropy

    def to_dict(self) -> dict:
        return asdict(self)


def attention_report(model: Model, samples) -> AttentionReport:
    """How much each input feature drives the prediction.

    Input attribution chains the absolute conv weights |W0|·|W1|·…,
    weights the hidden columns by the mean feature attention (uniform
    for mean aggregation), and normalizes to shares.  Gate entropy
    is the mean normalized entropy of the gate attention, 1.0 meaning
    uniform spread (only defined in attention mode).
    """
    if not samples:
        raise ValueError("no samples to report on")
    cfg = model.config
    a_feats, entropies = [], []
    with no_fp_warnings():
        for smp in samples:
            cache = _forward(model, smp.layout, smp.ax)
            if cache.a_feat is not None:
                a_feats.append(cache.a_feat)
            if cache.a_gate is not None and cache.a_gate.size > 1:
                b = np.clip(cache.a_gate, 1e-300, None)
                entropies.append(float(-(b * np.log(b)).sum() / np.log(b.size)))
    if a_feats:
        hidden_w = np.mean(a_feats, axis=0)
        feat_attention = tuple(float(v) for v in hidden_w)
    else:
        hidden_w = np.full(cfg.hidden_dims[-1], 1.0 / cfg.hidden_dims[-1])
        feat_attention = None
    chain = np.abs(model.params["conv0"])
    for l in range(1, len(cfg.hidden_dims)):
        chain = chain @ np.abs(model.params[f"conv{l}"])
    attribution = chain @ hidden_w
    total = attribution.sum()
    shares = attribution / total if total > 0 else np.full_like(attribution,
                                                                1.0 / attribution.size)
    input_shares = {"mask": float(shares[0])}
    if cfg.feature_set == "all_features":
        for i, t in enumerate(ONE_HOT_ORDER):
            input_shares[f"type:{t.name}"] = float(shares[1 + i])
    gate_entropy = float(np.mean(entropies)) if entropies else None
    return AttentionReport(input_shares, feat_attention, gate_entropy)


def dataset_report(records) -> dict:
    """Effort summary of an attack dataset (JSON-safe)."""
    if not records:
        raise ValueError("empty dataset")
    locs = [rec.n_locations for rec in records]
    conflicts = [rec.labels["conflicts"] for rec in records]
    seconds = [rec.labels["wall_seconds"] for rec in records]
    report = {
        "count": len(records),
        "censored": sum(1 for rec in records if rec.censored),
        "locations": {"min": int(min(locs)), "max": int(max(locs)),
                      "mean": float(np.mean(locs))},
        "conflicts": {"min": float(min(conflicts)), "max": float(max(conflicts)),
                      "median": float(np.median(conflicts))},
        "wall_seconds": {"min": float(min(seconds)), "max": float(max(seconds)),
                         "median": float(np.median(seconds))},
    }
    try:
        report["spearman_locations_conflicts"] = spearman(locs, conflicts)
    except ValueError:  # every instance has the same location count, or conflict count
        report["spearman_locations_conflicts"] = None
    return report

