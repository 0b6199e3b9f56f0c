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
from .netlist import ONE_HOT_ORDER, Circuit, emit_bench, parse_bench, read_json_object
from .numerics import no_fp_warnings
from .obfuscate import (
    ObfuscationInstance,
    ObfuscationKind,
    eligible_gates,
    instance_from_json,
    instance_to_json,
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
    v = np.asarray(v, dtype=np.float64).ravel()
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def write_dataset(out_dir, base: Circuit, records, logs,
                  manifest_extra: dict | None = None) -> dict:
    out = Path(out_dir)
    (out / "instances").mkdir(parents=True, exist_ok=True)
    (out / "base.bench").write_text(emit_bench(base))
    ids = []
    for rec in records:
        doc = {
            "id": rec.instance_id,
            "obfuscation": instance_to_json(rec.instance, "base.bench"),
            "labels": rec.labels,
            "censored": rec.censored,
            "iterations": rec.iterations,
            "status": rec.status,
        }
        (out / "instances" / f"{rec.instance_id}.json").write_text(
            json.dumps(doc, sort_keys=True, indent=1) + "\n")
        ids.append(rec.instance_id)
    with (out / "attacks.log.jsonl").open("w") as fh:
        for log in logs:
            fh.write(json.dumps(log, sort_keys=True) + "\n")
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
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
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
        "timeout_seconds": timeout_seconds,
    })
    return records, manifest


def _check_labels(rec_id: str, labels) -> None:
    """Raw effort: every ``LABEL_KINDS`` entry a finite real >= 0."""
    if not isinstance(labels, dict):
        raise ValueError(f"dataset record {rec_id!r}: labels must be a JSON object")
    for kind in LABEL_KINDS:
        if kind not in labels:
            raise ValueError(f"dataset record {rec_id!r} has no {kind!r} label")
        v = labels[kind]
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and v >= 0):
            raise ValueError(f"dataset record {rec_id!r} has label {v!r} for "
                             f"{kind!r}; labels are raw effort, finite numbers >= 0")


def load_dataset(dataset_dir):
    """Read a dataset directory; returns (base, records, manifest)."""
    root = Path(dataset_dir)
    manifest = read_json_object(root / "manifest.json",
                                "a dataset manifest must be a JSON object")
    if manifest.get("format") != DATASET_FORMAT:
        raise ValueError(f"not a dataset directory: {dataset_dir}")
    if manifest.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {manifest.get('version')}")
    ids = manifest.get("instances")
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise ValueError(f"dataset manifest: 'instances' must be a list of "
                         f"record ids (strings), got {ids!r:.80}")
    base = parse_bench((root / manifest["base"]).read_text())
    records = []
    for rec_id in ids:
        path = f"instances/{rec_id}.json"
        doc = read_json_object(root / path, f"dataset record {rec_id!r} must be a JSON object")
        try:
            records.append(_read_record(rec_id, doc, base))
        except ValueError as exc:
            raise ValueError(f"{exc} ({path})") from exc
    return base, records, manifest


_RECORD_FIELDS = ("id", "obfuscation", "labels", "censored", "iterations", "status")


def _read_record(rec_id: str, doc: dict, base: Circuit) -> DatasetRecord:
    """One instance document, checked field by field before the replay."""
    missing = [k for k in _RECORD_FIELDS if k not in doc]
    if missing:
        raise ValueError(f"dataset record {rec_id!r} has no {missing[0]!r} field")
    if doc["id"] != rec_id:
        raise ValueError(f"dataset record {rec_id!r} has id {doc['id']!r:.40}")
    censored, iterations, status = doc["censored"], doc["iterations"], doc["status"]
    if not isinstance(censored, bool):
        raise ValueError(f"dataset record {rec_id!r} has censored {censored!r:.40}; "
                         f"expected true or false")
    if isinstance(iterations, bool) or not isinstance(iterations, int) or iterations < 0:
        raise ValueError(f"dataset record {rec_id!r} has iterations {iterations!r:.40}; "
                         f"expected an integer >= 0")
    if not isinstance(status, str):
        raise ValueError(f"dataset record {rec_id!r} has status {status!r:.40}; "
                         f"expected a string")
    if censored != (status == AttackStatus.TIMEOUT):
        raise ValueError(f"dataset record {rec_id!r} has censored {censored} and status "
                         f"{status!r:.40}; a record is censored exactly when it timed out")
    _check_labels(rec_id, doc["labels"])
    try:
        inst = instance_from_json(doc["obfuscation"], base)
    except ValueError as exc:
        raise ValueError(f"dataset record {rec_id!r}: {exc}") from exc
    return DatasetRecord(rec_id, inst, doc["labels"], censored, iterations, status)


# --- model evaluation ---

@dataclass
class MetricsReport:
    n: int
    mse: float
    pearson: float
    spearman: float
    slope: float
    intercept: float

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(model: Model, samples) -> MetricsReport:
    """Latent-vs-target metrics on the model's training scale.

    Zero-variance predictions or targets make the correlations NaN
    rather than failing the whole report.
    """
    if not samples:
        raise ValueError("no samples to evaluate")
    zs, ts = [], []
    with no_fp_warnings():
        for smp in samples:
            zs.append(_forward(model, smp.layout, smp.ax).z)
            ts.append(target_value(smp.label))
    z = np.asarray(zs)
    t = np.asarray(ts)
    try:
        pr = pearson(z, t)
        sr = spearman(z, t)
    except ValueError:
        pr = sr = float("nan")
    if z.size >= 2 and np.ptp(z) > 0:
        w = fit_linear(z[:, None], t)
        slope, intercept = float(w[0]), float(w[1])
    else:
        slope, intercept = float("nan"), float(t.mean() - z.mean())
    return MetricsReport(len(samples), mse(z, t), pr, sr, slope, intercept)


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
        return {"input_shares": self.input_shares,
                "feat_attention": (list(self.feat_attention)
                                   if self.feat_attention is not None else None),
                "gate_entropy": self.gate_entropy}


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
    for l in range(1, cfg.conv_layers):
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
    except ValueError:
        report["spearman_locations_conflicts"] = float("nan")
    return report

