"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
runs one unit of work per ``run_unit`` call: a pass over the attack list,
over a fixed set of generated datasets, or one training run.  Every unit
of a run does the same work, so each timed item (an attack, a dataset,
an epoch, a predict call) is measured once per unit and reported as its
median over the units.  Not the fastest repeat: on a shared host whose
speed for the same code swings up to twofold within seconds, the fastest
repeat depends on whether a run happens to catch a fast spell, and over
ten seeds it spread up to 27% of its median where the median spread at
most 11%.  A unit returns its timing samples, its correctness gate and a
fingerprint of deterministic work counters.
Calls go through module attributes (``attack.sat_attack``,
``netlist.parse_bench``, ...) so that the tracer's shims see them.

Why these workloads:

* attack-mid12: CDCL search is almost all of the cost, so a faster
  propagate/analyze shows here and a restructured DIP loop mostly does
  not.  The instance list is fixed because attack cost is heavy-tailed
  in the choice of locked gates (lut3 x 6 on mid12 took 4 s to 100 s over
  nine location draws); the seed only orders the list.  The instances
  were picked among seeds 0-5 for attacks of about one second, so that
  a 30 s run repeats each of them about ten times.
* gendata-c17: 50 short attacks per pass, so solver construction, CNF
  building, oracle simulation and locking are a large share; it is also
  the only workload that writes and reads a dataset.  The instances are
  fixed for the same reason as attack-mid12's.
* train-large: no SAT work at all; dense n x n graph structure drives
  regressor time and memory on a ~630-node random DAG.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from locktime import load_bundled
from locktime import attack, experiments, icnet, netlist, obfuscate
from locktime.attack import AttackStatus
from locktime.attack import keys_equivalent as verify_key
from locktime.obfuscate import ObfuscationKind, instance_to_json

from randdag import layered_dag_bench
from tracing import TARGETS, Tracer

# Datasets are written under the checkout, never to the system temp dir.
WORKDIR = Path(__file__).resolve().parent.parent / ".bench_run" / "tmp"


@dataclass
class UnitResult:
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # name -> list of floats
    fingerprint: dict = field(default_factory=dict)  # deterministic counters
    notes: list = field(default_factory=list)  # one line per failure

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, note: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median_per_item(units, name: str) -> list:
    """Per timed item, its median time over the units."""
    return [float(np.median(times)) for times in zip(*(u.samples.get(name, ()) for u in units))]


def sample_count(units, name: str) -> int:
    return sum(len(u.samples.get(name, ())) for u in units)


def counting_tracer(attacks: list) -> Tracer:
    """Count solver work and append (instance, result) of each attack to ``attacks``."""
    def on_attack(counters, args, kwargs, result):
        TARGETS["attack.sat_attack"](counters, args, kwargs, result)
        attacks.append((args[0] if args else kwargs["inst"], result))

    return Tracer().install({"satsolve.solve": TARGETS["satsolve.solve"],
                             "attack.sat_attack": on_attack})


def work_counters(tracer: Tracer) -> dict:
    calls = sum(1 for span in tracer.spans if span[0] == "satsolve.solve")
    return {**tracer.counters, "satsolve.solve.calls": calls}


def key_recovered(inst, r) -> bool:
    """Solved, and the key is functionally equivalent (exhaustive on c17 and mid12)."""
    return (r.status == AttackStatus.SOLVED and r.recovered_key is not None
            and verify_key(inst.base, inst.obfuscated, r.recovered_key))


class AttackMid12:
    """random_obfuscate + sat_attack on a fixed list of mid12 instances."""

    name = "attack-mid12"
    # (kind, locations, obfuscation seed)
    SPECS = (("xor", 8, 0), ("lut2", 4, 4), ("lut3", 2, 5))

    def __init__(self, seed: int, specs=SPECS, circuit: str = "mid12"):
        self.seed = seed
        self.specs = tuple(specs)
        self.circuit = circuit
        self.instances = []

    def setup(self):
        base = load_bundled(self.circuit)
        order = np.random.default_rng(self.seed).permutation(len(self.specs))
        self.instances = [
            (self.specs[i], obfuscate.random_obfuscate(base, self.specs[i][1],
                                             ObfuscationKind.parse(self.specs[i][0]),
                                             self.specs[i][2]))
            for i in order]

    def run_unit(self, index: int) -> UnitResult:
        u = UnitResult()
        attacks: list = []
        with counting_tracer(attacks) as tracer:
            for spec, inst in self.instances:
                t0 = time.perf_counter()
                try:
                    attack.sat_attack(inst)
                except Exception as exc:  # counted by the gate, not fatal
                    u.add("attack_s", time.perf_counter() - t0)
                    u.check(False, f"{spec}: attack raised {exc!r}")
                    continue
                r = attacks[-1][1]
                u.add("attack_s", r.wall_seconds)
                u.check(key_recovered(inst, r), f"{spec}: key not recovered or not equivalent")
        u.fingerprint = work_counters(tracer)
        return u

    @staticmethod
    def report(units) -> dict:
        """Each instance's median attack over the passes."""
        attack_s = median_per_item(units, "attack_s")
        n = sample_count(units, "attack_s")
        return {
            "attacks_per_s": (len(attack_s) / sum(attack_s), "1/s", n),
            "attack_p50_s": (percentile(attack_s, 50), "s", n),
            "attack_p90_s": (percentile(attack_s, 90), "s", n),
        }

    @staticmethod
    def end_to_end(rep) -> dict:
        return {"items_per_s": rep["attacks_per_s"][0],
                "item_p50_ms": rep["attack_p50_s"][0] * 1e3,
                "item_tail_ms": rep["attack_p90_s"][0] * 1e3}


def _record_key(rec) -> tuple:
    """A dataset record without its wall-clock fields."""
    labels = {k: v for k, v in rec.labels.items()
              if k not in ("wall_seconds", "log1p_seconds")}
    return (rec.instance_id, instance_to_json(rec.instance, "base.bench"),
            sorted(labels.items()), rec.censored, rec.iterations, rec.status)


class GendataC17:
    """generate_records + write_dataset + load_dataset on c17, lut2, 1:3."""

    name = "gendata-c17"
    KIND = "lut2"
    # Not C8's 1:4: 4-location attacks cost about 200 ms each, heavy-tailed,
    # against 9, 31 and 73 ms medians for 1..3 locations (2-core Xeon VM),
    # so with 1:4 a run repeats each instance too few times for its median
    # to settle.
    LOCATIONS = (1, 3)

    def __init__(self, seed: int, batches: int = 2, batch: int = 25, workdir=WORKDIR):
        self.seed = seed
        self.batches = batches
        self.batch = batch
        self.workdir = Path(workdir)
        self.base = None
        self.kind = None
        self.order = []

    def setup(self):
        """Batch b generates with seed b; the workload seed orders the batches.

        The instances are fixed because c17 attack cost is heavy-tailed in
        the instance draw: over 12 seeds, the summed attack time of 20
        instances per location count had an interquartile range of 16% of
        its median, and the median attack one of 29%.
        """
        self.base = load_bundled("c17")
        self.kind = ObfuscationKind.parse(self.KIND)
        self.order = [int(b) for b in np.random.default_rng(self.seed).permutation(self.batches)]

    def run_unit(self, index: int) -> UnitResult:
        """One pass over the workload's batches, each generated, written and reloaded."""
        u = UnitResult()
        attacks: list = []
        self.workdir.mkdir(parents=True, exist_ok=True)
        with counting_tracer(attacks) as tracer:
            for b in self.order:
                first = len(attacks)
                with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
                    t0 = time.perf_counter()
                    try:
                        records, logs = experiments.generate_records(
                            self.base, self.batch, self.kind, self.LOCATIONS, b)
                        experiments.write_dataset(tmp, self.base, records, logs)
                        _, loaded, manifest = experiments.load_dataset(tmp)
                    except Exception as exc:  # counted by the gate, not fatal
                        u.add("batch_s", time.perf_counter() - t0)
                        u.check(False, f"batch {b}: raised {exc!r}")
                        continue
                    u.add("batch_s", time.perf_counter() - t0)
                for log in logs:
                    u.add("attack_ms", log["wall_seconds"] * 1e3)
                batch_attacks = attacks[first:]
                for inst, r in batch_attacks:
                    u.check(key_recovered(inst, r),
                            f"batch {b}: key not recovered or not equivalent")
                u.check(len(batch_attacks) == len(records),
                        f"batch {b}: {len(batch_attacks)} attacks for {len(records)} records")
                same = (manifest["instances"] == [r.instance_id for r in records]
                        and [_record_key(r) for r in loaded] == [_record_key(r) for r in records])
                u.check(same, f"batch {b}: reloaded dataset differs from generated records")
        u.fingerprint = work_counters(tracer)
        return u

    @staticmethod
    def report(units) -> dict:
        """Each dataset's and each attack's median time over the passes."""
        attack_ms = median_per_item(units, "attack_ms")
        n = sample_count(units, "attack_ms")
        return {
            "gendata_instances_per_s": (len(attack_ms) / sum(median_per_item(units, "batch_s")),
                                        "1/s", n),
            "gendata_attack_p50_ms": (percentile(attack_ms, 50), "ms", n),
            "gendata_attack_p90_ms": (percentile(attack_ms, 90), "ms", n),
        }

    @staticmethod
    def end_to_end(rep) -> dict:
        return {"items_per_s": rep["gendata_instances_per_s"][0],
                "item_p50_ms": rep["gendata_attack_p50_ms"][0],
                "item_tail_ms": rep["gendata_attack_p90_ms"][0]}


class TrainLarge:
    """records_to_samples + train + evaluate + predict on a random ~600-gate DAG."""

    name = "train-large"
    LABEL = "synthetic"
    COEFF, NOISE, M_RANGE = 0.3, 0.05, (1, 8)

    def __init__(self, seed: int, n_gates: int = 600, n_instances: int = 80,
                 epochs: int = 10, predict_calls: int = 240):
        self.seed = seed
        self.n_gates = n_gates
        self.n_instances = n_instances
        self.predict_calls = predict_calls
        self.config = icnet.ModelConfig(max_epochs=epochs, convergence_tol=0.0,
                                        seed=seed % 2**31)
        self.records = []

    def setup(self):
        """Random DAG -> bench text -> parse; lock xor instances, label by mask count."""
        rng = np.random.default_rng(self.seed)
        base = netlist.parse_bench(layered_dag_bench(int(rng.integers(2**31)), self.n_gates))
        kind = ObfuscationKind.parse("xor")
        lo, hi = self.M_RANGE
        self.records = []
        for i in range(self.n_instances):
            m = int(rng.integers(lo, hi + 1))
            inst = obfuscate.random_obfuscate(base, m, kind, int(rng.integers(0, 2**31 - 1)))
            label = float(np.expm1(self.COEFF * m + rng.normal(0.0, self.NOISE)))
            self.records.append(experiments.DatasetRecord(
                f"syn-{i:05d}", inst, {self.LABEL: label}, False, 0, "SYNTHETIC"))

    def run_unit(self, index: int) -> UnitResult:
        u = UnitResult()
        t0 = time.perf_counter()
        samples = experiments.records_to_samples(self.records, self.config, self.LABEL)
        t1 = time.perf_counter()
        res = icnet.train(samples, self.config)
        usable = [s for s in samples if not s.censored]
        metrics = experiments.evaluate(res.model, [usable[i] for i in res.test_indices])
        del samples, usable
        preds = []
        for i in range(self.predict_calls):
            tp = time.perf_counter()
            p = icnet.predict(res.model, self.records[i % len(self.records)].instance)
            u.add("predict_ms", (time.perf_counter() - tp) * 1e3)
            preds.append(p.yhat)
        u.add("prep_s", t1 - t0)
        ends = [row["wall_seconds"] for row in res.log]
        for a, b in zip([0.0] + ends, ends):
            u.add("epoch_s", b - a)
        first, last = res.log[0]["train_mse"], res.log[-1]["train_mse"]
        u.check(math.isfinite(last) and last < first,
                f"train MSE {last!r} not finite or not below epoch-0 MSE {first!r}")
        u.check(math.isfinite(metrics.mse), f"test MSE {metrics.mse!r} not finite")
        for y in preds:
            u.check(math.isfinite(y) and y > 0, f"prediction {y!r} not finite and positive")
        u.fingerprint = {"epochs": res.epochs_run, "train_size": len(res.train_indices),
                         "predictions": len(preds), "final_train_mse": repr(last)}
        return u

    @staticmethod
    def report(units) -> dict:
        """Per epoch, training run and predict call, its median time over the units."""
        epoch_s = median_per_item(units, "epoch_s")
        predict_ms = median_per_item(units, "predict_ms")
        n_epoch, n_predict = sample_count(units, "epoch_s"), sample_count(units, "predict_ms")
        return {
            "train_epoch_s": (percentile(epoch_s, 50), "s", n_epoch),
            "train_prep_s": (median_per_item(units, "prep_s")[0], "s", len(units)),
            "predict_p50_ms": (percentile(predict_ms, 50), "ms", n_predict),
            "predict_p95_ms": (percentile(predict_ms, 95), "ms", n_predict),
        }

    @staticmethod
    def end_to_end(rep) -> dict:
        return {"items_per_s": 1.0 / rep["train_epoch_s"][0],
                "item_p50_ms": rep["predict_p50_ms"][0],
                "item_tail_ms": rep["predict_p95_ms"][0]}


WORKLOADS = {w.name: w for w in (AttackMid12, GendataC17, TrainLarge)}
