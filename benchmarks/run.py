"""locktime benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload attack-mid12 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The untraced run (``--trace 0``) repeats units of the
workload until ``--seconds`` have passed and reports the end-to-end
metrics.  The traced run (``--trace 1``) repeats pairs of one untraced
and one traced set-up plus unit on the same input and reports per-layer
metrics per traced pair half, plus the tracing overhead between the two
halves of each pair.  Human-readable lines come first; the last line of standard output
is the JSON result.  The exit status is 1 when the correctness gate
fails and 2 when the package cannot be imported.

Every unit of a run does the same work; each timed item (an attack, a
dataset, an epoch, a predict call) counts with its median time over the
units.  End-to-end metrics are common to all workloads:

    setup_s       median time to import the package in a fresh interpreter
                  plus median time to build the workload's inputs, both
                  measured before the first unit and after each unit
    peak_rss_mb   peak resident set size of the process
    items_per_s   attacks/s (attack-mid12), dataset instances/s through
                  generate+write+load (gendata-c17), epochs/s (train-large)
    item_p50_ms   median attack wall time (attack-mid12, gendata-c17) or
                  predict latency (train-large)
    item_tail_ms  p90 attack wall time, or p95 predict latency

The timings in the result are scaled to a host of fixed speed.  Before
the first unit and after each, the run times two probes that do not touch
locktime: rounds of a small interpreter loop and matrix product, and the
start of a fresh interpreter that imports numpy.  The host slowdown is
the geometric mean of each probe's median over its reference value; the
result's times are divided by it and its rates multiplied.  This host's
speed for the same code moved twofold within minutes (gendata-c17 rose
from 22 to 37 instances/s over ten consecutive runs), which no in-run
estimator removes.

The unscaled figures, the workload-specific names (attacks_per_s,
train_prep_s, ...), ``failed_frac`` and the probes' medians are printed
with their sample counts above the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracing import Tracer, span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Typical probe medians on a 2-vCPU Xeon VM; the end-to-end timings are
# scaled to a host on which the two probes take this long.
PROBE_REF_ROUND_S = 3.5e-3
PROBE_REF_START_S = 0.2
PROBE_ROUNDS = 50
_PROBE_MATRIX = numpy.random.default_rng(0).standard_normal((300, 300))

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_tail_ms", "ms"))

# (metric, unit, tracer target it comes from)
PER_LAYER = (
    ("satsolve.solve.s", "s", "satsolve.solve"),
    ("satsolve.solve.calls", "count", "satsolve.solve"),
    ("satsolve.propagations_per_s", "1/s", "satsolve.solve"),
    ("satsolve.conflicts", "count", "satsolve.solve"),
    ("satsolve.decisions", "count", "satsolve.solve"),
    ("satsolve.propagations", "count", "satsolve.solve"),
    ("satsolve.clauses_loaded", "count", "satsolve.solve"),
    ("cnf.build_miter.s", "s", "cnf.build_miter"),
    ("cnf.add_dip_constraint.s", "s", "cnf.add_dip_constraint"),
    ("cnf.add_dip_constraint.calls", "count", "cnf.add_dip_constraint"),
    ("attack.dips", "count", "attack.sat_attack"),
    ("attack.sat_attack.self_s", "s", "attack.sat_attack"),
    ("attack.keys_equivalent.s", "s", "attack.keys_equivalent"),
    ("netlist.simulate.calls", "count", "netlist.simulate"),
    ("netlist.simulate.s", "s", "netlist.simulate"),
    ("netlist.parse_bench.s", "s", "netlist.parse_bench"),
    ("netlist.graph_matrix.s", "s", "netlist.graph_matrix"),
    ("obfuscate.random_obfuscate.s", "s", "obfuscate.random_obfuscate"),
    ("obfuscate.instance_from_json.s", "s", "obfuscate.instance_from_json"),
    ("experiments.generate_records.self_s", "s", "experiments.generate_records"),
    ("experiments.write_dataset.s", "s", "experiments.write_dataset"),
    ("experiments.load_dataset.s", "s", "experiments.load_dataset"),
    ("experiments.records_to_samples.s", "s", "experiments.records_to_samples"),
    ("icnet.train.self_s", "s", "icnet.train"),
    ("icnet.loss_and_grads.s", "s", "icnet.loss_and_grads"),
    ("icnet.batch_mse.s", "s", "icnet.batch_mse"),
    ("icnet.forward.s", "s", "icnet.forward"),
    ("icnet.build_graph_input.s", "s", "icnet.build_graph_input"),
    ("numerics.adam_step.s", "s", "numerics.adam_step"),
    ("trace.overhead_frac", "fraction", None),
)


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_recorded(state_dir: Path, key: str, fingerprint: dict) -> str | None:
    """Compare against the fingerprint an earlier run of the same code stored.

    Returns a failure note on a mismatch, else stores the fingerprint.
    """
    path = state_dir / f"{key}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != fingerprint:
            return f"work counters differ from an earlier run of the same code: " \
                   f"{recorded} != {fingerprint}"
        return None
    state_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(fingerprint, sort_keys=True))
    os.replace(tmp, path)
    return None


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    probe = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
             "t = time.perf_counter(); import locktime; "
             "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def timed_setup(wl) -> tuple[float, float]:
    """(package import time in a fresh interpreter, workload input build time)."""
    import_s = import_seconds()
    t0 = time.perf_counter()
    wl.setup()
    return import_s, time.perf_counter() - t0


def probe_round() -> float:
    """One round of the host-speed probe: a fixed interpreter loop and matrix product.

    Neither touches locktime, so a change to the package leaves it as it is.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(6000):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    float((_PROBE_MATRIX @ _PROBE_MATRIX).sum())
    return time.perf_counter() - t0


def probe_start() -> float:
    """Time to start a fresh interpreter that imports numpy and exits.

    A large body of code run once, as in a pass of the workload, where
    the probe round is a small loop; the two drift differently.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


def probe_host(probes: dict):
    probes["round"].extend(probe_round() for _ in range(PROBE_ROUNDS))
    probes["start"].append(probe_start())


def host_slowdown(probes: dict) -> float:
    """Geometric mean of the two probes' medians over their reference values."""
    return math.sqrt(statistics.median(probes["round"]) / PROBE_REF_ROUND_S
                     * statistics.median(probes["start"]) / PROBE_REF_START_S)


def untraced_run(wl, seconds: float):
    """Units of work; the set-up is timed and the host probed before the first and after each."""
    setups = [timed_setup(wl)]
    probes = {"round": [], "start": []}
    probe_host(probes)

    def step(index):
        unit = wl.run_unit(index)
        setups.append(timed_setup(wl))
        probe_host(probes)
        return unit

    return setups, probes, repeat_until(seconds, step)


def repeat_until(seconds: float, step) -> list:
    """Call ``step(i)`` while the next call is expected to end within ``seconds``."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(step(len(out)))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def traced_run(wl, seconds: float):
    """Pairs of (wall, unit) halves, untraced then traced; each half sets up anew."""
    tracer = Tracer()

    def half(traced: bool):
        t0 = time.perf_counter()
        with tracer.install() if traced else contextlib.nullcontext():
            wl.setup()
            unit = wl.run_unit(0)
        return time.perf_counter() - t0, unit

    return tracer, repeat_until(seconds, lambda _: (half(False), half(True)))


def per_layer_metrics(tracer, pairs) -> dict:
    n = len(pairs)
    totals = span_totals(tracer.spans)
    out = {}
    for metric, unit, target in PER_LAYER:
        if target in tracer.absent:
            continue
        if metric == "trace.overhead_frac":  # median traced over median untraced half
            value = (statistics.median(t[0] for _, t in pairs)
                     / statistics.median(p[0] for p, _ in pairs) - 1.0)
        elif metric == "satsolve.propagations_per_s":
            busy = totals.get(target, {}).get("s", 0.0)
            value = tracer.counters["satsolve.propagations"] / busy if busy else 0.0
        elif unit == "count" and metric.startswith(target + "."):  # .calls
            value = totals.get(target, {}).get("calls", 0) / n
        elif unit == "count":
            value = tracer.counters[metric] / n
        else:
            field = metric.rsplit(".", 1)[1]
            value = totals.get(target, {}).get(field, 0.0) / n
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "locktime" / "__init__.py").is_file():
        print(f"no locktime sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    wl_cls = WORKLOADS[args.workload]
    wl = wl_cls(args.seed)
    print("machine", json.dumps(machine_facts(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")

    if args.trace:
        tracer, pairs = traced_run(wl, args.seconds)
        units = [unit for pair in pairs for _, unit in pair]
    else:
        setups, probes, units = untraced_run(wl, args.seconds)

    notes = [note for u in units for note in u.notes]
    failed = sum(u.failed for u in units)
    for i, u in enumerate(units[1:], 1):
        if u.fingerprint != units[0].fingerprint:
            failed += 1
            notes.append(f"unit {i} work counters {u.fingerprint} differ from "
                         f"unit 0 {units[0].fingerprint} on the same input")
    note = check_recorded(ROOT / ".bench_run" / "fingerprints",
                          f"{args.workload}-{args.seed}-{code_digest()}",
                          units[0].fingerprint)
    if note:
        failed += 1
        notes.append(note)
    attempted = sum(u.attempted for u in units)

    for note in notes:
        print("FAILED", note)
    print("counters", json.dumps(units[0].fingerprint, sort_keys=True),
          f"(first unit of {len(units)})")
    if args.trace:
        metrics = per_layer_metrics(tracer, pairs)
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
        if tracer.absent:
            print("absent", " ".join(tracer.absent))
    else:
        rep = wl_cls.report(units)
        import_s = statistics.median(s[0] for s in setups)
        build_s = statistics.median(s[1] for s in setups)
        setup_s = import_s + build_s
        rep["setup_import_s"] = (import_s, "s", len(setups))
        rep["setup_build_s"] = (build_s, "s", len(setups))
        rep["setup_s"] = (setup_s, "s", len(setups))
        rep["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1)
        rep["failed_frac"] = (failed / attempted, "fraction", attempted)
        for kind, times in probes.items():
            rep[f"host_probe_{kind}_s"] = (statistics.median(times), "s", len(times))
        for name, (value, unit, n) in rep.items():
            print(f"metric {name} {value:.6g} {unit} n={n}")
        slowdown = host_slowdown(probes)
        print(f"host slowdown {slowdown:.4g}: the result's timings are divided by it")
        values = {"setup_s": setup_s, "peak_rss_mb": rep["peak_rss_mb"][0],
                  **wl_cls.end_to_end(rep)}
        scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
        metrics = {name: {"value": values[name] * scale.get(unit, 1.0), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
