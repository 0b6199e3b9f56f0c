"""Tests of the benchmark itself: python3 -m pytest benchmarks"""

import json
import shutil
import subprocess
import sys

import pytest

import locktime.attack
import locktime.experiments
import locktime.satsolve
import run
from locktime.netlist import parse_bench
from randdag import layered_dag_bench
from tracing import Tracer, self_times, span_totals
from workloads import WORKLOADS, AttackMid12, GendataC17, TrainLarge, UnitResult

# end-to-end metrics each workload computes; run.py adds setup_s and peak_rss_mb
WORKLOAD_METRICS = {name for name, _ in run.END_TO_END} - {"setup_s", "peak_rss_mb"}


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],     # overlaps a: the union counts once
        ["c", 2.0, 3.0, 1],
        ["d", 9.0, 11.0, 0],    # sticks out of root: only [9, 10] counts
        ["root", 12.0, 13.0, -1],
    ]
    assert self_times(spans) == pytest.approx([10 - 6, 2, 3, 1, 2, 1])


def test_host_slowdown_is_the_geometric_mean_of_the_probe_ratios():
    probes = {"round": [run.PROBE_REF_ROUND_S * 4] * 3, "start": [run.PROBE_REF_START_S] * 2}
    assert run.host_slowdown(probes) == pytest.approx(2.0)


def test_totals_do_not_double_count_nested_same_name_spans():
    spans = [["f", 0.0, 5.0, -1], ["g", 1.0, 3.0, 0], ["f", 1.5, 2.5, 1]]
    totals = span_totals(spans)
    assert totals["f"] == pytest.approx({"calls": 2, "s": 5.0, "self_s": 3.0 + 1.0})
    assert totals["g"] == pytest.approx({"calls": 1, "s": 2.0, "self_s": 1.0})


def test_dag_generator_is_deterministic_per_seed():
    text = layered_dag_bench(7)
    assert text == layered_dag_bench(7)
    assert text != layered_dag_bench(8)
    c = parse_bench(text)
    assert len(c.primary_inputs) == 32 and c.n == 632
    assert c.primary_outputs


def test_shims_wrap_every_binding_and_tolerate_missing_targets(c17_instance):
    original = locktime.satsolve.solve
    targets = {"satsolve.solve": None, "cnf.no_such_function": None,
               "no_such_layer.f": None}
    with Tracer().install(targets) as tracer:
        assert locktime.attack.solve is not original
        locktime.attack.sat_attack(c17_instance)
    assert locktime.attack.solve is original and locktime.satsolve.solve is original
    assert tracer.absent == ["cnf.no_such_function", "no_such_layer.f"]
    assert {s[0] for s in tracer.spans} == {"satsolve.solve"}


def test_absent_target_is_left_out_of_the_metrics(c17_instance):
    targets = {"satsolve.solve": None, "cnf.add_dip_constraint": None}
    tracer = Tracer()
    with tracer.install(targets):
        locktime.attack.sat_attack(c17_instance)
    tracer.absent.append("cnf.add_dip_constraint")
    half = (1.0, UnitResult())
    metrics = run.per_layer_metrics(tracer, [(half, half)])
    assert "cnf.add_dip_constraint.s" not in metrics
    assert metrics["satsolve.solve.calls"]["value"] >= 2


@pytest.fixture
def c17_instance():
    wl = AttackMid12(0, specs=(("xor", 2, 0),), circuit="c17")
    wl.setup()
    return wl.instances[0][1]


def test_attack_workload_smoke():
    wl = AttackMid12(1, specs=(("xor", 2, 0), ("lut2", 1, 0)), circuit="c17")
    wl.setup()
    units = [wl.run_unit(0), wl.run_unit(1)]
    assert all(u.failed == 0 and u.attempted == 2 for u in units)
    assert units[0].fingerprint == units[1].fingerprint
    assert units[0].fingerprint["satsolve.solve.calls"] >= 4
    assert units[0].fingerprint["satsolve.clauses_loaded"] > 0
    rep = AttackMid12.report(units)
    assert set(AttackMid12.end_to_end(rep)) == WORKLOAD_METRICS
    assert rep["attacks_per_s"][0] > 0


def test_gendata_workload_smoke(tmp_path):
    wl = GendataC17(1, batches=2, batch=3, workdir=tmp_path)
    wl.setup()
    units = [wl.run_unit(0), wl.run_unit(1)]
    # per batch: three key re-checks, the attack count and the reload comparison
    assert all(u.failed == 0 and u.attempted == 2 * 5 for u in units)
    assert units[0].fingerprint == units[1].fingerprint
    assert units[0].fingerprint["attack.dips"] > 0
    assert units[0].fingerprint["satsolve.clauses_loaded"] > 0
    assert list(tmp_path.iterdir()) == []
    rep = GendataC17.report(units)
    assert rep["gendata_attack_p90_ms"][2] == 12
    assert set(GendataC17.end_to_end(rep)) == WORKLOAD_METRICS


def test_train_workload_smoke():
    wl = TrainLarge(1, n_gates=40, n_instances=12, epochs=4, predict_calls=5)
    wl.setup()
    u = wl.run_unit(0)
    assert u.failed == 0, u.notes
    assert u.attempted == 2 + 5
    assert u.fingerprint["epochs"] == 4
    rep = TrainLarge.report([u])
    assert rep["predict_p95_ms"][2] == 5 and rep["train_epoch_s"][2] == 4
    assert set(TrainLarge.end_to_end(rep)) == WORKLOAD_METRICS


def test_benchmark_json_names_the_metrics_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(m, u) for m, u, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    out = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                          "gendata-c17", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_an_attack_that_raises_is_counted_not_fatal(monkeypatch, tmp_path):
    def broken(inst, *args, **kwargs):
        raise RuntimeError("attack soundness violation")

    monkeypatch.setattr(locktime.attack, "sat_attack", broken)
    monkeypatch.setattr(locktime.experiments, "sat_attack", broken)
    wl = AttackMid12(1, specs=(("xor", 2, 0),), circuit="c17")
    wl.setup()
    u = wl.run_unit(0)
    assert (u.attempted, u.failed) == (1, 1) and "raised" in u.notes[0]
    wl = GendataC17(1, batches=1, batch=2, workdir=tmp_path)
    wl.setup()
    u = wl.run_unit(0)
    assert (u.attempted, u.failed) == (1, 1) and "raised" in u.notes[0]
