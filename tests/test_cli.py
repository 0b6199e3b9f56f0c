"""End-to-end command-line workflows."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import locktime
from locktime.cli import main
from locktime.experiments import generate_records, write_dataset
from locktime.netlist import parse_bench
from locktime.obfuscate import ObfuscationKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    """Run a command that must succeed and parse its stdout as strict JSON."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


# --- parse ---

def test_parse_builtin_summary(capsys):
    doc = run_json(capsys, "parse", "builtin:c17")
    assert doc["nodes"] == 11
    assert doc["logic_gates"] == 6
    assert doc["type_counts"] == {"NAND": 6}
    assert doc["primary_inputs"] == ["1", "2", "3", "6", "7"]
    assert doc["primary_outputs"] == ["22", "23"]
    assert doc["key_bits"] == 0
    assert doc["depth"] == 3


def test_parse_emit_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "parse", "builtin:mid12", "--emit")
    assert code == 0
    c = parse_bench(out)
    assert len(c.primary_inputs) == 12
    assert len(c.primary_outputs) == 17


def test_parse_missing_file_is_json_error(capsys):
    code, out, err = run_cli(capsys, "parse", "/nonexistent/x.bench")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "FileNotFoundError"


def test_parse_bad_netlist_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "BenchParseError"
    assert "line 2" in doc["message"]


# --- obfuscate / attack / export-dimacs ---

@pytest.fixture()
def locked_dir(tmp_path, capsys):
    doc = run_json(capsys, "obfuscate", "builtin:c17", "--kind", "xnor",
                   "--locations", "2", "--seed", "3",
                   "--out", str(tmp_path / "inst"))
    return tmp_path / "inst", doc


def test_obfuscate_outputs(locked_dir, capsys):
    outdir, doc = locked_dir
    assert doc["kind"] == "xnor" and doc["key_bits"] == 2
    assert doc["key_truth"] == "11"  # xnor key-gates are transparent at 1
    assert len(doc["locations"]) == 2
    for name in ("instance.json", "locked.bench", "base.bench"):
        assert (outdir / name).exists()
    locked = parse_bench((outdir / "locked.bench").read_text())
    assert locked.key_bits == 2
    # same seed reproduces the same instance
    again = run_json(capsys, "obfuscate", "builtin:c17", "--kind", "xnor",
                     "--locations", "2", "--seed", "3",
                     "--out", str(outdir.parent / "inst2"))
    assert again["locations"] == doc["locations"]


def test_attack_recovers_key(locked_dir, capsys):
    outdir, doc = locked_dir
    res = run_json(capsys, "attack", str(outdir / "instance.json"))
    assert res["status"] == "SOLVED"
    assert set(res) == {"status", "iterations", "wall_seconds", "decisions",
                        "propagations", "conflicts", "recovered_key",
                        "ground_truth_key"}
    assert len(res["recovered_key"]) == 2
    assert res["iterations"] >= 0 and res["conflicts"] >= 0


def test_bad_timeout_is_json_error(locked_dir, capsys, tmp_path):
    outdir, _ = locked_dir
    for argv in (("attack", str(outdir / "instance.json")),
                 ("gen-data", "builtin:c17", "--count", "2", "--kind", "xor",
                  "--locations", "1", "--out", str(tmp_path / "ds"))):
        code, out, err = run_cli(capsys, *argv, "--timeout", "-1")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert doc["message"] == "timeout must be > 0 seconds, got -1.0"


def test_export_dimacs_circuit_and_miter(locked_dir, capsys, tmp_path):
    outdir, _ = locked_dir
    code, out, _ = run_cli(capsys, "export-dimacs", "builtin:c17")
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:2] == ["p", "cnf"]
    n_circuit_vars = int(header[2])
    assert n_circuit_vars == 11  # nets are contiguous: one var per net
    code, out2, _ = run_cli(capsys, "export-dimacs",
                            str(outdir / "instance.json"), "--what", "miter")
    assert code == 0
    header2 = out2.splitlines()[0].split()
    code, out3, _ = run_cli(capsys, "export-dimacs", str(outdir / "locked.bench"))
    assert code == 0
    n_locked_vars = int(out3.splitlines()[0].split()[2])
    # two full copies of the locked circuit would share only c17's 5
    # inputs; the miter shares every gate outside the key cone, but holds
    # a second key and a second copy of the cone
    assert n_circuit_vars < n_locked_vars < int(header2[2]) < 2 * n_locked_vars - 5
    target = tmp_path / "f.cnf"
    code, _, _ = run_cli(capsys, "export-dimacs", "builtin:c17",
                         "--out", str(target))
    assert code == 0 and target.read_text() == out


def test_mid12_instance_attack_and_miter(capsys, tmp_path):
    # mid12's bench lines are not in topological order, so this checks
    # that the emitted base.bench keeps the ids the instance was locked on
    outdir = tmp_path / "o"
    run_json(capsys, "obfuscate", "builtin:mid12", "--kind", "xor",
             "--locations", "2", "--seed", "0", "--out", str(outdir))
    res = run_json(capsys, "attack", str(outdir / "instance.json"))
    assert res["status"] == "SOLVED"
    code, out, err = run_cli(capsys, "export-dimacs",
                             str(outdir / "instance.json"), "--what", "miter")
    assert code == 0, err
    assert out.startswith("p cnf ")


def test_export_dimacs_readme_miter_example(locked_dir, capsys):
    outdir, _ = locked_dir
    code, out, _ = run_cli(capsys, "export-dimacs",
                           str(outdir / "instance.json"), "--what", "miter")
    assert code == 0
    assert out.splitlines()[:2] == ["p cnf 23 44", "10 1 0"]
    # the export is the formula the attack decides: its last clause is the
    # unit holding the activation literal, numbered last
    assert out.splitlines()[-1] == "23 0"


def test_locking_a_locked_circuit_is_refused(locked_dir, capsys, tmp_path):
    # obfuscate writes no file, and gen-data stops before its first attack,
    # also where its location range exceeds the base's eligible gates
    outdir, _ = locked_dir
    locked = str(outdir / "locked.bench")
    message = ("cannot lock a circuit that already has 2 key bits: "
               "a locked circuit is no key-free oracle")
    for argv in (("obfuscate", locked, "--kind", "xor", "--locations", "1",
                  "--out", str(tmp_path / "again")),
                 ("gen-data", locked, "--count", "2", "--kind", "lut2",
                  "--locations", "1", "--out", str(tmp_path / "ds")),
                 ("gen-data", locked, "--count", "2", "--kind", "xor",
                  "--locations", "1:20", "--out", str(tmp_path / "ds"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "again").exists() and not (tmp_path / "ds").exists()


def _attack_error(capsys, path, doc):
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "attack", str(path))
    assert code == 1 and out == ""
    return json.loads(err)


def test_attack_names_an_instance_file_that_is_no_json(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text("nope")
    code, out, err = run_cli(capsys, "attack", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"{path}: not valid JSON: Expecting value: line 1 column 1 (char 0)"}


def test_attack_names_an_instance_file_that_is_no_object(capsys, tmp_path):
    path = tmp_path / "instance.json"
    doc = _attack_error(capsys, path, [1])
    assert doc["error"] == "ValueError"
    assert doc["message"] == f"{path}: expected a JSON object, got [1]"


def test_attack_names_an_instance_file_without_base_file(capsys, tmp_path):
    path = tmp_path / "instance.json"
    for record, problem in (({"kind": "xor"}, "base_file: missing"),
                            ({"base_file": 3}, "base_file: expected a string, got 3")):
        doc = _attack_error(capsys, path, record)
        assert doc["error"] == "ValueError"
        assert doc["message"] == f"{path}: {problem}"


# --- dataset / train / eval / report pipeline ---

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    ds = root / "ds"
    code = main(["gen-data", "builtin:c17", "--count", "8", "--kind", "lut2",
                 "--locations", "1:3", "--seed", "1", "--out", str(ds)])
    assert code == 0
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"hidden_dims": [6, 3], "max_epochs": 15,
                               "learning_rate": 0.02, "batch_size": 4}))
    model = root / "model.json"
    log = root / "log.csv"
    code = main(["train", "--dataset", str(ds), "--label-kind", "conflicts",
                 "--config", str(cfg), "--out", str(model),
                 "--log-csv", str(log)])
    assert code == 0
    return ds, model, log, cfg


def test_gen_data_manifest(pipeline, capsys):
    ds, *_ = pipeline
    manifest = json.loads((ds / "manifest.json").read_text())
    assert manifest["count"] == 8
    assert manifest["kind"] == "lut2"
    assert manifest["location_range"] == [1, 3]
    assert len(list((ds / "instances").glob("*.json"))) == 8
    assert (ds / "attacks.log.jsonl").exists()


def test_train_artifacts(pipeline, capsys):
    ds, model, log, _ = pipeline
    doc = json.loads(model.read_text())
    assert doc["format"] == "icnet-checkpoint"
    assert doc["config"]["hidden_dims"] == [6, 3]
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse,wall_seconds"
    assert len(lines) >= 2


def test_eval_reports_metrics(pipeline, capsys):
    ds, model, *_ = pipeline
    doc = run_json(capsys, "eval", "--dataset", str(ds), "--model", str(model))
    assert doc["split"] == "test"
    assert doc["n"] >= 1
    assert "mse" in doc and doc["mse"] >= 0
    all_doc = run_json(capsys, "eval", "--dataset", str(ds),
                       "--model", str(model), "--split", "all")
    assert all_doc["n"] == 8


def test_report_with_attention(pipeline, capsys):
    ds, model, *_ = pipeline
    doc = run_json(capsys, "report", "--dataset", str(ds))
    assert doc["dataset"]["count"] == 8
    assert "attention" not in doc
    doc = run_json(capsys, "report", "--dataset", str(ds),
                   "--model", str(model))
    assert "mask" in doc["attention"]["input_shares"]
    assert doc["attention"]["gate_entropy"] is None or \
        0 <= doc["attention"]["gate_entropy"] <= 1
    with pytest.raises(SystemExit):  # attention ignores labels: no label knob
        main(["report", "--dataset", str(ds), "--label-kind", "conflicts"])


def test_train_test_metrics_equal_eval_test_split(capsys, tmp_path, c17):
    # a censored record ahead of the others shifts every uncensored index
    records, logs = generate_records(c17, 11, ObfuscationKind.parse("lut2"),
                                     (1, 3), seed=1)
    records[0] = replace(records[0], censored=True, status="TIMEOUT")
    ds, model = tmp_path / "ds", tmp_path / "model.json"
    write_dataset(ds, c17, records, logs)
    cfg = tmp_path / "config.json"
    # the layer count is the number of widths: one, two and three layers
    for widths in ([8], [6, 3], [4, 6, 3]):
        cfg.write_text(json.dumps({"hidden_dims": widths, "max_epochs": 15,
                                   "learning_rate": 0.02, "batch_size": 4}))
        trained = run_json(capsys, "train", "--dataset", str(ds), "--config",
                           str(cfg), "--out", str(model))
        params = json.loads(model.read_text())["params"]
        assert sorted(params) == sorted([f"conv{l}" for l in range(len(widths))]
                                        + ["feat", "gate"])
        evaluated = run_json(capsys, "eval", "--dataset", str(ds),
                             "--model", str(model), "--split", "test")
        assert trained["train_size"] + trained["test_size"] == 10
        assert trained["test_metrics"]["n"] == trained["test_size"] >= 2
        assert {k: evaluated[k] for k in trained["test_metrics"]} == \
            trained["test_metrics"]


@pytest.mark.parametrize("label", [-3.0, float("nan")])
def test_train_names_the_record_whose_label_is_no_effort(capsys, tmp_path, c17, label):
    # write_dataset writes no NaN, so the label is put into the file afterwards
    records, logs = generate_records(c17, 12, ObfuscationKind.parse("lut2"),
                                     (1, 3), seed=1)
    ds = tmp_path / "ds"
    write_dataset(ds, c17, records, logs)
    path = ds / "instances" / f"{records[0].instance_id}.json"
    _edit_json(path, lambda doc: {**doc, "labels": {**doc["labels"], "conflicts": label}})
    code, out, err = run_cli(capsys, "train", "--dataset", str(ds),
                             "--out", str(tmp_path / "m.json"))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"{path}: labels.conflicts: expected a finite number >= 0, got {label!r}"}
    assert not (tmp_path / "m.json").exists()


def _edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _edit_manifest(edit):
    return lambda root: _edit_json(root / "ds" / "manifest.json", edit)


def _edit_first_record(edit):
    def apply(root):
        ds = root / "ds"
        first = json.loads((ds / "manifest.json").read_text())["instances"][0]
        _edit_json(ds / "instances" / f"{first}.json", edit)
    return apply


def _edit_first_labels(edit):
    return _edit_first_record(lambda doc: {**doc, "labels": edit(doc["labels"])})


def _edit_first_obfuscation(edit):
    return _edit_first_record(lambda doc: {**doc, "obfuscation": edit(doc["obfuscation"])})


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _write_config(doc):
    return lambda root: (root / "config.json").write_text(json.dumps(doc))


# command, edit of a copy of the pipeline dataset (or a config), the message after the
# temporary directory (or, for a decoder's message, its start)
MALFORMED_INPUTS = {
    "manifest-list": ("report", _edit_manifest(lambda m: [m]),
                      "ds/manifest.json: expected a JSON object, got [{'base': 'base.bench', "
                      "'count': 8, 'for"),
    "manifest-truncated": ("report", lambda root: (root / "ds" / "manifest.json").write_text(
        '{"format": "locktime-dataset", "vers'), "ds/manifest.json: not valid JSON: "),
    "instances-twice": ("report", _edit_manifest(
        lambda m: {**m, "count": 12, "instances": [m["instances"][0]] * 12}),
        "ds/manifest.json: instances: 'inst-00000' is listed twice"),
    "instances-string": ("report", _edit_manifest(
        lambda m: {**m, "instances": m["instances"][0]}),
        "ds/manifest.json: instances: expected a JSON list, got 'inst-00000'"),
    "label-negative": ("report", _edit_first_labels(
        lambda lab: {**lab, "conflicts": -3.0}),
        "ds/instances/inst-00000.json: labels.conflicts: expected a finite number >= 0, "
        "got -3.0"),
    "label-missing": ("report", _edit_first_labels(
        lambda lab: {"conflicts": lab["conflicts"]}),
        "ds/instances/inst-00000.json: labels.wall_seconds: missing"),
    "label-string": ("report", _edit_first_labels(
        lambda lab: {**lab, "conflicts": "many"}),
        "ds/instances/inst-00000.json: labels.conflicts: expected a finite number >= 0, "
        "got 'many'"),
    "censored-missing": ("report", _edit_first_record(_without("censored")),
                         "ds/instances/inst-00000.json: censored: missing"),
    "censored-string": ("report", _edit_first_record(lambda doc: {**doc, "censored": "no"}),
                        "ds/instances/inst-00000.json: censored: expected true or false, "
                        "got 'no'"),
    "censored-solved": ("report", _edit_first_record(lambda doc: {**doc, "censored": True}),
                        "ds/instances/inst-00000.json: censored: True with status 'SOLVED'; "
                        "a record is censored exactly when it timed out"),
    "uncensored-timeout": ("report", _edit_first_record(
        lambda doc: {**doc, "status": "TIMEOUT"}),
        "ds/instances/inst-00000.json: censored: False with status 'TIMEOUT'; "
        "a record is censored exactly when it timed out"),
    "record-truncated": ("report", lambda root: (root / "ds" / "instances" /
                                                 "inst-00000.json").write_text('{"id'),
                         "ds/instances/inst-00000.json: not valid JSON: "),
    "record-list": ("report", _edit_first_record(lambda doc: [doc]),
                    "ds/instances/inst-00000.json: expected a JSON object, got "
                    "[{'censored': False, 'id': 'inst-00000',"),
    "iterations-negative": ("report", _edit_first_record(
        lambda doc: {**doc, "iterations": -1}),
        "ds/instances/inst-00000.json: iterations: expected an integer >= 0, got -1"),
    "iterations-bool": ("report", _edit_first_record(
        lambda doc: {**doc, "iterations": True}),
        "ds/instances/inst-00000.json: iterations: expected an integer >= 0, got True"),
    "id-mismatch": ("report", _edit_first_record(lambda doc: {**doc, "id": "other"}),
                    "ds/instances/inst-00000.json: id: expected 'inst-00000', got 'other'"),
    "key-truth-missing": ("report", _edit_first_obfuscation(_without("key_truth")),
                          "ds/instances/inst-00000.json: obfuscation.key_truth: missing"),
    "location-unknown": ("report", _edit_first_obfuscation(
        lambda ob: {**ob, "locations": ["nope"]}),
        "ds/instances/inst-00000.json: obfuscation: locations: 'nope' is not a net of the "
        "base circuit"),
    "config-list": ("train", _write_config([1, 2]),
                    "config.json: expected a JSON object, got [1, 2]"),
    "config-string": ("train", _write_config("x"),
                      "config.json: expected a JSON object, got 'x'"),
    "config-no-json": ("train", lambda root: (root / "config.json").write_text("nope"),
                       "config.json: not valid JSON: Expecting value: line 1 column 1"),
}


@pytest.mark.parametrize("command, edit, message", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS)
def test_malformed_dataset_or_config_is_one_json_error(pipeline, capsys, tmp_path,
                                                       command, edit, message):
    shutil.copytree(pipeline[0], tmp_path / "ds")
    edit(tmp_path)
    argv = [command, "--dataset", str(tmp_path / "ds")]
    if command == "train":
        argv += ["--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "m.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ValueError" and message in doc["message"]


def test_eval_scores_the_label_kind_the_model_was_trained_on(pipeline, capsys, tmp_path):
    ds, _, _, cfg = pipeline
    model = tmp_path / "model.json"
    trained = run_json(capsys, "train", "--dataset", str(ds), "--label-kind",
                       "wall_seconds", "--config", str(cfg), "--out", str(model))
    assert json.loads(model.read_text())["label_kind"] == "wall_seconds"
    evaluated = run_json(capsys, "eval", "--dataset", str(ds), "--model", str(model))
    assert evaluated["label_kind"] == "wall_seconds"
    assert evaluated["mse"] == trained["test_metrics"]["mse"]


def test_each_model_setting_has_one_source(pipeline, capsys, tmp_path):
    # the seed comes only from the config file, the label kind only from the checkpoint
    ds, model, _, cfg = pipeline
    for argv in (["train", "--dataset", str(ds), "--config", str(cfg), "--seed", "1",
                  "--out", str(tmp_path / "m.json")],
                 ["eval", "--dataset", str(ds), "--model", str(model),
                  "--label-kind", "conflicts"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("message,edit", [
    ("params.conv0: missing", lambda doc: doc["params"].pop("conv0")),
    ("params.feat.shape: expected [3], got [2]",
     lambda doc: doc["params"].update(feat={"shape": [2], "data": [0.5, 0.5]})),
    ("params: expected a JSON object, got []", lambda doc: doc.update(params=[])),
    ("params.conv0: expected a JSON object, got [0.5]",
     lambda doc: doc["params"].update(conv0=[0.5])),
    ("params.conv0.shape: expected a JSON list, got 'x'",
     lambda doc: doc["params"]["conv0"].update(shape="x")),
    ("params.feat.shape[0]: expected an integer >= 0, got -3",
     lambda doc: doc["params"]["feat"].update(shape=[-3, -1])),
    ("config: expected a JSON object, got [1]", lambda doc: doc.update(config=[1])),
    ("params.feat.data: expected a JSON list, got 'x'",
     lambda doc: doc["params"]["feat"].update(data="x")),
    ("params.feat.data[0]: expected a finite number, got [1]",
     lambda doc: doc["params"]["feat"].update(data=[[1], [2, 3]])),
    # the shapes a config implies are checked without allocating them
    ("params.conv0.shape: expected [11, 1099511627776], got [11, 6]",
     lambda doc: doc["config"].update(hidden_dims=[2 ** 40, 4])),
], ids=["missing", "misshapen", "params-list", "entry-list", "shape-string",
        "shape-negative", "config-list", "data-string", "data-nested", "config-huge"])
def test_eval_rejects_checkpoint_params_that_do_not_fit_the_config(
        pipeline, capsys, tmp_path, message, edit):
    # report reads the checkpoint with the same reader, so it refuses alike
    ds, model, *_ = pipeline
    doc = json.loads(model.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("eval", "report"):
        code, out, err = run_cli(capsys, command, "--dataset", str(ds), "--model", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": f"{bad}: {message}"}


@pytest.mark.parametrize("text,message", [
    ("nope", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1]", "expected a JSON object, got [1]"),
], ids=["no-json", "list"])
def test_eval_and_report_name_a_checkpoint_file_that_is_no_json_object(
        pipeline, capsys, tmp_path, text, message):
    ds, *_ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("eval", "report"):
        code, out, err = run_cli(capsys, command, "--dataset", str(ds), "--model", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": f"{bad}: {message}"}


@pytest.mark.parametrize("label_kind", ["seconds", ["conflicts"]], ids=["unknown", "list"])
def test_eval_and_report_name_an_unknown_checkpoint_label_kind(
        pipeline, capsys, tmp_path, label_kind):
    ds, model, *_ = pipeline
    doc = json.loads(model.read_text())
    doc["label_kind"] = label_kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["eval"], ["report"]):
        code, out, err = run_cli(capsys, *argv, "--dataset", str(ds), "--model", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"{bad}: label_kind: expected 'wall_seconds' or 'conflicts', "
                       f"got {label_kind!r}"}


def test_eval_names_a_checkpoint_parameter_whose_data_misses_its_shape(
        pipeline, capsys, tmp_path):
    ds, model, *_ = pipeline
    size = len(json.loads(model.read_text())["params"]["feat"]["data"])
    bad = tmp_path / "bad.json"
    for edit, message in (
            (lambda p: p.update(shape=[size + 1]),
             f"params.feat.shape: expected [{size}], got [{size + 1}]"),
            (lambda p: p["data"].pop(),
             f"parameter 'feat' has {size - 1} values, its shape [{size}] needs {size}")):
        doc = json.loads(model.read_text())
        edit(doc["params"]["feat"])
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "eval", "--dataset", str(ds), "--model", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": f"{bad}: {message}"}


def test_train_rejects_unknown_config_keys(pipeline, capsys, tmp_path):
    ds, *_ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text('{"hidden_dims": [4, 2], "dropout": 0.5}')
    code, _, err = run_cli(capsys, "train", "--dataset", str(ds),
                           "--config", str(bad),
                           "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "dropout" in json.loads(err)["message"]


def test_train_rejects_removed_config_keys(pipeline, capsys, tmp_path):
    ds, *_ = pipeline
    old = tmp_path / "old.json"
    for key, value in (("init_scheme", "uniform_glorot"), ("directed", True)):
        old.write_text(json.dumps({"hidden_dims": [4, 2], key: value}))
        code, _, err = run_cli(capsys, "train", "--dataset", str(ds),
                               "--config", str(old),
                               "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert json.loads(err)["message"] == f"{old}: {key}: unknown field"


def test_train_divergence_is_json_error(pipeline, capsys, tmp_path):
    ds, *_ = pipeline
    cfg = tmp_path / "diverge.json"
    cfg.write_text('{"hidden_dims": [6, 3], "max_epochs": 15, '
                   '"learning_rate": 1e200, "batch_size": 4}')
    code, out, err = run_cli(capsys, "train", "--dataset", str(ds),
                             "--config", str(cfg),
                             "--out", str(tmp_path / "m.json"))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NonFiniteError"


@pytest.mark.parametrize("fields,name", [
    ({"max_epochs": 0}, "max_epochs"),
    ({"batch_size": 0}, "batch_size"),
    ({"hidden_dims": [-1, 4]}, "hidden_dims"),
    ({"hidden_dims": [0, 16]}, "hidden_dims"),
    ({"learning_rate": -1}, "learning_rate"),
    ({"convergence_tol": -0.5}, "convergence_tol"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"batch_size": True}, "batch_size"),
    ({"max_epochs": 1.5}, "max_epochs"),
    ({"conv_layers": 2}, "conv_layers"),  # the layer count is len(hidden_dims)
    ({"hidden_dims": [8.5, 4]}, "hidden_dims"),
    ({"seed": 1.5}, "seed"),
    ({"hidden_dims": None}, "hidden_dims"),
    ({"hidden_dims": []}, "hidden_dims"),
])
def test_train_rejects_bad_config_values(pipeline, capsys, tmp_path, fields, name):
    ds, *_ = pipeline
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(fields))
    code, out, err = run_cli(capsys, "train", "--dataset", str(ds),
                             "--config", str(cfg),
                             "--out", str(tmp_path / "m.json"))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and doc["message"].startswith(f"{cfg}: ")
    assert name in doc["message"]
    assert not (tmp_path / "m.json").exists()


def test_train_too_wide_a_layer_is_json_error(pipeline, capsys, tmp_path):
    # 2**40 hidden units: the first weight matrix cannot be allocated
    ds, *_ = pipeline
    cfg = _write_config_file(tmp_path, {"hidden_dims": [2 ** 40, 4]})
    code, out, err = run_cli(capsys, "train", "--dataset", str(ds), "--config", str(cfg),
                             "--out", str(tmp_path / "m.json"))
    assert code == 1 and out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    assert json.loads(line)["error"].endswith("MemoryError")
    assert not (tmp_path / "m.json").exists()


def test_a_bug_is_not_reported_as_bad_input(monkeypatch, capsys):
    # main turns refused input into a JSON error; a TypeError is a bug and propagates
    def broken(spec):
        raise TypeError("a bug")
    monkeypatch.setattr("locktime.cli._load_bench", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["parse", "builtin:c17"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["parse", "eval", "report"])
def test_out_writes_what_stdout_shows(pipeline, capsys, tmp_path, command):
    ds, model, *_ = pipeline
    argv = {"parse": ["parse", "builtin:c17"],
            "eval": ["eval", "--dataset", str(ds), "--model", str(model)],
            "report": ["report", "--dataset", str(ds), "--model", str(model)]}[command]
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert target.read_text() == printed


def test_report_undefined_correlation_is_null(capsys, tmp_path):
    # one location everywhere: Spearman against a constant is undefined
    ds = tmp_path / "ds"
    run_json(capsys, "gen-data", "builtin:c17", "--count", "3", "--kind", "xor",
             "--locations", "1", "--out", str(ds))
    doc = run_json(capsys, "report", "--dataset", str(ds))
    assert doc["dataset"]["spearman_locations_conflicts"] is None


def test_gen_data_rejects_nonpositive_workers(capsys, tmp_path):
    for workers in ("0", "-2"):
        code, out, err = run_cli(capsys, "gen-data", "builtin:c17", "--count", "2",
                                 "--kind", "xor", "--locations", "1",
                                 "--workers", workers, "--out", str(tmp_path / "ds"))
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == f"workers must be >= 1, got {workers}"


@pytest.mark.parametrize("text", ["1:x", "x", "", "2:"])
def test_gen_data_names_a_malformed_locations_range(capsys, tmp_path, text):
    code, out, err = run_cli(capsys, "gen-data", "builtin:c17", "--count", "1", "--kind",
                             "xor", "--locations", text, "--out", str(tmp_path / "ds"))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"--locations must be K or LO:HI, with integers K, LO and HI, got {text!r}"}


def test_every_written_file_is_strict_json(capsys, tmp_path, c17):
    # an infinite timeout is stored as null, which already means no limit
    ds = tmp_path / "ds"
    manifest = run_json(capsys, "gen-data", "builtin:c17", "--count", "4", "--kind", "xor",
                        "--locations", "1", "--timeout", "inf", "--out", str(ds))
    assert manifest["timeout_seconds"] is None
    run_json(capsys, "obfuscate", "builtin:c17", "--kind", "xor", "--locations", "1",
             "--out", str(tmp_path / "inst"))
    run_json(capsys, "train", "--dataset", str(ds), "--out", str(tmp_path / "model.json"),
             "--config", str(_write_config_file(tmp_path, {"hidden_dims": [4, 2],
                                                           "max_epochs": 2})))
    written = [ds / "manifest.json", tmp_path / "inst" / "instance.json", tmp_path / "model.json"]
    written += sorted((ds / "instances").glob("*.json"))
    for path in written:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    for line in (ds / "attacks.log.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=_reject_constant)
    assert json.loads((ds / "manifest.json").read_text())["timeout_seconds"] is None
    # a manifest written with Infinity before infinite timeouts became null still loads
    text = (ds / "manifest.json").read_text()
    (ds / "manifest.json").write_text(text.replace('"timeout_seconds": null',
                                                   '"timeout_seconds": Infinity'))
    assert run_json(capsys, "report", "--dataset", str(ds))["dataset"]["count"] == 4
    # and no writer puts a NaN into a file
    records, logs = generate_records(c17, 1, ObfuscationKind.parse("xor"), (1, 1), seed=0)
    records[0] = replace(records[0], labels={**records[0].labels, "conflicts": float("nan")})
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_dataset(tmp_path / "nan", c17, records, logs)


def _write_config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_gen_data_requires_out(capsys):
    code, _, err = run_cli(capsys, "gen-data", "builtin:c17", "--count", "1",
                           "--kind", "xor", "--locations", "1")
    assert code == 1
    assert "--out" in json.loads(err)["message"]


def test_console_script_installed():
    exe = shutil.which("locktime")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "parse", "builtin:c17"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert json.loads(out.stdout)["nodes"] == 11


def test_console_script_entry_and_module_run():
    # the entry point pyproject.toml declares is the main these tests call,
    # and the module runs as a program without the script installed
    tomllib = pytest.importorskip("tomllib")
    src = Path(locktime.__file__).parent.parent
    project = tomllib.loads((src.parent / "pyproject.toml").read_text())
    target = project["project"]["scripts"]["locktime"]
    assert target == "locktime.cli:main"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-m", "locktime.cli", "parse", "builtin:c17"],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert '"nodes": 11' in out.stdout
