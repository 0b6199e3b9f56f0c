"""The input files the CLI reads.  Every field of the five JSON files is
checked against its declaration, every line of the two bench files is
parsed, and a refusal names the file."""

import copy
import json
import os
from collections import Counter

import pytest

from locktime.cli import _load_instance, main
from locktime.experiments import MANIFEST, RECORD, load_dataset, write_dataset
from locktime.icnet import (CHECKPOINT, CONFIG, ModelConfig, load_checkpoint, new_model,
                            save_checkpoint)
from locktime.netlist import FLOAT_MAX, parse_bench, read_json_object
from locktime.obfuscate import INSTANCE, ObfuscationKind, instance_to_json, random_obfuscate

README_CONFIG = {"hidden_dims": [8, 4], "max_epochs": 40, "learning_rate": 0.02, "batch_size": 4}

# every leaf, and each whole document, is set to each of these in turn
VALUES = (None, "x", [1], {}, -1, 0, 1e308, True, 2 ** 70)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The README flow's input files, small: file kind -> (path, reader)."""
    root = tmp_path_factory.mktemp("flow")
    assert main(["obfuscate", "builtin:c17", "--kind", "xnor", "--locations", "2",
                 "--seed", "3", "--out", str(root / "locked")]) == 0
    assert main(["gen-data", "builtin:c17", "--kind", "lut2", "--count", "2",
                 "--locations", "1:3", "--seed", "1", "--out", str(root / "ds")]) == 0
    (root / "config.json").write_text(json.dumps(README_CONFIG))
    save_checkpoint(new_model(ModelConfig(**README_CONFIG)), root / "model.json", "conflicts")
    ds = root / "ds"
    return {
        "instance": (root / "locked" / "instance.json", lambda p: _load_instance(str(p))),
        "config": (root / "config.json", lambda p: read_json_object(p, ModelConfig.from_dict)),
        "checkpoint": (root / "model.json", load_checkpoint),
        "manifest": (ds / "manifest.json", lambda p: load_dataset(ds)),
        "record": (ds / "instances" / "inst-00000.json", lambda p: load_dataset(ds)),
    }


def _leaves(doc, keys=()):
    """Key paths of every leaf; a list stands for its first element."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, keys + (k,))
    elif isinstance(doc, list) and doc:
        yield from _leaves(doc[0], keys + (0,))
    else:
        yield keys


def _set(doc, keys, value):
    if not keys:
        return value
    doc = copy.deepcopy(doc)
    inner = doc
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return doc


def _dotted(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _number(v) -> bool:
    return type(v) in (int, float) and abs(v) <= FLOAT_MAX


def _size(kind, key, v) -> bool:
    sizes = ("hidden_dims[0]", "batch_size", "max_epochs")
    if kind == "checkpoint":  # a checkpoint's hidden widths fix its parameter shapes
        sizes = sizes[1:]
    return key.split(".")[-1] in sizes and type(v) is int and v >= 1


# values that load, each under a rule: file kind, dotted key path, value -> it applies
ACCEPTED = {
    "a config may leave out any field":
        lambda kind, key, v: kind == "config" and key == "" and v == {},
    "any integer >= 0 is a valid seed":
        lambda kind, key, v: key.split(".")[-1] == "seed" and type(v) is int and v >= 0,
    "a null instance seed says the locations were given, not drawn":
        lambda kind, key, v: kind in ("instance", "record") and key.endswith("seed")
        and v is None,
    "a null timeout means no limit, and any number > 0 is a timeout":
        lambda kind, key, v: key == "timeout_seconds" and (v is None or _number(v) and v > 0),
    "a label is any finite number >= 0":
        lambda kind, key, v: key.startswith("labels.") and _number(v) and v >= 0,
    "an iteration count is any integer >= 0":
        lambda kind, key, v: key == "iterations" and type(v) is int and v >= 0,
    "any finite number is a parameter value":
        lambda kind, key, v: key.endswith(".data[0]") and _number(v),
    "a width, a batch size or an epoch count is any integer >= 1": _size,
    "a learning rate is any finite number > 0":
        lambda kind, key, v: key.endswith("learning_rate") and _number(v) and v > 0,
    "a convergence tolerance is any finite number >= 0":
        lambda kind, key, v: key.endswith("convergence_tol") and _number(v) and v >= 0,
}


def _outcome(path, reader, kind, key, value):
    """None when the mutation is refused by name or accepted under a rule,
    else what went wrong."""
    try:
        reader(path)
    except ValueError as exc:
        return None if str(path) in str(exc) else "refused without the file's name"
    except OSError as exc:
        # a missing referenced file is refused by OSError naming that file
        missing = exc.filename is not None and not os.path.exists(exc.filename)
        return None if missing and str(exc.filename) in str(exc) else f"{type(exc).__name__}"
    except Exception as exc:  # any other exception is itself the finding
        return type(exc).__name__
    if any(rule(kind, key, value) for rule in ACCEPTED.values()):
        return None
    return "accepted under no rule"


def test_every_mutated_field_is_refused_by_name_or_accepted_by_a_rule(files):
    found = Counter()
    examples = []
    mutations = 0
    for kind, (path, reader) in files.items():
        text = path.read_text()
        doc = json.loads(text)
        try:
            for keys in [(), *_leaves(doc)]:
                for value in VALUES:
                    path.write_text(json.dumps(_set(doc, keys, value)))
                    mutations += 1
                    problem = _outcome(path, reader, kind, _dotted(keys), value)
                    if problem:
                        found[f"{kind}: {problem}"] += 1
                        examples.append(f"{kind} {_dotted(keys) or '<document>'}={value!r}: "
                                        f"{problem}")
        finally:
            path.write_text(text)
    # 9 values on each of 58 key paths (5 documents and their leaves); the
    # checkpoint's config no longer has a conv_layers leaf
    assert mutations == 522
    assert not found, f"{sorted(found.items())}; for example {examples[:5]}"


# --- writers and declarations ---

def _key_mismatches(doc, decl, at=""):
    """Key paths where a written document's keys differ from its declaration's."""
    if isinstance(decl, list):
        return [m for i, v in enumerate(doc) for m in _key_mismatches(v, decl[0], f"{at}[{i}]")]
    if not isinstance(decl, dict):
        return []
    if str in decl:
        return [m for k, v in doc.items() for m in _key_mismatches(v, decl[str], f"{at}.{k}")]
    declared = {k.rstrip("?"): spec for k, spec in decl.items()}
    found = [f"{at}.{k}" for k in sorted(doc.keys() ^ declared.keys())]
    return found + [m for k in doc.keys() & declared.keys()
                    for m in _key_mismatches(doc[k], declared[k], f"{at}.{k}")]


def test_each_writer_writes_exactly_its_declarations_keys(tmp_path, c17):
    inst = random_obfuscate(c17, 2, ObfuscationKind.parse("xnor"), seed=3)
    assert _key_mismatches(instance_to_json(inst, "base.bench"), INSTANCE) == []
    assert _key_mismatches(ModelConfig().to_dict(), CONFIG) == []
    save_checkpoint(new_model(ModelConfig(**README_CONFIG)), tmp_path / "model.json", "conflicts")
    checkpoint = json.loads((tmp_path / "model.json").read_text())
    assert _key_mismatches(checkpoint, CHECKPOINT) == []
    assert _key_mismatches(checkpoint["config"], CONFIG) == []
    # gen-data writes the optional manifest keys, write_dataset alone does not
    assert main(["gen-data", "builtin:c17", "--kind", "lut2", "--count", "2",
                 "--locations", "1:3", "--out", str(tmp_path / "full")]) == 0
    _, records, _ = load_dataset(tmp_path / "full")
    write_dataset(tmp_path / "bare", c17, records, [])
    required = {k: spec for k, spec in MANIFEST.items() if not k.endswith("?")}
    for ds, manifest_decl in ((tmp_path / "full", MANIFEST), (tmp_path / "bare", required)):
        manifest = json.loads((ds / "manifest.json").read_text())
        assert _key_mismatches(manifest, manifest_decl) == []
        for rec_id in manifest["instances"]:
            record = json.loads((ds / "instances" / f"{rec_id}.json").read_text())
            assert _key_mismatches(record, RECORD) == []


@pytest.mark.parametrize("kind, keys, where", [
    ("instance", (), ""), ("config", (), ""), ("checkpoint", ("config",), "config: "),
    ("manifest", (), ""), ("record", (), ""), ("record", ("obfuscation",), "obfuscation."),
    ("record", ("labels",), "labels."),
])
def test_an_unknown_key_is_refused_by_name(files, kind, keys, where):
    # the mutation sweep changes values only, so it adds no key
    path, reader = files[kind]
    text = path.read_text()
    doc = json.loads(text)
    inner = doc
    for k in keys:
        inner = inner[k]
    inner["dropout"] = 0.5
    path.write_text(json.dumps(doc))
    try:
        with pytest.raises(ValueError) as excinfo:
            reader(path)
    finally:
        path.write_text(text)
    assert str(excinfo.value) == f"{path}: {where}dropout: unknown field"


# --- the bench files the README flow reads ---

JSON_LINE = json.dumps({"base": "base.bench", "pad": "x" * 167})  # 200 characters
# each line of a bench file is changed in turn by each of these
LINE_MUTATIONS = (lambda line: [], lambda line: [line, line], lambda line: ["x = FROB("],
                  lambda line: [JSON_LINE])


def _bench_outcome(capsys, path, argv):
    """None when the command loads the bench, or refuses it with one JSON line
    that starts with the bench's path, else what went wrong."""
    try:
        code = main(argv)
    except Exception as exc:  # main lets it through: a traceback
        return type(exc).__name__
    err = capsys.readouterr().err
    if code == 0:
        return None
    lines = err.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} lines on stderr"
    if json.loads(lines[0])["message"].startswith(f"{path}: "):
        return None
    try:  # a bench that loads may still be refused by a file read after it
        parse_bench(path.read_text())
    except ValueError:
        return "refused without the file's name"
    return None


def test_every_mutated_bench_line_loads_or_is_refused_by_name(files, capsys):
    assert len(JSON_LINE) == 200
    instance, ds = files["instance"][0], files["manifest"][0].parent
    found = Counter()
    examples = []
    mutations = 0
    for path, argv in ((instance.parent / "base.bench", ["attack", str(instance)]),
                       (ds / "base.bench", ["report", "--dataset", str(ds)])):
        text = path.read_text()
        lines = text.splitlines()
        variants = {"binary": b"\x00\xff\xfe\x80bench"}
        variants.update({f"line {i + 1} mutation {j}": "\n".join(
            lines[:i] + mutate(lines[i]) + lines[i + 1:] + [""]).encode()
            for i in range(len(lines)) for j, mutate in enumerate(LINE_MUTATIONS)})
        try:
            for what, content in variants.items():
                path.write_bytes(content)
                mutations += 1
                problem = _bench_outcome(capsys, path, argv)
                if problem:
                    found[f"{path.parent.name}: {problem}"] += 1
                    examples.append(f"{path.parent.name} {what}: {problem}")
        finally:
            path.write_text(text)
    assert mutations == 114
    assert not found, f"{sorted(found.items())}; for example {examples[:5]}"
