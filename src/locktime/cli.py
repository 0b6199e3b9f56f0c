"""Command-line interface.

Subcommands:

  parse          validate a bench netlist and print a structure summary
  obfuscate      lock a circuit; writes instance.json / locked.bench / base.bench
  attack         run key recovery on a locked instance and print solver effort
  gen-data       build an attack-labelled dataset directory
  train          fit the runtime regressor on a dataset
  eval           score a trained model on a dataset split
  report         dataset summary, optionally with model attention shares
  export-dimacs  CNF of a circuit or of a locked instance's two-key miter

Results go to stdout as JSON (or to --out); failures print one JSON
object on stderr and exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import load_bundled
from .attack import LABEL_KINDS, sat_attack
from .cnf import build_miter, to_dimacs, tseitin
from .experiments import (
    attention_report,
    dataset_report,
    evaluate,
    generate_dataset,
    load_dataset,
    records_to_samples,
)
from .icnet import (
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    split_samples,
    train as train_model,
)
from .netlist import emit_bench, read_bench, read_json_object, write_json
from .numerics import NonFiniteError
from .obfuscate import (
    INSTANCE,
    ObfuscationKind,
    instance_from_json,
    instance_to_json,
    random_obfuscate,
)

BUILTIN_PREFIX = "builtin:"


def _load_bench(spec: str):
    if spec.startswith(BUILTIN_PREFIX):
        return load_bundled(spec[len(BUILTIN_PREFIX):])
    return read_bench(spec)


def _json_safe(doc):
    """``doc`` with every non-finite float replaced by None: JSON has no NaN."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _json_safe(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_safe(v) for v in doc]
    return doc


def _emit(doc, out=None) -> None:
    _write_text(json.dumps(_json_safe(doc), indent=1, sort_keys=True,
                           allow_nan=False) + "\n", out)


def _write_text(text: str, out=None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, colon, hi = text.partition(":")
    try:
        return int(lo), int(hi if colon else lo)
    except ValueError:
        raise ValueError(f"--locations must be K or LO:HI, with integers K, LO and HI, "
                         f"got {text!r}") from None


def _load_instance(path: str):
    p = Path(path)
    doc = read_json_object(p, INSTANCE)
    base = read_bench(p.parent / doc["base_file"])
    try:
        return instance_from_json(doc, base)
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from exc


# --- subcommands ---

def _cmd_parse(args) -> None:
    c = _load_bench(args.bench)
    if args.emit:
        _write_text(emit_bench(c), args.out)
        return
    counts: dict = {}
    depth = [0] * c.n
    for gid in c.logic_gates:
        g = c.gates[gid]
        counts[g.type.name] = counts.get(g.type.name, 0) + 1
        depth[gid] = 1 + max(depth[f] for f in g.fanin)
    _emit({
        "nodes": c.n,
        "logic_gates": len(c.logic_gates),
        "primary_inputs": [c.gates[g].name for g in c.primary_inputs],
        "primary_outputs": [c.gates[g].name for g in c.primary_outputs],
        "key_inputs": [c.gates[g].name for g in c.key_inputs],
        "key_bits": c.key_bits,
        "type_counts": counts,
        "depth": max((depth[g] for g in c.primary_outputs), default=0),
    }, args.out)


def _cmd_obfuscate(args) -> None:
    base = _load_bench(args.bench)
    kind = ObfuscationKind.parse(args.kind)
    inst = random_obfuscate(base, args.locations, kind, args.seed)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "base.bench").write_text(emit_bench(inst.base))
    (outdir / "locked.bench").write_text(emit_bench(inst.obfuscated))
    write_json(outdir / "instance.json", instance_to_json(inst, "base.bench"))
    _emit({
        "kind": str(kind),
        "locations": list(inst.location_names),
        "key_bits": len(inst.key_truth),
        "key_truth": "".join(str(b) for b in inst.key_truth),
        "files": {name: str(outdir / name) for name in
                  ("instance.json", "locked.bench", "base.bench")},
    })


def _cmd_attack(args) -> None:
    inst = _load_instance(args.instance)
    r = sat_attack(inst, timeout_seconds=args.timeout)
    key = ("".join(str(b) for b in r.recovered_key)
           if r.recovered_key is not None else None)
    _emit({
        "status": r.status,
        "iterations": len(r.dips),
        "wall_seconds": r.wall_seconds,
        "decisions": r.total_stats.decisions,
        "propagations": r.total_stats.propagations,
        "conflicts": r.total_stats.conflicts,
        "recovered_key": key,
        "ground_truth_key": "".join(str(b) for b in inst.key_truth),
    }, args.out)


def _cmd_gen_data(args) -> None:
    if not args.out:
        raise ValueError("gen-data requires --out DIR")
    base = _load_bench(args.bench)
    kind = ObfuscationKind.parse(args.kind)
    _, manifest = generate_dataset(base, args.out, args.count, kind,
                                   _parse_range(args.locations), args.seed,
                                   timeout_seconds=args.timeout,
                                   workers=args.workers)
    _emit(manifest)


def _cmd_train(args) -> None:
    _, records, _ = load_dataset(args.dataset)
    config = read_json_object(args.config, ModelConfig.from_dict) if args.config else ModelConfig()
    samples = records_to_samples(records, config, args.label_kind)
    res = train_model(samples, config)
    save_checkpoint(res.model, args.out, args.label_kind)
    if args.log_csv:
        Path(args.log_csv).write_text(res.log_csv())
    usable, _, test_idx = split_samples(samples, config.seed)
    test = [usable[i] for i in test_idx]
    doc = {
        "model": str(args.out),
        "label_kind": args.label_kind,
        "epochs": res.epochs_run,
        "train_mse": res.log[-1]["train_mse"],
        "val_mse": res.log[-1]["val_mse"],
        "train_size": len(res.train_indices),
        "test_size": len(res.test_indices),
    }
    if test:
        doc["test_metrics"] = evaluate(res.model, test).to_dict()
    _emit(doc)


def _cmd_eval(args) -> None:
    model, label_kind = load_checkpoint(args.model)
    _, records, _ = load_dataset(args.dataset)
    samples = records_to_samples(records, model.config, label_kind)
    usable, train_idx, test_idx = split_samples(samples, model.config.seed)
    picks = {"train": train_idx, "test": test_idx, "all": range(len(usable))}
    rep = evaluate(model, [usable[i] for i in picks[args.split]])
    doc = rep.to_dict()
    doc.update({"split": args.split, "label_kind": label_kind})
    _emit(doc, args.out)


def _cmd_report(args) -> None:
    _, records, _ = load_dataset(args.dataset)
    doc = {"dataset": dataset_report(records)}
    if args.model:
        model, label_kind = load_checkpoint(args.model)
        samples = records_to_samples(records, model.config, label_kind)
        doc["attention"] = attention_report(model, samples).to_dict()
    _emit(doc, args.out)


def _cmd_export_dimacs(args) -> None:
    if args.what == "circuit":
        formula = tseitin(_load_bench(args.source))
    else:
        inst = _load_instance(args.source)
        formula = build_miter(inst.obfuscated).formula
    _write_text(to_dimacs(formula), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locktime",
        description="Logic-locking SAT-attack datasets and runtime prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--out", default=None, help="write output here instead "
                       "of stdout (directory for obfuscate/gen-data, checkpoint for train)")
        return p

    p = add("parse", _cmd_parse, "validate a bench netlist")
    p.add_argument("bench", help="bench file path or builtin:<name>")
    p.add_argument("--emit", action="store_true",
                   help="print the netlist, gates in id order, instead of a summary")

    p = add("obfuscate", _cmd_obfuscate, "lock a circuit")
    p.add_argument("bench")
    p.add_argument("--kind", required=True, help="xor, xnor, or lutK")
    p.add_argument("--locations", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("attack", _cmd_attack, "run key recovery on an instance.json")
    p.add_argument("instance")
    p.add_argument("--timeout", type=float, default=None)

    p = add("gen-data", _cmd_gen_data, "generate an attack-labelled dataset")
    p.add_argument("bench")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--locations", required=True, help="K or LO:HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)

    p = add("train", _cmd_train, "train the runtime regressor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--label-kind", default="conflicts", choices=LABEL_KINDS)
    p.add_argument("--config", default=None, help="model config JSON file")
    p.add_argument("--log-csv", default=None, help="write the per-epoch log here")
    p.set_defaults(out="model.json")

    p = add("eval", _cmd_eval, "score a trained model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="test", choices=("train", "test", "all"))

    p = add("report", _cmd_report, "dataset / attention report")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default=None)

    p = add("export-dimacs", _cmd_export_dimacs, "emit DIMACS CNF")
    p.add_argument("source", help="bench file (circuit) or instance.json (miter)")
    p.add_argument("--what", default="circuit", choices=("circuit", "miter"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except (NonFiniteError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
