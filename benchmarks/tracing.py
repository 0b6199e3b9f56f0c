"""Timing shims around locktime's public functions, and span arithmetic.

A shim wraps one public function and records a span (name, start, end,
parent) per call.  It is installed under every binding of that function
in the locktime modules, so a call is timed whichever module makes it:
``locktime.attack.solve`` as well as ``locktime.satsolve.solve``.  A
target that no longer exists is recorded as absent and skipped.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

LAYERS = ("netlist", "obfuscate", "cnf", "satsolve", "attack", "experiments",
          "icnet", "numerics")


def _count_solve(counters, args, kwargs, result):
    formula = args[0] if args else kwargs["f"]
    counters["satsolve.clauses_loaded"] += len(formula.clauses)
    counters["satsolve.conflicts"] += result.stats.conflicts
    counters["satsolve.decisions"] += result.stats.decisions
    counters["satsolve.propagations"] += result.stats.propagations


def _count_attack(counters, args, kwargs, result):
    counters["attack.dips"] += len(result.dips)


# "<layer>.<function>" -> optional observer(counters, args, kwargs, result)
TARGETS = {
    "netlist.parse_bench": None,
    "netlist.simulate": None,
    "netlist.graph_matrix": None,
    "obfuscate.random_obfuscate": None,
    "obfuscate.instance_from_json": None,
    "cnf.build_miter": None,
    "cnf.add_dip_constraint": None,
    "satsolve.solve": _count_solve,
    "attack.sat_attack": _count_attack,
    "attack.keys_equivalent": None,
    "experiments.generate_records": None,
    "experiments.write_dataset": None,
    "experiments.load_dataset": None,
    "experiments.records_to_samples": None,
    "icnet.train": None,
    "icnet.loss_and_grads": None,
    "icnet.batch_mse": None,
    "icnet.forward": None,
    "icnet.build_graph_input": None,
    "numerics.adam_step": None,
}


class Tracer:
    """Collects spans and counters while its shims are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _shim(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return shim

    def install(self, targets=TARGETS):
        """Wrap each target under every binding of it in locktime's layers."""
        modules = [importlib.import_module("locktime")]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"locktime.{layer}"))
            except ImportError:
                pass
        for name, observe in targets.items():
            layer, func = name.split(".")
            home = next((m for m in modules
                         if m.__name__ == f"locktime.{layer}"), None)
            original = getattr(home, func, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            shim = self._shim(name, original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, shim)
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """name -> {"calls", "s", "self_s"}; "s" skips spans nested in a same-name span."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["s"] += end - start
    return totals
