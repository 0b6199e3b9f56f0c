"""Seeded layered random DAGs in bench format, for the train-large workload.

Gates are laid out in layers; each gate draws one fanin from the layer
just before it and the rest from any earlier node, which gives the depth
and reconvergence of ISCAS-85 netlists.  The type mix approximates the
ISCAS-85 suite: NAND-heavy, about a fifth inverters and buffers, and a
few XOR/XNOR gates.  Every node without fanout becomes a primary output.
"""

from __future__ import annotations

import numpy as np

GATE_MIX = (
    ("NAND", 0.30), ("AND", 0.15), ("NOR", 0.10), ("OR", 0.10),
    ("NOT", 0.17), ("BUFF", 0.06), ("XOR", 0.08), ("XNOR", 0.04),
)
WIDE_FANIN = (2, 3, 4)
WIDE_FANIN_P = (0.7, 0.2, 0.1)
PREV_LAYER_SHARE = 0.6


def layered_dag_bench(seed: int, n_gates: int = 600, n_inputs: int = 32,
                      n_layers: int = 20) -> str:
    """Bench text of a random layered DAG; the same seed gives the same text."""
    if n_gates < n_layers or n_layers < 1 or n_inputs < 4:
        raise ValueError("need n_layers >= 1, n_gates >= n_layers, n_inputs >= 4")
    rng = np.random.default_rng(seed)
    types = [t for t, _ in GATE_MIX]
    probs = np.array([p for _, p in GATE_MIX])
    probs /= probs.sum()
    names = [f"pi{i}" for i in range(n_inputs)]
    has_fanout = [False] * n_inputs
    prev_layer = list(range(n_inputs))
    body = []
    for layer in range(n_layers):
        width = n_gates // n_layers + (1 if layer < n_gates % n_layers else 0)
        this_layer = []
        for _ in range(width):
            gtype = types[int(rng.choice(len(types), p=probs))]
            if gtype in ("NOT", "BUFF"):
                k = 1
            elif gtype in ("XOR", "XNOR"):
                k = 2
            else:
                k = int(rng.choice(WIDE_FANIN, p=WIDE_FANIN_P))
            fanin = [prev_layer[int(rng.integers(len(prev_layer)))]]
            while len(fanin) < k:
                if rng.random() < PREV_LAYER_SHARE:
                    f = prev_layer[int(rng.integers(len(prev_layer)))]
                else:
                    f = int(rng.integers(len(names)))
                if f not in fanin:
                    fanin.append(f)
            gid = len(names)
            names.append(f"g{gid - n_inputs}")
            has_fanout.append(False)
            for f in fanin:
                has_fanout[f] = True
            body.append(f"{names[gid]} = {gtype}({', '.join(names[f] for f in fanin)})")
            this_layer.append(gid)
        prev_layer = this_layer
    outputs = [names[i] for i in range(n_inputs, len(names)) if not has_fanout[i]]
    lines = [f"INPUT({names[i]})" for i in range(n_inputs)]
    lines += [f"OUTPUT({name})" for name in outputs]
    return "\n".join(lines + [""] + body) + "\n"
