"""Logic locking: key-gate insertion and LUT replacement.

Two schemes are supported.  A *key-gate* splices a fresh XOR (or XNOR)
between a gate and all of its fanouts; the second fanin is a new key
input, and the correct key bit (0 for XOR, 1 for XNOR) makes the gate
transparent.  A *LUT replacement* swaps a logic gate for a k-input LUT
whose 2^k-bit truth table is the key; fanins are padded to k with nearby
nets, and the correct table reproduces the original function for every
padding value.

The inserted key-gate reuses the name and id of the gate it locks, so
fanout edges and output lists carry over unchanged and a location is
identified by the same gate id in the base and obfuscated circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import (KEY_INPUT_PREFIX, Circuit, Gate, GateType,
                      all_input_vectors, simulate_many)

LUT_MAX_ARITY = 4


@dataclass(frozen=True)
class ObfuscationKind:
    """Locking scheme: scheme in {"xor", "xnor", "lut"}; lut_k is the LUT arity."""

    scheme: str
    lut_k: int = 0

    def __post_init__(self):
        if self.scheme in ("xor", "xnor"):
            if self.lut_k:
                raise ValueError(f"{self.scheme} key-gates take no LUT arity")
        elif self.scheme == "lut":
            if not 1 <= self.lut_k <= LUT_MAX_ARITY:
                raise ValueError(f"LUT arity must be in [1, {LUT_MAX_ARITY}], got {self.lut_k}")
        else:
            raise ValueError(f"unknown obfuscation scheme {self.scheme!r}")

    def __str__(self):
        return f"lut{self.lut_k}" if self.scheme == "lut" else self.scheme

    @classmethod
    def parse(cls, text: str) -> "ObfuscationKind":
        t = text.strip().lower()
        if t in ("xor", "xnor"):
            return cls(t)
        if t.startswith("lut") and t[3:].isdigit():
            return cls("lut", int(t[3:]))
        raise ValueError(f"cannot parse obfuscation kind {text!r} "
                         f"(expected xor, xnor, or lutK with K in [1,{LUT_MAX_ARITY}])")


@dataclass(frozen=True)
class ObfuscationInstance:
    base: Circuit
    obfuscated: Circuit
    kind: ObfuscationKind
    locations: tuple[int, ...]  # gate ids, valid in both circuits
    key_truth: tuple[int, ...]
    mask: tuple[int, ...]  # length = obfuscated.n
    seed: int | None = None

    @property
    def location_names(self):
        return tuple(self.base.gates[g].name for g in self.locations)

    def mask_array(self) -> np.ndarray:
        return np.asarray(self.mask, dtype=np.float64)


def _fresh_key_name(c: Circuit) -> str:
    used = {c.gates[g].name for g in c.key_inputs}
    i = len(used)
    while f"{KEY_INPUT_PREFIX}{i}" in used:
        i += 1
    return f"{KEY_INPUT_PREFIX}{i}"


def insert_keygate(c: Circuit, gate_id: int, kind: str) -> Circuit:
    """Splice an XOR/XNOR key-gate after ``gate_id``.

    The key-gate takes over the locked gate's name and id; the original
    gate is appended under ``<name>$in`` and a fresh key input under
    ``keyinput<i>``.  The gate is transparent under key bit 0 for XOR
    and 1 for XNOR.
    """
    if not 0 <= gate_id < c.n:
        raise ValueError(f"gate id {gate_id} does not exist")
    target = c.gates[gate_id]
    if target.type is GateType.INPUT:
        raise ValueError(f"cannot insert a key-gate after input {target.name!r}")
    if kind == "xor":
        gtype = GateType.XOR
    elif kind == "xnor":
        gtype = GateType.XNOR
    else:
        raise ValueError(f"key-gate kind must be 'xor' or 'xnor', got {kind!r}")

    inner_id, key_id = c.n, c.n + 1
    gates = list(c.gates)
    gates[gate_id] = Gate(gate_id, target.name, gtype, (inner_id, key_id))
    gates.append(Gate(inner_id, f"{target.name}$in", target.type, target.fanin, target.lut_bits))
    gates.append(Gate(key_id, _fresh_key_name(c), GateType.INPUT))
    return Circuit(tuple(gates), c.primary_inputs, c.primary_outputs,
                   c.key_inputs + (key_id,))


def _padding_nets(c: Circuit, gate_id: int, exclude: set, count: int) -> list:
    """Nearest topological predecessors of gate_id, then any earlier nets."""
    pos = {g: i for i, g in enumerate(c.topo_order)}
    before = [g for g in c.topo_order[: pos[gate_id]]
              if g not in exclude and g not in c.key_inputs]
    before.sort(key=lambda g: -pos[g])  # nearest first; PIs end up last
    if len(before) < count:
        raise ValueError(f"not enough nets to pad LUT at gate {c.gates[gate_id].name!r}: "
                         f"need {count}, found {len(before)}")
    return before[:count]


def replace_with_lut(c: Circuit, gate_id: int, arity_k: int) -> tuple[Circuit, tuple[int, ...]]:
    """Replace a logic gate with a k-input LUT; returns (circuit, table).

    The LUT's fanins are the gate's own fanins followed by padding nets
    (nearest topological predecessors).  The returned 2^k table reproduces
    the original function and ignores the padding bits, so equivalence
    holds for every padding value.
    """
    if not 0 <= gate_id < c.n:
        raise ValueError(f"gate id {gate_id} does not exist")
    target = c.gates[gate_id]
    if target.type is GateType.INPUT:
        raise ValueError(f"cannot LUT-replace input {target.name!r}")
    if target.type is GateType.LUT:
        raise ValueError(f"gate {target.name!r} is already a LUT")
    if not 1 <= arity_k <= LUT_MAX_ARITY:
        raise ValueError(f"LUT arity must be in [1, {LUT_MAX_ARITY}], got {arity_k}")
    m = len(target.fanin)
    if m > arity_k:
        raise ValueError(f"gate {target.name!r} has fanin {m} > LUT arity {arity_k}")

    pads = _padding_nets(c, gate_id, set(target.fanin) | {gate_id}, arity_k - m)
    fanin = target.fanin + tuple(pads)
    # truth table of the gate alone over its own fanins (MSB-first), each
    # row repeated across the padding bits, which are the low index bits
    ins = [Gate(i, f"{target.name}$f{i}", GateType.INPUT) for i in range(m)]
    alone = Circuit(tuple(ins) + (Gate(m, target.name, target.type, tuple(range(m))),),
                    tuple(range(m)), (m,))
    own = simulate_many(alone, all_input_vectors(m))[:, 0]
    table = tuple(int(b) for b in np.repeat(own, 2 ** (arity_k - m)))

    gates = list(c.gates)
    gates[gate_id] = Gate(gate_id, target.name, GateType.LUT, fanin, table)
    return Circuit(tuple(gates), c.primary_inputs, c.primary_outputs, c.key_inputs), table


def eligible_gates(c: Circuit, kind: ObfuscationKind) -> tuple[int, ...]:
    """Gate ids that may be locked with ``kind`` (no inputs, no nesting)."""
    out = []
    for g in c.gates:
        if g.type in (GateType.INPUT, GateType.LUT):
            continue
        if kind.scheme == "lut" and len(g.fanin) > kind.lut_k:
            continue
        out.append(g.id)
    return tuple(out)


def apply_at_locations(base: Circuit, kind: ObfuscationKind,
                       locations, seed=None) -> ObfuscationInstance:
    """Lock ``base`` at the given gate ids (in order); deterministic."""
    locations = tuple(int(g) for g in locations)
    seen = set()
    for g in locations:
        if g in seen:
            raise ValueError(f"duplicate obfuscation location {g}")
        seen.add(g)
    elig = set(eligible_gates(base, kind))
    for g in locations:
        if g not in elig:
            name = base.gates[g].name if 0 <= g < base.n else g
            raise ValueError(f"gate {name!r} is not eligible for {kind}")

    cur = base
    key_truth: list[int] = []
    if kind.scheme in ("xor", "xnor"):
        bit = 0 if kind.scheme == "xor" else 1
        for g in locations:
            cur = insert_keygate(cur, g, kind.scheme)
            key_truth.append(bit)
    else:
        for g in locations:
            cur, table = replace_with_lut(cur, g, kind.lut_k)
            key_truth.extend(table)
        # key layout orders LUT blocks by ascending gate id; match it
        order = sorted(range(len(locations)), key=lambda i: locations[i])
        blocks = [key_truth[i * 2 ** kind.lut_k:(i + 1) * 2 ** kind.lut_k]
                  for i in range(len(locations))]
        key_truth = [b for i in order for b in blocks[i]]

    mask = [0] * cur.n
    for g in locations:
        mask[g] = 1
    return ObfuscationInstance(base, cur, kind, locations, tuple(key_truth),
                               tuple(mask), seed)


def random_obfuscate(base: Circuit, n_locations: int, kind: ObfuscationKind,
                     seed: int) -> ObfuscationInstance:
    """Pick ``n_locations`` distinct eligible gates uniformly and lock them.

    Locations are applied in ascending gate-id order so the global key
    vector order is independent of the draw order.
    """
    elig = eligible_gates(base, kind)
    if not 1 <= n_locations <= len(elig):
        raise ValueError(f"n_locations must be in [1, {len(elig)}], got {n_locations}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(elig), size=n_locations, replace=False)
    locations = tuple(sorted(elig[i] for i in picks))
    return apply_at_locations(base, kind, locations, seed)


def instance_to_json(inst: ObfuscationInstance, base_file: str) -> dict:
    widths = [kw for _, kw in inst.obfuscated.key_layout()]
    if sum(widths) != len(inst.key_truth):
        raise ValueError(f"key layout has {sum(widths)} bits but key_truth has "
                         f"{len(inst.key_truth)}")
    return {
        "base_file": base_file,
        "seed": inst.seed,
        "kind": str(inst.kind),
        "locations": list(inst.location_names),
        "key_truth": "".join(str(b) for b in inst.key_truth),
        "mask": "".join(str(b) for b in inst.mask),
    }


def instance_from_json(doc: dict, base: Circuit) -> ObfuscationInstance:
    kind = ObfuscationKind.parse(doc["kind"])
    locations = [base.name_to_id[name] for name in doc["locations"]]
    inst = apply_at_locations(base, kind, locations, doc.get("seed"))
    if "".join(str(b) for b in inst.key_truth) != doc["key_truth"]:
        raise ValueError("replayed key_truth does not match serialized instance")
    if "".join(str(b) for b in inst.mask) != doc["mask"]:
        raise ValueError("replayed mask does not match serialized instance")
    return inst
