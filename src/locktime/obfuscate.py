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

:func:`apply_at_locations` is the one locking path: it splices every
location into one gate list and builds one :class:`Circuit` per
instance.  A LUT wider than its gate's fanin is padded from the
topological order of the circuit as locked so far; its truth table comes
from the simulator's gate step, :func:`netlist.gate_word`, with no
circuit of its own.  Generated names (``keyinput<i>``, ``<name>$in``) count up past
any net already present.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice

import numpy as np

from .netlist import (KEY_INPUT_PREFIX, TEXT, Circuit, Gate, GateType, check_json,
                      exhaustive_words, gate_word, topo_order)

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


def _first_free(taken: set, names) -> str:
    """The first of ``names`` not in ``taken``; it is added to ``taken``."""
    name = next(s for s in names if s not in taken)
    taken.add(name)
    return name


def _padding_nets(gates, order, gate_id: int, need: int) -> list:
    """Nearest predecessors of gate_id in ``order``, then any earlier nets."""
    if not need:
        return []
    fanin = set(gates[gate_id].fanin)
    before = order[:order.index(gate_id)]
    pads = list(islice((g for g in reversed(before) if g not in fanin), need))
    if len(pads) < need:
        raise ValueError(f"not enough nets to pad LUT at gate {gates[gate_id].name!r}: "
                         f"need {need}, found {len(pads)}")
    return pads


def _lut_table(target: Gate, arity_k: int) -> tuple[int, ...]:
    """Truth table of ``target`` alone over its own fanins (MSB-first), each
    row repeated across the padding bits, which are the low index bits."""
    m = len(target.fanin)
    own = gate_word(target.type, exhaustive_words(m), None, (1 << 2 ** m) - 1)
    return tuple(own >> r & 1 for r in range(2 ** m) for _ in range(2 ** (arity_k - m)))


# looked up once: reading a member off an Enum class costs more than the test
_UNLOCKABLE = (GateType.INPUT, GateType.LUT)


def _eligible(g: Gate, kind: ObfuscationKind) -> bool:
    """No inputs, no nesting, and a LUT at least as wide as the gate's fanin."""
    return (g.type not in _UNLOCKABLE
            and not (kind.scheme == "lut" and len(g.fanin) > kind.lut_k))


def eligible_gates(c: Circuit, kind: ObfuscationKind) -> tuple[int, ...]:
    """Gate ids that may be locked with ``kind`` (no inputs, no nesting)."""
    return tuple(g.id for g in c.gates if _eligible(g, kind))


def require_unlocked(base: Circuit) -> None:
    """Refuse a circuit with key bits as a base to lock: a locked circuit
    is no key-free oracle."""
    if base.key_bits:
        raise ValueError(f"cannot lock a circuit that already has {base.key_bits} key bits: "
                         f"a locked circuit is no key-free oracle")


def apply_at_locations(base: Circuit, kind: ObfuscationKind,
                       locations, seed=None) -> ObfuscationInstance:
    """Lock the unlocked circuit ``base`` at the given gate ids (in order);
    deterministic.  A base with key bits is refused: a locked circuit is no
    key-free oracle for the attack.

    Every location is spliced into one copy of the gate list and one
    circuit is built at the end, so validation and the topological sort
    run once per instance.  A LUT's padding nets follow the Kahn order of
    the circuit as locked so far, since earlier padding edges can move
    later gates; the first LUT reads the base's order and each later one
    that needs padding recomputes it with :func:`netlist.topo_order`.  A
    LUT as wide as its gate's fanin takes no padding and sorts nothing.
    Generated names never collide with an existing net: a key input is
    ``keyinput<i>`` with i counting up from 0, and the gate a key-gate
    displaces is ``<name>$in``, else ``<name>$in1``, ``<name>$in2``, ...
    ``key_truth`` follows ``obfuscated.key_slices``.
    """
    require_unlocked(base)
    locations = tuple(int(g) for g in locations)
    seen = set()
    for g in locations:
        if g in seen:
            raise ValueError(f"duplicate obfuscation location {g}")
        seen.add(g)
    for g in locations:
        if not (0 <= g < base.n and _eligible(base.gates[g], kind)):
            name = base.gates[g].name if 0 <= g < base.n else g
            raise ValueError(f"gate {name!r} is not eligible for {kind}")

    gates = list(base.gates)
    keys = []
    truth = {}  # key slot -> its correct bits
    if kind.scheme == "lut":
        for i, g in enumerate(locations):
            target = gates[g]
            need = kind.lut_k - len(target.fanin)
            order = (topo_order(gates) if i else base.topo_order) if need else ()
            pads = _padding_nets(gates, order, g, need)
            truth[g] = _lut_table(target, kind.lut_k)
            gates[g] = Gate(g, target.name, GateType.LUT, target.fanin + tuple(pads), truth[g])
    else:
        gtype = GateType.XOR if kind.scheme == "xor" else GateType.XNOR
        bit = (0,) if kind.scheme == "xor" else (1,)
        taken = set(base.name_to_id)
        for g in locations:
            target = gates[g]
            inner_id, key_id = len(gates), len(gates) + 1
            stem = f"{target.name}$in"
            inner = _first_free(taken, chain([stem], (f"{stem}{i}" for i in count(1))))
            key = _first_free(taken, (f"{KEY_INPUT_PREFIX}{i}" for i in count(len(keys))))
            gates[g] = Gate(g, target.name, gtype, (inner_id, key_id))
            gates.append(Gate(inner_id, inner, target.type, target.fanin, target.lut_bits))
            gates.append(Gate(key_id, key, GateType.INPUT))
            keys.append(key_id)
            truth[key_id] = bit

    obfuscated = Circuit(tuple(gates), base.primary_inputs, base.primary_outputs, tuple(keys))
    key_truth = tuple(b for gid in obfuscated.key_slices for b in truth[gid])
    mask = [0] * obfuscated.n
    for g in locations:
        mask[g] = 1
    return ObfuscationInstance(base, obfuscated, kind, locations, key_truth,
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


def kind_name(value) -> str:
    """A declaration leaf: the name of a kind, as :meth:`ObfuscationKind.parse` reads it."""
    ObfuscationKind.parse(check_json(value, TEXT, ""))
    return value


# an instance file, and a dataset record's "obfuscation", as instance_to_json writes it
INSTANCE = {"base_file": TEXT, "kind": kind_name, "locations": [TEXT], "key_truth": TEXT,
            "mask": TEXT, "seed": ("null or an integer >= 0",
                                   lambda v: v is None or type(v) is int and v >= 0)}


def instance_to_json(inst: ObfuscationInstance, base_file: str) -> dict:
    if inst.obfuscated.key_bits != len(inst.key_truth):
        raise ValueError(f"key layout has {inst.obfuscated.key_bits} bits but key_truth has "
                         f"{len(inst.key_truth)}")
    return {
        "base_file": base_file,
        "seed": inst.seed,
        "kind": str(inst.kind),
        "locations": list(inst.location_names),
        "key_truth": "".join(str(b) for b in inst.key_truth),
        "mask": "".join(str(b) for b in inst.mask),
    }


def instance_from_json(doc, base: Circuit) -> ObfuscationInstance:
    """Replay a serialized instance on ``base``.  A document that breaks
    :data:`INSTANCE`, a location that is not a net of ``base`` or a replay
    that differs from the document raises ``ValueError``."""
    doc = check_json(doc, INSTANCE, "")
    unknown = [n for n in doc["locations"] if n not in base.name_to_id]
    if unknown:
        raise ValueError(f"locations: {unknown[0]!r:.40} is not a net of the base circuit")
    locations = [base.name_to_id[name] for name in doc["locations"]]
    inst = apply_at_locations(base, ObfuscationKind.parse(doc["kind"]), locations, doc["seed"])
    for key, bits in (("key_truth", inst.key_truth), ("mask", inst.mask)):
        if "".join(map(str, bits)) != doc[key]:
            raise ValueError(f"{key}: the replay does not match the serialized instance")
    return inst
