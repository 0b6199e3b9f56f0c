import dataclasses
import hashlib
import json
import random
import re

import numpy as np
import pytest

from locktime import netlist, obfuscate
from locktime.netlist import (Circuit, CircuitError, Gate, GateType, emit_bench, parse_bench,
                              topo_order)
from locktime.obfuscate import (
    ObfuscationKind,
    _lut_table,
    apply_at_locations,
    eligible_gates,
    instance_from_json,
    instance_to_json,
    random_obfuscate,
)
from oracles import (all_input_vectors, layered_dag, random_circuit, reference_lut_table,
                     sequential_lock, simulate_many)

XOR = ObfuscationKind("xor")
XNOR = ObfuscationKind("xnor")


def equivalent(base, locked, key):
    vecs = all_input_vectors(len(base.primary_inputs))
    return np.array_equal(simulate_many(base, vecs), simulate_many(locked, vecs, key))


def test_kind_parse_roundtrip():
    for text in ("xor", "xnor", "lut1", "lut4"):
        assert str(ObfuscationKind.parse(text)) == text
    with pytest.raises(ValueError):
        ObfuscationKind.parse("lut5")
    with pytest.raises(ValueError):
        ObfuscationKind.parse("mux")
    with pytest.raises(ValueError):
        ObfuscationKind("xor", 2)


def test_xor_keygate_transparent(c17):
    gid = c17.name_to_id["11"]
    locked = apply_at_locations(c17, XOR, (gid,)).obfuscated
    assert len(locked.key_inputs) == 1
    assert locked.gates[gid].type is GateType.XOR
    assert locked.gates[gid].name == "11"  # key-gate takes over the net name
    assert equivalent(c17, locked, [0])


def test_xnor_keygate_transparent(c17):
    locked = apply_at_locations(c17, XNOR, (c17.name_to_id["22"],)).obfuscated
    assert equivalent(c17, locked, [1])


def test_wrong_key_flips_some_output(c17):
    for name in ("10", "11", "16", "19", "22", "23"):
        locked = apply_at_locations(c17, XOR, (c17.name_to_id[name],)).obfuscated
        assert not equivalent(c17, locked, [1]), f"wrong key undetected at {name}"


def test_keygate_rejects_inputs_and_bad_ids(c17):
    with pytest.raises(ValueError):
        apply_at_locations(c17, XOR, (c17.primary_inputs[0],))
    with pytest.raises(ValueError):
        apply_at_locations(c17, XOR, (999,))


def test_keygate_on_primary_output(c17):
    gid = c17.name_to_id["23"]
    locked = apply_at_locations(c17, XOR, (gid,)).obfuscated
    assert locked.primary_outputs == c17.primary_outputs  # same ids still valid
    assert equivalent(c17, locked, [0])


def test_lut_truth_tables():
    c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
    table = apply_at_locations(c, ObfuscationKind("lut", 2), (c.name_to_id["z"],)).key_truth
    assert table == (0, 0, 0, 1)
    c = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    table = apply_at_locations(c, ObfuscationKind("lut", 1), (c.name_to_id["z"],)).key_truth
    assert table == (1, 0)


def test_lut_padding_preserves_function(c17):
    # 2-input NAND inflated to a 4-input LUT: padding bits are don't-cares
    gid = c17.name_to_id["16"]
    inst = apply_at_locations(c17, ObfuscationKind("lut", 4), (gid,))
    locked, table = inst.obfuscated, inst.key_truth
    assert len(table) == 16
    assert len(locked.gates[gid].fanin) == 4
    assert locked.gates[gid].fanin[:2] == c17.gates[gid].fanin
    assert equivalent(c17, locked, table)


def test_lut_padding_nearest_predecessors():
    c = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
        "m = AND(a, b)\nn = OR(m, a)\nz = NOT(n)\n")
    locked = apply_at_locations(c, ObfuscationKind("lut", 3), (c.name_to_id["z"],)).obfuscated
    pads = [c.gates[f].name for f in locked.gates[c.name_to_id["z"]].fanin[1:]]
    assert pads == ["m", "a"] or pads == ["m", "b"]  # m is the nearest non-fanin net


def test_lut_errors(c17):
    gid, lut2 = c17.name_to_id["16"], ObfuscationKind("lut", 2)
    with pytest.raises(ValueError):
        apply_at_locations(c17, ObfuscationKind("lut", 1), (gid,))  # fanin 2 > arity 1
    with pytest.raises(ValueError):
        apply_at_locations(c17, lut2, (c17.primary_inputs[0],))
    with pytest.raises(ValueError):
        apply_at_locations(c17, ObfuscationKind("lut", 5), (gid,))
    locked = apply_at_locations(c17, lut2, (gid,)).obfuscated
    with pytest.raises(ValueError):
        apply_at_locations(locked, lut2, (gid,))  # no nesting


def test_eligible_gates(c17):
    assert set(eligible_gates(c17, XOR)) == {c17.name_to_id[n]
                                             for n in ("10", "11", "16", "19", "22", "23")}
    gid, lut2 = c17.name_to_id["16"], ObfuscationKind("lut", 2)
    locked = apply_at_locations(c17, lut2, (gid,)).obfuscated
    assert gid not in eligible_gates(locked, lut2)


def test_random_obfuscate_bounds(c17):
    with pytest.raises(ValueError):
        random_obfuscate(c17, 0, XOR, seed=1)
    with pytest.raises(ValueError):
        random_obfuscate(c17, 7, XOR, seed=1)
    inst = random_obfuscate(c17, 6, XOR, seed=1)  # every eligible gate
    assert len(inst.locations) == 6
    assert equivalent(c17, inst.obfuscated, inst.key_truth)


def test_random_obfuscate_deterministic(c17):
    a = random_obfuscate(c17, 3, ObfuscationKind("lut", 2), seed=42)
    b = random_obfuscate(c17, 3, ObfuscationKind("lut", 2), seed=42)
    assert a.locations == b.locations
    assert a.key_truth == b.key_truth
    assert a.mask == b.mask
    c = random_obfuscate(c17, 3, ObfuscationKind("lut", 2), seed=43)
    assert (a.locations, a.key_truth) != (c.locations, c.key_truth)


def test_instance_invariants(c17, mid12):
    rng_cases = [
        (c17, 2, XOR, 11), (c17, 3, XNOR, 5), (c17, 2, ObfuscationKind("lut", 2), 7),
        (mid12, 4, XOR, 3), (mid12, 3, ObfuscationKind("lut", 2), 9),
    ]
    for base, n, kind, seed in rng_cases:
        inst = random_obfuscate(base, n, kind, seed)
        assert len(inst.mask) == inst.obfuscated.n
        assert sum(inst.mask) == len(inst.locations) == n
        assert all(inst.mask[g] == 1 for g in inst.locations)
        assert len(inst.key_truth) == inst.obfuscated.key_bits
        assert equivalent(base, inst.obfuscated, inst.key_truth)


def test_keygate_key_bit_flips_nondegenerate(c17):
    # flipping any single key bit must disturb at least one output
    degenerate = 0
    total = 0
    for seed in range(20):
        inst = random_obfuscate(c17, 2, XOR if seed % 2 else XNOR, seed)
        for i in range(len(inst.key_truth)):
            key = list(inst.key_truth)
            key[i] ^= 1
            total += 1
            if equivalent(c17, inst.obfuscated, key):
                degenerate += 1
    assert degenerate / total <= 0.05


def test_serialization_roundtrip(c17):
    for kind in (XOR, XNOR, ObfuscationKind("lut", 2)):
        inst = random_obfuscate(c17, 2, kind, seed=5)
        doc = instance_to_json(inst, "c17.bench")
        back = instance_from_json(doc, c17)
        assert back.locations == inst.locations
        assert back.key_truth == inst.key_truth
        assert back.mask == inst.mask
        assert instance_to_json(back, "c17.bench") == doc


def test_serialization_rejects_key_width_mismatch(c17):
    inst = random_obfuscate(c17, 2, XOR, seed=5)
    short = dataclasses.replace(inst, key_truth=inst.key_truth[:-1])
    with pytest.raises(ValueError, match="key layout has 2 bits but key_truth has 1"):
        instance_to_json(short, "c17.bench")


def test_apply_at_locations_rejects_duplicates(c17):
    gid = c17.name_to_id["16"]
    with pytest.raises(ValueError):
        apply_at_locations(c17, XOR, [gid, gid])
    with pytest.raises(ValueError):
        apply_at_locations(c17, XOR, [c17.primary_inputs[0]])


@pytest.mark.parametrize("kind", ["xor", "lut2"])
def test_a_locked_circuit_is_not_locked_again(c17, kind):
    # a locked circuit is no key-free oracle for the attack
    for locked in (random_obfuscate(c17, 2, XNOR, seed=3).obfuscated,
                   random_obfuscate(c17, 1, ObfuscationKind("lut", 2), seed=3).obfuscated):
        bits = locked.key_bits
        with pytest.raises(ValueError, match=f"^cannot lock a circuit that already has "
                                             f"{bits} key bits: "):
            random_obfuscate(locked, 1, ObfuscationKind.parse(kind), seed=0)


def test_multi_keygate_layout(c17):
    # two key-gates: keyinput order must follow location order
    ids = sorted([c17.name_to_id["10"], c17.name_to_id["23"]])
    inst = apply_at_locations(c17, XOR, ids)
    obf = inst.obfuscated
    assert [obf.gates[k].name for k in obf.key_inputs] == ["keyinput0", "keyinput1"]
    assert obf.key_bits == 2
    assert equivalent(c17, obf, inst.key_truth)


# --- one pass over every location ---

KINDS = ("xor", "xnor", "lut1", "lut2", "lut3", "lut4")


def test_one_pass_locking_equals_the_sequential_chain(c17, mid12):
    rng = random.Random(14)
    bases = [c17, mid12, layered_dag(200)]
    bases += [random_circuit(rng, n_gates=rng.randint(2, 12)) for _ in range(40)]
    compared = failed = 0
    for base in bases:
        for text in KINDS:
            kind = ObfuscationKind.parse(text)
            elig = eligible_gates(base, kind)
            for _ in range(3 if elig else 0):
                # unsorted, as instance_from_json replays serialized order
                locs = rng.sample(elig, rng.randint(1, min(len(elig), 8)))
                try:
                    ref, ref_truth, ref_mask = sequential_lock(base, text, locs)
                except ValueError as exc:  # too few nets to pad a LUT
                    with pytest.raises(ValueError, match=f"^{exc}$"):
                        apply_at_locations(base, kind, locs)
                    failed += 1
                    continue
                inst = apply_at_locations(base, kind, locs)
                obf = inst.obfuscated
                assert obf.gates == ref.gates
                assert obf.key_inputs == ref.key_inputs
                assert obf.topo_order == ref.topo_order
                assert (inst.key_truth, inst.mask) == (ref_truth, ref_mask)
                compared += 1
    assert compared > 400 and failed > 0


def test_topo_order_cycle_error_matches_circuit():
    gates = (Gate(0, "a", GateType.INPUT), Gate(1, "x", GateType.AND, (0, 2)),
             Gate(2, "y", GateType.OR, (0, 1)), Gate(3, "z", GateType.NOT, (2,)))
    with pytest.raises(CircuitError) as from_circuit:
        Circuit(gates, (0,), (3,))
    with pytest.raises(CircuitError) as from_function:
        topo_order(gates)
    assert str(from_function.value) == str(from_circuit.value) == \
        "circuit contains a cycle through: x, y, z"


@pytest.mark.parametrize("text, kind, names", [
    # a net named like the next key input is skipped over
    ("INPUT(a)\nINPUT(b)\nOUTPUT(keyinput0)\nkeyinput0 = AND(a, b)\n",
     "xor", ["keyinput0$in", "keyinput1"]),
    # so is a net named like the displaced gate, and its numbered successor
    ("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz$in = OR(a, b)\nz$in1 = NOT(a)\n"
     "z = NAND(z$in, z$in1, b)\n", "xnor", ["z$in2", "keyinput0"]),
])
def test_generated_names_skip_existing_nets(text, kind, names):
    base = parse_bench(text)
    inst = random_obfuscate(base, 1, ObfuscationKind.parse(kind), seed=0)
    obf = inst.obfuscated
    assert inst.location_names == (names[0].split("$")[0],)
    assert [g.name for g in obf.gates[base.n:]] == names
    assert obf.key_inputs == (base.n + 1,)
    assert equivalent(base, obf, inst.key_truth)
    back = instance_from_json(instance_to_json(inst, "base.bench"), base)
    assert back.obfuscated.gates == obf.gates
    assert back.obfuscated.key_inputs == obf.key_inputs


def test_generated_key_names_count_up_past_every_used_name():
    base = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(keyinput1)\nOUTPUT(y)\n"
                       "keyinput1 = AND(a, b)\ny = OR(a, keyinput1)\n")
    inst = apply_at_locations(base, XOR, [3, 2])
    obf = inst.obfuscated
    assert [obf.gates[k].name for k in obf.key_inputs] == ["keyinput0", "keyinput2"]
    assert equivalent(base, obf, inst.key_truth)


# sha256 of emit_bench(obfuscated) + instance_to_json text, recorded with
# the one-circuit-per-location locker this one replaced
LOCKING_PINS = {
    ("mid12", "xor", 8, 0): "c5fada64596b7e6bae59fee5d76b97760ea56d9347a145dba480bbf39e21fbe0",
    ("mid12", "lut2", 4, 4): "541c21b1b4acf9f68de0ea2e36ec21e7e8946f0327d601e9045b8bdd86b264d7",
    ("mid12", "lut3", 2, 5): "5fa57bb8ae5871aa380939e9afdb8eba4c6905e432ee7822ce54cdd0a2b07fdd",
    ("dag600", "xor", 8, 0): "2df87d7d6499e29a04ec742c271441f6c5284cc1c278cf305ee63dd1175ba554",
}


def test_locking_output_is_pinned(mid12):
    bases = {"mid12": mid12, "dag600": layered_dag(600)}
    for (name, kind, m, seed), pin in LOCKING_PINS.items():
        inst = random_obfuscate(bases[name], m, ObfuscationKind.parse(kind), seed)
        text = emit_bench(inst.obfuscated) + json.dumps(instance_to_json(inst, name),
                                                        sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (name, kind, m, seed)


@pytest.mark.parametrize("kind", ["xor", "lut2"])
def test_one_circuit_build_per_instance(monkeypatch, mid12, kind):
    # every Circuit built counts: a LUT's truth table needs no circuit of its own
    builds = []
    validate = Circuit._validate

    def counting(self):
        builds.append(len(self.gates))
        validate(self)

    monkeypatch.setattr(Circuit, "_validate", counting)
    for m in (1, 4, 8):
        builds.clear()
        random_obfuscate(mid12, m, ObfuscationKind.parse(kind), seed=m)
        assert len(builds) == 1


def test_lut_tables_equal_the_throwaway_circuit_tables():
    arities = {GateType.NOT: (1,), GateType.BUFF: (1,)}
    compared = 0
    for gtype in GateType:
        if gtype in (GateType.INPUT, GateType.LUT):
            continue
        for m in arities.get(gtype, (2, 3)):
            target = Gate(m, "t", gtype, tuple(range(m)))
            for k in range(m, min(3, m + 2) + 1):  # arities 1-3, 0-2 padding bits
                assert _lut_table(target, k) == reference_lut_table(target, k), (gtype, m, k)
                compared += 1
    assert compared == 2 * 3 + 6 * (2 + 1)


@pytest.mark.parametrize("kind", ["lut2", "lut3", "lut4"])
def test_later_luts_resort_only_to_pad(monkeypatch, mid12, kind):
    sorts = []

    def counting(gates):
        sorts.append(len(gates))
        return topo_order(gates)

    monkeypatch.setattr(netlist, "topo_order", counting)
    monkeypatch.setattr(obfuscate, "topo_order", counting)
    lut = ObfuscationKind.parse(kind)
    rng = random.Random(20)
    padded_later = 0
    for _ in range(12):
        locs = rng.sample(eligible_gates(mid12, lut), rng.randint(1, 6))
        sorts.clear()
        apply_at_locations(mid12, lut, locs)
        later = sum(len(mid12.gates[g].fanin) < lut.lut_k for g in locs[1:])
        assert len(sorts) == 1 + later, locs
        padded_later += later
    assert padded_later > 0 or kind == "lut2"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "expected a JSON object, got [{'base_file': 'c17.bench', 'seed': 5, '"),
    (lambda doc: {**doc, "kind": 2}, "kind: expected a string, got 2"),
    (lambda doc: {**doc, "locations": "16"}, "locations: expected a JSON list, got '16'"),
    (lambda doc: {**doc, "locations": [["16"]]}, "locations[0]: expected a string, got ['16']"),
    (lambda doc: {**doc, "seed": "5"}, "seed: expected null or an integer >= 0, got '5'"),
    (lambda doc: {**doc, "mask": doc["mask"][::-1]},
     "mask: the replay does not match the serialized instance"),
], ids=[  # each case keeps the name it had when the messages read differently
    "<lambda>-obfuscation record must be a JSON object",
    "<lambda>-obfuscation record needs 'kind' as a string, got 2",
    "<lambda>-needs 'locations' as a list, got '16'",
    "<lambda>-location ['16'] is not a net of the base",
    "<lambda>-has seed '5'; expected an integer or null",
    "<lambda>-replayed mask does not match",
])
def test_instance_from_json_refuses_malformed_documents(c17, edit, message):
    doc = instance_to_json(random_obfuscate(c17, 2, XOR, seed=5), "c17.bench")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        instance_from_json(edit(doc), c17)
