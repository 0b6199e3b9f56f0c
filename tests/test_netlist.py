import random

import numpy as np
import pytest

from locktime.netlist import (
    BenchParseError,
    Circuit,
    CircuitError,
    Gate,
    GateType,
    emit_bench,
    exhaustive_words,
    graph_matrix,
    key_cone,
    parse_bench,
    read_bench,
    simulate,
)
from locktime.obfuscate import ObfuscationKind, eligible_gates, random_obfuscate
from oracles import (all_input_vectors, dense_graph_matrix, densify, event_driven_simulate,
                     fanout_closure, key_layout_reference, layered_dag, random_circuit,
                     simulate_many, word_rows)


def test_c17_structure(c17):
    assert len(c17.primary_inputs) == 5
    assert len(c17.primary_outputs) == 2
    nands = [g for g in c17.gates if g.type is GateType.NAND]
    assert len(nands) == 6
    assert all(g.type in (GateType.INPUT, GateType.NAND) for g in c17.gates)
    assert c17.key_inputs == ()


def test_c17_all_ones(c17):
    assert simulate(c17, [1, 1, 1, 1, 1]) == (1, 0)


def test_c17_matches_oracle_exhaustively(c17):
    vecs = all_input_vectors(5)
    batch = simulate_many(c17, vecs)
    for row, expect in zip(vecs, batch):
        assert event_driven_simulate(c17, row) == tuple(expect)


def test_mid12_structure(mid12):
    assert len(mid12.primary_inputs) == 12
    assert all(len(g.fanin) <= 2 for g in mid12.gates)
    types = {g.type for g in mid12.gates}
    assert GateType.XOR in types and GateType.NAND in types and GateType.NOR in types


def test_mid12_adder_slice(mid12):
    # a=13, b=5 -> s=18; input order is a0..a5 then b0..b5 (LSB first)
    a, b = 13, 5
    bits = [(a >> i) & 1 for i in range(6)] + [(b >> i) & 1 for i in range(6)]
    names = [mid12.gates[g].name for g in mid12.primary_outputs]
    res = dict(zip(names, simulate(mid12, bits)))
    got = sum(res[f"s{i}"] << i for i in range(6)) + (res["c6"] << 6)
    assert got == 18
    assert res["eqall"] == 0 and res["gt5"] == 1


def test_simulate_matches_oracle_on_random_circuits():
    rng = random.Random(7)
    for _ in range(60):
        c = random_circuit(rng)
        vecs = all_input_vectors(len(c.primary_inputs))
        batch = simulate_many(c, vecs)
        for row, expect in zip(vecs, batch):
            assert event_driven_simulate(c, row) == tuple(expect)


# every REDUCTION type, LUT1-LUT4 and two key inputs; the tables come from the key
EVERY_GATE = parse_bench("""
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(keyinput0)
INPUT(keyinput1)
g_and = AND(a, b, c)
g_nand = NAND(a, d)
g_or = OR(b, c, d)
g_nor = NOR(a, c)
g_xor = XOR(a, b, c, d)
g_xnor = XNOR(b, d)
g_not = NOT(c)
g_buff = BUFF(d)
k0 = XOR(g_and, keyinput0)
k1 = XNOR(g_or, keyinput1)
l1 = LUT[10](g_nor)
l2 = LUT[0110](g_xor, k0)
l3 = LUT[00010111](a, k1, g_not)
l4 = LUT[0110100110010110](g_nand, g_xnor, g_buff, l2)
""" + "".join(f"OUTPUT({name})\n" for name in (
    "g_and g_nand g_or g_nor g_xor g_xnor g_not g_buff k0 k1 l1 l2 l3 l4".split())))


@pytest.mark.parametrize("batch", [0, 1, 7, 8, 9, 63, 64, 65, 1000])
def test_word_simulator_matches_the_oracle_at_word_boundaries(batch):
    c = EVERY_GATE
    assert c.key_bits == 2 + 2 + 4 + 8 + 16
    rng = np.random.default_rng(batch)
    vecs = rng.integers(0, 2, (batch, 4), dtype=np.uint8)
    for key in rng.integers(0, 2, (4, c.key_bits), dtype=np.uint8):
        out = simulate_many(c, vecs, key)
        assert out.shape == (batch, 14) and out.dtype == np.uint8
        for row, got in zip(vecs, out):
            expect = event_driven_simulate(c, row, key)
            assert tuple(got) == expect
            assert simulate(c, row, key) == expect


def test_exhaustive_words_are_the_msb_first_vectors():
    for n in range(9):
        np.testing.assert_array_equal(word_rows(exhaustive_words(n), 1 << n),
                                      all_input_vectors(n))


def test_key_cone_is_the_fanout_of_the_key_slots(c17, mid12):
    # the key inputs, the LUTs and everything they reach; every net outside
    # takes the same value under every key
    rng = random.Random(47)
    bases = [c17, mid12, layered_dag(300)]
    bases += [random_circuit(rng, rng.randint(3, 5), rng.randint(6, 12)) for _ in range(30)]
    checked = 0
    for i, base in enumerate(bases):
        for kind in map(ObfuscationKind.parse, ("xor", "xnor", "lut1", "lut2", "lut3")):
            eligible = len(eligible_gates(base, kind))
            if not eligible:
                continue
            c = random_obfuscate(base, min(4, eligible), kind, seed=i).obfuscated
            cone = key_cone(c)
            assert cone == fanout_closure(c, [gid for gid, _ in key_layout_reference(c)])
            probe = Circuit(c.gates, c.primary_inputs, tuple(range(c.n)), c.key_inputs)
            vecs = np.random.default_rng(i).integers(0, 2, (64, len(c.primary_inputs)))
            keys = np.random.default_rng(i).integers(0, 2, (4, c.key_bits))
            values = np.stack([simulate_many(probe, vecs, key) for key in keys])
            outside = [gid for gid in range(c.n) if gid not in cone]
            assert (values[:, :, outside] == values[:1, :, outside]).all()
            checked += 1
    assert checked > 100
    assert key_cone(c17) == set()


def _assert_derived_tables(c):
    ref = key_layout_reference(c)
    starts = [sum(w for _, w in ref[:i]) for i in range(len(ref))]
    assert list(c.key_slices.items()) == [(gid, slice(s, s + w))
                                          for (gid, w), s in zip(ref, starts)]
    assert c.key_bits == sum(w for _, w in ref)
    inputs = set(c.primary_inputs) | set(c.key_inputs)
    assert c.logic_gates == tuple(gid for gid in c.topo_order if gid not in inputs)


# LUTs of widths 1-4 whose ids run against their topological order
LUT_BENCH = """INPUT(a)
INPUT(keyinput0)
INPUT(b)
INPUT(c)
INPUT(keyinput1)
OUTPUT(z)
z = LUT[0110100110010110](y, a, b, keyinput1)
y = LUT[01](x)
x = XOR(w, keyinput0)
w = LUT[10010110](a, b, c)
v = LUT[0111](c, w)
OUTPUT(v)
"""


def test_derived_tables_equal_the_reference_key_layout(c17, mid12):
    # key slots: key inputs in list order, then each LUT's table by
    # ascending gate id, whatever the topological order
    parsed = parse_bench(LUT_BENCH)
    assert parsed.key_inputs == (1, 4)
    _assert_derived_tables(parsed)
    assert parsed.key_bits == 2 + 16 + 2 + 8 + 4
    # the same gates with the key inputs listed against id order
    flipped = Circuit(parsed.gates, parsed.primary_inputs[::-1], parsed.primary_outputs,
                      parsed.key_inputs[::-1])
    _assert_derived_tables(flipped)
    assert list(flipped.key_slices)[:2] == [4, 1]
    checked = 0
    for base in (c17, mid12):
        _assert_derived_tables(base)
        for text in ("xor", "xnor", "lut1", "lut2", "lut3", "lut4"):
            kind = ObfuscationKind.parse(text)
            eligible = len(eligible_gates(base, kind))
            for seed in range(3 if eligible else 0):  # c17 has no one-fanin gate
                m = min(seed + 1, eligible)
                _assert_derived_tables(random_obfuscate(base, m, kind, seed).obfuscated)
                checked += 1
    assert checked == 33


def test_topo_order_respects_fanin():
    rng = random.Random(3)
    for _ in range(20):
        c = random_circuit(rng)
        pos = {gid: i for i, gid in enumerate(c.topo_order)}
        for g in c.gates:
            for f in g.fanin:
                assert pos[f] < pos[g.id]


# --- parsing ---

def test_parse_case_insensitive_and_comments():
    c = parse_bench("# hello\nINPUT(a)\noutput(z)\nz = nand(a, a)  # trailing\n")
    assert c.gates[c.name_to_id["z"]].type is GateType.NAND


def test_parse_buf_alias():
    c = parse_bench("INPUT(a)\nOUTPUT(z)\nz = BUF(a)\n")
    assert c.gates[c.name_to_id["z"]].type is GateType.BUFF


def test_parse_keyinput_prefix():
    c = parse_bench("INPUT(a)\nINPUT(keyinput0)\nOUTPUT(z)\nz = XOR(a, keyinput0)\n")
    assert len(c.primary_inputs) == 1
    assert len(c.key_inputs) == 1
    assert c.gates[c.key_inputs[0]].name == "keyinput0"
    assert simulate(c, [1], key=[0]) == (1,)
    assert simulate(c, [1], key=[1]) == (0,)


def test_parse_lut_msb_first():
    # table 0111 over (a, b): index = 2a + b => acts like OR... check all rows
    c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = LUT[0111](a, b)\n")
    g = c.gates[c.name_to_id["z"]]
    assert g.lut_bits == (0, 1, 1, 1)
    for a in (0, 1):
        for b in (0, 1):
            assert simulate(c, [a, b], key=[0, 1, 1, 1]) == (a | b,)
    # simulation reads the table from the key, not from lut_bits
    assert simulate(c, [0, 0], key=[1, 0, 0, 0]) == (1,)


@pytest.mark.parametrize("text,fragment", [
    ("INPUT(a)\nz = FROB(a, a)\n", "unknown gate type"),
    ("INPUT(a)\nz = NAND(a, q)\n", "undefined net"),
    ("INPUT(a)\nz = NAND(a, a)\nz = NAND(a, a)\n", "duplicate"),
    ("INPUT(a)\nz = LUT[01](a, a)\n", "table bits"),
    ("INPUT(a)\nz = LUT(a)\n", "[bits] table"),
    ("INPUT(a)\nthis is not bench\n", "cannot parse"),
    ("OUTPUT(z)\n", "undefined net"),
    ("INPUT(a)\nz = NOT(a, a)\n", "exactly 1 fanin"),
    ("INPUT(a)\nz = AND(a)\n", "at least 2"),
    pytest.param("INPUT(a)\nz = AND[01](a, a)\n", "cannot parse line", id="bits-on-and"),
    pytest.param("INPUT(a)\nz = INPUT()\n", "unknown gate type 'INPUT'", id="input-as-type"),
    pytest.param("INPUT(a)\n" + "z" * 10_000 + "\n", "cannot parse line: 'zzz",
                 id="long-line"),
    pytest.param("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nOUTPUT(z)\n",
                 "OUTPUT(z) is listed twice (first on line 2) (line 4)", id="output-twice"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(BenchParseError) as exc:
        parse_bench(text)
    assert fragment in str(exc.value)
    assert len(str(exc.value)) < 200


def test_read_bench_names_the_file_and_keeps_the_line(tmp_path):
    path = tmp_path / "bad.bench"
    path.write_text("INPUT(a)\n\nz = FROB(a, a)\n")
    with pytest.raises(BenchParseError) as exc:
        read_bench(path)
    assert str(exc.value).startswith(f"{path}: unknown gate type 'FROB'")
    assert str(exc.value).endswith(" (line 3)")
    path.write_bytes(b"\xff\xfe\x00bench")
    with pytest.raises(BenchParseError) as exc:
        read_bench(path)
    assert str(exc.value).startswith(f"{path}: ") and "(line " not in str(exc.value)
    path.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    assert read_bench(path).gates == parse_bench(path.read_text()).gates


def test_parse_error_reports_line():
    for text, line in (("INPUT(a)\n\nz = FROB(a, a)\n", 3),
                       ("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n", 2)):
        with pytest.raises(BenchParseError) as exc:
            parse_bench(text)
        assert str(exc.value).endswith(f" (line {line})"), text


def test_cycle_detection():
    with pytest.raises(CircuitError):
        Circuit(
            (Gate(0, "a", GateType.INPUT),
             Gate(1, "x", GateType.AND, (0, 2)),
             Gate(2, "y", GateType.AND, (0, 1))),
            (0,), (2,))


# --- structural validation: one case per check, with its exact message ---

A, B = Gate(0, "a", GateType.INPUT), Gate(1, "b", GateType.INPUT)
T = GateType


def _z(gtype, fanin, lut_bits=None):
    return Gate(2, "z", gtype, fanin, lut_bits)


# gates, primary inputs, primary outputs, key inputs, message
INVALID_CIRCUITS = {
    "non-dense-id": ((A, Gate(2, "b", T.INPUT), _z(T.AND, (0, 1))), (0, 1), (2,), (),
                     "gate ids must be dense: gate at index 1 has id 2"),
    "duplicate-name": ((A, Gate(1, "a", T.INPUT), _z(T.AND, (0, 1))), (0, 1), (2,), (),
                       "duplicate gate name 'a'"),
    "fanin-above-range": ((A, B, _z(T.AND, (0, 3))), (0, 1), (2,), (),
                          "gate 'z' references missing gate id 3"),
    "fanin-negative": ((A, B, _z(T.AND, (-1, 1))), (0, 1), (2,), (),
                       "gate 'z' references missing gate id -1"),
    "input-with-fanin": ((A, Gate(1, "b", T.INPUT, (0,)), _z(T.AND, (0, 1))), (0, 1), (2,),
                         (), "INPUT 'b' must have no fanin"),
    "not-two-fanins": ((A, B, _z(T.NOT, (0, 1))), (0, 1), (2,), (),
                       "NOT 'z' needs exactly 1 fanin, got 2"),
    "buff-no-fanin": ((A, B, _z(T.BUFF, ())), (0, 1), (2,), (),
                      "BUFF 'z' needs exactly 1 fanin, got 0"),
    "lut-no-fanin": ((A, B, _z(T.LUT, ())), (0, 1), (2,), (),
                     "LUT 'z' needs at least 1 fanin"),
    "and-one-fanin": ((A, B, _z(T.AND, (0,))), (0, 1), (2,), (),
                      "AND 'z' needs at least 2 fanins, got 1"),
    "lut-table-length": ((A, B, _z(T.LUT, (0, 1), (0, 1, 1))), (0, 1), (2,), (),
                         "LUT 'z' has 3 table bits, expected 4"),
    "input-and-key": ((A, B, _z(T.AND, (0, 1))), (0, 1), (2,), (1,),
                      "a node cannot be both primary input and key input"),
    "logic-gate-as-input": ((A, B, _z(T.AND, (0, 1))), (0, 1, 2), (2,), (),
                            "node 'z' listed as input but is AND"),
    "logic-gate-as-key": ((A, B, _z(T.AND, (0, 1))), (0,), (2,), (1, 2),
                          "node 'z' listed as input but is AND"),
    "unlisted-input": ((A, B, _z(T.AND, (0, 1))), (0,), (2,), (),
                       "INPUT gate 'b' not listed in primary_inputs or key_inputs"),
    "output-above-range": ((A, B, _z(T.AND, (0, 1))), (0, 1), (2, 3), (),
                           "primary output id 3 does not exist"),
    "cycle": ((A, Gate(1, "x", T.AND, (0, 2)), Gate(2, "y", T.OR, (0, 1))), (0,), (2,), (),
              "circuit contains a cycle through: x, y"),
    # the first check a gate fails names it: a repeated name before its arity
    "two-checks-one-gate": ((A, B, Gate(2, "a", T.AND, (0,))), (0, 1), (2,), (),
                            "duplicate gate name 'a'"),
    # the first offending gate names the error, whichever checks later gates fail
    "first-gate-wins": ((A, B, _z(T.NOT, (0, 1)), Gate(4, "w", T.AND, (0, 9))), (0, 1),
                        (2,), (), "NOT 'z' needs exactly 1 fanin, got 2"),
}


@pytest.mark.parametrize("gates, pis, pos, keys, message", INVALID_CIRCUITS.values(),
                         ids=INVALID_CIRCUITS)
def test_circuit_validation_messages(gates, pis, pos, keys, message):
    with pytest.raises(CircuitError) as exc:
        Circuit(gates, pis, pos, keys)
    assert str(exc.value) == message


@pytest.mark.parametrize("pis, keys, message", [
    ((0, 5), (), "primary input id 5 does not exist"),
    ((0, 1, -2), (), "primary input id -2 does not exist"),
    ((0, 1, 1), (), "primary input id 1 is listed twice"),
    ((0,), (1, 5), "key input id 5 does not exist"),
    ((0,), (1, 1), "key input id 1 is listed twice"),
    ((0, 1), (), "primary output id 2 is listed twice"),
])
def test_circuit_checks_input_ids(pis, keys, message):
    # the one logic gate is the output, listed twice in the row about outputs
    pos = (2, 2) if "primary output" in message else (2,)
    with pytest.raises(CircuitError) as exc:
        Circuit((A, B, _z(T.AND, (0, 1))), pis, pos, keys)
    assert str(exc.value) == message


def _parse_shuffled(rng, c):
    """Re-parse ``c`` with its gate definitions in random line order."""
    lines = emit_bench(c).splitlines()
    head = lines.index("") + 1
    body = lines[head:]
    rng.shuffle(body)
    return parse_bench("\n".join(lines[:head] + body) + "\n")


def test_roundtrip_isomorphic(c17, mid12):
    rng = random.Random(11)
    circuits = [c17, mid12] + [_parse_shuffled(rng, random_circuit(rng))
                               for _ in range(10)]
    for c in circuits:
        c2 = parse_bench(emit_bench(c))
        assert len(c2.gates) == len(c.gates)
        assert [g.name for g in c2.gates] == [g.name for g in c.gates]
        assert [c.gates[i].name for i in c.primary_inputs] == \
               [c2.gates[i].name for i in c2.primary_inputs]
        assert [c.gates[i].name for i in c.primary_outputs] == \
               [c2.gates[i].name for i in c2.primary_outputs]
        for g in c.gates:
            g2 = c2.gates[c2.name_to_id[g.name]]
            assert g2.type is g.type
            assert [c2.gates[f].name for f in g2.fanin] == [c.gates[f].name for f in g.fanin]
            assert g2.lut_bits == g.lut_bits
        vecs = all_input_vectors(min(len(c.primary_inputs), 10))
        if len(c.primary_inputs) > 10:
            vecs = np.pad(vecs, ((0, 0), (0, len(c.primary_inputs) - 10)))
        np.testing.assert_array_equal(simulate_many(c, vecs), simulate_many(c2, vecs))


# --- graph matrices ---

# "u" has no edges, and AND(a, a) repeats a fanin
AND_AA = "INPUT(a)\nINPUT(u)\nOUTPUT(y)\ny = AND(a, a)\n"


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_graph_matrix_equals_dense_definition(c17, mid12, kind):
    circuits = [c17, mid12, random_circuit(random.Random(5), n_inputs=6, n_gates=40),
                parse_bench(AND_AA)]
    for c in circuits:
        rows, cols, vals = graph_matrix(c, kind)
        assert rows.shape == cols.shape == vals.shape
        key = rows * c.n + cols
        assert np.all(np.diff(key) > 0)  # unique, sorted by (row, col)
        assert np.all(vals != 0)
        np.testing.assert_array_equal(densify((rows, cols, vals), c.n),
                                      dense_graph_matrix(c, kind))


def test_repeated_fanin_is_one_entry():
    c = parse_bench(AND_AA)
    a, u, y = (c.name_to_id[k] for k in "auy")
    w = densify(graph_matrix(c), c.n)
    assert w[y, a] == w[a, y] == 1.0
    assert w[u].sum() == w[:, u].sum() == w[u, u] == 1.0  # only the self-loop
    rows, cols, vals = graph_matrix(c, kind="laplacian")
    assert u not in rows and u not in cols  # its zero diagonal is left out
    lap = densify((rows, cols, vals), c.n)
    assert lap[y, y] == 1.0 and lap[y, a] == -1.0


def test_adjacency_undirected_self_loops(c17):
    w = densify(graph_matrix(c17), c17.n)
    np.testing.assert_array_equal(w, w.T)
    np.testing.assert_array_equal(np.diag(w), np.ones(c17.n))
    g10 = c17.name_to_id["10"]
    assert w[g10, c17.name_to_id["1"]] == 1.0
    assert w[g10, c17.name_to_id["7"]] == 0.0


def test_laplacian_rows_sum_zero(mid12):
    lap = densify(graph_matrix(mid12, kind="laplacian"), mid12.n)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    offdiag = lap[~np.eye(mid12.n, dtype=bool)]
    assert set(np.unique(offdiag)) <= {0.0, -1.0}


def test_graph_matrix_bad_kind(c17):
    with pytest.raises(ValueError):
        graph_matrix(c17, kind="incidence")


def test_all_input_vectors():
    v = all_input_vectors(3)
    assert v.shape == (8, 3)
    assert tuple(v[5]) == (1, 0, 1)  # MSB-first
    assert all_input_vectors(0).shape == (1, 0)


def test_simulate_shape_errors(c17):
    with pytest.raises(ValueError):
        simulate(c17, [1, 1])
    with pytest.raises(ValueError):
        simulate_many(c17, np.zeros((4, 5), dtype=np.uint8), key=[0])
