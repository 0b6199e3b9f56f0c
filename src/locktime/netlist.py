"""Gate-level combinational netlists: bench-format parsing, validation,
simulation and graph-matrix extraction; also the package's one JSON reader.

Each kind of JSON file the package reads has one declaration, beside its
writer; :func:`read_json_object` checks a file against it with one walker,
:func:`check_json`, so a refusal names the file and the key path.

A circuit is a DAG of gates.  Primary inputs are ordinary nodes of type
INPUT so that every fanin edge has a real endpoint.  Key inputs (the
secret bits consumed by key-gates) are also INPUT-typed nodes but are
tracked separately in ``Circuit.key_inputs`` and get their values from the
``key`` argument of :func:`simulate`, never from the input vector.

LUT gates are k-input programmable gates.  Their truth table is a *key*:
simulation reads it from the key vector.  The ``lut_bits`` stored on the
gate record the ground-truth table so a locked netlist can round-trip
through the bench format; nothing on the attack path reads them.

Simulation is word-parallel: a net's values over a batch of input vectors
are one Python int, bit b its value under vector b.  :func:`gate_word`
evaluates one gate on its fanins' words, :func:`simulate_words` a circuit
on a batch, and :func:`simulate` on one vector, where every word is a bit.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from functools import reduce
from operator import and_, ne, or_, xor

import numpy as np

KEY_INPUT_PREFIX = "keyinput"


class GateType(Enum):
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUFF = "BUFF"
    INPUT = "INPUT"
    LUT = "LUT"


# Fixed one-hot encoding order; feature width stays 10 across datasets.
ONE_HOT_ORDER = (
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR, GateType.XOR,
    GateType.XNOR, GateType.NOT, GateType.BUFF, GateType.INPUT, GateType.LUT,
)
ONE_HOT_INDEX = {t: i for i, t in enumerate(ONE_HOT_ORDER)}

# The function of every non-LUT logic type, declared once for the simulator
# and the Tseitin encoder: an AND, OR or XOR reduction of the fanins, its
# output inverted or not.  NOT is a one-fanin NAND, BUFF a one-fanin AND.
REDUCTION = {
    GateType.AND: (and_, False), GateType.NAND: (and_, True),
    GateType.OR: (or_, False), GateType.NOR: (or_, True),
    GateType.XOR: (xor, False), GateType.XNOR: (xor, True),
    GateType.NOT: (and_, True), GateType.BUFF: (and_, False),
}


class CircuitError(ValueError):
    """Structural invariant violation in a circuit."""


class BenchParseError(ValueError):
    """Bench text that does not parse; the message ends in "(line N)" when
    a 1-based line is to blame."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")


@dataclass(frozen=True)
class Gate:
    id: int
    name: str
    type: GateType
    fanin: tuple[int, ...] = ()
    lut_bits: tuple[int, ...] | None = None  # ground-truth table, LUT only


def topo_order(gates) -> tuple[int, ...]:
    """Gate ids in Kahn order; FIFO over ascending ids makes it canonical.

    ``gates[i].id == i`` for all i.  Raises :class:`CircuitError` naming
    gates on a cycle.
    """
    n = len(gates)
    indeg = [len(g.fanin) for g in gates]
    fanout = [[] for _ in range(n)]
    for g in gates:
        for f in g.fanin:
            fanout[f].append(g.id)
    queue = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in fanout[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(queue) != n:
        cyc = [gates[i].name for i in range(n) if indeg[i] > 0]
        raise CircuitError(f"circuit contains a cycle through: {', '.join(sorted(cyc)[:5])}")
    return tuple(queue)


def _shape_error(t: GateType, k: int, lut_bits, name: str) -> str | None:
    """Why a ``t`` gate with ``k`` fanins and table ``lut_bits`` is malformed, or None."""
    if t is GateType.INPUT:
        if k != 0:
            return f"INPUT {name!r} must have no fanin"
    elif t in (GateType.NOT, GateType.BUFF):
        if k != 1:
            return f"{t.value} {name!r} needs exactly 1 fanin, got {k}"
    elif t is GateType.LUT:
        if k < 1:
            return f"LUT {name!r} needs at least 1 fanin"
        if lut_bits is not None and len(lut_bits) != 2 ** k:
            return f"LUT {name!r} has {len(lut_bits)} table bits, expected {2 ** k}"
    elif k < 2:
        return f"{t.value} {name!r} needs at least 2 fanins, got {k}"
    return None


def _check_ids(what: str, gids: tuple, n: int) -> None:
    """Every id in ``gids`` names one of ``n`` gates."""
    if gids and (min(gids) < 0 or max(gids) >= n):
        gid = next(gid for gid in gids if not 0 <= gid < n)
        raise CircuitError(f"{what} id {gid} does not exist")


@dataclass
class Circuit:
    """Immutable-by-convention gate-level netlist.

    ``gates[i].id == i`` for all i.  Derived tables are computed once at
    construction; do not mutate fields afterwards:

    - ``name_to_id``: net name -> gate id;
    - ``topo_order``: every gate id in canonical Kahn order;
    - ``logic_gates``: ``topo_order`` without the primary and key inputs;
    - ``key_slices``: each key slot -> its slice of the flat key vector,
      one bit per key input in ``key_inputs`` order, then each LUT's 2^k
      table block in ascending gate-id order;
    - ``key_bits``: the length of the flat key vector.
    """

    gates: tuple[Gate, ...]
    primary_inputs: tuple[int, ...]
    primary_outputs: tuple[int, ...]
    key_inputs: tuple[int, ...] = ()
    name_to_id: dict = field(init=False, repr=False)
    topo_order: tuple[int, ...] = field(init=False, repr=False)
    logic_gates: tuple[int, ...] = field(init=False, repr=False)
    key_slices: dict = field(init=False, repr=False)
    key_bits: int = field(init=False, repr=False)

    def __post_init__(self):
        self.gates = tuple(self.gates)
        self.primary_inputs = tuple(self.primary_inputs)
        self.primary_outputs = tuple(self.primary_outputs)
        self.key_inputs = tuple(self.key_inputs)
        self._validate()

    @property
    def n(self):
        return len(self.gates)

    def _validate(self):
        """Check the gate and id lists whole; build the derived tables.
        On a failure, :meth:`_raise_first_gate_error` finds the first
        offending gate, so the message is the one a walk over the gates in
        id order would give."""
        gates = self.gates
        n = len(gates)
        ids = [g.id for g in gates]
        types = [g.type._name_ for g in gates]  # Enum hashing runs in Python
        fanins = [g.fanin for g in gates]
        fanin_ids = list(chain.from_iterable(fanins))
        self.name_to_id = dict(zip([g.name for g in gates], ids))
        shapes = set(zip(types, map(len, fanins), [g.lut_bits for g in gates]))
        # ne over a range: a list(range(n)) would allocate n fresh ints
        if (any(map(ne, ids, range(n))) or len(self.name_to_id) != n
                or fanin_ids and (min(fanin_ids) < 0 or max(fanin_ids) >= n)
                or any(_shape_error(GateType[t], k, bits, "") for t, k, bits in shapes)):
            self._raise_first_gate_error()

        pis, keys = self.primary_inputs, self.key_inputs
        pi_set, key_set = set(pis), set(keys)
        if pi_set & key_set:
            raise CircuitError("a node cannot be both primary input and key input")
        _check_ids("primary input", pis, n)
        _check_ids("key input", keys, n)
        not_inputs = [gid for gid in pis + keys if types[gid] != "INPUT"]
        if not_inputs:
            g = gates[not_inputs[0]]
            raise CircuitError(f"node {g.name!r} listed as input but is {g.type.value}")
        listed = pi_set | key_set
        if types.count("INPUT") != len(listed):
            g = next(g for g in gates if g.type is GateType.INPUT and g.id not in listed)
            raise CircuitError(f"INPUT gate {g.name!r} not listed in primary_inputs or key_inputs")
        pos = self.primary_outputs
        _check_ids("primary output", pos, n)
        for what, gids, unique in (("primary input", pis, pi_set), ("key input", keys, key_set),
                                   ("primary output", pos, set(pos))):
            if len(unique) != len(gids):
                gid = next(gid for i, gid in enumerate(gids) if gid in gids[:i])
                raise CircuitError(f"{what} id {gid} is listed twice")
        self.topo_order = topo_order(gates)
        # only INPUTs have no fanin, and Kahn's queue starts with every such gate
        self.logic_gates = self.topo_order[len(listed):]
        slots = [(gid, 1) for gid in keys]
        slots += [(gid, 2 ** len(fanins[gid])) for gid, t in enumerate(types) if t == "LUT"]
        self.key_slices = {}
        pos = 0
        for gid, width in slots:
            self.key_slices[gid] = slice(pos, pos + width)
            pos += width
        self.key_bits = pos

    def _raise_first_gate_error(self):
        """Raise the error of the first gate, in id order, that fails a check."""
        n = len(self.gates)
        names = set()
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise CircuitError(f"gate ids must be dense: gate at index {i} has id {g.id}")
            if g.name in names:
                raise CircuitError(f"duplicate gate name {g.name!r}")
            names.add(g.name)
            for f in g.fanin:
                if not 0 <= f < n:
                    raise CircuitError(f"gate {g.name!r} references missing gate id {f}")
            message = _shape_error(g.type, len(g.fanin), g.lut_bits, g.name)
            if message:
                raise CircuitError(message)


# one bench line: INPUT(x), OUTPUT(y), or y = TYPE(args) with a [bits] table after
# LUT; _DEFINED_TYPES holds every other TYPE a definition may name
_BENCH_LINE = re.compile(
    r"(?P<io>INPUT|OUTPUT)\s*\((?P<port>[^\s()]+)\)"
    r"|(?P<name>[^\s=()]+)\s*=\s*(?:LUT\s*\[(?P<bits>[01]+)\]|(?P<type>[A-Za-z]+))"
    r"\s*\((?P<args>[^)]*)\)", re.IGNORECASE)
_DEFINED_TYPES = {t.value: t for t in GateType if t.value not in ("INPUT", "LUT")}
_DEFINED_TYPES["BUF"] = GateType.BUFF


def parse_bench(text: str) -> Circuit:
    """Parse ISCAS-85 bench syntax into a validated :class:`Circuit`.

    Supported lines: ``INPUT(x)``, ``OUTPUT(y)``, ``y = TYPE(a, b, ...)``
    and the LUT extension ``y = LUT[bits](a, ...)`` where ``bits`` is the
    truth table in fanin-indexed order (first fanin = most significant).
    ``#`` starts a comment.  Type keywords are case-insensitive; BUF is
    accepted as an alias of BUFF.  INPUT names starting with ``keyinput``
    are treated as key inputs.  A refusal names its line, but a wrong fanin
    count or table size, or a cycle, is refused by :class:`Circuit` by name.
    """
    inputs: list[str] = []
    outputs: list[tuple[str, int]] = []  # name, line
    defs: list[tuple[str, GateType, str, tuple[int, ...] | None, int]] = []  # args unsplit
    declared: dict[str, int] = {}  # name -> line of definition

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _BENCH_LINE.fullmatch(line)
        if not m:
            raise BenchParseError(f"cannot parse line: {line!r:.40}", lineno)
        io, name, bits, kw = m.group("io", "name", "bits", "type")
        if io and io.upper() == "OUTPUT":
            outputs.append((m["port"], lineno))
            continue
        if io:
            name = m["port"]
            inputs.append(name)
        else:
            gtype = GateType.LUT if bits else _DEFINED_TYPES.get(kw.upper())
            if gtype is None:
                raise BenchParseError(f"unknown gate type {kw!r}: a definition names one of "
                                      f"{', '.join(_DEFINED_TYPES)} or LUT with a [bits] "
                                      f"table", lineno)
            defs.append((name, gtype, m["args"], bits and tuple(map(int, bits)), lineno))
        if name in declared:
            raise BenchParseError(f"duplicate definition of net {name!r} "
                                  f"(first defined on line {declared[name]})", lineno)
        declared[name] = lineno

    # ids: inputs first, then definitions in read order
    ids = {name: gid for gid, name in enumerate(chain(inputs, [d[0] for d in defs]))}
    gates, pis, keys = [], [], []
    for gid, name in enumerate(inputs):
        gates.append(Gate(gid, name, GateType.INPUT))
        (keys if name.lower().startswith(KEY_INPUT_PREFIX) else pis).append(gid)
    for name, gtype, args, bits, lineno in defs:
        try:
            fanin = tuple([ids[a] for a in map(str.strip, args.split(",")) if a])
        except KeyError as exc:
            raise BenchParseError(f"gate {name!r} references undefined net {exc.args[0]!r}",
                                  lineno) from None
        gates.append(Gate(len(gates), name, gtype, fanin, bits))

    listed: dict[str, int] = {}  # output name -> its first OUTPUT line
    for name, lineno in outputs:
        if name not in ids:
            raise BenchParseError(f"OUTPUT({name}) references undefined net", lineno)
        if name in listed:
            raise BenchParseError(f"OUTPUT({name}) is listed twice (first on line "
                                  f"{listed[name]})", lineno)
        listed[name] = lineno
    pos = tuple([ids[name] for name, _ in outputs])
    try:
        return Circuit(tuple(gates), tuple(pis), pos, tuple(keys))
    except CircuitError as exc:
        raise BenchParseError(str(exc)) from exc


def read_bench(path) -> Circuit:
    """Parse the bench file at ``path``; a refusal is a :class:`BenchParseError`
    whose message is the parser's, prefixed by the path."""
    try:
        with open(path) as fh:
            return parse_bench(fh.read())
    except (BenchParseError, UnicodeDecodeError) as exc:  # the latter: no text file
        raise BenchParseError(f"{path}: {exc}") from exc


def emit_bench(c: Circuit) -> str:
    """Serialize a circuit to bench text with gates in id order.

    INPUT lines come first, then OUTPUT lines, then one definition per
    logic gate.  :func:`parse_bench` numbers inputs and then definitions
    in read order, so re-parsing keeps every gate id of a circuit it
    returned.  A circuit with an input after a logic gate in id order
    (a locked circuit's appended key inputs) is renumbered inputs-first.
    The input order survives when ``primary_inputs`` and ``key_inputs``
    ascend by id, as they do in every circuit the parser and the lockers
    build.
    """
    lines = [f"INPUT({g.name})" for g in c.gates if g.type is GateType.INPUT]
    lines += [f"OUTPUT({c.gates[gid].name})" for gid in c.primary_outputs]
    if lines:
        lines.append("")
    for g in c.gates:
        if g.type is GateType.INPUT:
            continue
        args = ", ".join(c.gates[f].name for f in g.fanin)
        if g.type is GateType.LUT:
            if g.lut_bits is None:
                raise CircuitError(f"LUT {g.name!r} has no table bits to emit")
            bits = "".join(str(b) for b in g.lut_bits)
            lines.append(f"{g.name} = LUT[{bits}]({args})")
        else:
            lines.append(f"{g.name} = {g.type.value}({args})")
    return "\n".join(lines) + ("\n" if lines else "")


def read_json_object(path, decl):
    """The JSON file at ``path`` checked against ``decl``, else ValueError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are no UTF-8
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return check_json(doc, decl, "")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_json(path, doc) -> None:
    """Write ``doc`` to the file at ``path`` as strict JSON (no NaN or infinity)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n")


def check_json(value, decl, at: str):
    """``value``, decoded JSON at key path ``at`` ("" at the root), checked against
    ``decl``.  A dict declares an object with exactly its keys (a key ending in
    ``?`` may be absent; the one key ``str`` allows any), a one-element list a
    list, a pair (what is expected, its test) a value that passes the test,
    and a function returns the value the reader gets.  A refusal is a
    ValueError that starts with the key path, as ``params.feat.data[0]: ...``."""
    where, dot = (f"{at}: ", f"{at}.") if at else ("", "")
    if isinstance(decl, tuple):
        if decl[1](value):
            return value
        raise ValueError(f"{where}expected {decl[0]}, got {value!r:.40}")
    if isinstance(decl, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}expected a JSON list, got {value!r:.40}")
        return [check_json(v, decl[0], f"{at}[{i}]") for i, v in enumerate(value)]
    if not isinstance(decl, dict):
        try:
            return decl(value)
        except ValueError as exc:
            raise ValueError(f"{where}{exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{where}expected a JSON object, got {value!r:.40}")
    if str in decl:
        return {k: check_json(v, decl[str], dot + k) for k, v in value.items()}
    out = {}
    for key, spec in decl.items():
        name = key.rstrip("?")
        if name in value:
            out[name] = check_json(value[name], spec, dot + name)
        elif name == key:
            raise ValueError(f"{dot}{name}: missing")
    if len(out) < len(value):
        raise ValueError(f"{dot}{min(value.keys() - out.keys())}: unknown field")
    return out


def json_choice(*options) -> tuple:
    """The declaration of a value equal to one of ``options``, in type too."""
    return (" or ".join(map(repr, options)),
            lambda v: any(type(v) is type(o) and v == o for o in options))


FLOAT_MAX = sys.float_info.max  # an int beyond it has no float; NaN and inf fail the bound
TEXT = ("a string", lambda v: isinstance(v, str))
COUNT = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
FINITE = ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= FLOAT_MAX)
NONNEGATIVE = ("a finite number >= 0", lambda v: type(v) in (int, float) and 0 <= v <= FLOAT_MAX)
FILE_NAME = ("a file name with no directory part",
             lambda v: isinstance(v, str) and v != "" and "/" not in v)


def graph_matrix(c: Circuit, kind="adjacency"):
    """Structure matrix of the symmetrized fanin relation as an edge list.

    Returns the nonzeros of the n x n matrix as ``(rows, cols, vals)``,
    unique and sorted by (row, col); n is ``c.n`` and is not stored.
    ``w[i, j] = w[j, i] = 1`` iff gate j is a fanin of gate i (a repeated
    fanin still gives 1), and every diagonal entry is 1.  The laplacian is
    ``D - W`` over the same connectivity, its zero diagonal entries (gates
    with no edges) left out.  The transpose is the same triple with rows
    and cols swapped.
    """
    if kind not in ("adjacency", "laplacian"):
        raise ValueError(f"unknown graph matrix kind {kind!r}")
    n = c.n
    ids = np.arange(n, dtype=np.intp)
    fanins = [g.fanin for g in c.gates]  # gates[i].id == i
    heads = np.repeat(ids, np.fromiter(map(len, fanins), np.intp, n))
    tails = np.fromiter(chain.from_iterable(fanins), np.intp, heads.size)
    # sort + neighbour mask: np.unique is an order of magnitude slower here
    keys = np.sort(np.concatenate([heads, tails, ids]) * n
                   + np.concatenate([tails, heads, ids]))
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    rows, cols = np.divmod(keys[keep], n)
    if kind == "adjacency":
        return rows, cols, np.ones(rows.size)
    # W holds every self-loop, so the diagonal of D - W is the count of
    # the row's other entries
    vals = np.where(rows == cols, np.bincount(rows, minlength=n)[rows] - 1.0, -1.0)
    nonzero = vals != 0.0
    return rows[nonzero], cols[nonzero], vals[nonzero]


def key_cone(c: Circuit) -> set[int]:
    """Ids of the nets whose value can depend on the key: the key inputs,
    the LUTs and their transitive fanout, found in one topological pass.

    Every other gate computes the same function whatever the key.
    """
    cone = set(c.key_slices)
    gates = c.gates
    for gid in c.logic_gates:
        if not cone.isdisjoint(gates[gid].fanin):
            cone.add(gid)
    return cone


def gate_word(t: GateType, words: list[int], table, ones: int) -> int:
    """One logic gate's word: ``words`` holds its fanins' words, ``ones``
    the all-ones word of the batch, and ``table`` a LUT's truth table (first
    fanin is the most significant index bit), None for every other type.

    A non-LUT gate is the AND, OR or XOR reduction of its fanins that
    :data:`REDUCTION` names for ``t``, inverted when the table says so; a
    LUT is the OR of its true minterms.
    """
    if table is None:
        op, inverted = REDUCTION[t]
        out = reduce(op, words)
        return out ^ ones if inverted else out
    k = len(words)
    out = 0
    for j, bit in enumerate(table):
        if bit:
            m = ones
            for i, w in enumerate(words):
                m &= w if j >> (k - 1 - i) & 1 else w ^ ones
            out |= m
    return out


def simulate_words(c: Circuit, words: list[int], key, ones: int) -> list[int]:
    """The primary outputs' words, given each primary input's word over a
    batch of vectors (bit b is its value under vector b) and the batch's
    all-ones word ``ones``.  ``key`` is a flat key vector laid out per
    ``Circuit.key_slices``."""
    if len(key) != c.key_bits:
        raise ValueError(f"expected {c.key_bits} key bits, got {len(key)}")
    slices, gates = c.key_slices, c.gates
    vals = [0] * c.n
    for gid, w in zip(c.primary_inputs, words):
        vals[gid] = w
    for gid in c.key_inputs:
        vals[gid] = ones if key[slices[gid].start] else 0
    for gid in c.logic_gates:
        g = gates[gid]
        s = slices.get(gid)  # of the logic gates, only a LUT has a key slot
        vals[gid] = gate_word(g.type, [vals[f] for f in g.fanin],
                              None if s is None else key[s], ones)
    return [vals[gid] for gid in c.primary_outputs]


def pack_words(inputs: np.ndarray) -> list[int]:
    """Each column of a (batch, n) 0/1 array as one word."""
    rows = np.packbits(np.asarray(inputs).T.astype(bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def exhaustive_words(n_inputs: int) -> list[int]:
    """Each of ``n_inputs`` inputs' word over all 2^n vectors, vector r
    holding input i at bit n-1-i of r (MSB-first, first input most
    significant): input i is 2^p zeros then 2^p ones, p = n-1-i, repeated."""
    size = 1 << n_inputs
    return [(((1 << (1 << p)) - 1) << (1 << p)) * (((1 << size) - 1) // ((1 << (2 << p)) - 1))
            for p in reversed(range(n_inputs))]


def simulate(c: Circuit, inputs, key=()) -> tuple[int, ...]:
    """Evaluate one input vector; returns the primary-output bits."""
    if len(inputs) != len(c.primary_inputs):
        raise ValueError(f"expected {len(c.primary_inputs)} input bits, got {len(inputs)}")
    return tuple(simulate_words(c, [1 if b else 0 for b in inputs], key, 1))
