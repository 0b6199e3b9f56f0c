"""CNF machinery for the oracle-guided attack: Tseitin encoding of
circuits, the two-key miter, per-DIP constraint copies, and DIMACS i/o.

Literals follow the DIMACS convention: a nonzero int whose absolute value
is the variable index (>= 1) and whose sign is the polarity.  Variable
numbering is deterministic — inputs first, then key bits (copy 1 before
copy 2 in the miter), then gate outputs in topological order, then
auxiliary variables — so emitted DIMACS is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .netlist import Circuit, GateType

Clause = tuple[int, ...]


@dataclass
class CnfFormula:
    clauses: list[Clause]
    n_vars: int
    var_map: dict = field(default_factory=dict)  # net name -> variable

    def __post_init__(self):
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause at construction time")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range (n_vars={self.n_vars})")


class _Alloc:
    def __init__(self):
        self.n = 0

    def new(self, count=1):
        first = self.n + 1
        self.n += count
        return first if count == 1 else list(range(first, self.n + 1))


def _gate_clauses(gtype: GateType, out: int, fanin: list[int], alloc: _Alloc,
                  clauses: list, lut_keys: list[int] | None = None):
    """Append the Tseitin clauses for one gate; allocates aux vars as needed."""
    y, xs = out, fanin
    if gtype is GateType.AND:
        for x in xs:
            clauses.append((-y, x))
        clauses.append(tuple([y] + [-x for x in xs]))
    elif gtype is GateType.NAND:
        for x in xs:
            clauses.append((y, x))
        clauses.append(tuple([-y] + [-x for x in xs]))
    elif gtype is GateType.OR:
        for x in xs:
            clauses.append((y, -x))
        clauses.append(tuple([-y] + xs))
    elif gtype is GateType.NOR:
        for x in xs:
            clauses.append((-y, -x))
        clauses.append(tuple([y] + xs))
    elif gtype in (GateType.XOR, GateType.XNOR):
        # fold arity-m into a chain of 2-input xors
        acc = xs[0]
        for x in xs[1:-1]:
            t = alloc.new()
            _xor2(acc, x, t, clauses)
            acc = t
        if gtype is GateType.XOR:
            _xor2(acc, xs[-1], y, clauses)
        else:
            _xnor2(acc, xs[-1], y, clauses)
    elif gtype is GateType.NOT:
        clauses.append((y, xs[0]))
        clauses.append((-y, -xs[0]))
    elif gtype is GateType.BUFF:
        clauses.append((-y, xs[0]))
        clauses.append((y, -xs[0]))
    elif gtype is GateType.LUT:
        k = len(xs)
        for j in range(2 ** k):
            sel = alloc.new()  # sel <=> (inputs == minterm j)
            minterm = [xs[i] if (j >> (k - 1 - i)) & 1 else -xs[i] for i in range(k)]
            for lit in minterm:
                clauses.append((-sel, lit))
            clauses.append(tuple([sel] + [-lit for lit in minterm]))
            clauses.append((-sel, -lut_keys[j], y))
            clauses.append((-sel, lut_keys[j], -y))
    else:  # pragma: no cover
        raise ValueError(f"cannot encode gate type {gtype}")


def _xor2(a: int, b: int, y: int, clauses: list):
    clauses.extend([(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)])


def _xnor2(a: int, b: int, y: int, clauses: list):
    clauses.extend([(y, a, b), (y, -a, -b), (-y, -a, b), (-y, a, -b)])


def _encode_copy(c: Circuit, alloc: _Alloc, input_vars: list[int],
                 key_vars: list[int], clauses: list, var_map: dict, tag: str = ""):
    """Encode one circuit copy over pre-allocated input/key variables.

    Returns (net_vars, output_vars): net_vars[g] is the variable of gate
    g's output.  Gate output variables are allocated in topological order
    before any gate clauses are emitted, so nets occupy a contiguous block.
    """
    if len(input_vars) != len(c.primary_inputs):
        raise ValueError("input variable count mismatch")
    if len(key_vars) != c.key_bits:
        raise ValueError("key variable count mismatch")
    key_slice = {}
    pos = 0
    for gid, width in c.key_layout():
        key_slice[gid] = key_vars[pos:pos + width]
        pos += width

    net = {}
    for idx, gid in enumerate(c.primary_inputs):
        net[gid] = input_vars[idx]
    for gid in c.key_inputs:
        net[gid] = key_slice[gid][0]
    for gid in c.topo_order:
        if c.gates[gid].type is not GateType.INPUT:
            net[gid] = alloc.new()
            var_map[c.gates[gid].name + tag] = net[gid]
    for gid in c.topo_order:
        g = c.gates[gid]
        if g.type is GateType.INPUT:
            continue
        _gate_clauses(g.type, net[gid], [net[f] for f in g.fanin], alloc,
                      clauses, key_slice.get(gid))
    return net, [net[g] for g in c.primary_outputs]


def tseitin(c: Circuit) -> CnfFormula:
    """Tseitin-encode a circuit (one copy, one key).

    Variables: primary inputs, key bits in layout order, gate outputs in
    topological order, auxiliaries, numbered from 1.  var_map carries net
    names; LUT table bits appear as ``<gate>$k<j>``.
    """
    alloc = _Alloc()
    var_map = {}
    input_vars = []
    for gid in c.primary_inputs:
        v = alloc.new()
        input_vars.append(v)
        var_map[c.gates[gid].name] = v
    key_vars = []
    for gid, width in c.key_layout():
        vs = alloc.new(width)
        vs = [vs] if width == 1 else vs
        key_vars.extend(vs)
        if c.gates[gid].type is GateType.INPUT:
            var_map[c.gates[gid].name] = vs[0]
        else:
            for j, v in enumerate(vs):
                var_map[f"{c.gates[gid].name}$k{j}"] = v
    clauses: list[Clause] = []
    _encode_copy(c, alloc, input_vars, key_vars, clauses, var_map)
    return CnfFormula(clauses, alloc.n, var_map)


@dataclass
class MiterContext:
    """Two-key miter plus accumulated DIP constraints.

    ``clauses`` holds gate semantics for both key copies and all DIP
    copies; ``diff_clauses`` holds the difference assertion (per-output
    xor-difference definitions plus the at-least-one-difference clause).
    The attack solves clauses + diff_clauses while hunting DIPs and
    ``clauses`` alone to extract a key.
    """

    obf: Circuit
    n_vars: int
    clauses: list[Clause]
    diff_clauses: list[Clause]
    input_vars: list[int]
    key1_vars: list[int]
    key2_vars: list[int]
    out1_vars: list[int]
    out2_vars: list[int]
    var_map: dict
    n_dips: int = 0

    @property
    def formula(self) -> CnfFormula:
        return CnfFormula(self.clauses + self.diff_clauses, self.n_vars, self.var_map)

    def key_constraint_formula(self) -> CnfFormula:
        """Accumulated constraints without the difference assertion."""
        return CnfFormula(list(self.clauses), self.n_vars, self.var_map)


def build_miter(obf: Circuit) -> MiterContext:
    """Build the two-key difference miter for an obfuscated circuit."""
    if obf.key_bits == 0:
        raise ValueError("circuit has no key bits; nothing to attack")
    alloc = _Alloc()
    var_map = {}
    input_vars = []
    for gid in obf.primary_inputs:
        v = alloc.new()
        input_vars.append(v)
        var_map[obf.gates[gid].name] = v

    def alloc_keys(tag):
        vars_ = []
        for gid, width in obf.key_layout():
            vs = alloc.new(width)
            vs = [vs] if width == 1 else vs
            vars_.extend(vs)
            name = obf.gates[gid].name
            if obf.gates[gid].type is GateType.INPUT:
                var_map[f"{name}{tag}"] = vs[0]
            else:
                for j, v in enumerate(vs):
                    var_map[f"{name}$k{j}{tag}"] = v
        return vars_

    k1 = alloc_keys("@1")
    k2 = alloc_keys("@2")
    clauses: list[Clause] = []
    _, y1 = _encode_copy(obf, alloc, input_vars, k1, clauses, var_map, "@1")
    _, y2 = _encode_copy(obf, alloc, input_vars, k2, clauses, var_map, "@2")

    diff: list[Clause] = []
    dvars = []
    for a, b in zip(y1, y2):
        d = alloc.new()
        _xor2(a, b, d, diff)
        dvars.append(d)
    diff.append(tuple(dvars))  # at least one output differs
    return MiterContext(obf, alloc.n, clauses, diff, input_vars, k1, k2, y1, y2, var_map)


def add_dip_constraint(m: MiterContext, dip, oracle_out) -> MiterContext:
    """Bind both key copies to agree with the oracle on one input pattern.

    Instantiates two fresh constrained circuit copies: internals fresh,
    keys bound to K1/K2, inputs unit-fixed to ``dip``, outputs unit-fixed
    to ``oracle_out``.
    """
    dip = [int(b) for b in dip]
    oracle_out = [int(b) for b in oracle_out]
    if len(dip) != len(m.input_vars):
        raise ValueError(f"dip has {len(dip)} bits, circuit has {len(m.input_vars)} inputs")
    if len(oracle_out) != len(m.out1_vars):
        raise ValueError(f"oracle output has {len(oracle_out)} bits, "
                         f"circuit has {len(m.out1_vars)} outputs")

    alloc = _Alloc()
    alloc.n = m.n_vars
    clauses = list(m.clauses)
    var_map = dict(m.var_map)
    idx = m.n_dips
    for copy_no, kvars in ((1, m.key1_vars), (2, m.key2_vars)):
        tag = f"@d{idx}.{copy_no}"
        in_vars = []
        for gid in m.obf.primary_inputs:
            v = alloc.new()
            in_vars.append(v)
            var_map[m.obf.gates[gid].name + tag] = v
        for v, bit in zip(in_vars, dip):
            clauses.append((v,) if bit else (-v,))
        _, outs = _encode_copy(m.obf, alloc, in_vars, kvars, clauses, var_map, tag)
        for v, bit in zip(outs, oracle_out):
            clauses.append((v,) if bit else (-v,))
    return MiterContext(m.obf, alloc.n, clauses, list(m.diff_clauses), m.input_vars,
                        m.key1_vars, m.key2_vars, m.out1_vars, m.out2_vars,
                        var_map, idx + 1)


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.n_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    n_vars = None
    clauses = []
    cur: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            n_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                cur.append(lit)
    if cur:
        raise ValueError("unterminated clause at end of DIMACS input")
    if n_vars is None:
        raise ValueError("missing 'p cnf' header")
    return CnfFormula(clauses, n_vars)
