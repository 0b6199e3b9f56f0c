"""CNF machinery for the oracle-guided attack: Tseitin encoding of
circuits, the append-only two-key miter with its per-DIP constraint
copies, and DIMACS output.

Literals follow the DIMACS convention: a nonzero int whose absolute value
is the variable index (>= 1) and whose sign is the polarity.  Variable
numbering is deterministic — inputs first, then key bits (copy 1 before
copy 2 in the miter), then gate outputs in topological order, then
auxiliary variables — so emitted DIMACS is reproducible byte for byte.
Every variable comes from one allocator.  The miter only ever appends
clauses and variables.  No formula carries net names: a net's variable
follows from the numbering alone.

The miter encodes the gates outside the key cone (``netlist.key_cone``)
once, over variables both key copies share: whatever the key, they
compute the same function, and a second copy would only make the solver
prove that again.  The cone is encoded once per key copy.  Each DIP
constraint is the cone again per key copy, over constants: the DIP
fixes every net outside the cone, and the model that produced it holds
their values, so those nets read the miter's constant-true literal or
its negation, which the solver folds away at level 0.

Gate function comes from ``netlist.REDUCTION``, as in the simulator: a
non-LUT gate is the AND, OR or XOR reduction of its fanins, and an
inverting type (NAND, NOR, XNOR, NOT) is its family's clauses with the
output literal negated.  A LUT is the gate with a key slot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import and_, or_

from .netlist import REDUCTION, Circuit, GateType, key_cone

Clause = tuple[int, ...]


@dataclass
class CnfFormula:
    clauses: list[Clause]
    n_vars: int

    def __post_init__(self):
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause at construction time")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range (n_vars={self.n_vars})")


class _Alloc:
    def __init__(self, n: int = 0):
        self.n = n

    def new(self, count: int = 1) -> list[int]:
        first = self.n + 1
        self.n += count
        return list(range(first, self.n + 1))


def _gate_clauses(gtype: GateType, y: int, xs: list[int], alloc: _Alloc,
                  clauses: list, lut_keys: list[int] | None):
    """Append the Tseitin clauses for gate ``y = gtype(xs)``; allocates aux vars.

    ``lut_keys`` holds a LUT's table variables and is None for every other
    type, which is encoded per ``netlist.REDUCTION``.
    """
    if lut_keys is not None:
        k = len(xs)
        for j in range(2 ** k):
            [sel] = alloc.new()  # sel <=> (inputs == minterm j)
            minterm = [xs[i] if (j >> (k - 1 - i)) & 1 else -xs[i] for i in range(k)]
            for lit in minterm:
                clauses.append((-sel, lit))
            clauses.append(tuple([sel] + [-lit for lit in minterm]))
            clauses.append((-sel, -lut_keys[j], y))
            clauses.append((-sel, lut_keys[j], -y))
        return
    op, inverted = REDUCTION[gtype]
    if inverted:
        y = -y
    if op is and_:
        for x in xs:
            clauses.append((-y, x))
        clauses.append(tuple([y] + [-x for x in xs]))
    elif op is or_:
        for x in xs:
            clauses.append((y, -x))
        clauses.append(tuple([-y] + xs))
    else:  # xor: fold arity-m into a chain of 2-input xors
        acc = xs[0]
        for x in xs[1:-1]:
            [t] = alloc.new()
            _xor2(acc, x, t, clauses)
            acc = t
        _xor2(acc, xs[-1], y, clauses)


def _xor2(a: int, b: int, y: int, clauses: list):
    clauses.extend([(-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b)])


def _encode_copy(c: Circuit, alloc: _Alloc, net: dict[int, int], gates: Sequence[int],
                 key_vars: list[int], clauses: list) -> dict[int, int]:
    """Encode the logic gates ``gates``, in topological order, over ``net``.

    ``net`` maps the nets that ``gates`` read, other than key inputs, to
    variables.  Key inputs and LUT tables read ``key_vars``, laid out per
    ``Circuit.key_slices``.  Returns ``net`` extended by the key inputs
    and ``gates``.  Gate output variables are allocated before any gate
    clause is emitted, so they occupy a contiguous block, and the gates'
    auxiliaries follow it.
    """
    if len(key_vars) != c.key_bits:
        raise ValueError("key variable count mismatch")
    slices = c.key_slices
    net = {**net, **{gid: key_vars[slices[gid]][0] for gid in c.key_inputs}}
    net.update(zip(gates, alloc.new(len(gates))))
    for gid in gates:
        g = c.gates[gid]
        s = slices.get(gid)  # of the logic gates, only a LUT has a key slot
        _gate_clauses(g.type, net[gid], [net[f] for f in g.fanin], alloc,
                      clauses, None if s is None else key_vars[s])
    return net


def tseitin(c: Circuit) -> CnfFormula:
    """Tseitin-encode a circuit (one copy, one key).

    Variables, numbered from 1: the primary inputs in order, the key bits
    laid out per ``Circuit.key_slices`` (a key input is its slot's one
    bit, a LUT's table its slot's block), the gate outputs in
    ``logic_gates`` order, then auxiliaries.
    """
    alloc = _Alloc()
    input_vars = alloc.new(len(c.primary_inputs))
    key_vars = alloc.new(c.key_bits)
    clauses: list[Clause] = []
    _encode_copy(c, alloc, dict(zip(c.primary_inputs, input_vars)), c.logic_gates,
                 key_vars, clauses)
    return CnfFormula(clauses, alloc.n)


@dataclass
class MiterContext:
    """Two-key miter; :func:`add_dip_constraint` appends to it in place.

    ``clauses`` holds gate semantics (the gates outside the key cone
    once, the cone once per key copy), the xor-difference definition of
    each output inside the cone, the unit clause ``(true_var,)``, the
    at-least-one-difference clause guarded by the activation literal
    ``act``, then all DIP constraints.  The attack loads ``clauses`` and
    decides each DIP under the assumption ``act``; with ``act`` false
    only the key constraints bind.  ``formula`` writes that assumption
    as a unit clause.

    ``shared`` maps each net outside the key cone (the primary inputs
    and the gates outside the cone, never a key input) to its one
    variable, and ``cone_gates`` lists the cone's logic gates in
    topological order: what each DIP constraint encodes again.
    """

    obf: Circuit
    n_vars: int
    clauses: list[Clause]
    input_vars: list[int]
    key1_vars: list[int]
    key2_vars: list[int]
    act: int
    true_var: int
    shared: dict[int, int]
    cone_gates: list[int]

    @property
    def formula(self) -> CnfFormula:
        return CnfFormula(self.clauses + [(self.act,)], self.n_vars)


def build_miter(obf: Circuit) -> MiterContext:
    """Build the two-key difference miter for an obfuscated circuit.

    Variables: inputs ``1..|PI|``, key copy 1, key copy 2, the nets and
    auxiliaries outside the key cone, those of the cone for copy 1, then
    for copy 2, one difference per output inside the cone, the
    constant-true variable, and last the activation literal.  An output
    outside the cone cannot differ, so it gets no difference variable;
    with no output inside the cone, the guarded clause is ``(-act,)``.
    """
    if obf.key_bits == 0:
        raise ValueError("circuit has no key bits; nothing to attack")
    alloc = _Alloc()
    input_vars = alloc.new(len(obf.primary_inputs))
    k1 = alloc.new(obf.key_bits)
    k2 = alloc.new(obf.key_bits)
    cone = key_cone(obf)
    gates = obf.logic_gates
    clauses: list[Clause] = []
    # the gates outside the cone read no key bit, so either copy's key serves
    shared = _encode_copy(obf, alloc, dict(zip(obf.primary_inputs, input_vars)),
                          [g for g in gates if g not in cone], k1, clauses)
    cone_gates = [g for g in gates if g in cone]
    net1, net2 = (_encode_copy(obf, alloc, shared, cone_gates, k, clauses) for k in (k1, k2))
    outs = [g for g in obf.primary_outputs if g in cone]

    dvars = alloc.new(len(outs))
    for g, d in zip(outs, dvars):
        _xor2(net1[g], net2[g], d, clauses)
    true_var, act = alloc.new(2)
    clauses.append((true_var,))
    clauses.append(tuple(dvars) + (-act,))  # act -> some output differs
    for gid in obf.key_inputs:
        del shared[gid]
    return MiterContext(obf, alloc.n, clauses, input_vars, k1, k2, act, true_var,
                        shared, cone_gates)


def add_dip_constraint(m: MiterContext, model: dict, oracle_out) -> None:
    """Bind both key copies to agree with the oracle on one input pattern.

    ``model`` is the solver's model of ``m`` that produced the DIP: its
    inputs are the DIP, and its value of each net outside the key cone is
    that net's value under the DIP, whatever the key.  Appends to
    ``m.clauses`` the cone once per key copy, internals fresh and keys
    bound to K1/K2, with every net outside the cone read as
    ``true_var`` or its negation per ``model``, and units fixing each
    output inside the cone to ``oracle_out``.  An output outside the
    cone is already fixed by ``model``; one that disagrees with the
    oracle raises RuntimeError.
    """
    oracle_out = [int(b) for b in oracle_out]
    obf = m.obf
    n_po = len(obf.primary_outputs)
    if len(oracle_out) != n_po:
        raise ValueError(f"oracle output has {len(oracle_out)} bits, "
                         f"circuit has {n_po} outputs")
    outs = []
    for g, bit in zip(obf.primary_outputs, oracle_out):
        v = m.shared.get(g)
        if v is None:
            outs.append((g, bit))
        elif model[v] != bit:
            raise RuntimeError(f"solver model gives output {obf.gates[g].name!r} "
                               f"{int(model[v])} where the oracle gives {bit}")
    t = m.true_var
    consts = {g: t if model[v] else -t for g, v in m.shared.items()}
    alloc = _Alloc(m.n_vars)
    for kvars in (m.key1_vars, m.key2_vars):
        net = _encode_copy(obf, alloc, consts, m.cone_gates, kvars, m.clauses)
        m.clauses.extend((net[g],) if bit else (-net[g],) for g, bit in outs)
    m.n_vars = alloc.n


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.n_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"

