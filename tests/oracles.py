"""Independent reference implementations used to cross-check the package,
and the test-only circuits, datasets, batch simulation and DIMACS reader
built on it.

Everything here is deliberately written in a different style from the
library code: event-driven scalar simulation instead of vectorized
topological sweeps, exhaustive enumeration instead of search.  Slow and
obviously correct.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import numpy as np

from locktime.cnf import CnfFormula, MiterContext, tseitin
from locktime.experiments import DatasetRecord
from locktime.icnet import Model, batch_mse, loss_and_grads, new_model, split_indices
from locktime.netlist import (KEY_INPUT_PREFIX, Circuit, Gate, GateType, pack_words,
                              parse_bench, simulate_words)
from locktime.numerics import adam_step, init_adam
from locktime.obfuscate import ObfuscationKind, random_obfuscate

_BOOL_FUNCS = {
    GateType.AND: lambda vs: all(vs),
    GateType.NAND: lambda vs: not all(vs),
    GateType.OR: lambda vs: any(vs),
    GateType.NOR: lambda vs: not any(vs),
    GateType.XOR: lambda vs: sum(vs) % 2 == 1,
    GateType.XNOR: lambda vs: sum(vs) % 2 == 0,
    GateType.NOT: lambda vs: not vs[0],
    GateType.BUFF: lambda vs: vs[0],
}


def simulate_many(c: Circuit, inputs, key=()) -> np.ndarray:
    """The package's word simulator on a batch of input vectors, packed and
    unpacked at the edge: ``inputs`` is (batch, |PI|) of 0/1, ``key`` a flat
    key vector laid out per ``Circuit.key_slices``.  Returns (batch, |PO|)
    uint8."""
    inputs = np.asarray(inputs, dtype=np.uint8)
    if inputs.ndim != 2 or inputs.shape[1] != len(c.primary_inputs):
        raise ValueError(f"expected inputs of shape (batch, {len(c.primary_inputs)}), "
                         f"got {inputs.shape}")
    batch = inputs.shape[0]
    nbytes = (batch + 7) // 8
    outs = simulate_words(c, pack_words(inputs), np.asarray(key, dtype=np.uint8).ravel().tolist(),
                          (1 << batch) - 1)
    raw = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in outs), np.uint8)
    bits = np.unpackbits(raw.reshape(len(outs), nbytes), axis=1, count=batch, bitorder="little")
    return np.ascontiguousarray(bits.T)


def word_rows(words, count: int) -> np.ndarray:
    """(count, len(words)) uint8 array whose row b holds bit b of each word."""
    return np.array([[w >> b & 1 for w in words] for b in range(count)],
                    dtype=np.uint8).reshape(count, len(words))


def all_input_vectors(n_inputs: int) -> np.ndarray:
    """All 2^n input vectors as a (2^n, n) array, MSB-first row encoding."""
    if n_inputs < 0:
        raise ValueError("n_inputs must be >= 0")
    idx = np.arange(1 << n_inputs, dtype=np.int64)
    cols = [(idx >> (n_inputs - 1 - i)) & 1 for i in range(n_inputs)]
    return np.stack(cols, axis=1).astype(np.uint8) if n_inputs else np.zeros((1, 0), np.uint8)


def eval_gate(gtype: GateType, values, lut_table=None) -> bool:
    if gtype is GateType.LUT:
        idx = 0
        for v in values:  # first fanin = MSB
            idx = (idx << 1) | int(bool(v))
        return bool(lut_table[idx])
    return _BOOL_FUNCS[gtype]([bool(v) for v in values])


def key_layout_reference(c: Circuit):
    """Ordered key slots: (gate_id, n_bits) per key input, then per LUT.

    Key-input bits come first in ``key_inputs`` list order, then each
    LUT's 2^k table block in ascending gate-id order.
    """
    slots = [(gid, 1) for gid in c.key_inputs]
    for g in c.gates:
        if g.type is GateType.LUT:
            slots.append((g.id, 2 ** len(g.fanin)))
    return slots


def event_driven_simulate(c: Circuit, inputs, key=()):
    """Reference simulator: worklist of gates whose fanins are all known."""
    key = list(key)
    key_slots = {}
    pos = 0
    for gid, width in key_layout_reference(c):
        key_slots[gid] = key[pos:pos + width]
        pos += width
    assert pos == len(key), f"key length {len(key)} != layout {pos}"

    known = {}
    for gid, bit in zip(c.primary_inputs, inputs):
        known[gid] = bool(bit)
    for gid in c.key_inputs:
        known[gid] = bool(key_slots[gid][0])

    fanout = {g.id: [] for g in c.gates}
    missing = {}
    for g in c.gates:
        if g.type is GateType.INPUT:
            continue
        missing[g.id] = sum(1 for f in g.fanin if f not in known)
        for f in g.fanin:
            fanout[f].append(g.id)

    work = [gid for gid, m in missing.items() if m == 0]
    while work:
        gid = work.pop()
        if gid in known:
            continue
        g = c.gates[gid]
        table = key_slots.get(gid) if g.type is GateType.LUT else None
        known[gid] = eval_gate(g.type, [known[f] for f in g.fanin], table)
        for nxt in fanout[gid]:
            if nxt in known:
                continue
            missing[nxt] -= 1
            if missing[nxt] == 0:
                work.append(nxt)

    return tuple(int(known[gid]) for gid in c.primary_outputs)


def enumerate_cnf(clauses, n_vars):
    """All satisfying assignments of a clause list, by brute force.

    Clauses are lists of nonzero ints (DIMACS convention).  Returns a list
    of dicts var -> bool.  Only sane for small n_vars.
    """
    sols = []
    for m in range(1 << n_vars):
        assign = {v: bool((m >> (v - 1)) & 1) for v in range(1, n_vars + 1)}
        ok = True
        for cl in clauses:
            if not any(assign[abs(l)] == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            sols.append(assign)
    return sols


def cnf_is_satisfiable(clauses, n_vars):
    for m in range(1 << n_vars):
        if all(any(((m >> (abs(l) - 1)) & 1) == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def enumerate_models_np(clauses, n_vars):
    """Vectorized brute-force model enumeration.

    Returns a (n_models, n_vars) uint8 matrix; column j is variable j+1.
    Independent of both the scalar enumerator above and the package's
    solver; usable up to ~22 variables.
    """
    import numpy as np

    count = 1 << n_vars
    idx = np.arange(count, dtype=np.uint64)
    sat = np.ones(count, dtype=bool)
    for cl in clauses:
        cl_sat = np.zeros(count, dtype=bool)
        for lit in cl:
            bit = ((idx >> np.uint64(abs(lit) - 1)) & np.uint64(1)).astype(bool)
            cl_sat |= bit if lit > 0 else ~bit
        sat &= cl_sat
    models = np.nonzero(sat)[0].astype(np.uint64)
    if n_vars == 0:
        return np.zeros((models.size, 0), dtype=np.uint8)
    cols = [((models >> np.uint64(v)) & np.uint64(1)).astype(np.uint8)
            for v in range(n_vars)]
    return np.stack(cols, axis=1)


def fanout_closure(c: Circuit, sources) -> set[int]:
    """Every gate reachable from ``sources`` along fanin-to-gate edges,
    the sources included: one depth-first walk per source."""
    fanout = {g.id: [] for g in c.gates}
    for g in c.gates:
        for f in g.fanin:
            fanout[f].append(g.id)
    seen = set()
    for src in sources:
        stack = [src]
        while stack:
            gid = stack.pop()
            if gid not in seen:
                seen.add(gid)
                stack.extend(fanout[gid])
    return seen


def tseitin_vars(c: Circuit) -> dict[str, int]:
    """The variable ``cnf.tseitin`` gives each net and each LUT table bit,
    rebuilt from the numbering its docstring documents: the primary inputs
    in order from 1, then the key bits slot by slot per
    :func:`key_layout_reference` (a key input is its slot's one bit; bit j
    of a LUT ``y``'s table is named ``y$k<j>``), then the logic gates in
    ``logic_gates`` order.  Auxiliaries come after and have no name."""
    names = {}
    var = 0
    for gid in c.primary_inputs:
        var += 1
        names[c.gates[gid].name] = var
    for gid, width in key_layout_reference(c):
        g = c.gates[gid]
        for j in range(width):
            var += 1
            names[g.name if g.type is GateType.INPUT else f"{g.name}$k{j}"] = var
    for gid in c.logic_gates:
        var += 1
        names[c.gates[gid].name] = var
    return names


def two_copy_miter(obf: Circuit) -> MiterContext:
    """The miter with two full circuit copies, one per key, and a difference
    variable for every output: ``cnf.build_miter`` before it shared the
    gates outside the key cone.

    Both copies are the single-key Tseitin encoding, renumbered.
    Variables: inputs, key copy 1, key copy 2, copy 1's nets and
    auxiliaries, copy 2's, one difference per output, the constant-true
    variable, then ``act``.  Only the inputs are shared, and every logic
    gate is in ``cone_gates``.
    """
    t = tseitin(obf)
    n_pi, k = len(obf.primary_inputs), obf.key_bits
    body = t.n_vars - n_pi - k  # nets and auxiliaries of one copy

    def renumber(copy):
        def var(v):
            if v <= n_pi:
                return v
            return v + copy * k if v <= n_pi + k else v + k + copy * body
        return lambda lit: var(lit) if lit > 0 else -var(-lit)

    clauses = []
    for copy in (0, 1):
        clauses += [tuple(map(renumber(copy), cl)) for cl in t.clauses]
    names = tseitin_vars(obf)
    outs = [names[obf.gates[g].name] for g in obf.primary_outputs]
    first = n_pi + 2 * k + 2 * body
    dvars = list(range(first + 1, first + len(outs) + 1))
    for y, d in zip(outs, dvars):
        a, b = renumber(0)(y), renumber(1)(y)
        clauses += [(-d, a, b), (-d, -a, -b), (d, -a, b), (d, a, -b)]
    true_var = first + len(outs) + 1
    act = true_var + 1
    clauses += [(true_var,), tuple(dvars) + (-act,)]
    return MiterContext(obf, act, clauses, list(range(1, n_pi + 1)),
                        list(range(n_pi + 1, n_pi + k + 1)),
                        list(range(n_pi + k + 1, n_pi + 2 * k + 1)), act, true_var,
                        {g: i + 1 for i, g in enumerate(obf.primary_inputs)},
                        list(obf.logic_gates))


def full_copy_dip_constraint(m: MiterContext, dip, oracle_out) -> None:
    """The DIP constraint as two full circuit copies: ``cnf.add_dip_constraint``
    before it encoded only the key cone.

    Per key copy, in order: fresh input variables unit-fixed to ``dip``,
    the single-key Tseitin encoding renumbered onto them, the copy's key
    variables and fresh nets and auxiliaries, then every output
    unit-fixed to ``oracle_out``.  Appends to ``m.clauses``, raises
    ``m.n_vars``.
    """
    t = tseitin(m.obf)
    n_pi, k = len(m.obf.primary_inputs), m.obf.key_bits
    names = tseitin_vars(m.obf)
    outs = [names[m.obf.gates[g].name] for g in m.obf.primary_outputs]
    for kvars in (m.key1_vars, m.key2_vars):
        base = m.n_vars

        def var(v):
            if n_pi < v <= n_pi + k:
                return kvars[v - n_pi - 1]
            return base + v if v <= n_pi else base + v - k

        def lit(x):
            return var(x) if x > 0 else -var(-x)
        m.clauses += [(lit(i + 1) if b else -lit(i + 1),) for i, b in enumerate(dip)]
        m.clauses += [tuple(map(lit, cl)) for cl in t.clauses]
        m.clauses += [(lit(y) if b else -lit(y),) for y, b in zip(outs, oracle_out)]
        m.n_vars = base + t.n_vars - k


def dip_model(m: MiterContext, dip) -> dict:
    """The values that any model of ``m`` with inputs ``dip`` gives the nets
    outside the key cone (``m.shared``'s variables), found by reference
    simulation under the all-zero key: no key changes them."""
    c = m.obf
    probe = Circuit(c.gates, c.primary_inputs, tuple(m.shared), c.key_inputs)
    values = event_driven_simulate(probe, dip, [0] * c.key_bits)
    return {v: bool(b) for v, b in zip(m.shared.values(), values)}


_RAND_TYPES = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
               GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUFF]


def parse_dimacs(text: str) -> CnfFormula:
    """Read what ``cnf.to_dimacs`` writes: a ``p cnf`` header, then one
    0-terminated clause per line."""
    header, *lines = text.splitlines()
    n_vars = int(header.split()[2])
    return CnfFormula([tuple(map(int, line.split()[:-1])) for line in lines], n_vars)


def random_circuit(rng: random.Random, n_inputs=None, n_gates=None) -> Circuit:
    """Random small DAG over the eight standard gate types."""
    n_inputs = n_inputs if n_inputs is not None else rng.randint(1, 4)
    n_gates = n_gates if n_gates is not None else rng.randint(1, 8)
    gates = []
    for i in range(n_inputs):
        gates.append(Gate(i, f"pi{i}", GateType.INPUT))
    for j in range(n_gates):
        gid = n_inputs + j
        gtype = rng.choice(_RAND_TYPES)
        arity = 1 if gtype in (GateType.NOT, GateType.BUFF) else rng.randint(2, 3)
        fanin = tuple(rng.randrange(gid) for _ in range(arity))
        gates.append(Gate(gid, f"g{gid}", gtype, fanin))
    n_pos = rng.randint(1, min(3, n_gates))
    pos = tuple(rng.sample(range(n_inputs, n_inputs + n_gates), n_pos))
    return Circuit(tuple(gates), tuple(range(n_inputs)), pos)


def layered_dag(n_gates: int) -> Circuit:
    """A seeded layered random DAG from the benchmark's generator."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "randdag.py"
    spec = importlib.util.spec_from_file_location("randdag", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return parse_bench(mod.layered_dag_bench(seed=3, n_gates=n_gates))


def chain_circuit(n_gates: int) -> Circuit:
    """An inverter chain: src -> n0 -> ... -> n<k-1> (output)."""
    if n_gates < 1:
        raise ValueError("need at least one gate")
    lines = ["INPUT(src)"]
    prev = "src"
    for i in range(n_gates):
        lines.append(f"n{i} = NOT({prev})")
        prev = f"n{i}"
    lines.append(f"OUTPUT({prev})")
    return parse_bench("\n".join(lines) + "\n")


def synthetic_mask_records(count: int, seed: int, n_gates: int, coeff: float,
                           noise: float, m_range):
    """Inverter-chain instances whose log label is linear in the mask count.

    Each instance replaces m random chain gates with 1-input LUTs and
    gets the label expm1(coeff * m + N(0, noise^2)), i.e. a log1p-scale
    label of coeff * m plus Gaussian noise.  Returns (base, records).
    """
    base = chain_circuit(n_gates)
    kind = ObfuscationKind.parse("lut1")
    rng = np.random.default_rng(seed)
    lo, hi = m_range
    records = []
    for i in range(count):
        m = int(rng.integers(lo, hi + 1))
        inst = random_obfuscate(base, m, kind, int(rng.integers(0, 2**31 - 1)))
        g = coeff * m + rng.normal(0.0, noise)
        labels = {"synthetic": float(np.expm1(g))}
        records.append(DatasetRecord(f"syn-{i:05d}", inst, labels, False, 0,
                                     "SYNTHETIC"))
    return base, records


# --- sequential locking: one validated Circuit per location ---

def _seq_keygate(c: Circuit, gate_id: int, gtype: GateType) -> Circuit:
    used = {c.gates[g].name for g in c.key_inputs}
    i = len(used)
    while f"{KEY_INPUT_PREFIX}{i}" in used:
        i += 1
    target = c.gates[gate_id]
    inner_id, key_id = c.n, c.n + 1
    gates = list(c.gates)
    gates[gate_id] = Gate(gate_id, target.name, gtype, (inner_id, key_id))
    gates.append(Gate(inner_id, f"{target.name}$in", target.type, target.fanin, target.lut_bits))
    gates.append(Gate(key_id, f"{KEY_INPUT_PREFIX}{i}", GateType.INPUT))
    return Circuit(tuple(gates), c.primary_inputs, c.primary_outputs,
                   c.key_inputs + (key_id,))


def reference_lut_table(target: Gate, arity_k: int) -> tuple[int, ...]:
    """LUT key for ``target``: simulate a throwaway circuit of the gate alone
    over fresh inputs, then repeat each row across the padding bits."""
    m = len(target.fanin)
    ins = [Gate(i, f"{target.name}$f{i}", GateType.INPUT) for i in range(m)]
    alone = Circuit(tuple(ins) + (Gate(m, target.name, target.type, tuple(range(m))),),
                    tuple(range(m)), (m,))
    own = simulate_many(alone, all_input_vectors(m))[:, 0]
    return tuple(int(b) for b in np.repeat(own, 2 ** (arity_k - m)))


def _seq_lut(c: Circuit, gate_id: int, arity_k: int):
    target = c.gates[gate_id]
    m = len(target.fanin)
    pos = {g: i for i, g in enumerate(c.topo_order)}
    exclude = set(target.fanin) | {gate_id}
    before = [g for g in c.topo_order[: pos[gate_id]]
              if g not in exclude and g not in c.key_inputs]
    before.sort(key=lambda g: -pos[g])
    if len(before) < arity_k - m:
        raise ValueError(f"not enough nets to pad LUT at gate {target.name!r}: "
                         f"need {arity_k - m}, found {len(before)}")
    fanin = target.fanin + tuple(before[:arity_k - m])
    table = reference_lut_table(target, arity_k)
    gates = list(c.gates)
    gates[gate_id] = Gate(gate_id, target.name, GateType.LUT, fanin, table)
    return Circuit(tuple(gates), c.primary_inputs, c.primary_outputs, c.key_inputs), table


def sequential_lock(base: Circuit, kind: str, locations):
    """Lock one location at a time, each step a whole new Circuit whose
    topological order pads the next LUT; returns (circuit, key_truth, mask)."""
    cur = base
    if kind in ("xor", "xnor"):
        for g in locations:
            cur = _seq_keygate(cur, g, GateType.XOR if kind == "xor" else GateType.XNOR)
        key_truth = [0 if kind == "xor" else 1] * len(locations)
    else:
        tables = {}
        for g in locations:
            cur, tables[g] = _seq_lut(cur, g, int(kind[3:]))
        key_truth = [b for g in sorted(locations) for b in tables[g]]
    mask = [1 if g in locations else 0 for g in range(cur.n)]
    return cur, tuple(key_truth), tuple(mask)


def random_3sat(rng: random.Random, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), min(3, n_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


# --- structure matrices ---

def dense_graph_matrix(c: Circuit, kind="adjacency"):
    """Dense n x n structure matrix: the definition ``graph_matrix`` lists the nonzeros of.

    ``w[i, j] = w[j, i] = 1`` iff gate j is a fanin of gate i, and the
    diagonal is 1.  The laplacian is ``D - W`` over the same connectivity.
    """
    n = c.n
    w = np.eye(n)
    for g in c.gates:
        for f in g.fanin:
            w[g.id, f] = w[f, g.id] = 1.0
    if kind == "adjacency":
        return w
    return np.diag(w.sum(axis=1)) - w


def densify(a, n: int) -> np.ndarray:
    """The n x n matrix whose entries the ``(rows, cols, vals)`` triple lists."""
    rows, cols, vals = a
    w = np.zeros((n, n), dtype=np.float64)
    w[rows, cols] = vals
    return w


def edge_list(w) -> tuple:
    """The ``(rows, cols, vals)`` triple of a small dense matrix's nonzeros."""
    w = np.asarray(w, dtype=np.float64)
    rows, cols = np.nonzero(w)
    return rows, cols, w[rows, cols]


def random_structure(rng: np.random.Generator, n: int, p: float) -> tuple:
    """Symmetric random structure with self-loops, as an edge list.

    Each pair is linked with probability about p; the draw consumes one
    n x n block of ``rng.random``.
    """
    w = (rng.random((n, n)) < p).astype(float)
    w = np.maximum(w, w.T)
    np.fill_diagonal(w, 1.0)
    return edge_list(w)


def same_rows_in_edge_order(a: tuple, b: tuple) -> bool:
    """Whether every row of a and b holds the same (col, val) terms in edge order."""
    ia, ib = np.argsort(a[0], kind="stable"), np.argsort(b[0], kind="stable")
    return all(np.array_equal(p[ia], q[ib]) for p, q in zip(a, b))


# --- training ---

def reference_train(dataset: list, config):
    """The plain epoch loop ``icnet.train`` must match bit for bit.

    Each epoch draws its permutation first, steps ADAM on every
    minibatch's ``loss_and_grads``, then recomputes the train and
    held-out MSE: the first minibatch of the next epoch repeats forward
    passes the train MSE already ran.  Returns (log rows without
    wall_seconds, params, train indices, test indices, epochs run).
    """
    usable = [s for s in dataset if not s.censored]
    train_idx, test_idx = split_indices(len(usable), config.seed)
    train_set = [usable[i] for i in train_idx]
    test_set = [usable[i] for i in test_idx]
    model = new_model(config)
    state = init_adam(model.params, lr=config.learning_rate)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    log = []
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(len(train_set))
        for lo in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[lo:lo + config.batch_size]]
            _, grads = loss_and_grads(model, batch)
            new_params, state = adam_step(model.params, grads, state)
            model = Model(model.config, new_params)
        log.append({"epoch": epoch, "train_mse": batch_mse(model, train_set),
                    "val_mse": batch_mse(model, test_set)})
        if len(log) > 10:
            prev, last = log[-11]["train_mse"], log[-1]["train_mse"]
            if abs(prev - last) / max(prev, 1e-12) < config.convergence_tol:
                break
    return log, model.params, train_idx, test_idx, len(log)


def numeric_grads(model, samples, h: float) -> dict:
    """Central-difference gradients of ``batch_mse``, one parameter entry at a time."""
    grads = {}
    for name, value in model.params.items():
        grads[name] = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            plus = {k: v.copy() for k, v in model.params.items()}
            plus[name][idx] += h
            minus = {k: v.copy() for k, v in model.params.items()}
            minus[name][idx] -= h
            lp = batch_mse(Model(model.config, plus), samples)
            lm = batch_mse(Model(model.config, minus), samples)
            grads[name][idx] = (lp - lm) / (2 * h)
    return grads
