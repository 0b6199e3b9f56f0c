"""Oracle-guided SAT attack (DIP loop) against locked circuits.

The attack owns a miter with two key copies, which share the gates
outside the key cone and each hold their own copy of the cone, and one
solver that lives for the whole attack: it loads the miter once, then
only each DIP's two new constrained cone copies, and keeps its learnt
clauses from call to call.  Each DIP call assumes the miter's activation
literal ``act``, which switches the at-least-one-difference clause on.
While the miter is satisfiable, the model yields a distinguishing input
pattern (DIP): an input on which the two keys disagree.  The oracle —
simulation of the unlocked base circuit — labels the DIP, and both key
copies are constrained to reproduce that label.  The same model gives
every net outside the key cone its value under the DIP, so each
constraint encodes only the cone, over those values as constants, and
an output outside the cone whose model value disagrees with the oracle
stops the attack with RuntimeError.  When the miter goes
unsatisfiable, every key consistent with the accumulated constraints is
functionally correct; one is extracted by one more solve on the same
solver, with ``act`` false.  Both simulations are word-parallel
(``netlist.simulate_words``): the oracle query is a batch of one vector,
and the key check simulates the base and the locked circuit once each
over the same input words and compares their output words.

Effort counters from all solver calls are summed and exposed as runtime
labels, raw counts that the regressor log-transforms itself;
``conflicts`` is reproducible across machines, wall time is the natural
target but machine-dependent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula, add_dip_constraint, build_miter
from .netlist import Circuit, exhaustive_words, pack_words, simulate, simulate_words
from .obfuscate import ObfuscationInstance
from .satsolve import Solver, SolverStats, SolveStatus, solve

EXHAUSTIVE_PI_LIMIT = 16
RANDOM_VERIFY_VECTORS = 1000
VERIFY_SEED = 0  # seeds the random verification vectors


class AttackStatus:
    SOLVED = "SOLVED"
    TIMEOUT = "TIMEOUT"


@dataclass
class AttackResult:
    recovered_key: tuple[int, ...] | None
    dips: list[tuple[int, ...]]  # one per DIP-loop iteration
    wall_seconds: float
    total_stats: SolverStats
    status: str


LABEL_KINDS = ("wall_seconds", "conflicts")


def verification_words(c: Circuit) -> tuple[list[int], int]:
    """Each primary input's word over the verification vectors, and their
    count: every input vector when |PI| <= 16, else 1000 seeded random ones."""
    n = len(c.primary_inputs)
    if n <= EXHAUSTIVE_PI_LIMIT:
        return exhaustive_words(n), 1 << n
    rng = np.random.default_rng(VERIFY_SEED)
    vecs = rng.integers(0, 2, size=(RANDOM_VERIFY_VECTORS, n), dtype=np.uint8)
    return pack_words(vecs), RANDOM_VERIFY_VECTORS


def keys_equivalent(base: Circuit, obf: Circuit, key) -> bool:
    words, count = verification_words(base)
    ones = (1 << count) - 1
    return simulate_words(base, words, (), ones) == simulate_words(obf, words, key, ones)


def sat_attack(inst: ObfuscationInstance,
               timeout_seconds: float | None = None) -> AttackResult:
    """Run the DIP loop on one instance; see module docstring.

    ``timeout_seconds`` bounds the whole loop; a partial result with
    status TIMEOUT is returned when exceeded.  It must be > 0 (``inf``
    allowed); anything else, nan included, raises ValueError before any
    solving.  The wall clock covers miter construction through key
    extraction and the functional-equivalence check of the recovered key.
    """
    if timeout_seconds is not None and not timeout_seconds > 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout_seconds!r}")
    t0 = time.perf_counter()
    deadline = None if timeout_seconds is None else t0 + timeout_seconds

    def remaining():
        if deadline is None:
            return None
        return max(deadline - time.perf_counter(), 1e-9)

    total = SolverStats()
    dips: list[tuple[int, ...]] = []

    def done(key, status):
        return AttackResult(key, dips, time.perf_counter() - t0,
                            total, status)

    miter = build_miter(inst.obfuscated)
    solver = Solver()
    loaded = 0  # clauses of the miter the solver holds
    while True:
        batch = CnfFormula(miter.clauses[loaded:], miter.n_vars)
        loaded = len(miter.clauses)
        res = solve(batch, remaining(), solver, (miter.act,))
        total = total.merged(res.stats)
        if res.status is SolveStatus.TIMEOUT:
            return done(None, AttackStatus.TIMEOUT)
        if res.status is SolveStatus.UNSAT:
            break
        dip = tuple(int(res.model[v]) for v in miter.input_vars)
        dips.append(dip)
        add_dip_constraint(miter, res.model, simulate(inst.base, dip))

    res = solve(CnfFormula([(-miter.act,)], miter.n_vars), remaining(), solver)
    total = total.merged(res.stats)
    if res.status is SolveStatus.TIMEOUT:
        return done(None, AttackStatus.TIMEOUT)
    if res.status is not SolveStatus.SAT:
        raise RuntimeError("internal error: key constraints must stay satisfiable")
    key = tuple(int(res.model[v]) for v in miter.key1_vars)

    if not keys_equivalent(inst.base, inst.obfuscated, key):
        raise RuntimeError("attack soundness violation: recovered key fails "
                           "functional equivalence")  # pragma: no cover
    return done(key, AttackStatus.SOLVED)


def runtime_labels(r: AttackResult) -> dict:
    """Raw attack effort per kind in ``LABEL_KINDS``: wall seconds and
    summed solver conflicts (as floats)."""
    return {
        "wall_seconds": r.wall_seconds,
        "conflicts": float(r.total_stats.conflicts),
    }


def attack_log_record(instance_id: str, inst: ObfuscationInstance,
                      r: AttackResult) -> dict:
    """One JSON-serializable line for the attack log."""
    return {
        "id": instance_id,
        "n_locations": len(inst.locations),
        "iterations": len(r.dips),
        "wall_seconds": r.wall_seconds,
        "decisions": r.total_stats.decisions,
        "propagations": r.total_stats.propagations,
        "conflicts": r.total_stats.conflicts,
        "status": r.status,
    }
