"""locktime — logic-locking SAT-attack datasets and a graph-convolutional
regressor for predicting deobfuscation runtime."""

from importlib.resources import files

from .netlist import (
    BenchParseError,
    Circuit,
    CircuitError,
    Gate,
    GateType,
    emit_bench,
    graph_matrix,
    parse_bench,
    simulate,
)
from .obfuscate import (
    ObfuscationInstance,
    ObfuscationKind,
    random_obfuscate,
)
from .cnf import CnfFormula, build_miter, to_dimacs, tseitin
from .satsolve import SolveResult, SolveStatus, solve
from .attack import AttackResult, AttackStatus, runtime_labels, sat_attack
from .icnet import (
    Model,
    ModelConfig,
    Prediction,
    build_graph_input,
    forward,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"


def load_bundled(name: str) -> Circuit:
    """Load one of the bench files shipped with the package (e.g. "c17")."""
    path = files("locktime").joinpath("benches", f"{name}.bench")
    return parse_bench(path.read_text())
