"""Source-level rules for the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locktime"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_package_imports_only_the_standard_library_and_numpy():
    # scipy and pytest are test extras: the package itself must not need them
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library and numpy: {found}"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_every_import_is_used():
    # the package's __init__ imports are its public API, so they are exempt
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(Path(__file__).resolve().parent.glob("*.py"))
    found = [hit for path in sources for hit in _unused_imports(path)]
    assert not found, f"unused imports: {found}"


# defaulted parameters that no package or benchmark call sets, kept on purpose
KNOB_EXEMPT = {
    "main(argv)": "the CLI entry point; tests pass argv, the console script does not",
    "simulate(key)": "the key is data, not a setting: unlocked circuits take none",
    "fit_linear(ridge_lambda)": "only tests fit ridge; experiments.evaluate fits least squares",
    "baseline_aggregate_features": "test-only baseline helper, to move out of the package",
}


def _defaulted_params(path: Path):
    """(param, callee name, positional index or None, line) per defaulted param."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                name = cls if cls and child.name == "__init__" else child.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0  # self, bound at the call
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                out.extend((arg, name, i - skip) for i, arg in enumerate(pos) if i >= first)
                out.extend((arg, name, None)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return out


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant in disguise: each
    # value it could take is a configuration nobody runs
    benchmarks = PACKAGE.parent.parent / "benchmarks"
    calls = {}  # callee name -> calls
    for path in sorted(PACKAGE.glob("*.py")) + sorted(benchmarks.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, param, index):
        return (any(k.arg in (None, param) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index))

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for arg, name, index in _defaulted_params(path):
            knob = f"{name}({arg.arg})"
            if (knob not in KNOB_EXEMPT and name not in KNOB_EXEMPT and not any(
                    passed(c, arg.arg, index) for c in calls.get(name, ()))):
                found.append(f"{path.name}:{arg.lineno} {knob}")
    assert not found, f"defaulted parameters no call sets: {found}"


# top-level package names that no package or benchmark code refers to, kept on purpose
CALLER_EXEMPT = {
    "baseline_gcn_config": "the GCN baseline row of the planned `compare` command",
    "baseline_aggregate_features": "the aggregate-feature rows of the planned `compare` command",
    "linear_predict": "scores the linear rows of the planned `compare` command",
    "mean_predictor_mse": "the mean-predictor row of the planned `compare` command",
}


def test_every_package_function_has_a_package_caller():
    # a function or class that only tests use is test code shipped in the package
    benchmarks = PACKAGE.parent.parent / "benchmarks"
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(benchmarks.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in used and node.name not in CALLER_EXEMPT):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, f"package names that only tests use: {found}"


def _found_outside(allowed, match) -> list[str]:
    """``file:line`` of each node that ``match`` accepts, in every package
    file but inside none of the top-level definitions ``allowed`` names."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if f"{path.name}:{getattr(top, 'name', '')}" not in allowed:
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(top) if match(node)]
    return found


def _names(node) -> tuple:
    return getattr(node, "id", None), getattr(node, "attr", None)


# the only functions that may build a Circuit: each build validates and sorts
CIRCUIT_BUILDERS = {"netlist.py:parse_bench", "obfuscate.py:apply_at_locations"}


def test_circuits_are_built_only_by_the_parser_and_the_locker():
    # a throwaway Circuit pays a full validation and Kahn sort for one answer
    found = _found_outside(CIRCUIT_BUILDERS, lambda node: isinstance(node, ast.Call)
                           and "Circuit" in _names(node.func))
    assert not found, f"Circuit built outside {sorted(CIRCUIT_BUILDERS)}: {found}"


# the one function that decodes a JSON file
JSON_READER = "netlist.py:read_json_object"


def test_json_files_are_read_only_by_the_one_reader():
    # every file the package decodes is refused by name in one place when it
    # is no JSON or no object
    found = _found_outside({JSON_READER}, lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
        and getattr(node.value, "id", None) == "json")
        or (isinstance(node, ast.ImportFrom) and node.module == "json"))
    assert not found, f"JSON decoded outside {JSON_READER}: {found}"


# the functions that may parse bench text: the file reader, and the reader of
# the bench files shipped with the package
BENCH_READERS = {"netlist.py:read_bench", "__init__.py:load_bundled"}


def test_bench_files_are_read_only_by_the_one_reader():
    # every bench file the package parses is refused in one place, by name
    found = _found_outside(BENCH_READERS, lambda node: "parse_bench" in _names(node))
    assert not found, f"parse_bench named outside {sorted(BENCH_READERS)}: {found}"


def _spells_nan(node) -> bool:
    """``float("nan")`` in any spelling, or numpy's or math's NaN constant."""
    if isinstance(node, ast.Attribute):
        return node.attr.lower() == "nan" and getattr(node.value, "id", None) in (
            "np", "numpy", "math")
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
            and any(isinstance(a, ast.Constant) and isinstance(a.value, str)
                    and a.value.strip().lstrip("+-").lower() == "nan" for a in node.args))


def test_no_package_code_makes_a_nan():
    # an undefined statistic is None where it is computed, and JSON output
    # refuses every non-finite number; a NaN would become the JSON error
    found = _found_outside(set(), _spells_nan)
    assert not found, f"NaN spelled in the package: {found}"


# the logic types whose function netlist.REDUCTION declares
REDUCTION_TYPES = {"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF"}


def test_the_encoder_reads_gate_function_only_from_the_reduction_table():
    # a gate's function is declared once, in netlist.REDUCTION, for the
    # simulator and the Tseitin encoder alike
    path = PACKAGE / "cnf.py"
    found = [f"cnf.py:{node.lineno} GateType.{node.attr}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in REDUCTION_TYPES
             and "GateType" in (getattr(node.value, "id", None),
                                getattr(node.value, "attr", None))]
    assert not found, f"cnf.py names reduction types itself: {found}"


# the functions that read netlist.REDUCTION: the encoder and the simulator's gate step
REDUCTION_READERS = {"cnf.py:_gate_clauses", "netlist.py:gate_word"}
NUMPY_LOGICAL = {"logical_and", "logical_or", "logical_xor"}


def test_one_simulator():
    # every value the package simulates is a word through netlist.gate_word; a
    # numpy boolean gate would be a second simulator
    logical = _found_outside(set(), lambda node: NUMPY_LOGICAL & {*_names(node),
                                                                  getattr(node, "name", None)})
    assert not logical, f"numpy logical gates in the package: {logical}"
    readers = _found_outside(REDUCTION_READERS, lambda node: isinstance(node, ast.Name)
                             and node.id == "REDUCTION" and isinstance(node.ctx, ast.Load))
    assert not readers, f"REDUCTION read outside {sorted(REDUCTION_READERS)}: {readers}"


# the encoder's private functions, each named only in the file that holds it
ENCODER_HOMES = {"_encode_copy": "cnf.py", "_gate_clauses": "cnf.py"}
KEY_CONE_HOME = "netlist.py"  # the one file that defines key_cone


def test_one_encoding_path_and_one_key_cone():
    # every circuit copy (tseitin, the miter, each DIP) goes through one
    # encoder, and one function says which gates depend on the key
    root = PACKAGE.parent.parent
    sources = sorted(PACKAGE.glob("*.py")) + sorted((root / "tests").glob("*.py"))
    sources += sorted((root / "benchmarks").glob("*.py"))
    named, defined = [], []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in ENCODER_HOMES:
                if path.parent != PACKAGE or path.name != ENCODER_HOMES[name]:
                    named.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name == "key_cone"):
                defined.append(f"{path.parent.name}/{path.name}")
    assert not named, f"encoders named outside cnf.py: {named}"
    assert defined == [f"locktime/{KEY_CONE_HOME}"], f"key_cone defined in {defined}"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _emits_through_asdict(cls: ast.ClassDef) -> bool:
    """The class has a ``to_dict`` that calls ``asdict``: every field is output."""
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict"
               for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "to_dict"
               for node in ast.walk(f))


def _is_initvar(annotation) -> bool:
    head = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(head, "id", None) == "InitVar"


def test_every_dataclass_field_is_read():
    # a field that nothing reads is state that only tests look at
    benchmarks = PACKAGE.parent.parent / "benchmarks"
    read = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(benchmarks.glob("*.py")):
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                    and not _emits_through_asdict(cls)):
                found += [f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
                          for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                          and not _is_initvar(stmt.annotation) and stmt.target.id not in read]
    assert not found, f"dataclass fields that no package or benchmark code reads: {found}"
