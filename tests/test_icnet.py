"""Graph regressor: forward semantics, exact gradients, training, baselines."""

import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from locktime import icnet
from locktime.icnet import (
    CHECKPOINT_VERSION,
    GraphSample,
    Model,
    ModelConfig,
    _jagged,
    _propagate,
    baseline_aggregate_features,
    baseline_gcn_config,
    build_graph_input,
    fit_linear,
    forward,
    linear_predict,
    load_checkpoint,
    loss_and_grads,
    new_model,
    predict,
    save_checkpoint,
    split_indices,
    split_samples,
    train,
)
from locktime.netlist import ONE_HOT_INDEX, graph_matrix, parse_bench
from locktime.numerics import NonFiniteError, params_to_doc
from locktime.obfuscate import ObfuscationKind, random_obfuscate
from oracles import (
    densify,
    edge_list,
    layered_dag,
    numeric_grads,
    random_structure,
    reference_train,
    same_rows_in_edge_order,
)


def make_graph(rng, n=6, f=1):
    """A random small graph (a, x) with a {0,1} mask column."""
    a = random_structure(rng, n, 0.35)
    x = rng.random((n, f))
    x[:, 0] = (rng.random(n) < 0.4).astype(float)
    if x[:, 0].sum() == 0:  # locked instances always mark >= 1 gate
        x[int(rng.integers(n)), 0] = 1.0
    return a, x


def make_samples(rng, n_samples, n=6, f=1, label_fn=None):
    """Random small graphs with {0,1} mask column and positive labels."""
    out = []
    for _ in range(n_samples):
        a, x = make_graph(rng, n, f)
        label = float(rng.uniform(0.5, 20.0)) if label_fn is None else label_fn(x)
        out.append(GraphSample(a, x, label))
    return out


SMALL = ModelConfig(hidden_dims=(5, 4),
                    feature_set="location_only", seed=2)


# --- config ---

def test_config_validation():
    # one convolution per width
    assert sorted(new_model(ModelConfig(hidden_dims=(8,))).params) == ["conv0", "feat", "gate"]
    with pytest.raises(ValueError, match="^hidden_dims: expected at least one width, got \\[\\]$"):
        ModelConfig(hidden_dims=())
    with pytest.raises(ValueError, match="^conv_layers: unknown field$"):
        ModelConfig.from_dict({"conv_layers": 1, "hidden_dims": [8]})
    with pytest.raises(ValueError, match="graph_repr"):
        ModelConfig(graph_repr="normalized")
    with pytest.raises(ValueError, match="feat_agg"):
        ModelConfig(feat_agg="max")
    with pytest.raises(ValueError, match="gate_agg"):
        ModelConfig(gate_agg="sum")
    bad = [({"batch_size": 0}, "batch_size"),
           ({"max_epochs": 0}, "max_epochs"),
           ({"hidden_dims": (-1, 4)}, "hidden_dims"),
           ({"hidden_dims": (0, 16)}, "hidden_dims"),
           ({"learning_rate": -1.0}, "learning_rate"),
           ({"learning_rate": 0.0}, "learning_rate"),
           ({"learning_rate": float("inf")}, "learning_rate"),
           ({"learning_rate": float("nan")}, "learning_rate"),
           ({"convergence_tol": -1e-9}, "convergence_tol"),
           ({"convergence_tol": float("nan")}, "convergence_tol"),
           # sizes and seeds are integers: bools and integral floats too are refused
           ({"hidden_dims": (8.0, 4)}, "hidden_dims"),
           ({"batch_size": 2.5}, "batch_size"),
           ({"batch_size": True}, "batch_size"),
           ({"max_epochs": 1.5}, "max_epochs"),
           ({"seed": 1.5}, "seed"),
           ({"seed": False}, "seed"),
           ({"seed": -1}, "seed"),
           ({"hidden_dims": (8.5, 4)}, "hidden_dims"),
           ({"hidden_dims": (8, np.True_)}, "hidden_dims")]
    for fields, name in bad:
        with pytest.raises(ValueError, match=name):
            ModelConfig(**fields)
    # the smallest valid values, and a huge but finite step size
    ModelConfig(hidden_dims=(1,), batch_size=1, max_epochs=1,
                learning_rate=1e200, convergence_tol=0.0)
    cfg = ModelConfig(hidden_dims=[16, 8])  # list accepted, stored as tuple
    assert cfg.hidden_dims == (16, 8)
    assert ModelConfig(feature_set="location_only").feature_dim == 1
    assert ModelConfig(feature_set="all_features").feature_dim == 11
    assert ModelConfig(**cfg.to_dict()) == cfg
    # numpy integers are stored as Python ints, so the config stays JSON
    cfg = ModelConfig(hidden_dims=np.array([8, 4]),
                      batch_size=np.int32(4), max_epochs=np.uint16(3), seed=np.int64(7))
    doc = cfg.to_dict()
    assert doc == ModelConfig(hidden_dims=(8, 4), batch_size=4, max_epochs=3, seed=7).to_dict()
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("fields", [
    {"learning_rate": True}, {"convergence_tol": True},
    {"learning_rate": "0.1"}, {"convergence_tol": "x"},
    {"hidden_dims": 8}, {"hidden_dims": None},
])
def test_config_rejects_wrong_types_by_field(fields):
    [name] = fields
    with pytest.raises(ValueError, match=name):
        ModelConfig(**fields)


def test_baseline_gcn_config_swaps_only_structure_fields():
    cfg = ModelConfig(hidden_dims=(8, 4), seed=7, learning_rate=0.01)
    ref = baseline_gcn_config(cfg)
    assert ref.graph_repr == "laplacian"
    assert ref.feat_agg == "mean" and ref.gate_agg == "mean"
    assert ref.seed == 7 and ref.learning_rate == 0.01
    assert ref.hidden_dims == (8, 4)


# --- attention readouts of the forward pass ---

def test_attention_identical_slices_uniform():
    # a complete graph over identical gates gives every gate the same row
    model = new_model(SMALL)
    pred = forward(model, edge_list(np.ones((4, 4))), np.ones((4, 1)))
    assert np.allclose(pred.a_gate, 0.25)


def test_attention_zero_theta_is_mean():
    rng = np.random.default_rng(0)
    a, x = make_graph(rng, n=5)
    model = new_model(SMALL)
    model.params["feat"][:] = 0.0
    model.params["gate"][:] = 0.0
    pred = forward(model, a, x)
    assert np.allclose(pred.a_feat, 1 / SMALL.hidden_dims[-1])
    assert np.allclose(pred.a_gate, 1 / 5)


def test_attention_hand_computed():
    rng = np.random.default_rng(1)
    a, x = make_graph(rng, n=6)
    model = new_model(SMALL)
    h = x
    w = densify(a, 6)
    for l in range(len(SMALL.hidden_dims)):
        h = np.maximum(w @ h @ model.params[f"conv{l}"], 0.0)
    assert h.any()

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    a_feat = softmax(model.params["feat"] * h.mean(axis=0))
    s = h @ a_feat
    a_gate = softmax(model.params["gate"][0] * s)
    pred = forward(model, a, x)
    assert np.allclose(pred.a_feat, a_feat)
    assert np.allclose(pred.a_gate, a_gate)
    assert np.isclose(pred.z, a_gate @ s)


# --- forward semantics ---

def test_prediction_fields_on_real_instance(c17):
    inst = random_obfuscate(c17, 3, ObfuscationKind.parse("xor"), seed=5)
    cfg = ModelConfig(hidden_dims=(8, 4), seed=1)
    pred = predict(new_model(cfg), inst)
    assert pred.yhat > 0  # exp head
    assert np.isclose(pred.yhat, np.exp(pred.z))
    assert pred.a_feat.shape == (4,)
    assert np.isclose(pred.a_feat.sum(), 1.0) and np.all(pred.a_feat >= 0)
    assert pred.a_gate.shape == (inst.obfuscated.n,)
    assert np.isclose(pred.a_gate.sum(), 1.0) and np.all(pred.a_gate >= 0)
    assert pred.wall_seconds >= 0


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    a, x = make_graph(rng, n=9)
    model = new_model(SMALL)
    base = forward(model, a, x)
    rows, cols, vals = a
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(9)
        inv = np.argsort(perm)  # gate perm[i] becomes gate i
        a_p = (inv[rows], inv[cols], vals)
        x_p = x[perm]
        got = forward(model, a_p, x_p)
        assert abs(got.z - base.z) <= 1e-10
        assert abs(got.yhat - base.yhat) <= 1e-10
        assert np.max(np.abs(got.a_feat - base.a_feat)) <= 1e-10
        assert np.max(np.abs(got.a_gate - base.a_gate[perm])) <= 1e-10


def test_zero_attention_logits_equal_mean_aggregation():
    rng = np.random.default_rng(4)
    a, x = make_graph(rng, n=7)
    att_model = new_model(SMALL)
    att_model.params["feat"][:] = 0.0
    att_model.params["gate"][:] = 0.0
    mean_model = Model(
        dataclasses.replace(SMALL, feat_agg="mean", gate_agg="mean"),
        att_model.params)
    za = forward(att_model, a, x).z
    zm = forward(mean_model, a, x).z
    assert abs(za - zm) <= 1e-12


def test_structure_matrix_choice_changes_output(c17):
    inst = random_obfuscate(c17, 2, ObfuscationKind.parse("lut2"), seed=1)
    z = {}
    for repr_ in ("adjacency", "laplacian"):
        cfg = ModelConfig(hidden_dims=(6, 3), graph_repr=repr_, seed=0)
        z[repr_] = predict(new_model(cfg), inst).z
    assert z["adjacency"] != z["laplacian"]


def test_build_graph_input_features(c17):
    inst = random_obfuscate(c17, 3, ObfuscationKind.parse("xor"), seed=9)
    cfg = ModelConfig()
    (rows, cols, vals), x = build_graph_input(inst, cfg)
    n = inst.obfuscated.n
    assert rows.shape == cols.shape == vals.shape
    assert 0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < n
    assert x.shape == (n, 11)
    assert np.array_equal(x[:, 0], inst.mask_array())
    # exactly one type indicator set per gate
    assert np.array_equal(x[:, 1:].sum(axis=1), np.ones(n))
    for g in inst.obfuscated.gates:
        assert x[g.id, 1 + ONE_HOT_INDEX[g.type]] == 1.0
    loc_cfg = ModelConfig(feature_set="location_only")
    _, x1 = build_graph_input(inst, loc_cfg)
    assert x1.shape == (n, 1)
    assert x[:, 0].sum() == 3.0


def _without_input_rows(c, a):
    """The triple ``a`` with the primary inputs' rows dropped, leaving them empty."""
    keep = ~np.isin(a[0], c.primary_inputs)
    return tuple(arr[keep] for arr in a)


def _propagate_by_edges(a, h):
    """A @ h one edge at a time: each row's terms summed in edge order from 0.0."""
    out = [[0.0] * h.shape[1] for _ in range(h.shape[0])]
    for r, c, v in zip(*(arr.tolist() for arr in a)):
        for j in range(h.shape[1]):
            out[r][j] += v * float(h[c, j])
    return np.array(out)


@pytest.mark.parametrize("kind,empty_rows", [("adjacency", False), ("laplacian", True)])
@pytest.mark.parametrize("width", [1, 11, 16])
def test_propagate_equals_edge_order_accumulation(mid12, kind, empty_rows, width):
    inst = random_obfuscate(mid12, 3, ObfuscationKind.parse("lut2"), seed=4)
    a = graph_matrix(inst.obfuscated, kind)
    n = inst.obfuscated.n
    if empty_rows:
        a = _without_input_rows(inst.obfuscated, a)
        assert np.setdiff1d(np.arange(n), a[0]).size > 0
    if width == 11:
        h = build_graph_input(inst, ModelConfig())[1]
        h[:, 0] *= np.random.default_rng(width).standard_normal(n)
    else:
        h = np.random.default_rng(width).standard_normal((n, width))
        h[::5] = 0.0
        h[1::7] = -0.0
    transposed = (a[1], a[0], a[2])  # unsorted rows
    assert np.any(np.diff(transposed[0]) < 0)
    for edges in (a, transposed):
        got = _propagate(_jagged(edges, n), h)
        assert got.flags.c_contiguous
        assert got.tobytes() == _propagate_by_edges(edges, h).tobytes()
    # no edges at all, and one row whose repeated terms sum in edge order
    none = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
    one = (np.zeros(3, np.intp), np.zeros(3, np.intp), np.array([1.0, -2.5, 1.0]))
    for edges, part in ((none, h), (one, h[2:3])):
        got = _propagate(_jagged(edges, part.shape[0]), part)
        assert got.tobytes() == _propagate_by_edges(edges, part).tobytes()


def _reachable_arrays(obj):
    """Every ndarray reachable from obj's attributes, through tuples, lists and bases, once."""
    found, todo = {}, list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray) and id(item) not in found:
            found[id(item)] = item
            todo.append(item.base)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
    return list(found.values())


@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_sample_layouts_reproduce_edge_order_products(kind):
    # graph_matrix gives symmetric structures, whose A^T layout is A's;
    # above DENSE_MAX_GATES every layout is jagged
    inst = random_obfuscate(layered_dag(300), 3, ObfuscationKind.parse("lut2"), seed=4)
    a, x = build_graph_input(inst, ModelConfig(graph_repr=kind))
    assert x.shape[0] > icnet.DENSE_MAX_GATES
    h = np.random.default_rng(9).standard_normal((x.shape[0], 5))
    for edges, shared in ((a, True), (_without_input_rows(inst.obfuscated, a), False)):
        smp = GraphSample(edges, x, 1.0)
        assert isinstance(smp.layout, tuple)
        assert (smp.layout_t is smp.layout) is shared
        assert smp.ax.tobytes() == _propagate_by_edges(edges, x).tobytes()
        at = (edges[1], edges[0], edges[2])
        for layout, structure in ((smp.layout, edges), (smp.layout_t, at)):
            got = _propagate(layout, h)
            assert got.tobytes() == _propagate_by_edges(structure, h).tobytes()


# the dense product sums each row's n terms in the BLAS's order, not in
# edge order: every entry must lie within n * eps * (|A| @ |h|) of the
# edge-order sum, which bounds the rounding of any order of summing n
# products (Higham, Accuracy and Stability of Numerical Algorithms, §3.1)
@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_dense_layouts_match_edge_order_products_within_rounding(mid12, kind):
    inst = random_obfuscate(mid12, 3, ObfuscationKind.parse("lut2"), seed=4)
    a, x = build_graph_input(inst, ModelConfig(graph_repr=kind))
    n = x.shape[0]
    assert n <= icnet.DENSE_MAX_GATES
    h = np.random.default_rng(9).standard_normal((n, 5))
    rng = np.random.default_rng(n)
    unsorted = tuple(arr[rng.permutation(a[0].size)] for arr in a)
    repeated = tuple(np.concatenate([p, p]) for p in a)
    for edges in (a, _without_input_rows(inst.obfuscated, a), unsorted, repeated):
        smp = GraphSample(edges, x, 1.0)
        dense = np.zeros((n, n))
        np.add.at(dense, edges[:2], edges[2])  # a repeated entry sums, as in the edge-order loop
        assert np.array_equal(smp.layout, dense)
        w = np.abs(dense)
        # A^T is a view of A: each sample owns n * n doubles plus A·X
        assert np.shares_memory(smp.layout_t, smp.layout)
        kept = sum(arr.nbytes for arr in _reachable_arrays(smp) if arr.base is None)
        assert kept == (n * n + smp.ax.size) * 8
        # 0/1 features and integer structure values: every A·X sum is exact
        assert np.array_equal(smp.ax, _propagate_by_edges(edges, x))
        at = (edges[1], edges[0], edges[2])
        for layout, structure, scale in ((smp.layout, edges, w), (smp.layout_t, at, w.T)):
            got = _propagate(layout, h)
            bound = n * np.finfo(float).eps * (scale @ np.abs(h))
            assert np.all(np.abs(got - _propagate_by_edges(structure, h)) <= bound)


def _edge_lists(rng, n):
    """Edge lists in and out of (row, col) order, symmetric or not, some with repeats."""
    w = (rng.random((n, n)) < 0.3) * rng.integers(1, 3, (n, n)).astype(float)
    w_sym = np.maximum(w, w.T)
    sym = edge_list(w_sym)
    order = rng.permutation(sym[0].size)
    pairs = rng.integers(0, n, (2, 3 * n))
    return [edge_list(w), sym,
            edge_list(w_sym + np.triu(w_sym, 1)),  # symmetric pattern, asymmetric values
            (sym[1], sym[0], sym[2]),  # in (col, row) order: rows of A^T still match
            tuple(arr[order] for arr in sym),
            tuple(np.concatenate([p, q]) for p, q in zip(sym, (sym[1], sym[0], sym[2]))),
            (pairs[0], pairs[1], rng.integers(1, 3, 3 * n).astype(float)),
            (pairs[0], pairs[0], np.ones(3 * n))]


@pytest.mark.parametrize("circuit", ["c17", "mid12", "dag600"])
def test_transpose_sharing_decision_equals_the_oracle(request, circuit):
    # ordering by distinct (row, edge) keys decides as the stable sort by row does
    base = layered_dag(600) if circuit == "dag600" else request.getfixturevalue(circuit)
    inst = random_obfuscate(base, 3, ObfuscationKind.parse("lut2"), seed=2)
    structures = []
    for kind in ("adjacency", "laplacian"):
        a = graph_matrix(inst.obfuscated, kind)
        structures += [a, _without_input_rows(inst.obfuscated, a)]
    rng = np.random.default_rng(inst.obfuscated.n)
    structures += _edge_lists(rng, 7) + _edge_lists(rng, 40)
    decisions = [icnet._transpose_has_same_rows(a) for a in structures]
    assert decisions == [same_rows_in_edge_order(a, (a[1], a[0], a[2])) for a in structures]
    assert decisions[:4] == [True, False, True, False]
    assert set(decisions[4:]) == {True, False}


@pytest.mark.parametrize("circuit", ["c17", "mid12", "dag600"])
def test_one_hot_columns_equal_the_per_gate_loop(request, circuit):
    base = layered_dag(600) if circuit == "dag600" else request.getfixturevalue(circuit)
    for kind in ("xor", "lut2"):
        inst = random_obfuscate(base, 3, ObfuscationKind.parse(kind), seed=1)
        _, x = build_graph_input(inst, ModelConfig())
        ref = np.zeros_like(x)
        ref[:, 0] = inst.mask_array()
        for g in inst.obfuscated.gates:
            ref[g.id, 1 + ONE_HOT_INDEX[g.type]] = 1.0
        assert np.array_equal(x, ref)


def test_large_circuit_structure_stays_small():
    # a balanced NAND tree over 3000 inputs: 5999 gates; a dense n x n
    # float64 structure alone would take 288 MB
    leaves = [f"in{i}" for i in range(3000)]
    lines = [f"INPUT({name})" for name in leaves]
    body, level, k = [], leaves, 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            body.append(f"t{k} = NAND({level[i]}, {level[i + 1]})")
            nxt.append(f"t{k}")
            k += 1
        level = nxt + level[len(level) - len(level) % 2:]
    c = parse_bench("\n".join(lines + [f"OUTPUT({level[0]})", ""] + body) + "\n")
    assert c.n == 5999
    inst = random_obfuscate(c, 3, ObfuscationKind.parse("xor"), seed=0)
    cfg = ModelConfig(hidden_dims=(8, 4), feature_set="location_only")
    a, x = build_graph_input(inst, cfg)
    smp = GraphSample(a, x, label=1.0)
    assert set(vars(smp)) == {"label", "instance_id", "censored", "layout", "layout_t", "ax"}
    # the layouts (one object: graph_matrix is symmetric) and A·X; A and X
    # themselves would add another 480 kB
    kept = sum(arr.nbytes for arr in _reachable_arrays(smp))
    assert kept < 320 << 10, kept
    assert np.isfinite(forward(new_model(cfg), a, x).yhat)


def test_forward_rejects_wrong_feature_width():
    model = new_model(ModelConfig(hidden_dims=(4, 3)))  # expects 11 features
    with pytest.raises(ValueError, match="feature_set"):
        forward(model, edge_list(np.eye(4)), np.ones((4, 1)))
    with pytest.raises(ValueError, match="out of range"):
        forward(model, ([0, 4], [0, 0], [1.0, 1.0]), np.ones((4, 11)))


@pytest.mark.parametrize("shape", [(), (2,), (2, 1, 1)])
def test_features_must_be_one_row_per_gate(shape):
    # checked before any product, by forward and by GraphSample alike
    a, x = edge_list(np.eye(2)), np.ones(shape)
    for build in (lambda: forward(new_model(SMALL), a, x), lambda: GraphSample(a, x, 1.0)):
        with pytest.raises(ValueError, match=r"2-d \(gates, features\) matrix, "
                                             rf"got shape {re.escape(str(shape))}"):
            build()


@pytest.mark.parametrize("label", [-3.0, -5e-324, float("nan"), float("inf"), float("-inf")])
def test_sample_rejects_a_label_that_is_no_effort(label):
    a, x = edge_list(np.eye(3)), np.ones((3, 1))
    with pytest.raises(ValueError, match=re.escape(f"'inst-7' has label {label!r}")):
        GraphSample(a, x, label, "inst-7")
    assert GraphSample(a, x, 0.0, "inst-7").label == 0.0  # an attack that needed no conflict


def test_nonfinite_intermediates_reported_by_stage():
    model = new_model(SMALL)
    x = np.ones((3, 1))
    x[0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="conv0"):
        forward(model, edge_list(np.eye(3)), x)
    # exp-head overflow is caught at the output head
    big = Model(
        dataclasses.replace(SMALL, feat_agg="mean", gate_agg="mean"),
        {"conv0": np.ones((1, 5)) * 50, "conv1": np.ones((5, 4)) * 50,
         "feat": np.zeros(4), "gate": np.zeros(1)})
    with pytest.raises(NonFiniteError, match="output head"):
        forward(big, edge_list(np.eye(4)), np.full((4, 1), 100.0))
    # every feature of a gate is finite but their mean overflows: reported
    # there under either gate aggregation, not at the gate stage
    huge = {"conv0": np.full((1, 5), 1e154), "conv1": np.full((5, 4), 2e153),
            "feat": np.zeros(4), "gate": np.zeros(1)}
    for gate_agg in ("attention", "mean"):
        cfg = dataclasses.replace(SMALL, feat_agg="mean", gate_agg=gate_agg)
        with pytest.raises(NonFiniteError, match="feature aggregation"):
            forward(Model(cfg, huge), edge_list(np.eye(4)), np.ones((4, 1)))
    # finite features whose gate scores overflow: reported at the softmax
    steep = {**huge, "conv1": np.ones((5, 4)), "gate": np.array([1e308])}
    with pytest.raises(NonFiniteError, match="softmax input"):
        forward(Model(dataclasses.replace(SMALL, feat_agg="mean"), steep),
                edge_list(np.eye(4)), np.ones((4, 1)))


# --- gradients ---

# ids read head-gate_agg-feat_agg; the exponential head is the model's only one
@pytest.mark.parametrize("gate_agg,feat_agg", [
    pytest.param(g, f, id=f"exp-{g}-{f}")
    for g in ("attention", "mean") for f in ("attention", "mean")])
def test_gradient_fidelity(feat_agg, gate_agg):
    cfg = dataclasses.replace(SMALL, feat_agg=feat_agg, gate_agg=gate_agg)
    model = new_model(cfg)
    samples = make_samples(np.random.default_rng(12), 3, n=6)
    _, analytic = loss_and_grads(model, samples)
    numeric = numeric_grads(model, samples, h=1e-5)
    for name in analytic:
        a, n = analytic[name], numeric[name]
        rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                                 np.full_like(a, 1e-6)])
        assert np.max(rel) < 1e-4, f"{name}: max rel err {np.max(rel):.2e}"


@pytest.mark.parametrize("overrides,empty_rows", [
    ({}, False),  # narrowing: 11 -> 4 -> 3
    ({"hidden_dims": (3, 6)}, False),  # widening second layer
    ({"hidden_dims": (4,)}, False),
    ({"hidden_dims": (4, 6, 3)}, False),
    ({"graph_repr": "laplacian"}, False),
    ({}, True),  # input gates' rows are empty
], ids=["narrowing", "widening", "one-layer", "three-layer", "laplacian",
        "empty-rows"])
def test_gradient_fidelity_all_features_config(c17, overrides, empty_rows):
    cfg = dataclasses.replace(
        ModelConfig(hidden_dims=(4, 3), feature_set="all_features", seed=3),
        **overrides)
    model = new_model(cfg)
    samples = make_samples(np.random.default_rng(8), 2, n=5, f=11)
    # real structures built under the config's graph_repr
    for seed, label in ((1, 3.0), (2, 11.0)):
        inst = random_obfuscate(c17, 2, ObfuscationKind.parse("xor"), seed=seed)
        a, x = build_graph_input(inst, cfg)
        if empty_rows:
            a = _without_input_rows(inst.obfuscated, a)
        samples.append(GraphSample(a, x, label))
    _, analytic = loss_and_grads(model, samples)
    numeric = numeric_grads(model, samples, h=1e-5)
    for name in analytic:
        a, n = analytic[name], numeric[name]
        rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                                 np.full_like(a, 1e-6)])
        assert np.max(rel) < 1e-4, f"{name}: max rel err {np.max(rel):.2e}"


def test_loss_with_zero_parameters():
    zero = {"conv0": np.zeros((1, 5)), "conv1": np.zeros((5, 4)),
            "feat": np.zeros(4), "gate": np.zeros(1)}
    smp = GraphSample(edge_list(np.eye(3)), np.ones((3, 1)), label=4.0)
    mse, _ = loss_and_grads(Model(SMALL, zero), [smp])
    assert np.isclose(mse, np.log1p(4.0) ** 2)  # z = 0, log-domain residual


def test_batch_loss_is_mean_and_grads_average():
    model = new_model(SMALL)
    s1, s2 = make_samples(np.random.default_rng(21), 2, n=5)
    l1, g1 = loss_and_grads(model, [s1])
    l2, g2 = loss_and_grads(model, [s2])
    l12, g12 = loss_and_grads(model, [s1, s2])
    assert np.isclose(l12, (l1 + l2) / 2)
    for k in g12:
        assert np.allclose(g12[k], (g1[k] + g2[k]) / 2)
    with pytest.raises(ValueError, match="empty"):
        loss_and_grads(model, [])


# --- training ---

def test_split_indices_disjoint_exhaustive_seeded():
    tr, te = split_indices(20, seed=3)
    assert len(te) == 4 and len(tr) == 16
    assert sorted(tr + te) == list(range(20))
    assert split_indices(20, seed=3) == (tr, te)
    assert split_indices(20, seed=4) != (tr, te)


def test_train_memorizes_tiny_dataset():
    # full-width features: a bias-free net with a single input column
    # collapses to multiples of A@A@x and cannot fit arbitrary labels
    rng = np.random.default_rng(30)
    samples = make_samples(rng, 5, n=5, f=11)
    cfg = ModelConfig(hidden_dims=(8, 4),
                      feature_set="all_features", learning_rate=0.02,
                      max_epochs=3000, convergence_tol=0.0, batch_size=4,
                      seed=2)
    res = train(samples, cfg)  # the 80/20 split trains on four
    final = res.log[-1]["train_mse"]
    assert final < 1e-6, f"train mse {final}"


def test_train_determinism():
    rng = np.random.default_rng(31)
    samples = make_samples(rng, 12, n=6)
    cfg = dataclasses.replace(SMALL, max_epochs=25, learning_rate=0.01)
    r1 = train(samples, cfg)
    r2 = train(samples, cfg)
    for k in r1.model.params:
        assert np.array_equal(r1.model.params[k], r2.model.params[k])
    assert [row["train_mse"] for row in r1.log] == \
           [row["train_mse"] for row in r2.log]
    assert r1.train_indices == r2.train_indices


def _mid12_input(mid12, cfg, i):
    """(a, x, label) of locked mid12 instance i.

    It has m = 1-4 xor or lut2 locations and the label expm1(0.3 m).
    """
    m = 1 + i % 4
    inst = random_obfuscate(mid12, m, ObfuscationKind.parse(("xor", "lut2")[i % 2]), seed=i)
    return (*build_graph_input(inst, cfg), float(np.expm1(0.3 * m)))


def _mid12_samples(mid12, cfg, n, censored=()):
    """Samples of the first n locked mid12 instances."""
    return [GraphSample(*_mid12_input(mid12, cfg, i), censored=i in censored)
            for i in range(n)]


# (config overrides, repr of the final train mse, sha256 of the params doc),
# recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64: a different BLAS
# build may round the dense products differently
PINNED_TRAINING = [
    ({}, "1.7185586378045699",
     "5a4a4a9cda40b077ceffe66d77a38d818d8d4af0f41337625c7cd96ef26ace5b"),
    ({"graph_repr": "laplacian", "feat_agg": "mean", "gate_agg": "mean"},
     "0.19136079752957738",
     "c7bdae531e1ceaefd630045ad5c4c09c0ea684de63af18d7db57919f166c415d"),
]


@pytest.mark.parametrize("overrides,mse_repr,params_sha", PINNED_TRAINING,
                         ids=["adjacency", "gcn-baseline"])
def test_training_numerics_are_pinned(mid12, overrides, mse_repr, params_sha):
    # every bit of a short seeded training run on real structures: graph
    # build, one-hot features, the dense products of mid12's graphs (below
    # DENSE_MAX_GATES), activations and ADAM
    cfg = dataclasses.replace(
        ModelConfig(hidden_dims=(8, 4), learning_rate=0.01, batch_size=4,
                    max_epochs=4, convergence_tol=0.0, seed=5), **overrides)
    res = train(_mid12_samples(mid12, cfg, 10), cfg)
    doc = json.dumps(params_to_doc(res.model.params), sort_keys=True)
    assert (repr(res.log[-1]["train_mse"]),
            hashlib.sha256(doc.encode()).hexdigest()) == (mse_repr, params_sha)


def _assert_same_run(res, ref):
    log, params, train_idx, test_idx, epochs_run = ref
    assert [{k: v for k, v in row.items() if k != "wall_seconds"} for row in res.log] == log
    assert params_to_doc(res.model.params) == params_to_doc(params)
    assert (res.train_indices, res.test_indices, res.epochs_run) == \
        (train_idx, test_idx, epochs_run)


TRAIN_BASE = ModelConfig(hidden_dims=(8, 4), learning_rate=0.01, max_epochs=4,
                         convergence_tol=0.0, seed=5)
GCN = {"graph_repr": "laplacian", "feat_agg": "mean", "gate_agg": "mean"}
# (samples, censored positions, config overrides): single, exact and ragged
# minibatches, one epoch only, and a convergence stop
TRAIN_GRID = {
    "b1-n5": (5, (2,), {"batch_size": 1}),
    "b3-ragged-n10": (10, (3,), {"batch_size": 3}),
    "b4-n10": (10, (), {"batch_size": 4}),
    "b7-ragged-n23": (23, (4, 11), {"batch_size": 7}),
    "b32-single-n23": (23, (0,), {"batch_size": 32}),
    "gcn-b4-n10": (10, (), {"batch_size": 4, **GCN}),
    "gcn-b7-ragged-n23": (23, (5,), {"batch_size": 7, **GCN}),
    "one-epoch": (10, (1,), {"batch_size": 3, "max_epochs": 1}),
    "gcn-one-epoch-single": (5, (), {"batch_size": 32, "max_epochs": 1, **GCN}),
    "convergence-stop": (10, (), {"batch_size": 3, "max_epochs": 30,
                                  "convergence_tol": 1e9}),
    "location-only-seed-9": (10, (7,), {"batch_size": 4, "feature_set": "location_only",
                                         "seed": 9}),
}


@pytest.mark.parametrize("n,censored,overrides", TRAIN_GRID.values(), ids=TRAIN_GRID)
def test_train_equals_the_reference_loop(mid12, n, censored, overrides):
    # the held first-batch gradients change which pass computes what, not the result
    cfg = dataclasses.replace(TRAIN_BASE, **overrides)
    samples = _mid12_samples(mid12, cfg, n, censored)
    res = train(samples, cfg)
    if cfg.convergence_tol:
        assert res.epochs_run == 11 < cfg.max_epochs
    _assert_same_run(res, reference_train(samples, cfg))


def test_train_equals_the_reference_loop_through_skipped_steps(mid12):
    # a gate whose score overflows when squared, on a sample the negative
    # gate logit ignores: the loss stays finite, the gate gradient is
    # 0 * inf, and ADAM skips each step that sample's batch takes
    cfg = dataclasses.replace(TRAIN_BASE, feature_set="location_only", batch_size=3,
                              max_epochs=3, seed=0)
    samples = _mid12_samples(mid12, cfg, 10)
    a, x, label = _mid12_input(mid12, cfg, 0)
    samples[0] = GraphSample(a, x * 1e160, label)
    runs = []
    for fit in (lambda: train(samples, cfg), lambda: reference_train(samples, cfg)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(fit())
        runs.append(sum("ADAM step skipped" in str(w.message) for w in caught))
    res, skips, ref, ref_skips = runs
    assert skips == ref_skips == cfg.max_epochs
    _assert_same_run(res, ref)


@pytest.mark.parametrize("batch_size", [3, 32], ids=["ragged", "single-batch"])
def test_train_runs_no_forward_pass_twice(monkeypatch, batch_size):
    # each epoch's train-loss pass also yields the next epoch's first
    # minibatch, so only epoch 0 runs all N minibatch forwards; a loop
    # that recomputes that batch runs E * (2N + V).  Backward passes stay
    # one per sample and epoch: none is run ahead of an epoch that never comes
    rng = np.random.default_rng(35)
    samples = make_samples(rng, 12, n=5)
    cfg = dataclasses.replace(SMALL, max_epochs=5, batch_size=batch_size)
    calls = {"_forward": 0, "_backward": 0}
    for name in calls:
        def counting(*args, real=getattr(icnet, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(icnet, name, counting)
    res = train(samples, cfg)
    e, n, v = res.epochs_run, len(res.train_indices), len(res.test_indices)
    b = min(batch_size, n)
    assert (e, n, v) == (5, 10, 2)
    assert calls == {"_forward": e * (n + v) + n + (e - 1) * (n - b), "_backward": e * n}


def test_train_log_and_convergence_stop():
    rng = np.random.default_rng(32)
    samples = make_samples(rng, 10, n=5)
    cfg = dataclasses.replace(SMALL, max_epochs=200, convergence_tol=1e9)
    res = train(samples, cfg)
    # a huge tolerance stops at the first window check: epoch index 10
    assert res.epochs_run == 11
    assert [row["epoch"] for row in res.log] == list(range(11))
    waits = [row["wall_seconds"] for row in res.log]
    assert waits == sorted(waits)
    assert all(np.isfinite(row["val_mse"]) for row in res.log)
    csv = res.log_csv().splitlines()
    assert csv[0] == "epoch,train_mse,val_mse,wall_seconds"
    assert len(csv) == 12


def test_train_input_errors():
    cfg = SMALL
    with pytest.raises(ValueError, match="empty"):
        train([], cfg)
    rng = np.random.default_rng(33)
    censored = make_samples(rng, 3, n=4)
    for smp in censored:
        smp.censored = True
    with pytest.raises(ValueError, match="censored"):
        train(censored, cfg)
    tiny = make_samples(rng, 2, n=4)
    with pytest.raises(ValueError, match="at least 2"):
        train(tiny, cfg)  # 80/20 leaves one training sample


def test_censored_samples_excluded_by_default():
    rng = np.random.default_rng(34)
    samples = make_samples(rng, 10, n=5)
    samples[0].censored = True
    cfg = dataclasses.replace(SMALL, max_epochs=3)
    res = train(samples, cfg)
    assert len(res.train_indices) + len(res.test_indices) == 9
    # train's split is split_samples': indices into the uncensored samples
    usable, train_idx, test_idx = split_samples(samples, cfg.seed)
    assert len(usable) == 9 and all(u is s for u, s in zip(usable, samples[1:]))
    assert (train_idx, test_idx) == (res.train_indices, res.test_indices)


# --- baselines ---

def test_baseline_aggregate_features_hand_example():
    a = edge_list([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[1.0], [2.0]])
    assert baseline_aggregate_features(a, x, "sum").tolist() == [1.0, 1.0, 3.0]
    assert baseline_aggregate_features(a, x, "mean").tolist() == [0.5, 0.5, 1.5]
    with pytest.raises(ValueError, match="mode"):
        baseline_aggregate_features(a, x, "max")


def test_fit_linear_exact_and_ridge():
    x = np.arange(6, dtype=float)[:, None]
    y = 2.0 * x.ravel() + 1.0
    w = fit_linear(x, y, ridge_lambda=0.0)
    assert np.allclose(w, [2.0, 1.0])
    assert np.allclose(linear_predict(w, x), y)
    # heavy ridge shrinks the slope but not the intercept
    w_big = fit_linear(x, y, ridge_lambda=1e9)
    assert abs(w_big[0]) < 1e-6
    assert np.isclose(w_big[1], y.mean(), atol=1e-5)
    # duplicated column: minimum-norm solution still predicts exactly
    xd = np.hstack([x, x])
    wd = fit_linear(xd, y, ridge_lambda=0.0)
    assert np.allclose(linear_predict(wd, xd), y)
    with pytest.raises(ValueError):
        fit_linear(x, y, ridge_lambda=-1.0)
    with pytest.raises(ValueError):
        fit_linear(x, y[:-1])


# --- checkpointing ---

def test_checkpoint_round_trip(tmp_path, c17):
    inst = random_obfuscate(c17, 2, ObfuscationKind.parse("xnor"), seed=2)
    cfg = ModelConfig(hidden_dims=(6, 3), seed=11, feat_agg="attention")
    model = new_model(cfg)
    path = tmp_path / "model.json"
    save_checkpoint(model, path, "wall_seconds")
    loaded, label_kind = load_checkpoint(path)
    assert loaded.config == cfg
    assert label_kind == "wall_seconds"
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
    assert predict(loaded, inst).z == predict(model, inst).z


def test_checkpoint_round_trips_numpy_float_fields(tmp_path):
    cfg = dataclasses.replace(SMALL, learning_rate=np.float32(0.01),
                              convergence_tol=np.float64(1e-4))
    assert type(cfg.learning_rate) is type(cfg.convergence_tol) is float
    assert cfg.learning_rate == float(np.float32(0.01))
    path = tmp_path / "model.json"
    save_checkpoint(new_model(cfg), path, "conflicts")
    loaded, _ = load_checkpoint(path)
    assert loaded.config == cfg


def test_checkpoint_rejects_foreign_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(bad)
    from locktime.icnet import CHECKPOINT_FORMAT
    bad.write_text('{"format": "%s", "version": 99}' % CHECKPOINT_FORMAT)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)


def test_checkpoint_rejects_version_1(tmp_path):
    # version 1 configs carry two fields ModelConfig no longer has,
    # version 2 ones three more (self_loops, directed, output_head), and
    # version 3 ones no label kind, and version 4 ones a conv_layers count,
    # which len(hidden_dims) now gives
    path = tmp_path / "old.json"
    save_checkpoint(new_model(SMALL), path, "conflicts")
    doc = json.loads(path.read_text())
    assert doc["version"] == CHECKPOINT_VERSION == 5
    assert "conv_layers" not in doc["config"]
    for old in (1, 2, 3, 4):
        doc["version"] = old
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: version: "
                                             f"expected 5, got {old}$"):
            load_checkpoint(path)
    doc["version"] = CHECKPOINT_VERSION
    doc["config"]["conv_layers"] = len(SMALL.hidden_dims)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                         f"config: conv_layers: unknown field$"):
        load_checkpoint(path)

