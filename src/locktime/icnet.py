"""Graph-convolutional runtime regressor with attention readouts.

Architecture: graph convolutions H_l = ReLU(A · H_{l-1} · Θ_l), one per
``hidden_dims`` entry (two by default), over a per-gate feature matrix,
a feature-level aggregation collapsing hidden features to one scalar per
gate, a gate-level aggregation collapsing gates to one scalar z, and an
exp output head.

The structure A is an edge list ``(rows, cols, vals)`` (see
``netlist.graph_matrix``).  ``_layouts`` lays it out for ``_propagate``.
A graph of at most ``DENSE_MAX_GATES`` gates gets a dense n x n array
(at most 128 KiB), multiplied with ``@``: at that size a BLAS product
costs less than any per-edge bookkeeping.  A larger graph gets
jagged-diagonal storage (``_jagged``; Saad, *Iterative Methods for
Sparse Linear Systems*, §3.4), so each product costs O(edges · width)
instead of O(n² · width): rows sorted by falling degree, so the rows
with a k-th edge form a prefix, and step k adds the k-th edge's term of
every row in that prefix, for all columns at once.  Each row then sums
its terms ``vals[e] * h[cols[e]]`` in edge order from 0.0, as a
one-edge-at-a-time loop would, whatever order the edge list gives its
rows; the dense product sums in the BLAS's order instead.  A and X never
change, so a sample's layouts of A and of Aᵀ (one object when they are
equal, as for every ``graph_matrix`` output above the dense size, a
transposed view below it) and its first-layer A·X are built once
(``GraphSample``), and the sample keeps only those three, not A or X;
the first convolution is (A·X)·Θ_0 and later ones are A·(P·Θ_l),
propagating the narrower product.

Aggregations come in attention / mean variants.  Attention scoring
is built so the whole network is invariant to gate reordering:

* feature attention scores each hidden feature f by theta_feat[f] times
  the feature's mean over gates, softmaxes the scores into a_feat, and
  takes the weighted column sum s = H @ a_feat (one scalar per gate);
* gate attention scores gate i by the shared scalar theta_gate * s_i,
  softmaxes into a_gate, and returns z = a_gate . s.

The exp head is trained in the log domain (latent z regresses
log1p(label)).  Gradients are closed-form backpropagation, checked
against finite differences in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, asdict, dataclass, field, replace

import numpy as np

from .attack import LABEL_KINDS
from .netlist import (COUNT, FINITE, FLOAT_MAX, NONNEGATIVE, ONE_HOT_INDEX, check_json,
                      graph_matrix, json_choice, read_json_object, write_json)
from .numerics import (
    NonFiniteError,
    adam_step,
    check_finite,
    init_adam,
    init_params,
    no_fp_warnings,
    param_shapes,
    params_from_doc,
    params_to_doc,
    relu_grad,
    softmax,
    zeros_like,
)
from .obfuscate import ObfuscationInstance

GRAPH_REPRS = ("adjacency", "laplacian")
AGG_MODES = ("attention", "mean")
FEATURE_SETS = ("location_only", "all_features")

CHECKPOINT_FORMAT = "icnet-checkpoint"
CHECKPOINT_VERSION = 5
TEST_FRACTION = 0.2  # share of usable samples held out by train's split
# largest graph laid out as a dense n x n array (128 KiB); larger ones train faster jagged
DENSE_MAX_GATES = 128
Layout = np.ndarray | tuple  # a dense n x n array, or _jagged's (perm, steps)
_ONE_HOT_BY_NAME = {t._name_: i for t, i in ONE_HOT_INDEX.items()}  # Enum hashing runs in Python


_POSITIVE = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
# every ModelConfig field, checked on construction; a --config file or a
# checkpoint's config may leave any of them out
CONFIG = {
    "graph_repr?": json_choice(*GRAPH_REPRS), "hidden_dims?": [_POSITIVE],
    "feat_agg?": json_choice(*AGG_MODES), "gate_agg?": json_choice(*AGG_MODES),
    "feature_set?": json_choice(*FEATURE_SETS),
    "learning_rate?": ("a finite number > 0",
                       lambda v: type(v) in (int, float) and 0 < v <= FLOAT_MAX),
    "batch_size?": _POSITIVE, "max_epochs?": _POSITIVE, "convergence_tol?": NONNEGATIVE,
    "seed?": COUNT,
}


def _plain(value):
    """numpy scalars and arrays as Python values, tuples as lists."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


@dataclass(frozen=True)
class ModelConfig:
    graph_repr: str = "adjacency"
    hidden_dims: tuple = (32, 16)  # one width per graph convolution
    feat_agg: str = "attention"
    gate_agg: str = "attention"
    feature_set: str = "all_features"
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 500
    convergence_tol: float = 1e-5  # relative train-loss change over 10 epochs
    seed: int = 0

    def __post_init__(self):
        """Every field checked against :data:`CONFIG` and stored as a Python value."""
        fields = check_json({k: _plain(v) for k, v in vars(self).items()}, CONFIG, "")
        if not fields["hidden_dims"]:
            raise ValueError("hidden_dims: expected at least one width, got []")
        fields.update(hidden_dims=tuple(fields["hidden_dims"]),
                      learning_rate=float(fields["learning_rate"]),
                      convergence_tol=float(fields["convergence_tol"]))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def feature_dim(self) -> int:
        return 1 if self.feature_set == "location_only" else 1 + len(ONE_HOT_INDEX)

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_dims": list(self.hidden_dims)}

    @classmethod
    def from_dict(cls, doc) -> "ModelConfig":
        """A ``--config`` file's or a checkpoint's config, checked against :data:`CONFIG`."""
        return cls(**check_json(doc, CONFIG, ""))


def baseline_gcn_config(cfg: ModelConfig) -> ModelConfig:
    """The Laplacian-GCN-mean reference: same capacity, no attention."""
    return replace(cfg, graph_repr="laplacian", feat_agg="mean", gate_agg="mean")


@dataclass
class Prediction:
    yhat: float
    z: float
    a_feat: np.ndarray | None
    a_gate: np.ndarray | None
    wall_seconds: float = 0.0


@dataclass
class Model:
    config: ModelConfig
    params: dict  # name -> array, in init_params's order


@dataclass
class GraphSample:
    """One training example: what training reads of its graph, and its raw label.

    The structure edge list ``a`` and the features ``x`` are constructor
    inputs only, not stored.  ``layout`` and ``layout_t`` are the layouts
    of A and of Aᵀ (see :func:`_layouts`), and ``ax`` is the
    propagated input A·X, all computed once here because neither A nor X
    changes during training.  The label is raw attack effort, so it must be
    finite and >= 0.
    """

    a: InitVar[tuple]  # (rows, cols, vals) of the n x n structure matrix
    x: InitVar[np.ndarray]
    label: float
    instance_id: str = ""
    censored: bool = False
    layout: Layout = field(init=False, repr=False)
    layout_t: Layout = field(init=False, repr=False)
    ax: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, a, x):
        if not (math.isfinite(self.label) and self.label >= 0):
            raise ValueError(f"sample {self.instance_id!r} has label {self.label!r}; "
                             f"labels are raw effort, finite and >= 0")
        a, x = _graph_input(a, x)
        self.layout, self.layout_t = _layouts(a, x.shape[0])
        with no_fp_warnings():  # _forward reports a non-finite A·X
            self.ax = _propagate(self.layout, x)


def _graph_input(a, x) -> tuple[tuple, np.ndarray]:
    """(A, X) as index and float64 arrays, X one row per gate, A's indices checked."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-d (gates, features) matrix, "
                         f"got shape {x.shape}")
    n = x.shape[0]
    rows, cols, vals = (np.asarray(a[0], dtype=np.intp), np.asarray(a[1], dtype=np.intp),
                        np.asarray(a[2], dtype=np.float64))
    if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
        raise ValueError(f"structure rows, cols and vals must be equal-length "
                         f"vectors, got {rows.shape}, {cols.shape}, {vals.shape}")
    if rows.size and (min(rows.min(), cols.min()) < 0
                      or max(rows.max(), cols.max()) >= n):
        raise ValueError(f"structure index out of range for {n} gates")
    return (rows, cols, vals), x


def _transpose_has_same_rows(a: tuple) -> bool:
    """Whether every row of Aᵀ holds A's (col, val) terms in A's edge order.

    Then the jagged layout of Aᵀ is A's.  Both sides' edges are put in
    row order, ties in edge order, and compared.  The distinct keys
    ``row · E + edge`` (E edges) order them as a stable sort by row does;
    numpy sorts distinct integers faster than it stably sorts an array
    with many ties, such as the column array.
    """
    rows, cols, vals = a
    e = np.arange(rows.size)
    by_row, by_col = np.argsort(rows * e.size + e), np.argsort(cols * e.size + e)
    return all(np.array_equal(p[by_row], q[by_col])
               for p, q in ((rows, cols), (cols, rows), (vals, vals)))


def _layouts(a: tuple, n: int, transpose: bool = True) -> tuple[Layout, Layout | None]:
    """The layouts of A and of Aᵀ for :func:`_propagate`; Aᵀ's is None
    unless ``transpose``.

    Up to ``DENSE_MAX_GATES`` gates A is the dense n x n array (repeated
    entries summed) and Aᵀ its transposed view.  Above, both are
    :func:`_jagged` layouts, one object when they are equal.
    """
    if n <= DENSE_MAX_GATES:
        rows, cols, vals = a
        dense = np.bincount(rows * n + cols, vals, n * n).reshape(n, n)
        return dense, dense.T
    layout = _jagged(a, n)
    if not transpose:
        return layout, None
    if _transpose_has_same_rows(a):
        return layout, layout
    return layout, _jagged((a[1], a[0], a[2]), n)


def _jagged(a: tuple, n: int) -> tuple:
    """Jagged-diagonal layout ``(perm, steps)`` of the n-row edge list a.

    perm lists the rows by falling degree, ties by index, so the rows
    with a k-th edge are a prefix of perm.  steps[k] is (cols, vals) for
    that prefix: the column of each row's k-th edge in edge order, and its
    value as a column vector, or None when every value of a is 1.0
    (h * 1.0 is h).
    """
    rows, cols, vals = a
    by_row = np.argsort(rows, kind="stable")
    deg = np.bincount(rows, minlength=n)
    perm = np.argsort(-deg, kind="stable")
    first = (np.cumsum(deg) - deg)[perm]  # position of each row's first edge in by_row
    cols = cols[by_row]
    vals = None if (vals == 1.0).all() else vals[by_row, None]
    steps = []  # m counts the rows with more than k edges
    for k, m in enumerate((n - np.cumsum(np.bincount(deg)))[:-1].tolist()):
        e = first[:m] + k
        steps.append((cols[e], None if vals is None else vals[e]))
    return perm, tuple(steps)


def _propagate(layout: Layout, h: np.ndarray) -> np.ndarray:
    """A @ h for A's layout; rows of A with no entries give zero rows."""
    if isinstance(layout, np.ndarray):
        return layout @ h
    perm, steps = layout
    acc = np.zeros((perm.size, h.shape[1]))
    terms = np.empty_like(acc)
    for cols, vals in steps:
        m = cols.size
        # indices were checked against n; "clip" lets take write into out unbuffered
        t = h.take(cols, axis=0, out=terms[:m], mode="clip")
        if vals is not None:
            t *= vals
        acc[:m] += t
    terms[perm] = acc
    return terms


def new_model(config: ModelConfig) -> Model:
    params = init_params(config.feature_dim, config.hidden_dims, config.seed)
    return Model(config, params)


def build_graph_input(inst: ObfuscationInstance,
                      config: ModelConfig) -> tuple[tuple, np.ndarray]:
    """Structure edge list A and features X (column 0 = mask, 1..10 = one-hot type)."""
    a = graph_matrix(inst.obfuscated, config.graph_repr)
    n = inst.obfuscated.n
    mask = inst.mask_array()
    if config.feature_set == "location_only":
        x = mask[:, None].copy()
    else:
        x = np.zeros((n, config.feature_dim), dtype=np.float64)
        x[:, 0] = mask
        codes = [_ONE_HOT_BY_NAME[g.type._name_] for g in inst.obfuscated.gates]  # gates[i].id == i
        x[np.arange(n), 1 + np.array(codes, dtype=np.intp)] = 1.0
    return a, x


@dataclass
class _Cache:
    """Intermediates of one forward pass, consumed by backprop."""

    ps: list  # P_l = relu(Z_l), Z_0 = (A X) theta_0, Z_l = A (P_{l-1} theta_l)
    mu: np.ndarray | None
    a_feat: np.ndarray | None
    s: np.ndarray
    a_gate: np.ndarray | None
    z: float


def _forward(model: Model, layout: Layout, ax: np.ndarray) -> _Cache:
    """One forward pass.  Non-finite values are reported via
    NonFiniteError; callers switch numpy's warnings off
    (``no_fp_warnings``) once per predict call, training sweep or report."""
    cfg = model.config
    p = model.params
    n = ax.shape[0]
    if ax.shape != (n, cfg.feature_dim):
        raise ValueError(f"feature matrix must be {(n, cfg.feature_dim)} "
                         f"for feature_set={cfg.feature_set!r}, got {ax.shape}")
    ps = []
    for l in range(len(cfg.hidden_dims)):
        z = ax @ p["conv0"] if l == 0 else _propagate(layout, ps[-1] @ p[f"conv{l}"])
        check_finite(f"conv{l} pre-activation", z)
        ps.append(np.maximum(z, 0.0, out=z))
    h = ps[-1]

    # means as np.add.reduce over the count: what ndarray.mean computes,
    # without its Python-level dispatch
    mu = a_feat = None
    if cfg.feat_agg == "attention":
        mu = np.add.reduce(h, 0) / n
        a_feat = softmax(p["feat"] * mu)
        s = h @ a_feat
    else:
        s = np.add.reduce(h, 1) / h.shape[1]
    check_finite("feature aggregation", s)

    a_gate = None
    if cfg.gate_agg == "attention":
        a_gate = softmax(p["gate"][0] * s)
        z_out = float(a_gate @ s)
    else:
        z_out = float(np.add.reduce(s)) / n
    if not math.isfinite(z_out):
        raise NonFiniteError("gate aggregation")
    return _Cache(ps, mu, a_feat, s, a_gate, z_out)


def forward(model: Model, a, x) -> Prediction:
    """Predict from a structure edge list ``a`` and features ``x``."""
    a, x = _graph_input(a, x)
    t0 = time.perf_counter()
    layout, _ = _layouts(a, x.shape[0], transpose=False)
    with no_fp_warnings():
        cache = _forward(model, layout, _propagate(layout, x))
        yhat = float(np.exp(cache.z))
    if not math.isfinite(yhat):
        raise NonFiniteError("output head")
    return Prediction(yhat, cache.z, cache.a_feat, cache.a_gate,
                      time.perf_counter() - t0)


def predict(model: Model, inst: ObfuscationInstance) -> Prediction:
    return forward(model, *build_graph_input(inst, model.config))


def target_value(label: float) -> float:
    """The quantity the latent z regresses for a raw label."""
    return float(np.log1p(label))


def _backward(model: Model, layout_t: Layout, ax: np.ndarray, cache: _Cache,
              dz: float, grads: dict) -> None:
    """Add the closed-form gradients of dz * z w.r.t. each parameter to grads.

    For l >= 1, U = A^T dZ_l gives dTheta_l = P_{l-1}^T U and
    dP_{l-1} = U Theta_l^T; dTheta_0 = (A X)^T dZ_0.  The gradient with
    respect to X is never formed.  layout_t is the layout of A^T.
    """
    cfg = model.config
    p = model.params
    n = ax.shape[0]
    h = cache.ps[-1]
    s, z = cache.s, cache.z

    if cfg.gate_agg == "attention":
        b = cache.a_gate
        theta_g = p["gate"][0]
        grads["gate"][0] += dz * float(b @ (s * s) - z * z)
        ds = dz * (b + theta_g * b * (s - z))
    else:
        ds = np.full(n, dz / n)

    hw = h.shape[1]
    if cfg.feat_agg == "attention":
        a_f = cache.a_feat
        da = h.T @ ds
        de = a_f * (da - float(a_f @ da))
        grads["feat"] += cache.mu * de
        dmu = p["feat"] * de
        dp = np.outer(ds, a_f) + dmu[None, :] / n
    else:
        dp = np.repeat(ds[:, None], hw, axis=1) / hw

    # P_l > 0 exactly where Z_l > 0, so P_l masks the relu gradient
    for l in range(len(cache.ps) - 1, 0, -1):
        u = _propagate(layout_t, relu_grad(cache.ps[l], dp))
        grads[f"conv{l}"] += cache.ps[l - 1].T @ u
        dp = u @ p[f"conv{l}"].T
    grads["conv0"] += ax.T @ relu_grad(cache.ps[0], dp)


def _sweep(model: Model, samples: list, grad_idx) -> tuple[float, float, dict]:
    """One forward pass per sample, and backward on the positions grad_idx.

    The samples at grad_idx are visited first, in that order, and run
    backward too: the gradients of their mean squared residual accumulate
    in that order into fresh arrays, and their squared residuals sum in
    that order to sq_grad.  The other samples then run forward only.
    sq_all sums every squared residual in samples order, whatever
    grad_idx is.  Returns (sq_grad, sq_all, grads).
    """
    grads = zeros_like(model.params)
    inv_b = 1.0 / len(grad_idx) if len(grad_idx) else 0.0
    sqs = [None] * len(samples)
    sq_grad = 0.0
    with no_fp_warnings():
        for i in grad_idx:
            smp = samples[i]
            cache = _forward(model, smp.layout, smp.ax)
            r = cache.z - target_value(smp.label)
            sqs[i] = r * r
            sq_grad += sqs[i]
            _backward(model, smp.layout_t, smp.ax, cache, 2.0 * r * inv_b, grads)
        for i, smp in enumerate(samples):
            if sqs[i] is None:
                r = _forward(model, smp.layout, smp.ax).z - target_value(smp.label)
                sqs[i] = r * r
    sq_all = 0.0
    for sq in sqs:  # in order: a compensated sum() would round differently
        sq_all += sq
    return sq_grad, sq_all, grads


def loss_and_grads(model: Model, samples: list) -> tuple[float, dict]:
    """Batch MSE in the log domain plus exact parameter grads.

    The residual is z - log1p(label); MSE is the mean of squared residuals.
    """
    if not samples:
        raise ValueError("empty batch")
    sq, _, grads = _sweep(model, samples, range(len(samples)))
    mse = sq * (1.0 / len(samples))
    if not np.isfinite(mse):
        raise NonFiniteError("batch loss")
    return mse, grads


def batch_mse(model: Model, samples: list) -> float:
    _, sq, _ = _sweep(model, samples, ())
    return sq / len(samples)


@dataclass
class TrainResult:
    model: Model
    log: list  # dicts: epoch, train_mse, val_mse, wall_seconds
    train_indices: tuple
    test_indices: tuple
    epochs_run: int = 0

    def log_csv(self) -> str:
        lines = ["epoch,train_mse,val_mse,wall_seconds"]
        for row in self.log:
            lines.append(f"{row['epoch']},{row['train_mse']:.10g},"
                         f"{row['val_mse']:.10g},{row['wall_seconds']:.6f}")
        return "\n".join(lines) + "\n"


def split_indices(n: int, seed: int):
    """Seeded disjoint-and-exhaustive train/test split."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = int(round(n * TEST_FRACTION))
    if n > 1:
        n_test = max(1, n_test)
    n_test = min(n_test, n - 1) if n > 0 else 0
    test = tuple(sorted(int(i) for i in order[:n_test]))
    train = tuple(sorted(int(i) for i in order[n_test:]))
    return train, test


def split_samples(samples, seed: int) -> tuple[list, tuple, tuple]:
    """The held-out split that :func:`train` uses: ``(usable, train_idx,
    test_idx)``.  ``usable`` keeps the uncensored samples in dataset order
    (a censored label is only a lower bound) and the index tuples are
    :func:`split_indices` over it."""
    usable = [s for s in samples if not s.censored]
    return (usable, *split_indices(len(usable), seed))


def train(dataset: list, config: ModelConfig) -> TrainResult:
    """Alg.-style loop: split, shuffle, batch, ADAM, stop on convergence.

    Censored samples are left out.  Stopping uses the train loss only;
    the held-out split's mse is logged per epoch as val_mse for
    reporting.

    Each epoch's train-loss pass runs at the parameters the next epoch
    starts from, so it also yields the next epoch's first minibatch
    gradients: the next permutation is drawn before the pass, whose
    first samples run backward too, and the next epoch steps on those
    held gradients.  Logs, parameters and stopping are those of a loop
    that recomputes them; only the order in which samples are visited
    differs, so a diverging run may report another sample's stage.
    """
    usable, train_idx, test_idx = split_samples(dataset, config.seed)
    if not usable:
        raise ValueError("dataset is empty (or fully censored)")
    train_set = [usable[i] for i in train_idx]
    test_set = [usable[i] for i in test_idx]
    if len(train_set) < 2:
        raise ValueError(f"need at least 2 training samples, got {len(train_set)}")

    model = new_model(config)
    state = init_adam(model.params, lr=config.learning_rate)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    log = []
    history: list[float] = []
    held = None  # (squared-residual sum, grads) of the epoch's first minibatch
    order = shuffle_rng.permutation(len(train_set))
    t0 = time.perf_counter()
    for epoch in range(config.max_epochs):
        for lo in range(0, len(order), config.batch_size):
            if held is None:
                batch = [train_set[i] for i in order[lo:lo + config.batch_size]]
                _, grads = loss_and_grads(model, batch)
            else:
                (first_sq, grads), held = held, None
                if not np.isfinite(first_sq):  # checked on use, as loss_and_grads does
                    raise NonFiniteError("batch loss")
            new_params, state = adam_step(model.params, grads, state)
            model = Model(model.config, new_params)
        first = ()  # the next epoch's first minibatch, if there is a next epoch
        if epoch + 1 < config.max_epochs:
            order = shuffle_rng.permutation(len(train_set))
            first = order[:config.batch_size]
        first_sq, sq, grads = _sweep(model, train_set, first)
        held = first_sq, grads
        train_mse = sq / len(train_set)
        val_mse = batch_mse(model, test_set)
        log.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse,
                    "wall_seconds": time.perf_counter() - t0})
        history.append(train_mse)
        if len(history) > 10:
            prev = history[-11]
            if abs(prev - train_mse) / max(prev, 1e-12) < config.convergence_tol:
                break
    return TrainResult(model, log, train_idx, test_idx, len(log))


# --- flat baselines ---

def baseline_aggregate_features(a, x, mode: str = "sum") -> np.ndarray:
    """Collapse the gate axis of (A, X) into one flat vector.

    The A part is the column sums (or means) of the structure matrix.
    """
    (_, cols, vals), x = _graph_input(a, x)
    n = x.shape[0]
    col_sums = np.bincount(cols, vals, minlength=n)
    if mode == "sum":
        return np.concatenate([col_sums, x.sum(axis=0)])
    if mode == "mean":
        return np.concatenate([col_sums / n, x.mean(axis=0)])
    raise ValueError(f"mode must be 'sum' or 'mean', got {mode!r}")


def fit_linear(features: np.ndarray, labels: np.ndarray,
               ridge_lambda: float = 0.0) -> np.ndarray:
    """Least squares / ridge with an unpenalized intercept (last weight).

    ridge_lambda = 0 uses the minimum-norm solution, so rank-deficient
    systems are fine.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] < 1:
        raise ValueError(f"bad shapes: features {x.shape}, labels {y.shape}")
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    if ridge_lambda == 0.0:
        w, *_ = np.linalg.lstsq(xb, y, rcond=None)
        return w
    reg = ridge_lambda * np.eye(xb.shape[1])
    reg[-1, -1] = 0.0  # intercept unpenalized
    return np.linalg.solve(xb.T @ xb + reg, xb.T @ y)


def linear_predict(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    return xb @ weights


# --- checkpointing ---

# a checkpoint file, as save_checkpoint writes it
CHECKPOINT = {"format": json_choice(CHECKPOINT_FORMAT), "version": json_choice(CHECKPOINT_VERSION),
              "config": ModelConfig.from_dict, "label_kind": json_choice(*LABEL_KINDS),
              "params": {str: {"shape": [COUNT], "data": [FINITE]}}}


def save_checkpoint(model: Model, path, label_kind: str) -> None:
    """Write the model and the label kind it was trained on as JSON."""
    write_json(path, {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "label_kind": label_kind,
        "params": params_to_doc(model.params),
    })


def load_checkpoint(path) -> tuple[Model, str]:
    """The model and the label kind it was trained on.  The file must match
    :data:`CHECKPOINT`, its parameters the names and shapes its config builds."""
    doc = read_json_object(path, CHECKPOINT)
    config = doc["config"]
    try:
        params = params_from_doc(check_json(doc["params"], {
            k: {"shape": json_choice(list(shape)), "data": [FINITE]}
            for k, shape in param_shapes(config.feature_dim, config.hidden_dims).items()},
            "params"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return Model(config, params), doc["label_kind"]
