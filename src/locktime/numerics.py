"""Dense numeric kernels for the regressor: activations with shape
contracts, name → array dicts, seeded initialization, and ADAM.

Arrays are plain float64 numpy arrays; the operations here add the
shape/finiteness checking and the deterministic-behaviour contract the
training stack relies on.  Everything is value-semantics: functions
return fresh arrays and never mutate their inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np


class NonFiniteError(FloatingPointError):
    def __init__(self, where: str):
        super().__init__(f"non-finite values in {where}")


def no_fp_warnings():
    """numpy's overflow and invalid-value warnings off, for passes that
    report non-finite values by check_finite instead."""
    return np.errstate(over="ignore", invalid="ignore")


def check_finite(name: str, a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(name)
    return a


def relu_grad(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape != upstream.shape:
        raise ValueError(f"relu_grad shapes differ: {x.shape} vs {upstream.shape}")
    if not np.isfinite(upstream).all():  # inf or nan times a zero mask is nan, not 0
        return np.where(x > 0.0, upstream, 0.0)
    return upstream * (x > 0.0)  # subgradient 0 at x == 0


def softmax(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"softmax expects a vector, got shape {v.shape}")
    check_finite("softmax input", v)
    e = np.exp(v - v.max())
    return e / e.sum()


def _draw(rng, shape) -> np.ndarray:
    fan_in, fan_out = (*shape, 1)[:2]  # a vector's fan-out is 1
    bound = np.sqrt(6.0 / (fan_in + fan_out))  # uniform Glorot
    return rng.uniform(-bound, bound, size=shape)


def param_shapes(feature_dim: int, hidden_dims) -> dict:
    """Each parameter's shape for the conv + attention readout architecture:
    conv<l>: (dims[l], dims[l+1]); feat: (h_last,); gate: (1,)."""
    dims = [feature_dim, *hidden_dims]
    shapes = {f"conv{l}": (dims[l], dims[l + 1]) for l in range(len(hidden_dims))}
    return shapes | {"feat": (dims[-1],), "gate": (1,)}


def init_params(feature_dim: int, hidden_dims, seed: int = 0) -> dict:
    """Uniform-Glorot parameters of :func:`param_shapes`, drawn in its order."""
    rng = np.random.default_rng(seed)
    return {k: _draw(rng, shape) for k, shape in param_shapes(feature_dim, hidden_dims).items()}


def zeros_like(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ADAM's moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict  # name -> ADAM's first moment, in the parameters' order
    v: dict  # name -> its second moment
    t: int
    lr: float


def init_adam(params: dict, lr: float = 1e-3) -> AdamState:
    return AdamState(zeros_like(params), zeros_like(params), 0, lr)


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One bias-corrected ADAM descent step; returns fresh params/state.

    grads must match params name by name, in order, and shape by shape.
    A non-finite gradient is reported as a warning and the step is
    skipped entirely (parameters, moments and t unchanged).
    """
    if list(params) != list(grads):
        raise ValueError(f"parameter names differ: {list(params)} vs {list(grads)}")
    for k, g in grads.items():
        if params[k].shape != g.shape:
            raise ValueError(f"shape mismatch for {k!r}: {params[k].shape} vs {g.shape}")
    for k, g in grads.items():
        if not np.isfinite(g).all():
            warnings.warn(f"non-finite gradient for {k!r}; ADAM step skipped",
                          RuntimeWarning, stacklevel=2)
            return params, state
    t = state.t + 1
    new_p, new_m, new_v = {}, {}, {}
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for k, g in grads.items():
        m = b1 * state.m[k] + (1 - b1) * g
        v = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        new_p[k] = params[k] - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[k] = m
        new_v[k] = v
    return new_p, replace(state, m=new_m, v=new_v, t=t)


def params_to_doc(params: dict) -> dict:
    """Shape-tagged JSON-safe dict (row-major value lists)."""
    return {k: {"shape": list(v.shape), "data": v.ravel().tolist()}
            for k, v in params.items()}


def params_from_doc(doc: dict) -> dict:
    """The parameters of a :func:`params_to_doc` dict whose shapes and
    values are already checked; each value list must fill its shape."""
    arrays = {}
    for k, spec in doc.items():
        shape, data = spec["shape"], np.asarray(spec["data"], dtype=np.float64)
        size = math.prod(shape)
        if data.size != size:
            raise ValueError(f"parameter {k!r} has {data.size} values, "
                             f"its shape {shape} needs {size}")
        arrays[k] = data.reshape(shape)
    return arrays
