"""From-scratch LSTM / BLSTM sequence regression in double precision.

Cells are the standard formulation: logistic input/forget/output gates, tanh
cell-candidate and cell-output nonlinearities, no peepholes. A BLSTM layer of
size N runs N/2 units per direction and concatenates their outputs. Training
is full-sequence BPTT with an SSE loss, plain gradient descent with one
update per sequence presentation, per-presentation Gaussian input noise, and
early stopping on validation SSE.

All parameters live in one flat float64 vector with named views. One time
loop steps every weight set along the views' leading axes: the two directions
of a BLSTM layer (the backward one over the reversed input), and the batches
of perturbed parameter vectors of `gradient_check`.

Gate blocks are stacked row-wise in the order (input, forget, cell, output)
inside each weight array, `theta` and the model file. The time loop works
gate-major in the step order (input, forget, output, cell): every gate of every
weight set is one contiguous block, and so are the three logistic gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError, DivergenceError
from .fusion import NormStats
from .timeline import (
    Nullable, Required, _float, _int, _list, _object, _one_of, _positive, _str, read_fields,
    open_output, read_json,
)

GATE_ORDER = ("input", "forget", "cell", "output")
MODEL_FORMAT_VERSION = 1
# Standard deviation of the Gaussian input noise added to each training presentation.
NOISE_SIGMA = 0.1
# Parameters per batched forward in gradient_check, two weight sets each.
# Peak memory grows with it: 64 adds about 3 MB on the 8-6 criterion specs.
GRADCHECK_BATCH = 64
# Central-difference step of gradient_check.
GRADCHECK_STEP = 1e-5
# Time order in which each direction of a layer reads its input.
_DIRECTION_TIME = (slice(None), slice(None, None, -1))
# GATE_ORDER indices of the step order, and each step gate's sign: the logistic
# rows hold -z, so the loop's sigmoid 1 / (1 + exp(-z)) needs no negation.
_STEP_ORDER = [0, 1, 3, 2]
_STEP_SIGN = np.array([[-1.0], [-1.0], [-1.0], [1.0]])
# Bytes per block of frames re-laid gate-major: bounds the temporary copy.
_RELAYOUT_BYTES = 1 << 17


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "lstm" | "blstm"
    size: int

    def __post_init__(self):
        if self.kind not in ("lstm", "blstm"):
            raise DataError(f"unknown layer kind {self.kind!r}")
        if self.size < 1:
            raise DataError("layer size must be >= 1")
        if self.kind == "blstm" and self.size % 2:
            raise DataError("blstm layer size must be even (split across directions)")


@dataclass(frozen=True)
class NetworkSpec:
    """Hidden layers and input width of a single-output regressor."""

    layers: tuple[LayerSpec, ...]
    input_dim: int

    def __post_init__(self):
        if not self.layers:
            raise DataError("network needs at least one hidden layer")
        if self.input_dim < 1:
            raise DataError("input_dim must be >= 1")

    def layer_widths(self) -> list[tuple[int, int]]:
        """(input width, output width) for each layer, in order."""
        sizes = [self.input_dim] + [l.size for l in self.layers]
        return list(zip(sizes[:-1], sizes[1:]))

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_dim": 1,
            "layers": [{"kind": l.kind, "size": l.size} for l in self.layers],
        }


@dataclass
class DirectionWeights:
    """Stacked-gate parameters of one recurrent direction, or of several
    stepped together along leading batch axes."""

    w: np.ndarray  # (..., 4H, D) input weights
    r: np.ndarray  # (..., 4H, H) recurrent weights
    b: np.ndarray  # (..., 4H) biases

    @property
    def hidden(self) -> int:
        return self.r.shape[-1]


class NetworkParams:
    """All trainable parameters as one flat float64 vector `theta`.

    `theta` holds w, r and b of each layer and direction in turn, then the
    readout weights `w_out` and the readout bias `b_out`. `stacked[l]` holds
    all directions of layer l along an extra axis before the gate axis (one
    for LSTM; forward then backward for BLSTM). Every one of them is a view
    into `theta`, so writing to a view writes to `theta`. A `theta` of shape
    (..., P) is a batch of weight sets, and every view carries those axes.
    """

    def __init__(self, spec: NetworkSpec, theta: np.ndarray | None = None):
        dims = [  # (directions, units per direction, input width) per layer
            (1, l.size, d) if l.kind == "lstm" else (2, l.size // 2, d)
            for l, (d, _) in zip(spec.layers, spec.layer_widths())
        ]
        if theta is None:
            size = sum(n * 4 * h * (d + h + 1) for n, h, d in dims)
            theta = np.zeros(size + spec.layers[-1].size + 1)
        # Contiguity makes every reshape below a view, never a copy.
        self.theta = np.ascontiguousarray(theta, dtype=float)
        self.spec = spec
        lead = self.theta.shape[:-1]
        self.stacked: list[DirectionWeights] = []
        offset = 0
        for n_dir, h, in_dim in dims:
            w_end, r_end = 4 * h * in_dim, 4 * h * (in_dim + h)
            size = r_end + 4 * h
            block = self.theta[..., offset : offset + n_dir * size].reshape(lead + (n_dir, size))
            self.stacked.append(
                DirectionWeights(
                    w=block[..., :w_end].reshape(lead + (n_dir, 4 * h, in_dim)),
                    r=block[..., w_end:r_end].reshape(lead + (n_dir, 4 * h, h)),
                    b=block[..., r_end:],
                )
            )
            offset += n_dir * size
        self.w_out = self.theta[..., offset:-1]

    @property
    def b_out(self) -> float:
        return float(self.theta[-1])

    def clone(self) -> "NetworkParams":
        return NetworkParams(self.spec, self.theta.copy())

    def __reduce__(self):
        # Pickle the buffer once; the views are rebuilt on load.
        return NetworkParams, (self.spec, self.theta)


@dataclass
class TrainConfig:
    learning_rate: float
    seed: int
    max_epochs: int = 100
    patience_epochs: int = 20

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise DataError("learning rate must be positive")
        if not 0 < self.patience_epochs < self.max_epochs:
            raise DataError("need 0 < patience_epochs < max_epochs")


@dataclass
class TrainedModel:
    spec: NetworkSpec
    params: NetworkParams
    norm_stats: NormStats | None = None
    dimension: str | None = None
    shift_used: int | None = None
    history: list[tuple[float, float]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def init_network(spec: NetworkSpec, seed: int) -> NetworkParams:
    """Deterministic init: weights uniform in [-0.1, 0.1], biases zero."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(spec)
    for dw in params.stacked:
        for w, r in zip(dw.w, dw.r):  # one direction at a time
            w[...] = rng.uniform(-0.1, 0.1, size=w.shape)
            r[...] = rng.uniform(-0.1, 0.1, size=r.shape)
    params.w_out[...] = rng.uniform(-0.1, 0.1, size=params.w_out.shape)
    return params


def _join(parts: list, axis: int) -> np.ndarray:
    """The per-direction parts of a layer joined along `axis`; a layer with
    one direction gets its one part back, a view, not a copy."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _layer_forward(dw: DirectionWeights, x: np.ndarray):
    """Step every direction of one layer over its input in one time loop,
    the backward one over the reversed input, and concatenate their outputs.

    dw's arrays (..., directions, 4H, ·) and x (..., N, D) share their
    leading axes, one weight set per index (x may broadcast). Returns the
    output (..., N, directions * H) and the cache that BPTT reads. The
    buffers are time-major, (N, ..., directions, width), so each step reads
    and writes contiguous rows; the gate buffer is (N, 4, ..., H),
    gate-major in step order. With one direction the cached input is x and
    the output a view of the cached hidden states.
    """
    times = _DIRECTION_TIME[: dw.b.shape[-2]]
    x = _join([x[..., None, s, :] for s in times], -3)
    h_dim = dw.hidden
    lead = np.broadcast_shapes(x.shape[:-2], dw.b.shape[:-1])
    # Input products for all frames in theta's gate order, then re-laid
    # gate-major in place, a block of frames at a time. Frame t's gate row is
    # overwritten by its activated gates once it has been read.
    rows = np.empty(x.shape[-2:-1] + lead + (4 * h_dim,))
    np.matmul(x, np.swapaxes(dw.w, -1, -2), out=np.moveaxis(rows, 0, -2))
    rows += dw.b
    quad = rows.reshape(rows.shape[:-1] + (4, h_dim))
    gates = rows.reshape((len(rows), 4) + lead + (h_dim,))
    block = max(1, _RELAYOUT_BYTES // rows.strides[0])
    for t in range(0, len(rows), block):
        np.multiply(quad[t : t + block, ..., _STEP_ORDER, :], _STEP_SIGN,
                    out=np.moveaxis(gates[t : t + block], 1, -2))
    # The recurrent weights' rows likewise, so rec comes out in step order.
    r = dw.r.reshape(dw.r.shape[:-2] + (4, h_dim * h_dim))[..., _STEP_ORDER, :] * _STEP_SIGN
    r = r.reshape(dw.r.shape)
    rec = np.empty(lead + (4 * h_dim, 1))
    rec_gates = np.moveaxis(rec.reshape(lead + (4, h_dim)), -2, 0)
    cs = np.empty(gates[:, 0].shape)
    hs = np.empty_like(cs)
    h = c = np.zeros(lead + (h_dim,))
    ig = np.empty_like(h)
    steps = zip(gates, gates[:, :3], *np.moveaxis(gates, 1, 0), cs, hs)
    # A saturated gate (z far below 0) overflows exp(-z) to inf, and
    # 1 / (1 + inf) is 0, the logistic's exact limit: nothing to warn about.
    with np.errstate(over="ignore"):
        for z, logistic, i, f, o, g, c_t, h_t in steps:
            np.matmul(r, h[..., None], out=rec)
            z += rec_gates
            np.tanh(g, out=g)
            np.exp(logistic, out=logistic)  # sigmoid 1 / (1 + exp(-z)), over -z
            logistic += 1.0
            np.divide(1.0, logistic, out=logistic)
            c = np.multiply(f, c, out=c_t)
            c += np.multiply(i, g, out=ig)
            h = np.tanh(c, out=h_t)
            h *= o
    # The loop's own buffers and views go before the output is joined.
    del r, rec, rec_gates, ig, quad, steps, z, logistic, i, f, o, g, c_t, h_t, h, c
    out = np.moveaxis(hs, 0, -2)
    return _join([out[..., k, s, :] for k, s in enumerate(times)], -1), (x, gates, cs, hs)


def _layer_backward(
    dw: DirectionWeights, cache, d_out: np.ndarray, grad: DirectionWeights, input_grad: bool
):
    """BPTT through every direction of one layer; writes the parameter
    gradients into grad's arrays and returns the gradient of the layer's
    input (None without `input_grad`): a view for one direction, a fresh sum
    for two, so the product holding both parts is freed.

    Everything but the dh and dc recurrences is computed for the whole
    sequence before the time loop; the cache's buffers are overwritten.
    """
    times = _DIRECTION_TIME[: dw.b.shape[-2]]
    h_dim = dw.hidden
    d_hs = _join([d_out[..., None, s, k * h_dim : (k + 1) * h_dim]
                  for k, s in enumerate(times)], -3)
    x, gates, cs, hs = cache
    i, f, o, g = np.moveaxis(gates, 1, 0)
    quad = i.shape[:-1] + (4, h_dim)
    # dz holds each frame's delta multipliers until the loop scales them into
    # gate deltas: the (i, f, g) block by dc and the o block by dh.
    dz = np.empty(quad)
    m_i, m_f, m_g, m_o = np.moveaxis(dz, -2, 0)
    for m, a in ((m_i, i), (m_f, f), (m_o, o)):  # logistic slopes a * (1 - a)
        np.subtract(1.0, a, out=m)
        m *= a
    m_i *= g
    m_f[:1] = 0.0  # the cell state before the first frame is 0
    m_f[1:] *= cs[:-1]
    np.multiply(g, g, out=m_g)
    np.subtract(1.0, m_g, out=m_g)
    m_g *= i
    tc = np.tanh(cs, out=cs)
    m_o *= tc
    dc_dh = np.multiply(tc, tc, out=g)  # o * (1 - tanh(c)^2), over the dead g rows
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    d_hs = np.moveaxis(d_hs, -2, 0)
    dh_rec = np.zeros(quad[1:-2] + (1, h_dim))
    dh = dh_rec[..., 0, :]
    dc, tmp = np.zeros_like(dh), np.empty_like(dh)
    ifg = dz[..., :3, :]
    dz_rows = dz.reshape(quad[:-2] + (1, 4 * h_dim))
    dc_col = dc[..., None, :]  # a view: it follows dc's in-place updates
    steps = zip(d_hs[::-1], dc_dh[::-1], ifg[::-1], m_o[::-1], f[::-1], dz_rows[::-1])
    for d_h, dc_dh_t, ifg_t, m_o_t, f_t, dz_row in steps:
        np.add(d_h, dh, out=dh)
        dc += np.multiply(dh, dc_dh_t, out=tmp)
        np.multiply(dc_col, ifg_t, out=ifg_t)
        np.multiply(dh, m_o_t, out=m_o_t)
        dc *= f_t
        np.matmul(dz_row, dw.r, out=dh_rec)
    dz_all = np.moveaxis(dz.reshape(quad[:-2] + (4 * h_dim,)), 0, -2)
    dz_t = np.swapaxes(dz_all, -1, -2)
    np.matmul(dz_t, x, out=grad.w)
    np.matmul(dz_t[..., 1:], np.moveaxis(hs[:-1], 0, -2), out=grad.r)
    dz_all.sum(axis=-2, out=grad.b)
    # The cache's buffers (hs, cs, gates, x, then d_hs) and every view of them,
    # loop variables included, go before the product.
    del steps, d_h, dc_dh_t, f_t, i, f, o, g, a, tc, dc_dh, cache, hs, cs, gates, x, d_hs
    if not input_grad:
        return None
    dxs = dz_all @ dw.w
    if len(times) == 1:
        return dxs[..., 0, :, :]
    return dxs[..., 0, :, :] + dxs[..., 1, times[1], :]


def predict(params: NetworkParams, spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Per-frame predictions. Each layer's cache is freed once the next layer
    has its input, so the peak holds one layer's buffers.

    A batched `params` (theta of shape (..., P)) gives predictions of shape
    (..., N), one row per weight set, from the same time loops.
    """
    current = _checked_input(spec, x)
    for dw in params.stacked:
        current = _layer_forward(dw, current)[0]
    return _readout(params, current)


def _checked_input(spec: NetworkSpec, x: np.ndarray, targets=None) -> np.ndarray:
    """x as floats of the network's input width (and of the targets' length, if given)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise DataError(
            f"input width {x.shape[-1] if x.ndim == 2 else '?'} != "
            f"network input_dim {spec.input_dim}"
        )
    if len(x) < 1:
        raise DataError("input has no frames")
    if targets is not None and len(targets) != len(x):
        raise DataError(f"target length {len(targets)} != sequence length {len(x)}")
    return x


def _readout(params: NetworkParams, h: np.ndarray) -> np.ndarray:
    return (h @ params.w_out[..., None])[..., 0] + params.theta[..., -1:]


def bptt_gradients(
    params: NetworkParams,
    spec: NetworkSpec,
    x: np.ndarray,
    targets: np.ndarray,
):
    """Exact gradients of the SSE loss w.r.t. every parameter.

    Returns (gradients as a NetworkParams, loss).
    """
    targets = np.asarray(targets, dtype=float)
    caches, last_h = [], _checked_input(spec, x, targets)  # before any forward work
    for dw in params.stacked:  # the forward pass, keeping each layer's cache
        last_h, cache = _layer_forward(dw, last_h)
        caches.append(cache)
    del cache  # so the backward pass below frees the top layer's cache too
    err = _readout(params, last_h) - targets
    loss = float(np.sum(err**2))
    dy = 2.0 * err  # (N,)
    grads = NetworkParams(spec)
    grads.w_out[...] = last_h.T @ dy
    grads.theta[-1] = dy.sum()
    d_h = np.outer(dy, params.w_out)
    del last_h  # the top layer's output, read by nothing in the backward pass
    for layer in reversed(range(len(caches))):  # layer 0's input gradient is never read
        d_h = _layer_backward(params.stacked[layer], caches.pop(), d_h, grads.stacked[layer],
                              layer > 0)
    return grads, loss


def inject_noise(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """x plus fresh i.i.d. zero-mean Gaussian noise of std NOISE_SIGMA per element."""
    return x + rng.normal(0.0, NOISE_SIGMA, size=x.shape)


def evaluate_sse(
    params: NetworkParams, spec: NetworkSpec, dataset: list[tuple[np.ndarray, np.ndarray]]
) -> float:
    """Noise-free total SSE of the network over a dataset of (x, y) sequences."""
    total = 0.0
    for x, y in dataset:
        preds = predict(params, spec, _checked_input(spec, x, y))
        total += float(np.sum((preds - np.asarray(y, dtype=float)) ** 2))
    return total


def train_network(
    spec: NetworkSpec,
    train: list[tuple[np.ndarray, np.ndarray]],
    val: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> TrainedModel:
    """Early-stopped gradient-descent training; returns the best-epoch model.

    Each epoch shuffles the training sequences (seeded), injects fresh input
    noise per presentation, takes one gradient step per sequence, and
    evaluates noise-free validation SSE. Training stops at max_epochs or once
    the best epoch is patience_epochs old.
    """
    if not train or not val:
        raise DataError("train and validation partitions must be non-empty")
    train = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in train]
    val = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in val]
    params = init_network(spec, config.seed)
    rng = np.random.default_rng(config.seed)

    history: list[tuple[float, float]] = []
    best_val = np.inf
    best_params = params.clone()
    best_epoch = 0
    # DivergenceError reports a diverging run, so its overflows are not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(len(train))
            train_sse = 0.0
            for seq_i in order:
                x, y = train[seq_i]
                noisy = inject_noise(x, rng)
                grads, loss = bptt_gradients(params, spec, noisy, y)
                train_sse += loss
                params.theta -= config.learning_rate * grads.theta
            val_sse = evaluate_sse(params, spec, val)
            if not (np.isfinite(train_sse) and np.isfinite(val_sse)):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} "
                    f"(last finite epoch: {epoch - 1})",
                    last_finite_epoch=epoch - 1,
                )
            history.append((train_sse, val_sse))
            if val_sse < best_val:
                best_val = val_sse
                best_params = params.clone()
                best_epoch = epoch
            if epoch - best_epoch >= config.patience_epochs:
                break
    return TrainedModel(
        spec=spec,
        params=best_params,
        history=history,
        metadata={
            "seed": config.seed,
            "learning_rate": config.learning_rate,
            "best_epoch": best_epoch,
            "best_val_sse": best_val,
        },
    )


# ---------------------------------------------------------------------------
# Gradient verification

@dataclass(frozen=True)
class GradientCheckReport:
    max_relative_error: float
    n_parameters: int
    worst_index: int


def gradient_check(spec: NetworkSpec, seed: int, sequence_length: int = 20) -> GradientCheckReport:
    """Compare BPTT gradients to central finite differences, parameter by parameter.

    The +GRADCHECK_STEP and -GRADCHECK_STEP copies of theta for
    GRADCHECK_BATCH parameters at a time run as one batch of weight sets
    through the ordinary forward pass; no BPTT code is involved, so the check
    stays independent of it. A parameter of layer l leaves the layers below l
    unchanged, so a batch holds parameters of one layer (or of the readout)
    and starts from that layer's unperturbed input.

    Relative error is |g_a - g_n| / max(|g_a|, |g_n|, 1e-5). The absolute
    floor sits at the noise scale of central differences with this step, so
    components whose true gradient is essentially zero are compared
    absolutely (to ~1e-9) instead of dividing roundoff by roundoff.
    Parameters are drawn from a wider distribution than the training init to
    keep activations away from full saturation. `worst_index` indexes
    `NetworkParams.theta`.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(sequence_length, spec.input_dim))
    y = rng.normal(size=sequence_length)
    params = NetworkParams(spec)
    params.theta[...] = rng.normal(0.0, 0.3, size=params.theta.size)
    ga = bptt_gradients(params, spec, x, y)[0].theta
    theta = params.theta
    inputs, edges = [x], [0]  # each layer's input, and where its parameters start
    for dw in params.stacked:
        inputs.append(_layer_forward(dw, inputs[-1])[0])
        edges.append(edges[-1] + dw.w.size + dw.r.size + dw.b.size)
    edges.append(len(theta))  # the readout's input is the top layer's output
    copies = np.tile(theta, 2 * GRADCHECK_BATCH)  # restored to theta after each batch
    gn = np.empty_like(ga)
    for layer, (first, end) in enumerate(zip(edges[:-1], edges[1:])):
        for start in range(first, end, GRADCHECK_BATCH):
            index = np.arange(start, min(start + GRADCHECK_BATCH, end))
            batch = copies[: 2 * len(index) * len(theta)].reshape(2, len(index), len(theta))
            batch[:, index - start, index] += [[GRADCHECK_STEP], [-GRADCHECK_STEP]]
            perturbed = NetworkParams(spec, batch)
            current = inputs[layer]
            for dw in perturbed.stacked[layer:]:
                current = _layer_forward(dw, current)[0]
            loss = np.sum((_readout(perturbed, current) - y) ** 2, axis=-1)
            gn[index] = (loss[0] - loss[1]) / (2.0 * GRADCHECK_STEP)
            batch[:, index - start, index] = theta[index]
    rel = np.abs(ga - gn) / np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-5)
    worst = int(np.argmax(rel))
    return GradientCheckReport(
        max_relative_error=float(rel[worst]),
        n_parameters=len(theta),
        worst_index=worst,
    )


# ---------------------------------------------------------------------------
# Model persistence

def _named_views(params: NetworkParams):
    """(entry, key, view) for every recurrent weight block, in model-file
    order: per layer and direction, the w, r and b rows of each gate."""
    for li, dw in enumerate(params.stacked):
        suffixes = [""] if len(dw.b) == 1 else ["_forward", "_backward"]
        h = dw.hidden
        for suffix, *direction in zip(suffixes, dw.w, dw.r, dw.b):
            for gi, gate in enumerate(GATE_ORDER):
                for prefix, arr in zip("wrb", direction):
                    yield f"layer{li}{suffix}", f"{prefix}_{gate}", arr[gi * h : (gi + 1) * h]


def _fill(view: np.ndarray, values) -> None:
    """Write a flat list of numbers into a parameter view, checking its length."""
    flat = np.array(_list(_float)(values))
    if flat.shape != (view.size,):
        raise ValueError(f"expected {view.size} numbers, got {len(flat)}")
    view[...] = flat.reshape(view.shape)


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Serialize a trained model to JSON with round-trip-exact weights."""
    weights = {}
    for entry, key, view in _named_views(model.params):
        weights.setdefault(entry, {})[key] = view.ravel().tolist()
    weights["readout"] = {"w": model.params.w_out.tolist(), "b": model.params.b_out}
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "spec": model.spec.to_dict(),
        "norm_stats": model.norm_stats.to_dict() if model.norm_stats else None,
        "dimension": model.dimension,
        "shift_used": model.shift_used,
        "weights": weights,
        "history": [[tr, va] for tr, va in model.history],
        "metadata": model.metadata,
    }
    with open_output(path) as fh:
        fh.write(json.dumps(doc))


def _weights_schema(params: NetworkParams) -> dict:
    """The schema of a model file's `weights` key: each rule fills its view of params."""
    schema: dict = {}
    for entry, key, view in _named_views(params):
        schema.setdefault(entry, {})[key] = Required(partial(_fill, view))
    schema["readout"] = {
        "w": Required(partial(_fill, params.w_out)),
        "b": Required(lambda b: _fill(params.theta[-1:], [b])),
    }
    return {"weights": Required({entry: Required(section) for entry, section in schema.items()})}


# Each key of a model file and its rule (see timeline.read_fields); `weights`
# is read by the schema its spec gives (_weights_schema).
MODEL_SCHEMA = {
    "version": Required(_one_of(MODEL_FORMAT_VERSION)),
    "spec": Required({
        "input_dim": Required(_int),
        "output_dim": _one_of(1),  # single-task networks only
        "layers": Required([{"kind": Required(_str), "size": Required(_int)}]),
    }),
    "norm_stats": Nullable({
        "feature_names": Required(_list(_str)),
        "feature_means": Required(_list(_float)),
        "feature_stds": Required(_list(_positive)),
        "target_mean": Required(_float),
        "target_std": Required(_positive),
    }),
    "dimension": Nullable(_str),
    "shift_used": Nullable(_int),
    "weights": Required(_object),
    "history": _list(_list(_float, 2)),  # [train, val] SSE pairs
    "metadata": _object,
}


def load_model(path: str | Path) -> TrainedModel:
    """Load a model JSON; rejects truncated files, version mismatches, unknown
    keys, and weights or normalization stats that do not match the spec."""
    doc = read_fields(read_json(Path(path), DataError, "model"), MODEL_SCHEMA, DataError, "model")
    layout = doc.pop("spec")
    spec = NetworkSpec(tuple(LayerSpec(**l) for l in layout["layers"]), layout["input_dim"])
    params = NetworkParams(spec)
    read_fields({"weights": doc.pop("weights")}, _weights_schema(params), DataError, "model")
    stats = doc.get("norm_stats")
    if stats is not None:
        for key in ("feature_names", "feature_means", "feature_stds"):
            if len(stats[key]) != spec.input_dim:
                raise DataError(f"model field 'norm_stats.{key}' holds {len(stats[key])} "
                                f"items, not spec.input_dim {spec.input_dim}")
        doc["norm_stats"] = NormStats(stats["feature_names"], np.array(stats["feature_means"]),
                                      np.array(stats["feature_stds"]), stats["target_mean"],
                                      stats["target_std"])
    del doc["version"]
    return TrainedModel(spec=spec, params=params, history=list(doc.pop("history", [])), **doc)
