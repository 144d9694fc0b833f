"""Neural-network primitives with hand-written backpropagation.

Everything is double precision. The LSTM cell uses logistic sigmoid gates
and ReLU for the candidate and cell-output nonlinearities; the ReLU
subgradient at 0 is 0.

The recurrence runs in one kernel, `lstm_sequence_forward`/`_backward`,
stacked into bidirectional layers by `blstm_forward`/`blstm_backward`;
`lstm_step` is its one-step definition, kept as the tests' oracle. The
kernel caches only the post-activation gates, the states C and H and the
input xs. The rest follows: the candidate pre-activation is positive where
g > 0, and the previous cell state and the recurrent input are C and H
shifted down one step (zero at t = 0), so dW = [dZ^T xs | dZ[1:]^T H[:-1]].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

Array = np.ndarray


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def sigmoid(x: Array) -> Array:
    """Numerically stable logistic function (no overflow for large |x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> Array:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


@dataclass(eq=False)
class LstmParams:
    """One LSTM cell. Gate rows of `weight` are stacked [input; forget; output;
    candidate], each block hidden_dim wide, acting on [x ⊕ h_prev]."""

    weight: Array  # (4M, input_dim + M)
    bias: Array    # (4M,)
    hidden_dim: int
    use_bias: bool = True

    @property
    def input_dim(self) -> int:
        return self.weight.shape[1] - self.hidden_dim

    @classmethod
    def create(cls, rng: np.random.Generator, input_dim: int, hidden_dim: int,
               use_bias: bool = True) -> "LstmParams":
        w = init_uniform(rng, (4 * hidden_dim, input_dim + hidden_dim),
                         input_dim + hidden_dim)
        return cls(w, np.zeros(4 * hidden_dim), hidden_dim, use_bias)


def lstm_step(params: LstmParams, x: Array, h_prev: Array, c_prev: Array):
    """One recurrence step; returns (h, c)."""
    m = params.hidden_dim
    if x.shape[0] != params.input_dim or h_prev.shape[0] != m or c_prev.shape[0] != m:
        raise ValueError("dimension mismatch in lstm_step")
    u = np.concatenate([x, h_prev])
    z = params.weight @ u
    if params.use_bias:
        z = z + params.bias
    i = sigmoid(z[:m])
    f = sigmoid(z[m:2 * m])
    o = sigmoid(z[2 * m:3 * m])
    g = relu(z[3 * m:])
    c = f * c_prev + i * g
    h = o * relu(c)
    return h, c


@dataclass(eq=False)
class LstmCache:
    """One sequence's forward intermediates for backpropagation."""

    gates: Array  # (L, 4M) post-activation gates [i; f; o; g]
    C: Array      # (L, M) cell states
    H: Array      # (L, M) hidden states
    xs: Array     # (L, D) inputs


def lstm_sequence_forward(params: LstmParams, xs: Array):
    """Run the cell over xs (L, D) from zero initial state.

    Returns (H, cache) where H[t] is the hidden state after consuming xs[t].
    """
    length = xs.shape[0]
    m = params.hidden_dim
    d = params.input_dim
    # input-to-gate projections for the whole sequence in one product; the
    # loop adds the recurrent term and applies the nonlinearities in place
    gates = xs @ params.weight[:, :d].T
    if params.use_bias:
        gates += params.bias
    wh = params.weight[:, d:]
    C = np.empty((length, m))
    H = np.empty((length, m))
    h = np.zeros(m)
    c = np.zeros(m)
    for t in range(length):
        z = gates[t]
        z += wh @ h
        s = z[:3 * m]  # i, f, o: sigmoid(z) = 0.5 * (1 + tanh(z / 2))
        s *= 0.5
        np.tanh(s, out=s)
        s *= 0.5
        s += 0.5
        g = np.maximum(z[3 * m:], 0.0, out=z[3 * m:])
        c = np.multiply(z[m:2 * m], c, out=C[t])
        c += z[:m] * g
        h = np.maximum(c, 0.0, out=H[t])
        h *= z[2 * m:3 * m]
    return H, LstmCache(gates, C, H, xs)


def lstm_sequence_backward(params: LstmParams, cache: LstmCache, dH: Array):
    """Backprop through time.

    dH[t] is the upstream gradient on the hidden state at step t. Returns
    (dweight, dbias, dX) with dX[t] the gradient on input xs[t]; dbias is
    None for a cell without bias.
    """
    m = params.hidden_dim
    d = params.input_dim
    length = dH.shape[0]
    i, f, o, g = cache.gates.reshape(length, 4, m).transpose(1, 0, 2)
    C, H = cache.C, cache.H
    c_prev = np.concatenate([np.zeros((1, m)), C[:-1]])
    # dZ[t] = [dc * k_i, dc * k_f, dh * k_o, dc * k_g] with dh the total
    # gradient on h_t and dc = dc_carry + dh * k_c the one on c_t
    coef = np.empty((length, 4, m))
    coef[:, 0] = g * i * (1.0 - i)
    coef[:, 1] = c_prev * f * (1.0 - f)
    coef[:, 2] = H * (1.0 - o)  # relu(c) * o * (1 - o)
    coef[:, 3] = i * (g > 0)
    k_c = o * (C > 0)
    dZ = np.empty((length, 4 * m))
    dZ4 = dZ.reshape(length, 4, m)
    whT = params.weight[:, d:].T
    dh_carry = np.zeros(m)
    dc_carry = np.zeros(m)
    for t in range(length - 1, -1, -1):
        dh = dH[t] + dh_carry
        dc = dh * k_c[t]
        dc += dc_carry
        np.multiply(coef[t], dc, out=dZ4[t])
        np.multiply(coef[t, 2], dh, out=dZ4[t, 2])
        dh_carry = whT @ dZ[t]
        dc_carry = dc * f[t]
    # weight, bias and input gradients are single products over the sequence
    dw = np.empty_like(params.weight)
    np.matmul(dZ.T, cache.xs, out=dw[:, :d])
    np.matmul(dZ[1:].T, H[:-1], out=dw[:, d:])
    db = dZ.sum(axis=0) if params.use_bias else None
    dX = dZ @ params.weight[:, :d]
    return dw, db, dX


@dataclass(eq=False)
class BlstmOutput:
    """Per-position hidden states of both directions.

    backward_states[t] is the backward cell's output AT position t (so
    backward_states[0] is its final computed state).
    """

    forward_states: Array  # (L, M)
    backward_states: Array  # (L, M)


def blstm_forward(layers, inputs: Array):
    """Stacked bidirectional pass over inputs (L, D) from zero initial states.

    layers lists (forward, backward) LstmParams pairs; a layer after the
    first reads [h_fwd ; h_bwd] of the one before. Returns the last layer's
    BlstmOutput and the per-layer LstmCache pairs that blstm_backward takes.
    """
    xs = np.asarray(inputs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("blstm_forward requires a non-empty (L, D) input")
    caches = []
    for fwd, bwd in layers:
        hf, cf = lstm_sequence_forward(fwd, xs)
        hb, cb = lstm_sequence_forward(bwd, xs[::-1])
        caches.append((cf, cb))
        xs = np.concatenate([hf, hb[::-1]], axis=1)
    return BlstmOutput(hf, hb[::-1]), caches


def blstm_backward(layers, caches, d_states: Array):
    """Backprop of blstm_forward, given the gradient (L, 2M) on the last
    layer's [h_fwd ; h_bwd] by position.

    Returns (grads, dinputs): grads lists (dweight, dbias) per cell in layer
    order, forward cell first; dinputs is the gradient on the inputs.
    """
    grads = []
    for (fwd, bwd), (cf, cb) in zip(reversed(layers), reversed(caches)):
        d_forward, d_backward = np.hsplit(d_states, 2)
        dwf, dbf, dxf = lstm_sequence_backward(fwd, cf, d_forward)
        dwb, dbb, dxb = lstm_sequence_backward(bwd, cb, d_backward[::-1])
        grads[:0] = [(dwf, dbf), (dwb, dbb)]
        d_states = dxf + dxb[::-1]
    return grads, d_states


def softmax(logits: Array) -> Array:
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / e.sum()


def softmax_cross_entropy(logits: Array, label: int):
    """Stable cross-entropy for a 2-class logit vector.

    Returns (loss, dlogits) with dlogits = softmax(logits) - one_hot(label).
    """
    logits = np.asarray(logits, dtype=float)
    m = np.max(logits)
    lse = m + np.log(np.exp(logits - m).sum())
    loss = lse - logits[label]
    dlogits = np.exp(logits - lse)
    dlogits[label] -= 1.0
    return loss, dlogits


def sgd_step(params: dict, grads: dict, lr: float) -> dict:
    """In-place p <- p - lr * g for every tensor."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"shape mismatch for {name}: {p.shape} vs {g.shape}")
        p -= lr * g
    return params


def gradient_check(loss_fn, grad_fn, params: dict, h: float = 1e-5,
                   num_coords: int = 200, seed: int = 0) -> float:
    """Compare analytic gradients with central finite differences.

    Samples at least num_coords coordinates across all tensors (all of them
    when there are fewer) and returns the max relative error
    |a - n| / max(|a|, |n|, 1e-8). Discrepancies below 1e-9 are treated as
    exact matches: central differences at this step size cannot resolve
    them, and an actual backprop defect shows up at gradient scale.
    """
    base = loss_fn(params)
    if not np.isfinite(base):
        raise NumericError("non-finite loss in gradient_check")
    grads = grad_fn(params)
    names = sorted(params)
    sizes = [params[n].size for n in names]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    if total <= num_coords:
        coords = np.arange(total)
    else:
        coords = rng.choice(total, size=num_coords, replace=False)
    offsets = np.cumsum([0] + sizes)
    max_err = 0.0
    for flat in coords:
        k = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[k]
        idx = int(flat - offsets[k])
        p = params[name]
        orig = p.flat[idx]
        p.flat[idx] = orig + h
        up = loss_fn(params)
        p.flat[idx] = orig - h
        down = loss_fn(params)
        p.flat[idx] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError("non-finite loss in gradient_check")
        numeric = (up - down) / (2.0 * h)
        analytic = grads[name].flat[idx]
        diff = abs(analytic - numeric)
        if diff < 1e-9:
            continue
        err = diff / max(abs(analytic), abs(numeric), 1e-8)
        max_err = max(max_err, err)
    return max_err
