"""The benchmark's own reading of format-v1 model files and its own forward pass.

Written from the method's definition, not from the program's code, so that
the checks do not share a fault with what they check:

- a line is a binary presence vector over the vocabulary (tokens split on
  single spaces, out-of-vocabulary tokens ignored);
- encoder: e = ReLU(W1 ReLU(W0 x + b0) + b1);
- LSTM cell on [x ; h_prev]: sigmoid input, forget and output gates, ReLU
  candidate, c = f c_prev + i g, h = o ReLU(c); the backward direction
  reads the lines in reverse; a deeper layer reads [h_fwd ; h_bwd];
- stage 1: softmax(W3 ReLU(W2 [h_fwd(last) ; h_bwd(first)] + b2) + b3);
- stage 2, line t: softmax(W5 ReLU(W4 [h_fwd(t) ; h_bwd(t) ; x_t] + b4) + b5);
- a line is flagged only when the program's probability and the line's
  both reach the threshold.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"IRVULN01"
VERSION = 1
# embed, hidden, layers, classifier widths, epochs (7 u32), learning rate,
# two reserved u32, seed, threshold, dense-bias and lstm-bias flags,
# test fraction
_CONFIG = struct.Struct("<7I d 2I Q d 2B d")


@dataclass
class RefModel:
    hidden: int
    layers: int
    threshold: float
    tokens: dict      # token -> column
    tensors: dict     # name -> array


def read_model(path) -> RefModel:
    """Parse a format-v1 model file. The trailing 8-byte digest is skipped."""
    with open(path, "rb") as fh:
        body = fh.read()[:-8]
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(body):
            raise ValueError("model file truncated")
        pos += n
        return body[pos - n:pos]

    def u32():
        return struct.unpack("<I", take(4))[0]

    if take(len(MAGIC)) != MAGIC or u32() != VERSION:
        raise ValueError("not a format-v1 model file")
    cfg = _CONFIG.unpack(take(_CONFIG.size))
    hidden, layers, threshold = cfg[1], cfg[2], cfg[11]
    words = [take(u32()).decode("utf-8") for _ in range(u32())]
    tensors = {}
    for _ in range(u32()):
        name = take(u32()).decode("utf-8")
        ndim = take(1)[0]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        tensors[name] = np.frombuffer(take(8 * count), "<f8").reshape(shape)
    if pos != len(body):
        raise ValueError("trailing bytes in model file")
    return RefModel(hidden, layers, threshold,
                    {w: k for k, w in enumerate(words)}, tensors)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _relu(z):
    return np.maximum(z, 0.0)


def _lstm(weight, bias, xs):
    m = weight.shape[0] // 4
    h, c = np.zeros(m), np.zeros(m)
    out = np.empty((len(xs), m))
    for t, x in enumerate(xs):
        z = weight @ np.concatenate([x, h]) + bias
        i, f, o = _sigmoid(z[:m]), _sigmoid(z[m:2 * m]), _sigmoid(z[2 * m:3 * m])
        c = f * c + i * _relu(z[3 * m:])
        h = o * _relu(c)
        out[t] = h
    return out


def forward(model: RefModel, lines):
    """(code probability, [line probabilities], code verdict, [line flags])."""
    w = model.tensors

    def bias(name, size):
        return w[name] if name in w else np.zeros(size)

    x = np.zeros((len(lines), len(model.tokens)))
    for t, line in enumerate(lines):
        for tok in line.split(" "):
            if tok in model.tokens:
                x[t, model.tokens[tok]] = 1.0
    k = w["s1/W0"].shape[0]
    seq = _relu(_relu(x @ w["s1/W0"].T + bias("s1/b0", k)) @ w["s1/W1"].T
                + bias("s1/b1", k))
    four_m = 4 * model.hidden
    for layer in range(model.layers):
        pre = f"s1/blstm{layer}"
        hf = _lstm(w[f"{pre}/fwd/W"], bias(f"{pre}/fwd/b", four_m), seq)
        hb = _lstm(w[f"{pre}/bwd/W"], bias(f"{pre}/bwd/b", four_m),
                   seq[::-1])[::-1]
        seq = np.concatenate([hf, hb], axis=1)
    latent = np.concatenate([hf[-1], hb[0]])
    a = _relu(w["s1/W2"] @ latent + bias("s1/b2", w["s1/W2"].shape[0]))
    logits = w["s1/W3"] @ a + bias("s1/b3", 2)
    code_p = float(_sigmoid(logits[1] - logits[0]))
    a4 = _relu(np.concatenate([seq, x], axis=1) @ w["s2/W4"].T
               + bias("s2/b4", w["s2/W4"].shape[0]))
    line_logits = a4 @ w["s2/W5"].T + bias("s2/b5", 2)
    line_p = _sigmoid(line_logits[:, 1] - line_logits[:, 0])
    verdict = code_p >= model.threshold
    flags = [bool(verdict and p >= model.threshold) for p in line_p]
    return code_p, [float(p) for p in line_p], bool(verdict), flags
