"""Hierarchical two-stage detector.

Stage 1 classifies the whole program: a two-layer ReLU encoder per line,
a BLSTM over the line embeddings, and a two-layer classifier on the
concatenated final states of both directions. Stage 2 classifies single
lines from the frozen stage-1 BLSTM context concatenated with the line's
raw bag-of-words vector. Stage-1 training is end-to-end; stage-2 training
updates only its own two matrices.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Program
from .errors import DataError, NumericError
from .nncore import (BlstmOutput, LstmParams, blstm_backward, blstm_forward,
                     init_uniform, relu, sgd_step, softmax,
                     softmax_cross_entropy)
from .vocab import BowVector, Vocabulary, fnv1a64, vectorize_program

MODEL_MAGIC = b"IRVULN01"
MODEL_VERSION = 1

# Global-norm gradient clipping bound for both training loops. Per-program
# SGD at the default learning rate is unstable through long ReLU-cell
# sequences (the cell state is unbounded above), and unclipped runs diverge
# on 60-line programs shortly after leaving the initial plateau.
GRAD_CLIP_NORM = 5.0


def _clip_gradients(grads: dict, max_norm: float = GRAD_CLIP_NORM) -> dict:
    """Scale the whole gradient set so its global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads


@dataclass
class ModelConfig:
    embed_dim: int = 64            # K
    hidden_dim: int = 64           # M
    blstm_layers: int = 1
    classifier_width: int = 64     # stage-1 hidden width
    line_classifier_width: int = 64  # stage-2 hidden width
    learning_rate: float = 0.05
    stage1_epochs: int = 30
    stage2_epochs: int = 30
    seed: int = 0
    decision_threshold: float = 0.5
    dense_bias: bool = False
    lstm_bias: bool = True
    test_fraction: float = 0.2

    def __post_init__(self):
        for name in ("embed_dim", "hidden_dim", "blstm_layers",
                     "classifier_width", "line_classifier_width",
                     "stage1_epochs", "stage2_epochs"):
            if getattr(self, name) <= 0:
                raise DataError(f"ModelConfig.{name} must be positive")
        if self.learning_rate <= 0:
            raise DataError("ModelConfig.learning_rate must be positive")
        if not (0.0 < self.decision_threshold < 1.0):
            raise DataError("ModelConfig.decision_threshold must be in (0,1)")
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError("ModelConfig.test_fraction must be in (0,1)")


@dataclass(eq=False)
class Stage1Model:
    config: ModelConfig
    vocab_digest: str
    W0: np.ndarray               # (K, N)
    W1: np.ndarray               # (K, K)
    layers: list                 # [(fwd LstmParams, bwd LstmParams), ...]
    W2: np.ndarray               # (Kc, 2M)
    W3: np.ndarray               # (2, Kc)
    b0: np.ndarray | None = None
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None
    b3: np.ndarray | None = None

    @property
    def vocab_size(self) -> int:
        return self.W0.shape[1]

    def lstm_cells(self) -> list:
        """(tensor-name prefix, LstmParams) per cell, in layer order with the
        forward cell first: the order blstm_backward returns gradients in."""
        return [(f"s1/blstm{k}/{side}", cell)
                for k, pair in enumerate(self.layers)
                for side, cell in zip(("fwd", "bwd"), pair)]

    def param_dict(self) -> dict:
        d = {"s1/W0": self.W0, "s1/W1": self.W1,
             "s1/W2": self.W2, "s1/W3": self.W3}
        for prefix, cell in self.lstm_cells():
            d[f"{prefix}/W"] = cell.weight
            if cell.use_bias:
                d[f"{prefix}/b"] = cell.bias
        if self.b0 is not None:
            d.update({"s1/b0": self.b0, "s1/b1": self.b1,
                      "s1/b2": self.b2, "s1/b3": self.b3})
        return d


@dataclass(eq=False)
class Stage2Model:
    config: ModelConfig
    vocab_digest: str
    W4: np.ndarray               # (Kl, 2M + N)
    W5: np.ndarray               # (2, Kl)
    b4: np.ndarray | None = None
    b5: np.ndarray | None = None

    def param_dict(self) -> dict:
        d = {"s2/W4": self.W4, "s2/W5": self.W5}
        if self.b4 is not None:
            d.update({"s2/b4": self.b4, "s2/b5": self.b5})
        return d


@dataclass
class Prediction:
    program_id: str
    code_vulnerable: bool
    code_probability: float
    line_flags: list
    line_probabilities: list


def init_stage1(config: ModelConfig, vocab_size: int, vocab_digest: str,
                rng: np.random.Generator) -> Stage1Model:
    """Draw parameters in documented order: W0, W1, per-layer fwd/bwd LSTM
    weights, W2, W3. Biases start at zero."""
    k, m = config.embed_dim, config.hidden_dim
    w0 = init_uniform(rng, (k, vocab_size), vocab_size)
    w1 = init_uniform(rng, (k, k), k)
    layers = []
    in_dim = k
    for _ in range(config.blstm_layers):
        fwd = LstmParams.create(rng, in_dim, m, config.lstm_bias)
        bwd = LstmParams.create(rng, in_dim, m, config.lstm_bias)
        layers.append((fwd, bwd))
        in_dim = 2 * m
    w2 = init_uniform(rng, (config.classifier_width, 2 * m), 2 * m)
    w3 = init_uniform(rng, (2, config.classifier_width), config.classifier_width)
    model = Stage1Model(config, vocab_digest, w0, w1, layers, w2, w3)
    if config.dense_bias:
        model.b0 = np.zeros(k)
        model.b1 = np.zeros(k)
        model.b2 = np.zeros(config.classifier_width)
        model.b3 = np.zeros(2)
    return model


def init_stage2(config: ModelConfig, vocab_size: int, vocab_digest: str,
                rng: np.random.Generator) -> Stage2Model:
    """Draw order: W4, W5."""
    m = config.hidden_dim
    in_dim = 2 * m + vocab_size
    w4 = init_uniform(rng, (config.line_classifier_width, in_dim), in_dim)
    w5 = init_uniform(rng, (2, config.line_classifier_width),
                      config.line_classifier_width)
    model = Stage2Model(config, vocab_digest, w4, w5)
    if config.dense_bias:
        model.b4 = np.zeros(config.line_classifier_width)
        model.b5 = np.zeros(2)
    return model


def _encode_program(model: Stage1Model, bows):
    """Rows A0 = ReLU(W0 x + b0) and Henc = ReLU(W1 A0 + b1) per line x;
    W0 x is the sum of W0's columns at the on-bits."""
    a0 = np.empty((len(bows), model.W0.shape[0]))
    for t, bow in enumerate(bows):
        if bow.dimension != model.vocab_size:
            raise DataError(f"bag-of-words dimension {bow.dimension} does not "
                            f"match model vocabulary size {model.vocab_size}")
        a0[t] = model.W0[:, bow.on_indices].sum(axis=1)
    if model.b0 is not None:
        a0 += model.b0
    np.maximum(a0, 0.0, out=a0)
    henc = a0 @ model.W1.T
    if model.b1 is not None:
        henc += model.b1
    np.maximum(henc, 0.0, out=henc)
    return a0, henc


def encode_line(model: Stage1Model, x: BowVector) -> np.ndarray:
    """ReLU(W1 @ ReLU(W0 @ x)) for one line."""
    return _encode_program(model, [x])[1][0]


class _Stage1Cache:
    __slots__ = ("bows", "A0", "Henc", "blstm", "lstm", "latent", "ac")


def _stage1_forward_cached(model: Stage1Model, bows):
    if not bows:
        raise DataError("empty program")
    cache = _Stage1Cache()
    cache.bows = bows
    cache.A0, cache.Henc = _encode_program(model, bows)
    cache.blstm, cache.lstm = blstm_forward(model.layers, cache.Henc)
    cache.latent = np.concatenate([cache.blstm.forward_states[-1],
                                   cache.blstm.backward_states[0]])
    zc = model.W2 @ cache.latent
    if model.b2 is not None:
        zc += model.b2
    cache.ac = relu(zc)
    logits = model.W3 @ cache.ac
    if model.b3 is not None:
        logits += model.b3
    return logits, cache


def stage1_forward(model: Stage1Model, program_vectors):
    """Full whole-code forward pass.

    Returns (logits, BlstmOutput); the BLSTM states are reused as stage-2
    context. Raises NumericError when a logit is not finite.
    """
    logits, cache = _stage1_forward_cached(model, list(program_vectors))
    if not np.isfinite(logits).all():
        raise NumericError("non-finite stage-1 logits")
    return logits, cache.blstm


def _stage1_backward(model: Stage1Model, cache: _Stage1Cache,
                     dlogits: np.ndarray) -> dict:
    m = model.config.hidden_dim
    grads = {}
    grads["s1/W3"] = np.outer(dlogits, cache.ac)
    dac = model.W3.T @ dlogits
    dzc = dac * (cache.ac > 0)
    grads["s1/W2"] = np.outer(dzc, cache.latent)
    dlatent = model.W2.T @ dzc
    if model.b3 is not None:
        grads["s1/b3"] = dlogits.copy()
        grads["s1/b2"] = dzc.copy()

    d_states = np.zeros((len(cache.bows), 2 * m))
    d_states[-1, :m] = dlatent[:m]
    d_states[0, m:] = dlatent[m:]
    cell_grads, dhenc = blstm_backward(model.layers, cache.lstm, d_states)
    for (prefix, cell), (dw, db) in zip(model.lstm_cells(), cell_grads):
        grads[f"{prefix}/W"] = dw
        if cell.use_bias:
            grads[f"{prefix}/b"] = db

    dz1 = dhenc * (cache.Henc > 0)
    grads["s1/W1"] = dz1.T @ cache.A0
    dz0 = (dz1 @ model.W1) * (cache.A0 > 0)
    dw0 = np.zeros_like(model.W0)
    for t, bow in enumerate(cache.bows):
        dw0[:, bow.on_indices] += dz0[t][:, None]
    grads["s1/W0"] = dw0
    if model.b0 is not None:
        grads["s1/b0"] = dz0.sum(axis=0)
        grads["s1/b1"] = dz1.sum(axis=0)
    return grads


def stage2_forward(model: Stage2Model, context: BlstmOutput, t: int,
                   x_t: BowVector) -> np.ndarray:
    """Line logits from [h_F(t) ⊕ h_B(t) ⊕ x_t]; x_t enters raw, not embedded."""
    length = context.forward_states.shape[0]
    if not (0 <= t < length):
        raise DataError(f"line index {t} out of range for program of {length} lines")
    logits, _ = _stage2_forward_cached(model, context, t, x_t)
    return logits


def _stage2_forward_cached(model: Stage2Model, context: BlstmOutput, t: int,
                           x_t: BowVector):
    m2 = context.forward_states.shape[1] * 2
    if model.W4.shape[1] != m2 + x_t.dimension:
        raise DataError("stage-2 input width does not match context + vocabulary")
    ctx = np.concatenate([context.forward_states[t], context.backward_states[t]])
    z4 = model.W4[:, :m2] @ ctx + model.W4[:, m2 + x_t.on_indices].sum(axis=1)
    if model.b4 is not None:
        z4 = z4 + model.b4
    a4 = relu(z4)
    logits = model.W5 @ a4
    if model.b5 is not None:
        logits = logits + model.b5
    return logits, (ctx, z4, a4)


def _stage2_backward(model: Stage2Model, cache, x_t: BowVector,
                     dlogits: np.ndarray) -> dict:
    ctx, z4, a4 = cache
    m2 = ctx.shape[0]
    grads = {"s2/W5": np.outer(dlogits, a4)}
    da4 = model.W5.T @ dlogits
    dz4 = da4 * (z4 > 0)
    dw4 = np.zeros_like(model.W4)
    dw4[:, :m2] = np.outer(dz4, ctx)
    dw4[:, m2 + x_t.on_indices] = dz4[:, None]
    grads["s2/W4"] = dw4
    if model.b4 is not None:
        grads["s2/b4"] = dz4.copy()
        grads["s2/b5"] = dlogits.copy()
    return grads


def _rng_pair(seed: int):
    s1, s2 = np.random.SeedSequence(seed).spawn(2)
    return np.random.Generator(np.random.PCG64(s1)), \
        np.random.Generator(np.random.PCG64(s2))


def train_stage1(corpus: Corpus, vocab: Vocabulary, config: ModelConfig):
    """End-to-end SGD training of the whole-code detector.

    Each epoch trains on all programs of the minority class plus an
    equal-size uniform sample of the majority class, shuffled; one program
    per SGD step, with gradients clipped to a global norm of GRAD_CLIP_NORM.
    Returns (Stage1Model, per-epoch mean loss history).
    """
    rng, _ = _rng_pair(config.seed)
    programs = list(corpus)
    labels = [p.label for p in programs]
    pos = [i for i, y in enumerate(labels) if y == 1]
    neg = [i for i, y in enumerate(labels) if y == 0]
    if not pos or not neg:
        raise DataError("single-class corpus")
    model = init_stage1(config, vocab.size, vocab.digest(), rng)
    bows = [vectorize_program(vocab, p) for p in programs]
    params = model.param_dict()
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    history = []
    for epoch in range(config.stage1_epochs):
        sampled = rng.choice(len(majority), size=len(minority), replace=False)
        order = list(minority) + [majority[j] for j in sampled]
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            logits, cache = _stage1_forward_cached(model, bows[idx])
            loss, dlogits = softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite stage-1 loss at epoch {epoch}, "
                                   f"program {programs[idx].id!r}")
            grads = _clip_gradients(_stage1_backward(model, cache, dlogits))
            sgd_step(params, grads, config.learning_rate)
            total += loss
        history.append(total / len(order))
    return model, history


def train_stage2(corpus: Corpus, vocab: Vocabulary, stage1: Stage1Model,
                 config: ModelConfig):
    """Train the line classifier with stage-1 frozen.

    The pool is the vulnerable programs; each epoch uses all vulnerable
    lines plus an equal-count sample of good lines from the same programs.
    Only W4/W5 (and their biases, if enabled) are updated.
    """
    if stage1.vocab_digest != vocab.digest():
        raise DataError("vocabulary digest mismatch between stage-1 model and "
                        "supplied vocabulary")
    _, rng = _rng_pair(config.seed)
    vuln_programs = [p for p in corpus if p.label == 1]
    if not vuln_programs:
        raise DataError("no vulnerable programs for stage-2 training")
    model = init_stage2(config, vocab.size, vocab.digest(), rng)
    params = model.param_dict()

    contexts = []
    bows = []
    vuln_lines = []
    good_lines = []
    for k, p in enumerate(vuln_programs):
        pb = vectorize_program(vocab, p)
        _, blstm = stage1_forward(stage1, pb)
        contexts.append(blstm)
        bows.append(pb)
        flagged = set(p.vulnerable_lines)
        for t in range(len(p.lines)):
            (vuln_lines if t in flagged else good_lines).append((k, t))

    vuln_pairs = set(vuln_lines)
    history = []
    for epoch in range(config.stage2_epochs):
        n = len(vuln_lines)
        if len(good_lines) >= n:
            sampled = rng.choice(len(good_lines), size=n, replace=False)
        else:
            sampled = rng.choice(len(good_lines), size=n, replace=True)
        batch = list(vuln_lines) + [good_lines[j] for j in sampled]
        rng.shuffle(batch)
        total = 0.0
        for k, t in batch:
            x_t = bows[k][t]
            logits, cache = _stage2_forward_cached(model, contexts[k], t, x_t)
            y = 1 if (k, t) in vuln_pairs else 0
            loss, dlogits = softmax_cross_entropy(logits, y)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite stage-2 loss at epoch {epoch}, "
                                   f"program {vuln_programs[k].id!r}")
            grads = _clip_gradients(_stage2_backward(model, cache, x_t, dlogits))
            sgd_step(params, grads, config.learning_rate)
            total += loss
        history.append(total / len(batch))
    return model, history


def predict(stage1: Stage1Model, stage2: Stage2Model, vocab: Vocabulary,
            program: Program) -> Prediction:
    """Hierarchical inference: stage-2 flags are gated by the stage-1 verdict.

    Line probabilities are always reported for diagnostics; a threshold
    comparison uses >= so the all-zero-model boundary case is defined.
    """
    digest = vocab.digest()
    if stage1.vocab_digest != digest or stage2.vocab_digest != digest:
        raise DataError("vocabulary digest mismatch")
    bows = vectorize_program(vocab, program)
    logits, blstm = stage1_forward(stage1, bows)
    code_prob = float(softmax(logits)[1])
    threshold = stage1.config.decision_threshold
    code_vulnerable = code_prob >= threshold
    line_logits = np.array([stage2_forward(stage2, blstm, t, x_t)
                            for t, x_t in enumerate(bows)])
    if not np.isfinite(line_logits).all():
        raise NumericError(f"non-finite stage-2 logits in {program.id!r}")
    line_probs = [float(softmax(z)[1]) for z in line_logits]
    line_flags = [bool(code_vulnerable and p >= threshold) for p in line_probs]
    return Prediction(program.id, bool(code_vulnerable), code_prob,
                      line_flags, line_probs)


# --- serialization ---------------------------------------------------------

def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


_CONFIG_STRUCT = struct.Struct("<7I d 2I Q d 2B d")


def _config_bytes(config: ModelConfig) -> bytes:
    return _CONFIG_STRUCT.pack(
        config.embed_dim, config.hidden_dim, config.blstm_layers,
        config.classifier_width, config.line_classifier_width,
        config.stage1_epochs, config.stage2_epochs,
        config.learning_rate, 0, 0,  # two reserved words
        config.seed & 0xFFFFFFFFFFFFFFFF, config.decision_threshold,
        int(config.dense_bias), int(config.lstm_bias), config.test_fraction)


def _config_from_bytes(raw: bytes) -> ModelConfig:
    (embed, hidden, layers, cw, lw, e1, e2, lr, _r1, _r2, seed, thr,
     dense_bias, lstm_bias, tf) = _CONFIG_STRUCT.unpack(raw)
    return ModelConfig(embed, hidden, layers, cw, lw, lr, e1, e2, seed, thr,
                       bool(dense_bias), bool(lstm_bias), tf)


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    head = _pack_str(name) + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def save_model(stage1: Stage1Model, stage2: Stage2Model, vocab: Vocabulary,
               path) -> None:
    """Single binary container holding config, vocabulary and all tensors,
    terminated by an FNV-1a digest of the preceding bytes."""
    digest = vocab.digest()
    if stage1.vocab_digest != digest or stage2.vocab_digest != digest:
        raise DataError("vocabulary digest mismatch at save time")
    chunks = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION),
              _config_bytes(stage1.config)]
    chunks.append(struct.pack("<I", vocab.size))
    chunks.extend(_pack_str(tok) for tok in vocab.tokens)
    tensors = {}
    tensors.update(stage1.param_dict())
    tensors.update(stage2.param_dict())
    names = sorted(tensors)
    chunks.append(struct.pack("<I", len(names)))
    chunks.extend(_pack_tensor(name, tensors[name]) for name in names)
    body = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<Q", fnv1a64(body)))


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise DataError("corrupted model file: truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("corrupted model file: string is not UTF-8") \
                from exc


def load_model(path):
    """Inverse of save_model; round-trips all parameters bit-exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) + 12:
        raise DataError("corrupted model file: truncated")
    body, (digest,) = memoryview(data)[:-8], struct.unpack("<Q", data[-8:])
    if fnv1a64(body) != digest:
        raise DataError("corrupted model file: digest mismatch")
    r = _Reader(body)
    if r.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise DataError("corrupted model file: bad magic")
    version = r.u32()
    if version != MODEL_VERSION:
        raise DataError(f"unsupported model format version {version}")
    config = _config_from_bytes(r.take(_CONFIG_STRUCT.size))
    vocab = Vocabulary([r.string() for _ in range(r.u32())])
    tensors = {}
    for _ in range(r.u32()):
        name = r.string()
        ndim = struct.unpack("<B", r.take(1))[0]
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"corrupted model file: non-finite values in "
                            f"tensor {name}")
        tensors[name] = arr
    if r.pos != len(body):
        raise DataError("corrupted model file: trailing bytes")

    digest_hex = vocab.digest()
    stage1 = init_stage1(config, vocab.size, digest_hex,
                         np.random.default_rng(0))
    stage2 = init_stage2(config, vocab.size, digest_hex,
                         np.random.default_rng(0))
    for model in (stage1, stage2):
        for name, param in model.param_dict().items():
            if name not in tensors:
                raise DataError(f"model file missing tensor {name}")
            if tensors[name].shape != param.shape:
                raise DataError(f"dimension inconsistency for tensor {name}")
            param[...] = tensors[name]
    return stage1, stage2, vocab
