"""Finite-difference verification of the analytic gradients.

Builds small random models and programs, then compares backprop output
against central differences on a sampled subset of coordinates.
"""
from __future__ import annotations

import numpy as np

from .detector import (ModelConfig, _stage1_backward, _stage1_forward_cached,
                       _stage2_backward, _stage2_forward_cached, init_stage1,
                       init_stage2, stage1_forward)
from .nncore import gradient_check, softmax_cross_entropy
from .vocab import BowVector

_SMALL = dict(embed_dim=10, hidden_dim=7, classifier_width=6,
              line_classifier_width=6)
_VOCAB_SIZE = 40


def _random_bows(rng, n_lines: int, vocab_size: int):
    bows = []
    for _ in range(n_lines):
        k = int(rng.integers(1, 6))
        idx = np.sort(rng.choice(vocab_size, size=k, replace=False))
        bows.append(BowVector(vocab_size, idx))
    return bows


def stage1_error(seed: int, num_coords: int = 250, **config) -> float:
    """Check stage 1 on a small model; `config` overrides ModelConfig fields."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(seed=seed, **_SMALL, **config)
    model = init_stage1(config, _VOCAB_SIZE, "0" * 16, rng)
    bows = _random_bows(rng, int(rng.integers(3, 9)), _VOCAB_SIZE)
    label = int(rng.integers(2))

    def loss_fn(_params):
        logits, _ = _stage1_forward_cached(model, bows)
        return softmax_cross_entropy(logits, label)[0]

    def grad_fn(_params):
        logits, cache = _stage1_forward_cached(model, bows)
        _, dlogits = softmax_cross_entropy(logits, label)
        return _stage1_backward(model, cache, dlogits)

    return gradient_check(loss_fn, grad_fn, model.param_dict(),
                          num_coords=num_coords, seed=seed)


def stage2_error(seed: int, dense_bias: bool = False,
                 num_coords: int = 250) -> float:
    rng = np.random.default_rng(seed)
    config = ModelConfig(dense_bias=dense_bias, seed=seed, **_SMALL)
    stage1 = init_stage1(config, _VOCAB_SIZE, "0" * 16, rng)
    model = init_stage2(config, _VOCAB_SIZE, "0" * 16, rng)
    bows = _random_bows(rng, int(rng.integers(3, 9)), _VOCAB_SIZE)
    _, context = stage1_forward(stage1, bows)
    t = int(rng.integers(len(bows)))
    label = int(rng.integers(2))

    def loss_fn(_params):
        logits, _ = _stage2_forward_cached(model, context, t, bows[t])
        return softmax_cross_entropy(logits, label)[0]

    def grad_fn(_params):
        logits, cache = _stage2_forward_cached(model, context, t, bows[t])
        _, dlogits = softmax_cross_entropy(logits, label)
        return _stage2_backward(model, cache, bows[t], dlogits)

    return gradient_check(loss_fn, grad_fn, model.param_dict(),
                          num_coords=num_coords, seed=seed)


def run_all(seed: int = 0) -> dict:
    """Gradient checks over both stages, with and without extras."""
    return {
        "stage1": stage1_error(seed),
        "stage1_two_layers": stage1_error(seed + 1, blstm_layers=2),
        "stage1_dense_bias": stage1_error(seed + 2, dense_bias=True),
        "stage1_no_lstm_bias": stage1_error(seed + 5, lstm_bias=False),
        "stage2": stage2_error(seed + 3),
        "stage2_dense_bias": stage2_error(seed + 4, dense_bias=True),
    }
