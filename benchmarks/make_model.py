"""Remake the committed desk-scale model that `predict-long` and `scan-short` load.

    python3 benchmarks/make_model.py

Follows the desk-scale protocol of the acceptance gate: the default 2000
program synthetic corpus (seed 42), prepared, split 80/20 by the protocol's
stratified split (master seed 0), vocabulary from the training split, and
the first protocol run (training seed 0 XOR 1) with the default 30 + 30
epochs. Writes `benchmarks/model/desk_v1.bin` and prints the code and line
F1 the model reaches on the held-out split.
"""
from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_PATH = HERE / "model" / "desk_v1.bin"
CORPUS_SEED = 42
MASTER_SEED = 0
RUN = 1


def main() -> int:
    # the same single BLAS thread as run.py, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from irvuln.corpus import prepare_corpus
    from irvuln.detector import (ModelConfig, save_model, train_stage1,
                                 train_stage2)
    from irvuln.evaluate import evaluate_models, split_corpus
    from irvuln.synth import SynthConfig, generate_corpus
    from irvuln.vocab import build_vocabulary

    start = time.perf_counter()
    corpus = prepare_corpus(generate_corpus(SynthConfig(seed=CORPUS_SEED)))
    split_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(MASTER_SEED)))
    config = ModelConfig(seed=MASTER_SEED)
    train, test = split_corpus(corpus, config.test_fraction, split_rng)
    vocab = build_vocabulary(train)
    run_config = replace(config, seed=MASTER_SEED ^ RUN)
    stage1, _ = train_stage1(train, vocab, run_config)
    stage2, _ = train_stage2(train, vocab, stage1, run_config)
    MODEL_PATH.parent.mkdir(parents=True, exist_ok=True)
    save_model(stage1, stage2, vocab, MODEL_PATH)
    code, line = evaluate_models(stage1, stage2, vocab, test)
    print(f"wrote {MODEL_PATH.relative_to(ROOT)} "
          f"({MODEL_PATH.stat().st_size} bytes, vocabulary {vocab.size}) "
          f"in {time.perf_counter() - start:.0f} s")
    print(f"held-out split ({len(test)} programs): code F1 {code.f1:.4f}, "
          f"line F1 {line.f1:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
