"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or OS error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import grad_checks
from .corpus import load_corpus, prepare_corpus, save_corpus
from .detector import (ModelConfig, load_model, predict, save_model,
                       train_stage1, train_stage2)
from .errors import DataError, NumericError
from .evaluate import report_csv, report_table, run_experiment
from .synth import SynthConfig, generate_corpus
from .vocab import build_vocabulary, load_vocabulary, save_vocabulary


def _add_model_flags(sub):
    sub.add_argument("--embed-dim", type=int, default=64)
    sub.add_argument("--hidden-dim", type=int, default=64)
    sub.add_argument("--layers", type=int, default=1)
    sub.add_argument("--classifier-width", type=int, default=64)
    sub.add_argument("--line-classifier-width", type=int, default=64)
    sub.add_argument("--lr", type=float, default=0.05)
    sub.add_argument("--stage1-epochs", type=int, default=30)
    sub.add_argument("--stage2-epochs", type=int, default=30)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threshold", type=float, default=0.5)
    sub.add_argument("--dense-bias", action="store_true")
    sub.add_argument("--no-lstm-bias", action="store_true")
    sub.add_argument("--test-fraction", type=float, default=0.2)


def _model_config(args) -> ModelConfig:
    return ModelConfig(
        embed_dim=args.embed_dim, hidden_dim=args.hidden_dim,
        blstm_layers=args.layers, classifier_width=args.classifier_width,
        line_classifier_width=args.line_classifier_width,
        learning_rate=args.lr, stage1_epochs=args.stage1_epochs,
        stage2_epochs=args.stage2_epochs, seed=args.seed,
        decision_threshold=args.threshold, dense_bias=args.dense_bias,
        lstm_bias=not args.no_lstm_bias, test_fraction=args.test_fraction)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irvuln",
        description="Two-stage BLSTM vulnerability detector over "
                    "bag-of-words LLVM-IR lines.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-synth", help="generate a synthetic JSONL corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--programs", type=int, default=2000)
    gen.add_argument("--vulnerable-fraction", type=float, default=0.3)
    gen.add_argument("--lines-min", type=int, default=8)
    gen.add_argument("--lines-max", type=int, default=60)
    gen.add_argument("--token-pool", type=int, default=400)
    gen.add_argument("--motif-span", type=int, default=3)
    gen.add_argument("--with-user-functions", action="store_true")

    prep = subs.add_parser("prepare", help="apply preprocessing to a corpus")
    prep.add_argument("--in", dest="inp", required=True)
    prep.add_argument("--out", required=True)
    prep.add_argument("--max-lines", type=int, default=265)

    bv = subs.add_parser("build-vocab", help="build a vocabulary file")
    bv.add_argument("--in", dest="inp", required=True)
    bv.add_argument("--out", required=True)

    tr = subs.add_parser("train", help="train both stages and save the model")
    tr.add_argument("--in", dest="inp", required=True)
    tr.add_argument("--vocab", required=True)
    tr.add_argument("--out-model", required=True)
    tr.add_argument("--loss-log")
    _add_model_flags(tr)

    pr = subs.add_parser("predict", help="run inference over a corpus")
    pr.add_argument("--model", required=True)
    pr.add_argument("--in", dest="inp", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--vocab", help="optional vocabulary cross-check")

    ev = subs.add_parser("evaluate", help="run the repeated-split protocol")
    ev.add_argument("--in", dest="inp", required=True)
    ev.add_argument("--out-csv", required=True)
    ev.add_argument("--repeats", type=int, default=5)
    ev.add_argument("--vocab-from-all", action="store_true")
    _add_model_flags(ev)

    gc = subs.add_parser("grad-check", help="verify backprop against "
                                            "finite differences")
    gc.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_gen_synth(args) -> int:
    config = SynthConfig(
        program_count=args.programs,
        vulnerable_fraction=args.vulnerable_fraction,
        lines_min=args.lines_min, lines_max=args.lines_max,
        token_pool_size=args.token_pool, motif_span=args.motif_span,
        seed=args.seed, with_user_functions=args.with_user_functions)
    corpus = generate_corpus(config)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} programs to {args.out}")
    return 0


def _cmd_prepare(args) -> int:
    corpus = prepare_corpus(load_corpus(args.inp), max_lines=args.max_lines)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} prepared programs to {args.out}")
    return 0


def _cmd_build_vocab(args) -> int:
    vocab = build_vocabulary(load_corpus(args.inp))
    save_vocabulary(vocab, args.out)
    print(f"vocabulary size {vocab.size}, digest {vocab.digest()}")
    return 0


def _cmd_train(args) -> int:
    corpus = load_corpus(args.inp)
    vocab = load_vocabulary(args.vocab)
    config = _model_config(args)
    stage1, hist1 = train_stage1(corpus, vocab, config)
    stage2, hist2 = train_stage2(corpus, vocab, stage1, config)
    save_model(stage1, stage2, vocab, args.out_model)
    if args.loss_log:
        with open(args.loss_log, "w", encoding="utf-8") as fh:
            for epoch, loss in enumerate(hist1):
                fh.write(f"stage1,{epoch},{float(loss)!r}\n")
            for epoch, loss in enumerate(hist2):
                fh.write(f"stage2,{epoch},{float(loss)!r}\n")
    print(f"stage-1 final loss {hist1[-1]:.6f}, "
          f"stage-2 final loss {hist2[-1]:.6f}")
    return 0


def _cmd_predict(args) -> int:
    stage1, stage2, vocab = load_model(args.model)
    if args.vocab:
        supplied = load_vocabulary(args.vocab)
        if supplied.digest() != vocab.digest():
            raise DataError("vocabulary digest mismatch between model and "
                            f"{args.vocab}")
    corpus = load_corpus(args.inp)
    with open(args.out, "w", encoding="utf-8") as fh:
        for program in corpus:
            pred = predict(stage1, stage2, vocab, program)
            fh.write(json.dumps({
                "id": pred.program_id,
                "code_vulnerable": pred.code_vulnerable,
                "code_probability": pred.code_probability,
                "line_flags": pred.line_flags,
                "line_probabilities": pred.line_probabilities,
            }) + "\n")
    print(f"wrote predictions for {len(corpus)} programs to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    corpus = load_corpus(args.inp)
    results = run_experiment(corpus, _model_config(args), repeats=args.repeats,
                             vocab_from_all=args.vocab_from_all)
    Path(args.out_csv).write_text(report_csv(results), encoding="utf-8")
    print(report_table(results))
    return 0


def _cmd_grad_check(args) -> int:
    errs = grad_checks.run_all(seed=args.seed)
    worst = max(errs.values())
    for name, err in sorted(errs.items()):
        print(f"{name}: max relative error {err:.3e}")
    if worst >= 1e-4:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print(f"gradient check passed (worst {worst:.3e})")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "prepare": _cmd_prepare,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "grad-check": _cmd_grad_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
