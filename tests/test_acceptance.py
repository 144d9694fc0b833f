"""End-to-end acceptance gate.

Each test pins one release criterion with explicit tolerances. These are
slower than the unit suites (the desk-scale protocol trains ten models);
run them with plain `pytest`, they are part of the default test set.
"""
import json
import time

import numpy as np
import pytest

from irvuln import grad_checks
from irvuln.cli import run as cli_run
from irvuln.corpus import (Corpus, Program, filter_by_length, prepare_corpus,
                           strip_user_functions)
from irvuln.detector import (ModelConfig, init_stage1, init_stage2, predict,
                             train_stage1, train_stage2)
from irvuln.evaluate import ConfusionCounts, metrics, run_experiment
from irvuln.nncore import LstmParams, blstm_forward, lstm_step
from irvuln.synth import SynthConfig, generate_corpus
from irvuln.vocab import build_vocabulary, tokenize


class TestCriterion1GradientCorrectness:
    def test_backprop_matches_finite_differences(self):
        start = time.time()
        errors = grad_checks.run_all(seed=1)
        elapsed = time.time() - start
        assert errors, "no checks ran"
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: max relative error {err:.3e}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


class TestCriterion2OverfitOracle:
    def test_mini_corpus_is_memorized(self):
        corpus = generate_corpus(SynthConfig(
            program_count=8, vulnerable_fraction=0.5, lines_min=4,
            lines_max=8, token_pool_size=20, motif_span=2, seed=7))
        vocab = build_vocabulary(corpus)
        config = ModelConfig(learning_rate=0.05, stage1_epochs=500,
                             stage2_epochs=500, seed=7)
        stage1, hist1 = train_stage1(corpus, vocab, config)
        assert hist1[-1] < 0.05, f"stage-1 final loss {hist1[-1]:.4f}"
        _, hist2 = train_stage2(corpus, vocab, stage1, config)
        assert hist2[-1] < 0.1, f"stage-2 final loss {hist2[-1]:.4f}"


class TestCriterion3DeskScale:
    def test_five_repeat_protocol(self):
        start = time.time()
        corpus = generate_corpus(SynthConfig(seed=42))
        results = run_experiment(corpus, ModelConfig(), repeats=5)
        elapsed = time.time() - start
        assert len(results) == 5
        for r in results:
            assert r.code.f1 >= 0.95, \
                f"run {r.run_id}: whole-code F1 {r.code.f1:.4f}"
            assert r.line.f1 >= 0.85, \
                f"run {r.run_id}: line F1 {r.line.f1:.4f}"
        assert elapsed < 900.0, f"protocol took {elapsed:.0f}s"


class TestCriterion4Gating:
    def test_no_flag_without_code_verdict(self):
        config = ModelConfig(embed_dim=6, hidden_dim=5, classifier_width=4,
                             line_classifier_width=4)
        rng = np.random.default_rng(4)
        pool = generate_corpus(SynthConfig(
            program_count=100, vulnerable_fraction=0.4, lines_min=3,
            lines_max=8, token_pool_size=30, motif_span=2, seed=4))
        vocab = build_vocabulary(pool)
        pairs = 0
        for _ in range(100):
            s1 = init_stage1(config, vocab.size, vocab.digest(), rng)
            s2 = init_stage2(config, vocab.size, vocab.digest(), rng)
            # randomize the verdict boundary: scale weights so both
            # confident and marginal models appear
            scale = float(rng.uniform(0.1, 20.0))
            for p in (*s1.param_dict().values(), *s2.param_dict().values()):
                p *= scale
            for program in pool:
                pred = predict(s1, s2, vocab, program)
                pairs += 1
                if not pred.code_vulnerable:
                    assert not any(pred.line_flags), program.id
        assert pairs >= 10_000


class TestCriterion5Determinism:
    def test_pipeline_artifacts_are_byte_identical(self, tmp_path):
        flags = ["--embed-dim", "8", "--hidden-dim", "8",
                 "--classifier-width", "8", "--line-classifier-width", "8",
                 "--stage1-epochs", "3", "--stage2-epochs", "3",
                 "--seed", "11"]

        def pipeline(root):
            root.mkdir()
            raw = root / "raw.jsonl"
            vocab = root / "vocab.txt"
            model = root / "model.bin"
            pred = root / "pred.jsonl"
            csv = root / "report.csv"
            assert cli_run(["gen-synth", "--out", str(raw), "--seed", "6",
                            "--programs", "40", "--lines-min", "4",
                            "--lines-max", "8", "--token-pool", "25",
                            "--motif-span", "2",
                            "--vulnerable-fraction", "0.4"]) == 0
            assert cli_run(["build-vocab", "--in", str(raw),
                            "--out", str(vocab)]) == 0
            assert cli_run(["train", "--in", str(raw), "--vocab", str(vocab),
                            "--out-model", str(model), *flags]) == 0
            assert cli_run(["predict", "--model", str(model), "--in",
                            str(raw), "--out", str(pred)]) == 0
            assert cli_run(["evaluate", "--in", str(raw), "--out-csv",
                            str(csv), "--repeats", "2", *flags]) == 0
            return model.read_bytes(), pred.read_bytes(), csv.read_bytes()

        first = pipeline(tmp_path / "a")
        second = pipeline(tmp_path / "b")
        assert first[0] == second[0], "model files differ"
        assert first[1] == second[1], "prediction files differ"
        assert first[2] == second[2], "CSV reports differ"


class TestCriterion6PreprocessingConformance:
    def test_tokenize_single_space_split(self):
        assert tokenize("store i32 0, i32* %1") == \
            ["store", "i32", "0,", "i32*", "%1"]
        assert tokenize("") == []

    def test_call_define_elision_with_remap(self):
        lines = ["%1 = load i32", "%2 = call void @f()",
                 "define void @f() {", "store i32 %1", "ret void"]
        assert strip_user_functions(lines) == \
            ["%1 = load i32", "store i32 %1", "ret void"]
        program = Program("p", lines, 1, (3,))
        prepared = prepare_corpus(Corpus([program]))
        assert prepared.programs[0].vulnerable_lines == (1,)

    def test_265_line_boundary(self):
        assert filter_by_length(Program("a", ["x"] * 264, 0, ())) is not None
        assert filter_by_length(Program("b", ["x"] * 265, 0, ())) is None


class TestCriterion7MetricFormulas:
    def test_rate_triple_to_two_decimals(self):
        rep = metrics(ConfusionCounts(tp=9927 * 19930, fn=73 * 19930,
                                      fp=2246 * 1800, tn=7754 * 1800))
        assert round(100 * rep.fpr, 2) == 22.46
        assert round(100 * rep.fnr, 2) == 0.73
        assert round(100 * rep.accuracy, 2) == 97.47

    def test_f1_to_two_decimals(self):
        rep = metrics(ConfusionCounts(tp=8581, fp=1419, fn=1419, tn=0))
        assert round(100 * rep.f1, 2) == 85.81


class TestCriterion8RecurrentProperties:
    def test_thousand_random_parameterizations(self):
        rng = np.random.default_rng(8)
        for trial in range(1000):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            length = int(rng.integers(1, 7))
            scale = float(rng.uniform(0.1, 2.0))
            fwd = LstmParams(
                rng.uniform(-scale, scale, (4 * m, d + m)),
                rng.uniform(-scale, scale, 4 * m), m)
            bwd = LstmParams(
                rng.uniform(-scale, scale, (4 * m, d + m)),
                rng.uniform(-scale, scale, 4 * m), m)
            xs = rng.standard_normal((length, d))

            # reversal: the backward scan equals a forward scan (same
            # parameters) over the reversed sequence, output reversed
            out, _ = blstm_forward([(fwd, bwd)], xs)
            flipped, _ = blstm_forward([(bwd, fwd)], xs[::-1])
            assert np.allclose(out.backward_states,
                               flipped.forward_states[::-1]), trial

            # zero parameters with zero initial state emit exactly zero
            zero = LstmParams(np.zeros((4 * m, d + m)), np.zeros(4 * m), m)
            h, c = lstm_step(zero, xs[0], np.zeros(m), np.zeros(m))
            assert not h.any() and not c.any(), trial
