import struct
from pathlib import Path

import numpy as np
import pytest

import irvuln.detector
import irvuln.vocab
from irvuln.cli import run
from irvuln.corpus import Corpus, Program, save_corpus
from irvuln.detector import (ModelConfig, Stage1Model, Stage2Model,
                             encode_line, init_stage1, init_stage2,
                             load_model, predict, save_model, stage1_forward,
                             stage2_forward, train_stage1, train_stage2)
from irvuln.errors import DataError, NumericError
from irvuln.nncore import lstm_step, relu, softmax
from irvuln.synth import SynthConfig, generate_corpus
from irvuln.vocab import (BowVector, Vocabulary, build_vocabulary, fnv1a64,
                          vectorize_program)


DESK_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "model" \
    / "desk_v1.bin"


def small_config(**overrides):
    base = dict(embed_dim=6, hidden_dim=5, classifier_width=4,
                line_classifier_width=4, stage1_epochs=3, stage2_epochs=3,
                seed=17)
    base.update(overrides)
    return ModelConfig(**base)


def small_models(vocab_size=9, config=None, seed=3):
    config = config or small_config()
    rng = np.random.default_rng(seed)
    s1 = init_stage1(config, vocab_size, "0" * 16, rng)
    s2 = init_stage2(config, vocab_size, "0" * 16, rng)
    return s1, s2


def bow(dimension, *on):
    return BowVector(dimension, np.array(sorted(on), dtype=np.int64))


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.embed_dim == 64
        assert cfg.learning_rate == 0.05

    @pytest.mark.parametrize("field,value", [
        ("embed_dim", 0), ("hidden_dim", -1), ("blstm_layers", 0),
        ("learning_rate", 0.0), ("decision_threshold", 1.0),
        ("test_fraction", 0.0), ("stage1_epochs", 0)])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            ModelConfig(**{field: value})


class TestInit:
    def test_shapes(self):
        s1, s2 = small_models(vocab_size=9)
        assert s1.W0.shape == (6, 9)
        assert s1.W1.shape == (6, 6)
        assert len(s1.layers) == 1
        fwd, bwd = s1.layers[0]
        assert fwd.weight.shape == (4 * 5, 6 + 5)
        assert s1.W2.shape == (4, 10)
        assert s1.W3.shape == (2, 4)
        assert s2.W4.shape == (4, 10 + 9)
        assert s2.W5.shape == (2, 4)

    def test_stacked_layer_widths(self):
        cfg = small_config(blstm_layers=2)
        rng = np.random.default_rng(0)
        s1 = init_stage1(cfg, 9, "0" * 16, rng)
        assert s1.layers[1][0].weight.shape == (4 * 5, 2 * 5 + 5)

    def test_weight_bounds_respect_fan_in(self):
        s1, _ = small_models(vocab_size=9)
        assert np.max(np.abs(s1.W1)) <= 1.0 / np.sqrt(6)
        assert np.max(np.abs(s1.W3)) <= 1.0 / np.sqrt(4)

    def test_deterministic_given_rng_seed(self):
        a, _ = small_models(seed=5)
        b, _ = small_models(seed=5)
        assert np.array_equal(a.W0, b.W0)
        assert np.array_equal(a.layers[0][1].weight, b.layers[0][1].weight)

    def test_dense_bias_optional(self):
        s1, s2 = small_models(config=small_config(dense_bias=True))
        assert s1.b0 is not None and "s1/b0" in s1.param_dict()
        assert s2.b4 is not None and "s2/b4" in s2.param_dict()
        s1, s2 = small_models()
        assert s1.b0 is None and "s1/b0" not in s1.param_dict()


class TestEncodeLine:
    def test_matches_dense_matmul_oracle(self):
        s1, _ = small_models(vocab_size=9)
        x = bow(9, 1, 4, 7)
        ref = relu(s1.W1 @ relu(s1.W0 @ x.dense()))
        assert np.allclose(encode_line(s1, x), ref)

    def test_empty_line_is_zero_vector(self):
        s1, _ = small_models(vocab_size=9)
        assert not encode_line(s1, bow(9)).any()

    def test_dimension_mismatch(self):
        s1, _ = small_models(vocab_size=9)
        with pytest.raises(DataError, match="dimension"):
            encode_line(s1, bow(8, 0))


class TestStage1Forward:
    def test_length_one_program(self):
        s1, _ = small_models(vocab_size=9)
        x = bow(9, 0, 2)
        logits, blstm = stage1_forward(s1, [x])
        assert logits.shape == (2,)
        assert np.array_equal(blstm.forward_states.shape, (1, 5))

    def test_matches_compositional_oracle(self):
        s1, _ = small_models(vocab_size=9)
        xs = [bow(9, 0, 3), bow(9, 1), bow(9, 2, 5, 8)]
        logits, blstm = stage1_forward(s1, xs)

        henc = np.stack([encode_line(s1, x) for x in xs])
        fwd, bwd = s1.layers[0]
        h = np.zeros(5)
        c = np.zeros(5)
        for t in range(3):
            h, c = lstm_step(fwd, henc[t], h, c)
            assert np.allclose(blstm.forward_states[t], h)
        hb = np.zeros(5)
        cb = np.zeros(5)
        for t in range(2, -1, -1):
            hb, cb = lstm_step(bwd, henc[t], hb, cb)
        assert np.allclose(blstm.backward_states[0], hb)
        latent = np.concatenate([h, blstm.backward_states[0]])
        ref = s1.W3 @ relu(s1.W2 @ latent)
        assert np.allclose(logits, ref)

    def test_empty_program_rejected(self):
        s1, _ = small_models()
        with pytest.raises(DataError, match="empty"):
            stage1_forward(s1, [])

    def test_zero_parameters_give_zero_logits(self):
        s1, _ = small_models(vocab_size=9)
        for p in s1.param_dict().values():
            p[...] = 0.0
        logits, _ = stage1_forward(s1, [bow(9, 1), bow(9, 2)])
        assert np.array_equal(logits, np.zeros(2))


class TestStage2Forward:
    def test_matches_dense_oracle(self):
        s1, s2 = small_models(vocab_size=9)
        xs = [bow(9, 0, 3), bow(9, 1, 6)]
        _, blstm = stage1_forward(s1, xs)
        for t in range(2):
            ctx = np.concatenate([blstm.forward_states[t],
                                  blstm.backward_states[t]])
            full = np.concatenate([ctx, xs[t].dense()])
            ref = s2.W5 @ relu(s2.W4 @ full)
            assert np.allclose(stage2_forward(s2, blstm, t, xs[t]), ref)

    def test_line_index_out_of_range(self):
        s1, s2 = small_models(vocab_size=9)
        _, blstm = stage1_forward(s1, [bow(9, 0)])
        with pytest.raises(DataError, match="out of range"):
            stage2_forward(s2, blstm, 1, bow(9, 0))

    def test_width_mismatch(self):
        s1, s2 = small_models(vocab_size=9)
        _, blstm = stage1_forward(s1, [bow(9, 0)])
        with pytest.raises(DataError, match="width"):
            stage2_forward(s2, blstm, 0, bow(5, 0))


@pytest.fixture(scope="module")
def train_setup():
    corpus = generate_corpus(SynthConfig(
        program_count=30, vulnerable_fraction=0.4, lines_min=4, lines_max=8,
        token_pool_size=25, motif_span=2, seed=21))
    vocab = build_vocabulary(corpus)
    return corpus, vocab


class TestTraining:
    def test_loss_history_is_deterministic(self, train_setup):
        corpus, vocab = train_setup
        cfg = small_config()
        _, h1a = train_stage1(corpus, vocab, cfg)
        _, h1b = train_stage1(corpus, vocab, cfg)
        assert h1a == h1b
        assert len(h1a) == cfg.stage1_epochs

    def test_single_class_corpus_rejected(self, train_setup):
        _, vocab = train_setup
        clean = Corpus([Program("p", ["store i32"], 0, ())])
        with pytest.raises(DataError, match="single-class"):
            train_stage1(clean, vocab, small_config())

    def test_stage2_requires_matching_digest(self, train_setup):
        corpus, vocab = train_setup
        cfg = small_config()
        stage1, _ = train_stage1(corpus, vocab, cfg)
        other = Vocabulary(vocab.tokens + ["zzz_extra"])
        with pytest.raises(DataError, match="digest"):
            train_stage2(corpus, other, stage1, cfg)

    def test_stage2_leaves_stage1_untouched(self, train_setup):
        corpus, vocab = train_setup
        cfg = small_config()
        stage1, _ = train_stage1(corpus, vocab, cfg)
        before = {k: v.copy() for k, v in stage1.param_dict().items()}
        _, hist = train_stage2(corpus, vocab, stage1, cfg)
        assert len(hist) == cfg.stage2_epochs
        for name, param in stage1.param_dict().items():
            assert np.array_equal(param, before[name]), name

    def test_stage2_history_deterministic(self, train_setup):
        corpus, vocab = train_setup
        cfg = small_config()
        stage1, _ = train_stage1(corpus, vocab, cfg)
        _, a = train_stage2(corpus, vocab, stage1, cfg)
        _, b = train_stage2(corpus, vocab, stage1, cfg)
        assert a == b

    def test_losses_are_finite_and_nonnegative(self, train_setup):
        corpus, vocab = train_setup
        cfg = small_config()
        s1, h1 = train_stage1(corpus, vocab, cfg)
        _, h2 = train_stage2(corpus, vocab, s1, cfg)
        for loss in h1 + h2:
            assert np.isfinite(loss) and loss >= 0.0


@pytest.fixture(scope="module")
def trained(train_setup):
    corpus, vocab = train_setup
    cfg = small_config()
    s1, _ = train_stage1(corpus, vocab, cfg)
    s2, _ = train_stage2(corpus, vocab, s1, cfg)
    return corpus, vocab, s1, s2


class TestPredict:
    def test_shapes_and_gating(self, trained):
        corpus, vocab, s1, s2 = trained
        for program in corpus:
            pred = predict(s1, s2, vocab, program)
            assert len(pred.line_flags) == len(program.lines)
            assert len(pred.line_probabilities) == len(program.lines)
            assert 0.0 <= pred.code_probability <= 1.0
            if not pred.code_vulnerable:
                assert not any(pred.line_flags)

    def test_zero_model_boundary(self, trained):
        corpus, vocab, _, _ = trained
        cfg = small_config()
        rng = np.random.default_rng(0)
        s1 = init_stage1(cfg, vocab.size, vocab.digest(), rng)
        s2 = init_stage2(cfg, vocab.size, vocab.digest(), rng)
        for p in s1.param_dict().values():
            p[...] = 0.0
        for p in s2.param_dict().values():
            p[...] = 0.0
        pred = predict(s1, s2, vocab, corpus.programs[0])
        # probability exactly 0.5 and threshold comparison uses >=
        assert pred.code_probability == 0.5
        assert pred.code_vulnerable
        assert all(pred.line_flags)

    def test_digest_mismatch(self, trained):
        corpus, vocab, s1, s2 = trained
        other = Vocabulary(vocab.tokens + ["zzz"])
        with pytest.raises(DataError, match="digest"):
            predict(s1, s2, other, corpus.programs[0])


@pytest.fixture(scope="module")
def models():
    vocab = Vocabulary(["store", "i32", "%1", "%2", "add", "=",
                        "load", "br", "label"])
    cfg = small_config(dense_bias=True)
    rng = np.random.default_rng(11)
    s1 = init_stage1(cfg, vocab.size, vocab.digest(), rng)
    s2 = init_stage2(cfg, vocab.size, vocab.digest(), rng)
    return vocab, s1, s2


def _reseal(path, body: bytes) -> None:
    """Write ``body`` with a valid trailing digest."""
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))


# case -> (bytes in the saved body, bytes that replace them), given stage 2
_RESEALED_CORRUPTIONS = {
    "token-not-utf8": lambda s2: (struct.pack("<I", 5) + b"label",
                                  struct.pack("<I", 5) + b"\xffabel"),
    "tensor-name-not-utf8": lambda s2: (b"s2/W5", b"s2/W\xff"),
    "nan-weight": lambda s2: (struct.pack("<d", s2.W5.flat[0]),
                              struct.pack("<d", np.nan)),
    "inf-weight": lambda s2: (struct.pack("<d", s2.W5.flat[0]),
                              struct.pack("<d", -np.inf)),
}


class TestSerialization:
    def test_roundtrip_bit_exact(self, models, tmp_path):
        vocab, s1, s2 = models
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        r1, r2, rvocab = load_model(path)
        assert rvocab.tokens == vocab.tokens
        assert r1.config == s1.config
        for name, param in s1.param_dict().items():
            assert np.array_equal(r1.param_dict()[name], param), name
        for name, param in s2.param_dict().items():
            assert np.array_equal(r2.param_dict()[name], param), name

    def test_save_is_byte_deterministic(self, models, tmp_path):
        vocab, s1, s2 = models
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_model(s1, s2, vocab, a)
        save_model(s1, s2, vocab, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, models, tmp_path):
        vocab, s1, s2 = models
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(DataError, match="corrupted"):
            load_model(path)

    def test_flipped_byte_rejected(self, models, tmp_path):
        vocab, s1, s2 = models
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="digest mismatch"):
            load_model(path)

    def test_unsupported_version_rejected(self, models, tmp_path):
        vocab, s1, s2 = models
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        raw = bytearray(path.read_bytes())[:-8]
        raw[8:12] = struct.pack("<I", 99)
        _reseal(path, bytes(raw))
        with pytest.raises(DataError, match="version 99"):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(_RESEALED_CORRUPTIONS))
    def test_resealed_corruption_is_data_error(self, models, tmp_path, case):
        vocab, s1, s2 = models
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        old, new = _RESEALED_CORRUPTIONS[case](s2)
        body = path.read_bytes()[:-8]
        assert body.count(old) == 1
        _reseal(path, body.replace(old, new))
        with pytest.raises(DataError, match="corrupted"):
            load_model(path)
        corpus = tmp_path / "c.jsonl"
        save_corpus(Corpus([Program("p", ["store i32 %1"], 0, ())]), corpus)
        assert run(["predict", "--model", str(path), "--in", str(corpus),
                    "--out", str(tmp_path / "pred.jsonl")]) == 2

    def test_one_digest_per_vocabulary(self, models, tmp_path, monkeypatch):
        vocab, s1, s2 = models
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        calls = []

        def counting_fnv1a64(data):
            calls.append(len(data))
            return fnv1a64(data)

        monkeypatch.setattr(irvuln.vocab, "fnv1a64", counting_fnv1a64)
        monkeypatch.setattr(irvuln.detector, "fnv1a64", counting_fnv1a64)
        r1, r2, rvocab = load_model(path)
        # the model body, then the vocabulary
        assert calls == [path.stat().st_size - 8, len(rvocab.file_bytes())]
        calls.clear()
        for k in range(1, 6):
            lines = ["store i32 %1", "br label"] * k
            predict(r1, r2, rvocab, Program(f"p{k}", lines, 0, ()))
        assert calls == []

    def test_inference_identical_after_roundtrip(self, models, tmp_path):
        vocab, s1, s2 = models
        program = Program("p", ["store i32 %1", "add = %2", "br label"],
                          0, ())
        path = tmp_path / "m.bin"
        save_model(s1, s2, vocab, path)
        r1, r2, rvocab = load_model(path)
        a = predict(s1, s2, vocab, program)
        b = predict(r1, r2, rvocab, program)
        assert a.code_probability == b.code_probability
        assert a.line_probabilities == b.line_probabilities


class TestNonFiniteLogits:
    """Overflowing forward passes are a NumericError, never NaN output."""

    @pytest.fixture(scope="class")
    def overflowing(self):
        # the committed model with every tensor scaled x300 overflows on
        # long programs; unchecked, predict reports NaN as a "clean" verdict
        s1, s2, vocab = load_model(DESK_MODEL)
        for p in (*s1.param_dict().values(), *s2.param_dict().values()):
            p *= 300.0
        rng = np.random.default_rng(0)
        programs = [Program(f"p{k}", [" ".join(rng.choice(vocab.tokens, 4))
                                      for _ in range(250)], 0, ())
                    for k in range(3)]
        return s1, s2, vocab, programs

    def test_predict_raises(self, overflowing):
        s1, s2, vocab, programs = overflowing
        with np.errstate(all="ignore"):
            for program in programs:
                with pytest.raises(NumericError, match="non-finite"):
                    predict(s1, s2, vocab, program)

    def test_cli_predict_exits_3_without_nan(self, overflowing, tmp_path):
        s1, s2, vocab, programs = overflowing
        model = tmp_path / "m.bin"
        corpus = tmp_path / "c.jsonl"
        out = tmp_path / "pred.jsonl"
        save_model(s1, s2, vocab, model)
        save_corpus(Corpus(programs), corpus)
        with np.errstate(all="ignore"):
            assert run(["predict", "--model", str(model), "--in", str(corpus),
                        "--out", str(out)]) == 3
        assert "NaN" not in out.read_text()

    def test_stage2_overflow_raises(self):
        s1, s2 = small_models(vocab_size=9)
        vocab = Vocabulary([f"t{k}" for k in range(9)])
        s1.vocab_digest = s2.vocab_digest = vocab.digest()
        s2.W4[...] = 1e300
        s2.W5[...] = 1e300
        program = Program("p", ["t0 t1", "t2"], 0, ())
        with np.errstate(all="ignore"):
            logits, _ = stage1_forward(s1, vectorize_program(vocab, program))
            assert np.isfinite(logits).all()
            with pytest.raises(NumericError, match="stage-2"):
                predict(s1, s2, vocab, program)
