import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irvuln.corpus import Corpus, Program
from irvuln.detector import load_model
from irvuln.errors import DataError
from irvuln.synth import SynthConfig, generate_corpus
from irvuln.vocab import (_HASH_BLOCK, BowVector, Vocabulary,
                          build_vocabulary, fnv1a64, load_vocabulary,
                          save_vocabulary, tokenize, vectorize_line,
                          vectorize_program)

DESK_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "model" \
    / "desk_v1.bin"


def fnv1a64_loop(data: bytes) -> int:
    """Reference FNV-1a: the byte loop of the Fowler-Noll-Vo spec."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestTokenize:
    def test_ir_line(self):
        assert tokenize("store i32 0, i32* %1") == \
            ["store", "i32", "0,", "i32*", "%1"]

    def test_empty(self):
        assert tokenize("") == []

    def test_leading_spaces_dropped(self):
        assert tokenize("  %2 = add") == ["%2", "=", "add"]

    @given(st.text(alphabet=st.characters(blacklist_characters="\n"),
                   max_size=40))
    def test_no_empty_tokens(self, line):
        assert all(tok for tok in tokenize(line))
        assert all(" " not in tok for tok in tokenize(line))


class TestBuildVocabulary:
    def test_first_occurrence_order(self):
        corpus = Corpus([Program("p", ["a b", "b c"], 0, ())])
        vocab = build_vocabulary(corpus)
        assert vocab.tokens == ["a", "b", "c"]
        assert vocab.size == 3

    def test_empty_token_stream(self):
        corpus = Corpus([Program("p", ["   "], 0, ())])
        with pytest.raises(DataError, match="zero tokens"):
            build_vocabulary(corpus)

    def test_size_matches_set_oracle_on_synthetic_corpus(self):
        corpus = generate_corpus(SynthConfig(program_count=120, seed=42))
        distinct = set()
        for p in corpus:
            for line in p.lines:
                distinct.update(tokenize(line))
        vocab = build_vocabulary(corpus)
        assert vocab.size == len(distinct)
        assert set(vocab.tokens) == distinct

    def test_deterministic(self):
        corpus = generate_corpus(SynthConfig(program_count=30, seed=5))
        assert build_vocabulary(corpus).tokens == \
            build_vocabulary(corpus).tokens


class TestVectorize:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(["a", "b", "c"])

    def test_presence_and_duplicate_collapse(self, vocab):
        assert list(vectorize_line(vocab, "c a c").on_indices) == [0, 2]

    def test_empty_line(self, vocab):
        assert list(vectorize_line(vocab, "").on_indices) == []

    def test_oov_skipped(self, vocab):
        assert list(vectorize_line(vocab, "a z").on_indices) == [0]

    def test_program_maps_each_line(self, vocab):
        p = Program("p", ["a", "b c", "a b c"], 0, ())
        vecs = vectorize_program(vocab, p)
        assert len(vecs) == 3
        assert [list(v.on_indices) for v in vecs] == [[0], [1, 2], [0, 1, 2]]

    def test_identical_lines_identical_vectors(self, vocab):
        p = Program("p", ["a b", "a b"], 0, ())
        vecs = vectorize_program(vocab, p)
        assert vecs[0] == vecs[1]

    def test_on_bits_equal_distinct_token_count(self):
        corpus = generate_corpus(SynthConfig(program_count=20, seed=3))
        vocab = build_vocabulary(corpus)
        for p in corpus:
            for line, vec in zip(p.lines, vectorize_program(vocab, p)):
                assert len(vec.on_indices) == len(set(tokenize(line)))

    @given(st.permutations(["a", "b", "c", "b"]))
    def test_permutation_invariance(self, toks):
        vocab = Vocabulary(["a", "b", "c"])
        assert vectorize_line(vocab, " ".join(toks)) == \
            vectorize_line(vocab, "a b c b")

    def test_dense_roundtrip(self, vocab):
        vec = vectorize_line(vocab, "c a")
        assert list(vec.dense()) == [1.0, 0.0, 1.0]


class TestFnv1a:
    @given(st.binary(max_size=300))
    def test_matches_loop_on_short_inputs(self, data):
        assert fnv1a64(data) == fnv1a64_loop(data)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 3 * _HASH_BLOCK + 100), st.integers(0, 2**32 - 1))
    def test_matches_loop_up_to_three_blocks(self, length, seed):
        data = np.random.default_rng(seed).bytes(length)
        assert fnv1a64(data) == fnv1a64_loop(data)

    @pytest.mark.parametrize("length", [63, 64, 65, _HASH_BLOCK - 1,
                                        _HASH_BLOCK, _HASH_BLOCK + 1,
                                        2 * _HASH_BLOCK + 3])
    @pytest.mark.parametrize("fill", [None, 0x00, 0xFF])
    def test_matches_loop_at_block_edges(self, length, fill):
        if fill is None:
            data = np.random.default_rng(length).bytes(length)
        else:
            data = bytes([fill]) * length
        assert fnv1a64(data) == fnv1a64_loop(data)

    def test_committed_format_v1_model(self):
        raw = DESK_MODEL.read_bytes()
        assert fnv1a64(raw[:-8]) == struct.unpack("<Q", raw[-8:])[0]
        _, _, vocab = load_model(DESK_MODEL)
        assert vocab.size > 0


class TestSerialization:
    def test_fnv1a_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_file_roundtrip(self, tmp_path):
        vocab = Vocabulary(["store", "i32", "%1"])
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.digest() == vocab.digest()

    def test_digest_is_16_hex_chars(self):
        digest = Vocabulary(["x"]).digest()
        assert len(digest) == 16
        int(digest, 16)
