"""Token vocabulary and binary bag-of-words line vectors."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Program
from .errors import DataError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_HASH_BLOCK = 1 << 16  # bytes per block; keeps the temporaries under 1 MB
# P^1, ..., P^B mod 2^64: the running product wraps exactly in uint64.
_PRIME_POWERS = np.full(_HASH_BLOCK, _FNV_PRIME, dtype=np.uint64)
np.multiply.accumulate(_PRIME_POWERS, out=_PRIME_POWERS)
_WORD_SHIFTS = tuple(np.uint64(1 << k) for k in range(6))


def _prefix_xor(bits: np.ndarray, start: int) -> np.ndarray:
    """Inclusive prefix XOR of ``bits != 0`` as 0/1 bytes, XORed with the
    ``start`` bit; ``bits.size`` must be a multiple of 64."""
    words = np.packbits(bits, bitorder="little").view("<u8")
    for shift in _WORD_SHIFTS:  # prefix XOR inside each 64-bit word
        words ^= words << shift
    parity = words >> np.uint64(63)
    carry = np.bitwise_xor.accumulate(parity)
    carry ^= parity  # XOR of all earlier words
    if start:
        carry ^= np.uint64(1)
    words ^= np.uint64(0) - carry  # 0 or all ones
    return np.unpackbits(words.view(np.uint8), bitorder="little")


def _fnv1a64_block(h: int, data: np.ndarray) -> int:
    n = data.size
    padded = -(-n // 64) * 64
    if padded != n:
        data = np.concatenate([data, np.zeros(padded - n, dtype=np.uint8)])
    # low[i] is the low byte of the state before data[i] is mixed in.
    low = np.zeros(padded + 1, dtype=np.uint8)
    before = low[:-1]
    mixed = np.empty(padded, dtype=np.uint8)
    for j in range(8):
        # Bits j.. of `low` are still 0 here, so bit j of
        # (low ^ data) * 0xB3 is the flip of bit j from each byte to the next.
        low[0] = h & ((1 << j) - 1)
        np.bitwise_xor(before, data, out=mixed)
        mixed *= np.uint8(0xB3)
        mixed &= np.uint8(1 << j)
        flips = _prefix_xor(mixed, (h >> j) & 1)
        flips <<= np.uint8(j)
        low[1:] |= flips
    low[0] = h & 0xFF
    # d_i in reverse order, so that d_(n-1-k) meets P^(k+1)
    step = (before[:n] ^ data[:n])[::-1].astype(np.int64)
    step -= before[n - 1::-1]
    total = int(np.dot(step.view(np.uint64), _PRIME_POWERS[:n]))
    return (int(_PRIME_POWERS[n - 1]) * h + total) & _MASK64


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (offset 0xCBF29CE484222325, prime
    P = 0x100000001B3), computed in numpy over 64 KiB blocks.

    The byte step h <- (h ^ b) * P mod 2^64 is evaluated through two facts:

    - The 64-bit state is linear once the low bytes are known. With
      l = h mod 256, h ^ b = h + d where d = (l ^ b) - l, so after n bytes
      h_n = P^n h_0 + sum_{i<n} d_i P^(n-i) mod 2^64: one wrapping uint64
      multiply-and-sum against a table of powers of P, with h carried from
      one block to the next.
    - The low byte follows l' = ((l ^ b) * 0xB3) mod 256 on its own. As
      0xB3 is odd, bit j of l' is bit j of l XORed with a value that
      depends only on bits below j, so bits 0..7 of the whole sequence
      come out one after another, each as a prefix XOR, done on packed
      64-bit words.
    """
    h = _FNV_OFFSET
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, buf.size, _HASH_BLOCK):
        h = _fnv1a64_block(h, buf[start:start + _HASH_BLOCK])
    return h


def tokenize(line: str) -> list[str]:
    """Split on single spaces, dropping empty fragments.

    Punctuation stays attached to its token.
    """
    return [t for t in line.split(" ") if t]


@dataclass
class Vocabulary:
    """Ordered, unique token list; position in the list is the vector index."""

    tokens: list[str]
    index: dict = field(init=False, repr=False)
    _digest: str = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("vocabulary tokens are not unique")
        if not self.tokens:
            raise DataError("vocabulary is empty")
        self._digest = format(fnv1a64(self.file_bytes()), "016x")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def file_bytes(self) -> bytes:
        return ("\n".join(self.tokens) + "\n").encode("utf-8")

    def digest(self) -> str:
        """16-hex-char FNV-1a digest of the vocabulary file bytes, computed
        once when the vocabulary is made."""
        return self._digest


@dataclass(eq=False)
class BowVector:
    """Sparse binary presence vector over the vocabulary."""

    dimension: int
    on_indices: np.ndarray  # strictly increasing int64 positions

    def __post_init__(self):
        self.on_indices = np.asarray(self.on_indices, dtype=np.int64)
        if self.on_indices.size:
            if not np.all(np.diff(self.on_indices) > 0):
                raise DataError("on_indices must be strictly increasing")
            if self.on_indices[0] < 0 or self.on_indices[-1] >= self.dimension:
                raise DataError("on_indices out of range")

    def dense(self) -> np.ndarray:
        v = np.zeros(self.dimension)
        v[self.on_indices] = 1.0
        return v

    def __eq__(self, other):
        return (isinstance(other, BowVector)
                and self.dimension == other.dimension
                and np.array_equal(self.on_indices, other.on_indices))


def build_vocabulary(corpus: Corpus) -> Vocabulary:
    """Collect every distinct token in first-occurrence order."""
    seen = {}
    for program in corpus:
        for line in program.lines:
            for tok in tokenize(line):
                if tok not in seen:
                    seen[tok] = len(seen)
    if not seen:
        raise DataError("corpus yields zero tokens")
    return Vocabulary(list(seen))


def vectorize_line(vocab: Vocabulary, line: str) -> BowVector:
    """Binary presence vector of the line's in-vocabulary tokens.

    Out-of-vocabulary tokens contribute nothing.
    """
    idx = {vocab.index[t] for t in tokenize(line) if t in vocab.index}
    return BowVector(vocab.size, np.array(sorted(idx), dtype=np.int64))


def vectorize_program(vocab: Vocabulary, program: Program) -> list[BowVector]:
    return [vectorize_line(vocab, line) for line in program.lines]


def save_vocabulary(vocab: Vocabulary, path) -> None:
    for tok in vocab.tokens:
        if "\n" in tok or "\r" in tok:
            raise DataError(f"token {tok!r} contains a newline")
    Path(path).write_bytes(vocab.file_bytes())


def load_vocabulary(path) -> Vocabulary:
    path = Path(path)
    if not path.exists():
        raise DataError(f"vocabulary file not found: {path}")
    tokens = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            tokens.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{lineno}: not valid UTF-8") from exc
    if not tokens:
        raise DataError(f"{path}: vocabulary file is empty")
    return Vocabulary(tokens)
