"""Sub-word tokenization for the token encoders.

Two interchangeable schemes:

* :class:`SubwordTokenizer` -- a piece inventory learned from corpus word
  frequencies by iterative pair merging, applied at encode time with greedy
  longest-match from the left.  Lowercases its input.  Fitting counts the
  adjacent pairs of the distinct words once and keeps the counts
  incrementally, re-counting after each merge only the words it touched.
  ``encode_words`` matches each distinct word once per tokenizer and keeps
  its piece ids as a tuple, so later sequences reuse them;
  ``encode_word`` is the uncached match.
* :class:`IdentityTokenizer` -- one id per distinct (lowercased) word of the
  fitting corpus; out-of-vocabulary words map to the unknown id.

Both expose ``encode_words(words) -> (ids, word_spans)`` where
``word_spans[i]`` is the inclusive sub-token range covering word ``i``, so
word-level mention spans can be resolved against sub-token sequences.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from typing import Iterable, Sequence

from .errors import ArgumentError, ValidationError

PAD = "<pad>"
UNK = "<unk>"


def _apply_merge(symbols: tuple[str, ...], pair: tuple[str, str], merged: str) -> tuple[str, ...]:
    """Join every occurrence of ``pair`` in ``symbols``, left to right and
    non-overlapping."""
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _merge_pairs(word_freq: dict[tuple[str, ...], int], target_size: int, base: set[str]):
    """Learn merged pieces by repeatedly joining the most frequent adjacent
    pair.  Ties break lexicographically so training is deterministic.

    Pair counts are taken once over the distinct words and then kept
    incrementally: ``where`` maps each pair to the words that held it, and a
    merge re-counts only those words.  An index left in ``where`` after its
    word lost the pair is harmless: the rewrite changes nothing and its
    counts net to zero.  The next pair comes off a heap of ``(-count,
    pair)`` entries, one pushed on every count change; an entry whose count
    is no longer the pair's is skipped when it surfaces."""
    pieces = set(base)
    words = list(word_freq)
    freqs = list(word_freq.values())
    counts: Counter[tuple[str, str]] = Counter()
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freqs[i]
            where[pair].add(i)
    heap = [(-n, pair) for pair, n in counts.items()]
    heapq.heapify(heap)
    while len(pieces) < target_size and counts:
        top, best = heapq.heappop(heap)
        if counts.get(best) != -top:
            continue
        if -top < 2:
            break
        merged = best[0] + best[1]
        pieces.add(merged)
        touched = set()
        for i in where.pop(best):
            symbols, freq = words[i], freqs[i]
            for pair in zip(symbols, symbols[1:]):
                counts[pair] -= freq
                if not counts[pair]:
                    del counts[pair]
                touched.add(pair)
            symbols = words[i] = _apply_merge(symbols, best, merged)
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += freq
                where[pair].add(i)
                touched.add(pair)
        for pair in touched:
            if pair in counts:
                heapq.heappush(heap, (-counts[pair], pair))
    return pieces


class SubwordTokenizer:
    """Greedy longest-match encoder over a learned piece inventory."""

    kind = "subword"

    def __init__(self, pieces: Sequence[str]):
        if tuple(pieces[:2]) != (PAD, UNK):
            raise ValidationError("piece table must start with the pad and unk symbols")
        if not all(isinstance(p, str) and p for p in pieces):
            raise ValidationError("every piece must be a non-empty string")
        self.pieces = tuple(pieces)
        self.piece_to_id = {p: i for i, p in enumerate(self.pieces)}
        if len(self.piece_to_id) != len(self.pieces):
            raise ValidationError("piece table contains duplicates")
        self._max_piece = max(len(p) for p in self.pieces)
        self._word_ids: dict[str, tuple[int, ...]] = {}  # word -> encode_word, filled on use

    @classmethod
    def train(cls, words: Iterable[str], vocab_size: int = 512) -> "SubwordTokenizer":
        if vocab_size < 8:
            raise ArgumentError("vocab_size too small to be useful")
        freq = Counter(w.lower() for w in words)
        if not freq:
            raise ArgumentError("cannot train a tokenizer on an empty word stream")
        chars = sorted({c for w in freq for c in w})
        word_freq = {tuple(w): n for w, n in freq.items()}
        budget = vocab_size - 2  # pad, unk
        pieces = _merge_pairs(word_freq, budget, set(chars))
        ordered = [PAD, UNK] + sorted(pieces, key=lambda p: (len(p), p))
        return cls(ordered[: vocab_size])

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def encode_word(self, word: str) -> list[int]:
        word = word.lower()
        ids = []
        i = 0
        while i < len(word):
            match = None
            stop = min(len(word), i + self._max_piece)
            for j in range(stop, i, -1):
                piece_id = self.piece_to_id.get(word[i:j])
                if piece_id is not None:
                    match = (piece_id, j)
                    break
            if match is None:
                ids.append(self.unk_id)
                i += 1
            else:
                ids.append(match[0])
                i = match[1]
        return ids

    def encode_words(self, words: Sequence[str]):
        if not words:
            raise ArgumentError("cannot encode an empty word sequence")
        ids: list[int] = []
        spans: list[tuple[int, int]] = []
        cache = self._word_ids
        for word in words:
            sub = cache.get(word)
            if sub is None:
                sub = cache[word] = tuple(self.encode_word(word))
            spans.append((len(ids), len(ids) + len(sub) - 1))
            ids.extend(sub)
        return ids, spans

    def to_dict(self) -> dict:
        return {"kind": self.kind, "pieces": list(self.pieces)}


class IdentityTokenizer:
    """One sub-token per word; the table is the fitting corpus vocabulary."""

    kind = "identity"

    def __init__(self, words: Sequence[str]):
        if tuple(words[:2]) != (PAD, UNK):
            raise ValidationError("word table must start with the pad and unk symbols")
        if not all(isinstance(w, str) for w in words):
            raise ValidationError("every word in the table must be a string")
        self.pieces = tuple(words)
        self.piece_to_id = {w: i for i, w in enumerate(self.pieces)}
        if len(self.piece_to_id) != len(self.pieces):
            raise ValidationError("word table contains duplicates")

    @classmethod
    def train(cls, words: Iterable[str], vocab_size: int | None = None) -> "IdentityTokenizer":
        if vocab_size is not None and vocab_size < 8:
            raise ArgumentError("vocab_size too small to be useful")
        vocab = sorted({w.lower() for w in words})
        if not vocab:
            raise ArgumentError("cannot build a word table from an empty word stream")
        if vocab_size is not None and len(vocab) + 2 > vocab_size:
            vocab = vocab[: vocab_size - 2]
        return cls([PAD, UNK] + vocab)

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def encode_word(self, word: str) -> list[int]:
        return [self.piece_to_id.get(word.lower(), self.unk_id)]

    def encode_words(self, words: Sequence[str]):
        if not words:
            raise ArgumentError("cannot encode an empty word sequence")
        ids = []
        spans = []
        for i, word in enumerate(words):
            ids.extend(self.encode_word(word))
            spans.append((i, i))
        return ids, spans

    def to_dict(self) -> dict:
        return {"kind": self.kind, "pieces": list(self.pieces)}


def tokenizer_from_dict(payload: dict):
    if not isinstance(payload, dict):
        raise ValidationError("a tokenizer table must be a JSON object")
    pieces = payload.get("pieces")
    if not isinstance(pieces, list):
        raise ValidationError("a tokenizer table must hold a 'pieces' list")
    kind = payload.get("kind")
    if kind == "subword":
        return SubwordTokenizer(pieces)
    if kind == "identity":
        return IdentityTokenizer(pieces)
    raise ValidationError(f"unknown tokenizer kind {kind!r}")


def build_tokenizer(scheme: str, words: Iterable[str], vocab_size: int):
    if scheme == "subword":
        return SubwordTokenizer.train(words, vocab_size)
    if scheme == "identity":
        return IdentityTokenizer.train(words, vocab_size)
    raise ArgumentError(f"unknown tokenizer scheme {scheme!r}")
