import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from defex import tokenizer as tokenizer_module
from defex.corpus import SyntheticSpec, generate_synthetic_corpus
from defex.errors import ArgumentError, ValidationError
from defex.tokenizer import (
    PAD,
    UNK,
    IdentityTokenizer,
    SubwordTokenizer,
    build_tokenizer,
    tokenizer_from_dict,
)


def test_train_learns_whole_frequent_words():
    words = ["alpha"] * 20 + ["beta"] * 20 + ["gamma"] * 20
    tok = SubwordTokenizer.train(words, vocab_size=64)
    assert tok.encode_word("alpha") == [tok.piece_to_id["alpha"]]
    assert tok.encode_word("ALPHA") == [tok.piece_to_id["alpha"]]  # lowercased


def test_rare_word_splits_into_pieces():
    words = ["alpha"] * 20 + ["alphabet"]  # 'alphabet' too rare to merge fully
    tok = SubwordTokenizer.train(words, vocab_size=64)
    pieces = tok.encode_word("alphabet")
    assert len(pieces) > 1
    assert pieces[0] == tok.piece_to_id["alpha"]  # greedy longest match


def test_unknown_character_maps_to_unk():
    tok = SubwordTokenizer.train(["abc"] * 5, vocab_size=32)
    ids = tok.encode_word("zzz")
    assert ids == [tok.unk_id] * 3


def test_hand_table_three_piece_split():
    chars = sorted(set("unhappiness"))
    tok = SubwordTokenizer([PAD, UNK] + chars + ["un", "happi", "ness"])
    ids = tok.encode_word("unhappiness")
    assert [tok.pieces[i] for i in ids] == ["un", "happi", "ness"]


def test_encode_words_spans_cover_and_order():
    tok = SubwordTokenizer.train(["aa"] * 5 + ["bb"] * 5, vocab_size=32)
    ids, spans = tok.encode_words(["aa", "bb", "aa"])
    assert len(spans) == 3
    cursor = 0
    for lo, hi in spans:
        assert lo == cursor
        assert hi >= lo
        cursor = hi + 1
    assert cursor == len(ids)


def test_empty_sequence_rejected():
    tok = SubwordTokenizer.train(["aa"], vocab_size=32)
    with pytest.raises(ArgumentError):
        tok.encode_words([])


def test_training_deterministic():
    words = ["red", "green", "blue", "green", "red", "red"] * 3
    one = SubwordTokenizer.train(words, vocab_size=48)
    two = SubwordTokenizer.train(words, vocab_size=48)
    assert one.pieces == two.pieces


def test_serialization_roundtrip():
    tok = SubwordTokenizer.train(["some", "words", "here"] * 4, vocab_size=64)
    clone = tokenizer_from_dict(tok.to_dict())
    assert clone.pieces == tok.pieces
    assert clone.encode_word("words") == tok.encode_word("words")


def test_identity_tokenizer():
    tok = IdentityTokenizer.train(["Foo", "bar", "foo"])
    ids, spans = tok.encode_words(["foo", "bar"])
    assert spans == [(0, 0), (1, 1)]
    assert len(set(ids)) == 2
    assert tok.encode_word("unseen") == [tok.unk_id]
    clone = tokenizer_from_dict(tok.to_dict())
    assert clone.pieces == tok.pieces


@pytest.mark.parametrize("vocab_size", [0, 1, 2, 7])
def test_identity_tokenizer_vocab_floor(vocab_size):
    with pytest.raises(ArgumentError):
        IdentityTokenizer.train(["a", "b", "c", "d"], vocab_size=vocab_size)


def test_identity_tokenizer_keeps_first_words_at_budget():
    words = [chr(97 + i) for i in range(10)]
    tok = IdentityTokenizer.train(words, vocab_size=8)
    assert tok.pieces[2:] == tuple(words[:6])


def test_build_tokenizer_dispatch():
    assert build_tokenizer("identity", ["a"], 32).kind == "identity"
    assert build_tokenizer("subword", ["a"], 32).kind == "subword"
    with pytest.raises(ArgumentError):
        build_tokenizer("byte", ["a"], 32)


# -- the incremental pair counts against the full recount they replaced -------


def full_recount_merge_pairs(word_freq, target_size, base):
    """The merge loop as it was before pair counts were kept incrementally:
    every merge recounts every pair of every distinct word."""
    pieces = set(base)
    words = dict(word_freq)
    while len(pieces) < target_size:
        counts = Counter()
        for symbols, freq in words.items():
            for a, b in zip(symbols, symbols[1:]):
                counts[(a, b)] += freq
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        if counts[best] < 2:
            break
        merged = best[0] + best[1]
        pieces.add(merged)
        rewritten = {}
        for symbols, freq in words.items():
            out = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            key = tuple(out)
            rewritten[key] = rewritten.get(key, 0) + freq
        words = rewritten
    return pieces


def train_both(words, vocab_size):
    """Piece tables of ``SubwordTokenizer.train`` with the incremental merge
    loop and with the full-recount reference."""
    fast = SubwordTokenizer.train(words, vocab_size).pieces
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tokenizer_module, "_merge_pairs", full_recount_merge_pairs)
        reference = SubwordTokenizer.train(words, vocab_size).pieces
    return fast, reference


@st.composite
def word_lists(draw):
    alphabet = draw(st.sampled_from(["a", "aA", "abB", "aAbBc", "abcde", "AbCdE"]))
    distinct = draw(st.lists(st.text(alphabet, min_size=1, max_size=8), min_size=1, max_size=25))
    repeats = draw(st.lists(st.integers(1, 5), min_size=len(distinct), max_size=len(distinct)))
    return [word for word, n in zip(distinct, repeats) for _ in range(n)]


class TestIncrementalPairCounts:
    @settings(max_examples=300, deadline=None)
    @given(words=word_lists(), vocab_size=st.integers(8, 80))
    def test_equals_full_recount(self, words, vocab_size):
        fast, reference = train_both(words, vocab_size)
        assert fast == reference

    def test_overlapping_pairs(self):
        fast, reference = train_both(["aaaa"] * 3, 32)
        assert fast == reference == (PAD, UNK, "a", "aa", "aaaa")

    def test_one_string_from_two_pairs_adds_one_piece(self):
        # ('ab', 'c') and ('a', 'bc') both merge to 'abc'; the second merge
        # adds no piece, so the loop goes on to ('x', 'y')
        word_freq = {("ab", "c"): 3, ("a", "bc"): 2, ("x", "y"): 2}
        base = {"a", "b", "c", "ab", "bc", "x", "y"}
        pieces = tokenizer_module._merge_pairs(word_freq, 9, base)
        assert pieces == full_recount_merge_pairs(word_freq, 9, base) == base | {"abc", "xy"}

    def test_stops_on_budget(self):
        words = ["abcd"] * 9 + ["abab"] * 4
        fast, reference = train_both(words, 8)
        assert fast == reference
        assert len(fast) == 8
        assert len(SubwordTokenizer.train(words, 64)) > 8

    def test_stops_when_no_pair_repeats(self):
        fast, reference = train_both(["ab", "cd", "ef"], 64)
        assert fast == reference == (PAD, UNK, "a", "b", "c", "d", "e", "f")
        fast, reference = train_both(["abc", "abd"], 64)
        assert fast == reference == (PAD, UNK, "a", "b", "c", "d", "ab")


# -- the per-word piece-id cache against the uncached encode_word ------------


def reference_encode_words(tok, words):
    """``encode_words`` built from uncached ``encode_word`` calls."""
    ids, spans = [], []
    for word in words:
        sub = tok.encode_word(word)
        spans.append((len(ids), len(ids) + len(sub) - 1))
        ids.extend(sub)
    return ids, spans


class TestWordCache:
    """``SubwordTokenizer.encode_words`` keeps each word's piece ids; its
    results equal the uncached ``encode_word`` reference, cold or warm."""

    @settings(max_examples=200, deadline=None)
    @given(fit=word_lists(), vocab_size=st.integers(8, 40),
           sentences=st.lists(st.lists(st.text("aAbBcz", min_size=1, max_size=8),
                                       min_size=1, max_size=6), min_size=1, max_size=5))
    def test_equals_encode_word(self, fit, vocab_size, sentences):
        tok = SubwordTokenizer.train(fit, vocab_size)
        for sentence in sentences + sentences:  # cold, then warm
            assert tok.encode_words(sentence) == reference_encode_words(tok, sentence)

    def test_mixed_case_repeats(self):
        tok = SubwordTokenizer.train(["attack"] * 5 + ["tack"] * 3, 32)
        words = ["Attack", "attack", "ATTACK", "Attack", "tAck"]
        for _ in range(2):
            assert tok.encode_words(words) == reference_encode_words(tok, words)
        assert tok.encode_words(["Attack"]) == tok.encode_words(["attack"])

    def test_mutating_returned_ids_changes_nothing(self):
        tok = SubwordTokenizer.train(["attack"] * 5 + ["tack"] * 3, 32)
        words = ["attack", "tack", "attack"]
        ids, spans = tok.encode_words(words)
        expected = reference_encode_words(tok, words)
        ids[:] = [tok.unk_id] * (len(ids) + 1)
        spans.clear()
        assert tok.encode_words(words) == expected


WIDE_EXTRACT_SPEC = SyntheticSpec(
    n_types=40,
    mentions_per_type=100,
    min_sentence_length=6,
    max_sentence_length=24,
    distractors_in_gold_sentences=True,
)


@pytest.mark.parametrize("spec, digest", [
    (SyntheticSpec(), "fe5c492fad77b14f6d8b0abfaa5cb515cda492197256cd1c7946a08c82fbeb89"),
    (WIDE_EXTRACT_SPEC, "343e94b58ab9d6b18c37a4eb6fd4bfcc9a737171c8a04f5a7d233242971966d9"),
], ids=["default", "wide-extract"])
def test_pinned_piece_tables(spec, digest):
    corpus = generate_synthetic_corpus(spec, 1)[0]
    tok = SubwordTokenizer.train(corpus.all_words(), vocab_size=1024)
    assert hashlib.sha256(json.dumps(tok.to_dict()).encode()).hexdigest() == digest


@pytest.mark.parametrize("payload", [
    ["subword", [PAD, UNK, "a"]],
    "subword",
    None,
    {"kind": "subword"},
    {"kind": "subword", "pieces": "<pad><unk>a"},
    {"kind": "subword", "pieces": [PAD, UNK, "a", 3]},
    {"kind": "subword", "pieces": [PAD, UNK, "a", ""]},
    {"kind": "subword", "pieces": [PAD, UNK, "a", "a"]},
    {"kind": "subword", "pieces": [UNK, PAD, "a"]},
    {"kind": "identity", "pieces": [PAD, UNK, None]},
    {"kind": "identity", "pieces": [PAD, UNK, ["a"]]},
    {"kind": "byte", "pieces": [PAD, UNK, "a"]},
])
def test_malformed_table_raises_validation_error(payload):
    with pytest.raises(ValidationError):
        tokenizer_from_dict(payload)
