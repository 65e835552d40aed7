import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defex.corpus import SyntheticSpec, generate_synthetic_corpus
from defex.encoder import (
    CONTEXT,
    DEFINITION,
    ENCODE_BATCH_SIZE,
    DualEncoderModel,
    EncoderConfig,
    cosine,
)
from defex.errors import (
    ArgumentError,
    DegenerateVectorError,
    NumericalError,
    ParseError,
    TruncationError,
    ValidationError,
)
from defex.tokenizer import PAD, UNK, SubwordTokenizer

from helpers import encode_definition, pool_full_states, reference_fingerprint


class TestEncoderConfig:
    def test_defaults_valid(self):
        config = EncoderConfig()
        assert config.embedding_dim % config.n_heads == 0

    def test_heads_must_divide(self):
        with pytest.raises(ArgumentError):
            EncoderConfig(embedding_dim=30, n_heads=4)

    def test_positive_dims(self):
        with pytest.raises(ArgumentError):
            EncoderConfig(embedding_dim=0)
        with pytest.raises(ArgumentError):
            EncoderConfig(n_layers=0)


def sequence_states(model, side, words):
    """Sub-token states of one word sequence encoded alone, with its word ->
    sub-token span map."""
    ids, spans = model.tokenizer.encode_words(words)
    states, _, _ = model.encode_batch(side, [ids])
    return states[0], spans


class TestEncodeTokens:
    """Word sequences through the tokenizer into ``encode_pooled`` and
    ``mention_vector``."""

    def test_single_word(self, tiny_model):
        states, spans = sequence_states(tiny_model, CONTEXT, ["hello"])
        assert spans == [(0, states.shape[0] - 1)]
        pooled = tiny_model.mention_vector(["hello"], (0, 0)).values
        np.testing.assert_allclose(pooled, states.mean(axis=0), atol=1e-12)

    def test_deterministic(self, tiny_model):
        words = ["some", "words", "to", "encode"]
        one = tiny_model.mention_vector(words, (1, 2))
        two = tiny_model.mention_vector(words, (1, 2))
        np.testing.assert_array_equal(one.values, two.values)

    def test_three_subtoken_word(self, tiny_world):
        # a hand-built piece table forces a known 3-piece split
        corpus, _, _, _ = tiny_world
        chars = sorted({c for w in corpus.all_words() for c in w} | set("unhappiness"))
        tokenizer = SubwordTokenizer([PAD, UNK] + chars + ["un", "happi", "ness"])
        config = EncoderConfig(embedding_dim=32, n_layers=1, n_heads=4)
        model = DualEncoderModel.initialize(config, corpus, seed=0)
        model.tokenizer = tokenizer
        model.context_encoder.params["emb"] = np.random.default_rng(0).normal(
            0, 0.05, size=(len(tokenizer), 32)
        )
        states, spans = sequence_states(model, CONTEXT, ["unhappiness"])
        lo, hi = spans[0]
        assert hi - lo + 1 == 3
        pooled = model.mention_vector(["unhappiness"], (0, 0)).values
        np.testing.assert_allclose(pooled, states[lo : hi + 1].mean(axis=0), atol=1e-12)

    def test_empty_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            tiny_model.mention_vector([], (0, 0))
        with pytest.raises(ArgumentError):
            tiny_model.encode_pooled(CONTEXT, [[]])

    def test_over_length_hard_fails(self, tiny_world):
        corpus, _, _, _ = tiny_world
        config = EncoderConfig(embedding_dim=32, n_layers=1, n_heads=4, max_sequence_length=4)
        model = DualEncoderModel.initialize(config, corpus, seed=0)
        with pytest.raises(TruncationError):
            model.mention_vector(["a", "b", "c", "d", "e"], (0, 0))
        short = [1, 2]
        with pytest.raises(TruncationError):
            model.encode_pooled(CONTEXT, [short] * 3 + [[1] * 5])

    def test_unknown_side(self, tiny_model):
        with pytest.raises(ArgumentError):
            tiny_model.encode_pooled("both", [[1]])


def planted_model(model, states):
    """A copy of ``model`` whose encoders return ``states`` (n, dim) for a
    single sequence, or its rows at the asked-for query positions, so
    pooling can be checked on exact values."""
    planted = model.copy()
    states = np.asarray(states, dtype=np.float64)[None]

    def encode_batch(side, seqs, counter=None, keep_caches=False, positions=None):
        picked = states if positions is None else states[positions]
        return picked, np.ones(states.shape[:2]), None

    planted.encode_batch = encode_batch
    return planted


class TestPoolMention:
    """The pooling arithmetic of ``encode_pooled`` on planted states."""

    def pool(self, model, vectors, lo, hi):
        vectors = np.asarray(vectors, dtype=np.float64)
        n, width = vectors.shape
        states = np.zeros((n, model.config.embedding_dim))
        states[:, :width] = vectors
        pooled, _ = planted_model(model, states).encode_pooled(CONTEXT, [[1] * n], [(0, lo, hi)])
        return pooled[0, :width]

    def test_mean_of_two(self, tiny_model):
        pooled = self.pool(tiny_model, [[1.0, 0.0], [0.0, 1.0]], 0, 1)
        np.testing.assert_array_equal(pooled, [0.5, 0.5])

    def test_single_token_identity(self, tiny_model):
        pooled = self.pool(tiny_model, [[2.0, 3.0], [5.0, 7.0]], 1, 1)
        np.testing.assert_array_equal(pooled, [5.0, 7.0])

    def test_matches_summation_oracle(self, tiny_model):
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(3, tiny_model.config.embedding_dim))
        pooled = self.pool(tiny_model, vectors, 0, 2)
        oracle = np.zeros(vectors.shape[1])
        for row in vectors:
            oracle += row
        oracle /= 3.0
        np.testing.assert_allclose(pooled, oracle, atol=1e-12)

    def test_constant_vectors_preserved(self, tiny_model):
        # exact preservation is impossible in IEEE arithmetic for arbitrary
        # constants (0.1 * 3 / 3 != 0.1), so the bound is a few ulps
        rng = np.random.default_rng(9)
        for n in range(1, 8):
            v = rng.normal(size=tiny_model.config.embedding_dim)
            pooled = self.pool(tiny_model, np.tile(v, (n, 1)), 0, n - 1)
            np.testing.assert_allclose(pooled, v, rtol=1e-14, atol=0)

    def test_empty_span_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            self.pool(tiny_model, [[1.0, 2.0], [3.0, 4.0]], 1, 0)
        with pytest.raises(ArgumentError):
            tiny_model.mention_vector(["a", "b"], (1, 0))

    def test_out_of_bounds_span(self, tiny_model):
        with pytest.raises(ArgumentError):
            self.pool(tiny_model, [[1.0, 2.0]], 0, 5)
        with pytest.raises(ArgumentError):
            tiny_model.mention_vector(["a"], (0, 5))


class TestEncodePooled:
    def test_batches_match_sequences_alone(self, tiny_model, tiny_world):
        """Several ranges per row, rows of mixed lengths across more than
        one batch, all equal to each sequence encoded alone."""
        corpus, _, docs, _ = tiny_world
        sentences = [s for doc in docs for s in doc.sentences] + [i.sentence for i in corpus.instances]
        sentences = sentences[: ENCODE_BATCH_SIZE + 9]
        assert len(sentences) > ENCODE_BATCH_SIZE
        seqs = [tiny_model.tokenizer.encode_words(s)[0] for s in sentences]
        ranges = []
        for row, seq in enumerate(seqs):
            ranges += [(row, 0, len(seq) - 1), (row, len(seq) // 2, len(seq) - 1)]
        for side in (CONTEXT, DEFINITION):
            pooled, _ = tiny_model.encode_pooled(side, seqs, ranges)
            for k, (row, lo, hi) in enumerate(ranges):
                alone, _ = tiny_model.encode_pooled(side, [seqs[row]], [(0, lo, hi)])
                np.testing.assert_allclose(pooled[k], alone[0], atol=1e-12)

    def test_counts_encoded_rows(self, tiny_model):
        from defex.inference import CallCounter

        counter = CallCounter()
        seqs = [[2, 3, 4], [5], [6, 7]] * 30
        tiny_model.encode_pooled(DEFINITION, seqs, [(0, 0, 1), (0, 2, 2), (4, 0, 0)], counter=counter)
        assert counter.definition_encoder_calls == 2
        tiny_model.encode_pooled(CONTEXT, seqs, counter=counter)
        assert counter.context_encoder_calls == len(seqs)

    def test_backward_matches_finite_differences(self, tiny_model):
        """Gradients summed over batches and over ranges sharing a row."""
        model = tiny_model.copy()
        rng = np.random.default_rng(4)
        seqs = [list(rng.integers(2, len(model.tokenizer), size=int(rng.integers(1, 9))))
                for _ in range(ENCODE_BATCH_SIZE + 6)]
        ranges = [(row, 0, len(seq) - 1) for row, seq in enumerate(seqs)]
        ranges += [(3, 0, 0), (len(seqs) - 1, 0, 0)]
        for side, names in ((CONTEXT, ("ctx.emb", "ctx.b0.attn.wq")),
                            (DEFINITION, ("defn.b1.ffn.w1", "head.w1"))):
            weights = rng.normal(size=(len(ranges), model.config.embedding_dim))

            def objective():
                pooled, _ = model.encode_pooled(side, seqs, ranges)
                return float((weights * pooled).sum())

            _, backward = model.encode_pooled(side, seqs, ranges, keep_caches=True)
            grads = backward(weights)
            assert all(name.startswith(("ctx.", "defn.", "head.")) for name in grads)
            params = model.parameters()
            for name in names:
                flat = int(np.argmax(np.abs(grads[name])))
                original = params[name].flat[flat]
                with model.writable():
                    params[name].flat[flat] = original + 1e-5
                    plus = objective()
                    params[name].flat[flat] = original - 1e-5
                    minus = objective()
                    params[name].flat[flat] = original
                numeric = (plus - minus) / 2e-5
                assert grads[name].flat[flat] == pytest.approx(numeric, rel=1e-5)

    @staticmethod
    @st.composite
    def pooling_case(draw):
        """Sequences of uneven lengths (so padded) with 0-3 ranges per row:
        whole rows, overlapping ranges and rows nobody pools."""
        seqs, ranges = [], []
        for row, length in enumerate(draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))):
            seqs.append(draw(st.lists(st.integers(2, 200), min_size=length, max_size=length)))
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.booleans()):
                    ranges.append((row, 0, length - 1))
                else:
                    lo = draw(st.integers(0, length - 1))
                    ranges.append((row, lo, draw(st.integers(lo, length - 1))))
        if not ranges:
            ranges.append((len(seqs) - 1, 0, 0))
        return draw(st.sampled_from([CONTEXT, DEFINITION])), seqs, ranges

    @settings(max_examples=60, deadline=None)
    @given(case=pooling_case())
    def test_pooled_positions_match_full_states(self, tiny_model, case):
        side, seqs, ranges = case
        pooled, _ = tiny_model.encode_pooled(side, seqs, ranges)
        full, _ = pool_full_states(tiny_model, side, seqs, ranges)
        np.testing.assert_allclose(pooled, full, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(case=pooling_case(), seed=st.integers(0, 2**32 - 1))
    def test_pooled_positions_backward_matches_full_states(self, tiny_model, case, seed):
        side, seqs, ranges = case
        d_vectors = np.random.default_rng(seed).normal(
            size=(len(ranges), tiny_model.config.embedding_dim))
        _, backward = tiny_model.encode_pooled(side, seqs, ranges, keep_caches=True)
        _, full_backward = pool_full_states(tiny_model, side, seqs, ranges)
        grads, expected = backward(d_vectors), full_backward(d_vectors)
        assert grads.keys() == expected.keys()
        for name, g in expected.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-10, err_msg=name)

    def test_forward_only_has_no_backward(self, tiny_model):
        _, backward = tiny_model.encode_pooled(CONTEXT, [[2, 3]])
        assert backward is None
        _, _, cache = tiny_model.encode_batch(CONTEXT, [[2, 3]])
        assert cache is None


class TestEncodeDefinition:
    def test_deterministic(self, tiny_model):
        tokens = ["a", "sense", "definition"]
        one = encode_definition(tiny_model, tokens)
        two = encode_definition(tiny_model, tokens)
        np.testing.assert_array_equal(one, two)

    def test_identity_head_single_token(self, tiny_model):
        # without the head a definition pools the plain encoder states
        states, _ = sequence_states(tiny_model, DEFINITION, ["word"])
        ids, _ = tiny_model.tokenizer.encode_words(["word"])
        out, backward = tiny_model.encode_pooled(DEFINITION, [ids], keep_caches=True, head=False)
        np.testing.assert_allclose(out[0], states.mean(axis=0), atol=1e-12)
        assert not any(name.startswith("head.") for name in backward(np.ones_like(out)))

    def test_matches_per_token_oracle(self, tiny_model):
        tokens = ["four", "random", "definition", "tokens"]
        states, _ = sequence_states(tiny_model, DEFINITION, tokens)
        head = tiny_model.ffn_head.params
        total = np.zeros(states.shape[1])
        from scipy.special import erf

        for row in states:
            pre = row @ head["w1"] + head["b1"]
            act = 0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))
            total += act @ head["w2"] + head["b2"]
        oracle = total / states.shape[0]
        got = encode_definition(tiny_model, tokens)
        np.testing.assert_allclose(got, oracle, atol=1e-10)

    def test_empty_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            encode_definition(tiny_model, [])


class TestCosine:
    def test_self_similarity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=8)
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        u, v = rng.normal(size=8), rng.normal(size=8)
        assert cosine(3.0 * u, v) == pytest.approx(cosine(u, v), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine(np.zeros(4), np.ones(4))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        c = cosine(u, v)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        assert c == pytest.approx(cosine(v, u), abs=1e-12)
        alpha = float(rng.uniform(0.1, 10.0))
        assert c == pytest.approx(cosine(alpha * u, v), abs=1e-12)


class TestParameterDisjointness:
    def test_sides_do_not_interact(self, tiny_model):
        model = tiny_model.copy()
        words = ["shared", "words", "here"]
        ctx_before = sequence_states(model, CONTEXT, words)[0]
        def_before = sequence_states(model, DEFINITION, words)[0]
        with model.writable():
            for array in model.definition_encoder.params.values():
                array += 0.37
        np.testing.assert_array_equal(sequence_states(model, CONTEXT, words)[0], ctx_before)
        assert not np.allclose(sequence_states(model, DEFINITION, words)[0], def_before)

        model2 = tiny_model.copy()
        def_before2 = sequence_states(model2, DEFINITION, words)[0]
        with model2.writable():
            for array in model2.context_encoder.params.values():
                array += 0.37
        np.testing.assert_array_equal(sequence_states(model2, DEFINITION, words)[0], def_before2)

    def test_head_applies_only_to_definitions(self, tiny_model):
        model = tiny_model.copy()
        words = ["trigger", "here"]
        ctx_before = sequence_states(model, CONTEXT, words)[0]
        pooled_before = model.mention_vector(words, (0, 0)).values
        with model.writable():
            for array in model.ffn_head.params.values():
                array += 1.5
        np.testing.assert_array_equal(sequence_states(model, CONTEXT, words)[0], ctx_before)
        np.testing.assert_array_equal(model.mention_vector(words, (0, 0)).values, pooled_before)


class TestCheckpoint:
    def test_roundtrip(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        loaded = DualEncoderModel.load(path)
        assert loaded.fingerprint() == tiny_model.fingerprint()
        words = ["round", "trip", "check"]
        np.testing.assert_array_equal(
            sequence_states(loaded, CONTEXT, words)[0],
            sequence_states(tiny_model, CONTEXT, words)[0],
        )
        np.testing.assert_array_equal(
            encode_definition(loaded, words),
            encode_definition(tiny_model, words),
        )

    def test_roundtrip_after_warm_word_cache(self, tiny_model, tmp_path):
        model = tiny_model.copy()
        model.tokenizer = SubwordTokenizer(model.tokenizer.pieces)
        table = model.tokenizer.to_dict()
        words = ["Round", "trip", "round", "TRIP", "zq"]
        warm = model.tokenizer.encode_words(words)
        assert model.tokenizer.to_dict() == table
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = DualEncoderModel.load(path)
        assert loaded.tokenizer.to_dict() == table
        assert loaded.fingerprint() == model.fingerprint() == reference_fingerprint(model)
        assert loaded.tokenizer.encode_words(words) == warm

    def test_version_mismatch_rejected(self, tiny_model, tmp_path):
        import json

        path = tmp_path / "model.npz"
        tiny_model.save(path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        meta["format_version"] = 999
        data["meta"] = np.array(json.dumps(meta))
        np.savez(path, **data)
        with pytest.raises(ValidationError, match="version"):
            DualEncoderModel.load(path)

    def test_missing_checkpoint(self, tmp_path):
        from defex.errors import InputNotFoundError

        with pytest.raises(InputNotFoundError):
            DualEncoderModel.load(tmp_path / "none.npz")

    def test_fingerprint_tracks_parameters(self, tiny_model):
        model = tiny_model.copy()
        before = model.fingerprint()
        with model.writable():
            model.context_encoder.params["emb"][0, 0] += 1e-9
        assert model.fingerprint() != before


def float_from_bits(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


PARAM_NAMES = ("ctx.emb", "ctx.b0.attn.wq", "ctx.out_ln.b", "defn.b1.ffn.w2", "head.b1",
               "head.w2")


def param_array(model, name):
    owner, key = name.split(".", 1)
    table = {"ctx": model.context_encoder, "defn": model.definition_encoder,
             "head": model.ffn_head}[owner].params
    return table, key


class TestFingerprintCache:
    """``fingerprint`` reuses its digest only while every hashed byte is
    unchanged; each digest equals the from-scratch reference."""

    def assert_changed(self, model, before):
        after = model.fingerprint()
        assert after == reference_fingerprint(model)
        assert after != before
        return after

    def test_signed_zero_is_a_change(self, tiny_model):
        model = tiny_model.copy()
        table, key = param_array(model, "ctx.b0.attn.wq")
        with model.writable():
            table[key][1, 2] = 0.0
        before = model.fingerprint()
        with model.writable():
            table[key][1, 2] = -0.0
        self.assert_changed(model, before)

    def test_nan_payload_is_a_change(self, tiny_model):
        model = tiny_model.copy()
        table, key = param_array(model, "head.b1")
        with model.writable():
            table[key][0] = float_from_bits(0x7FF8000000000001)
        before = model.fingerprint()
        with model.writable():
            table[key][0] = float_from_bits(0x7FF8000000000002)
        assert np.isnan(table[key][0])
        self.assert_changed(model, before)

    def test_replaced_by_equal_copy_keeps_digest(self, tiny_model):
        model = tiny_model.copy()
        before = model.fingerprint()
        table, key = param_array(model, "ctx.emb")
        table[key] = np.asfortranarray(table[key].copy())
        assert model.fingerprint() == before == reference_fingerprint(model)

    def test_dtype_change(self, tiny_model):
        model = tiny_model.copy()
        before = model.fingerprint()
        table, key = param_array(model, "defn.b1.ffn.w2")
        table[key] = table[key].astype(np.float32)
        self.assert_changed(model, before)

    def test_shape_change(self, tiny_model):
        model = tiny_model.copy()
        before = model.fingerprint()
        table, key = param_array(model, "ctx.emb")
        table[key] = table[key][:-1]
        self.assert_changed(model, before)
        # the same bytes in another shape hash as before, recomputed
        table[key] = table[key].reshape(-1)
        assert model.fingerprint() == reference_fingerprint(model)

    def test_other_tokenizer(self, tiny_model):
        model = tiny_model.copy()
        before = model.fingerprint()
        model.tokenizer = SubwordTokenizer([PAD, UNK, "a", "b"])
        self.assert_changed(model, before)

    def test_unchanged_model_is_not_rehashed(self, tiny_model, monkeypatch):
        import defex.encoder as encoder_module

        model = tiny_model.copy()
        first = model.fingerprint()

        def fail(*args, **kwargs):
            raise AssertionError("sha256 called for an unchanged model")

        monkeypatch.setattr(encoder_module.hashlib, "sha256", fail)
        assert model.fingerprint() == first

    def test_unchanged_model_is_not_reserialized(self, tiny_model, monkeypatch):
        import defex.encoder as encoder_module

        model = tiny_model.copy()
        first = model.fingerprint()

        def fail(*args, **kwargs):
            raise AssertionError("json.dumps called for an unchanged model")

        monkeypatch.setattr(encoder_module.json, "dumps", fail)
        assert model.fingerprint() == first

    def test_copy_mutation_leaves_original(self, tiny_model):
        model = tiny_model.copy()
        original = model.fingerprint()
        twin = model.copy()
        assert twin.fingerprint() == original
        table, key = param_array(twin, "ctx.emb")
        with twin.writable():
            table[key][0, 0] += 1.0
        assert twin.fingerprint() != original
        assert model.fingerprint() == original == reference_fingerprint(model)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(PARAM_NAMES), st.integers(0, 2**31 - 1),
                  st.one_of(st.integers(0, 2**64 - 1),
                            st.sampled_from([0x0, 0x8000000000000000, 0x7FF8000000000000,
                                             0x7FF0000000000001, 0xFFF8000000000000]))),
        min_size=1, max_size=6,
    ))
    def test_in_place_writes(self, tiny_model, writes):
        model = tiny_model.copy()
        digest = model.fingerprint()
        for name, position, bits in writes:
            table, key = param_array(model, name)
            with model.writable():
                flat = table[key].reshape(-1)
                position %= flat.size
                old_bytes = flat[position].tobytes()
                flat[position] = float_from_bits(bits)
            changed = flat[position].tobytes() != old_bytes
            new = model.fingerprint()
            assert new == reference_fingerprint(model)
            assert (new != digest) == changed
            digest = new

    @staticmethod
    def count_hashing(monkeypatch):
        import defex.encoder as encoder_module

        calls = []
        original = encoder_module.hashlib.sha256

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(encoder_module.hashlib, "sha256", counted)
        return calls

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_flagged_writable_is_rehashed(self, tiny_model, monkeypatch, name):
        """An array flagged writable may have been written, whatever its
        bytes now hold, so it is hashed again and frozen."""
        model = tiny_model.copy()
        before = model.fingerprint()
        table, key = param_array(model, name)
        table[key].setflags(write=True)
        calls = self.count_hashing(monkeypatch)
        assert model.fingerprint() == before
        assert len(calls) == 1
        monkeypatch.undo()
        assert before == reference_fingerprint(model)
        assert not table[key].flags.writeable

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_replaced_writable_array_is_rehashed(self, tiny_model, monkeypatch, name):
        model = tiny_model.copy()
        before = model.fingerprint()
        table, key = param_array(model, name)
        table[key] = table[key].copy()
        assert table[key].flags.writeable
        calls = self.count_hashing(monkeypatch)
        assert model.fingerprint() == before
        assert len(calls) == 1
        monkeypatch.undo()
        assert before == reference_fingerprint(model)
        assert not table[key].flags.writeable

    def test_cached_call_reads_no_parameter_bytes(self):
        """A cached fingerprint allocates nothing near a parameter's size:
        it neither copies nor compares tensor bytes."""
        import tracemalloc

        corpus = generate_synthetic_corpus(SyntheticSpec(), 1)[0]
        model = DualEncoderModel.initialize(EncoderConfig(), corpus, 7)
        digest = model.fingerprint()
        tracemalloc.start()
        try:
            assert model.fingerprint() == digest
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def trained_for_one_epoch(model):
    from defex.training import TrainConfig, pretrain

    corpus = generate_synthetic_corpus(
        SyntheticSpec(n_types=4, mentions_per_type=4, instances_per_definition=4,
                      n_distractor_definitions=2, neighbors_per_type=1), seed=5)[0]
    return pretrain(model, corpus, TrainConfig(epochs=1, batch_size=8))[0]


def loaded(model, tmp_path):
    model.save(tmp_path / "model.npz")
    return DualEncoderModel.load(tmp_path / "model.npz")


class TestReadOnlyParameters:
    """Parameters can be written only inside ``writable()``."""

    @pytest.mark.parametrize("make", [
        lambda model, tmp_path: DualEncoderModel.initialize(model.config, ["some", "words"], 1),
        lambda model, tmp_path: model.copy(),
        loaded,
        lambda model, tmp_path: trained_for_one_epoch(model.copy()),
    ], ids=["initialize", "copy", "load", "pretrain"])
    def test_read_only_after(self, tiny_model, tmp_path, make):
        model = make(tiny_model, tmp_path)
        for name, array in model.parameters().items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    def test_writable_block(self, tiny_model):
        model = tiny_model.copy()
        before = model.fingerprint()
        with model.writable():
            assert all(a.flags.writeable for a in model.parameters().values())
            model.ffn_head.params["b2"][0] += 1.0
        assert not any(a.flags.writeable for a in model.parameters().values())
        assert model.fingerprint() == reference_fingerprint(model) != before

    def test_frozen_again_after_an_error(self, tiny_model):
        model = tiny_model.copy()
        with pytest.raises(RuntimeError), model.writable():
            raise RuntimeError("inside the block")
        assert not any(a.flags.writeable for a in model.parameters().values())

    def test_loaded_checkpoint_trains(self, tiny_model, tmp_path):
        model = loaded(tiny_model, tmp_path)
        before = model.fingerprint()
        trained_for_one_epoch(model)
        assert model.fingerprint() == reference_fingerprint(model) != before


@pytest.mark.parametrize("config, digest", [
    (EncoderConfig(), "bdf62c6999f298ac1a8569efe38269c714f7ab8732b207fdaf73a97dfad717d0"),
    (EncoderConfig(tokenizer="identity", embedding_dim=16, n_layers=1, n_heads=2),
     "0299f903f1ec12edeac63ee4051e7db6db81b574a8e705804e5ca8a4e9d3d96b"),
], ids=["default", "identity-tokenizer"])
def test_pinned_fingerprint(config, digest):
    # the header's bytes, head kind included, are part of every manifest's
    # checkpoint_fingerprint
    corpus = generate_synthetic_corpus(SyntheticSpec(), 1)[0]
    model = DualEncoderModel.initialize(config, corpus, 7)
    assert model.fingerprint() == reference_fingerprint(model) == digest


class TestCheckpointValidation:
    """Every malformed checkpoint fails on load with a DefexError subclass."""

    @pytest.fixture()
    def saved(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        return path

    def test_missing_parameter(self, saved, rewrite_archive):
        rewrite_archive(saved, lambda data: data.pop("param/ctx.b0.attn.wq"))
        with pytest.raises(ValidationError, match=r"missing \['param/ctx.b0.attn.wq'\]"):
            DualEncoderModel.load(saved)

    def test_unexpected_parameter(self, saved, rewrite_archive):
        rewrite_archive(saved, lambda data: data.update({"param/ctx.extra": np.ones(3)}))
        with pytest.raises(ValidationError, match=r"unexpected \['param/ctx.extra'\]"):
            DualEncoderModel.load(saved)

    def test_misshapen_parameter(self, saved, rewrite_archive):
        rewrite_archive(saved, lambda data: data.update(
            {"param/ctx.emb": data["param/ctx.emb"][:, :-1]}))
        with pytest.raises(ValidationError, match="ctx.emb"):
            DualEncoderModel.load(saved)

    def test_non_float_parameter(self, saved, rewrite_archive):
        rewrite_archive(saved, lambda data: data.update(
            {"param/head.b1": data["param/head.b1"].astype(np.int64)}))
        with pytest.raises(ValidationError, match="head.b1"):
            DualEncoderModel.load(saved)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter(self, saved, value, rewrite_archive):
        def poison(data):
            data["param/defn.b0.ffn.w1"][3, 1] = value

        rewrite_archive(saved, poison)
        with pytest.raises(NumericalError, match="defn.b0.ffn.w1"):
            DualEncoderModel.load(saved)

    def test_index_is_not_a_checkpoint(self, tmp_path):
        # a foreign archive in the checkpoint format: JSON meta, no config
        path = tmp_path / "index.npz"
        meta = {"format_version": 1, "fingerprint": "0" * 64, "types": []}
        np.savez(path, meta=np.array(json.dumps(meta)), vectors=np.ones((2, 4)))
        with pytest.raises(ValidationError, match="not a model checkpoint"):
            DualEncoderModel.load(path)

    @pytest.mark.parametrize("content", [b"", b"not an archive\n", b"PK\x03\x04broken"])
    def test_not_an_npz_file(self, tmp_path, content):
        path = tmp_path / "model.npz"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            DualEncoderModel.load(path)

    @pytest.mark.parametrize("signature, offset, value", [
        # central directory offset past the end: members seek before the file
        (b"PK\x05\x06", 16, (1 << 24).to_bytes(4, "little")),
        (b"PK\x01\x02", 8, (0x40).to_bytes(2, "little")),  # a member claims strong encryption
    ], ids=["directory-offset", "encryption-flag"])
    def test_garbled_zip_header(self, saved, signature, offset, value):
        content = bytearray(saved.read_bytes())
        at = content.rfind(signature) + offset
        content[at:at + len(value)] = value
        saved.write_bytes(bytes(content))
        with pytest.raises(ParseError):
            DualEncoderModel.load(saved)

    def test_npy_file(self, tmp_path):
        path = tmp_path / "model.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ParseError):
            DualEncoderModel.load(path)

    @pytest.mark.parametrize("meta", ["{not json", "[1, 2]"])
    def test_meta_not_a_json_object(self, saved, meta, rewrite_archive):
        rewrite_archive(saved, lambda data: data.update({"meta": np.array(meta)}))
        with pytest.raises(ParseError, match="meta"):
            DualEncoderModel.load(saved)

    @pytest.mark.parametrize("change", [
        lambda meta: meta["config"].update(embedding_dim="wide"),
        lambda meta: meta["config"].update(unknown_knob=1),
        lambda meta: meta["config"].update(n_heads=3),
        lambda meta: meta.update(tokenizer={"kind": "subword"}),
        lambda meta: meta.update(tokenizer=["pieces"]),
        lambda meta: meta.update(head_kind="three_layer"),
        lambda meta: meta.update(head_kind="identity"),
    ], ids=["dim-type", "unknown-key", "heads", "no-pieces", "tokenizer-list", "head-kind",
            "identity-head"])
    def test_malformed_meta(self, saved, change, rewrite_archive):
        def edit(data):
            meta = json.loads(str(data["meta"]))
            change(meta)
            data["meta"] = np.array(json.dumps(meta))

        rewrite_archive(saved, edit)
        with pytest.raises(ValidationError):
            DualEncoderModel.load(saved)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file(self, tiny_model, tmp_path_factory, share):
        path = tmp_path_factory.mktemp("truncated") / "model.npz"
        tiny_model.save(path)
        content = path.read_bytes()
        path.write_bytes(content[: int(share * len(content))])
        with pytest.raises(ParseError):
            DualEncoderModel.load(path)
