import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defex.encoder import (
    CONTEXT,
    DEFINITION,
    ENCODE_BATCH_SIZE,
    DualEncoderModel,
    EncoderConfig,
    IdentityHead,
    cosine,
)
from defex.errors import ArgumentError, DegenerateVectorError, TruncationError, ValidationError
from defex.tokenizer import PAD, UNK, SubwordTokenizer


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
    single sequence, so pooling can be checked on exact values."""
    planted = model.copy()
    states = np.asarray(states, dtype=np.float64)[None]
    planted.encode_batch = lambda side, seqs, *args: (states, np.ones(states.shape[:2]), None)
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
                params[name].flat[flat] = original + 1e-5
                plus = objective()
                params[name].flat[flat] = original - 1e-5
                minus = objective()
                params[name].flat[flat] = original
                numeric = (plus - minus) / 2e-5
                assert grads[name].flat[flat] == pytest.approx(numeric, rel=1e-5)

    def test_forward_only_has_no_backward(self, tiny_model):
        _, backward = tiny_model.encode_pooled(CONTEXT, [[2, 3]])
        assert backward is None
        _, _, cache = tiny_model.encode_batch(CONTEXT, [[2, 3]])
        assert cache is None


class TestEncodeDefinition:
    def test_deterministic(self, tiny_model):
        tokens = ["a", "sense", "definition"]
        one = tiny_model.encode_definition(tokens)
        two = tiny_model.encode_definition(tokens)
        np.testing.assert_array_equal(one.values, two.values)

    def test_identity_head_single_token(self, tiny_model):
        model = tiny_model.copy()
        model.ffn_head = IdentityHead()
        states, _ = sequence_states(model, DEFINITION, ["word"])
        out = model.encode_definition(["word"])
        np.testing.assert_allclose(out.values, states.mean(axis=0), atol=1e-12)

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
        got = tiny_model.encode_definition(tokens)
        np.testing.assert_allclose(got.values, oracle, atol=1e-10)

    def test_empty_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            tiny_model.encode_definition([])


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
        for array in model.definition_encoder.params.values():
            array += 0.37
        np.testing.assert_array_equal(sequence_states(model, CONTEXT, words)[0], ctx_before)
        assert not np.allclose(sequence_states(model, DEFINITION, words)[0], def_before)

        model2 = tiny_model.copy()
        def_before2 = sequence_states(model2, DEFINITION, words)[0]
        for array in model2.context_encoder.params.values():
            array += 0.37
        np.testing.assert_array_equal(sequence_states(model2, DEFINITION, words)[0], def_before2)

    def test_head_applies_only_to_definitions(self, tiny_model):
        model = tiny_model.copy()
        words = ["trigger", "here"]
        ctx_before = sequence_states(model, CONTEXT, words)[0]
        pooled_before = model.mention_vector(words, (0, 0)).values
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
            loaded.encode_definition(words).values,
            tiny_model.encode_definition(words).values,
        )

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
        model.context_encoder.params["emb"][0, 0] += 1e-9
        assert model.fingerprint() != before
