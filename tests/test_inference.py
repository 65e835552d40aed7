import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defex.corpus import Document, EventOntology
from defex.encoder import CONTEXT, DEFINITION, ENCODE_BATCH_SIZE, DualEncoderModel, cosine, load_archive
from defex.errors import (
    ArgumentError,
    DegenerateVectorError,
    FingerprintError,
    NumericalError,
    ParseError,
    ValidationError,
)
from defex import inference, nn
from defex.inference import (
    CallCounter,
    DefinitionIndex,
    InferenceConfig,
    build_definition_index,
    counter_report,
    extract,
    score_candidates,
    score_mention,
    threshold_sweep,
)
from defex.tokenizer import SubwordTokenizer

from helpers import encode_definition, reference_fingerprint


class TestInferenceConfig:
    def test_default(self):
        assert InferenceConfig().threshold == 0.7

    @pytest.mark.parametrize("t", [-1.0, 1.0, 1.5])
    def test_threshold_bounds(self, t):
        with pytest.raises(ArgumentError):
            InferenceConfig(threshold=t)


class TestCallCounter:
    def test_records(self):
        counter = CallCounter()
        counter.record(CONTEXT, 3)
        counter.record(DEFINITION)
        assert counter.context_encoder_calls == 3
        assert counter.definition_encoder_calls == 1

    def test_unknown_side(self):
        with pytest.raises(ArgumentError):
            CallCounter().record("middle")


class TestBuildIndex:
    def test_empty_ontology(self, tiny_model):
        with pytest.raises(ArgumentError):
            build_definition_index(tiny_model, EventOntology(()))

    def test_singleton(self, tiny_model, tiny_world):
        _, ontology, _, _ = tiny_world
        single = EventOntology(ontology.types[:1])
        counter = CallCounter()
        index = build_definition_index(tiny_model, single, counter=counter)
        assert index.vectors.shape[0] == 1
        assert counter.definition_encoder_calls == 1

    def test_rebuild_identical(self, tiny_model, tiny_world):
        _, ontology, _, _ = tiny_world
        one = build_definition_index(tiny_model, ontology)
        two = build_definition_index(tiny_model, ontology)
        np.testing.assert_array_equal(one.vectors, two.vectors)

    def test_one_call_per_type_at_scale(self, tiny_model):
        # the reference corpus size for this check: 168 target types
        types = tuple((f"t{i:03d}", (f"qq{i:03d}", "sense")) for i in range(168))
        ontology = EventOntology(types)
        counter = CallCounter()
        build_definition_index(tiny_model, ontology, counter=counter)
        assert counter.definition_encoder_calls == 168

    def test_vector_count_validated(self, tiny_world, tiny_model):
        _, ontology, _, _ = tiny_world
        with pytest.raises(ValidationError):
            DefinitionIndex(ontology, np.ones((1, 8)), "fp")


class TestIndexValidation:
    """``load_archive`` fails with ParseError on any meta-plus-arrays
    ``.npz`` it cannot read, not only on checkpoints."""

    @pytest.fixture()
    def saved(self, tmp_path):
        path = tmp_path / "index.npz"
        np.savez(path, meta=np.array(json.dumps({"kind": "index"})), vectors=np.ones((3, 4)))
        return path

    def test_round_trip(self, saved):
        meta, arrays = load_archive(saved, "archive")
        assert meta == {"kind": "index"}
        assert list(arrays) == ["vectors"]
        np.testing.assert_array_equal(arrays["vectors"], np.ones((3, 4)))

    @pytest.mark.parametrize("content", [b"", b"vectors: 1 2 3\n"])
    def test_not_an_npz_file(self, tmp_path, content):
        path = tmp_path / "index.npz"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            load_archive(path, "archive")

    def test_meta_not_json(self, saved, rewrite_archive):
        rewrite_archive(saved, lambda data: data.update({"meta": np.array("{types")}))
        with pytest.raises(ParseError, match="meta"):
            load_archive(saved, "archive")

    def test_truncated_file(self, saved):
        content = saved.read_bytes()
        for size in (0, 10, len(content) // 2, len(content) - 1):
            saved.write_bytes(content[:size])
            with pytest.raises(ParseError):
                load_archive(saved, "archive")


class TestScoreMention:
    def test_planted_self_match(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        sentence = docs[0].sentences[0]
        span = (docs[0].candidates[0][1], docs[0].candidates[0][2])
        mention = tiny_model.mention_vector(sentence, span).values
        planted_vectors = index.vectors.copy()
        planted_vectors[2] = mention
        planted = DefinitionIndex(index.ontology, planted_vectors, index.fingerprint)
        scores = dict(score_mention(tiny_model, planted, sentence, span))
        assert scores[ontology.names[2]] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_planted_vector(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        sentence = docs[0].sentences[0]
        span = (docs[0].candidates[0][1], docs[0].candidates[0][2])
        mention = tiny_model.mention_vector(sentence, span).values
        v = np.zeros_like(mention)
        v[0], v[1] = mention[1], -mention[0]
        planted_vectors = index.vectors.copy()
        planted_vectors[0] = v
        planted = DefinitionIndex(index.ontology, planted_vectors, index.fingerprint)
        scores = dict(score_mention(tiny_model, planted, sentence, span))
        assert scores[ontology.names[0]] == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_type_cosine_oracle(self, tiny_model, tiny_world):
        from defex.encoder import cosine

        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        sentence = docs[1].sentences[0]
        span = (docs[1].candidates[0][1], docs[1].candidates[0][2])
        scores = score_mention(tiny_model, index, sentence, span)
        mention = tiny_model.mention_vector(sentence, span).values
        for (name, got), (expected_name, definition) in zip(scores, ontology.types):
            assert name == expected_name
            want = cosine(mention, encode_definition(tiny_model, definition))
            assert got == pytest.approx(want, abs=1e-12)

    def test_stale_index_rejected(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        model = tiny_model.copy()
        index = build_definition_index(model, ontology)
        with model.writable():
            model.params["ctx.emb"][0, 0] += 1.0
        with pytest.raises(FingerprintError):
            score_mention(model, index, docs[0].sentences[0], (0, 0))

    @pytest.mark.parametrize("prefix", ["ctx.", "defn.", "head."],
                             ids=["context_encoder", "definition_encoder", "ffn_head"])
    def test_write_inside_writable_is_stale(self, tiny_model, tiny_world, prefix):
        """A write through the sanctioned path fails the freshness check,
        also once a call has kept the fingerprint."""
        _, ontology, docs, _ = tiny_world
        model = tiny_model.copy()
        index = build_definition_index(model, ontology)
        sentence = docs[0].sentences[0]
        score_mention(model, index, sentence, (0, 0))
        with model.writable():
            name = next(name for name in model.params if name.startswith(prefix))
            model.params[name].flat[-1] += 1e-12
        with pytest.raises(FingerprintError):
            score_mention(model, index, sentence, (0, 0))

    def test_context_calls_counted_per_sentence(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        counter = CallCounter()
        score_mention(tiny_model, index, docs[0].sentences[0], (0, 0), counter=counter)
        assert counter.context_encoder_calls == 1
        assert counter.definition_encoder_calls == 0


def replace_tokenizer(model):
    model.tokenizer = SubwordTokenizer(model.tokenizer.pieces + ("zzzz",))


def replace_pieces(model):
    model.tokenizer.pieces = model.tokenizer.pieces + ("zzzz",)


def replace_config(model):  # an equal config that serializes differently: 0.0 == -0.0
    model.config = dataclasses.replace(model.config, position_scale=-0.0)


def write_head_w2(model):
    with model.writable():
        model.params["head.w2"][0, 0] += 1.0


class TestFreshnessAfterWarmCache:
    """Once a ``score_mention`` call has warmed the fingerprint and word
    caches, every change to a hashed object still fails the freshness
    check, and the check runs on every call."""

    @pytest.fixture()
    def scored(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        model = tiny_model.copy()
        model.config = dataclasses.replace(model.config, position_scale=0.0)
        model.tokenizer = SubwordTokenizer(model.tokenizer.pieces)
        index = build_definition_index(model, ontology)
        sentence = docs[0].sentences[0]
        span = (docs[0].candidates[0][1], docs[0].candidates[0][2])
        score_mention(model, index, sentence, span)
        return model, index, sentence, span

    @pytest.mark.parametrize("change", [replace_tokenizer, replace_pieces, replace_config,
                                        write_head_w2])
    def test_change_is_stale(self, scored, change):
        model, index, sentence, span = scored
        change(model)
        assert model.fingerprint() == reference_fingerprint(model) != index.fingerprint
        with pytest.raises(FingerprintError):
            score_mention(model, index, sentence, span)

    def test_fingerprint_checked_once_per_call(self, scored, monkeypatch):
        model, index, sentence, span = scored
        calls = []
        original = DualEncoderModel.fingerprint

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(DualEncoderModel, "fingerprint", counted)
        for n in range(1, 4):
            score_mention(model, index, sentence, span)
            assert calls == [model] * n


class TestExtract:
    def test_high_threshold_empty(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        preds, _ = extract(tiny_model, index, docs, InferenceConfig(threshold=0.999))
        all_scores = []
        for doc in docs:
            for sent_idx, start, end in doc.candidates:
                best = max(s for _, s in score_mention(tiny_model, index, doc.sentences[sent_idx], (start, end)))
                all_scores.append(best)
        if max(all_scores) <= 0.999:
            assert len(preds) == 0

    def test_boundary_equality_excluded(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        doc = docs[0]
        # the threshold step compares the score step's own scores; a batched
        # score may differ from score_mention's in the last bits
        keys, scores = score_candidates(tiny_model, index, (doc,))
        key = keys[0]
        best = float(scores[0].max())
        if not (-1.0 < best < 1.0):
            pytest.skip("degenerate best score")
        preds, _ = extract(tiny_model, index, (doc,), InferenceConfig(threshold=best))
        assert key not in preds.keys()

    def test_counter_invariants(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        counter = CallCounter()
        index = build_definition_index(tiny_model, ontology, counter=counter)
        preds, counter = extract(tiny_model, index, docs, InferenceConfig(), counter=counter)
        assert counter.definition_encoder_calls == len(ontology)
        sentences_with_candidates = sum(
            len({c[0] for c in doc.candidates}) for doc in docs
        )
        assert counter.context_encoder_calls == sentences_with_candidates

    def test_argmax_tie_prefers_smallest_index(self, tiny_model, tiny_world):
        corpus, ontology, docs, _ = tiny_world
        # two types with identical definitions produce identical vectors
        name0, definition = ontology.types[0]
        doubled = EventOntology((("aaa_first", definition), ("zzz_clone", definition)) + ontology.types[1:])
        index = build_definition_index(tiny_model, doubled)
        np.testing.assert_array_equal(index.vectors[0], index.vectors[1])
        preds, _ = extract(tiny_model, index, docs, InferenceConfig(threshold=-0.999))
        assert len(preds) > 0
        assert all(r.type_name != "zzz_clone" for r in preds.records)

    def test_every_prediction_exceeds_threshold_and_is_max(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        config = InferenceConfig(threshold=0.1)
        preds, _ = extract(tiny_model, index, docs, config)
        docmap = {d.doc_id: d for d in docs}
        for record in preds.records:
            scores = score_mention(
                tiny_model, index,
                docmap[record.doc_id].sentences[record.sentence_idx],
                (record.start, record.end),
            )
            best_name, best_score = max(scores, key=lambda pair: pair[1])
            assert record.score > config.threshold
            assert record.score == pytest.approx(best_score, abs=1e-12)
            assert record.score == pytest.approx(dict(scores)[record.type_name], abs=1e-12)

    def test_deterministic(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        one, _ = extract(tiny_model, index, docs, InferenceConfig(threshold=0.2))
        two, _ = extract(tiny_model, index, docs, InferenceConfig(threshold=0.2))
        assert one == two

    def test_threshold_sweep_nested(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        thresholds = [0.1, 0.3, 0.5, 0.7, 0.9]
        sweep = threshold_sweep(tiny_model, index, docs, thresholds)
        for low, high in zip(thresholds, thresholds[1:]):
            assert sweep[high].typed_keys() <= sweep[low].typed_keys()


def reference_extract(model, ontology, documents, threshold):
    """Per-candidate extraction: one ``mention_vector`` per candidate and
    ``cosine`` against each ``helpers.encode_definition``."""
    definitions = [encode_definition(model, d) for _, d in ontology.types]
    records = []
    for doc in documents:
        for sent_idx in sorted({c[0] for c in doc.candidates}):
            for s, start, end in doc.candidates:
                if s != sent_idx:
                    continue
                mention = model.mention_vector(doc.sentences[s], (start, end)).values
                sims = [cosine(mention, d) for d in definitions]
                best = int(np.argmax(sims))
                if sims[best] > threshold:
                    records.append((doc.doc_id, s, start, end, ontology.names[best], sims[best]))
    return sorted(records)  # a PredictionSet keeps its records sorted


def relabelled(docs, picks):
    """The picked documents in the picked order, each copy under its own id."""
    return tuple(
        Document(f"{docs[i].doc_id}#{n}", docs[i].sentences, docs[i].candidates)
        for n, i in enumerate(picks)
    )


def count_context_sequences(monkeypatch, model):
    seen = []
    original = model.encode_batch

    def spy(side, id_sequences, *args):
        if side == CONTEXT:
            seen.append(len(id_sequences))
        return original(side, id_sequences, *args)

    monkeypatch.setattr(model, "encode_batch", spy)
    return seen


class TestBatchedExtraction:
    # tiny_world has 6 documents of 5 candidate sentences each; 18 picks
    # make 90 sentences, more than one encoder batch
    @settings(max_examples=12, deadline=None)
    @given(picks=st.lists(st.integers(0, 5), min_size=1, max_size=24),
           threshold=st.sampled_from([-0.5, 0.0, 0.2, 0.5]))
    @example(picks=[5, 0, 3, 1, 4, 2] * 3, threshold=0.0)
    def test_matches_per_candidate_reference(self, tiny_model, tiny_world, picks, threshold):
        _, ontology, docs, _ = tiny_world
        assert len(docs) == 6
        documents = relabelled(docs, picks)
        index = build_definition_index(tiny_model, ontology)
        preds, _ = extract(tiny_model, index, documents, InferenceConfig(threshold=threshold))
        want = reference_extract(tiny_model, ontology, documents, threshold)
        got = [(r.doc_id, r.sentence_idx, r.start, r.end, r.type_name, r.score) for r in preds.records]
        assert [g[:5] for g in got] == [w[:5] for w in want]
        for g, w in zip(got, want):
            assert abs(g[5] - w[5]) <= 1e-9

    def test_sweep_scores_once(self, tiny_model, tiny_world, monkeypatch):
        _, ontology, docs, _ = tiny_world
        documents = relabelled(docs, list(range(len(docs))) * 3)
        sentences = sum(len({c[0] for c in doc.candidates}) for doc in documents)
        index = build_definition_index(tiny_model, ontology)
        thresholds = [-0.5, 0.0, 0.3, 0.6]
        separate = {t: extract(tiny_model, index, documents, InferenceConfig(threshold=t))[0]
                    for t in thresholds}
        seen = count_context_sequences(monkeypatch, tiny_model)
        sweep = threshold_sweep(tiny_model, index, documents, thresholds)
        assert sweep == separate
        assert sum(seen) == sentences

    def test_score_blocks_match_one_block(self, tiny_model, tiny_world, monkeypatch):
        _, ontology, docs, _ = tiny_world
        documents = relabelled(docs, list(range(len(docs))) * 5)
        index = build_definition_index(tiny_model, ontology)
        keys, scores = score_candidates(tiny_model, index, documents)
        monkeypatch.setattr(inference, "SCORE_BLOCK", ENCODE_BATCH_SIZE)
        seen = count_context_sequences(monkeypatch, tiny_model)
        block_keys, block_scores = score_candidates(tiny_model, index, documents)
        assert len(seen) > 1 and sum(seen) == 150
        assert block_keys == keys
        assert block_scores.tobytes() == scores.tobytes()

    def test_last_block_computes_pooled_positions_only(self, tiny_model, tiny_world, monkeypatch):
        """A guard on the saving: the final encoder block of a long sentence
        computes only the positions its candidates pool."""
        _, ontology, docs, _ = tiny_world
        index = build_definition_index(tiny_model, ontology)
        words = docs[0].sentences[0] + docs[1].sentences[0]
        doc = Document("long", (words,), ((0, 1, 2), (0, len(words) - 2, len(words) - 2)))
        widths = []
        original = nn.block_forward

        def recording(x, *args, **kwargs):
            out, cache = original(x, *args, **kwargs)
            widths.append((x.shape[1], out.shape[1]))
            return out, cache

        monkeypatch.setattr(nn, "block_forward", recording)
        keys, _ = score_candidates(tiny_model, index, (doc,))
        assert len(keys) == 2
        assert len(widths) == tiny_model.config.n_layers
        *inner, (length, queries) = widths
        assert all(out == full == length for full, out in inner)
        assert length >= len(words) > 10 and queries < length / 2

    def test_non_finite_score_raises(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        model = tiny_model.copy()
        with model.writable():
            model.params["ctx.b0.attn.wq"][0, 0] = np.nan
        index = build_definition_index(model, ontology)
        sentence = docs[0].sentences[docs[0].candidates[0][0]]
        with pytest.raises(NumericalError):
            extract(model, index, docs, InferenceConfig(threshold=-0.99))
        with pytest.raises(NumericalError):
            score_mention(model, index, sentence, docs[0].candidates[0][1:])
        with pytest.raises(NumericalError):
            threshold_sweep(model, index, docs, [-0.99, 0.5])


class TestJointSimulation:
    """The joint-vs-disjoint call arithmetic that ``counter_report`` states."""

    @staticmethod
    def report(n_candidates, n_types):
        return counter_report(CallCounter(), n_candidates=n_candidates, n_types=n_types)

    def test_degenerate_boundary(self):
        report = self.report(1, 1)
        assert report["joint_pair_count"] == 1
        assert report["disjoint_call_count"] == 2
        assert report["invocation_ratio"] == pytest.approx(0.5)

    def test_reference_scale(self):
        report = self.report(1000, 168)
        assert report["joint_pair_count"] == 168_000
        assert report["disjoint_call_count"] == 1168
        assert report["invocation_ratio"] == pytest.approx(168000 / 1168)

    def test_ratio_monotone_in_types(self):
        ratios = [self.report(10, t)["invocation_ratio"] for t in range(1, 30)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_invalid(self):
        with pytest.raises(ArgumentError):
            self.report(0, 5)
        with pytest.raises(ArgumentError):
            self.report(5, 0)

    def test_counter_report(self):
        counter = CallCounter(context_encoder_calls=120, definition_encoder_calls=7)
        report = counter_report(counter, n_candidates=150, n_types=7)
        assert report["joint_pair_count"] == 1050
        assert report["disjoint_call_count"] == 157
        assert report["context_encoder_calls"] == 120
        assert report["definition_encoder_calls"] == 7
