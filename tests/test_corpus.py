import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defex.corpus import (
    AlignmentCorpus,
    AlignmentInstance,
    Document,
    EventOntology,
    GoldMentionSet,
    MentionRecord,
    PredictionRecord,
    PredictionSet,
    SyntheticSpec,
    generate_synthetic_corpus,
    load_alignment_corpus,
    load_documents,
    load_gold,
    load_ontology,
    load_predictions,
    save_alignment_corpus,
    save_documents,
    save_gold,
    save_ontology,
    save_predictions,
    split_documents,
    subsample_gold,
    subsample_per_definition,
)
from defex.errors import (
    ArgumentError,
    InputNotFoundError,
    ParseError,
    ValidationError,
)

from helpers import all_candidate_keys, mention_tokens


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def alignment_record(sentence, start, end, definition, definition_id):
    return {
        "sentence": sentence,
        "start": start,
        "end": end,
        "definition": definition,
        "definition_id": definition_id,
    }


class TestAlignmentInstance:
    def test_valid(self):
        inst = AlignmentInstance(("a", "b"), 0, 1, ("d",), "x")
        assert mention_tokens(inst) == ("a", "b")

    @pytest.mark.parametrize("start,end", [(3, 2), (-1, 0), (0, 5)])
    def test_span_out_of_bounds(self, start, end):
        with pytest.raises(ValidationError):
            AlignmentInstance(("a", "b", "c"), start, end, ("d",), "x")

    def test_empty_fields(self):
        with pytest.raises(ValidationError):
            AlignmentInstance((), 0, 0, ("d",), "x")
        with pytest.raises(ValidationError):
            AlignmentInstance(("a",), 0, 0, (), "x")
        with pytest.raises(ValidationError):
            AlignmentInstance(("a",), 0, 0, ("d",), "")


class TestAlignmentCorpusIO:
    def test_loaded_words_are_shared(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            alignment_record(["the", "fox", "ran"], 2, 2, ["move", "fast"], "s1"),
            alignment_record(["the", "dog", "ran", "fast"], 2, 2, ["move", "fast"], "s1"),
        ])
        first, second = load_alignment_corpus(path).instances
        assert first.sentence[0] is second.sentence[0]
        assert first.sentence[2] is second.sentence[2]
        assert second.sentence[3] is first.definition[1] is second.definition[1]
        plain = AlignmentInstance(tuple("".join(w) for w in ["the", "fox", "ran"]), 2, 2,
                                  ("move", "fast"), "s1")
        assert first == plain and hash(first) == hash(plain)

    def test_single_record_roundtrip(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [alignment_record(["the", "fox", "ran"], 2, 2, ["move", "fast"], "s1")])
        corpus = load_alignment_corpus(path)
        assert len(corpus) == 1
        assert corpus.instances[0].sentence == ("the", "fox", "ran")
        out = tmp_path / "b.jsonl"
        save_alignment_corpus(corpus, out)
        assert load_alignment_corpus(out) == corpus

    def test_invalid_span_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [alignment_record(["a", "b"], 3, 2, ["d"], "s1")])
        with pytest.raises(ValidationError):
            load_alignment_corpus(path)

    def test_three_records_one_definition(self, tmp_path):
        path = tmp_path / "a.jsonl"
        records = [
            alignment_record(["w", "x"], 0, 0, ["one", "sense"], "s9")
            for _ in range(3)
        ]
        write_jsonl(path, records)
        corpus = load_alignment_corpus(path)
        assert len(corpus.instances) == 3
        assert len(corpus.definitions) == 1
        out = tmp_path / "b.jsonl"
        save_alignment_corpus(corpus, out)
        assert load_alignment_corpus(out) == corpus

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "a.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(alignment_record(["a"], 0, 0, ["d"], "s1")) + "\n")
            fh.write("{not json\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_alignment_corpus(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{"sentence": ["a"], "start": 0, "end": 0, "definition": ["d"]}])
        with pytest.raises(ParseError, match="definition_id"):
            load_alignment_corpus(path)

    @pytest.mark.parametrize("start, end", [(True, True), (0, False)])
    def test_bool_span_rejected(self, tmp_path, start, end):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [alignment_record(["a", "b"], start, end, ["d"], "s1")])
        with pytest.raises(ParseError, match=r":1: field '(start|end)' must be integer"):
            load_alignment_corpus(path)

    def test_conflicting_definition_text(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            alignment_record(["a"], 0, 0, ["one"], "s1"),
            alignment_record(["b"], 0, 0, ["two"], "s1"),
        ])
        with pytest.raises(ValidationError):
            load_alignment_corpus(path)

    def test_same_text_two_ids(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [
            alignment_record(["a"], 0, 0, ["one"], "s1"),
            alignment_record(["b"], 0, 0, ["one"], "s2"),
        ])
        with pytest.raises(ValidationError):
            load_alignment_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputNotFoundError):
            load_alignment_corpus(tmp_path / "nope.jsonl")

    def test_orphan_definition_not_serializable(self):
        corpus = AlignmentCorpus(
            (AlignmentInstance(("a",), 0, 0, ("d",), "s1"),),
            {"s1": ("d",), "orphan": ("o",)},
        )
        with pytest.raises(ValidationError, match="orphan"):
            save_alignment_corpus(corpus, "/tmp/never-written.jsonl")


class TestSubsample:
    def make_corpus(self, counts):
        instances = []
        definitions = {}
        for def_id, n in counts.items():
            definitions[def_id] = ("def", def_id)
            for i in range(n):
                instances.append(
                    AlignmentInstance((f"w{i}", "x"), 0, 0, ("def", def_id), def_id)
                )
        return AlignmentCorpus(tuple(instances), definitions)

    def test_caps_at_k(self):
        corpus = self.make_corpus({"a": 25})
        out = subsample_per_definition(corpus, 10, seed=0)
        assert len(out.instances) == 10

    def test_fewer_than_k_kept(self):
        corpus = self.make_corpus({"a": 3})
        out = subsample_per_definition(corpus, 10, seed=0)
        assert len(out.instances) == 3

    def test_deterministic(self):
        corpus = self.make_corpus({"a": 25, "b": 7, "c": 40})
        one = subsample_per_definition(corpus, 5, seed=123)
        two = subsample_per_definition(corpus, 5, seed=123)
        assert one == two

    def test_k_zero_rejected(self):
        corpus = self.make_corpus({"a": 2})
        with pytest.raises(ArgumentError):
            subsample_per_definition(corpus, 0, seed=0)

    def test_subset_and_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            counts = {f"d{i}": int(rng.integers(1, 12)) for i in range(6)}
            corpus = self.make_corpus(counts)
            k = int(rng.integers(1, 8))
            out = subsample_per_definition(corpus, k, seed=int(rng.integers(1000)))
            assert set(out.instances) <= set(corpus.instances)
            for def_id, n in counts.items():
                got = sum(1 for inst in out.instances if inst.definition_id == def_id)
                assert got == min(k, n)
            assert out.definitions == corpus.definitions


class TestOntology:
    def test_roundtrip_preserves_order(self, tmp_path):
        onto = EventOntology((("b_type", ("x",)), ("a_type", ("y", "z"))))
        path = tmp_path / "o.jsonl"
        save_ontology(onto, path)
        loaded = load_ontology(path)
        assert loaded == onto
        assert loaded.index_of("b_type") == 0
        assert loaded.index_of("a_type") == 1

    def test_duplicate_names(self):
        with pytest.raises(ValidationError):
            EventOntology((("a", ("x",)), ("a", ("y",))))

    def test_unknown_type(self):
        onto = EventOntology((("a", ("x",)),))
        with pytest.raises(ValidationError):
            onto.index_of("zzz")


class TestDocuments:
    def test_roundtrip(self, tmp_path):
        docs = (
            Document("d1", (("a", "b"), ("c",)), ((0, 1, 1), (1, 0, 0))),
            Document("d2", (("x",),), ()),
        )
        path = tmp_path / "docs.jsonl"
        save_documents(docs, path)
        assert load_documents(path) == docs

    @pytest.mark.parametrize("doc_id", [[1], {"a": 1}, 7, None, True])
    def test_non_string_doc_id(self, tmp_path, doc_id):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [
            {"doc_id": "d1", "sentences": [["a"]], "candidates": [[0, 0, 0]]},
            {"doc_id": doc_id, "sentences": [["a"]], "candidates": [[0, 0, 0]]},
        ])
        with pytest.raises(ParseError, match=r":2: field 'doc_id' must be string"):
            load_documents(path)

    @pytest.mark.parametrize("candidate", [[False, True, True], [0, 0, True]])
    def test_bool_in_candidate(self, tmp_path, candidate):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"doc_id": "d1", "sentences": [["a", "b"]], "candidates": [candidate]}])
        with pytest.raises(ParseError, match=r":1: field 'candidates' must be \[\[integer"):
            load_documents(path)

    def test_candidate_bounds(self):
        with pytest.raises(ValidationError):
            Document("d", (("a",),), ((0, 0, 3),))
        with pytest.raises(ValidationError):
            Document("d", (("a",),), ((2, 0, 0),))

    def test_duplicate_candidates(self):
        with pytest.raises(ValidationError):
            Document("d", (("a", "b"),), ((0, 0, 0), (0, 0, 0)))

    def test_loaded_words_are_shared(self, tmp_path):
        # words built at run time, so no two of them start as one object
        word = lambda *parts: "".join(parts)
        docs = (
            Document("d1", ((word("at", "tack"), word("on")), (word("at", "tack"),)), ((0, 0, 0),)),
            Document("d2", ((word("o", "n"), word("atta", "ck")),), ()),
        )
        assert docs[0].sentences[0][0] is docs[0].sentences[1][0]
        first = tmp_path / "a.jsonl"
        save_documents(docs, first)
        loaded = load_documents(first)
        attack = loaded[0].sentences[0][0]
        assert attack is loaded[0].sentences[1][0] is loaded[1].sentences[0][1]
        assert loaded[0].sentences[0][1] is loaded[1].sentences[0][0]
        plain = tuple(Document(d.doc_id, tuple(tuple(word(w) for w in s) for s in d.sentences),
                               d.candidates) for d in docs)
        assert loaded == docs == plain
        assert list(map(hash, loaded)) == list(map(hash, plain))
        second = tmp_path / "b.jsonl"
        save_documents(loaded, second)
        assert second.read_bytes() == first.read_bytes()


class TestMentionSets:
    def test_gold_roundtrip(self, tmp_path):
        gold = GoldMentionSet((
            MentionRecord("d1", 0, 1, 1, "t1"),
            MentionRecord("d1", 0, 2, 2, "t2"),
        ))
        path = tmp_path / "gold.jsonl"
        save_gold(gold, path)
        assert load_gold(path) == gold

    def test_predictions_roundtrip(self, tmp_path):
        preds = PredictionSet((
            PredictionRecord("d1", 0, 1, 1, "t1", 0.91),
            PredictionRecord("d2", 3, 0, 0, "t2", -0.25),
        ))
        path = tmp_path / "preds.jsonl"
        save_predictions(preds, path)
        assert load_predictions(path) == preds

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(PredictionSet(()), path)
        assert len(load_predictions(path)) == 0

    def test_duplicate_span_key_rejected(self, tmp_path):
        path = tmp_path / "g.jsonl"
        rec = {"doc_id": "d", "sentence_idx": 0, "start": 1, "end": 1, "type_name": "t"}
        write_jsonl(path, [rec, {**rec, "type_name": "u"}])
        with pytest.raises(ValidationError):
            load_gold(path)

    @pytest.mark.parametrize("load, extra", [(load_gold, {}), (load_predictions, {"score": 0.5})])
    @pytest.mark.parametrize("field", ["sentence_idx", "start", "end"])
    def test_bool_integer_field(self, tmp_path, load, extra, field):
        path = tmp_path / "m.jsonl"
        rec = {"doc_id": "d", "sentence_idx": 0, "start": 1, "end": 1, "type_name": "t", **extra}
        write_jsonl(path, [{**rec, field: True}])
        with pytest.raises(ParseError, match=rf":1: field '{field}' must be integer"):
            load(path)

    def test_score_range(self):
        with pytest.raises(ValidationError):
            PredictionRecord("d", 0, 0, 0, "t", 1.5)


VALID_LINES = {
    load_alignment_corpus: alignment_record(["a", "b"], 0, 1, ["d"], "s1"),
    load_ontology: {"type_name": "t", "definition": ["d"]},
    load_documents: {"doc_id": "d1", "sentences": [["a", "b"]], "candidates": [[0, 0, 1]]},
    load_gold: {"doc_id": "d", "sentence_idx": 0, "start": 1, "end": 1, "type_name": "t"},
    load_predictions: {"doc_id": "d", "sentence_idx": 0, "start": 1, "end": 1, "type_name": "t",
                       "score": 0.5},
}
BAD_VALUES = {  # by the JSON type a field declares
    "integer": [True, False, "1", 1.5, None],
    "string": [7, True, None, [1], {"a": 1}],
    "token array": ["a b", [1], [True], None],
    "sentences": ["a", [[1]], [["a"], "b"]],
    "candidates": ["x", [[0, 0]], [[0, 0, 0, 0]], [[False, True, True]], [[0, 0, True]],
                   [[0, 0.0, 0]]],
    "score": [True, "0.5", float("inf"), float("-inf"), float("nan"), 10**400, None],
}
FIELD_TYPES = {
    "sentence": "token array", "definition": "token array", "start": "integer", "end": "integer",
    "sentence_idx": "integer", "definition_id": "string", "type_name": "string",
    "doc_id": "string", "sentences": "sentences", "candidates": "candidates", "score": "score",
}
BAD_FIELD_ROWS = [
    pytest.param(load, field, value, id=f"{load.__name__}-{field}-{value!r:.16}")
    for load, line in VALID_LINES.items()
    for field in line
    for value in ["<missing>"] + BAD_VALUES[FIELD_TYPES[field]]
]


class TestRecordFieldTypes:
    """Every field of every format rejects a value of the wrong JSON type with
    a ParseError naming the line and the field."""

    @pytest.mark.parametrize("load, field, value", BAD_FIELD_ROWS)
    def test_bad_value_names_line_and_field(self, tmp_path, load, field, value):
        bad = dict(VALID_LINES[load])
        if value == "<missing>":
            del bad[field]
        else:
            bad[field] = value
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [VALID_LINES[load], bad])
        with pytest.raises(ParseError, match=rf":2: (missing field|field) '{field}'"):
            load(path)

    def test_int_score_accepted(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [dict(VALID_LINES[load_predictions], score=1)])
        assert load_predictions(path).records[0].score == 1

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_jsonl(path, [dict(VALID_LINES[load_gold], note=[1, 2])])
        assert len(load_gold(path)) == 1

    def test_record_invariant_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [VALID_LINES[load_predictions],
                           dict(VALID_LINES[load_predictions], start=2, end=2, score=1.5)])
        with pytest.raises(ValidationError, match=r":2: prediction score 1.5 outside"):
            load_predictions(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_bytes(b'{"type_name": "t", "definition": ["d"]}\n{"type_name": "\xff"}\n')
        with pytest.raises(ParseError, match=r"o.jsonl:2: invalid UTF-8"):
            load_ontology(path)


class TestDuplicateKeys:
    """A repeated span key or type name is reported at the file and line of
    its second occurrence."""

    @pytest.mark.parametrize("load, change, message", [
        pytest.param(load, change, message, id=load.__name__) for load, change, message in (
            (load_gold, {"type_name": "u"}, "duplicate span key ('d', 0, 1, 1)"),
            (load_predictions, {"score": 0.25}, "duplicate span key ('d', 0, 1, 1)"),
            (load_ontology, {"definition": ["e"]}, "duplicate type name 't'"),
        )
    ])
    def test_names_file_and_line(self, tmp_path, load, change, message):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [VALID_LINES[load], dict(VALID_LINES[load], **change)])
        with pytest.raises(ValidationError) as info:
            load(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_other_rejection_stands(self, tmp_path):
        path = tmp_path / "o.jsonl"
        write_jsonl(path, [VALID_LINES[load_ontology], {"type_name": "", "definition": ["d"]}])
        with pytest.raises(ValidationError) as info:
            load_ontology(path)
        assert str(info.value) == f"{path}:2: ontology contains an empty type name"

    def test_empty_definition_names_line(self, tmp_path):
        path = tmp_path / "o.jsonl"
        write_jsonl(path, [VALID_LINES[load_ontology], {"type_name": "u", "definition": []}])
        with pytest.raises(ValidationError) as info:
            load_ontology(path)
        assert str(info.value) == f"{path}:2: type 'u' has an empty definition"

    def test_ontology_constructor_names_the_type(self):
        with pytest.raises(ValidationError, match="duplicate type name 'b'"):
            EventOntology((("a", ("x",)), ("b", ("y",)), ("b", ("z",))))


tokens = st.lists(st.text(max_size=6), min_size=1, max_size=5)
names = st.text(min_size=1, max_size=6)


@st.composite
def alignment_corpora(draw):
    texts = draw(st.lists(tokens, min_size=1, max_size=4, unique_by=tuple))
    instances = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(texts) - 1))
        sentence = draw(tokens)
        start = draw(st.integers(0, len(sentence) - 1))
        end = draw(st.integers(start, len(sentence) - 1))
        instances.append(AlignmentInstance(sentence, start, end, texts[i], f"id{i}"))
    return AlignmentCorpus(instances, {inst.definition_id: inst.definition for inst in instances})


@st.composite
def document_lists(draw):
    docs = []
    for doc_id in draw(st.lists(names, max_size=4, unique=True)):
        sentences = draw(st.lists(tokens, min_size=1, max_size=3))
        spans = [(i, start, end) for i, s in enumerate(sentences)
                 for start in range(len(s)) for end in range(start, len(s))]
        candidates = draw(st.lists(st.sampled_from(spans), max_size=5, unique=True))
        docs.append(Document(doc_id, sentences, candidates))
    return tuple(docs)


span_fields = (names, st.integers(0, 2**40), st.integers(0, 50), st.integers(0, 50), names)
mention_sets = st.lists(st.builds(MentionRecord, *span_fields), max_size=6,
                        unique_by=lambda r: r.key).map(GoldMentionSet)
prediction_sets = st.lists(
    st.builds(PredictionRecord, *span_fields, st.floats(-1.0, 1.0)), max_size=6,
    unique_by=lambda r: r.key,
).map(PredictionSet)
ontologies = st.lists(st.tuples(names, tokens), min_size=1, max_size=4,
                      unique_by=lambda t: t[0]).map(EventOntology)


class TestSaveLoadRoundTrip:
    """save -> load gives an equal object, and saving that again gives the
    same bytes."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("strategy, save, load", [
        (alignment_corpora(), save_alignment_corpus, load_alignment_corpus),
        (ontologies, save_ontology, load_ontology),
        (document_lists(), save_documents, load_documents),
        (mention_sets, save_gold, load_gold),
        (prediction_sets, save_predictions, load_predictions),
    ], ids=["alignments", "ontology", "documents", "gold", "predictions"])
    def test_round_trip(self, tmp_path_factory, data, strategy, save, load):
        obj = data.draw(strategy)
        directory = tmp_path_factory.mktemp("rt")
        save(obj, directory / "a.jsonl")
        loaded = load(directory / "a.jsonl")
        assert loaded == obj
        save(loaded, directory / "b.jsonl")
        assert (directory / "b.jsonl").read_bytes() == (directory / "a.jsonl").read_bytes()


class TestSyntheticGenerator:
    def test_disjoint_triggers_never_shared(self):
        spec = SyntheticSpec(n_types=2, mentions_per_type=5, instances_per_definition=4)
        corpus, onto, docs, gold = generate_synthetic_corpus(spec, seed=7)
        triggers_by_type = {}
        docmap = {d.doc_id: d for d in docs}
        for record in gold.records:
            word = docmap[record.doc_id].sentences[record.sentence_idx][record.start]
            triggers_by_type.setdefault(record.type_name, set()).add(word)
        names = sorted(triggers_by_type)
        assert not (triggers_by_type[names[0]] & triggers_by_type[names[1]])

    def test_deterministic_outputs(self, tmp_path):
        spec = SyntheticSpec(n_types=3, mentions_per_type=4, instances_per_definition=3)
        for name in ("one", "two"):
            corpus, onto, docs, gold = generate_synthetic_corpus(spec, seed=99)
            save_alignment_corpus(corpus, tmp_path / f"{name}_a.jsonl")
            save_ontology(onto, tmp_path / f"{name}_o.jsonl")
            save_documents(docs, tmp_path / f"{name}_d.jsonl")
            save_gold(gold, tmp_path / f"{name}_g.jsonl")
        for suffix in ("a", "o", "d", "g"):
            one = (tmp_path / f"one_{suffix}.jsonl").read_bytes()
            two = (tmp_path / f"two_{suffix}.jsonl").read_bytes()
            assert one == two

    def test_gold_count(self):
        spec = SyntheticSpec(n_types=20, mentions_per_type=50, instances_per_definition=2)
        _, _, _, gold = generate_synthetic_corpus(spec, seed=0)
        assert len(gold) == 1000

    def test_gold_subset_of_candidates(self, tiny_world):
        _, _, docs, gold = tiny_world
        assert gold.keys() <= set(all_candidate_keys(docs))

    def test_ontology_definitions_in_corpus_inventory(self, tiny_world):
        corpus, onto, _, _ = tiny_world
        inventory = set(corpus.definitions.values())
        for _, definition in onto.types:
            assert definition in inventory

    def test_n_types_validation(self):
        with pytest.raises(ArgumentError):
            SyntheticSpec(n_types=1)

    def test_confusable_pairs_share_triggers(self):
        spec = SyntheticSpec(n_types=4, mentions_per_type=4, confusability="confusable",
                             instances_per_definition=3)
        corpus, onto, docs, gold = generate_synthetic_corpus(spec, seed=3)
        trig = {}
        docmap = {d.doc_id: d for d in docs}
        for record in gold.records:
            word = docmap[record.doc_id].sentences[record.sentence_idx][record.start]
            trig.setdefault(record.type_name, set()).add(word)
        assert trig["etype00"] & trig["etype01"]
        assert not (trig["etype00"] & trig["etype02"])


class TestSplits:
    def test_split_partitions(self, tiny_world):
        _, _, docs, gold = tiny_world
        train_docs, train_gold, eval_docs, eval_gold = split_documents(docs, gold, 0.5, seed=2)
        assert len(train_docs) + len(eval_docs) == len(docs)
        assert not ({d.doc_id for d in train_docs} & {d.doc_id for d in eval_docs})
        assert len(train_gold) + len(eval_gold) == len(gold)

    def test_subsample_gold(self, tiny_world):
        _, _, _, gold = tiny_world
        frac = subsample_gold(gold, 0.25, seed=4)
        assert len(frac) == max(1, round(0.25 * len(gold)))
        assert set(frac.records) <= set(gold.records)
        assert subsample_gold(gold, 1.0, seed=0) == gold
