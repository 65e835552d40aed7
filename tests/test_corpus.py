import json

import numpy as np
import pytest

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
    all_candidate_keys,
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
        assert inst.mention_tokens() == ("a", "b")

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
        with pytest.raises(ParseError, match=r":1: start/end must be integers"):
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
        with pytest.raises(ParseError, match=r":2: doc_id must be a string"):
            load_documents(path)

    @pytest.mark.parametrize("candidate", [[False, True, True], [0, 0, True]])
    def test_bool_in_candidate(self, tmp_path, candidate):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"doc_id": "d1", "sentences": [["a", "b"]], "candidates": [candidate]}])
        with pytest.raises(ParseError, match=r":1: candidate"):
            load_documents(path)

    def test_candidate_bounds(self):
        with pytest.raises(ValidationError):
            Document("d", (("a",),), ((0, 0, 3),))
        with pytest.raises(ValidationError):
            Document("d", (("a",),), ((2, 0, 0),))

    def test_duplicate_candidates(self):
        with pytest.raises(ValidationError):
            Document("d", (("a", "b"),), ((0, 0, 0), (0, 0, 0)))


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
        with pytest.raises(ParseError, match=r":1: sentence_idx/start/end must be integers"):
            load(path)

    def test_score_range(self):
        with pytest.raises(ValidationError):
            PredictionRecord("d", 0, 0, 0, "t", 1.5)


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
