import dataclasses

import numpy as np
import pytest

from defex import evaluation
from defex.corpus import (
    EventOntology,
    GoldMentionSet,
    MentionRecord,
    PredictionRecord,
    PredictionSet,
    SyntheticSpec,
    generate_synthetic_corpus,
)
from defex.encoder import DualEncoderModel, EncoderConfig
from defex.errors import ArgumentError, ValidationError
from defex.evaluation import (
    CLASSIFICATION,
    IDENTIFICATION,
    AblationSpec,
    EvalReport,
    PipelineDataset,
    chance_baseline,
    micro_prf,
    most_popular_baseline,
    run_ablation,
    run_pipeline,
    speed_benchmark,
)
from defex.inference import InferenceConfig
from defex.training import TrainConfig, WarmConfig, pretrain
from defex.warming import RetrievalConfig


def gold_of(*records):
    return GoldMentionSet(tuple(MentionRecord(*r) for r in records))


def preds_of(*records):
    return PredictionSet(tuple(PredictionRecord(*r, 0.8) for r in records))


def brute_force_counts(preds, gold, mode):
    """Independent confusion counting by explicit record-by-record matching."""
    tp = fp = 0
    matched_gold = set()
    for p in preds.records:
        hit = None
        for g in gold.records:
            if g.key != p.key:
                continue
            if mode == CLASSIFICATION and g.type_name != p.type_name:
                continue
            hit = g
            break
        if hit is not None:
            tp += 1
            matched_gold.add(hit)
        else:
            fp += 1
    fn = sum(1 for g in gold.records if g not in matched_gold)
    return tp, fp, fn


class TestEvalReport:
    def test_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, fp, fn = (int(x) for x in rng.integers(0, 30, size=3))
            report = EvalReport.from_counts(IDENTIFICATION, tp, fp, fn)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert report.precision == pytest.approx(p, abs=1e-12)
            assert report.recall == pytest.approx(r, abs=1e-12)
            assert report.f1 == pytest.approx(f1, abs=1e-12)


class TestMicroPrf:
    def test_perfect_match(self):
        gold = gold_of(("d", 0, 1, 1, "a"), ("d", 0, 3, 3, "b"))
        preds = preds_of(("d", 0, 1, 1, "a"), ("d", 0, 3, 3, "b"))
        for mode in (IDENTIFICATION, CLASSIFICATION):
            report = micro_prf(preds, gold, mode)
            assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_predictions(self):
        gold = gold_of(("d", 0, 1, 1, "a"))
        report = micro_prf(PredictionSet(()), gold, IDENTIFICATION)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_worked_example(self):
        # 4 gold; 3 predictions; 2 span-correct, 1 of those 2 mistyped
        gold = gold_of(
            ("d", 0, 0, 0, "a"), ("d", 0, 1, 1, "b"), ("d", 0, 2, 2, "c"), ("d", 0, 3, 3, "d"),
        )
        preds = preds_of(
            ("d", 0, 0, 0, "a"),   # span and type correct
            ("d", 0, 1, 1, "c"),   # span correct, type wrong
            ("d", 0, 9, 9, "a"),   # span wrong
        )
        ident = micro_prf(preds, gold, IDENTIFICATION)
        assert ident.precision == pytest.approx(2 / 3, abs=1e-12)
        assert ident.recall == pytest.approx(2 / 4, abs=1e-12)
        assert ident.f1 == pytest.approx(4 / 7, abs=1e-12)
        cls = micro_prf(preds, gold, CLASSIFICATION)
        assert cls.precision == pytest.approx(1 / 3, abs=1e-12)
        assert cls.recall == pytest.approx(1 / 4, abs=1e-12)
        assert cls.f1 == pytest.approx(2 / 7, abs=1e-12)

    def random_sets(self, rng):
        names = ["t0", "t1", "t2"]
        gold_keys = set()
        gold_records = []
        for _ in range(int(rng.integers(0, 12))):
            key = ("d", 0, int(rng.integers(0, 20)), int(rng.integers(0, 3)))
            key = (key[0], key[1], key[2], key[2] + key[3])
            if key in gold_keys:
                continue
            gold_keys.add(key)
            gold_records.append(MentionRecord(*key, names[int(rng.integers(0, 3))]))
        pred_keys = set()
        pred_records = []
        for _ in range(int(rng.integers(0, 12))):
            if gold_records and rng.random() < 0.5:
                base = gold_records[int(rng.integers(0, len(gold_records)))]
                key = base.key
            else:
                raw = ("d", 0, int(rng.integers(0, 20)), int(rng.integers(0, 3)))
                key = (raw[0], raw[1], raw[2], raw[2] + raw[3])
            if key in pred_keys:
                continue
            pred_keys.add(key)
            pred_records.append(PredictionRecord(*key, names[int(rng.integers(0, 3))], 0.9))
        return PredictionSet(tuple(pred_records)), GoldMentionSet(tuple(gold_records))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            preds, gold = self.random_sets(rng)
            for mode in (IDENTIFICATION, CLASSIFICATION):
                report = micro_prf(preds, gold, mode)
                tp, fp, fn = brute_force_counts(preds, gold, mode)
                assert (report.tp, report.fp, report.fn) == (tp, fp, fn)

    def test_identification_never_below_classification(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            preds, gold = self.random_sets(rng)
            ident = micro_prf(preds, gold, IDENTIFICATION)
            cls = micro_prf(preds, gold, CLASSIFICATION)
            assert ident.f1 >= cls.f1 - 1e-12

    def test_unknown_mode(self):
        with pytest.raises(ArgumentError):
            micro_prf(PredictionSet(()), GoldMentionSet(()), "both")

    def test_ontology_validation(self):
        onto = EventOntology((("a", ("x",)),))
        gold = gold_of(("d", 0, 0, 0, "a"))
        preds = preds_of(("d", 0, 0, 0, "ghost"))
        with pytest.raises(ValidationError):
            micro_prf(preds, gold, IDENTIFICATION, onto)


class TestBaselines:
    def setup_world(self, n_candidates=200, gold_every=4, seed=0):
        rng = np.random.default_rng(seed)
        onto = EventOntology((("a", ("x",)), ("b", ("y",)), ("c", ("z",))))
        candidates = [("doc", 0, i, i) for i in range(n_candidates)]
        gold_records = [
            MentionRecord("doc", 0, i, i, onto.names[int(rng.integers(0, 3))])
            for i in range(0, n_candidates, gold_every)
        ]
        return onto, candidates, GoldMentionSet(tuple(gold_records))

    def test_rate_zero(self):
        onto, candidates, _ = self.setup_world()
        empty_gold = GoldMentionSet(())
        preds = chance_baseline(empty_gold, candidates, onto, seed=1)
        assert len(preds) == 0

    def test_rate_one(self):
        onto, candidates, _ = self.setup_world(n_candidates=50, gold_every=1)
        gold = GoldMentionSet(tuple(
            MentionRecord("doc", 0, i, i, "a") for i in range(50)
        ))
        preds = chance_baseline(gold, candidates, onto, seed=1)
        assert len(preds) == 50

    def test_binomial_selection_count(self):
        onto = EventOntology((("a", ("x",)),))
        candidates = [("doc", 0, i, i) for i in range(10_000)]
        gold = GoldMentionSet(tuple(MentionRecord("doc", 0, i, i, "a") for i in range(0, 10_000, 5)))
        preds = chance_baseline(gold, candidates, onto, seed=11)
        n, rate = 10_000, 0.2
        sigma = (n * rate * (1 - rate)) ** 0.5
        assert abs(len(preds) - n * rate) <= 3 * sigma

    def test_deterministic(self):
        onto, candidates, gold = self.setup_world()
        one = chance_baseline(gold, candidates, onto, seed=5)
        two = chance_baseline(gold, candidates, onto, seed=5)
        assert one == two

    def test_gold_must_be_covered(self):
        onto, candidates, gold = self.setup_world()
        with pytest.raises(ValidationError):
            chance_baseline(gold, candidates[:10], onto, seed=0)

    def test_most_popular_single_type(self):
        onto, candidates, _ = self.setup_world()
        gold = GoldMentionSet(tuple(MentionRecord("doc", 0, i, i, "b") for i in range(0, 200, 4)))
        preds = most_popular_baseline(gold, candidates, onto, seed=2)
        assert preds.records and all(r.type_name == "b" for r in preds.records)

    def test_most_popular_tie_breaks_by_index(self):
        onto = EventOntology((("a", ("x",)), ("b", ("y",))))
        candidates = [("doc", 0, i, i) for i in range(40)]
        records = [MentionRecord("doc", 0, i, i, "b" if i % 2 else "a") for i in range(20)]
        gold = GoldMentionSet(tuple(records))
        preds = most_popular_baseline(gold, candidates, onto, seed=3)
        assert preds.records and all(r.type_name == "a" for r in preds.records)

    def test_most_popular_matches_frequency_oracle(self):
        onto, candidates, _ = self.setup_world()
        rng = np.random.default_rng(9)
        names = ["a"] * 70 + ["b"] * 20 + ["c"] * 10
        records = [MentionRecord("doc", 0, i, i, names[i % 100]) for i in range(100)]
        gold = GoldMentionSet(tuple(records))
        counts = {}
        for r in records:
            counts[r.type_name] = counts.get(r.type_name, 0) + 1
        majority = max(counts, key=lambda n: counts[n])
        preds = most_popular_baseline(gold, candidates, onto, seed=4)
        assert preds.records and all(r.type_name == majority for r in preds.records)


@pytest.fixture(scope="module")
def small_pipeline_dataset():
    spec = SyntheticSpec(n_types=4, mentions_per_type=6, instances_per_definition=10,
                         n_distractor_definitions=2, neighbors_per_type=1)
    corpus, onto, docs, gold = generate_synthetic_corpus(spec, seed=13)
    return PipelineDataset(corpus, onto, docs, gold)


SMALL_ENCODER = EncoderConfig(vocab_size=512, embedding_dim=32, n_layers=1, n_heads=4)


@pytest.fixture(scope="module")
def small_pretrained(small_pipeline_dataset):
    corpus = small_pipeline_dataset.corpus
    model = DualEncoderModel.initialize(SMALL_ENCODER, corpus, 0)
    return pretrain(model, corpus, TrainConfig(epochs=2))[0]


class TestPipelineAndAblation:
    def test_run_pipeline_smoke(self, small_pipeline_dataset, small_pretrained):
        model = small_pretrained.copy()
        result = run_pipeline(small_pipeline_dataset, model, WarmConfig(epochs=1))
        gold, ontology = small_pipeline_dataset.gold, small_pipeline_dataset.ontology
        assert result.identification.f1 >= result.classification.f1 - 1e-12
        assert result.identification == micro_prf(result.predictions, gold, IDENTIFICATION, ontology)
        assert result.classification == micro_prf(result.predictions, gold, CLASSIFICATION, ontology)
        # warming ran, on the model passed in
        assert model.fingerprint() != small_pretrained.fingerprint()

    def test_ablation_pretrains_once_per_seed(self, small_pipeline_dataset, monkeypatch):
        spec = AblationSpec(encoder=SMALL_ENCODER, pretrain=TrainConfig(epochs=2),
                            warm=WarmConfig(epochs=1), seeds=(0, 1))
        pretrained = []

        def counting_pretrain(model, corpus, config):
            model, report = pretrain(model, corpus, config)
            pretrained.append((config.seed, model.copy()))
            return model, report

        monkeypatch.setattr(evaluation, "pretrain", counting_pretrain)
        table = run_ablation(spec, small_pipeline_dataset)
        assert [seed for seed, _ in pretrained] == list(spec.seeds)
        for i, (seed, model) in enumerate(pretrained):
            for variant, warm_config in (("no_warming", None),
                                         ("full", dataclasses.replace(spec.warm, seed=seed))):
                direct = run_pipeline(small_pipeline_dataset, model.copy(), warm_config,
                                      spec.retrieval, spec.inference)
                assert table.row(variant).per_seed[i] == (direct.identification,
                                                          direct.classification)

    def test_ablation_table_structure(self, small_pipeline_dataset):
        spec = AblationSpec(
            encoder=SMALL_ENCODER,
            pretrain=TrainConfig(epochs=2),
            warm=WarmConfig(epochs=1),
            retrieval=RetrievalConfig(),
            inference=InferenceConfig(),
            seeds=(0,),
        )
        table = run_ablation(spec, small_pipeline_dataset)
        assert {row.variant for row in table.rows} == {
            "full", "no_warming", "random_negative_warming"
        }
        full = table.row("full")
        assert full.delta_identification == 0.0
        assert full.delta_classification == 0.0
        rendered = table.render()
        assert "no_warming" in rendered
        assert len(table.to_records()) == 3


class TestSpeedBenchmark:
    def test_repetition_floor(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        with pytest.raises(ArgumentError):
            speed_benchmark(tiny_model, ontology, docs[:1], repetitions=2)

    def test_call_counts(self, tiny_model, tiny_world):
        _, ontology, docs, _ = tiny_world
        single_type = EventOntology(ontology.types[:1])
        subset = docs[:2]
        n = sum(len(d.candidates) for d in subset)
        report = speed_benchmark(tiny_model, single_type, subset, repetitions=3)
        assert report.joint_calls == n * 1
        assert report.disjoint_definition_calls == 1
        assert report.n_candidates == n
        assert report.disjoint_median > 0
        assert report.joint_median > 0
