import dataclasses

import numpy as np
import pytest

from defex import warming
from defex.corpus import (
    AlignmentCorpus,
    AlignmentInstance,
    Document,
    EventOntology,
    GoldMentionSet,
    MentionRecord,
)
from defex.errors import ArgumentError, ConfigurationError, ValidationError
from defex.training import TrainConfig, TrainReport, WarmConfig, pretrain, uniform_negative_sampler
from defex.warming import (
    ONTOLOGY_ID_PREFIX,
    RetrievalConfig,
    StaticEmbedder,
    build_warming_subset,
    gold_alignment_instances,
    mixed_negative_sampler,
    rank_by_cosine,
    warm,
    warm_with_gold,
)


def nearest(table, defs):
    """Top hit of the retrieval ranking for the planted vector ``table["t"]``;
    ``defs`` maps definition ids to keys of ``table``."""
    vectors = {did: np.asarray(table[key], dtype=float) for did, key in defs.items()}
    return rank_by_cosine(np.asarray(table["t"], dtype=float), vectors)[0]


def definition_states(model, tokens):
    from defex.encoder import DEFINITION

    ids, _ = model.tokenizer.encode_words(tokens)
    states, _, _ = model.encode_batch(DEFINITION, [ids])
    return states[0]


class TestRetrievalConfig:
    def test_defaults(self):
        assert RetrievalConfig().retrieved_count == 1

    def test_invalid(self):
        with pytest.raises(ArgumentError):
            RetrievalConfig(retrieved_count=0)


class TestStaticEmbedder:
    def test_single_token_is_that_vector(self, tiny_model):
        embedder = StaticEmbedder(tiny_model)
        got = embedder.embed(["word"])
        np.testing.assert_allclose(got, definition_states(tiny_model, ["word"]).mean(axis=0),
                                   atol=1e-12)

    def test_repeated_call_identical(self, tiny_model):
        embedder = StaticEmbedder(tiny_model)
        one = embedder.embed(["some", "tokens"])
        two = embedder.embed(["some", "tokens"])
        np.testing.assert_array_equal(one, two)

    def test_mean_oracle(self, tiny_model):
        embedder = StaticEmbedder(tiny_model)
        tokens = ["five", "token", "definition", "about", "things"]
        states = definition_states(tiny_model, tokens)
        oracle = np.zeros(states.shape[1])
        for row in states:
            oracle += row
        oracle /= states.shape[0]
        np.testing.assert_allclose(embedder.embed(tokens), oracle, atol=1e-12)
        batch = embedder.embed_all([["x"], tokens, ["y", "z"]])
        np.testing.assert_allclose(batch[1], oracle, atol=1e-12)

    def test_empty_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            StaticEmbedder(tiny_model).embed([])


class TestRetrieveNearest:
    """The ranking ``build_warming_subset`` retrieves by."""

    def test_exact_match_wins(self, tiny_model, tiny_world):
        corpus, ontology, _, _ = tiny_world
        name, definition = ontology.types[0]
        plan = build_warming_subset(tiny_model, EventOntology(ontology.types[:1]), corpus,
                                    RetrievalConfig())
        best_id, sim = plan.per_type[name][0]
        assert best_id == f"def:{name}"
        assert corpus.definitions[best_id] == definition
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_planted_argmax(self):
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0], "t": [0.9, 0.1]}
        best_id, _ = nearest(table, defs={"first": "a", "second": "b"})
        assert best_id == "first"

    def test_tie_breaks_lexicographically(self):
        table = {"a": [1.0, 0.0], "b": [2.0, 0.0], "t": [1.0, 0.0]}
        best_id, _ = nearest(table, defs={"zzz": "a", "aaa": "b"})
        assert best_id == "aaa"

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(2, 30))
            table = {f"w{i}": rng.normal(size=6) for i in range(n)}
            table["t"] = rng.normal(size=6)
            defs = {f"id{i:03d}": f"w{i}" for i in range(n)}
            got_id, got_sim = nearest(table, defs=defs)
            target = table["t"]
            best = None
            for did in sorted(defs):
                v = table[defs[did]]
                sim = float(np.dot(target, v) / (np.linalg.norm(target) * np.linalg.norm(v)))
                if best is None or sim > best[1]:
                    best = (did, sim)
            assert got_id == best[0]
            assert got_sim == pytest.approx(best[1], abs=1e-12)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        table = {f"w{i}": rng.normal(size=4) for i in range(10)}
        table["t"] = rng.normal(size=4)
        defs = {f"id{i}": f"w{i}" for i in range(10)}
        base = nearest(table, defs=defs)[0]
        scaled = {k: 7.5 * v for k, v in table.items()}
        assert nearest(scaled, defs=defs)[0] == base

    def test_empty_inventory(self, tiny_model, tiny_world):
        _, ontology, _, _ = tiny_world
        with pytest.raises(ConfigurationError):
            build_warming_subset(tiny_model, ontology, AlignmentCorpus((), {}), RetrievalConfig())


class TestBuildWarmingSubset:
    def test_singleton_ontology(self, tiny_model, tiny_world):
        corpus, ontology, _, _ = tiny_world
        single = EventOntology(ontology.types[:1])
        plan = build_warming_subset(tiny_model, single, corpus, RetrievalConfig())
        expected_id = f"def:{single.types[0][0]}"
        assert plan.retrieved_ids == {expected_id}
        assert all(i.definition_id == expected_id for i in plan.corpus.instances)
        assert len(plan.corpus.instances) > 0

    def test_shared_retrieval_deduplicates(self, tiny_model, tiny_world):
        corpus, ontology, _, _ = tiny_world
        name, definition = ontology.types[0]
        doubled = EventOntology(((name, definition), ("clone_type", definition)))
        plan = build_warming_subset(tiny_model, doubled, corpus, RetrievalConfig())
        assert plan.retrieved_ids == {f"def:{name}"}

    def test_membership_is_filter_oracle(self, tiny_model, tiny_world):
        corpus, ontology, _, _ = tiny_world
        plan = build_warming_subset(tiny_model, ontology, corpus, RetrievalConfig())
        oracle = tuple(i for i in corpus.instances if i.definition_id in plan.retrieved_ids)
        assert plan.corpus.instances == oracle
        expected_count = sum(
            sum(1 for i in corpus.instances if i.definition_id == did)
            for did in plan.retrieved_ids
        )
        assert len(plan.corpus.instances) == expected_count

    def test_full_inventory_retained(self, tiny_model, tiny_world):
        corpus, ontology, _, _ = tiny_world
        plan = build_warming_subset(tiny_model, ontology, corpus, RetrievalConfig())
        assert plan.full_definitions == dict(corpus.definitions)
        assert set(plan.corpus.definitions) == set(plan.retrieved_ids)

    def test_manifest_shape(self, tiny_model, tiny_world):
        corpus, ontology, _, _ = tiny_world
        plan = build_warming_subset(tiny_model, ontology, corpus, RetrievalConfig())
        manifest = plan.manifest()
        assert set(manifest["per_type"]) == set(ontology.names)
        for hits in manifest["per_type"].values():
            assert all({"definition_id", "similarity"} <= set(h) for h in hits)

    def test_reads_the_model_in_place(self, tiny_model, tiny_world, monkeypatch):
        corpus, ontology, _, _ = tiny_world
        model = tiny_model.copy()
        before = {name: array.tobytes() for name, array in model.parameters().items()}

        def fail(self):
            raise AssertionError("retrieval copied the model")

        monkeypatch.setattr(warming.DualEncoderModel, "copy", fail)
        build_warming_subset(model, ontology, corpus, RetrievalConfig())
        assert {name: array.tobytes() for name, array in model.parameters().items()} == before


class TestMixedSampler:
    DEFS = {f"d{i}": (f"w{i}",) for i in range(12)}

    def test_ratio_zero_matches_uniform_stream(self):
        mixed = mixed_negative_sampler(self.DEFS, {"d1", "d2"}, 2, 0.0)
        uniform = uniform_negative_sampler(self.DEFS, 2)
        for seed in range(5):
            a = [mixed("d0", np.random.default_rng(seed)) for _ in range(10)]
            b = [uniform("d0", np.random.default_rng(seed)) for _ in range(10)]
            assert a == b

    def test_only_positive_in_strong_pool_falls_back(self):
        sampler = mixed_negative_sampler(self.DEFS, {"d3"}, 2, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = sampler("d3", rng)
            assert all(did != "d3" for did, _ in out)

    def test_ratio_one_samples_strong_only(self):
        strong = {"d0", "d1", "d2", "d3", "d4"}
        sampler = mixed_negative_sampler(self.DEFS, strong, 2, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            out = sampler("d0", rng)
            assert all(did in strong for did, _ in out)
            assert all(did != "d0" for did, _ in out)
            assert len({did for did, _ in out}) == 2

    def test_strong_ids_must_exist(self):
        with pytest.raises(ConfigurationError):
            mixed_negative_sampler(self.DEFS, {"missing"}, 2, 0.5)

    def test_exhausted_inventory(self):
        defs = {"a": ("x",), "b": ("y",)}
        sampler = mixed_negative_sampler(defs, {"a"}, 2, 0.5)
        with pytest.raises(ConfigurationError):
            sampler("a", np.random.default_rng(0))


class TestWarm:
    def test_empty_corpus_rejected(self, tiny_model, tiny_world):
        corpus, _, _, _ = tiny_world
        empty = AlignmentCorpus((), {"a": ("x",)})
        with pytest.raises(ConfigurationError):
            warm(tiny_model.copy(), empty, corpus.definitions, WarmConfig())

    def test_ratio_zero_reproduces_pretrain(self, tiny_world):
        corpus, _, _, _ = tiny_world
        from defex.encoder import DualEncoderModel, EncoderConfig

        config = EncoderConfig(vocab_size=512, embedding_dim=32, n_layers=1, n_heads=4)
        train_config = TrainConfig(epochs=2, seed=77)
        warm_config = WarmConfig(epochs=2, seed=77, strong_negative_ratio=0.0,
                                 learning_rate=train_config.learning_rate)

        model_a = DualEncoderModel.initialize(config, corpus, seed=5)
        model_a, _ = pretrain(model_a, corpus, train_config)
        model_b = DualEncoderModel.initialize(config, corpus, seed=5)
        model_b, _ = warm(model_b, corpus, corpus.definitions, warm_config)
        for name, array in model_a.parameters().items():
            np.testing.assert_array_equal(array, model_b.parameters()[name])


class TestWarmWithGold:
    def make_world(self):
        ontology = EventOntology((("alpha", ("sense", "one")), ("beta", ("sense", "two"))))
        docs = (
            Document("d0", (("w", "x", "y"),), ((0, 1, 1),)),
            Document("d1", (("p", "q"),), ((0, 0, 0),)),
        )
        gold = GoldMentionSet((
            MentionRecord("d0", 0, 1, 1, "alpha"),
            MentionRecord("d1", 0, 0, 0, "beta"),
        ))
        return ontology, docs, gold

    def test_empty_gold_rejected(self, tiny_model):
        ontology, docs, _ = self.make_world()
        with pytest.raises(ConfigurationError):
            warm_with_gold(tiny_model.copy(), GoldMentionSet(()), docs, ontology, WarmConfig())

    def test_unresolvable_type(self, tiny_model):
        ontology, docs, _ = self.make_world()
        bad = GoldMentionSet((MentionRecord("d0", 0, 1, 1, "ghost"),))
        with pytest.raises(ValidationError):
            warm_with_gold(tiny_model.copy(), bad, docs, ontology, WarmConfig())

    def test_gold_instances_and_negative_pool(self):
        ontology, docs, gold = self.make_world()
        instances, defs = gold_alignment_instances(gold, docs, ontology)
        assert len(instances) == 2
        assert instances[0].definition == ("sense", "one")
        assert instances[0].definition_id == f"{ONTOLOGY_ID_PREFIX}alpha"
        # with a two-type ontology the strong pool for an alpha mention is
        # exactly the beta definition
        sampler = mixed_negative_sampler(defs, defs.keys(), 1, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(25):
            out = sampler(f"{ONTOLOGY_ID_PREFIX}alpha", rng)
            assert out == [(f"{ONTOLOGY_ID_PREFIX}beta", ("sense", "two"))]

    def test_runs_end_to_end(self, tiny_model, tiny_world):
        _, ontology, docs, gold = tiny_world
        model = tiny_model.copy()
        model, report = warm_with_gold(model, gold, docs, ontology,
                                       WarmConfig(epochs=2, seed=0))
        assert len(report.epoch_losses) == 2

    def test_no_negative_has_its_positive_text(self, tiny_model, tiny_world, monkeypatch):
        # the corpus inventory holds each ontology definition under a
        # ``def:`` id of its own
        corpus, ontology, docs, gold = tiny_world
        drawn = []

        def drawing_loop(model, instances, sampler, config):
            rng = np.random.default_rng(0)
            for _ in range(50):
                for inst in instances:
                    drawn.extend((inst, neg) for neg in sampler(inst.definition_id, rng))
            return TrainReport((0.0,), (0.0,))

        monkeypatch.setattr(warming, "run_training_loop", drawing_loop)
        warm_with_gold(tiny_model.copy(), gold, docs, ontology, WarmConfig(), corpus.definitions)
        assert len(drawn) == 50 * len(gold.records) * WarmConfig().n_negatives
        assert all(tokens != inst.definition for inst, (_, tokens) in drawn)
        # the inventory's other definitions stay in the random pool
        assert any(not did.startswith(ONTOLOGY_ID_PREFIX) for _, (did, _) in drawn)
