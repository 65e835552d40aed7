import dataclasses
import math

import numpy as np
import pytest

from defex import nn, training
from defex.corpus import AlignmentCorpus, AlignmentInstance, SyntheticSpec, generate_synthetic_corpus
from defex.encoder import CONTEXT, DEFINITION, DualEncoderModel, EncoderConfig, cosine
from defex.errors import ArgumentError, ConfigurationError, NumericalError
from defex.nn import Adam
from defex.training import (
    TrainConfig,
    TrainReport,
    WarmConfig,
    loss_and_gradients,
    prepare_batch,
    pretrain,
    sample_negatives,
    uniform_negative_sampler,
)

from helpers import (
    batch_loss,
    check_gradients,
    encode_definition,
    ranking_loss,
    sample_kink_free_batch,
)


def unit_vector_with_cosine(target_cos):
    """A 2-d vector whose cosine with [1, 0] is exactly target_cos."""
    return np.array([target_cos, math.sqrt(1.0 - target_cos**2)])


ANCHOR = np.array([1.0, 0.0])


def reference_hinge(anchor, positive, negatives, margin):
    """Independent evaluation of the per-instance objective, written as the
    plain formula over explicit cosines."""

    def cos(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    total = 0.0
    for neg in negatives:
        total += max(0.0, margin - (cos(anchor, positive) - cos(anchor, neg)))
    return total / len(negatives)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.margin == 0.2
        assert config.n_negatives == 2
        assert config.epochs == 10
        assert config.batch_size == 16

    def test_warm_defaults(self):
        config = WarmConfig()
        assert config.strong_negative_ratio == 0.5
        assert config.epochs == 10

    @pytest.mark.parametrize("kwargs", [
        {"margin": 0.0},
        {"n_negatives": 0},
        {"epochs": 0},
        {"batch_size": 0},
        {"strong_negative_ratio": 1.5},
        {"margin": math.nan},
        {"margin": math.inf},
        {"learning_rate": math.inf},
    ])
    def test_invalid(self, kwargs):
        # the strong/random negative mix exists only when warming
        cls = WarmConfig if "strong_negative_ratio" in kwargs else TrainConfig
        with pytest.raises(ArgumentError):
            cls(**kwargs)


class TestSampleNegatives:
    DEFS = {"a": ("one",), "b": ("two",), "c": ("three",)}

    def test_forced_outcome(self):
        out = sample_negatives(self.DEFS, "b", 2, rng=np.random.default_rng(0))
        assert sorted(did for did, _ in out) == ["a", "c"]

    def test_positive_never_sampled(self):
        defs = {f"d{i:04d}": (f"w{i}",) for i in range(1000)}
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            out = sample_negatives(defs, "d0500", 2, rng)
            assert all(did != "d0500" for did, _ in out)
            assert len({did for did, _ in out}) == 2

    def test_deterministic(self):
        defs = {f"d{i}": (f"w{i}",) for i in range(50)}
        seq_one = [sample_negatives(defs, "d0", 3, np.random.default_rng(9)) for _ in range(1)]
        seq_two = [sample_negatives(defs, "d0", 3, np.random.default_rng(9)) for _ in range(1)]
        assert seq_one == seq_two

    def test_insufficient(self):
        with pytest.raises(ConfigurationError):
            sample_negatives(self.DEFS, "a", 3, rng=np.random.default_rng(0))


class TestRankingLoss:
    def test_hinge_inactive(self):
        positive = unit_vector_with_cosine(1.0)
        negative = unit_vector_with_cosine(-1.0)
        assert ranking_loss(ANCHOR, positive, [negative], 0.2) == 0.0

    def test_direct_evaluation(self):
        positive = unit_vector_with_cosine(0.5)
        negative = unit_vector_with_cosine(0.6)
        loss = ranking_loss(ANCHOR, positive, [negative], 0.2)
        assert loss == pytest.approx(0.3, abs=1e-12)

    def test_two_negatives_mixed(self):
        positive = unit_vector_with_cosine(0.5)
        negatives = [unit_vector_with_cosine(0.45), unit_vector_with_cosine(0.2)]
        loss = ranking_loss(ANCHOR, positive, negatives, 0.2)
        assert loss == pytest.approx(0.075, abs=1e-12)

    def test_empty_negatives(self):
        with pytest.raises(ArgumentError):
            ranking_loss(ANCHOR, unit_vector_with_cosine(0.5), [], 0.2)

    def test_matches_reference_on_random_fixtures(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            dim = int(rng.integers(2, 12))
            anchor = rng.normal(size=dim)
            positive = rng.normal(size=dim)
            negatives = [rng.normal(size=dim) for _ in range(int(rng.integers(1, 5)))]
            margin = float(rng.uniform(0.05, 0.5))
            got = ranking_loss(anchor, positive, negatives, margin)
            want = reference_hinge(anchor, positive, negatives, margin)
            assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative_and_zero_iff_satisfied(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            anchor = rng.normal(size=4)
            positive = rng.normal(size=4)
            negatives = [rng.normal(size=4) for _ in range(3)]
            margin = 0.2
            loss = ranking_loss(anchor, positive, negatives, margin)
            assert loss >= 0.0
            gaps = [
                cosine(anchor, positive) - cosine(anchor, neg) for neg in negatives
            ]
            if loss == 0.0:
                assert all(g >= margin for g in gaps)
            else:
                assert any(g < margin for g in gaps)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        anchor = rng.normal(size=6)
        positive = rng.normal(size=6)
        negatives = [rng.normal(size=6) for _ in range(4)]
        base = ranking_loss(anchor, positive, negatives, 0.2)
        for _ in range(5):
            perm = [negatives[i] for i in rng.permutation(4)]
            assert ranking_loss(anchor, positive, perm, 0.2) == pytest.approx(base, abs=1e-12)

    def test_monotonicity(self):
        # lower positive cosine -> loss never decreases; higher negative
        # cosine -> loss never decreases
        negatives = [unit_vector_with_cosine(0.3)]
        losses = [
            ranking_loss(ANCHOR, unit_vector_with_cosine(c), negatives, 0.2)
            for c in np.linspace(-0.9, 0.9, 19)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        positive = unit_vector_with_cosine(0.5)
        losses = [
            ranking_loss(ANCHOR, positive, [unit_vector_with_cosine(c)], 0.2)
            for c in np.linspace(-0.9, 0.9, 19)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


class TestBatchedLoss:
    def make_items(self, tiny_world, tiny_model, n=6, seed=0):
        corpus, _, _, _ = tiny_world
        rng = np.random.default_rng(seed)
        sampler = uniform_negative_sampler(corpus.definitions, 2)
        idx = rng.choice(len(corpus.instances), size=n, replace=False)
        return [
            (corpus.instances[int(i)], sampler(corpus.instances[int(i)].definition_id, rng))
            for i in idx
        ]

    def test_batched_equals_reference_composition(self, tiny_world, tiny_model):
        items = self.make_items(tiny_world, tiny_model)
        batch = prepare_batch(tiny_model, items)
        loss, _ = batch_loss(tiny_model, batch, margin=0.2)
        per_instance = []
        for inst, negatives in items:
            anchor = tiny_model.mention_vector(inst.sentence, (inst.start, inst.end)).values
            positive = encode_definition(tiny_model, inst.definition)
            neg_vecs = [encode_definition(tiny_model, tokens) for _, tokens in negatives]
            per_instance.append(ranking_loss(anchor, positive, neg_vecs, 0.2))
        assert loss == pytest.approx(float(np.mean(per_instance)), abs=1e-10)

    def test_gradient_check(self, tiny_world, tiny_model):
        corpus, _, _, _ = tiny_world
        model = tiny_model.copy()
        config = TrainConfig(batch_size=4)
        items = sample_kink_free_batch(model, corpus, config, rng=12)
        err = check_gradients(model, items, config.margin, n_coordinates=250, seed=7)
        assert err < 1e-4

    def test_gradient_check_with_pooled_positions(self, tiny_world, tiny_model, monkeypatch):
        """Every mention covers part of its sentence, so the context side's
        last block runs fewer query positions than the padded length."""
        corpus, _, _, _ = tiny_world
        model = tiny_model.copy()
        config = TrainConfig(batch_size=4)
        items = sample_kink_free_batch(model, corpus, config, rng=5)
        batch = prepare_batch(model, items)
        assert all(hi - lo + 1 < len(seq) for seq, (lo, hi) in zip(batch.ctx_seqs, batch.span_ranges))
        widths = []
        original = nn.block_forward

        def recording(x, *args, **kwargs):
            out, cache = original(x, *args, **kwargs)
            widths.append((x.shape[1], out.shape[1]))
            return out, cache

        monkeypatch.setattr(nn, "block_forward", recording)
        assert check_gradients(model, items, config.margin, n_coordinates=250, seed=3) < 1e-4
        assert any(out < full for full, out in widths)

    def test_inactive_hinge_zero_gradient(self, tiny_world, tiny_model):
        model = tiny_model.copy()
        batch = None
        for seed in range(200):
            items = self.make_items(tiny_world, model, n=1, seed=seed)
            candidate = prepare_batch(model, items)
            _, diag = batch_loss(model, candidate, margin=0.2)
            if float(diag["gaps"].min()) > 0.02:
                batch = candidate
                break
        assert batch is not None, "no all-positive-gap batch found in 200 tries"
        # margin below every observed gap: all hinges inactive
        _, diag = batch_loss(model, batch, margin=0.2)
        tiny_margin = float(diag["gaps"].min()) / 2.0
        loss, grads, _ = loss_and_gradients(model, batch, margin=tiny_margin)
        assert loss == 0.0
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_one_step_decreases_loss(self, tiny_world, tiny_model):
        corpus, _, _, _ = tiny_world
        config = TrainConfig(batch_size=1)
        items = None
        rng = np.random.default_rng(21)
        sampler = uniform_negative_sampler(corpus.definitions, 2)
        for inst in corpus.instances:
            candidate = [(inst, sampler(inst.definition_id, rng))]
            batch = prepare_batch(tiny_model, candidate)
            loss, diag = batch_loss(tiny_model, batch, margin=0.2)
            if loss > 1e-3:
                items = candidate
                break
        assert items is not None, "no active-hinge instance found"
        passed = False
        for lr in (1e-2, 1e-3, 1e-4):
            model = tiny_model.copy()
            batch = prepare_batch(model, items)
            loss_before, grads, _ = loss_and_gradients(model, batch, margin=0.2)
            with model.writable():
                Adam(model.params, lr=lr).step(grads)
            loss_after, _ = batch_loss(model, prepare_batch(model, items), margin=0.2)
            if loss_after < loss_before:
                passed = True
        assert passed


def pool_every_slot(model, batch):
    """Reference for ``training._batch_vectors``: every definition slot of
    the batch pooled as its own sequence through ``encode_pooled``."""
    ranges = [(i, lo, hi) for i, (lo, hi) in enumerate(batch.span_ranges)]
    anchors, back_c = model.encode_pooled(CONTEXT, batch.ctx_seqs, ranges, keep_caches=True)
    defvecs, back_d = model.encode_pooled(DEFINITION, batch.def_seqs, keep_caches=True)
    return anchors, defvecs.reshape(batch.size, 1 + batch.n_negatives, -1), (back_c, back_d)


class TestDistinctDefinitions:
    """A training step encodes each distinct definition text once and sums
    its slots' gradients; results must match pooling every slot."""

    @staticmethod
    def repeated_items(tiny_world):
        corpus, _, _, _ = tiny_world
        by_definition = {}
        for inst in corpus.instances:
            by_definition.setdefault(inst.definition_id, []).append(inst)
        a, b, c = sorted(by_definition)[:3]
        defs = corpus.definitions
        alias_a = ("alias:" + a, defs[a])  # the same text as ``a`` under another id
        return [
            (by_definition[a][0], [(b, defs[b]), (c, defs[c])]),
            (by_definition[a][1], [(c, defs[c]), (b, defs[b])]),
            (by_definition[b][0], [alias_a, (c, defs[c])]),
            (by_definition[c][0], [(a, defs[a]), alias_a]),
            (by_definition[c][1], [(b, defs[b]), alias_a]),
        ]

    def test_loss_and_gradients_match_pooling_every_slot(self, tiny_world, tiny_model,
                                                          monkeypatch):
        batch = prepare_batch(tiny_model, self.repeated_items(tiny_world))
        loss, grads, diag = loss_and_gradients(tiny_model, batch, margin=0.2)
        forward_loss, _ = batch_loss(tiny_model, batch, margin=0.2)
        monkeypatch.setattr(training, "_batch_vectors", pool_every_slot)
        ref_loss, ref_grads, ref_diag = loss_and_gradients(tiny_model, batch, margin=0.2)
        ref_forward_loss, _ = batch_loss(tiny_model, batch, margin=0.2)
        assert loss == ref_loss and forward_loss == ref_forward_loss
        for key in ("cos_pos", "cos_neg"):
            assert diag[key].tobytes() == ref_diag[key].tobytes()
        assert grads.keys() == ref_grads.keys()
        # the floor covers gradients that are zero up to rounding, such as
        # the attention key biases', which softmax cancels
        floor = 1e-12 * max(float(np.abs(g).max()) for g in ref_grads.values())
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-12, atol=floor, err_msg=name)

    def test_definition_side_encodes_each_distinct_sequence_once(self, tiny_world, tiny_model,
                                                                 monkeypatch):
        model = tiny_model.copy()
        batch = prepare_batch(model, self.repeated_items(tiny_world))
        assert len(batch.def_seqs) == batch.size * (1 + batch.n_negatives) == 15
        distinct = {tuple(seq) for seq in batch.def_seqs}
        assert len(distinct) == 3
        encoded = {CONTEXT: [], DEFINITION: []}
        original = model.encode_batch

        def recording(side, id_sequences, *args, **kwargs):
            encoded[side].extend(tuple(seq) for seq in id_sequences)
            return original(side, id_sequences, *args, **kwargs)

        monkeypatch.setattr(model, "encode_batch", recording)
        loss_and_gradients(model, batch, margin=0.2)
        batch_loss(model, batch, margin=0.2)
        assert len(encoded[DEFINITION]) == 2 * len(distinct)
        assert set(encoded[DEFINITION]) == distinct
        assert len(encoded[CONTEXT]) == 2 * batch.size

    def test_gradient_check_on_repeated_definitions(self, tiny_world, tiny_model):
        model = tiny_model.copy()
        items = self.repeated_items(tiny_world)
        _, diag = batch_loss(model, prepare_batch(model, items), margin=0.2)
        # every hinge active and far from its kink, so finite differences hold
        margin = float(diag["gaps"].max()) + 0.1
        assert check_gradients(model, items, margin, n_coordinates=250, seed=5) < 1e-4


class TestPretrain:
    def small_setup(self, seed=0):
        spec = SyntheticSpec(n_types=4, mentions_per_type=4, instances_per_definition=10,
                             n_distractor_definitions=2, neighbors_per_type=1)
        corpus, onto, docs, gold = generate_synthetic_corpus(spec, seed=5)
        config = EncoderConfig(vocab_size=512, embedding_dim=32, n_layers=2, n_heads=4)
        model = DualEncoderModel.initialize(config, corpus, seed=seed)
        return model, corpus

    def test_empty_corpus_rejected(self, tiny_model):
        corpus = AlignmentCorpus((), {"a": ("x",), "b": ("y",), "c": ("z",)})
        with pytest.raises(ConfigurationError):
            pretrain(tiny_model.copy(), corpus, TrainConfig())

    def test_loss_decreases_on_separable_corpus(self):
        model, corpus = self.small_setup()
        _, report = pretrain(model, corpus, TrainConfig(seed=0))
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_seeded_rerun_identical(self):
        params = []
        for _ in range(2):
            model, corpus = self.small_setup(seed=1)
            model, _ = pretrain(model, corpus, TrainConfig(seed=42, epochs=3))
            params.append({k: v.copy() for k, v in model.params.items()})
        for name in params[0]:
            diff = np.abs(params[0][name] - params[1][name]).max()
            assert diff <= 1e-7, name

    def test_non_finite_loss_aborts(self):
        model, corpus = self.small_setup()
        with model.writable():
            model.params["ctx.emb"][:] = np.nan
        with pytest.raises(NumericalError, match="batch"):
            pretrain(model, corpus, TrainConfig(epochs=1))

    def test_report_validation(self):
        with pytest.raises(NumericalError):
            TrainReport((0.5, float("nan")), (0.1, 0.1))
        with pytest.raises(NumericalError):
            TrainReport((-0.5,), (0.1,))
