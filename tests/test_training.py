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
    uniform_negative_sampler,
)

from helpers import (
    batch_loss,
    check_gradients,
    dense_loss_and_gradients,
    encode_definition,
    ranking_loss,
    sample_kink_free_batch,
    sample_negatives,
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
        out = uniform_negative_sampler(self.DEFS, 2)("b", np.random.default_rng(0))
        assert sorted(did for did, _ in out) == ["a", "c"]

    def test_positive_never_sampled(self):
        defs = {f"d{i:04d}": (f"w{i}",) for i in range(1000)}
        sampler = uniform_negative_sampler(defs, 2)
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            out = sampler("d0500", rng)
            assert all(did != "d0500" for did, _ in out)
            assert len({did for did, _ in out}) == 2

    def test_deterministic(self):
        defs = {f"d{i}": (f"w{i}",) for i in range(50)}
        sampler = uniform_negative_sampler(defs, 3)
        seq_one = [sampler("d0", np.random.default_rng(9)) for _ in range(1)]
        seq_two = [sampler("d0", np.random.default_rng(9)) for _ in range(1)]
        assert seq_one == seq_two

    def test_insufficient(self):
        with pytest.raises(ConfigurationError):
            uniform_negative_sampler(self.DEFS, 3)("a", np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_sorting_reference(self, n):
        """The same picks and the same generator state as sorting the ids
        less the positive on every draw, for positives anywhere in the
        sorted order and one outside the inventory."""
        defs = {f"d{i:02d}": (f"w{i}",) for i in (7, 3, 11, 0, 5, 9, 1)}
        sampler = uniform_negative_sampler(defs, n)
        for seed in range(40):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for positive in [*sorted(defs), "d99", "d04"]:
                assert sampler(positive, rng) == sample_negatives(defs, positive, n, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


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

    def test_inactive_hinge_zero_gradient(self, tiny_world, tiny_model, monkeypatch):
        """With no active hinge every parameter's gradient is zero, and
        nothing is re-encoded with caches."""
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
        encoded = record_encodes(monkeypatch, model)
        loss, grads, _ = loss_and_gradients(model, batch, margin=tiny_margin)
        assert loss == 0.0
        assert grads.keys() == model.params.keys()
        for name, g in grads.items():
            assert g.shape == model.params[name].shape and np.all(g == 0.0), name
        assert encoded[CONTEXT, True] == encoded[DEFINITION, True] == []

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
    the batch pooled as its own sequence through ``encode_pooled``, in the
    scoring forward and in the backward's re-encode of the live rows."""
    ranges = [(i, lo, hi) for i, (lo, hi) in enumerate(batch.span_ranges)]
    anchors, _ = model.encode_pooled(CONTEXT, batch.ctx_seqs, ranges)
    defvecs, _ = model.encode_pooled(DEFINITION, batch.def_seqs)

    def backward(live_slots, d_anchors, d_slots):
        live = np.flatnonzero(live_slots[:, 0])
        _, back_c = model.encode_pooled(CONTEXT, batch.ctx_seqs, [ranges[i] for i in live],
                                        keep_caches=True)
        slots = np.flatnonzero(live_slots.ravel())
        _, back_d = model.encode_pooled(DEFINITION, [batch.def_seqs[i] for i in slots],
                                        keep_caches=True)
        grads = back_c(d_anchors)
        grads.update(back_d(d_slots))
        return grads

    return anchors, defvecs.reshape(batch.size, 1 + batch.n_negatives, -1), backward


def record_encodes(monkeypatch, model):
    """Patch ``model.encode_batch`` to record, per side, the sequences it
    encodes with and without caches."""
    encoded = {(side, keep): [] for side in (CONTEXT, DEFINITION) for keep in (False, True)}
    original = model.encode_batch

    def recording(side, id_sequences, counter=None, keep_caches=False, positions=None):
        encoded[side, keep_caches].extend(tuple(seq) for seq in id_sequences)
        return original(side, id_sequences, counter, keep_caches, positions)

    monkeypatch.setattr(model, "encode_batch", recording)
    return encoded


def live_sequences(batch, active):
    """The context sequences of the instances with an active hinge, and the
    distinct definition sequences that are such an instance's positive or an
    active negative."""
    live = active.any(axis=1)
    contexts = [tuple(batch.ctx_seqs[i]) for i in np.flatnonzero(live)]
    slots = np.concatenate([live[:, None], active], axis=1).ravel()
    definitions = {tuple(batch.def_seqs[i]) for i in np.flatnonzero(slots)}
    return contexts, definitions


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
        calls = []

        def counted(model, batch):
            calls.append(batch)
            return pool_every_slot(model, batch)

        monkeypatch.setattr(training, "_batch_vectors", counted)
        ref_loss, ref_grads, ref_diag = loss_and_gradients(tiny_model, batch, margin=0.2)
        ref_forward_loss, _ = batch_loss(tiny_model, batch, margin=0.2)
        # the reference replaced the scoring forward and the backward of
        # both calls, so this is no self-comparison
        assert calls == [batch, batch]
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
        """Scoring encodes each distinct definition once without caches; the
        backward re-encodes each live one once with caches."""
        model = tiny_model.copy()
        batch = prepare_batch(model, self.repeated_items(tiny_world))
        assert len(batch.def_seqs) == batch.size * (1 + batch.n_negatives) == 15
        distinct = {tuple(seq) for seq in batch.def_seqs}
        assert len(distinct) == 3
        encoded = record_encodes(monkeypatch, model)
        _, _, diag = loss_and_gradients(model, batch, margin=0.2)
        batch_loss(model, batch, margin=0.2)
        live_contexts, live_definitions = live_sequences(batch, diag["active"])
        assert live_definitions
        assert len(encoded[DEFINITION, False]) == 2 * len(distinct)
        assert set(encoded[DEFINITION, False]) == distinct
        assert sorted(encoded[DEFINITION, True]) == sorted(live_definitions)
        assert len(encoded[CONTEXT, False]) == 2 * batch.size
        assert encoded[CONTEXT, True] == live_contexts

    def test_gradient_check_on_repeated_definitions(self, tiny_world, tiny_model):
        model = tiny_model.copy()
        items = self.repeated_items(tiny_world)
        _, diag = batch_loss(model, prepare_batch(model, items), margin=0.2)
        # every hinge active and far from its kink, so finite differences hold
        margin = float(diag["gaps"].max()) + 0.1
        assert check_gradients(model, items, margin, n_coordinates=250, seed=5) < 1e-4


def split_margin(model, batch):
    """A margin that leaves some instances of ``batch`` with an active hinge
    and others with none: the midpoint between two neighbouring per-instance
    smallest gaps."""
    _, diag = batch_loss(model, batch, margin=0.2)
    smallest = np.sort(diag["gaps"].min(axis=1))
    middle = len(smallest) // 2
    return float(smallest[middle - 1] + smallest[middle]) / 2.0


class TestLiveRows:
    """A step backpropagates only the instances with an active hinge; the
    result must match the dense step that backpropagates every slot."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_world, tiny_model):
        corpus, _, _, _ = tiny_world
        model, _ = pretrain(tiny_model.copy(), corpus, TrainConfig(epochs=3, seed=2))
        return model

    @staticmethod
    def items(tiny_world, seed, n=8):
        corpus, _, _, _ = tiny_world
        rng = np.random.default_rng(seed)
        sampler = uniform_negative_sampler(corpus.definitions, 2)
        idx = rng.choice(len(corpus.instances), size=n, replace=False)
        return [(corpus.instances[int(i)], sampler(corpus.instances[int(i)].definition_id, rng))
                for i in idx]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("split", [False, True], ids=["margin-0.2", "half-live"])
    def test_gradients_match_dense_reference(self, tiny_world, trained, seed, split):
        batch = prepare_batch(trained, self.items(tiny_world, seed))
        margin = split_margin(trained, batch) if split else 0.2
        loss, grads, diag = loss_and_gradients(trained, batch, margin)
        live = diag["active"].any(axis=1)
        assert live.any() and not live.all()
        assert margin > 0.0
        ref_loss, ref_grads = dense_loss_and_gradients(trained, batch, margin)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert grads.keys() == ref_grads.keys() == trained.params.keys()
        floor = 1e-12 * max(float(np.abs(g).max()) for g in ref_grads.values())
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-12, atol=floor, err_msg=name)

    def test_only_live_rows_are_reencoded(self, tiny_world, trained, monkeypatch):
        model = trained.copy()
        batch = prepare_batch(model, self.items(tiny_world, 3))
        margin = split_margin(model, batch)
        encoded = record_encodes(monkeypatch, model)
        _, _, diag = loss_and_gradients(model, batch, margin)
        live_contexts, live_definitions = live_sequences(batch, diag["active"])
        assert 0 < len(live_contexts) < batch.size
        assert encoded[CONTEXT, False] == [tuple(seq) for seq in batch.ctx_seqs]
        assert sorted(encoded[CONTEXT, True]) == sorted(live_contexts)
        assert set(encoded[DEFINITION, False]) == {tuple(seq) for seq in batch.def_seqs}
        assert sorted(encoded[DEFINITION, True]) == sorted(live_definitions)
        assert len(live_definitions) < len(encoded[DEFINITION, False])


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

    def test_active_share_falls(self, tiny_world, tiny_model):
        corpus, _, _, _ = tiny_world
        _, report = pretrain(tiny_model.copy(), corpus, TrainConfig(epochs=6, seed=0))
        shares = report.epoch_active_shares
        assert len(shares) == 6 and all(0.0 <= s <= 1.0 for s in shares)
        assert shares[-1] < shares[0]

    def test_report_validation(self):
        with pytest.raises(NumericalError):
            TrainReport((0.5, float("nan")), (0.1, 0.1), (1.0, 1.0))
        with pytest.raises(NumericalError):
            TrainReport((-0.5,), (0.1,), (1.0,))
