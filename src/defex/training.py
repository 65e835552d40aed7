"""Contrastive training of the dual encoder.

Each training instance contributes a hinge term per negative definition:
``max(0, margin - (cos(anchor, positive) - cos(anchor, negative)))``,
averaged over the instance's negatives and then over the batch.  Gradients
are computed analytically through cosine, pooling, the definition head, and
both encoders; the tests compare them with central finite differences
(``check_gradients`` in ``tests/helpers.py``).

A step encodes each distinct definition token sequence once, however many
instances use it as positive or negative and under whichever ids; each
slot's gradient is summed into its sequence's row before the definition
backward.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import AlignmentCorpus, AlignmentInstance, Tokens
from .encoder import CONTEXT, DEFINITION, DualEncoderModel, sub_token_range
from .errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateVectorError,
    NumericalError,
)
from .nn import Adam

# one batch item: an instance plus its sampled negatives [(definition_id, tokens), ...]
BatchItem = tuple[AlignmentInstance, Sequence[tuple[str, Tokens]]]
NegativeSampler = Callable[[str, np.random.Generator], list[tuple[str, Tokens]]]


@dataclass(frozen=True)
class TrainConfig:
    margin: float = 0.2
    n_negatives: int = 2
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 7e-4
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.margin < math.inf:
            raise ArgumentError("margin must be positive and finite")
        if self.n_negatives < 1:
            raise ArgumentError("n_negatives must be at least 1")
        if self.epochs < 1:
            raise ArgumentError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ArgumentError("batch_size must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ArgumentError("learning_rate must be positive and finite")


@dataclass(frozen=True)
class WarmConfig(TrainConfig):
    """Fine-tuning configuration: half of the negatives come from the
    retrieved strong pool by default, and the step size is smaller than in
    pretraining so the fine-tune cannot wash out what the encoders already
    know about out-of-target senses."""

    strong_negative_ratio: float = 0.5
    learning_rate: float = 3e-4

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.strong_negative_ratio <= 1.0):
            raise ArgumentError("strong_negative_ratio must be in [0, 1]")


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: tuple[float, ...]
    epoch_seconds: tuple[float, ...]

    def __post_init__(self):
        losses = np.asarray(self.epoch_losses, dtype=np.float64)
        if losses.size and (not np.all(np.isfinite(losses)) or np.any(losses < 0)):
            raise NumericalError("epoch losses must be finite and non-negative")


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------


def sample_negatives(definitions: Mapping[str, Tokens], positive_id: str, n: int,
                     rng) -> list[tuple[str, Tokens]]:
    """Draw ``n`` distinct definitions uniformly without replacement,
    excluding the positive.  ``rng`` may be a Generator or a seed."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ids = sorted(k for k in definitions if k != positive_id)
    if len(ids) < n:
        raise ConfigurationError(
            f"need {n} negative definitions but only {len(ids)} are available "
            f"besides {positive_id!r}"
        )
    chosen = rng.choice(len(ids), size=n, replace=False)
    return [(ids[i], definitions[ids[i]]) for i in chosen]


def uniform_negative_sampler(definitions: Mapping[str, Tokens], n: int) -> NegativeSampler:
    def sampler(positive_id: str, rng: np.random.Generator):
        return sample_negatives(definitions, positive_id, n, rng)

    return sampler


# ---------------------------------------------------------------------------
# batched forward/backward
# ---------------------------------------------------------------------------


@dataclass
class PreparedBatch:
    """Tokenized batch: context sequences with mention sub-token ranges, and
    per instance the positive definition followed by its negatives."""

    ctx_seqs: list[list[int]]
    span_ranges: list[tuple[int, int]]
    def_seqs: list[list[int]]
    n_negatives: int

    @property
    def size(self) -> int:
        return len(self.ctx_seqs)


def prepare_batch(model: DualEncoderModel, items: Sequence[BatchItem]) -> PreparedBatch:
    if not items:
        raise ArgumentError("cannot prepare an empty batch")
    n_negatives = len(items[0][1])
    if n_negatives < 1:
        raise ArgumentError("each batch item needs at least one negative")
    ctx_seqs, span_ranges, def_seqs = [], [], []
    for inst, negatives in items:
        if len(negatives) != n_negatives:
            raise ArgumentError("all batch items must carry the same negative count")
        sub_ids, spans = model.tokenizer.encode_words(inst.sentence)
        ctx_seqs.append(sub_ids)
        span_ranges.append(sub_token_range(spans, inst.start, inst.end))
        for tokens in [inst.definition] + [tokens for _, tokens in negatives]:
            ids, _ = model.tokenizer.encode_words(tokens)
            def_seqs.append(ids)
    return PreparedBatch(ctx_seqs, span_ranges, def_seqs, n_negatives)


def _batch_vectors(model: DualEncoderModel, batch: PreparedBatch):
    """Anchors (B, dim) and definition vectors (B, 1 + negatives, dim) for a
    prepared batch, plus the two sides' backward functions.  The definition
    backward takes one gradient row per slot of ``batch.def_seqs``."""
    ranges = [(i, lo, hi) for i, (lo, hi) in enumerate(batch.span_ranges)]
    anchors, back_c = model.encode_pooled(CONTEXT, batch.ctx_seqs, ranges, keep_caches=True)
    row_of: dict[tuple[int, ...], int] = {}
    slot_rows = np.array([row_of.setdefault(tuple(seq), len(row_of)) for seq in batch.def_seqs])
    distinct, back_distinct = model.encode_pooled(DEFINITION, list(row_of), keep_caches=True)
    defvecs = distinct[slot_rows].reshape(batch.size, 1 + batch.n_negatives, -1)

    def back_d(d_slots: np.ndarray) -> dict[str, np.ndarray]:
        d_distinct = np.zeros_like(distinct)
        np.add.at(d_distinct, slot_rows, d_slots)
        return back_distinct(d_distinct)

    return anchors, defvecs, (back_c, back_d)


def _hinge_terms(anchors, defvecs, margin):
    positives = defvecs[:, 0, :]
    negatives = defvecs[:, 1:, :]
    norm_a = np.linalg.norm(anchors, axis=1)
    norm_p = np.linalg.norm(positives, axis=1)
    norm_n = np.linalg.norm(negatives, axis=2)
    if np.any(norm_a == 0.0) or np.any(norm_p == 0.0) or np.any(norm_n == 0.0):
        raise DegenerateVectorError("zero vector reached the ranking loss")
    cos_pos = np.einsum("bd,bd->b", anchors, positives) / (norm_a * norm_p)
    cos_neg = np.einsum("bd,bkd->bk", anchors, negatives) / (norm_a[:, None] * norm_n)
    gaps = cos_pos[:, None] - cos_neg
    hinge = margin - gaps
    active = hinge > 0.0
    b, k = cos_neg.shape
    # np.maximum propagates non-finite hinge values into the loss, so the
    # training loop's finiteness check can name the offending batch
    loss = float(np.maximum(hinge, 0.0).sum() / (b * k))
    diag = {"cos_pos": cos_pos, "cos_neg": cos_neg, "gaps": gaps, "active": active}
    geometry = (positives, negatives, norm_a, norm_p, norm_n, cos_pos, cos_neg)
    return loss, active, geometry, diag


def loss_and_gradients(model: DualEncoderModel, batch: PreparedBatch, margin: float):
    """Batch loss plus analytic gradients for every trainable parameter.

    Returns ``(loss, grads, diagnostics)`` where ``grads`` is keyed like
    ``model.parameters()``.
    """
    anchors, defvecs, (back_c, back_d) = _batch_vectors(model, batch)
    loss, active, geometry, diag = _hinge_terms(anchors, defvecs, margin)
    positives, negatives, norm_a, norm_p, norm_n, cos_pos, cos_neg = geometry
    b, k = cos_neg.shape
    coeff = 1.0 / (b * k)
    dcos_pos = -coeff * active.sum(axis=1).astype(np.float64)
    dcos_neg = coeff * active.astype(np.float64)

    # d cos(u, v) / du = v / (|u||v|) - cos * u / |u|^2  (and symmetrically in v)
    inv_ap = 1.0 / (norm_a * norm_p)
    inv_an = 1.0 / (norm_a[:, None] * norm_n)
    inv_a2 = 1.0 / (norm_a * norm_a)
    danchors = dcos_pos[:, None] * (positives * inv_ap[:, None] - cos_pos[:, None] * anchors * inv_a2[:, None])
    danchors += np.einsum(
        "bk,bkd->bd", dcos_neg, negatives * inv_an[:, :, None]
    ) - (dcos_neg * cos_neg).sum(axis=1)[:, None] * anchors * inv_a2[:, None]
    dpositives = dcos_pos[:, None] * (
        anchors * inv_ap[:, None] - cos_pos[:, None] * positives / (norm_p * norm_p)[:, None]
    )
    dnegatives = dcos_neg[:, :, None] * (
        anchors[:, None, :] * inv_an[:, :, None]
        - cos_neg[:, :, None] * negatives / (norm_n * norm_n)[:, :, None]
    )

    d_defvecs = np.concatenate([dpositives[:, None, :], dnegatives], axis=1)
    grads = back_c(danchors)
    grads.update(back_d(d_defvecs.reshape(-1, d_defvecs.shape[-1])))
    return loss, grads, diag


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

_LOOP_SALT = 0x7A17


def _loop_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**32, _LOOP_SALT])


def run_training_loop(model: DualEncoderModel, instances: Sequence[AlignmentInstance],
                      sampler: NegativeSampler, config: TrainConfig) -> TrainReport:
    """The shared optimization loop: shuffled mini-batches, fresh negatives
    every epoch, adaptive-moment updates on both encoders and the head, and
    the last state kept (no dev-set selection)."""
    if not instances:
        raise ConfigurationError("no training instances: nothing to train on")
    adam = Adam(model.parameters(), lr=config.learning_rate)
    rng = _loop_rng(config.seed)
    losses, seconds = [], []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(instances))
        epoch_loss = 0.0
        for batch_no in range(0, len(order), config.batch_size):
            batch_indices = order[batch_no : batch_no + config.batch_size]
            items = []
            for i in batch_indices:
                inst = instances[int(i)]
                items.append((inst, sampler(inst.definition_id, rng)))
            batch = prepare_batch(model, items)
            loss, grads, _ = loss_and_gradients(model, batch, config.margin)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch}, batch starting at {batch_no}"
                )
            with model.writable():
                adam.step(grads)
            epoch_loss += loss * len(batch_indices)
        losses.append(epoch_loss / len(instances))
        seconds.append(time.perf_counter() - started)
    return TrainReport(tuple(losses), tuple(seconds))


def pretrain(model: DualEncoderModel, corpus: AlignmentCorpus,
             config: TrainConfig) -> tuple[DualEncoderModel, TrainReport]:
    """Offline contrastive pretraining over the full alignment corpus with
    uniformly sampled negatives."""
    if len(corpus.instances) == 0:
        raise ConfigurationError("alignment corpus has no instances")
    if len(corpus.definitions) < 2:
        raise ConfigurationError("alignment corpus needs at least 2 definitions")
    sampler = uniform_negative_sampler(corpus.definitions, config.n_negatives)
    report = run_training_loop(model, corpus.instances, sampler, config)
    return model, report

