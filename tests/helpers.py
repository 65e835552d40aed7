"""Reference code the tests check the package against: the scalar ranking
loss, a forward-only batch loss, the dense batch gradient, a
finite-difference gradient check, the one-definition encoder, pooling over
full encoder states, the filtered-list negative samplers, the from-scratch
model fingerprint and small record helpers.  None of it runs in the package
itself."""

import hashlib
import json
from dataclasses import asdict
from typing import Mapping, Sequence

import numpy as np

from defex import training
from defex.corpus import AlignmentCorpus, AlignmentInstance, Document, SpanKey, Tokens
from defex.encoder import CONTEXT, DEFINITION, DualEncoderModel, cosine
from defex.errors import ArgumentError, ConfigurationError
from defex.training import BatchItem, PreparedBatch, TrainConfig, prepare_batch


def ranking_loss(anchor, positive, negatives, margin: float) -> float:
    """The per-instance hinge objective over pairwise cosines; the training
    loop's batched path must agree with it."""
    if margin <= 0:
        raise ArgumentError("margin must be positive")
    negatives = list(negatives)
    if not negatives:
        raise ArgumentError("at least one negative definition vector is required")
    pos = cosine(anchor, positive)
    total = 0.0
    for neg in negatives:
        total += max(0.0, margin - (pos - cosine(anchor, neg)))
    return total / len(negatives)


def batch_loss(model: DualEncoderModel, batch: PreparedBatch, margin: float):
    """Batch loss without gradients; returns (loss, diagnostics)."""
    anchors, defvecs, _ = training._batch_vectors(model, batch)
    loss, _, _, diag = training._hinge_terms(anchors, defvecs, margin)
    return loss, diag


def dense_loss_and_gradients(model: DualEncoderModel, batch: PreparedBatch, margin: float):
    """``loss_and_gradients`` as it was before it skipped dead instances:
    every context row and every distinct definition is encoded once with
    caches, and every slot is backpropagated, an inactive one with a zero
    gradient.  Returns ``(loss, grads)``."""
    ranges = [(i, lo, hi) for i, (lo, hi) in enumerate(batch.span_ranges)]
    anchors, back_c = model.encode_pooled(CONTEXT, batch.ctx_seqs, ranges, keep_caches=True)
    row_of = {}
    slot_rows = np.array([row_of.setdefault(tuple(seq), len(row_of)) for seq in batch.def_seqs])
    distinct, back_distinct = model.encode_pooled(DEFINITION, list(row_of), keep_caches=True)
    defvecs = distinct[slot_rows].reshape(batch.size, 1 + batch.n_negatives, -1)
    norm_a = np.linalg.norm(anchors, axis=1)[:, None]
    unit_a = anchors / norm_a
    norm_d = np.linalg.norm(defvecs, axis=2)[:, :, None]
    unit_d = defvecs / norm_d
    cos = np.einsum("bd,bkd->bk", unit_a, unit_d)
    gaps = cos[:, :1] - cos[:, 1:]
    active = margin - gaps > 0.0
    b, k = active.shape
    loss = float(np.maximum(margin - gaps, 0.0).sum() / (b * k))
    # d loss / d cos per slot: the positive loses one share per active
    # hinge, each active negative gains one
    d_cos = np.concatenate([-active.sum(axis=1, keepdims=True), active], axis=1) / (b * k)
    # d cos(u, v) / du = (v/|v| - cos u/|u|) / |u|, and symmetrically in v
    d_anchors = np.einsum("bk,bkd->bd", d_cos, unit_d - cos[:, :, None] * unit_a[:, None, :])
    d_anchors /= norm_a
    d_defvecs = d_cos[:, :, None] * (unit_a[:, None, :] - cos[:, :, None] * unit_d) / norm_d
    d_distinct = np.zeros_like(distinct)
    np.add.at(d_distinct, slot_rows, d_defvecs.reshape(-1, d_defvecs.shape[-1]))
    grads = back_c(d_anchors)
    grads.update(back_distinct(d_distinct))
    return loss, grads


def sample_kink_free_batch(model: DualEncoderModel, corpus: AlignmentCorpus,
                           config: TrainConfig, rng, kink_tol: float = 1e-3,
                           max_tries: int = 100) -> list[BatchItem]:
    """Sample a batch whose hinge terms all sit safely away from the kink,
    so finite differences are trustworthy."""
    rng = np.random.default_rng(rng)
    sampler = training.uniform_negative_sampler(corpus.definitions, config.n_negatives)
    for _ in range(max_tries):
        idx = rng.choice(len(corpus.instances), size=min(config.batch_size, len(corpus.instances)),
                         replace=False)
        items = [
            (corpus.instances[int(i)], sampler(corpus.instances[int(i)].definition_id, rng))
            for i in idx
        ]
        _, diag = batch_loss(model, prepare_batch(model, items), config.margin)
        if np.all(np.abs(config.margin - diag["gaps"]) >= kink_tol):
            return items
    raise ConfigurationError(f"could not sample a kink-free batch in {max_tries} tries")


def check_gradients(model: DualEncoderModel, items: Sequence[BatchItem], margin: float,
                    n_coordinates: int = 200, step: float = 1e-4, seed: int = 0) -> float:
    """The largest relative error between ``loss_and_gradients``'s analytic
    parameter gradients and central finite differences, over a random subset
    of coordinates."""
    batch = prepare_batch(model, items)
    _, grads, _ = training.loss_and_gradients(model, batch, margin)
    params = model.params
    coords = [(name, flat) for name in sorted(params) for flat in range(params[name].size)]
    rng = np.random.default_rng(seed)
    if len(coords) > n_coordinates:
        chosen = rng.choice(len(coords), size=n_coordinates, replace=False)
        coords = [coords[int(i)] for i in chosen]
    worst = 0.0
    with model.writable():
        for name, flat in coords:
            array = params[name]
            original = array.flat[flat]
            h = step * max(1.0, abs(original))
            array.flat[flat] = original + h
            plus, _ = batch_loss(model, batch, margin)
            array.flat[flat] = original - h
            minus, _ = batch_loss(model, batch, margin)
            array.flat[flat] = original
            numeric = (plus - minus) / (2.0 * h)
            analytic = grads[name].flat[flat]
            scale = max(abs(analytic), abs(numeric))
            if scale < 1e-12:
                continue
            worst = max(worst, abs(analytic - numeric) / max(scale, 1e-8))
    return worst


def encode_definition(model: DualEncoderModel, definition: Sequence[str]) -> np.ndarray:
    """Head-transformed mean over every sub-token of one definition."""
    ids, _ = model.tokenizer.encode_words(definition)
    vectors, _ = model.encode_pooled(DEFINITION, [ids])
    return vectors[0]


def pool_full_states(model: DualEncoderModel, side: str, id_sequences, ranges):
    """``encode_pooled``'s result computed the long way: every position of
    one padded batch of all sequences runs through every block, then each
    ``(row, lo, hi)`` range is averaged.  Returns ``(vectors, backward)``
    like ``encode_pooled`` with ``keep_caches``."""
    encoder = model.context_encoder if side == CONTEXT else model.definition_encoder
    states, _, cache = model.encode_batch(side, id_sequences, keep_caches=True)
    head_cache = None
    if side == DEFINITION:
        states, head_cache = model.ffn_head.forward(states)
    vectors = np.array([states[row, lo : hi + 1].mean(axis=0) for row, lo, hi in ranges])

    def backward(d_vectors):
        d_states = np.zeros_like(states)
        for (row, lo, hi), d in zip(ranges, d_vectors):
            d_states[row, lo : hi + 1] += d / (hi - lo + 1)
        grads = {}
        if side == DEFINITION:
            d_states, grads = model.ffn_head.backward(d_states, head_cache)
        grads.update(encoder.backward(d_states, cache))
        return grads

    return vectors, backward


def sample_negatives(definitions: Mapping[str, Tokens], positive_id: str, n: int,
                     rng: np.random.Generator) -> list[tuple[str, Tokens]]:
    """The uniform sampler's draw written the long way: the inventory's ids
    less the positive, sorted on every call, then one ``rng.choice``."""
    ids = sorted(k for k in definitions if k != positive_id)
    if len(ids) < n:
        raise ConfigurationError(
            f"need {n} negative definitions but only {len(ids)} are available "
            f"besides {positive_id!r}"
        )
    chosen = rng.choice(len(ids), size=n, replace=False)
    return [(ids[i], definitions[ids[i]]) for i in chosen]


def mixed_sample_negatives(full_definitions: Mapping[str, Tokens], strong_ids, positive_id: str,
                           n: int, strong_ratio: float,
                           rng: np.random.Generator) -> list[tuple[str, Tokens]]:
    """The mixed sampler's draw written the long way: per negative, the
    strong or full pool is built as a filtered sorted list and indexed by
    one ``rng.integers``."""
    strong_sorted = sorted(strong_ids)
    full_sorted = sorted(full_definitions)
    chosen: set[str] = set()
    out = []
    for _ in range(n):
        use_strong = bool(rng.random() < strong_ratio)
        pool = ()
        if use_strong:
            pool = [d for d in strong_sorted if d != positive_id and d not in chosen]
        if not pool:
            pool = [d for d in full_sorted if d != positive_id and d not in chosen]
        if not pool:
            raise ConfigurationError(
                f"inventory exhausted while sampling {n} negatives for {positive_id!r}"
            )
        pick = pool[int(rng.integers(0, len(pool)))]
        chosen.add(pick)
        out.append((pick, full_definitions[pick]))
    return out


def mention_tokens(instance: AlignmentInstance) -> Tokens:
    return instance.sentence[instance.start : instance.end + 1]


def all_candidate_keys(documents: Sequence[Document]) -> tuple[SpanKey, ...]:
    """The candidate spans of a document collection as span keys."""
    return tuple((doc.doc_id, s, start, end)
                 for doc in documents for s, start, end in doc.candidates)


def reference_fingerprint(model):
    """The digest computed from scratch: sha256 over the config JSON, the
    tokenizer JSON, the literal head kind ``"two_layer"`` (the only head
    there is; checkpoints still record it), then each parameter's name and
    bytes in name order."""
    digest = hashlib.sha256()
    digest.update(json.dumps(asdict(model.config), sort_keys=True).encode())
    digest.update(json.dumps(model.tokenizer.to_dict(), sort_keys=True).encode())
    digest.update(b"two_layer")
    params = model.params
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()
