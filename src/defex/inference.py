"""Disjoint-encoding extraction.

The target definitions are encoded once into a reusable index; every
candidate mention is then scored against all of them by cosine similarity
in vector space, so a corpus of N candidates and T types costs N + T
encoder calls instead of the N * T a joint scorer needs.  Call counters
make that claim checkable.

Extraction is a score step, then a threshold step.  :func:`score_candidates`
encodes each candidate sentence once and returns the candidates x types
cosine matrix, raising on any non-finite score; :func:`select_predictions`
keeps the candidates whose best score exceeds a threshold.  A threshold
sweep therefore scores the corpus once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document, EventOntology, PredictionRecord, PredictionSet, SpanKey
from .encoder import CONTEXT, DEFINITION, ENCODE_BATCH_SIZE, DualEncoderModel, sub_token_range
from .errors import (
    ArgumentError,
    DegenerateVectorError,
    FingerprintError,
    NumericalError,
    ValidationError,
)

# Sentences per encode_pooled call in score_candidates, a multiple of
# ENCODE_BATCH_SIZE.  On wide-extract (5,000 sentences, 10,000 candidates) one
# block's mention vectors are 1.0 MB and its cosine temporary 0.7 MB, where
# one call over the corpus held 5.1 MB of vectors and a 3.2 MB temporary.
SCORE_BLOCK = 16 * ENCODE_BATCH_SIZE


@dataclass(frozen=True)
class InferenceConfig:
    threshold: float = 0.7

    def __post_init__(self):
        if not (-1.0 < self.threshold < 1.0):
            raise ArgumentError("threshold must lie strictly inside (-1, 1)")


@dataclass
class CallCounter:
    """Counts individual encoder invocations (one per sequence encoded)."""

    context_encoder_calls: int = 0
    definition_encoder_calls: int = 0

    def record(self, side: str, n: int = 1) -> None:
        if n < 0:
            raise ArgumentError("cannot record a negative call count")
        if side == CONTEXT:
            self.context_encoder_calls += n
        elif side == DEFINITION:
            self.definition_encoder_calls += n
        else:
            raise ArgumentError(f"unknown encoder side {side!r}")


@dataclass(frozen=True)
class DefinitionIndex:
    """Definition vectors for the T target types, in ontology order, tied to
    the producing model by content fingerprint."""

    ontology: EventOntology
    vectors: np.ndarray  # (T, dim)
    fingerprint: str

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ontology):
            raise ValidationError(
                f"index has {self.vectors.shape[0]} vectors for "
                f"{len(self.ontology)} ontology types"
            )
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateVectorError("definition index contains a zero vector")
        object.__setattr__(self, "_norms", norms)


def build_definition_index(model: DualEncoderModel, ontology: EventOntology,
                           counter: CallCounter | None = None) -> DefinitionIndex:
    """Encode every target definition exactly once, in ontology order."""
    if len(ontology) == 0:
        raise ArgumentError("cannot index an empty ontology")
    seqs = [model.tokenizer.encode_words(definition)[0] for _, definition in ontology.types]
    vectors, _ = model.encode_pooled(DEFINITION, seqs, counter=counter)
    return DefinitionIndex(ontology, vectors, model.fingerprint())


def _require_fresh(model: DualEncoderModel, index: DefinitionIndex) -> None:
    if index.fingerprint != model.fingerprint():
        raise FingerprintError(
            "definition index was built by a different model state; rebuild it"
        )


def _cosines(index: DefinitionIndex, mentions: np.ndarray) -> np.ndarray:
    """(n, T) cosines of n mention vectors against the index."""
    norms = np.linalg.norm(mentions, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("mention pooled to a zero vector")
    scores = mentions @ index.vectors.T
    scores /= norms[:, None] * index._norms
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite cosine: the model or the index holds NaN or inf")
    return scores


def score_mention(model: DualEncoderModel, index: DefinitionIndex,
                  sentence: Sequence[str], span: tuple[int, int],
                  counter: CallCounter | None = None) -> list[tuple[str, float]]:
    """Cosine of one candidate mention against every target type, in
    ontology order."""
    _require_fresh(model, index)
    mention = model.mention_vector(sentence, span, counter=counter)
    sims = _cosines(index, mention.values[None, :])[0]
    return [(name, float(s)) for name, s in zip(index.ontology.names, sims)]


def score_candidates(model: DualEncoderModel, index: DefinitionIndex,
                     documents: Sequence[Document], counter: CallCounter | None = None
                     ) -> tuple[list[SpanKey], np.ndarray]:
    """The score step: the key of every candidate and its (n_candidates, T)
    cosines against the index.  Each sentence with candidates is
    contextualized once and shared by its candidates.  Candidates run in
    extraction order: documents as given, sentences ascending, candidates as
    listed.

    Sentences are pooled ``SCORE_BLOCK`` at a time, shortest first, so the
    step holds one block's mention vectors rather than the corpus's; a
    block is a whole number of ``encode_pooled`` batches, so each sentence
    meets the same batch-mates as in one call over all of them."""
    _require_fresh(model, index)
    keys, seqs, ranges, firsts = [], [], [], []
    for doc in documents:
        by_sentence: dict[int, list[tuple[int, int]]] = {}
        for sent_idx, start, end in doc.candidates:
            by_sentence.setdefault(sent_idx, []).append((start, end))
        for sent_idx in sorted(by_sentence):
            ids, word_spans = model.tokenizer.encode_words(doc.sentences[sent_idx])
            firsts.append(len(keys))
            for start, end in by_sentence[sent_idx]:
                keys.append((doc.doc_id, sent_idx, start, end))
                ranges.append(sub_token_range(word_spans, start, end))
            seqs.append(ids)
    firsts.append(len(keys))
    scores = np.empty((len(keys), len(index.ontology)))
    by_length = sorted(range(len(seqs)), key=lambda row: len(seqs[row]))
    for first in range(0, len(by_length), SCORE_BLOCK):
        rows = sorted(by_length[first : first + SCORE_BLOCK])
        outs = [k for row in rows for k in range(firsts[row], firsts[row + 1])]
        block = [(i, *ranges[k]) for i, row in enumerate(rows)
                 for k in range(firsts[row], firsts[row + 1])]
        mentions, _ = model.encode_pooled(CONTEXT, [seqs[row] for row in rows], block,
                                          counter=counter)
        scores[outs] = _cosines(index, mentions)
    return keys, scores


def select_predictions(keys: Sequence[SpanKey], scores: np.ndarray, names: Sequence[str],
                       threshold: float) -> PredictionSet:
    """The threshold step: a candidate is emitted iff its best cosine
    strictly exceeds the threshold; the label is the argmax type (ties to
    the smallest ontology index)."""
    best = np.argmax(scores, axis=1)
    top = scores[np.arange(len(best)), best]
    return PredictionSet(tuple(
        PredictionRecord(*key, names[b], float(score))
        for key, b, score in zip(keys, best, top) if score > threshold
    ))


def extract(model: DualEncoderModel, index: DefinitionIndex,
            documents: Sequence[Document], config: InferenceConfig,
            counter: CallCounter | None = None) -> tuple[PredictionSet, CallCounter]:
    """Thresholded extraction over all candidate spans: the score step, then
    the threshold step."""
    counter = counter if counter is not None else CallCounter()
    keys, scores = score_candidates(model, index, documents, counter=counter)
    return select_predictions(keys, scores, index.ontology.names, config.threshold), counter


def threshold_sweep(model: DualEncoderModel, index: DefinitionIndex,
                    documents: Sequence[Document],
                    thresholds: Sequence[float]) -> dict[float, PredictionSet]:
    """Extraction at several thresholds on one fixed model/index, from one
    score step."""
    configs = [InferenceConfig(threshold=t) for t in thresholds]
    keys, scores = score_candidates(model, index, documents)
    return {
        float(c.threshold): select_predictions(keys, scores, index.ontology.names, c.threshold)
        for c in configs
    }


def counter_report(counter: CallCounter, n_candidates: int, n_types: int) -> dict:
    """One extraction run's encoder calls next to the joint-scoring
    arithmetic: a joint scorer runs one forward per (candidate, type) pair,
    the disjoint design one per candidate plus one per type."""
    if n_candidates < 1 or n_types < 1:
        raise ArgumentError("need at least one candidate and one type")
    joint = n_candidates * n_types
    disjoint = n_candidates + n_types
    return {
        "n_candidates": n_candidates,
        "n_types": n_types,
        "context_encoder_calls": counter.context_encoder_calls,
        "definition_encoder_calls": counter.definition_encoder_calls,
        "joint_pair_count": joint,
        "disjoint_call_count": disjoint,
        "invocation_ratio": joint / disjoint,
    }
