"""Query-specific warming: retrieve the training definitions closest to the
target ontology, restrict the alignment corpus to them, and fine-tune with
a mix of strong (retrieved-set) and random negatives.

Also covers the annotated variant, where gold mentions replace the
retrieved instances and the other ontology definitions act as the strong
negative pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    AlignmentCorpus,
    AlignmentInstance,
    Document,
    EventOntology,
    GoldMentionSet,
    Tokens,
)
from .encoder import DEFINITION, DualEncoderModel, cosine
from .errors import ArgumentError, ConfigurationError, ValidationError
from .training import (
    NegativeSampler,
    TrainReport,
    WarmConfig,
    run_training_loop,
    uniform_negative_sampler,
)


@dataclass(frozen=True)
class RetrievalConfig:
    retrieved_count: int = 1

    def __post_init__(self):
        if self.retrieved_count < 1:
            raise ArgumentError("retrieved_count must be at least 1")


class StaticEmbedder:
    """The model's definition encoder as a plain sentence embedder: mean of
    the per-sub-token states, no definition head.  It reads the model it is
    given, not a copy, so it embeds with the model's current parameters.
    Retrieval calls :meth:`embed_all`; :meth:`embed` is kept because the
    benchmark's trace wraps it."""

    def __init__(self, model: DualEncoderModel):
        self._model = model

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        return self.embed_all([tokens])[0]

    def embed_all(self, token_sequences: Sequence[Sequence[str]]) -> np.ndarray:
        """One row per token sequence, encoded in batches."""
        seqs = [self._model.tokenizer.encode_words(tokens)[0] for tokens in token_sequences]
        vectors, _ = self._model.encode_pooled(DEFINITION, seqs, head=False)
        return vectors


def rank_by_cosine(target: np.ndarray,
                   definition_vectors: Mapping[str, np.ndarray]) -> list[tuple[str, float]]:
    """Inventory ids with their cosine to ``target``, best first; ties break
    toward the lexicographically smallest definition_id."""
    sims = [(definition_id, cosine(target, vec)) for definition_id, vec in definition_vectors.items()]
    sims.sort(key=lambda pair: (-pair[1], pair[0]))
    return sims


@dataclass(frozen=True)
class WarmingPlan:
    """Outcome of retrieval: the restricted fine-tuning corpus, the retrieved
    definition ids (strong negative pool), per-type retrieval details for
    the audit manifest, and the full inventory kept for random negatives."""

    corpus: AlignmentCorpus
    retrieved_ids: frozenset[str]
    per_type: dict[str, tuple[tuple[str, float], ...]]
    full_definitions: Mapping[str, Tokens]

    def manifest(self) -> dict:
        return {
            "retrieved_definition_ids": sorted(self.retrieved_ids),
            "per_type": {
                name: [{"definition_id": did, "similarity": sim} for did, sim in hits]
                for name, hits in self.per_type.items()
            },
            "instance_count": len(self.corpus.instances),
            "note": "fine-tuning pool = alignment instances whose definition_id was retrieved",
        }


def build_warming_subset(model: DualEncoderModel, ontology: EventOntology,
                         corpus: AlignmentCorpus, config: RetrievalConfig) -> WarmingPlan:
    """For every target type, retrieve the most similar inventory definitions
    and keep exactly the instances aligned to the retrieved set."""
    if not corpus.definitions:
        raise ConfigurationError("alignment corpus has an empty definition inventory")
    embedder = StaticEmbedder(model)
    vectors = dict(zip(corpus.definitions, embedder.embed_all(list(corpus.definitions.values()))))
    targets = embedder.embed_all([definition for _, definition in ontology.types])
    per_type: dict[str, tuple[tuple[str, float], ...]] = {}
    retrieved: set[str] = set()
    for (name, _), target in zip(ontology.types, targets):
        hits = tuple(rank_by_cosine(target, vectors)[: config.retrieved_count])
        per_type[name] = hits
        retrieved.update(did for did, _ in hits)
    if not retrieved:
        raise ConfigurationError("retrieval produced an empty definition set")
    instances = tuple(i for i in corpus.instances if i.definition_id in retrieved)
    restricted = {did: corpus.definitions[did] for did in sorted(retrieved)}
    warm_corpus = AlignmentCorpus(instances, restricted)
    return WarmingPlan(warm_corpus, frozenset(retrieved), per_type, dict(corpus.definitions))


def mixed_negative_sampler(full_definitions: Mapping[str, Tokens],
                           strong_ids, n: int, strong_ratio: float) -> NegativeSampler:
    """Per negative draw: with probability ``strong_ratio`` sample from the
    strong pool (retrieved ids minus the positive), otherwise from the full
    inventory.  An exhausted strong pool falls back to the full inventory.
    At ratio 0 this is exactly the uniform sampler (same random stream).
    """
    if strong_ratio == 0.0:
        return uniform_negative_sampler(full_definitions, n)
    strong_sorted = sorted(strong_ids)
    full_sorted = sorted(full_definitions)
    missing = [did for did in strong_sorted if did not in full_definitions]
    if missing:
        raise ConfigurationError(f"strong ids missing from the inventory: {missing[:5]}")
    strong_index = {did: i for i, did in enumerate(strong_sorted)}
    full_index = {did: i for i, did in enumerate(full_sorted)}

    def sampler(positive_id: str, rng: np.random.Generator):
        excluded = [positive_id]
        out: list[tuple[str, Tokens]] = []
        for _ in range(n):
            use_strong = bool(rng.random() < strong_ratio)
            pick = None
            if use_strong:
                pick = _draw_skipping(strong_sorted, strong_index, excluded, rng)
            if pick is None:
                pick = _draw_skipping(full_sorted, full_index, excluded, rng)
            if pick is None:
                raise ConfigurationError(
                    f"inventory exhausted while sampling {n} negatives for {positive_id!r}"
                )
            excluded.append(pick)
            out.append((pick, full_definitions[pick]))
        return out

    return sampler


def _draw_skipping(ids: Sequence[str], index: Mapping[str, int], excluded: Sequence[str],
                   rng: np.random.Generator) -> str | None:
    """A uniform draw from sorted ``ids`` less ``excluded``, by one
    ``rng.integers`` over the remaining count; None when nothing remains.
    Equals indexing the filtered list, without building it."""
    skipped = sorted(index[did] for did in excluded if did in index)
    if len(skipped) == len(ids):
        return None
    k = int(rng.integers(0, len(ids) - len(skipped)))
    for position in skipped:
        if position > k:
            break
        k += 1
    return ids[k]


def warm(model: DualEncoderModel, warming_corpus: AlignmentCorpus,
         full_definitions: Mapping[str, Tokens],
         config: WarmConfig) -> tuple[DualEncoderModel, TrainReport]:
    """Fine-tune on the warming subset with mixed strong/random negatives.

    The strong pool is the warming corpus' own definition inventory; random
    negatives come from ``full_definitions``.
    """
    if len(warming_corpus.instances) == 0:
        raise ConfigurationError("warming corpus is empty")
    sampler = mixed_negative_sampler(
        full_definitions, warming_corpus.definitions.keys(),
        config.n_negatives, config.strong_negative_ratio,
    )
    report = run_training_loop(model, warming_corpus.instances, sampler, config)
    return model, report


ONTOLOGY_ID_PREFIX = "ontology:"


def gold_alignment_instances(gold: GoldMentionSet, documents: Sequence[Document],
                             ontology: EventOntology) -> tuple[tuple[AlignmentInstance, ...], dict[str, Tokens]]:
    """Turn annotated mentions into alignment instances whose positive
    definition is the mention type's ontology definition."""
    docs = {doc.doc_id: doc for doc in documents}
    definitions = {f"{ONTOLOGY_ID_PREFIX}{name}": tokens for name, tokens in ontology.types}
    instances = []
    for record in gold.records:
        if record.type_name not in ontology:
            raise ValidationError(
                f"gold type {record.type_name!r} does not resolve in the ontology"
            )
        doc = docs.get(record.doc_id)
        if doc is None:
            raise ValidationError(f"gold mention references unknown document {record.doc_id!r}")
        if not (0 <= record.sentence_idx < len(doc.sentences)):
            raise ValidationError(
                f"gold mention references missing sentence {record.sentence_idx} "
                f"of {record.doc_id!r}"
            )
        sentence = doc.sentences[record.sentence_idx]
        definition_id = f"{ONTOLOGY_ID_PREFIX}{record.type_name}"
        instances.append(
            AlignmentInstance(
                sentence, record.start, record.end,
                ontology.definition_of(record.type_name), definition_id,
            )
        )
    return tuple(instances), definitions


def warm_with_gold(model: DualEncoderModel, gold: GoldMentionSet,
                   documents: Sequence[Document], ontology: EventOntology,
                   config: WarmConfig,
                   corpus_definitions: Mapping[str, Tokens] | None = None,
                   ) -> tuple[DualEncoderModel, TrainReport]:
    """Fine-tune on annotated mentions instead of retrieved instances.

    Strong negatives are the other ontology definitions; when an alignment
    inventory is supplied it widens the random pool, less its entries that
    repeat an ontology definition's text under another id (else a mention's
    own definition could be drawn as its negative).
    """
    if len(gold.records) == 0:
        raise ConfigurationError("gold mention set is empty; nothing to fine-tune on")
    instances, ontology_defs = gold_alignment_instances(gold, documents, ontology)
    full = dict(ontology_defs)
    if corpus_definitions:
        ontology_texts = set(ontology_defs.values())
        for did, tokens in corpus_definitions.items():
            if tuple(tokens) not in ontology_texts:
                full.setdefault(did, tuple(tokens))
    sampler = mixed_negative_sampler(
        full, ontology_defs.keys(), config.n_negatives, config.strong_negative_ratio
    )
    report = run_training_loop(model, instances, sampler, config)
    return model, report
