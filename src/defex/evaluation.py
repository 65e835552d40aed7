"""Span-level micro precision/recall/F1, naive baselines, the end-to-end
pipeline helper, the ablation study, and the inference speed benchmark.

:func:`run_pipeline` takes a model its caller has already pretrained and
runs warm -> index -> extract -> eval on it.  :func:`run_ablation`
initializes and pretrains one model per seed and runs every variant on a
copy of it.

The speed benchmark batches both of its sides the same way: disjoint
extraction and the joint pair-wise stand-in both pool through
:meth:`~defex.encoder.DualEncoderModel.encode_pooled`.

Two scoring modes: ``identification`` matches predictions to gold on the
span key alone; ``identification+classification`` also requires the type
to match.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import (
    AlignmentCorpus,
    Document,
    EventOntology,
    GoldMentionSet,
    PredictionRecord,
    PredictionSet,
    SpanKey,
    validate_against_ontology,
)
from .encoder import CONTEXT, DualEncoderModel, EncoderConfig, sub_token_range
from .errors import ArgumentError, ValidationError
from .inference import (
    CallCounter,
    InferenceConfig,
    build_definition_index,
    extract,
)
from .training import TrainConfig, WarmConfig, pretrain
from .warming import RetrievalConfig, build_warming_subset, warm

IDENTIFICATION = "identification"
CLASSIFICATION = "identification+classification"
MODES = (IDENTIFICATION, CLASSIFICATION)


@dataclass(frozen=True)
class EvalReport:
    mode: str
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, mode: str, tp: int, fp: int, fn: int) -> "EvalReport":
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
        return cls(mode, precision, recall, f1, tp, fp, fn)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
        }


def micro_prf(preds: PredictionSet, gold: GoldMentionSet, mode: str,
              ontology: EventOntology | None = None) -> EvalReport:
    """Micro-averaged precision/recall/F1 over span records.

    With an ontology supplied, both sets are validated against it first.
    """
    if mode not in MODES:
        raise ArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    if ontology is not None:
        validate_against_ontology(preds, ontology)
        validate_against_ontology(gold, ontology)
    if mode == IDENTIFICATION:
        pred_keys = preds.keys()
        gold_keys = gold.keys()
        tp = len(pred_keys & gold_keys)
        fp = len(pred_keys - gold_keys)
        fn = len(gold_keys - pred_keys)
    else:
        pred_pairs = preds.typed_keys()
        gold_pairs = gold.typed_keys()
        tp = len(pred_pairs & gold_pairs)
        fp = len(pred_pairs - gold_pairs)
        fn = len(gold_pairs - pred_pairs)
    return EvalReport.from_counts(mode, tp, fp, fn)


# ---------------------------------------------------------------------------
# naive baselines
# ---------------------------------------------------------------------------


def _select_at_gold_rate(gold: GoldMentionSet, candidates: Sequence[SpanKey],
                         rng: np.random.Generator) -> list[SpanKey]:
    gold_keys = gold.keys()
    missing = gold_keys - set(candidates)
    if missing:
        raise ValidationError(
            f"{len(missing)} gold spans are not candidate spans; baselines require "
            "candidates to cover gold"
        )
    if not candidates:
        return []
    rate = len(gold_keys) / len(candidates)
    return [key for key in candidates if rng.random() < rate]


def chance_baseline(gold: GoldMentionSet, candidates: Sequence[SpanKey],
                    ontology: EventOntology, seed) -> PredictionSet:
    """Select candidates independently at the gold-mention rate and label
    each with a uniformly random type."""
    rng = np.random.default_rng(seed)
    selected = _select_at_gold_rate(gold, candidates, rng)
    names = ontology.names
    records = []
    for key in selected:
        name = names[int(rng.integers(0, len(names)))]
        records.append(PredictionRecord(*key, name, 0.0))
    return PredictionSet(tuple(records))


def most_popular_baseline(gold: GoldMentionSet, candidates: Sequence[SpanKey],
                          ontology: EventOntology, seed) -> PredictionSet:
    """Select candidates at the gold rate and label everything with the most
    frequent gold type (ties to the smallest ontology index)."""
    rng = np.random.default_rng(seed)
    selected = _select_at_gold_rate(gold, candidates, rng)
    counts: dict[str, int] = {}
    for r in gold.records:
        counts[r.type_name] = counts.get(r.type_name, 0) + 1
    if counts:
        majority = min(counts, key=lambda n: (-counts[n], ontology.index_of(n)))
    else:
        majority = ontology.names[0]
    records = [PredictionRecord(*key, majority, 0.0) for key in selected]
    return PredictionSet(tuple(records))


# ---------------------------------------------------------------------------
# end-to-end pipeline helper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineDataset:
    """One experiment's inputs: training alignments, target ontology, and
    held-out annotated documents."""

    corpus: AlignmentCorpus
    ontology: EventOntology
    documents: tuple[Document, ...]
    gold: GoldMentionSet


@dataclass
class PipelineResult:
    predictions: PredictionSet
    identification: EvalReport
    classification: EvalReport


def run_pipeline(dataset: PipelineDataset, model: DualEncoderModel,
                 warm_config: WarmConfig | None = None,
                 retrieval_config: RetrievalConfig | None = None,
                 inference_config: InferenceConfig | None = None) -> PipelineResult:
    """Warm (unless ``warm_config`` is None), index, extract and score an
    already pretrained model.  Warming updates ``model`` in place."""
    if warm_config is not None:
        plan = build_warming_subset(model, dataset.ontology, dataset.corpus,
                                    retrieval_config or RetrievalConfig())
        warm(model, plan.corpus, plan.full_definitions, warm_config)
    index = build_definition_index(model, dataset.ontology)
    preds, _ = extract(model, index, dataset.documents, inference_config or InferenceConfig())
    return PipelineResult(
        predictions=preds,
        identification=micro_prf(preds, dataset.gold, IDENTIFICATION, dataset.ontology),
        classification=micro_prf(preds, dataset.gold, CLASSIFICATION, dataset.ontology),
    )


# ---------------------------------------------------------------------------
# ablation study
# ---------------------------------------------------------------------------

FULL_VARIANT = "full"
NO_WARMING = "no_warming"
RANDOM_NEGATIVE_WARMING = "random_negative_warming"
ABLATION_VARIANTS = (FULL_VARIANT, NO_WARMING, RANDOM_NEGATIVE_WARMING)


@dataclass(frozen=True)
class AblationSpec:
    """Toggle matrix for the warming and strong-negative components, run
    over shared seeds (the pretraining stage is reused across variants)."""

    encoder: EncoderConfig
    pretrain: TrainConfig
    warm: WarmConfig
    retrieval: RetrievalConfig = RetrievalConfig()
    inference: InferenceConfig = InferenceConfig()
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not self.seeds:
            raise ArgumentError("at least one seed is required")


@dataclass
class AblationRow:
    variant: str
    f1_identification: float
    f1_classification: float
    delta_identification: float
    delta_classification: float
    per_seed: tuple[tuple[EvalReport, EvalReport], ...]  # (identification, classification)


@dataclass
class AblationTable:
    rows: tuple[AblationRow, ...]

    def row(self, variant: str) -> AblationRow:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise ArgumentError(f"no ablation variant {variant!r}")

    def render(self) -> str:
        lines = [f"{'variant':<28} {'F1 (I)':>8} {'F1 (I+C)':>9} {'dI':>8} {'dI+C':>8}"]
        for r in self.rows:
            lines.append(
                f"{r.variant:<28} {r.f1_identification:>8.4f} {r.f1_classification:>9.4f} "
                f"{r.delta_identification:>+8.4f} {r.delta_classification:>+8.4f}"
            )
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [
            {
                "variant": r.variant,
                "f1_identification": r.f1_identification,
                "f1_classification": r.f1_classification,
                "delta_identification": r.delta_identification,
                "delta_classification": r.delta_classification,
            }
            for r in self.rows
        ]


def run_ablation(spec: AblationSpec, dataset: PipelineDataset) -> AblationTable:
    """Run the pipeline per toggle variant with shared seeds and report
    median F1 plus deltas against the full configuration.

    Pretraining does not depend on the toggles, so each seed initializes and
    pretrains one model, and every variant starts from a copy of it.
    """
    per_variant: dict[str, list[tuple[EvalReport, EvalReport]]] = {v: [] for v in ABLATION_VARIANTS}
    for seed in spec.seeds:
        model = DualEncoderModel.initialize(spec.encoder, dataset.corpus, seed)
        pretrain(model, dataset.corpus, replace(spec.pretrain, seed=seed))
        for variant, warm_config in (
            (NO_WARMING, None),
            (FULL_VARIANT, replace(spec.warm, seed=seed)),
            (RANDOM_NEGATIVE_WARMING, replace(spec.warm, seed=seed, strong_negative_ratio=0.0)),
        ):
            result = run_pipeline(dataset, model.copy(), warm_config, spec.retrieval,
                                  spec.inference)
            per_variant[variant].append((result.identification, result.classification))
    rows = []
    median_id = {v: statistics.median(r[0].f1 for r in reports) for v, reports in per_variant.items()}
    median_cls = {v: statistics.median(r[1].f1 for r in reports) for v, reports in per_variant.items()}
    for variant in ABLATION_VARIANTS:
        rows.append(
            AblationRow(
                variant=variant,
                f1_identification=median_id[variant],
                f1_classification=median_cls[variant],
                delta_identification=median_id[variant] - median_id[FULL_VARIANT],
                delta_classification=median_cls[variant] - median_cls[FULL_VARIANT],
                per_seed=tuple(per_variant[variant]),
            )
        )
    return AblationTable(tuple(rows))


# ---------------------------------------------------------------------------
# inference speed benchmark
# ---------------------------------------------------------------------------


@dataclass
class SpeedReport:
    n_candidates: int
    n_types: int
    disjoint_seconds: tuple[float, ...]
    joint_seconds: tuple[float, ...]
    disjoint_median: float
    joint_median: float
    disjoint_context_calls: int
    disjoint_definition_calls: int
    joint_calls: int

    def as_dict(self) -> dict:
        return {
            "n_candidates": self.n_candidates,
            "n_types": self.n_types,
            "disjoint_seconds": list(self.disjoint_seconds),
            "joint_seconds": list(self.joint_seconds),
            "disjoint_median": self.disjoint_median,
            "joint_median": self.joint_median,
            "disjoint_context_calls": self.disjoint_context_calls,
            "disjoint_definition_calls": self.disjoint_definition_calls,
            "joint_calls": self.joint_calls,
            "speedup": self.joint_median / self.disjoint_median if self.disjoint_median else float("inf"),
        }


def _joint_scoring_pass(model: DualEncoderModel, ontology: EventOntology,
                        documents: Sequence[Document]) -> int:
    """A joint scorer stand-in: one context-encoder pass per (candidate,
    type) pair over the concatenated sentence and definition, pooling the
    mention and the definition part and comparing them.  Returns the pair
    count."""
    definitions = [model.tokenizer.encode_words(d)[0] for _, d in ontology.types]
    pairs = 0
    for doc in documents:
        seqs, ranges = [], []
        for sent_idx, start, end in doc.candidates:
            ids, word_spans = model.tokenizer.encode_words(doc.sentences[sent_idx])
            lo, hi = sub_token_range(word_spans, start, end)
            for definition in definitions:
                row = len(seqs)
                seqs.append(ids + definition)
                ranges += [(row, lo, hi), (row, len(ids), len(ids) + len(definition) - 1)]
        pooled, _ = model.encode_pooled(CONTEXT, seqs, ranges)
        mentions, definition_parts = pooled[0::2], pooled[1::2]
        # the pair cosines a joint scorer would threshold, computed for their cost
        np.einsum("nd,nd->n", mentions, definition_parts) / (
            np.linalg.norm(mentions, axis=1) * np.linalg.norm(definition_parts, axis=1)
        )
        pairs += len(seqs)
    return pairs


def speed_benchmark(model: DualEncoderModel, ontology: EventOntology,
                    documents: Sequence[Document], repetitions: int = 3) -> SpeedReport:
    """Median wall time of disjoint extraction versus simulated pair-wise
    joint scoring on the same encoder, both in the same length-sorted
    batches.  One warm-up pass of each flavor runs before timing."""
    if repetitions < 3:
        raise ArgumentError("need at least 3 repetitions for a stable median")
    n_candidates = sum(len(doc.candidates) for doc in documents)
    config = InferenceConfig(threshold=0.0 + 1e-9)

    def disjoint_pass():
        counter = CallCounter()
        index = build_definition_index(model, ontology, counter=counter)
        extract(model, index, documents, config, counter=counter)
        return counter

    warmup_counter = disjoint_pass()
    _joint_scoring_pass(model, ontology, documents)

    disjoint_times = []
    for _ in range(repetitions):
        started = time.perf_counter()
        disjoint_pass()
        disjoint_times.append(time.perf_counter() - started)
    joint_times = []
    joint_calls = 0
    for _ in range(repetitions):
        started = time.perf_counter()
        joint_calls = _joint_scoring_pass(model, ontology, documents)
        joint_times.append(time.perf_counter() - started)

    return SpeedReport(
        n_candidates=n_candidates,
        n_types=len(ontology),
        disjoint_seconds=tuple(disjoint_times),
        joint_seconds=tuple(joint_times),
        disjoint_median=statistics.median(disjoint_times),
        joint_median=statistics.median(joint_times),
        disjoint_context_calls=warmup_counter.context_encoder_calls,
        disjoint_definition_calls=warmup_counter.definition_encoder_calls,
        joint_calls=joint_calls,
    )
