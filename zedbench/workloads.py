"""The three benchmark workloads and the inputs each one generates.

Every workload runs the whole chain (load, tokenizer fit and model init,
pretrain, warming, index build and extraction, per-candidate scoring,
micro P/R/F1).  They differ in which layer carries most of the time:

* ``zeroshot-train`` -- the default synthetic spec; training dominates.
* ``wide-extract`` -- twice the types, long sentences and a distractor
  candidate in every gold sentence; extraction, padding and tokenizer fit
  dominate.
* ``fewshot-warm`` -- confusable type pairs and a wide inventory, warmed on
  gold mentions of half the documents; the strong/random negative sampler
  and the training step run outside pretraining.

The inputs depend only on ``--seed``; the program sees them only as the
JSONL files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from defex import corpus as dcorpus
from defex.corpus import SyntheticSpec
from defex.training import TrainConfig, WarmConfig
from defex.warming import RetrievalConfig

RETRIEVAL = "retrieval"
GOLD = "gold"
# gold-warming workloads hold out this share of the documents for evaluation
EVAL_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    pretrain_epochs: int
    warm_mode: str  # RETRIEVAL or GOLD
    warm_epochs: int
    threshold: float
    retrieved_count: int = 1

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.pretrain_epochs, seed=seed)

    def warm_config(self, seed: int) -> WarmConfig:
        return WarmConfig(epochs=self.warm_epochs, seed=seed)

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(retrieved_count=self.retrieved_count)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zeroshot-train",
            spec=SyntheticSpec(),
            pretrain_epochs=5,
            warm_mode=RETRIEVAL,
            retrieved_count=2,
            warm_epochs=6,
            threshold=0.55,
        ),
        Workload(
            name="wide-extract",
            spec=SyntheticSpec(
                n_types=40,
                mentions_per_type=100,
                min_sentence_length=6,
                max_sentence_length=24,
                distractors_in_gold_sentences=True,
            ),
            pretrain_epochs=6,
            warm_mode=RETRIEVAL,
            warm_epochs=3,
            threshold=0.6,
        ),
        Workload(
            name="fewshot-warm",
            spec=SyntheticSpec(
                confusability="confusable",
                neighbors_per_type=2,
                n_distractor_definitions=12,
            ),
            pretrain_epochs=3,
            warm_mode=GOLD,
            warm_epochs=6,
            threshold=0.6,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Generate the workload's inputs from ``seed`` and write them as JSONL.

    Returns the file paths by role.  For the gold-warming workload the
    documents are split: ``train_docs``/``train_gold`` feed warming and
    ``docs``/``gold`` are the held-out evaluation half.
    """
    directory.mkdir(parents=True, exist_ok=True)
    corpus, ontology, documents, gold = dcorpus.generate_synthetic_corpus(workload.spec, seed)
    paths = {
        "corpus": directory / "alignments.jsonl",
        "ontology": directory / "ontology.jsonl",
        "docs": directory / "docs.jsonl",
        "gold": directory / "gold.jsonl",
    }
    dcorpus.save_alignment_corpus(corpus, paths["corpus"])
    dcorpus.save_ontology(ontology, paths["ontology"])
    if workload.warm_mode == GOLD:
        train_docs, train_gold, documents, gold = dcorpus.split_documents(
            documents, gold, EVAL_FRACTION, seed
        )
        paths["train_docs"] = directory / "docs_train.jsonl"
        paths["train_gold"] = directory / "gold_train.jsonl"
        dcorpus.save_documents(train_docs, paths["train_docs"])
        dcorpus.save_gold(train_gold, paths["train_gold"])
    dcorpus.save_documents(documents, paths["docs"])
    dcorpus.save_gold(gold, paths["gold"])
    return paths
