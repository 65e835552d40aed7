"""defex: definition-matched event mention extraction.

A dual-encoder toolkit: contrastive training aligns contextualized mention
vectors with definition-sentence vectors in one space; arbitrary
definition-specified event types are then extracted by thresholded cosine
similarity against a precomputed definition index.
"""

__version__ = "0.1.0"

from .corpus import (
    AlignmentCorpus,
    AlignmentInstance,
    Document,
    EventOntology,
    GoldMentionSet,
    MentionRecord,
    PredictionRecord,
    PredictionSet,
    SyntheticSpec,
    generate_synthetic_corpus,
    load_alignment_corpus,
    load_documents,
    load_gold,
    load_ontology,
    load_predictions,
    save_alignment_corpus,
    save_documents,
    save_gold,
    save_ontology,
    save_predictions,
    split_documents,
    subsample_gold,
    subsample_per_definition,
)
from .encoder import (
    DefinitionVector,
    DualEncoderModel,
    EncoderConfig,
    MentionVector,
    cosine,
)
from .evaluation import (
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
from .inference import (
    CallCounter,
    DefinitionIndex,
    InferenceConfig,
    build_definition_index,
    counter_report,
    extract,
    score_mention,
    threshold_sweep,
)
from .training import (
    TrainConfig,
    TrainReport,
    WarmConfig,
    check_gradients,
    pretrain,
    ranking_loss,
    sample_kink_free_batch,
    sample_negatives,
)
from .warming import (
    RetrievalConfig,
    StaticEmbedder,
    WarmingPlan,
    build_warming_subset,
    warm,
    warm_with_gold,
)
