"""emord: ordinal emotion classification from text.

Emotion labels are not interchangeable categories — mistaking joy for
surprise is a smaller mistake than mistaking joy for sadness.  This package
trains a small from-scratch text classifier whose ordinal head modes encode
labels as thermometer codewords over a valence scale (or a valence-arousal
grid), so a squared-error loss penalizes mistakes in proportion to how far
up or down the scale they land.  The evaluation suite then measures exactly
that: not just how often a model errs, but how far off it is when it does.
"""

__version__ = "0.1.0"

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .codec import (
    HEAD_MODES,
    MODE_ORDINAL_1D,
    MODE_ORDINAL_2D,
    MODE_SOFTMAX,
    CodecError,
    codewords,
    decode_thermometer_batch,
    target_for,
    target_width,
)
from .data import (
    DataError,
    LabeledCorpus,
    SyntheticSpec,
    Vocabulary,
    build_vocab,
    encode_corpus,
    encode_text,
    generate_synthetic,
    load_corpus,
    load_synthetic_spec,
    save_corpus_tsv,
    split_corpus,
    text_tokens,
)
from .gradcheck import GradCheckError, GradCheckReport, check_gradients
from .infer import Decoded, Prediction, predict_ids, predict_text
from .losses import LossError, logit_gradient, loss_value
from .metrics import (
    EvalResult,
    HoldoutReport,
    MetricsError,
    MetricsReport,
    evaluate,
    holdout_proximity,
)
from .net import (
    ModelConfig,
    ModelParams,
    NetError,
    backward,
    forward,
    init_params,
)
from .optim import AdamWState, OptimizerError, adamw_step
from .taxonomy import (
    BUILTIN_TAXONOMIES,
    EmotionTaxonomy,
    TaxonomyError,
    builtin_taxonomy,
    label_distance,
    load_taxonomy,
    max_distance,
    parse_taxonomy,
    save_taxonomy,
    taxonomy_to_document,
)
from .trainer import (
    EpochStats,
    TrainConfig,
    Trainer,
    TrainerError,
    TrainingDivergedError,
    TrainResult,
    resolve_train_config,
)

__all__ = [
    "__version__",
    "AdamWState",
    "BUILTIN_TAXONOMIES",
    "Checkpoint",
    "CheckpointError",
    "CodecError",
    "DataError",
    "Decoded",
    "EmotionTaxonomy",
    "EpochStats",
    "EvalResult",
    "GradCheckError",
    "GradCheckReport",
    "HEAD_MODES",
    "HoldoutReport",
    "LabeledCorpus",
    "LossError",
    "MetricsError",
    "MetricsReport",
    "MODE_ORDINAL_1D",
    "MODE_ORDINAL_2D",
    "MODE_SOFTMAX",
    "ModelConfig",
    "ModelParams",
    "NetError",
    "OptimizerError",
    "Prediction",
    "SyntheticSpec",
    "TaxonomyError",
    "TrainConfig",
    "TrainResult",
    "Trainer",
    "TrainerError",
    "TrainingDivergedError",
    "Vocabulary",
    "adamw_step",
    "backward",
    "build_vocab",
    "builtin_taxonomy",
    "check_gradients",
    "codewords",
    "decode_thermometer_batch",
    "encode_corpus",
    "encode_text",
    "evaluate",
    "forward",
    "generate_synthetic",
    "holdout_proximity",
    "init_params",
    "label_distance",
    "load_checkpoint",
    "load_corpus",
    "load_synthetic_spec",
    "load_taxonomy",
    "logit_gradient",
    "loss_value",
    "max_distance",
    "parse_taxonomy",
    "predict_ids",
    "predict_text",
    "resolve_train_config",
    "save_checkpoint",
    "save_corpus_tsv",
    "save_taxonomy",
    "split_corpus",
    "target_for",
    "target_width",
    "taxonomy_to_document",
    "text_tokens",
]
