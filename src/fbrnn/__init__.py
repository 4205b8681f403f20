"""Forward-backward recurrent event-nugget detection.

Heuristic candidate generation, three-branch recurrent encoding over word
and branch embeddings, softmax or multi-label sigmoid classification, and
a fully hand-derived training core (backpropagation through time, Adam,
finite-difference gradient verification).
"""

from .candidates import (
    BranchSplit,
    LabeledExample,
    NuggetCandidate,
    TriggerLexicon,
    align_labels,
    build_examples,
    build_trigger_lexicon,
    expand_candidates,
    extract_single_token_candidates,
    split_branches,
)
from .corpus import (
    Corpus,
    GoldNugget,
    LabelSet,
    Sentence,
    SyntheticSpec,
    Token,
    default_synthetic_spec,
    load_corpus,
    load_label_set,
    make_positional_corpus,
    make_synthetic_corpus,
    save_corpus,
    split_corpus,
    vocabulary_of,
)
from .embeddings import Branch, Embedder, WordTable, load_pretrained
from .errors import ConfigurationError, DataError, FBRNNError, NumericError
from .evaluation import (
    AblationGrid,
    PredictedNugget,
    PRFReport,
    evaluate_model,
    f1,
    predict_examples,
    run_ablation,
    score,
)
from .model import (
    ModelConfig,
    NuggetModel,
    build_model,
    gru_step,
    lstm_step,
    tiny_gradcheck,
)
from .numerics import (
    GradCheckReport,
    Optimizer,
    ParamSpec,
    ParamStore,
    ParamTensor,
    Rng,
    adam_step,
    dropout_mask,
    grad_check,
    init_uniform_scaled,
    sgd_step,
    sigmoid,
    softmax,
)
from .training import (
    TrainConfig,
    TrainLog,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

__version__ = "0.1.0"
