"""Temporal-coherence feature learning.

Learns image embeddings from unlabeled frame sequences with two
contrastive regularizers, jointly with a supervised softmax loss:
slowness (temporal neighbors embed close) and steadiness (feature changes
over consecutive equal intervals stay consistent, so sequential triplets
embed collinearly). Includes mining of temporal pair/triplet tuples, an
explicit fully connected network with exact gradients, Nesterov SGD
training with greedy staged hyperparameter search, and the evaluation
protocols: sequence completion (mean percentile rank), linear-classifier
accuracy and k-nearest-neighbor accuracy.
"""

from .data import (
    Clip,
    LabeledSet,
    ManifestError,
    PgmFormatError,
    UnlabeledSet,
    load_manifest,
    load_pgm,
    prep_stack,
    save_pgm,
    write_labeled,
    write_unlabeled,
)
from .evaluate import (
    CandidatePool,
    build_pool,
    embed,
    eta,
    extrapolate,
    knn_accuracy,
    linear_accuracy,
    make_queries,
    seqcomp_ranks,
)
from .losses import (
    LossValue,
    Margins,
    Workspace,
    coherence_objective,
    pair_loss,
    softmax_loss,
    total_objective,
    triplet_loss,
)
from .mining import (
    MiningConfig,
    MiningError,
    PairSample,
    TripletSample,
    load_tuples,
    mine_pairs,
    mine_triplets,
    pair_candidates,
    save_tuples,
    triplet_candidates,
    window_frames,
)
from .network import (
    ActivationTape,
    LayerSpec,
    NetworkParams,
    backward,
    forward,
    init_classifier,
    init_glorot,
    load_checkpoint,
    save_checkpoint,
)
from .synth import SynthConfig, build_fixtures, gen_labeled, gen_unlabeled
from .trainer import (
    ConfigError,
    OptimizerError,
    SearchError,
    SearchGrids,
    TrainConfig,
    TrainHistory,
    greedy_cv,
    nesterov_step,
    resolve_pairs,
    resolve_triplets,
    train,
    train_unsupervised,
)

__version__ = "0.1.0"
