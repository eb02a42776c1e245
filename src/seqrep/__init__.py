"""Unsupervised activity representations from feature-vector sequences.

Pipeline: exact temporally-constrained sequence matching proposes frame
correspondences, a small normalized embedding network reconciles them via
triplet training, and a gated recurrent predictor models the temporal
transitions. A deterministic synthetic benchmark with latent ground truth
drives the evaluation suite.
"""

from .core import (
    ConfigError,
    Dataset,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    FormatError,
    ResourceLimitError,
    RngState,
    Sequence,
    TrainLog,
    pairwise_sqdist,
)
from .align import (
    CostBreakdown,
    Matching,
    MatchPenalties,
    PenaltyConfig,
    alignment_cost,
    default_penalties,
    match_features,
    solve_bruteforce,
    solve_exact_dp,
)
from .embed import (
    EmbeddingModel,
    TrainConfig,
    embed_batch,
    fit_whitener,
    init_embedding_model,
    sequence_neighbors,
    train,
    triplet_grad,
)
from .dynamics import (
    PredictorConfig,
    RecurrentPredictor,
    init_predictor,
    interpolate_features,
    rnn_forward_batch,
    synthesize,
    train_predictor,
    transition_pairs,
)
from .synthdata import (
    GeneratorConfig,
    alignment_pair_config,
    generate_dataset,
    resample_pair,
)
from .evaluate import (
    EvalReport,
    alignment_accuracy,
    alignment_benchmark,
    default_pose_epsilon,
    knn_prediction_curve,
    nearest_neighbor_assignment,
    pca_project_2d,
    retrieval_auc,
    zero_shot_pose_error,
)
from .seqpack import (
    load_model,
    load_predictor,
    read_seqpack,
    save_model,
    save_predictor,
    write_seqpack,
)
from .config import (
    EvalConfig,
    RunConfig,
    load_config,
    reference_run_config,
)

__version__ = "0.1.0"
