"""Chaos indices for scalar time series.

Delay embedding, mutual-information delay selection, minimum embedding
dimension, the largest Lyapunov exponent, and the correlation dimension,
plus a batch pipeline for 30 s staged sleep epochs and Welch-test group
comparisons of the resulting indices.
"""

__version__ = "0.1.0"

from .cao import CaoProfile, minimum_embedding_dimension
from .correlation import (
    CorrelationCurve,
    D2Estimate,
    correlation_curve,
    correlation_dimension,
    correlation_sum,
)
from .errors import (
    ChaosKitError,
    ConfigError,
    DegenerateSeriesError,
    EstimationError,
    GenerationError,
    InputError,
    NoScalingRegionError,
    ShortSeriesError,
)
from .generators import (
    GeneratorSpec,
    gaussian_stream,
    generate,
    generator_kinds,
    henon_lle_oracle,
    logistic_lle_oracle,
    tangent_map_lle,
    uniform_stream,
)
from .information import (
    DiscreteDistribution,
    JointDistribution,
    auto_mutual_information,
    entropy,
    first_local_minimum,
    joint_distribution,
    marginal_distribution,
    mi_from_joint,
    mutual_information,
    select_lag_first_minimum,
)
from .lyapunov import LyapunovResult, WolfParams, largest_lyapunov_wolf
from .series import (
    DelayVectors,
    EmbeddingParams,
    LagResult,
    TimeSeries,
    autocorrelation,
    delay_embed,
    theiler_window,
)
from .sleep import (
    EPOCH_SECONDS,
    EpochIndices,
    EstimatorConfig,
    Group,
    Recording,
    SCORED_STAGES,
    SleepStage,
    analyze_recordings,
    compute_epoch_indices,
    epoch_split,
    parse_group,
    parse_stage_token,
    samples_per_epoch,
)
from .stats import (
    ComparisonResult,
    GroupSummary,
    INDEX_NAMES,
    compare_groups,
    group_by_cell,
    group_summaries,
    histograms_by_cell,
    p_value,
    summarize,
    welch_satterthwaite_df,
    welch_t,
)

__all__ = [
    "__version__",
    # series
    "TimeSeries",
    "EmbeddingParams",
    "DelayVectors",
    "LagResult",
    "delay_embed",
    "autocorrelation",
    "theiler_window",
    # information
    "DiscreteDistribution",
    "JointDistribution",
    "marginal_distribution",
    "joint_distribution",
    "entropy",
    "mutual_information",
    "mi_from_joint",
    "auto_mutual_information",
    "first_local_minimum",
    "select_lag_first_minimum",
    # cao
    "CaoProfile",
    "minimum_embedding_dimension",
    # lyapunov
    "WolfParams",
    "LyapunovResult",
    "largest_lyapunov_wolf",
    # correlation
    "CorrelationCurve",
    "D2Estimate",
    "correlation_sum",
    "correlation_curve",
    "correlation_dimension",
    # generators
    "GeneratorSpec",
    "generate",
    "generator_kinds",
    "uniform_stream",
    "gaussian_stream",
    "tangent_map_lle",
    "henon_lle_oracle",
    "logistic_lle_oracle",
    # sleep
    "EPOCH_SECONDS",
    "SleepStage",
    "Group",
    "SCORED_STAGES",
    "parse_stage_token",
    "parse_group",
    "Recording",
    "EstimatorConfig",
    "EpochIndices",
    "samples_per_epoch",
    "epoch_split",
    "compute_epoch_indices",
    "analyze_recordings",
    # stats
    "GroupSummary",
    "ComparisonResult",
    "INDEX_NAMES",
    "summarize",
    "welch_t",
    "welch_satterthwaite_df",
    "p_value",
    "compare_groups",
    "group_by_cell",
    "group_summaries",
    "histograms_by_cell",
    # errors
    "ChaosKitError",
    "ShortSeriesError",
    "DegenerateSeriesError",
    "EstimationError",
    "NoScalingRegionError",
    "GenerationError",
    "ConfigError",
    "InputError",
]
