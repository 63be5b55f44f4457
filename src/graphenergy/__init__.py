"""Energy-based smoothing diagnostics for attention message passing.

The package measures how node features homogenize (or refuse to) as depth
or integration time grows, across layer-norm placements and their
continuous-time counterparts. Everything runs at desk scale on CPU with
numpy/scipy; there is no training loop.
"""

from graphenergy.attention import (
    SCORE_VARIANTS,
    AttentionKind,
    AttentionParams,
    EdgeScores,
    attention_scores,
    attention_weighted_graph,
    symmetrize_scores,
)
from graphenergy.diagnostics import (
    EnergySeries,
    FitReport,
    PruneReport,
    RelativeChangeSeries,
    StallVerdict,
    cosine_similarity_matrix,
    energy_series,
    fit_decay,
    prune_layer_deviation,
    prune_scan,
    relative_change_series,
)
from graphenergy.dynamics import (
    FLOW_KINDS,
    FlowInstabilityError,
    FlowSpec,
    FlowTrajectory,
    estimate_lambda_max,
    simulate_heat,
    simulate_nonlocal,
    simulate_preln_flow,
)
from graphenergy.graph import (
    DEGREE_PLUS_ONE,
    WeightedGraph,
    aggregate_apply,
    build_weighted_graph,
    canonical_energy_graph,
    derivative_energy,
    grad_inner_product,
    integrate,
    laplacian_apply,
)
from graphenergy.ingest import (
    GENERATOR_KINDS,
    DatasetStats,
    SyntheticSpec,
    dataset_stats,
    generate_graph,
    load_edge_list,
    load_features,
    random_features,
    write_edge_list,
)
from graphenergy.network import (
    MODEL_VARIANTS,
    LayerTrajectory,
    ModelConfig,
    ModelParams,
    NonFiniteLayerError,
    forward_trajectory,
    init_model,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionKind",
    "AttentionParams",
    "DatasetStats",
    "DEGREE_PLUS_ONE",
    "EdgeScores",
    "EnergySeries",
    "FitReport",
    "FLOW_KINDS",
    "FlowInstabilityError",
    "FlowSpec",
    "FlowTrajectory",
    "GENERATOR_KINDS",
    "LayerTrajectory",
    "MODEL_VARIANTS",
    "ModelConfig",
    "ModelParams",
    "NonFiniteLayerError",
    "PruneReport",
    "RelativeChangeSeries",
    "SCORE_VARIANTS",
    "StallVerdict",
    "SyntheticSpec",
    "WeightedGraph",
    "aggregate_apply",
    "attention_scores",
    "attention_weighted_graph",
    "build_weighted_graph",
    "canonical_energy_graph",
    "cosine_similarity_matrix",
    "dataset_stats",
    "derivative_energy",
    "energy_series",
    "estimate_lambda_max",
    "fit_decay",
    "forward_trajectory",
    "generate_graph",
    "grad_inner_product",
    "init_model",
    "integrate",
    "laplacian_apply",
    "load_edge_list",
    "load_features",
    "prune_layer_deviation",
    "prune_scan",
    "random_features",
    "relative_change_series",
    "simulate_heat",
    "simulate_nonlocal",
    "simulate_preln_flow",
    "symmetrize_scores",
    "write_edge_list",
    "__version__",
]
