"""Trade-imbalance networks: construction, filtering, and flow attribution.

The pipeline runs in five stages:

- ``ingest``: reconcile mirror-reported bilateral flows into an export matrix,
- ``network``: turn pairwise imbalances into a directed weighted graph,
- ``disparity``: score flux concentration per node against an exact null,
- ``backbone``: keep edges too heavy to be random splits,
- ``diffusion``: absorbing random walks attributing deficits to surpluses,
  simulated and solved exactly.
"""

from . import backbone, diffusion, disparity, ingest, network
from .backbone import (
    BackboneNetwork,
    BackboneStats,
    backbone_stats,
    backbone_sweep,
    connected_components,
    edge_significance_value,
    extract_backbone,
)
from .diffusion import (
    AbsorptionMatrix,
    WalkConfig,
    backward_walk_mc,
    detailed_balance_check,
    exact_absorption,
    forward_walk_mc,
    imbalance_reconstruction,
    rank_partners,
)
from .disparity import (
    DisparityPoint,
    DisparityProfile,
    ScalingFit,
    disparity_points,
    disparity_profile,
    fit_scaling_exponent,
    null_model_moments,
    null_model_sample,
    null_model_shares,
)
from .errors import ConfigurationError, InsufficientDataError, NoConvergenceError
from .ingest import (
    ColumnMap,
    DyadicRecord,
    TradeMatrix,
    ValidationReport,
    parse_dyadic_records,
    reconcile_flows,
    validate_trade_matrix,
)
from .network import (
    ImbalanceNetwork,
    NodeAccount,
    build_imbalance_network,
    node_accounts,
    read_edge_list,
    total_flux,
    write_edge_list,
    write_graphml,
)

__version__ = "0.1.0"

__all__ = (
    "AbsorptionMatrix", "BackboneNetwork", "BackboneStats", "ColumnMap",
    "ConfigurationError", "DisparityPoint", "DisparityProfile", "DyadicRecord",
    "ImbalanceNetwork", "InsufficientDataError", "NoConvergenceError",
    "NodeAccount", "ScalingFit", "TradeMatrix", "ValidationReport", "WalkConfig",
    "backbone", "backbone_stats", "backbone_sweep", "backward_walk_mc",
    "build_imbalance_network", "connected_components", "detailed_balance_check",
    "diffusion", "disparity", "disparity_points", "disparity_profile",
    "edge_significance_value", "errors", "exact_absorption", "extract_backbone",
    "fit_scaling_exponent", "forward_walk_mc", "imbalance_reconstruction", "ingest",
    "network", "node_accounts", "null_model_moments", "null_model_sample",
    "null_model_shares", "parse_dyadic_records", "rank_partners", "read_edge_list",
    "reconcile_flows", "total_flux", "validate_trade_matrix", "write_edge_list",
    "write_graphml",
)
