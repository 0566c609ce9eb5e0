"""Trade-imbalance networks: construction, filtering, and flow attribution.

The pipeline runs in four stages, one submodule each:

- ``ingest``: reconcile mirror-reported bilateral flows into an export matrix,
- ``network``: turn pairwise imbalances into a directed weighted graph,
- ``disparity``: score flux concentration per node against an exact null,
- ``backbone``: keep edges too heavy to be random splits,
- ``diffusion``: absorbing random walks attributing deficits to surpluses.

The per-node concentration statistic itself lives at
``tradeflux.disparity.disparity`` (not re-exported here, to keep the
submodule importable under its own name).
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
    absorption_probability,
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
    read_trade_matrix,
    reconcile_flows,
    validate_trade_matrix,
    write_trade_matrix,
)
from .network import (
    ImbalanceNetwork,
    NodeAccount,
    build_imbalance_network,
    flux_histogram,
    global_balance_residual,
    node_accounts,
    read_edge_list,
    total_flux,
    write_edge_list,
    write_graphml,
)

__version__ = "0.1.0"
