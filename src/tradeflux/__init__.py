"""Trade-imbalance networks: construction, filtering, and flow attribution.

The pipeline runs in five stages:

- ``ingest``: reconcile mirror-reported bilateral flows into an export matrix,
- ``network``: turn pairwise imbalances into a directed weighted graph,
- ``disparity``: score flux concentration per node against an exact null,
- ``backbone``: keep edges too heavy to be random splits,
- ``diffusion``: absorbing random walks attributing deficits to surpluses,
  simulated and solved exactly.

``import tradeflux`` loads none of them: a stage module is loaded when it, or
one of the names below, is first looked up, so each CLI step pays only for
its own stage.
"""

import importlib

__version__ = "0.1.0"

#: Each module, with the public names it defines.
_NAMES = {
    "backbone": (
        "BackboneNetwork", "BackboneStats", "backbone_stats", "backbone_sweep",
        "connected_components", "edge_significance_value", "extract_backbone",
    ),
    "diffusion": (
        "AbsorptionMatrix", "WalkConfig", "backward_walk_mc", "detailed_balance_check",
        "exact_absorption", "forward_walk_mc", "imbalance_reconstruction", "rank_partners",
    ),
    "disparity": (
        "DisparityPoint", "DisparityProfile", "ScalingFit", "disparity_points",
        "disparity_profile", "fit_scaling_exponent", "null_model_moments",
        "null_model_sample", "null_model_shares",
    ),
    "errors": ("ConfigurationError", "InsufficientDataError", "NoConvergenceError"),
    "ingest": (
        "ColumnMap", "DyadicRecord", "TradeMatrix", "ValidationReport",
        "parse_dyadic_records", "reconcile_flows", "validate_trade_matrix",
    ),
    "network": (
        "ImbalanceNetwork", "NodeAccount", "build_imbalance_network", "node_accounts",
        "read_edge_list", "total_flux", "write_edge_list", "write_graphml",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = (*_NAMES, *_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _NAMES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")  # binds the module here
    if module == name:
        return loaded
    value = globals()[name] = getattr(loaded, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
