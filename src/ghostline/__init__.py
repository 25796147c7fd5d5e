"""Exact-arithmetic engine for ghost series and their Newton polygons.

Builds the combinatorial power series attached to a reducible generic
residual datum (prime p, niveau parameter a, disk selector s_eps),
evaluates coefficient valuations at points of the weight disk, takes exact
lower convex hulls, computes duality profiles and near-Steinberg ranges,
and mechanically verifies the slope identities at desk scale.
"""

from .valuation import INF, ExtRat, digit_sum, vp_int
from .weight_space import (
    Boundary,
    Classical,
    GhostContext,
    Perturbed,
    WeightPoint,
    new_context,
    parse_point,
    vp_between_weights,
    vp_point_to_weight,
)

__all__ = [
    "INF",
    "ExtRat",
    "digit_sum",
    "vp_int",
    "Boundary",
    "Classical",
    "GhostContext",
    "Perturbed",
    "WeightPoint",
    "new_context",
    "parse_point",
    "vp_between_weights",
    "vp_point_to_weight",
]
