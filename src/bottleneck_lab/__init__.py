"""Achievable-region boundaries for generalized bottleneck and funnel
problems over discrete memoryless sources.

Given a joint source (q, T) and two convex information functionals, the
package computes the lower and upper boundaries of the achievable pairs
(E[f(p_w)], E[g(T p_w)]) over all finite mixtures matching the marginal,
extracts explicit witness channels, and cross-checks the results against
exact binary-symmetric formulas and a brute-force oracle.
"""

__version__ = "0.1.0"

from .closed_forms import (
    BscInstance,
    GerberPoint,
    arimoto_mr_gerber,
    arimoto_mrs_gerber,
    k_frame_to_entropy,
    k_norm,
    mr_gerber,
    mr_gerber_point,
    mrs_gerber,
)
from .core import (
    Channel,
    Distribution,
    DivergenceKernel,
    JointDistribution,
    WitnessChannel,
    arimoto_conditional_entropy,
    beta_norm,
    binary_entropy,
    binary_entropy_inv,
    bsc_joint,
    bsc_source,
    conditional_f_information,
    decompose_joint,
    entropy,
    f_divergence,
    f_information,
    joint_from_marginal_channel,
    load_joint,
    load_source,
    resolve_functional,
    restrict_source,
    star,
)
from .envelope import SimplexLattice
from .oracle import OraclePoint, oracle_boundary
from .sweep import (
    BoundaryCurve,
    BoundaryPoint,
    BoundarySlice,
    bottleneck_value,
    funnel_value,
    matched_channel_invariance_check,
    problem_curve,
    slice_point,
    sweep,
)

__all__ = [
    "BoundaryCurve",
    "BoundaryPoint",
    "BoundarySlice",
    "BscInstance",
    "Channel",
    "Distribution",
    "DivergenceKernel",
    "GerberPoint",
    "JointDistribution",
    "OraclePoint",
    "SimplexLattice",
    "WitnessChannel",
    "arimoto_conditional_entropy",
    "arimoto_mr_gerber",
    "arimoto_mrs_gerber",
    "beta_norm",
    "binary_entropy",
    "binary_entropy_inv",
    "bottleneck_value",
    "bsc_joint",
    "bsc_source",
    "conditional_f_information",
    "decompose_joint",
    "entropy",
    "f_divergence",
    "f_information",
    "funnel_value",
    "joint_from_marginal_channel",
    "k_frame_to_entropy",
    "k_norm",
    "load_joint",
    "load_source",
    "matched_channel_invariance_check",
    "mr_gerber",
    "mr_gerber_point",
    "mrs_gerber",
    "oracle_boundary",
    "problem_curve",
    "resolve_functional",
    "restrict_source",
    "slice_point",
    "star",
    "sweep",
]
