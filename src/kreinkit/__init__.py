"""Indefinite-metric (Pontryagin / Krein) numerical linear algebra.

Computes and certifies invariant maximal non-positive subspaces of
J-dissipative matrices, implements the Mobius geometry of the operator
ball, finds common fixed points of bounded groups of fractional-linear
maps, unitarizes bounded J-unitary representations with an explicit
condition-number bound, and decomposes quasi-positive-definite functions
on finite groups.
"""

from .spaces import *  # noqa: F403
from .ball import *  # noqa: F403
from .mnps import *  # noqa: F403
from .groups import *  # noqa: F403
from .fixpoint import *  # noqa: F403
from .qpd import *  # noqa: F403

__all__ = [
    # spaces
    "IndefiniteSpace", "Subspace", "Inertia", "OperatorClasses",
    "NotAGraphError", "build_space", "indefinite_product", "j_adjoint",
    "classify_operator", "graph_of", "graph_from_subspace",
    "subspace_signature", "invariance_residual", "operator_norm",
    # ball
    "BoundaryError", "MapUndefinedError", "MobiusNormBounds", "mobius_apply",
    "mobius_matrix", "fractional_linear", "hyperbolic_distance", "mobius_norm",
    "radius_from_norm",
    # mnps
    "NotDissipativeError", "SpectrumOnAxisError", "MnpsReport", "LadderReport",
    "VerifyReport", "spectral_split", "mnps", "approximation_ladder",
    "verify_mnps",
    # groups
    "GroupStructureError", "FiniteGroup", "cyclic", "dihedral", "symmetric",
    "quaternion", "direct_product", "named_group",
    # fixpoint
    "DegeneratePencilError", "GroupRep", "FixedPointReport",
    "UnitarizationReport", "rep_validate", "orbit_radius",
    "group_average_metric", "word_average_metric", "common_fixed_point",
    "invariant_dual_pair", "unitarize",
    # qpd
    "GroupFunction", "GnsResult", "DecompositionCertificate", "gram_matrix",
    "negative_squares", "finite_type_rank", "gns_construct", "decompose",
    "verify_decomposition",
]

__version__ = "0.1.0"
