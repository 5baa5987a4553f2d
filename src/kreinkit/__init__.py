"""Indefinite-metric (Pontryagin / Krein) numerical linear algebra.

Computes and certifies invariant maximal non-positive subspaces of
J-dissipative matrices, implements the Mobius geometry of the operator
ball, finds common fixed points of bounded groups of fractional-linear
maps, unitarizes bounded J-unitary representations with an explicit
condition-number bound, and decomposes quasi-positive-definite functions
on finite groups.

``kreinkit.mnps`` (also as bound by ``import kreinkit.mnps as m``) is the solver
function re-exported here; reach the module with ``importlib.import_module``.
"""

from . import spaces, ball, mnps, groups, fixpoint, qpd

# read before the star imports rebind ``mnps`` to the solver function
__all__ = [name for module in (spaces, ball, mnps, groups, fixpoint, qpd) for name in module.__all__]

from .spaces import *  # noqa: E402, F403
from .ball import *  # noqa: E402, F403
from .mnps import *  # noqa: E402, F403
from .groups import *  # noqa: E402, F403
from .fixpoint import *  # noqa: E402, F403
from .qpd import *  # noqa: E402, F403

__version__ = "0.1.0"
