"""Biholomorphic geometry of the operator ball.

The open unit ball of n_plus x n_minus matrices carries a transitive action
by fractional-linear maps coming from J-unitary operators; the Mobius maps
``mu_A`` (with ``mu_A(0) = A``) generate that action together with the
block-diagonal unitaries, and ``rho(A, B) = atanh ||mu_{-A}(B)||`` is the
invariant hyperbolic distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import IndefiniteSpace, operator_norm, _checked, _plus_diagonal

__all__ = [
    "BoundaryError",
    "MapUndefinedError",
    "MobiusNormBounds",
    "mobius_apply",
    "mobius_matrix",
    "fractional_linear",
    "hyperbolic_distance",
    "mobius_norm",
    "radius_from_norm",
]

#: Ball points this close to the sphere are rejected, so every ``1 - s`` in ``_defect_roots`` is >= 2e-8 - O(eps).
BOUNDARY_MARGIN = 1e-8

#: Condition-number guard for the fractional-linear denominator.
DENOM_COND_LIMIT = 1e12


class BoundaryError(ValueError):
    """Raised when a strict-ball operation receives a point on/near the sphere."""


class MapUndefinedError(ValueError):
    """Raised when the fractional-linear denominator is singular."""


def _check_strict(space: IndefiniteSpace, w, name: str) -> tuple[np.ndarray, float]:
    """The checked ball point and its norm, which must stay below ``1 - BOUNDARY_MARGIN``."""
    m = _checked(w, (space.n_plus, space.n_minus), name)
    norm = operator_norm(m)
    if norm >= 1.0 - BOUNDARY_MARGIN:
        raise BoundaryError(f"{name} has norm {norm:.8g}; needs to stay inside the open ball")
    return m, norm


def _defect_roots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(I - A^H A)^{-1/2}`` and ``(I - A A^H)^{-1/2}`` of a checked ball point, from one ``eigh``.

    With ``A^H A = V diag(s) V^H``, the other side is ``I + A V g(s) V^H A^H``,
    ``g(s) = 1 / (sqrt(1 - s) (1 + sqrt(1 - s)))``, and V is taken on the smaller side; so the
    cost is ``O(n_plus n_minus^2)`` in the Pontryagin regime, not ``O(n_plus^3)``.
    """
    if a.shape[1] > a.shape[0]:
        return _defect_roots(a.conj().T)[::-1]
    s, vecs = np.linalg.eigh(a.conj().T @ a)
    root = np.sqrt(1.0 - s)
    av = a @ vecs
    far = _plus_diagonal((av / (root * (1.0 + root))) @ av.conj().T, 1.0)
    return (vecs / root) @ vecs.conj().T, far


def mobius_apply(space: IndefiniteSpace, center, x) -> np.ndarray:
    """mu_A(X) = (I - AA^H)^{-1/2} (A + X) (I + A^H X)^{-1} (I - A^H A)^{1/2}.

    Both arguments must lie strictly inside the ball; then ``I + A^H X`` is
    invertible and the image stays strictly inside.
    """
    a = _check_strict(space, center, "center")[0]
    xm = _checked(x, (space.n_plus, space.n_minus), "argument")
    if (x_norm := operator_norm(xm)) >= 1.0:
        raise BoundaryError(f"argument has norm {x_norm:.8g}; needs to stay inside the open ball")
    return _mobius_image(a, xm)


def _mobius_image(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`mobius_apply` of a checked center and argument."""
    s, t = _defect_roots(a)
    # (I + A^H X)^{-1} (I - A^H A)^{1/2} = (s (I + A^H X))^{-1}, applied from the right
    denom = s @ _plus_diagonal(a.conj().T @ x, 1.0)
    return np.linalg.solve(denom.T, (t @ (a + x)).T).T


def mobius_matrix(space: IndefiniteSpace, center) -> np.ndarray:
    """The J-unitary block matrix M_A generating mu_A, in (H-, H+) order.

    ``M_A = [[(I - A^H A)^{-1/2}, A^H (I - A A^H)^{-1/2}],
             [A (I - A^H A)^{-1/2}, (I - A A^H)^{-1/2}]]``;
    ``M_{-A} = J M_A J = M_A^{-1}``, bit for bit.
    """
    return _mobius_block(space, _check_strict(space, center, "center")[0])


def _mobius_block(space: IndefiniteSpace, a: np.ndarray) -> np.ndarray:
    """:func:`mobius_matrix` of a checked ball point."""
    s, t = _defect_roots(a)
    return space.assemble(s, a.conj().T @ t, a @ s, t)


def fractional_linear(space: IndefiniteSpace, u, w) -> np.ndarray:
    """phi_U(W) = (U21 + U22 W)(U11 + U12 W)^{-1}.

    Defined whenever the denominator is well conditioned; for J-unitary U it
    maps the closed ball into itself.  A stack of U, ``(m, n, n)``, maps W to
    ``(m, n_plus, n_minus)`` images and raises if any denominator is singular.
    """
    wm = _checked(w, (space.n_plus, space.n_minus), "argument")
    u = _checked(u, np.shape(u)[:-2] + (space.n, space.n), "map")
    u11, u12, u21, u22 = space.blocks(u)
    if space.n_minus == 0:
        return np.zeros(u21.shape, dtype=complex)
    denom = u11 + u12 @ wm
    if np.any(np.linalg.cond(denom) > DENOM_COND_LIMIT):
        raise MapUndefinedError("map undefined at W: singular denominator block")
    numer_t = (u21 + u22 @ wm).swapaxes(-1, -2)
    return np.linalg.solve(denom.swapaxes(-1, -2), numer_t).swapaxes(-1, -2)


def hyperbolic_distance(space: IndefiniteSpace, a, b) -> float:
    """rho(A, B) = atanh ||mu_{-A}(B)||, the invariant (Caratheodory) distance."""
    am = _check_strict(space, a, "first point")[0]
    bm = _check_strict(space, b, "second point")[0]
    return float(np.arctanh(min(operator_norm(_mobius_image(-am, bm)), 1.0 - 1e-16)))


@dataclass(frozen=True)
class MobiusNormBounds:
    """||M_A|| together with its closed-form lower and upper bounds."""

    norm: float
    lower_bound: float
    upper_bound: float


def mobius_norm(space: IndefiniteSpace, center) -> MobiusNormBounds:
    """Spectral norm of M_A sandwiched by its closed-form bounds.

    With r = ||A||: sqrt((1 + r^2)/(1 - r^2)) <= ||M_A|| <= sqrt((1 + r)/(1 - r)).
    """
    return _matrix_and_bounds(space, center)[1]


def _matrix_and_bounds(space: IndefiniteSpace, center) -> tuple[np.ndarray, MobiusNormBounds]:
    """M_A and :func:`mobius_norm`, taking ``r = ||A||`` once, in the boundary check."""
    a, r = _check_strict(space, center, "center")
    m = _mobius_block(space, a)
    lower = float(np.sqrt((1.0 + r * r) / (1.0 - r * r)))
    upper = float(np.sqrt((1.0 + r) / (1.0 - r)))
    return m, MobiusNormBounds(norm=operator_norm(m), lower_bound=lower, upper_bound=upper)


def radius_from_norm(c: float) -> float:
    """sqrt((C^2 - 1)/(C^2 + 1)): how far from 0 a J-unitary of norm C can move it."""
    c = float(c)
    if c < 1.0:
        raise ValueError("operator norm of a J-unitary is at least 1")
    return float(np.sqrt((c * c - 1.0) / (c * c + 1.0)))
