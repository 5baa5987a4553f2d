"""Finite-dimensional indefinite-metric (Pontryagin / Krein) spaces.

Conventions used throughout the package:

* Coordinates: the first ``n_minus`` axes span the negative part ``H-``,
  the last ``n_plus`` axes span the positive part ``H+``.  The fundamental
  symmetry is the diagonal sign matrix ``J = diag(-1, ..., -1, +1, ..., +1)``.
* The Euclidean product ``(x, y)`` is conjugate-linear in the *second*
  argument, so the indefinite form is ``[x, y] = (Jx, y) = y^H J x`` and the
  adjoint with respect to it is ``A^# = J A^H J``.  This choice is a
  convention (the other one is equally consistent); it is fixed here once
  and everything else follows it.
* Block indices follow the (H-, H+) ordering: ``a11`` maps H- to H-,
  ``a12`` maps H+ to H-, ``a21`` maps H- to H+, ``a22`` maps H+ to H+.
* A point ``W`` of the operator ball is an ``n_plus x n_minus`` matrix
  mapping H- to H+; its graph ``L_W = {x + Wx : x in H-}`` is a maximal
  non-positive subspace exactly when ``||W|| <= 1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IndefiniteSpace",
    "Subspace",
    "Inertia",
    "OperatorClasses",
    "NotAGraphError",
    "build_space",
    "indefinite_product",
    "j_adjoint",
    "classify_operator",
    "graph_of",
    "graph_from_subspace",
    "subspace_signature",
    "invariance_residual",
    "operator_norm",
]

#: Relative threshold below which eigenvalues / singular values count as zero.
RANK_RTOL = 1e-9

#: Default tolerance for the operator-class predicates.
PREDICATE_TOL = 1e-9

#: Condition-number guard for solving against the H- block of a basis.
GRAPH_COND_LIMIT = 1e12

#: Block-power steps and start columns of :func:`_norm_lower_bound`.
NORM_BOUND_STEPS = 6
NORM_BOUND_COLS = 4


class NotAGraphError(ValueError):
    """Raised when a subspace cannot be written as a graph over H-."""


def operator_norm(m) -> float:
    """Spectral norm, defined as 0.0 for empty matrices."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _norm_lower_bound(m: np.ndarray) -> float:
    """A certified lower bound ``nu = ||A Q|| <= ||A||`` without an SVD of A.

    Q is the orthonormal factor after ``NORM_BOUND_STEPS`` block-power steps
    on ``A^H A`` from a fixed-seed Gaussian start of ``NORM_BOUND_COLS``
    columns, so nu is deterministic for a given A.  It costs ``O(n^2 k)``
    and allocates ``O(n k)``: ``A^H (A Q)`` is formed as ``((A Q)^H A)^H``,
    never through ``A^H``.  A tolerance relative to nu is stricter than the
    same tolerance relative to ||A||; never substitute an upper bound.
    """
    n = m.shape[1]
    k = min(NORM_BOUND_COLS, n)
    rng = np.random.default_rng(0)
    q = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    for _ in range(NORM_BOUND_STEPS):
        q = np.linalg.qr(((m @ q).conj().T @ m).conj().T)[0]
    return float(np.linalg.norm(m @ q, 2))


def _plus_diagonal(h: np.ndarray, c) -> np.ndarray:
    """``h + c I`` as a copy of h with c added to its diagonal; I is never built."""
    out = h.copy()
    out.flat[:: out.shape[1] + 1] += c
    return out


def _mat(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


@functools.lru_cache(maxsize=64)
def _j_signs(n_minus: int, n_plus: int) -> np.ndarray:
    signs = np.r_[-np.ones(n_minus), np.ones(n_plus)]
    signs.setflags(write=False)
    return signs


@functools.lru_cache(maxsize=64)
def _j_matrix(n_minus: int, n_plus: int) -> np.ndarray:
    j = np.diag(_j_signs(n_minus, n_plus)).astype(complex)
    j.setflags(write=False)
    return j


@dataclass(frozen=True)
class IndefiniteSpace:
    """Signature (n_minus, n_plus) plus the induced fundamental symmetry."""

    n_minus: int
    n_plus: int

    def __post_init__(self):
        if self.n_minus < 0 or self.n_plus < 0:
            raise ValueError("signature components must be nonnegative")
        if self.n_minus + self.n_plus == 0:
            raise ValueError("space must have positive dimension")

    @property
    def n(self) -> int:
        return self.n_minus + self.n_plus

    @property
    def j(self) -> np.ndarray:
        """The fundamental symmetry as a dense (read-only) matrix."""
        return _j_matrix(self.n_minus, self.n_plus)

    @property
    def j_signs(self) -> np.ndarray:
        """The diagonal of J as a (read-only) real vector."""
        return _j_signs(self.n_minus, self.n_plus)

    def blocks(self, a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split an n x n matrix into (a11, a12, a21, a22) blocks."""
        m = _mat(a)
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got {m.shape}")
        k = self.n_minus
        return m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:]

    def assemble(self, a11, a12, a21, a22) -> np.ndarray:
        return np.block([[np.asarray(a11, complex), np.asarray(a12, complex)],
                         [np.asarray(a21, complex), np.asarray(a22, complex)]])


def build_space(n_minus: int, n_plus: int) -> IndefiniteSpace:
    """Create the space with the given signature; rejects (0, 0)."""
    return IndefiniteSpace(int(n_minus), int(n_plus))


@dataclass(frozen=True)
class Subspace:
    """A subspace given by a full-column-rank n x d basis matrix."""

    space: IndefiniteSpace
    basis: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.basis, dtype=complex)
        if z.ndim != 2 or z.shape[0] != self.space.n:
            raise ValueError(f"basis must be {self.space.n} x d, got {z.shape}")
        if z.shape[1] > 0:
            s = np.linalg.svd(z, compute_uv=False)
            if s[-1] <= RANK_RTOL * s[0]:
                raise ValueError("basis columns are numerically dependent")
        object.__setattr__(self, "basis", z)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / null eigenvalues of a Hermitian form."""

    n_pos: int
    n_neg: int
    n_null: int

    @property
    def is_negative(self) -> bool:
        return self.n_pos == 0 and self.n_null == 0

    @property
    def is_positive(self) -> bool:
        return self.n_neg == 0 and self.n_null == 0


def _inertia(eigs: np.ndarray, rtol: float = RANK_RTOL) -> Inertia:
    """Sign count of a Hermitian form's eigenvalues, null when ``|eig| <= rtol * max|eig|``.

    Every inertia, negative-square count and Gram rank of the package is counted here.
    """
    if eigs.size == 0:
        return Inertia(0, 0, 0)
    thr = rtol * float(np.max(np.abs(eigs)))
    n_pos = int(np.count_nonzero(eigs > thr))
    n_neg = int(np.count_nonzero(eigs < -thr))
    return Inertia(n_pos, n_neg, eigs.size - n_pos - n_neg)


@dataclass(frozen=True)
class OperatorClasses:
    """Membership flags for the standard operator classes of a J-space."""

    j_selfadjoint: bool
    j_dissipative: bool
    strongly_j_dissipative: bool
    j_unitary: bool
    j_expanding: bool
    selfadjoint_defect: float
    dissipativity_margin: float
    unitarity_defect: float
    expanding_margin: float


def indefinite_product(space: IndefiniteSpace, x, y) -> complex:
    """The form [x, y] = (Jx, y), conjugate-linear in y."""
    xv = np.asarray(x, dtype=complex).reshape(-1)
    yv = np.asarray(y, dtype=complex).reshape(-1)
    if xv.shape[0] != space.n or yv.shape[0] != space.n:
        raise ValueError("vector length does not match the space dimension")
    return complex(np.vdot(yv, space.j_signs * xv))


def j_adjoint(space: IndefiniteSpace, a) -> np.ndarray:
    """A^# = J A^H J, the unique B with [Ax, y] = [x, By]."""
    m = _mat(a)
    if m.shape != (space.n, space.n):
        raise ValueError(f"operator must be {space.n}x{space.n}, got {m.shape}")
    signs = space.j_signs
    return signs[:, None] * m.conj().T * signs[None, :]


def dissipativity_form(space: IndefiniteSpace, a) -> np.ndarray:
    """The Hermitian matrix representing x -> Im[Ax, x].

    Equals ``(JA - A^H J) / 2i``; A is J-dissipative iff this is PSD.
    """
    # in place, so at most two n x n arrays are live.  h_ij and conj(h_ji)
    # come from the same two entries by mirrored exact steps, so they are
    # equal (the sign of a zero aside) and h needs no (h + h^H) / 2.
    h = space.j_signs[:, None] * _mat(a)
    h -= h.conj().T
    h /= 2j
    return h


def _unitarity_gap(space: IndefiniteSpace, m: np.ndarray) -> np.ndarray:
    """A^H J A - J, which vanishes exactly when A is J-unitary."""
    return m.conj().T @ (space.j_signs[:, None] * m) - space.j


def classify_operator(space: IndefiniteSpace, a, tol: float | None = None) -> OperatorClasses:
    """Test J-selfadjointness, (strong) J-dissipativity, J-unitarity, J-expansion.

    ``tol`` defaults to ``PREDICATE_TOL * nu``, where ``nu <= ||A||`` is the
    lower bound of :func:`_norm_lower_bound`: relative with no floor, so the
    predicates are scale-invariant, and the same scale as the dissipativity
    test of :func:`kreinkit.mnps.mnps`, so the two agree.
    """
    m = _mat(a)
    if m.shape != (space.n, space.n):
        raise ValueError(f"operator must be {space.n}x{space.n}, got {m.shape}")
    if tol is None:
        tol = PREDICATE_TOL * _norm_lower_bound(m)

    sa_defect = operator_norm(m - j_adjoint(space, m))
    form = dissipativity_form(space, m)
    margin = float(np.min(np.linalg.eigvalsh(form)))
    gram = _unitarity_gap(space, m)
    unit_defect = operator_norm(gram)
    exp_margin = float(np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)))

    return OperatorClasses(
        j_selfadjoint=sa_defect <= tol,
        j_dissipative=margin >= -tol,
        strongly_j_dissipative=margin > tol,
        j_unitary=unit_defect <= tol,
        j_expanding=exp_margin >= -tol,
        selfadjoint_defect=sa_defect,
        dissipativity_margin=margin,
        unitarity_defect=unit_defect,
        expanding_margin=exp_margin,
    )


def graph_of(space: IndefiniteSpace, w) -> Subspace:
    """The graph subspace L_W with basis [I; W] (block order H-, H+)."""
    wm = _mat(w)
    if wm.shape != (space.n_plus, space.n_minus):
        raise ValueError(
            f"graph operator must be {space.n_plus}x{space.n_minus}, got {wm.shape}"
        )
    z = np.vstack([np.eye(space.n_minus, dtype=complex), wm])
    return Subspace(space, z)


def graph_from_subspace(space: IndefiniteSpace, z) -> np.ndarray:
    """Graph operator W = Z+ Z-^{-1} of a subspace of dimension n_minus.

    Raises :class:`NotAGraphError` when the H- block of the basis is too
    ill-conditioned for the subspace to be a graph over H-.
    """
    zb = z.basis if isinstance(z, Subspace) else np.asarray(z, dtype=complex)
    if zb.ndim != 2 or zb.shape[0] != space.n:
        raise ValueError(f"basis must be {space.n} x d, got {zb.shape}")
    if zb.shape[1] != space.n_minus:
        raise ValueError(
            f"graph conversion needs a subspace of dimension {space.n_minus}"
        )
    k = space.n_minus
    z_minus = zb[:k, :]
    z_plus = zb[k:, :]
    if k == 0:
        return np.zeros((space.n_plus, 0), dtype=complex)
    if np.linalg.cond(z_minus) > GRAPH_COND_LIMIT:
        raise NotAGraphError("subspace is not a graph over H-")
    return np.linalg.solve(z_minus.T, z_plus.T).T


def subspace_signature(space: IndefiniteSpace, z, tol: float | None = None) -> Inertia:
    """Inertia of the Gram matrix Z^H J Z; eigenvalues within tol count as null."""
    zb = z.basis if isinstance(z, Subspace) else np.asarray(z, dtype=complex)
    if zb.shape[0] != space.n:
        raise ValueError(f"basis must be {space.n} x d, got {zb.shape}")
    gram = (zb.conj().T * space.j_signs) @ zb  # Z^H J Z with no n x n read
    gram = (gram + gram.conj().T) / 2.0
    if gram.shape[0] == 0:
        return Inertia(0, 0, 0)
    return _inertia(np.linalg.eigvalsh(gram), RANK_RTOL if tol is None else tol)


def invariance_residual(space: IndefiniteSpace, a, w) -> float:
    """Norm of W A11 + W A12 W - A21 - A22 W; zero iff L_W is A-invariant."""
    wm = _mat(w)
    if wm.shape != (space.n_plus, space.n_minus):
        raise ValueError(
            f"graph operator must be {space.n_plus}x{space.n_minus}, got {wm.shape}"
        )
    a11, a12, a21, a22 = space.blocks(a)
    return operator_norm(wm @ a11 + wm @ a12 @ wm - a21 - a22 @ wm)
