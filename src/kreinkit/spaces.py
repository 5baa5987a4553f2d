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

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IndefiniteSpace",
    "Subspace",
    "Inertia",
    "NotAGraphError",
    "build_space",
    "indefinite_product",
    "j_adjoint",
    "graph_of",
    "graph_from_subspace",
    "subspace_signature",
    "invariance_residual",
    "operator_norm",
]

#: Relative threshold below which eigenvalues / singular values count as zero.
RANK_RTOL = 1e-9

#: Slack of the J-dissipativity tests of ``mnps`` and the decay fixture, relative to a lower bound on ||A||.
PREDICATE_TOL = 1e-9

#: Condition-number guard for solving against the H- block of a basis.
GRAPH_COND_LIMIT = 1e12

#: Block-power steps and start columns of :func:`_norm_lower_bound`.
NORM_BOUND_STEPS = 6
NORM_BOUND_COLS = 4

#: Block size of the in-place Cholesky test (one call factors orders up to twice
#: this), of the block-pair builds of :func:`_mirrored_blocks` and of the rows
#: of ``c c^H`` that a dissipative draw forms at a time.
_BLOCK = 64


class NotAGraphError(ValueError):
    """Raised when a subspace cannot be written as a graph over H-."""


def operator_norm(m) -> float:
    """Spectral norm, defined as 0.0 for empty matrices."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _stack_norm(stack: np.ndarray) -> float:
    """Largest :func:`operator_norm` in a ``(..., r, c)`` stack, from one SVD call."""
    return float(np.max(np.linalg.svd(stack, compute_uv=False))) if stack.size else 0.0


def _stack_frobenius_norm(stack: np.ndarray) -> float:
    """The largest Frobenius norm in a stack: an upper bound of :func:`_stack_norm`."""
    return float(np.max(np.linalg.norm(stack, axis=(-2, -1))))


def _norm_lower_bound(m: np.ndarray) -> float:
    """A certified lower bound ``nu = ||A Q|| <= ||A||`` without an SVD of A.

    Q is the orthonormal factor after ``NORM_BOUND_STEPS`` block-power steps
    on ``A^H A`` from a fixed-seed Gaussian start of ``NORM_BOUND_COLS``
    columns, so nu is deterministic for a given A.  It costs ``O(n^2 k)``
    and allocates ``O(n k)``: ``A^H (A Q)`` is formed as ``((A Q)^H A)^H``,
    never through ``A^H``, and each is one with ``2^-e A`` (:func:`_unit_product`), so nu
    scales by exactly ``2^e``; a subnormal or infinite nu raises ``ValueError``.  A tolerance relative to
    nu is stricter than the same tolerance relative to ||A||; never substitute an upper bound.
    """
    n, e = m.shape[1], _unit_exponent(m)
    k = min(NORM_BOUND_COLS, n)
    rng = np.random.default_rng(0)
    q = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    for _ in range(NORM_BOUND_STEPS):
        mq = _unit_product(m.__matmul__, q, e)
        q = np.linalg.qr(_unit_product(lambda x: x.conj().T @ m, mq, e).conj().T)[0]
    with np.errstate(over="ignore"):  # a bound beyond the float range reads inf and is rejected
        return _normal_scale(float(np.ldexp(np.linalg.norm(_unit_product(m.__matmul__, q, e), 2), e)), "operator")


def _normal_scale(scale: float, name: str) -> float:
    """``scale``, or ``ValueError`` if it is inf or subnormal: such entries carry too few bits to judge."""
    if 0.0 < scale < np.finfo(float).tiny or scale == np.inf:
        raise ValueError(f"{name} scale {scale:.3e} is {'above' if scale > 1.0 else 'below'} the normal range")
    return scale


def _unit_exponent(a: np.ndarray) -> int:
    """e with the largest ``|Re|`` or ``|Im|`` of ``2^-e a`` in [0.5, 1), 0 for zeros; no temporary array."""
    v = a.view(float)
    return math.frexp(max(v.max(initial=0.0), -v.min(initial=0.0)))[1]


def _unit_scaled(a: np.ndarray, e: int) -> np.ndarray:
    """The exact ``2^-e a`` as a new array; ``np.ldexp`` keeps signed zeros and has no factor to overflow."""
    rows = a if a.strides[-1] == a.itemsize else a.copy()  # the float view needs unit-stride rows
    return np.ldexp(rows.view(float), -e).view(a.dtype)


def _unit_product(product, x: np.ndarray, e: int) -> np.ndarray:
    """``2^-e product(x)``, A of exponent e: half of ``2^-e`` scales x (copied unless 1), half the fresh result."""
    y = product(x if e // 2 == 0 else _unit_scaled(x, e // 2))
    return np.ldexp(y.view(float), e // 2 - e, out=y.view(float)).view(y.dtype)


def _plus_diagonal(h: np.ndarray, c, e: int = 0) -> np.ndarray:
    """``2^-e h + c I`` as the exact copy ``2^-e h`` with c added to its diagonal; I is never built."""
    out = _unit_scaled(h, e)
    out.flat[:: out.shape[1] + 1] += c
    return out


def _mirrored_blocks(n: int) -> list[tuple[slice, slice]]:
    """Slices ``(I, J)`` of the ``_BLOCK``-sized blocks of an n x n array with ``I <= J``.

    Block ``[I, J]`` and its mirror ``[J, I]`` together cover every entry once,
    so a Hermitian-like array can be built or symmetrized one pair at a time.
    """
    starts = range(0, n, _BLOCK)
    return [(slice(i, i + _BLOCK), slice(j, j + _BLOCK)) for i in starts for j in starts if i <= j]


def _positive_definite(h: np.ndarray, shift) -> bool:
    """Whether ``h + shift I`` has a Cholesky factor; h is overwritten.

    h must be a Hermitian array built for this test: the shift is added to its
    diagonal and its lower triangle is factored in place by a blocked
    left-looking Cholesky (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10).  Each block column is updated by one product
    with the finished columns, its diagonal block is factored by
    ``np.linalg.cholesky`` and the blocks below it are multiplied by
    ``inv(L_jj)^H``; the test returns False at the first diagonal block that
    has no factor.  Beside h it holds ``O(n * _BLOCK)`` entries and no
    second ``n x n`` array.  Up to order ``2 * _BLOCK`` h is factored
    by one ``np.linalg.cholesky`` call, which copies it.
    """
    n = h.shape[0]
    h.flat[:: n + 1] += shift
    size = n if n <= 2 * _BLOCK else _BLOCK
    try:
        for j0 in range(0, n, size):
            j1 = j0 + size
            if j0:
                h[j0:, j0:j1] -= h[j0:, :j0] @ h[j0:j1, :j0].conj().T
            factor = np.linalg.cholesky(h[j0:j1, j0:j1])
            if j1 < n:
                h[j1:, j0:j1] = h[j1:, j0:j1] @ np.linalg.inv(factor).conj().T
    except np.linalg.LinAlgError:
        return False
    return True


def _checked(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as a complex array of ``shape`` (``None``: any size) with finite entries.

    The package's one input gate: every public function that takes a matrix,
    vector, basis or stack passes it here before any linear algebra runs.
    """
    m = np.asarray(a, dtype=complex, order="C")  # unit-stride rows, for the float view of _unit_exponent
    if m.ndim != len(shape) or any(s not in (None, k) for s, k in zip(shape, m.shape)):
        want = "x".join("d" if s is None else str(s) for s in shape)
        want = want if len(shape) > 1 else f"of length {want}"
        raise ValueError(f"{name} must be {want}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _checked_tol(tol, name: str):
    """``tol`` if it is finite and above 0: inf would pass every residual test, nan or 0 none."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be a finite number above 0, got {tol!r}")
    return tol


#: One condition of a certificate; it passes when ``value <= bound``, so a NaN fails.
_Clause = collections.namedtuple("_Clause", "name value bound")


def _first_failed(clauses) -> str:
    """The name of the first clause that fails, ``""`` when all pass: every certificate's one rule."""
    return next((c.name for c in clauses if not c.value <= c.bound), "")


@functools.lru_cache(maxsize=64)
def _j_signs(n_minus: int, n_plus: int) -> np.ndarray:
    signs = np.r_[-np.ones(n_minus), np.ones(n_plus)]
    signs.setflags(write=False)
    return signs


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
        """The fundamental symmetry as a dense (read-only) matrix, built on each call.

        The package itself only ever uses :attr:`j_signs`.
        """
        j = np.diag(self.j_signs).astype(complex)
        j.setflags(write=False)
        return j

    @property
    def j_signs(self) -> np.ndarray:
        """The diagonal of J as a (read-only) real vector."""
        return _j_signs(self.n_minus, self.n_plus)

    def blocks(self, a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split an n x n matrix, or a stack of them, into (a11, a12, a21, a22) blocks."""
        m = np.asarray(a, dtype=complex)
        if m.shape[-2:] != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got {m.shape}")
        k = self.n_minus
        return m[..., :k, :k], m[..., :k, k:], m[..., k:, :k], m[..., k:, k:]

    def assemble(self, a11, a12, a21, a22) -> np.ndarray:
        """The n x n complex matrix with blocks (a11, a12, a21, a22), as :meth:`blocks` splits it."""
        out = np.empty((self.n, self.n), dtype=complex)
        k = self.n_minus
        out[:k, :k], out[:k, k:], out[k:, :k], out[k:, k:] = a11, a12, a21, a22
        return out


def build_space(n_minus: int, n_plus: int) -> IndefiniteSpace:
    """Create the space with the given signature; rejects (0, 0)."""
    return IndefiniteSpace(int(n_minus), int(n_plus))


@dataclass(frozen=True)
class Subspace:
    """A subspace given by a full-column-rank n x d basis matrix."""

    space: IndefiniteSpace
    basis: np.ndarray

    def __post_init__(self):
        z = _checked(self.basis, (self.space.n, None), "basis")
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


def indefinite_product(space: IndefiniteSpace, x, y) -> complex:
    """The form [x, y] = (Jx, y), conjugate-linear in y."""
    xv = _checked(np.reshape(x, -1), (space.n,), "x")
    yv = _checked(np.reshape(y, -1), (space.n,), "y")
    return complex(np.vdot(yv, space.j_signs * xv))


def j_adjoint(space: IndefiniteSpace, a) -> np.ndarray:
    """A^# = J A^H J, the unique B with [Ax, y] = [x, By]."""
    return _j_conjugate(space, _checked(a, (space.n, space.n), "operator").conj().T)


def dissipativity_form(space: IndefiniteSpace, a, e: int = 0) -> np.ndarray:
    """The Hermitian matrix representing x -> Im[Ax, x], of ``2^-e A``.

    Equals ``(JA - A^H J) / 2i``; A is J-dissipative iff this is PSD.  It is
    built into one fresh ``n x n`` array, one pair of mirrored blocks at a
    time, so beside A and the result only a few ``_BLOCK x _BLOCK`` blocks
    are live.  The factor ``2^-e`` rides on the signs of J: no pass, no copy.
    """
    # with G = JA, h[I, J] = G[I, J] - G[J, I]^H.  h_ij and conj(h_ji) come
    # from the same two entries by mirrored exact steps, so they are equal
    # (the sign of a zero aside) and h needs no (h + h^H) / 2.
    m, signs = np.asarray(a, dtype=complex), np.ldexp(space.j_signs, -e)
    h = np.empty_like(m)
    for rows, cols in _mirrored_blocks(space.n):
        upper, lower = signs[rows, None] * m[rows, cols], signs[cols, None] * m[cols, rows]
        np.subtract(upper, lower.conj().T, out=h[rows, cols])
        np.subtract(lower, upper.conj().T, out=h[cols, rows])
    h /= 2j
    return h


def _j_conjugate(space: IndefiniteSpace, m: np.ndarray) -> np.ndarray:
    """J M J: a copy of M with its off-diagonal blocks negated, exact to the bit."""
    out = np.array(m, dtype=complex)
    k = space.n_minus
    np.negative(out[:k, k:], out=out[:k, k:])
    np.negative(out[k:, :k], out=out[k:, :k])
    return out


def _unitarity_gap(space: IndefiniteSpace, m: np.ndarray) -> np.ndarray:
    """A^H J A - J, which vanishes exactly when A is J-unitary; stacks too.

    J is subtracted from the diagonal only, with no dense J.
    """
    gap = m.conj().swapaxes(-1, -2) @ (space.j_signs[:, None] * m)
    diagonal = np.arange(space.n)
    gap[..., diagonal, diagonal] -= space.j_signs
    return gap


def graph_of(space: IndefiniteSpace, w) -> Subspace:
    """The graph subspace L_W with basis [I; W] (block order H-, H+)."""
    wm = _checked(w, (space.n_plus, space.n_minus), "graph operator")
    z = np.vstack([np.eye(space.n_minus, dtype=complex), wm])
    return Subspace(space, z)


def graph_from_subspace(space: IndefiniteSpace, z) -> np.ndarray:
    """Graph operator W = Z+ Z-^{-1} of a subspace of dimension n_minus.

    Raises :class:`NotAGraphError` when the H- block of the basis is too
    ill-conditioned for the subspace to be a graph over H-.
    """
    zb = _checked(getattr(z, "basis", z), (space.n, None), "basis")
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
    zb = _checked(getattr(z, "basis", z), (space.n, None), "basis")
    tol = RANK_RTOL if tol is None else _checked_tol(tol, "tol")
    gram = (zb.conj().T * space.j_signs) @ zb  # Z^H J Z with no n x n read
    gram = (gram + gram.conj().T) / 2.0
    if gram.shape[0] == 0:
        return Inertia(0, 0, 0)
    return _inertia(np.linalg.eigvalsh(gram), tol)


def invariance_residual(space: IndefiniteSpace, a, w) -> float:
    """Norm of W A11 + W A12 W - A21 - A22 W; zero iff L_W is A-invariant."""
    wm = _checked(w, (space.n_plus, space.n_minus), "graph operator")
    m = _checked(a, (space.n, space.n), "operator")
    return _invariance_residual(space, m, wm, _unit_exponent(m))


def _invariance_residual(space: IndefiniteSpace, a: np.ndarray, w: np.ndarray, e: int) -> float:
    """Unchecked :func:`invariance_residual`, ``2^e`` times that of ``2^-e A``; temporaries are n_plus x n_minus.

    The norm is taken at the residual's own unit scale: each e that keeps it normal gives the same bits.
    """
    a11, a12, a21, a22 = space.blocks(a)
    x = _unit_scaled(w, e // 2)  # as in _unit_product, half of 2^-e before the products and half after
    r = _unit_scaled(x @ a11 + w @ (a12 @ x) - _unit_scaled(a21, e // 2) - a22 @ x, e - e // 2)
    f = _unit_exponent(r)
    return math.ldexp(operator_norm(_unit_scaled(r, f)), e + f)
