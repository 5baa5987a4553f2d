"""Invariant maximal non-positive subspaces of J-dissipative matrices.

The solver first looks for the MNPS as a fixed point of a fractional-linear
map of the operator ball, the route of Lomonosov's proof.  For every shift
``mu > 0`` at which ``A + i mu`` is invertible, the Cayley transform ``C =
(A + i mu)^{-1} (A - i mu)`` has the invariant subspaces of A and maps
non-positive subspaces to non-positive subspaces, so ``W -> phi_C(W)`` maps
the closed ball into itself.  Its eigenvalues outside the unit circle are
the images of those of A in the open lower half-plane, so iterating it from
``W = 0`` is subspace iteration in graph coordinates towards that spectral
subspace, the MNPS; for strictly J-dissipative A it converges
(Earle--Hamilton).  ``A + i mu`` is solved by block elimination with the
H+ block first: one block LU of ``A22 + i mu`` without pivoting between
blocks (``n_plus^3 / 3`` multiply-adds) and an ``n_minus x n_minus``
Schur complement inverted with pivoting, then ``O(n^2 n_minus)`` work per
step.  No pivoting is needed in the H+ block: the Hermitian part of ``(A22
+ i mu) / (i mu)`` is ``I + Im(A22) / mu``, and ``Im(A22)`` is the H+
block of the dissipativity form, which the solver proves to be at least
``-PREDICATE_TOL * nu``; so every shift ``mu >= 4 PREDICATE_TOL nu`` keeps
it at least ``0.75 I``, and so that of every pivot block and Schur
complement.

No step takes an SVD of A.  Its scale is ``nu <= ||A||``, a lower bound
from a few seeded block-power steps (``spaces._norm_lower_bound``, within
a few percent of ||A||; above ``0.95 ||A||`` on every draw measured).
Every tolerance is relative to nu, so it is at least as strict as the same
tolerance relative to ||A||.  A and sA (s > 0) have the same MNPS, and each
step runs on ``2^-e A``, ``2^-e nu`` in [0.5, 1), through arrays it makes anyway
(the form, the LU copy of ``A22 + i mu``, ``n x k`` copies, each ``A + itJ``)
with mu, t and the slacks in units of ``2^e``: W has the same bits at every scale.

For every ``mu > 0``, ``|c(lambda)| = |lambda - i mu| / |lambda + i mu|``
exceeds 1 exactly when ``Im lambda < 0``, so the fixed point does not
depend on mu; mu sets the speed.  It is aimed at the lower eigenvalues:
for lower eigenvalues ``-i beta`` with beta in ``[b1, b2]``, the smallest
expansion ``(beta + mu) / |beta - mu|`` is largest at ``mu = sqrt(b1
b2)``.  So mu is the geometric mean of the moduli of the ``n_minus``
Ritz values in the open lower half-plane, from block Arnoldi on A started
at H- over at most four blocks (three block products), clamped to ``[4
PREDICATE_TOL nu, 1.25 nu]``.  On strongly J-dissipative draws with
``n_minus << n`` it is about 0.4 nu, and the iteration takes 13 to 21
steps at n = 400 and 1000.  When the Ritz values in the
lower half-plane are not ``n_minus``, or the Schur complement is singular
or worse conditioned than ``GRAPH_COND_LIMIT``, the solve runs at the cap
``mu = 1.25 nu``, above ``||A||`` (``nu > 0.8 ||A||``), where ``A + i mu``
is invertible.  A shift too small is caught all the same: the stall
check, the ``cond(Y-)`` check and the certificate send the solve to the
fallback.

When the iteration stalls or its graph does not certify, the solver falls
back to one eigendecomposition of ``A + itJ``.  An eigenpair of a
J-dissipative matrix has ``Im(lambda) [x, x] = Im[Ax, x] >= 0``, and near the
axis, where rounding can move ``Im lambda`` across 0, the sign of the type
``[x, x]`` still tells the sides apart (Gohberg, Lancaster and Rodman,
*Indefinite Linear Algebra and Applications*, 2005).  So the rule keeps the
eigenvectors with ``Im lambda < -TYPE_RTOL nu`` and, inside that strip, those
with ``[x, x] < 0``.  It needs exactly ``n_minus`` independent vectors, which
a defective eigenvalue denies, so t follows a fixed schedule: ``t = 0``, then
``T0_SCALE * nu * SHRINK**j`` for ``j < LADDER_LEVELS``.  Once a level
certifies against the *original* matrix, t shrinks while the residual falls,
and the certified level with the smallest residual wins: the MNPS of ``A +
itJ`` moves away from that of A as t grows.  Either way the certificate --
not the sequence of iterates -- is the contract: its clause
``invariance_residual`` is the residual at most ``tol_res * nu``, its clause
``w_norm`` is ``||W|| <= 1 + W_NORM_SLACK``.

Memory: up to the fallback, a solve holds at most one ``n x n`` array beside
its input, which it never writes.  The dissipativity form is built fresh and
overwritten by its own Cholesky test (``spaces._positive_definite``), and it
is freed before the copy of ``A22 + i mu`` that :func:`_block_lu` overwrites
with its factors; a retry at the cap shift frees the first factors before it
makes the second.  The last level of :func:`approximation_ladder` solves A
itself.  Each level of the fallback holds ``A + itJ`` and its eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .spaces import (
    GRAPH_COND_LIMIT,
    IndefiniteSpace,
    Inertia,
    NotAGraphError,
    PREDICATE_TOL,
    RANK_RTOL,
    Subspace,
    _Clause,
    _checked,
    _checked_tol,
    _first_failed,
    _inertia,
    _invariance_residual,
    _norm_lower_bound,
    _plus_diagonal,
    _positive_definite,
    _unit_product,
    _unit_scaled,
    dissipativity_form,
    graph_from_subspace,
    operator_norm,
)
from .serialization import _is_integer, report_to_json

__all__ = [
    "NotDissipativeError",
    "SpectrumOnAxisError",
    "MnpsReport",
    "LadderReport",
    "VerifyReport",
    "spectral_split",
    "mnps",
    "approximation_ladder",
    "verify_mnps",
]

#: Relative half-width of the spectral exclusion strip around the real axis.
AXIS_RTOL = 1e-12

#: Half-width, relative to nu, of the axis strip where the fallback picks eigenvectors by type.
TYPE_RTOL = 1.5e-8

#: The fallback's schedule of t after t = 0: ``T0_SCALE * nu * SHRINK**j``
#: for ``j < LADDER_LEVELS``.
T0_SCALE = 1e-2
SHRINK = 0.5
LADDER_LEVELS = 40

#: Default relative residual of the certificate.
DEFAULT_TOL_RES = 1e-9

#: Slack of the certificate's maximality test ``||W|| <= 1 + W_NORM_SLACK``.
W_NORM_SLACK = 1e-8

#: Cayley shift factor.  The shift is at most ``CAYLEY_SHIFT * nu``, above
#: ||A|| for ``nu > 0.8 ||A||`` (at ``mu = ||A||``, A + i mu is singular for
#: A = iJ); the solve falls back to this cap when the Ritz shift fails.
CAYLEY_SHIFT = 1.25

#: Step cap of the Cayley fixed-point iteration.
CAYLEY_MAX_STEPS = 300

#: A graph increment this small counts as roundoff; a ball point has norm <= 1.
CAYLEY_ROUNDOFF = 1e-10

#: The iteration stops once its geometric tail bound on ``||W - W*||`` is this small.
CAYLEY_TAIL = 1e-14

#: Block size of the pivot-free block LU of ``A + i mu``: one block up to n = 128.
_LU_BLOCK = 128


def __getattr__(name: str):
    # ``kreinkit.mnps.sla`` is scipy.linalg, imported on first use.  No solver
    # code uses it: it stays only because perfbench's tracer wraps ``sla.schur``
    # through this name, and goes when the tracer stops reading it.
    if name == "sla":
        import scipy.linalg

        return scipy.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotDissipativeError(ValueError):
    """Raised when an operator fails the J-dissipativity precondition."""


class SpectrumOnAxisError(RuntimeError):
    """Raised when eigenvalues sit on the real axis and the split is undefined."""


@dataclass(frozen=True)
class MnpsReport:
    """Certificate for one invariant-MNPS computation.

    ``residual`` is always measured against the original input matrix.  An
    uncertified report names its first failed clause in ``failed_clause``.
    """

    w: np.ndarray
    residual: float
    w_norm: float
    subspace_inertia: Inertia
    regularization_t: float
    iterations: int
    certified: bool
    message: str = ""
    failed_clause: str = ""

    def as_dict(self) -> dict:
        return report_to_json(self)


@dataclass(frozen=True)
class LadderLevel:
    k_minus: int
    k_plus: int
    w_embedded: np.ndarray = field(metadata={"json": None})
    residual: float
    certified: bool
    delta_to_previous: float | None
    failed_clause: str = ""


@dataclass(frozen=True)
class LadderReport:
    levels: tuple[LadderLevel, ...]
    final_w: np.ndarray
    final_report: MnpsReport = field(metadata={"json": "final"})

    @property
    def all_certified(self) -> bool:
        return all(lv.certified for lv in self.levels)

    def as_dict(self) -> dict:
        return report_to_json(self)


@dataclass(frozen=True)
class VerifyReport:
    maximal_nonpositive: bool
    invariant: bool
    residual: float
    inertia: Inertia


def _eig_basis(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``x[:, keep]`` by QR; columns that R shows dependent to RANK_RTOL raise."""
    q, r = np.linalg.qr(x[:, keep])
    d = np.abs(np.diagonal(r))
    if d.size and d.min() <= RANK_RTOL * d.max():
        raise SpectrumOnAxisError("the kept eigenvectors are dependent: a defective eigenvalue")
    return q


def spectral_split(space: IndefiniteSpace, a) -> tuple[Subspace, Subspace]:
    """Invariant subspaces for the lower / upper open half-planes.

    Both bases come from one eigendecomposition.  Fails with
    :class:`SpectrumOnAxisError` when some eigenvalue is within ``AXIS_RTOL *
    nu`` of the real axis, with ``nu <= ||A||`` the scale of :func:`mnps`, or
    when the eigenvectors of one half-plane are dependent.
    """
    m = _checked(a, (space.n, space.n), "operator")
    unit, e = math.frexp(scale := _norm_lower_bound(m))  # nu = 2^e unit, unit in [0.5, 1)
    lam, x = np.linalg.eig(_unit_scaled(m, e))
    on_axis = np.count_nonzero(np.abs(lam.imag) <= AXIS_RTOL * unit)
    if on_axis:
        raise SpectrumOnAxisError(f"{on_axis} eigenvalues lie within AXIS_RTOL * nu = {AXIS_RTOL * scale:.3e} "
                                  "of the real axis")
    return Subspace(space, _eig_basis(x, lam.imag < 0.0)), Subspace(space, _eig_basis(x, lam.imag > 0.0))


def _certificate(space: IndefiniteSpace, m: np.ndarray, w: np.ndarray, tol: float, scale: float):
    """Residual, graph inertia and ``||W||`` of W, and its two certificate clauses.

    The one test behind :func:`mnps` and :func:`verify_mnps`: ``invariance_residual``
    passes when the residual is at most ``tol * scale``, ``w_norm`` (maximal
    non-positive) when ``||W|| <= 1 + W_NORM_SLACK``.  One singular-value call on W
    gives ``||W||`` and the inertia: the Gram matrix of ``[I; W]`` is ``W^H W - I``,
    with eigenvalues ``s_i^2 - 1`` and ``-1`` on the rest of H-.  The solver's ``tol_res``
    defaults to 1e-9 and the verifier's ``tol`` to 1e-8, so every certified W verifies.
    """
    res = _invariance_residual(space, m, w, math.frexp(scale)[1])
    s = np.linalg.svd(w, compute_uv=False)
    w_norm = float(s[0]) if s.size else 0.0
    gram_eigs = np.concatenate([s**2 - 1.0, -np.ones(space.n_minus - s.size)])
    clauses = _Clause("invariance_residual", res, tol * scale), _Clause("w_norm", w_norm, 1.0 + W_NORM_SLACK)
    return res, _inertia(gram_eigs), w_norm, clauses


def _report_for(
    space: IndefiniteSpace, m: np.ndarray, w, t, iterations, tol_res, scale
) -> MnpsReport:
    res, inertia, w_norm, clauses = _certificate(space, m, w, tol_res, scale)
    failed = _first_failed(clauses)
    return MnpsReport(
        w=w,
        residual=res,
        w_norm=w_norm,
        subspace_inertia=inertia,
        regularization_t=t,
        iterations=iterations,
        certified=not failed,
        message=failed and f"failed to certify: {failed}",
        failed_clause=failed,
    )


def _eig_graph(space: IndefiniteSpace, m: np.ndarray, delta: float) -> np.ndarray:
    """Graph of m's eigenvectors with ``Im lambda < -delta`` or, within delta of the axis, ``[x, x] < 0``.

    Raises :class:`SpectrumOnAxisError` unless exactly ``n_minus`` independent vectors are kept.
    """
    lam, x = np.linalg.eig(m)
    types = space.j_signs @ (x.real**2 + x.imag**2)  # [x, x] of each column
    keep = (lam.imag < -delta) | ((np.abs(lam.imag) <= delta) & (types < 0.0))
    if np.count_nonzero(keep) != space.n_minus:
        raise SpectrumOnAxisError(f"{np.count_nonzero(keep)} eigenvectors picked, expected {space.n_minus}")
    return graph_from_subspace(space, _eig_basis(x, keep))


def _block_lu(m: np.ndarray) -> np.ndarray:
    """Block LU of m without pivoting between blocks, in place; returns m.

    Left-looking (Crout): block row j of U and block column j of L come from
    one product each with the finished blocks.  Each diagonal block holds the
    inverse of its pivot (``np.linalg.inv`` pivots within the block and raises
    ``LinAlgError`` on an exactly singular one), the strict lower blocks hold
    the multipliers of the unit lower factor and the strict upper blocks hold U.
    """
    n = m.shape[0]
    for j0 in range(0, n, _LU_BLOCK):
        j1 = min(j0 + _LU_BLOCK, n)
        m[j0:j1, j0:] -= m[j0:j1, :j0] @ m[:j0, j0:]
        m[j1:, j0:j1] -= m[j1:, :j0] @ m[:j0, j0:j1]
        m[j0:j1, j0:j1] = np.linalg.inv(m[j0:j1, j0:j1])
        m[j1:, j0:j1] = m[j1:, j0:j1] @ m[j0:j1, j0:j1]
    return m


def _lu_solve(lu: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``x`` with ``L U x = z`` for the factors stored by :func:`_block_lu`."""
    n = lu.shape[0]
    x = z.copy()
    starts = range(0, n, _LU_BLOCK)
    for i0 in starts[1:]:  # forward: L is unit lower triangular
        x[i0 : i0 + _LU_BLOCK] -= lu[i0 : i0 + _LU_BLOCK, :i0] @ x[:i0]
    for i0 in reversed(starts):  # back: x_i = U_ii^{-1} (y_i - U_i,>i x_>i)
        i1 = min(i0 + _LU_BLOCK, n)
        x[i0:i1] = lu[i0:i1, i0:i1] @ (x[i0:i1] - lu[i0:i1, i1:] @ x[i1:])
    return x


def _cayley_shift(space: IndefiniteSpace, m: np.ndarray, scale: float) -> float:
    """Shift of the Cayley solve: the geometric mean of the lower Ritz values' moduli.

    The Ritz values come from block Arnoldi on m from ``[I; 0]`` (H-) over
    ``p = min(4, n // n_minus)`` blocks: the first product is m's first
    ``n_minus`` columns, so the estimate costs ``p - 1`` block products.  The
    mean is clamped to ``[4 PREDICATE_TOL nu, CAYLEY_SHIFT nu]``; it is the
    cap when the Ritz values in the open lower half-plane are not ``n_minus``.  The blocks are
    those of ``2^-e m``, e the exponent of ``scale``, so mu scales with m to the last bit.
    """
    (unit, e), k = math.frexp(scale), space.n_minus
    v, av = np.eye(space.n, k, dtype=complex), _unit_scaled(m[:, :k], e)
    for _ in range(1, min(4, space.n // k)):
        w = av[:, -k:]
        for _ in range(2):  # Gram--Schmidt twice keeps the basis orthonormal
            w = w - v @ (v.conj().T @ w)
        q, r = np.linalg.qr(w)
        if not np.all(np.diagonal(r)):  # a zero pivot: q would repeat a column of v, so
            break  # stop at the Krylov space so far (exact when it is invariant, w = 0)
        v, av = np.hstack([v, q]), np.hstack([av, _unit_product(m.__matmul__, q, e)])
    ritz = np.linalg.eigvals(v.conj().T @ av)
    lower = np.abs(ritz[ritz.imag < 0.0])
    mu = float(np.exp(np.mean(np.log(lower)))) if lower.size == k else CAYLEY_SHIFT * unit
    return math.ldexp(min(max(mu, 4.0 * PREDICATE_TOL * unit), CAYLEY_SHIFT * unit), e)


def _cayley_graph(space: IndefiniteSpace, m: np.ndarray, scale: float) -> np.ndarray | None:
    """Fixed point of ``W -> phi_C(W)`` for the Cayley transform C of m, or None.

    ``C = (m + i mu)^{-1} (m - i mu) = I - 2i mu (m + i mu)^{-1}`` with mu
    from :func:`_cayley_shift`, so one step maps the basis ``Z = [I; W]``
    of the graph to ``Y = C Z``, and the next W is ``Y+ Y-^{-1}``.  Neither
    C nor ``(m + i mu)^{-1}`` is formed.  ``m + i mu`` is solved by block
    elimination with the H+ block first: :func:`_block_lu` factors ``m22 +
    i mu`` (``n_plus^3 / 3`` multiply-adds), ``F = (m22 + i mu)^{-1} m21``
    and the ``n_minus x n_minus`` Schur complement ``S = m11 + i mu - m12
    F`` are formed once, and each step costs ``O(n^2 n_minus)``: ``g =
    (m22 + i mu)^{-1} Z+``, ``X- = S^{-1} (Z- - m12 g)``, ``X+ = g - F X-``.

    The LU of ``m22 + i mu`` needs no pivoting between blocks.  The
    Hermitian part of ``(m22 + i mu) / (i mu)`` is ``I + Im(m22) / mu``,
    and ``Im(m22)`` is the H+ block of the dissipativity form, which
    :func:`mnps` proves to be at least ``-PREDICATE_TOL * nu``; so for ``mu
    >= 4 PREDICATE_TOL nu`` it is at least ``0.75 I``, every pivot block and
    Schur complement has positive definite Hermitian part, hence a bounded
    inverse, and the factorization is stable (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 10).  S is inverted
    with pivoting.  When S is singular or worse conditioned than
    ``GRAPH_COND_LIMIT``, the solve is set up once more at ``mu =
    CAYLEY_SHIFT * nu``, above ``||m||``, where ``m + i mu`` is invertible.

    With ``q`` the larger of the last two increment ratios, the iteration
    returns W once the geometric tail bound ``step * q / (1 - q)`` on its
    distance to the fixed point is at most ``CAYLEY_TAIL``.  It is None when
    no shift gives a usable factorization, when the increment stops
    shrinking above ``CAYLEY_ROUNDOFF``, when the step cap is hit, or when
    ``Y-`` is worse conditioned than ``GRAPH_COND_LIMIT``.  It runs on ``2^-e m``, e the exponent
    of ``scale``: the LU copy of ``m22 + i mu`` is made scaled, ``m11``, ``m12`` and ``m21`` are
    scaled copies and mu is in units of ``2^e``, so W has the same bits at every scale of m.
    """
    (unit, e), k = math.frexp(scale), space.n_minus
    a11, a12, a21 = (_unit_scaled(b, e) for b in (m[:k, :k], m[:k, k:], m[k:, :k]))
    for mu in dict.fromkeys((math.ldexp(_cayley_shift(space, m, scale), -e), CAYLEY_SHIFT * unit)):
        lu = None  # the first shift's factors are freed before the second's are made
        try:
            lu = _block_lu(_plus_diagonal(m[k:, k:], 1j * mu, e))
            f = _lu_solve(lu, a21)
            s = _plus_diagonal(a11, 1j * mu) - a12 @ f
            s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError:  # a singular pivot block or S
            continue
        if np.linalg.cond(s) <= GRAPH_COND_LIMIT:
            break
    else:
        return None
    z = np.eye(space.n, k, dtype=complex)  # [I; W] with W = 0
    prev = prev_ratio = np.inf
    for _ in range(CAYLEY_MAX_STEPS):
        g = _lu_solve(lu, z[k:])
        x_minus = s_inv @ (z[:k] - a12 @ g)
        y_minus = z[:k] - 2j * mu * x_minus
        try:
            w = (z[k:] - 2j * mu * (g - f @ x_minus)) @ np.linalg.inv(y_minus)
        except np.linalg.LinAlgError:  # Y- exactly singular
            return None
        step = float(np.linalg.norm(w - z[k:]))
        z[k:] = w
        if step < prev:  # still contracting
            ratio = step / prev if prev < np.inf else np.inf  # wait for two true ratios
            q = max(ratio, prev_ratio)  # one lucky drop does not end the loop
            prev, prev_ratio = step, ratio
            if not step * q <= CAYLEY_TAIL * (1.0 - q):
                continue
        elif step > CAYLEY_ROUNDOFF:  # stopped contracting above roundoff
            return None
        if np.linalg.cond(y_minus) > GRAPH_COND_LIMIT:
            return None
        return w
    return None


def mnps(space: IndefiniteSpace, a, tol_res: float = DEFAULT_TOL_RES) -> MnpsReport:
    """Invariant MNPS of a J-dissipative matrix, certified against the input.

    Tries the Cayley fixed point first; a graph it finds that certifies is
    reported with ``t = 0`` and ``iterations = 1``.  Otherwise takes the
    graph of the eigenvectors of ``A + i t J`` that the rule of the module
    docstring picks, along its fixed schedule: ``t = 0`` first, which is the
    answer if it certifies, then ``t = T0_SCALE * nu * SHRINK**j``.  A level
    certifies when the graph's invariance residual against the original A
    is at most ``tol_res * nu``; after the first one, t keeps shrinking
    while the residual falls, and the certified level with the smallest
    residual is returned.  ``iterations`` counts the levels tried.  When none
    certifies, the level with the smallest residual is returned naming its
    failed clause.  ``nu <= ||A||``, the lower bound of the module docstring, also scales the
    dissipativity slack, the Cayley shift, the schedule and the fallback's type strip.
    ``tol_res`` must be finite and above 0, and A not subnormal (``ValueError`` otherwise).
    """
    m = _checked(a, (space.n, space.n), "operator")
    _checked_tol(tol_res, "tol_res")
    zero = np.zeros((space.n_plus, space.n_minus), dtype=complex)
    if not np.any(m):  # A = 0: every MNPS is invariant
        return _report_for(space, m, zero, 0.0, 0, tol_res, 0.0)
    unit, e = math.frexp(scale := _norm_lower_bound(m))  # every step below runs on 2^-e A, where nu is unit
    if not _positive_definite(dissipativity_form(space, m, e), PREDICATE_TOL * unit):
        raise NotDissipativeError(f"operator is not J-dissipative: its dissipativity form plus "
                                  f"{PREDICATE_TOL * scale:.3e} I has no Cholesky factor")
    if space.n_minus == 0 or space.n_plus == 0:  # definite space: the MNPS is forced
        return _report_for(space, m, zero, 0.0, 0, tol_res, scale)

    cayley = _cayley_graph(space, m, scale)
    if cayley is not None:
        report = _report_for(space, m, cayley, 0.0, 1, tol_res, scale)
        if report.certified:
            return report

    schedule = (0.0, *(T0_SCALE * unit * SHRINK**j for j in range(LADDER_LEVELS)))
    best: MnpsReport | None = None
    for tried, t in enumerate(schedule, 1):
        try:
            w = _eig_graph(space, _plus_diagonal(m, 1j * t * space.j_signs, e), TYPE_RTOL * unit)
        except (SpectrumOnAxisError, NotAGraphError, np.linalg.LinAlgError):  # eig did not converge
            report = None
        else:
            report = _report_for(space, m, w, math.ldexp(t, e), tried, tol_res, scale)
        if report is not None and (
            best is None or (report.certified, -report.residual) > (best.certified, -best.residual)
        ):
            best = report  # certified first, then the smaller residual
            if best.certified and t == 0.0:
                break  # the unperturbed A certifies
        elif best is not None and best.certified:
            break  # the residual stopped falling past a certified level
    if best is None:
        best = _report_for(space, m, zero, math.ldexp(schedule[-1], e), tried, tol_res, scale)
    return replace(best, iterations=tried)


def approximation_ladder(
    space: IndefiniteSpace,
    a,
    levels,
    tol_res: float = DEFAULT_TOL_RES,
) -> LadderReport:
    """Solve the MNPS problem along a ladder of coordinate truncations.

    Each level (k-, k+) compresses A onto the first k- negative and first k+
    positive coordinates (which preserves J-dissipativity since J is
    diagonal); residuals are measured against the truncated operator, and
    each level is solved by :func:`mnps` with ``tol_res``.  The last level
    must be the full problem.
    """
    m = _checked(a, (space.n, space.n), "operator")
    try:
        levels = [(km, kp) for km, kp in levels]
        pairs = all(_is_integer(k) for level in levels for k in level)
    except (TypeError, ValueError):  # a level that does not unpack into two
        pairs = False
    if not pairs:
        raise ValueError(f"ladder levels must be pairs of integers, got {levels}")
    levels = [(int(km), int(kp)) for km, kp in levels]
    if not levels:
        raise ValueError("at least one ladder level is required")
    for (km0, kp0), (km1, kp1) in zip(levels, levels[1:]):
        if km1 < km0 or kp1 < kp0 or (km1, kp1) == (km0, kp0):
            raise ValueError("ladder levels must increase")
    for km, kp in levels:
        if km < 0 or kp < 0 or km > space.n_minus or kp > space.n_plus or km + kp == 0:
            raise ValueError(f"level ({km}, {kp}) is out of range for the space")
    if levels[-1] != (space.n_minus, space.n_plus):
        raise ValueError("last ladder level must equal the full signature")

    out: list[LadderLevel] = []
    prev_w: np.ndarray | None = None
    for km, kp in levels:
        if (km, kp) == (space.n_minus, space.n_plus):  # the full problem: A itself, not a copy
            sub = m
        else:
            idx = np.r_[np.arange(km), space.n_minus + np.arange(kp)]
            sub = m[np.ix_(idx, idx)]
        rep = mnps(IndefiniteSpace(km, kp), sub, tol_res=tol_res)
        w_full = np.zeros((space.n_plus, space.n_minus), dtype=complex)
        w_full[:kp, :km] = rep.w
        delta = None if prev_w is None else operator_norm(w_full - prev_w)
        out.append(
            LadderLevel(
                k_minus=km,
                k_plus=kp,
                w_embedded=w_full,
                residual=rep.residual,
                certified=rep.certified,
                delta_to_previous=delta,
                failed_clause=rep.failed_clause,
            )
        )
        prev_w = w_full
    return LadderReport(levels=tuple(out), final_w=out[-1].w_embedded, final_report=rep)


def verify_mnps(space: IndefiniteSpace, a, w, tol: float = 1e-8) -> VerifyReport:
    """Check that W parametrizes an MNPS and that its graph is A-invariant.

    W is judged by the same certificate as :func:`mnps`: the graph is
    invariant when its residual is at most ``tol * nu``, with ``nu <= ||A||``
    the scale :func:`mnps` uses, and maximal non-positive when
    ``||W|| <= 1 + W_NORM_SLACK``, which ``tol`` does not change.
    """
    m = _checked(a, (space.n, space.n), "operator")
    w = _checked(w, (space.n_plus, space.n_minus), "graph operator")
    _checked_tol(tol, "tol")
    res, inertia, _, (invariant, maximal) = _certificate(space, m, w, tol, _norm_lower_bound(m))
    return VerifyReport(maximal_nonpositive=not _first_failed([maximal]),
                        invariant=not _first_failed([invariant]), residual=res, inertia=inertia)
