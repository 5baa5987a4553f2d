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
(Earle--Hamilton).  It costs one block LU of ``A + i mu`` without pivoting
between blocks (``n^3 / 3`` multiply-adds), and ``O(n^2 n_minus)`` work per
step.  No pivoting is needed: the shift keeps the Hermitian part of ``(A +
i mu) / (i mu)``, ``I + Im(A) / mu``, positive definite, and so that of
every pivot block and Schur complement.

No step takes an SVD of A.  Its scale is ``nu <= ||A||``, a lower bound
from a few seeded block-power steps (``spaces._norm_lower_bound``, within
a few percent of ||A||; above ``0.95 ||A||`` on every draw measured).
Every tolerance is relative to nu, so it is at least as strict as the same
tolerance relative to ||A||.

The shift is ``mu = min(1.25 nu, max(1.25 theta, rho))``, from the
``n_minus`` rows of A in ``O(n n_minus^2)`` work.  For every ``mu > 0``,
``|c(lambda)| = |lambda - i mu| / |lambda + i mu|`` exceeds 1 exactly when
``Im lambda < 0``, so the fixed point does not depend on mu; mu sets the
speed and keeps the LU stable.  ``theta >= -lambda_min(Im A)`` is certified
by the Pontryagin structure: ``Im A`` is the dissipativity form, which the
solver proves positive semidefinite, plus a Hermitian matrix of rank at
most ``2 n_minus`` whose spectrum is that of a ``2 n_minus x 2 n_minus``
matrix.  So ``mu >= 1.25 theta`` keeps ``I + Im(A) / mu >= 0.2 I``, and the
cap ``1.25 nu > ||A||`` (``nu > 0.8 ||A||``) keeps it positive definite too.
For a lower eigenvalue ``a - i beta``, ``|c|^2 = (a^2 + (mu + beta)^2) /
(a^2 + (mu - beta)^2)`` falls as mu grows past ``|lambda|``; ``rho = ||A11||
+ ||A12|| >= |lambda|`` for each of them, so ``mu >= rho`` maps every lower
eigenvalue at least as far outside the unit circle as ``mu = 1.25 nu``
does.  The upper ones have no such guarantee: where mu falls far below
their moduli, as when the H- block of A is much smaller than the rest,
their images move towards the unit circle and the iteration can reach its
step cap.  On strongly
J-dissipative draws with ``n_minus << n`` the shift is 0.7 to 0.8 nu, and
the iteration takes 35--47% fewer steps than at 1.25 nu.  A shift too
small is caught all the same: a singular pivot block of ``A + i mu``, the
stall check, the ``cond(Y-)`` check and the certificate all send the solve
to the fallback.

When the iteration stalls or its graph does not certify, the solver falls
back to the finite-dimensional route: the spectral subspace of ``A + itJ``
for the open lower half-plane, from a sorted Schur form (for t > 0 the
operator is strongly J-dissipative and the subspace negative, hence a graph
over H-).  The schedule is fixed: ``t = 0``, then ``T0_SCALE * nu *
SHRINK**j`` for ``j < LADDER_LEVELS``.  Once a level certifies against the
*original* matrix, t shrinks while the residual falls, and the certified
level with the smallest residual wins: the MNPS of ``A + itJ`` moves away
from that of A as t grows.  Either way the certificate -- not the sequence
of iterates -- is the contract: the residual is at most ``tol_res * nu``
and ``||W|| <= 1 + W_NORM_SLACK``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .spaces import (
    GRAPH_COND_LIMIT,
    IndefiniteSpace,
    Inertia,
    NotAGraphError,
    PREDICATE_TOL,
    Subspace,
    _inertia,
    _mat,
    _norm_lower_bound,
    _plus_diagonal,
    dissipativity_form,
    graph_from_subspace,
    invariance_residual,
    operator_norm,
)
from .serialization import report_to_json

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

#: The Schur fallback's schedule of t after t = 0: ``T0_SCALE * nu * SHRINK**j``
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
#: A = iJ), and below that cap at least ``CAYLEY_SHIFT * theta``, which keeps
#: the Hermitian part of ``(A + i mu) / (i mu)`` at least ``0.2 I``.
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
    # ``kreinkit.mnps.sla`` is scipy.linalg, imported on first use: only the
    # Schur fallback needs it, and its import costs more than a Cayley solve.
    # perfbench's tracer wraps ``sla.schur`` through this name.
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

    ``residual`` is always measured against the original input matrix.
    """

    w: np.ndarray
    residual: float
    w_norm: float
    subspace_inertia: Inertia
    regularization_t: float
    iterations: int
    certified: bool
    message: str = ""

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


def _half_plane_basis(
    m: np.ndarray, lower: bool, tol_axis: float
) -> np.ndarray:
    """Orthonormal basis of the invariant subspace for Im(lambda) < 0 (or > 0)."""
    import scipy.linalg as sla  # schur is looked up on the module at each call

    try:
        if lower:
            t, z, sdim = sla.schur(m, output="complex", sort=lambda lam: lam.imag < 0.0)
        else:
            t, z, sdim = sla.schur(m, output="complex", sort=lambda lam: lam.imag > 0.0)
    except sla.LinAlgError as exc:  # reordering failed: eigenvalues too entangled
        raise SpectrumOnAxisError(
            "the sorted Schur reordering failed to separate the spectrum "
            "across the real axis"
        ) from exc
    eigs = np.diag(t)
    if eigs.size and np.min(np.abs(eigs.imag)) <= tol_axis:
        raise SpectrumOnAxisError(
            f"an eigenvalue lies within AXIS_RTOL * nu = {tol_axis:.3e} of the real axis"
        )
    return z[:, :sdim]


def spectral_split(space: IndefiniteSpace, a) -> tuple[Subspace, Subspace]:
    """Invariant subspaces for the lower / upper open half-planes.

    Fails with :class:`SpectrumOnAxisError` when some eigenvalue is within
    ``AXIS_RTOL * nu`` of the real axis, with ``nu <= ||A||`` the scale of
    :func:`mnps`, whose fallback uses the same strip.
    """
    m = _mat(a)
    if m.shape != (space.n, space.n):
        raise ValueError(f"operator must be {space.n}x{space.n}, got {m.shape}")
    tol_axis = AXIS_RTOL * _norm_lower_bound(m)
    z_minus = _half_plane_basis(m, True, tol_axis)
    z_plus = _half_plane_basis(m, False, tol_axis)
    if z_minus.shape[1] + z_plus.shape[1] != space.n:
        raise SpectrumOnAxisError(
            f"{space.n - z_minus.shape[1] - z_plus.shape[1]} eigenvalues lie within "
            f"AXIS_RTOL * nu = {tol_axis:.3e} of the real axis"
        )
    return Subspace(space, z_minus), Subspace(space, z_plus)


def _certificate(space: IndefiniteSpace, m: np.ndarray, w: np.ndarray, tol: float, scale: float):
    """Residual, graph inertia and ``||W||`` of W, and whether it is invariant and maximal.

    The one test behind :func:`mnps` and :func:`verify_mnps`: invariant when the
    residual is at most ``tol * scale``, maximal non-positive when ``||W|| <= 1 +
    W_NORM_SLACK``.  One singular-value call on W gives ``||W||`` and the inertia:
    the Gram matrix of ``[I; W]`` is ``W^H W - I``, with eigenvalues ``s_i^2 - 1``
    and ``-1`` on the rest of H-.  The solver's ``tol_res`` defaults to 1e-9 and
    the verifier's ``tol`` to 1e-8, so every W the solver certifies verifies.
    """
    res = invariance_residual(space, m, w)
    s = np.linalg.svd(w, compute_uv=False)
    w_norm = float(s[0]) if s.size else 0.0
    gram_eigs = np.concatenate([s**2 - 1.0, -np.ones(space.n_minus - s.size)])
    return res, _inertia(gram_eigs), w_norm, res <= tol * scale, w_norm <= 1.0 + W_NORM_SLACK


def _report_for(
    space: IndefiniteSpace, m: np.ndarray, w, t, iterations, tol_res, scale
) -> MnpsReport:
    res, inertia, w_norm, invariant, maximal = _certificate(space, m, w, tol_res, scale)
    return MnpsReport(
        w=w,
        residual=res,
        w_norm=w_norm,
        subspace_inertia=inertia,
        regularization_t=t,
        iterations=iterations,
        certified=invariant and maximal,
    )


def _lower_graph(space: IndefiniteSpace, m: np.ndarray, tol_axis: float) -> np.ndarray:
    """Graph operator of the lower half-plane spectral subspace (one Schur pass)."""
    z_minus = _half_plane_basis(m, True, tol_axis)
    if z_minus.shape[1] != space.n_minus:
        raise SpectrumOnAxisError(
            f"lower half-plane subspace has dimension {z_minus.shape[1]}, "
            f"expected {space.n_minus}"
        )
    return graph_from_subspace(space, z_minus)


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


def _shift_bounds(space: IndefiniteSpace, m: np.ndarray, scale: float) -> tuple[float, float]:
    """``(theta, rho)``: bounds on ``-lambda_min(Im m)`` and on the lower spectrum of m.

    Reads only the first ``n_minus`` rows of m: ``O(n n_minus^2)`` work and no
    ``n x n`` array.  ``Im m = H + E`` with H the dissipativity form, ``H >=
    -PREDICATE_TOL * nu`` by the test in :func:`mnps`, and ``E = [[2 Im A11,
    -i A12], [i A12^H, 0]]`` of rank at most ``2 n_minus``.  With ``(-i
    A12)^H = Q R``, E is unitarily similar to ``[[2 Im A11, R^H], [R, 0]]``
    plus zeros, so ``theta = PREDICATE_TOL * nu - lambda_min(E)`` bounds
    ``-lambda_min(Im m)``, and ``theta >= PREDICATE_TOL * nu > 0`` because E
    has a zero block.  ``rho = ||A11|| + ||A12||`` bounds ``|lambda|`` for
    every eigenvalue in the open lower half-plane: each is one of ``A11 + A12
    W*``, with ``||W*|| <= 1`` the MNPS graph.
    """
    k = space.n_minus
    a11 = m[:k, :k]
    r = np.linalg.qr(1j * m[:k, k:].conj().T, mode="r")  # (-i A12)^H = Q R
    e = np.block([[(a11 - a11.conj().T) / 1j, r.conj().T], [r, np.zeros((r.shape[0],) * 2)]])
    theta = PREDICATE_TOL * scale - float(np.linalg.eigvalsh(e)[0])
    rho = float(np.linalg.svd(a11, compute_uv=False)[0] + np.linalg.svd(r, compute_uv=False)[0])
    return theta, rho


def _cayley_shift(space: IndefiniteSpace, m: np.ndarray, scale: float) -> float:
    """Shift ``mu = min(CAYLEY_SHIFT * nu, max(CAYLEY_SHIFT * theta, rho))`` of the Cayley solve."""
    theta, rho = _shift_bounds(space, m, scale)
    return min(CAYLEY_SHIFT * scale, max(CAYLEY_SHIFT * theta, rho))


def _cayley_graph(space: IndefiniteSpace, m: np.ndarray, scale: float) -> np.ndarray | None:
    """Fixed point of ``W -> phi_C(W)`` for the Cayley transform C of m, or None.

    ``C = (m + i mu)^{-1} (m - i mu) = I - 2i mu (m + i mu)^{-1}`` with mu
    from :func:`_cayley_shift`, so one step maps the basis ``Z = [I; W]``
    of the graph to ``Y = C Z`` with one block LU solve against
    ``n x n_minus`` right-hand sides, and the next W is ``Y+ Y-^{-1}``.
    Neither C nor ``(m + i mu)^{-1}`` is formed: ``m + i mu`` is factored
    once by :func:`_block_lu` (``n^3 / 3`` multiply-adds), and each step costs
    ``O(n^2 n_minus)``.

    The LU needs no pivoting between blocks.  The Hermitian part of
    ``(m + i mu) / (i mu)`` is ``I + Im(m) / mu``.  Either ``mu >= 1.25
    theta >= -1.25 lambda_min(Im m)``, and then it is at least ``0.2 I``, or
    the cap ``mu = 1.25 nu`` binds, which is above ``||m||`` since ``nu >
    0.8 ||m||``, and then it is at least ``(1 - ||m|| / mu) I``.  Either way
    every pivot block and every Schur complement has positive definite
    Hermitian part, hence a bounded inverse, and the factorization is stable
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 10).

    With ``q`` the larger of the last two increment ratios, the iteration
    returns W once the geometric tail bound ``step * q / (1 - q)`` on its
    distance to the fixed point is at most ``CAYLEY_TAIL``.  It is None when
    a pivot block of ``m + i mu`` is singular, when the increment stops
    shrinking above ``CAYLEY_ROUNDOFF``, when the step cap is hit, or when
    ``Y-`` is worse conditioned than ``GRAPH_COND_LIMIT``.
    """
    k = space.n_minus
    mu = _cayley_shift(space, m, scale)
    try:
        lu = _block_lu(_plus_diagonal(m, 1j * mu))
    except np.linalg.LinAlgError:  # a singular pivot block: the shift is too small
        return None
    z = np.eye(space.n, k, dtype=complex)  # [I; W] with W = 0
    prev = prev_ratio = np.inf
    for _ in range(CAYLEY_MAX_STEPS):
        y = z - 2j * mu * _lu_solve(lu, z)
        try:
            w = y[k:] @ np.linalg.inv(y[:k])
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
        if np.linalg.cond(y[:k]) > GRAPH_COND_LIMIT:
            return None
        return w
    return None


def _form_positive_definite(space: IndefiniteSpace, m: np.ndarray, shift: float) -> bool:
    """Whether the dissipativity form of m plus ``shift * I`` is positive definite.

    The form is built, shifted in place and dropped here, so no ``n x n``
    array outlives the Cholesky test.
    """
    h = dissipativity_form(space, m)
    h.flat[:: space.n + 1] += shift
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def mnps(space: IndefiniteSpace, a, tol_res: float = DEFAULT_TOL_RES) -> MnpsReport:
    """Invariant MNPS of a J-dissipative matrix, certified against the input.

    Tries the Cayley fixed point first; a graph it finds that certifies is
    reported with ``t = 0`` and ``iterations = 1``.  Otherwise takes the
    Schur graph of ``A + i t J`` along the fixed schedule of the module
    docstring: ``t = 0`` first, which is the answer if it certifies, then
    ``t = T0_SCALE * nu * SHRINK**j``.  A level certifies when the graph's
    invariance residual against the original A is at most ``tol_res * nu``;
    after the first one, t keeps shrinking while the residual falls, and
    the certified level with the smallest residual is returned.
    ``iterations`` counts the Schur levels tried.  When none certifies, the
    level with the smallest residual is returned flagged uncertified.

    ``nu <= ||A||`` is the seeded lower bound of the module docstring; it
    also scales the dissipativity slack, the Cayley shift, the schedule and
    the Schur fallback's axis strip.
    """
    m = _mat(a)
    zero = np.zeros((space.n_plus, space.n_minus), dtype=complex)
    if not np.any(m):  # A = 0: every MNPS is invariant
        return _report_for(space, m, zero, 0.0, 0, tol_res, 0.0)
    scale = _norm_lower_bound(m)
    if not _form_positive_definite(space, m, PREDICATE_TOL * scale):
        margin = float(np.min(np.linalg.eigvalsh(dissipativity_form(space, m))))
        if margin < -PREDICATE_TOL * scale:
            raise NotDissipativeError(
                f"operator is not J-dissipative (form margin {margin:.3e})"
            )
    if space.n_minus == 0 or space.n_plus == 0:  # definite space: the MNPS is forced
        return _report_for(space, m, zero, 0.0, 0, tol_res, scale)

    cayley = _cayley_graph(space, m, scale)
    if cayley is not None:
        report = _report_for(space, m, cayley, 0.0, 1, tol_res, scale)
        if report.certified:
            return report

    schedule = (0.0, *(T0_SCALE * scale * SHRINK**j for j in range(LADDER_LEVELS)))
    best: MnpsReport | None = None
    for tried, t in enumerate(schedule, 1):
        try:
            w = _lower_graph(space, m + 1j * t * space.j, AXIS_RTOL * scale)
        except (SpectrumOnAxisError, NotAGraphError):
            report = None
        else:
            report = _report_for(space, m, w, t, tried, tol_res, scale)
        if report is not None and (
            best is None or (report.certified, -report.residual) > (best.certified, -best.residual)
        ):
            best = report  # certified first, then the smaller residual
            if best.certified and t == 0.0:
                break  # the unperturbed A certifies
        elif best is not None and best.certified:
            break  # the residual stopped falling past a certified level
    if best is None:
        best = _report_for(space, m, zero, schedule[-1], tried, tol_res, scale)
    if best.certified:
        return replace(best, iterations=tried)
    failed = "failed to certify; spectrum may be degenerate near real axis"
    return replace(best, iterations=tried, message=failed)


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
    m = _mat(a)
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
        idx = np.r_[np.arange(km), space.n_minus + np.arange(kp)]
        rep = mnps(IndefiniteSpace(km, kp), m[np.ix_(idx, idx)], tol_res=tol_res)
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
    m = _mat(a)
    res, inertia, _, invariant, maximal = _certificate(space, m, _mat(w), tol, _norm_lower_bound(m))
    return VerifyReport(
        maximal_nonpositive=maximal,
        invariant=invariant,
        residual=res,
        inertia=inertia,
    )
