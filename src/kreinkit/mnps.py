"""Invariant maximal non-positive subspaces of J-dissipative matrices.

The solver first looks for the MNPS as a fixed point of a fractional-linear
map of the operator ball, the route of Lomonosov's proof.  For ``mu > ||A||``
the Cayley transform ``C = (A + i mu)^{-1} (A - i mu)`` has the invariant
subspaces of A and maps non-positive subspaces to non-positive subspaces,
so ``W -> phi_C(W)`` maps the closed ball into itself.  Its eigenvalues
outside the unit circle are the images of those of A in the open lower
half-plane, so iterating it from ``W = 0`` is subspace iteration in graph
coordinates towards that spectral subspace, the MNPS; for strictly
J-dissipative A it converges (Earle--Hamilton).  It costs one inversion
of ``A + i mu`` and ``O(n^2 n_minus)`` work per step.

No step takes an SVD of A.  Its scale is ``nu <= ||A||``, a lower bound
from a few seeded block-power steps (``spaces._norm_lower_bound``, within
a few percent of ||A||; above ``0.95 ||A||`` on every draw measured).
Every tolerance is relative to nu, so it is at least as strict as the same
tolerance relative to ||A||.

The shift is ``mu = 1.25 nu``.  For every ``mu > 0``,
``|c(lambda)| = |lambda - i mu| / |lambda + i mu|`` exceeds 1 exactly when
``Im lambda < 0``, so the fixed point does not depend on mu.  ``mu > ||A||``
(``nu > 0.8 ||A||``) only bounds ``cond(A + i mu) <= (mu + ||A||) /
(mu - ||A||)``, about 11.5 at ``nu = 0.95 ||A||``.  A smaller mu contracts
faster: for the lower eigenvalue ``a - i beta`` closest to the axis,
``|c|^2 = (a^2 + (mu + beta)^2) / (a^2 + (mu - beta)^2)`` grows as mu falls
towards ``|lambda|``.  A shift too small is caught: a singular ``A + i mu``,
the stall check, the ``cond(Y-)`` check and the certificate all send the
solve to the fallback.

When the iteration stalls or its graph does not certify, the solver falls
back to the finite-dimensional route: perturb the operator to ``A + itJ``
so that it becomes strongly J-dissipative (the imaginary parts of all
eigenvalues then stay at distance >= t from the real axis), take the
spectral subspace for the open lower half-plane from a sorted Schur form
(it is negative, hence a graph over H-), and shrink t geometrically until
the graph operator certifies against the *original* matrix.  Either way
the certificate -- not the sequence of iterates -- is the contract: the
residual is at most ``tol_res * nu`` and ``||W|| <= 1 + W_NORM_SLACK``.
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

#: Defaults for the regularization ladder.
DEFAULT_T0_SCALE = 1e-2
DEFAULT_SHRINK = 0.5
DEFAULT_TOL_RES = 1e-9
DEFAULT_MAX_ITER = 40

#: Slack of the certificate's maximality test ``||W|| <= 1 + W_NORM_SLACK``.
W_NORM_SLACK = 1e-8

#: Cayley shift relative to the scale nu.  With ``nu > 0.8 ||A||`` it keeps
#: ``mu > ||A||``, so that A + i mu is invertible (at ``mu = ||A||`` it is
#: singular for A = iJ).
CAYLEY_SHIFT = 1.25

#: Step cap of the Cayley fixed-point iteration.
CAYLEY_MAX_STEPS = 300

#: A graph increment this small counts as roundoff; a ball point has norm <= 1.
CAYLEY_ROUNDOFF = 1e-10

#: The iteration stops once its geometric tail bound on ``||W - W*||`` is this small.
CAYLEY_TAIL = 1e-14


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
            "spectrum could not be separated across the real axis; "
            "increase regularization"
        ) from exc
    eigs = np.diag(t)
    if eigs.size and np.min(np.abs(eigs.imag)) <= tol_axis:
        raise SpectrumOnAxisError(
            "spectrum touches real axis; increase regularization"
        )
    return z[:, :sdim]


def spectral_split(
    space: IndefiniteSpace, a, tol_axis: float | None = None
) -> tuple[Subspace, Subspace]:
    """Invariant subspaces for the lower / upper open half-planes.

    Fails with :class:`SpectrumOnAxisError` when some eigenvalue is within
    ``tol_axis`` of the real axis.
    """
    m = _mat(a)
    if m.shape != (space.n, space.n):
        raise ValueError(f"operator must be {space.n}x{space.n}, got {m.shape}")
    if tol_axis is None:
        tol_axis = AXIS_RTOL * operator_norm(m)
    z_minus = _half_plane_basis(m, True, tol_axis)
    z_plus = _half_plane_basis(m, False, tol_axis)
    if z_minus.shape[1] + z_plus.shape[1] != space.n:
        raise SpectrumOnAxisError(
            "spectrum touches real axis; increase regularization"
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


def _cayley_graph(space: IndefiniteSpace, m: np.ndarray, scale: float) -> np.ndarray | None:
    """Fixed point of ``W -> phi_C(W)`` for the Cayley transform C of m, or None.

    ``C = (m + i mu)^{-1} (m - i mu) = I - 2i mu (m + i mu)^{-1}`` with
    ``mu = CAYLEY_SHIFT * scale``, so one step maps the basis ``Z = [I; W]``
    of the graph to ``Y = C Z`` with one ``n x n`` by ``n x n_minus``
    product, and the next W is ``Y+ Y-^{-1}``.  C is never formed.  With the
    lower bound ``scale = nu`` on ``||m||``,
    ``cond(m + i mu) <= (1.25 nu + ||m||) / (1.25 nu - ||m||)``, about 11.5
    for ``nu >= 0.95 ||m||``, so its explicit inverse is as accurate as a
    solve against its LU factors.

    With ``q`` the larger of the last two increment ratios, the iteration
    returns W once the geometric tail bound ``step * q / (1 - q)`` on its
    distance to the fixed point is at most ``CAYLEY_TAIL``.  It is None when
    ``m + i mu`` is singular, when the increment stops shrinking above
    ``CAYLEY_ROUNDOFF``, when the step cap is hit, or when ``Y-`` is worse
    conditioned than ``GRAPH_COND_LIMIT``.
    """
    k = space.n_minus
    mu = CAYLEY_SHIFT * scale
    try:
        resolvent = np.linalg.inv(_plus_diagonal(m, 1j * mu))
    except np.linalg.LinAlgError:  # A + i mu exactly singular: mu below ||A||
        return None
    z = np.eye(space.n, k, dtype=complex)  # [I; W] with W = 0
    prev = prev_ratio = np.inf
    for _ in range(CAYLEY_MAX_STEPS):
        y = z - 2j * mu * (resolvent @ z)
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


def mnps(
    space: IndefiniteSpace,
    a,
    t0: float | None = None,
    shrink: float = DEFAULT_SHRINK,
    tol_res: float = DEFAULT_TOL_RES,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MnpsReport:
    """Invariant MNPS of a J-dissipative matrix, certified against the input.

    Tries the Cayley fixed point first; a graph it finds that certifies is
    reported with ``t = 0`` at the first step.  Otherwise solves the
    strongly-dissipative problem for ``A + i t J`` with ``t = t0 * shrink**j``
    until the graph operator's invariance residual against the original A
    drops below ``tol_res * nu``.  When the budget runs out the best
    iterate is returned flagged uncertified.

    ``nu <= ||A||`` is the seeded lower bound of the module docstring; it
    also scales the dissipativity slack, the Cayley shift, the default
    ``t0`` and the Schur fallback's axis strip.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
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

    if t0 is None:
        t0 = DEFAULT_T0_SCALE * scale
    schedule = []
    if _form_positive_definite(space, m, -PREDICATE_TOL * scale):
        schedule.append(0.0)
    schedule.extend(t0 * shrink**j for j in range(max_iter))

    best: MnpsReport | None = None
    for i, t in enumerate(schedule):
        b = m + 1j * t * space.j
        try:
            w = _lower_graph(space, b, AXIS_RTOL * scale)
        except (SpectrumOnAxisError, NotAGraphError):
            continue
        report = _report_for(space, m, w, t, i + 1, tol_res, scale)
        if best is None or report.residual < best.residual:
            best = report
        if report.certified:
            return report

    failed = "failed to certify; spectrum may be degenerate near real axis"
    if best is not None:
        return replace(best, iterations=len(schedule), message=failed)
    last_t = schedule[-1] if schedule else 0.0  # max_iter = 0 may leave nothing to try
    fallback = _report_for(space, m, zero, last_t, len(schedule), tol_res, scale)
    if fallback.certified:
        return fallback
    return replace(fallback, message=failed)


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
