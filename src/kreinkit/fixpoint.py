"""Common fixed points of bounded groups of fractional-linear maps.

A bounded group of J-unitary matrices admits an invariant maximal negative
subspace; its graph operator K is then a common fixed point of all the
induced ball maps, and conjugating by the Mobius matrix of K turns the whole
representation unitary with condition number at most ``2 ||pi||^2 + 1``.

The fixed point is found constructively: average the Euclidean Gram metric
over the group to get an invariant positive matrix B, then take the negative
eigenspace of the Hermitian definite pencil ``J v = lambda B v`` (reduced by
Cholesky, ``B = L L^H``, to ``L^{-1} J L^{-H}``).  Since ``B^{-1} J``
commutes with every representation matrix, that eigenspace is invariant;
since B is positive it is maximal negative.  Every claim is re-checked
numerically and reported as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ball import fractional_linear, mobius_matrix, radius_from_norm
from .groups import FiniteGroup
from .serialization import report_to_json
from .spaces import (
    IndefiniteSpace,
    Subspace,
    _unitarity_gap,
    graph_from_subspace,
    graph_of,
    operator_norm,
)

__all__ = [
    "DegeneratePencilError",
    "GroupRep",
    "FixedPointReport",
    "UnitarizationReport",
    "rep_validate",
    "orbit_radius",
    "group_average_metric",
    "word_average_metric",
    "common_fixed_point",
    "invariant_dual_pair",
    "unitarize",
]

#: Residual threshold below which fixed points / unitarizations certify.
CERT_TOL = 1e-8

#: Pencil eigenvalues this close to zero flag a neutral invariant direction.
PENCIL_ZERO_RTOL = 1e-10

#: Relative tolerance of the group-invariance check of an averaged metric
#: (scaled by ||pi||^2 and ||B||, each floored at 1, so never below this).
INVARIANCE_RTOL = 1e-10

#: Default word-length cap for finitely generated (word-averaged) mode.
DEFAULT_WORD_CAP = 12


class DegeneratePencilError(RuntimeError):
    """Raised when the averaged pencil has a (near-)neutral direction."""


@dataclass(frozen=True)
class GroupRep:
    """Per-element matrices of a finite-group representation on a J-space.

    ``matrices`` is kept as given when it is already a complex array (a
    copy of an S5 regular representation would cost 27 MB), so it must not
    be changed in place after construction: the boundedness constant
    :attr:`norm` is computed once, on first read, and then reused.
    """

    group: FiniteGroup
    space: IndefiniteSpace
    matrices: np.ndarray  # shape (order, n, n)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        n = self.space.n
        if mats.shape != (self.group.order, n, n):
            raise ValueError(
                f"expected {self.group.order} matrices of size {n}x{n}, got {mats.shape}"
            )
        object.__setattr__(self, "matrices", mats)

    def __getitem__(self, g: int) -> np.ndarray:
        return self.matrices[g]

    @property
    def norm(self) -> float:
        """The boundedness constant max_g ||pi(g)||, computed on first read."""
        cached = self.__dict__.get("_norm")
        if cached is None:
            cached = float(np.max(np.linalg.norm(self.matrices, 2, axis=(-2, -1))))
            object.__setattr__(self, "_norm", cached)
        return cached


@dataclass(frozen=True)
class RepDiagnostics:
    homomorphism_defect: float
    identity_defect: float
    j_unitarity_defect: float

    def ok(self, tol: float) -> bool:
        return (
            self.homomorphism_defect <= tol
            and self.identity_defect <= tol
            and self.j_unitarity_defect <= tol
        )


@dataclass(frozen=True)
class FixedPointReport:
    """Common fixed point K plus every certificate the run is judged by."""

    k: np.ndarray
    k_norm: float
    max_map_residual: float
    orbit_radius: float
    radius_bound: float
    rep_norm: float
    certified: bool

    def as_dict(self) -> dict:
        return report_to_json(self)


@dataclass(frozen=True)
class UnitarizationReport:
    """Similarity to a unitary representation with condition-number bounds."""

    v: np.ndarray
    v_inv: np.ndarray
    unitaries: np.ndarray = field(metadata={"json": None})
    max_unitarity_defect: float
    cond: float
    sharp_bound: float
    bound: float
    certified: bool

    def as_dict(self) -> dict:
        return report_to_json(self)


def rep_validate(rep: GroupRep) -> RepDiagnostics:
    """Worst homomorphism, identity, and J-unitarity defects of the rep."""
    group, mats = rep.group, rep.matrices
    m = group.order
    hom = 0.0
    if m <= 64:
        pairs = ((i, j) for i in range(m) for j in range(m))
    else:
        rng = np.random.default_rng(0)
        pairs = zip(rng.integers(0, m, 4096), rng.integers(0, m, 4096))
    for i, j in pairs:
        hom = max(hom, operator_norm(mats[group.mult(i, j)] - mats[i] @ mats[j]))
    ident = operator_norm(mats[group.identity] - np.eye(rep.space.n))
    junit = max(operator_norm(_unitarity_gap(rep.space, mats[g])) for g in range(m))
    return RepDiagnostics(
        homomorphism_defect=hom, identity_defect=ident, j_unitarity_defect=junit
    )


def orbit_radius(rep: GroupRep) -> float:
    """max_g ||phi_{pi(g)}(0)||, checked against the norm bound for J-unitaries."""
    zero = np.zeros((rep.space.n_plus, rep.space.n_minus), dtype=complex)
    radius = max(
        operator_norm(fractional_linear(rep.space, mat, zero)) for mat in rep.matrices
    )
    bound = radius_from_norm(max(rep.norm, 1.0))
    if radius > bound + 1e-9:
        raise ValueError(
            f"orbit radius {radius:.6g} exceeds the J-unitary bound {bound:.6g}; "
            "the representation is not J-unitary"
        )
    return radius


def group_average_metric(rep: GroupRep) -> np.ndarray:
    """B = (1/m) sum_g pi(g)^H pi(g); positive, and invariant under the group."""
    mats = rep.matrices
    b = sum(m.conj().T @ m for m in mats) / len(mats)
    b = (b + b.conj().T) / 2.0
    # The Frobenius norm bounds the spectral norm, and the tolerance below is
    # never under INVARIANCE_RTOL, so the exact defect is needed only when
    # some Frobenius defect exceeds it (or is NaN, which fails the test).
    if not all(
        np.linalg.norm(m.conj().T @ b @ m - b) <= INVARIANCE_RTOL for m in mats
    ):
        defect = max(operator_norm(m.conj().T @ b @ m - b) for m in mats)
        tol = INVARIANCE_RTOL * max(1.0, rep.norm**2) * max(1.0, operator_norm(b))
        if defect > tol:
            raise ValueError(
                f"averaged metric is not group-invariant (defect {defect:.3e}); "
                "input is probably not a representation"
            )
    return b


def word_average_metric(
    space: IndefiniteSpace, generators, length_cap: int = DEFAULT_WORD_CAP
) -> tuple[np.ndarray, float]:
    """Average the metric over all distinct words of bounded length.

    For finitely generated bounded groups that are too large to enumerate;
    returns (B, invariance defect).  The defect is reported, never asserted.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    alphabet = gens + [np.linalg.inv(g) for g in gens]
    seen: dict[bytes, np.ndarray] = {}

    def key(mat: np.ndarray) -> bytes:
        rounded = np.round(mat, 9) + 0.0  # adding 0.0 folds -0.0 into +0.0
        return rounded.tobytes()

    eye = np.eye(space.n, dtype=complex)
    seen[key(eye)] = eye
    frontier = [eye]
    for _ in range(length_cap):
        nxt = []
        for word in frontier:
            for letter in alphabet:
                prod = word @ letter
                k = key(prod)
                if k not in seen:
                    seen[k] = prod
                    nxt.append(prod)
        if not nxt:
            break
        frontier = nxt

    words = list(seen.values())
    b = sum(w.conj().T @ w for w in words) / len(words)
    b = (b + b.conj().T) / 2.0
    defect = max(operator_norm(g.conj().T @ b @ g - b) for g in gens)
    return b, defect


def _pencil_negative_basis(space: IndefiniteSpace, b: np.ndarray) -> np.ndarray:
    """Negative eigenvectors of J v = lambda B v (B positive definite).

    LAPACK's ``hegv`` reduction: ``B = L L^H`` (``LinAlgError`` unless B > 0),
    and the eigenvectors y of ``L^{-1} J L^{-H}`` give ``v = L^{-H} y``.
    """
    l_inv = np.linalg.inv(np.linalg.cholesky(b))
    lam, vec = np.linalg.eigh((l_inv * space.j_signs) @ l_inv.conj().T)
    b_inv_norm = 1.0 / float(np.min(np.linalg.eigvalsh(b)))
    if np.min(np.abs(lam)) <= PENCIL_ZERO_RTOL * b_inv_norm:
        raise DegeneratePencilError(
            "averaged pencil has a neutral invariant direction"
        )
    neg = lam < 0.0
    if int(np.sum(neg)) != space.n_minus:
        raise DegeneratePencilError(
            f"pencil inertia {int(np.sum(neg))} does not match n_minus = {space.n_minus}"
        )
    return l_inv.conj().T @ vec[:, neg]


def common_fixed_point(
    rep: GroupRep, cert_tol: float = CERT_TOL, metric: np.ndarray | None = None
) -> FixedPointReport:
    """Common fixed point of all phi_{pi(g)} via an invariant-metric pencil.

    ``metric`` is a positive matrix B invariant under the group, by default
    :func:`group_average_metric`.  For a group given by generators, pass
    ``word_average_metric(space, generators)[0]``; the map residuals certify
    the result either way.
    """
    space = rep.space
    if space.n_minus == 0 or space.n_plus == 0:
        k = np.zeros((space.n_plus, space.n_minus), dtype=complex)
    else:
        b = group_average_metric(rep) if metric is None else metric
        k = graph_from_subspace(space, _pencil_negative_basis(space, b))
    residual = max(operator_norm(fractional_linear(space, m, k) - k) for m in rep.matrices)
    rep_norm = max(rep.norm, 1.0)
    bound = radius_from_norm(rep_norm)
    k_norm = operator_norm(k)
    return FixedPointReport(
        k=k,
        k_norm=k_norm,
        max_map_residual=residual,
        orbit_radius=orbit_radius(rep),
        radius_bound=bound,
        rep_norm=rep_norm,
        certified=residual <= cert_tol and k_norm <= bound + CERT_TOL,
    )


def invariant_dual_pair(
    rep: GroupRep, report: FixedPointReport | None = None
) -> tuple[Subspace, Subspace]:
    """Invariant (positive, negative) pair: ``{[K^H v; v]}``, J-orthogonal to ``graph(K)``."""
    if report is None:
        report = common_fixed_point(rep)
    k = report.k
    positive = Subspace(rep.space, np.vstack([k.conj().T, np.eye(rep.space.n_plus)]))
    return positive, graph_of(rep.space, k)


def unitarize(
    rep: GroupRep,
    report: FixedPointReport | None = None,
    cert_tol: float = CERT_TOL,
) -> UnitarizationReport:
    """Conjugate the representation to a unitary one through the fixed point.

    With V = M_{-K}, the operators ``U(g) = V pi(g) V^{-1}`` fix the zero of
    the ball, hence are block-diagonal J-unitaries, hence unitary.  The
    condition number ``||V|| ||V^{-1}||`` is exactly (1+||K||)/(1-||K||) and
    is certified against the group bound ``2 ||pi||^2 + 1``.
    """
    if report is None:
        report = common_fixed_point(rep, cert_tol=cert_tol)
    space = rep.space
    k = report.k
    r = operator_norm(k)
    if r >= 1.0 - 1e-8:
        raise ValueError("fixed point sits on the boundary; cannot form its Mobius matrix")
    v = mobius_matrix(space, -k)
    v_inv = mobius_matrix(space, k)
    eye = np.eye(space.n)
    unitaries = np.array([v @ mat @ v_inv for mat in rep.matrices])
    defect = max(operator_norm(u.conj().T @ u - eye) for u in unitaries)
    cond = operator_norm(v) * operator_norm(v_inv)
    sharp = (1.0 + r) / (1.0 - r)
    bound = 2.0 * rep.norm**2 + 1.0
    certified = (
        report.certified
        and defect <= cert_tol
        and cond <= sharp + CERT_TOL
        and cond <= bound + CERT_TOL
    )
    return UnitarizationReport(
        v=v,
        v_inv=v_inv,
        unitaries=unitaries,
        max_unitarity_defect=defect,
        cond=cond,
        sharp_bound=sharp,
        bound=bound,
        certified=certified,
    )
