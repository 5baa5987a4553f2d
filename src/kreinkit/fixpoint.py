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
numerically and reported as a certificate; each per-element certificate is one
batched call over the ``(order, n, n)`` element stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .ball import fractional_linear, mobius_matrix, radius_from_norm
from .groups import FiniteGroup
from .serialization import report_to_json
from .spaces import (
    IndefiniteSpace,
    _Clause,
    _checked,
    _checked_tol,
    _first_failed,
    _j_conjugate,
    _stack_frobenius_norm,
    _stack_norm,
    _unitarity_gap,
    graph_from_subspace,
    operator_norm,
)

__all__ = [
    "DegeneratePencilError",
    "GroupRep",
    "FixedPointReport",
    "UnitarizationReport",
    "rep_validate",
    "group_average_metric",
    "common_fixed_point",
    "unitarize",
]

#: Residual threshold below which fixed points / unitarizations certify.
CERT_TOL = 1e-8

#: Pencil eigenvalues this close to zero flag a neutral invariant direction.
PENCIL_ZERO_RTOL = 1e-10

#: Relative tolerance of the group-invariance check of an averaged metric
#: (scaled by ||pi||^2 and ||B||, each floored at 1, so never below this).
INVARIANCE_RTOL = 1e-10

#: Bytes of one chunk of the element stack in :func:`group_average_metric`:
#: chunks this small stay in cache and reuse heap memory, not fresh pages.
_CHUNK_BYTES = 2**17


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
        n = self.space.n
        mats = _checked(self.matrices, (self.group.order, n, n), "matrices")
        object.__setattr__(self, "matrices", mats)

    @property
    def norm(self) -> float:
        """The boundedness constant max_g ||pi(g)||, computed on first read."""
        cached = self.__dict__.get("_norm")
        if cached is None:
            cached = _stack_norm(self.matrices)
            object.__setattr__(self, "_norm", cached)
        return cached


@dataclass(frozen=True)
class RepDiagnostics:
    homomorphism_defect: float
    identity_defect: float
    j_unitarity_defect: float

    def ok(self, tol: float) -> bool:
        _checked_tol(tol, "tol")
        return not _first_failed(_Clause(f.name, getattr(self, f.name), tol) for f in fields(self))


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
    failed_clause: str = ""

    def as_dict(self) -> dict:
        return report_to_json(self)


@dataclass(frozen=True)
class UnitarizationReport:
    """Similarity to a unitary representation with condition-number bounds.

    ``max_unitarity_defect`` is ``max_g ||U(g)^H U(g) - I||_F``, at least the
    spectral defect and at most ``sqrt(n)`` times it; ``cond`` is
    ``||V^{-1}||^2``, since ``V = J V^{-1} J``.
    """

    v: np.ndarray
    v_inv: np.ndarray
    unitaries: np.ndarray = field(metadata={"json": None})
    max_unitarity_defect: float
    cond: float
    sharp_bound: float
    bound: float
    certified: bool
    failed_clause: str = ""

    def as_dict(self) -> dict:
        return report_to_json(self)


def rep_validate(rep: GroupRep) -> RepDiagnostics:
    """Worst homomorphism, identity, and J-unitarity defects of the rep."""
    return _rep_defects(rep, _stack_norm)


def _rep_defects(rep: GroupRep, norm) -> RepDiagnostics:
    """The defects, ``norm`` giving a stack's largest norm; ``order`` pairs per stack."""
    group, mats = rep.group, rep.matrices
    m = group.order
    if m <= 64:
        rows = [(i, slice(None)) for i in range(m)]
    else:
        rng = np.random.default_rng(0)
        left, right = rng.integers(0, m, 4096), rng.integers(0, m, 4096)
        rows = [(left[s:s + m], right[s:s + m]) for s in range(0, 4096, m)]
    hom = max(norm(mats[group.table[i, j]] - mats[i] @ mats[j]) for i, j in rows)
    ident = norm(mats[group.identity] - np.eye(rep.space.n))
    junit = norm(_unitarity_gap(rep.space, mats))
    return RepDiagnostics(hom, ident, junit)


def _orbit_radius(rep: GroupRep) -> float:
    """max_g ||phi_{pi(g)}(0)||, checked against the norm bound for J-unitaries."""
    zero = np.zeros((rep.space.n_plus, rep.space.n_minus), dtype=complex)
    radius = _stack_norm(fractional_linear(rep.space, rep.matrices, zero))
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
    size = max(1, _CHUNK_BYTES // mats[0].nbytes)
    chunks = [mats[s:s + size] for s in range(0, len(mats), size)]
    # Stacked products, one chunk at a time, so no temporary grows with the
    # order (an S5 GNS stack is 27.6 MB): each chunk's sum starts from the
    # running one, so the additions run in element order and B is the loop's
    # sum bit for bit.
    terms = np.zeros((len(chunks[0]) + 1,) + mats.shape[1:], dtype=complex)
    for chunk in chunks:
        np.matmul(chunk.conj().swapaxes(-1, -2), chunk, out=terms[1:len(chunk) + 1])
        terms[0] = np.sum(terms[:len(chunk) + 1], axis=0)
    b = terms[0] / len(mats)
    b = (b + b.conj().T) / 2.0
    # The Frobenius norm bounds the spectral norm, and the tolerance below is
    # never under INVARIANCE_RTOL, so the exact defect is needed only when
    # some Frobenius defect exceeds it (or is NaN, which fails the test).
    if not all(
        np.all(np.linalg.norm(c.conj().swapaxes(-1, -2) @ b @ c - b, axis=(-2, -1)) <= INVARIANCE_RTOL)
        for c in chunks
    ):
        defect = max(operator_norm(m.conj().T @ b @ m - b) for m in mats)
        tol = INVARIANCE_RTOL * max(1.0, rep.norm**2) * max(1.0, operator_norm(b))
        if defect > tol:
            raise ValueError(
                f"averaged metric is not group-invariant (defect {defect:.3e}); "
                "input is probably not a representation"
            )
    return b


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


def common_fixed_point(rep: GroupRep, cert_tol: float = CERT_TOL) -> FixedPointReport:
    """Common fixed point of all phi_{pi(g)}: the pencil of :func:`group_average_metric`.

    Clauses: ``map_residual <= cert_tol`` and ``k_norm <= radius_bound + CERT_TOL``.
    """
    _checked_tol(cert_tol, "cert_tol")
    space = rep.space
    if space.n_minus == 0 or space.n_plus == 0:
        k = np.zeros((space.n_plus, space.n_minus), dtype=complex)
    else:
        k = graph_from_subspace(space, _pencil_negative_basis(space, group_average_metric(rep)))
    residual = _stack_norm(fractional_linear(space, rep.matrices, k) - k)
    rep_norm = max(rep.norm, 1.0)
    bound = radius_from_norm(rep_norm)
    k_norm = operator_norm(k)
    failed = _first_failed((_Clause("map_residual", residual, cert_tol),
                            _Clause("k_norm", k_norm, bound + CERT_TOL)))
    return FixedPointReport(
        k=k,
        k_norm=k_norm,
        max_map_residual=residual,
        orbit_radius=_orbit_radius(rep),
        radius_bound=bound,
        rep_norm=rep_norm,
        certified=not failed,
        failed_clause=failed,
    )


def unitarize(
    rep: GroupRep,
    report: FixedPointReport | None = None,
    cert_tol: float = CERT_TOL,
) -> UnitarizationReport:
    """Conjugate the representation to a unitary one through the fixed point.

    With V = M_{-K}, the operators ``U(g) = V pi(g) V^{-1}`` fix the zero of
    the ball, hence are block-diagonal J-unitaries, hence unitary.  ``V^{-1} =
    M_K`` is built once and ``V = J V^{-1} J``, so the condition number
    ``||V^{-1}||^2`` is exactly (1+||K||)/(1-||K||); it is certified against
    the group bound ``2 ||pi||^2 + 1``.  The unitarity defect is a Frobenius
    bound of the spectral one (see :class:`UnitarizationReport`).  Clauses: ``fixed_point``
    (``report`` certified), ``unitarity_defect <= cert_tol``, ``cond_sharp`` and ``cond_bound``.
    """
    _checked_tol(cert_tol, "cert_tol")
    if report is None:
        report = common_fixed_point(rep, cert_tol=cert_tol)
    space = rep.space
    r = report.k_norm
    v_inv = mobius_matrix(space, report.k)  # BoundaryError when K is on the sphere
    v = _j_conjugate(space, v_inv)
    unitaries = v @ rep.matrices @ v_inv
    defect = _stack_frobenius_norm(unitaries.conj().swapaxes(-1, -2) @ unitaries - np.eye(space.n))
    cond = operator_norm(v_inv) ** 2
    sharp = (1.0 + r) / (1.0 - r)
    bound = 2.0 * rep.norm**2 + 1.0
    failed = _first_failed((_Clause("fixed_point", float(not report.certified), 0.0),
                            _Clause("unitarity_defect", defect, cert_tol),
                            _Clause("cond_sharp", cond, sharp + CERT_TOL),
                            _Clause("cond_bound", cond, bound + CERT_TOL)))
    return UnitarizationReport(
        v=v,
        v_inv=v_inv,
        unitaries=unitaries,
        max_unitarity_defect=defect,
        cond=cond,
        sharp_bound=sharp,
        bound=bound,
        certified=not failed,
        failed_clause=failed,
    )
