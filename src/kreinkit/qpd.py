"""Quasi-positive-definite functions on finite groups.

A Hermitian-symmetric function phi on a finite group G induces the form

    [f1, f2] = sum_{g,h} f1(g) conj(f2(h)) phi(h^{-1} g)

on functions over G, whose matrix in the delta basis is exactly the
translation Gram matrix ``Phi[g, h] = phi(g^{-1} h)``.  (The index order
inside phi is a convention; this one is fixed so that ``[eps_g, eps_g] =
phi(e)`` and ``phi(g) = [U(g) f, f]`` for the cyclic vector f below.)

Left translations preserve the form, so after quotienting out the form's
kernel and rescaling the remaining eigendirections, the translations become
a J'-unitary representation U on a space whose signature has exactly
``negative_squares(phi)`` minus signs (:func:`gns_construct`).  Splitting the
cyclic vector along an invariant dual pair of that representation writes phi
as the difference of a positive-definite function and a positive-definite
function of finite type.

``Phi`` commutes with every left translation, and so do its positive and
negative spectral parts; they are the Gram matrices of the two pieces, and
in the GNS coordinates the sign blocks are the invariant dual pair, with
common fixed point ``K = 0``.  :func:`decompose` therefore reads both pieces
off the one eigendecomposition of ``Phi`` without building any ``U(g)``.
:func:`kreinkit.fixpoint.common_fixed_point` is the route for
representations given in any other coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixpoint import GroupRep
from .groups import FiniteGroup
from .serialization import report_to_json
from .spaces import IndefiniteSpace, Inertia, _inertia

__all__ = [
    "GroupFunction",
    "GnsResult",
    "DecompositionCertificate",
    "gram_matrix",
    "negative_squares",
    "finite_type_rank",
    "gns_construct",
    "decompose",
    "verify_decomposition",
]

#: Relative threshold separating the Gram kernel from genuine eigenvalues.
GRAM_KERNEL_RTOL = 1e-10

#: Hermitian-symmetry tolerance for group functions.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GroupFunction:
    """Complex values per group element with phi(g^{-1}) = conj(phi(g))."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).reshape(-1)
        if v.shape[0] != self.group.order:
            raise ValueError(
                f"need {self.group.order} values, got {v.shape[0]}"
            )
        scale = float(np.max(np.abs(v)))
        defect = float(np.max(np.abs(v[self.group.inverses] - v.conj())))
        if defect > SYMMETRY_TOL * scale:
            raise ValueError(
                f"values violate phi(g^-1) = conj(phi(g)) (defect {defect:.3e})"
            )
        object.__setattr__(self, "values", v)

    def __call__(self, g: int) -> complex:
        return complex(self.values[g])

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def gram_matrix(phi: GroupFunction, elements=None) -> np.ndarray:
    """Hermitian matrix with entry (i, j) = phi(g_i^{-1} g_j)."""
    group = phi.group
    idx = np.arange(group.order) if elements is None else np.asarray(elements, int)
    pairs = group.table[np.ix_(group.inverses[idx], idx)]
    return phi.values[pairs]


def _hermitian_gram(phi: GroupFunction) -> np.ndarray:
    gram = gram_matrix(phi)
    return (gram + gram.conj().T) / 2.0


def _gram_spectrum(phi: GroupFunction) -> tuple[np.ndarray, Inertia]:
    """Eigenvalues of the Gram matrix, with no eigenvectors, and their sign count."""
    eigs = np.linalg.eigvalsh(_hermitian_gram(phi))
    return eigs, _inertia(eigs, GRAM_KERNEL_RTOL)


def _gram_eigs(phi: GroupFunction) -> tuple[np.ndarray, np.ndarray, Inertia]:
    """Ascending eigenpairs of the Gram matrix (negatives first) and their sign count."""
    eigs, vecs = np.linalg.eigh(_hermitian_gram(phi))
    return eigs, vecs, _inertia(eigs, GRAM_KERNEL_RTOL)


def negative_squares(phi: GroupFunction) -> int:
    """Number of negative eigenvalues of the full-group Gram matrix."""
    return _gram_spectrum(phi)[1].n_neg


def finite_type_rank(phi: GroupFunction) -> int:
    """Rank of the Gram matrix of a positive-definite function."""
    inertia = _gram_spectrum(phi)[1]
    if inertia.n_neg:
        raise ValueError("function is not positive definite")
    return inertia.n_pos


@dataclass(frozen=True)
class GnsResult:
    """Translation representation of phi on the quotient coordinate space.

    ``signs`` is ordered negatives-first, so the representation lives on
    ``IndefiniteSpace(k, p - k)`` with k = number of -1 entries.
    """

    rank: int
    signs: np.ndarray             # (p,) of +-1
    coordinate_map: np.ndarray    # (p, m): function values -> coordinates
    matrices: np.ndarray          # (m, p, p): U(g)
    cyclic: np.ndarray            # (p,): coordinates of the delta at identity

    @property
    def space(self) -> IndefiniteSpace:
        k = int(np.sum(self.signs < 0))
        return IndefiniteSpace(k, self.rank - k)

    def rep(self, group: FiniteGroup) -> GroupRep:
        return GroupRep(group, self.space, self.matrices)


def gns_construct(phi: GroupFunction) -> GnsResult:
    """Quotient the translation action by the Gram kernel and diagonalize the form.

    Eigenvectors of the Gram with |eigenvalue| above the kernel threshold,
    scaled by |eigenvalue|^{1/2}, give coordinates in which the form is
    diag(signs); left translations compress to J'-unitary matrices there,
    and ``phi(g) = [U(g) f, f]`` for the image f of the delta at the identity.
    """
    group = phi.group
    m = group.order
    eigs, vecs, inertia = _gram_eigs(phi)
    keep = np.r_[: inertia.n_neg, eigs.size - inertia.n_pos : eigs.size]
    kept_eigs = eigs[keep]          # negatives first
    kept_vecs = vecs[:, keep]
    p = keep.size
    signs = np.where(kept_eigs < 0, -1, 1).astype(int)
    scale = np.sqrt(np.abs(kept_eigs))

    coord = scale[:, None] * kept_vecs.conj().T
    mats = np.empty((m, p, p), dtype=complex)
    inv_scale = 1.0 / scale if p else scale
    for g in range(m):
        # rows of P_g @ E are rows of E permuted by h -> g^{-1} h
        permuted = kept_vecs[group.table[group.inv(g)]]
        mats[g] = (scale[:, None] * (kept_vecs.conj().T @ permuted)) * inv_scale[None, :]
    cyclic = coord[:, group.identity] if p else np.zeros(0, dtype=complex)
    return GnsResult(
        rank=p, signs=signs, coordinate_map=coord, matrices=mats, cyclic=cyclic
    )


@dataclass(frozen=True)
class DecompositionCertificate:
    reconstruction_error: float
    phi1_negative_squares: int
    phi2_negative_squares: int
    phi2_rank: int | None
    negative_squares: int

    @property
    def parts_positive_definite(self) -> bool:
        return self.phi1_negative_squares == 0 and self.phi2_negative_squares == 0

    @property
    def rank_bounded_by_k(self) -> bool:
        return self.phi2_rank is not None and self.phi2_rank <= self.negative_squares

    @property
    def k_bounded_by_rank(self) -> bool:
        return self.phi2_rank is not None and self.negative_squares <= self.phi2_rank

    def ok(self, scale: float = 1.0, tol: float = 1e-8) -> bool:
        return (
            self.reconstruction_error <= tol * scale
            and self.parts_positive_definite
            and self.rank_bounded_by_k
            and self.k_bounded_by_rank
        )

    def as_dict(self) -> dict:
        return report_to_json(self)


def decompose(
    phi: GroupFunction,
) -> tuple[GroupFunction, GroupFunction, DecompositionCertificate]:
    """Write phi = phi1 - phi2 with phi1 PD and phi2 PD of finite type.

    Splits the Gram matrix ``Phi = Phi_+ - Phi_-`` into its positive and
    negative spectral parts from one eigendecomposition.  ``phi`` is the
    identity row of ``Phi``, both parts commute with every left translation,
    so each is the Gram matrix of its own identity row: phi1 and phi2 are
    positive definite, and rank(phi2) = rank(Phi_-) = negative_squares(phi).
    Each identity row is read off as ``h -> sum_j conj(f(h j)) f(j)`` with
    ``f = Phi_+^{1/2} delta_e`` or ``Phi_-^{1/2} delta_e``, the cyclic vector
    split by sign, so each part's Gram matrix is a Gram matrix of vectors,
    positive semidefinite to roundoff at every scale; no translation
    ``U(g)`` is built.  The returned certificate carries the
    reconstruction error, positivity of both parts, and
    rank(phi2) = negative_squares(phi), all checked against phi.
    """
    group = phi.group
    eigs, vecs, inertia = _gram_eigs(phi)
    row = vecs[group.identity]
    parts = []
    # index arrays, not slices: a contiguous copy of the columns keeps the products' bits
    for idx in (np.arange(eigs.size - inertia.n_pos, eigs.size), np.arange(inertia.n_neg)):
        f = vecs[:, idx] @ (np.sqrt(np.abs(eigs[idx])) * row[idx].conj())
        parts.append(GroupFunction(group, f[group.table].conj() @ f))
    phi1, phi2 = parts
    return phi1, phi2, verify_decomposition(phi, phi1, phi2)


def verify_decomposition(
    phi: GroupFunction, phi1: GroupFunction, phi2: GroupFunction
) -> DecompositionCertificate:
    """Certificate for a claimed decomposition phi = phi1 - phi2.

    Checks reconstruction, positive-definiteness of both parts, and the
    two-sided rank relation k <= rank(phi2) (with rank(phi2) <= k holding for
    decompositions produced here).
    """
    for part in (phi1, phi2):
        if part.group is not phi.group and not (
            part.group.order == phi.group.order
            and np.array_equal(part.group.table, phi.group.table)
        ):
            raise ValueError("decomposition parts must live on the same group")
    err = float(np.max(np.abs(phi.values - phi1.values + phi2.values)))
    inertia2 = _gram_spectrum(phi2)[1]
    return DecompositionCertificate(
        reconstruction_error=err,
        phi1_negative_squares=negative_squares(phi1),
        phi2_negative_squares=inertia2.n_neg,
        phi2_rank=None if inertia2.n_neg else inertia2.n_pos,
        negative_squares=negative_squares(phi),
    )
