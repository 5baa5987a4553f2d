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

Every spectrum comes from :func:`_gram_blocks`, on ``2^-e phi`` with its largest
``|Re|`` or ``|Im|`` in [0.5, 1); eigenvalues and parts are scaled back by the
exact ``2^e``, so they scale with phi bit for bit.  ``Phi = sum_x phi(x)
R_x``, with right translations ``(R_x)[g, h] = [h = g x]``, commutes with
every ``L_y[a, b] = y(a b^{-1})``, so each eigenspace of a real symmetric L_y
(fixed-seed random real y with ``y(g^{-1}) = y(g)``) is invariant under every
Gram matrix; generically it is one copy of an irreducible representation or
of a conjugate pair (Dixon 1970; Serre 1977).  From ``_BLOCK_MIN_ORDER`` on,
one real ``eigh(L_y)`` per group gives an orthogonal U, kept on the group
(``8 m^2`` bytes, the size of the table).  Eigenvalues closer than
``_MERGE_GAP max|eig|`` share a block (a sum of invariant subspaces is
invariant; closer clusters leave U visibly off them).  Below it (the dense
call wins at m = 24, ties at 48) U is the identity as one block, and the
Hermitian ``Phi`` is that block as it stands: the dense eigensolve, with no
product by U and no residual.  With any other U each call diagonalizes the blocks
``U_b^T Phi U_b``, stacked by size, if ``||Phi U - U (+)T||_F <=
_BLOCK_RESIDUAL_RTOL ||Phi||_F``; otherwise it retries U as one block, whose
residual is U's orthogonality error, and raises ``RuntimeError`` if that fails
too.  Every product with U runs in real arithmetic: ``Phi`` is Hermitian bit
for bit, so ``Phi U = (U^T Phi)^H`` is one real product on the float view of
``Phi``, and the stacked ``U_b^T (Phi U_b)``, ``U_b T`` and ``U_b X`` are real
products on the float views of their complex factors, half the flops of
complex products and no complex copy of U.  :func:`decompose` never forms
Phi's eigenvectors ``U_b X``: it needs only the cyclic vector split by sign,
one product ``U_b (X c)`` per stack (:func:`_cyclic_parts`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fixpoint import GroupRep
from .groups import FiniteGroup
from .serialization import report_to_json
from .spaces import (IndefiniteSpace, Inertia, _Clause, _checked, _checked_tol, _first_failed, _inertia,
                     _normal_scale, _positive_definite, _unit_exponent, _unit_scaled)

__all__ = [
    "GroupFunction",
    "GnsResult",
    "DecompositionCertificate",
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

#: Default reconstruction tolerance of :meth:`DecompositionCertificate.ok`, relative to max|phi|.
RECONSTRUCTION_RTOL = 1e-8

#: Smallest group order whose basis comes from L_y; smaller groups take the identity as one block.
_BLOCK_MIN_ORDER = 60

#: Eigenvalues of L_y closer than this times max|eig| share one block.
_MERGE_GAP = 1e-2

#: Largest accepted block residual ||Phi U - U (+)T||_F, relative to ||Phi||_F.
_BLOCK_RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class GroupFunction:
    """Complex values per group element with phi(g^{-1}) = conj(phi(g))."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        v = _checked(np.reshape(self.values, -1), (self.group.order,), "values")
        scale = float(np.max(np.abs(v)))
        defect = float(np.max(np.abs(v[self.group.inverses] - v.conj())))
        if defect > SYMMETRY_TOL * scale:
            raise ValueError(
                f"values violate phi(g^-1) = conj(phi(g)) (defect {defect:.3e})"
            )
        object.__setattr__(self, "values", v)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _hermitian_gram(phi: GroupFunction, e: int = 0) -> np.ndarray:
    """``(G + G^H) / 2`` of ``G[i, j] = psi(g_i^{-1} g_j)``, ``psi = 2^-e phi``, from psi's Hermitian part."""
    v, inv = _unit_scaled(phi.values, e), phi.group.inverses
    return ((v + v[inv].conj()) / 2.0)[phi.group.table[inv]]


def _gram_blocks(
    phi: GroupFunction, vectors: bool
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Block stacks ``(U_b, eigenvalues, eigenvectors or None)`` of the Gram matrix of ``2^-e phi``.

    ``U^T Phi U`` is within ``R = ||Phi U - U (+)T||_F`` of ``(+)T`` (U orthogonal to
    roundoff), so by Weyl each block eigenvalue is within R of Phi's; the accepted
    ``R <= 1e-12 sqrt(MAX_ORDER) ||Phi||_2`` is below ``GRAM_KERNEL_RTOL ||Phi||_2``.
    A layout with a larger R is retried as one block, whose R is U's orthogonality error.
    """
    _normal_scale(phi.max_abs, "values")  # a subnormal phi has too few bits to judge
    e, m = _unit_exponent(phi.values), phi.group.order
    gram = _hermitian_gram(phi, e)  # at unit scale
    basis, layout = _invariant_basis(phi.group)
    if layout == [(0, m, m)] and np.array_equal(basis, np.eye(m)):
        stacks = [(basis[None], gram[None])]  # U = I: Phi is its one block, with a residual of exactly 0
    else:
        pu = _gram_times_basis(gram, basis)
        limit = (_BLOCK_RESIDUAL_RTOL * float(np.linalg.norm(gram))) ** 2
        for blocks in (layout, [(0, m, m)]):
            stacks, res2 = [], 0.0
            for start, stop, d in blocks:  # c blocks of size d, stacked as (c, m, d)
                ub, pub = (a[:, start:stop].reshape(m, -1, d).transpose(1, 0, 2) for a in (basis, pu))
                t = _real_left(ub.transpose(0, 2, 1), pub)
                res2 += float(np.linalg.norm(pub - _real_left(ub, t))) ** 2
                stacks.append((ub, t))
            if res2 <= limit:
                break
        else:
            raise RuntimeError(f"the invariant basis of the order-{m} group is not orthogonal")
    return [(ub, *(np.linalg.eigh(t) if vectors else (np.linalg.eigvalsh(t), None))) for ub, t in stacks]


def _gram_spectrum(
    phi: GroupFunction, vectors: bool = False
) -> tuple[np.ndarray, np.ndarray | None, Inertia]:
    """Ascending eigenvalues of the Hermitian Gram matrix, eigenvectors if asked, and the sign count.

    The count is taken at unit scale, so eigenvalues that overflow when scaled back keep their signs.
    """
    stacks = _gram_blocks(phi, vectors)
    eigs = np.concatenate([w.reshape(-1) for _, w, _ in stacks])
    order = np.argsort(eigs, kind="stable")
    vecs = None
    if vectors:
        m = phi.group.order
        vecs = np.hstack([_real_left(ub, x).transpose(1, 0, 2).reshape(m, -1) for ub, _, x in stacks])
        vecs = vecs[:, order]
    eigs = eigs[order]
    with np.errstate(over="ignore"):  # an eigenvalue beyond the float range is inf
        return np.ldexp(eigs, _unit_exponent(phi.values)), vecs, _inertia(eigs, GRAM_KERNEL_RTOL)


def _cyclic_parts(phi: GroupFunction) -> tuple[list[np.ndarray], Inertia]:
    """The cyclic vector split by sign, ``Phi_+^{1/2} delta_e`` and ``Phi_-^{1/2} delta_e``, of ``2^-e phi``.

    Returned with the sign count.  Each vector is ``sum_k v_k sqrt|lambda_k| conj(v_k[e])``
    over the eigenpairs of one sign, with ``v_k = U_b x_k``: the coefficients come from
    ``x^H U_b[e]`` and each vector from one real product ``U_b (x c)`` per stack, so
    Phi's eigenvectors are never formed.
    """
    group = phi.group
    stacks = _gram_blocks(phi, vectors=True)
    eigs = np.concatenate([w.reshape(-1) for _, w, _ in stacks])
    inertia = _inertia(eigs, GRAM_KERNEL_RTOL)
    order = np.argsort(eigs, kind="stable")
    conj_row = np.concatenate(
        [(x.conj().swapaxes(-1, -2) @ ub[:, group.identity, :, None]).reshape(-1) for ub, _, x in stacks]
    )
    coef = np.zeros((eigs.size, 2), dtype=complex)  # one column per sign
    for col, idx in enumerate((order[eigs.size - inertia.n_pos:], order[:inertia.n_neg])):
        coef[idx, col] = np.sqrt(np.abs(eigs[idx])) * conj_row[idx]
    f, start = np.zeros((eigs.size, 2), dtype=complex), 0
    for ub, w, x in stacks:
        y = x @ coef[start:start + w.size].reshape(w.shape + (2,))
        f += _real_left(ub, y).sum(axis=0)
        start += w.size
    return [f[:, 0], f[:, 1]], inertia


def _gram_times_basis(gram: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``Phi U`` (C order) for ``Phi = Phi^H`` bit for bit and real U: ``(U^T Phi)^H``."""
    return np.conjugate(_real_left(basis.T, gram).T, order="C")


def _real_left(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``a @ z`` for real a and complex z with unit-stride rows: one real product on z's float view."""
    return (a @ z.view(float)).view(complex)


def _invariant_basis(group: FiniteGroup) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """U and its ``(start, stop, d)``: blocks of size d, cached on the group.

    U comes from ``eigh(L_y)``; below ``_BLOCK_MIN_ORDER`` it is the identity as one block.
    """
    cached = group.__dict__.get("_invariant_basis")
    if cached is None:
        m, inv = group.order, group.inverses
        if m < _BLOCK_MIN_ORDER:  # the dense eigensolve, as one block
            cached = (np.eye(m), [(0, m, m)])
        else:
            z = np.random.default_rng(0).standard_normal(m)
            eigs, vecs = np.linalg.eigh(((z + z[inv]) / 2.0)[group.table[:, inv]])  # L_y, real symmetric
            cuts = np.flatnonzero(np.diff(eigs) > _MERGE_GAP * float(np.max(np.abs(eigs)))) + 1
            sizes = np.diff(np.r_[0, cuts, m])
            cols = np.argsort(np.repeat(sizes, sizes), kind="stable")  # clusters stay whole, in order
            d, count = np.unique(sizes, return_counts=True)
            bounds = np.r_[0, np.cumsum(d * count)].tolist()
            cached = (vecs[:, cols], list(zip(bounds[:-1], bounds[1:], d.tolist())))
        object.__setattr__(group, "_invariant_basis", cached)
    return cached


def negative_squares(phi: GroupFunction) -> int:
    """Number of negative eigenvalues of the full-group Gram matrix."""
    return _gram_spectrum(phi)[2].n_neg


def finite_type_rank(phi: GroupFunction) -> int:
    """Rank of the Gram matrix of a positive-definite function."""
    inertia = _gram_spectrum(phi)[2]
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
    eigs, vecs, inertia = _gram_spectrum(phi, vectors=True)
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
    """Five clauses, read by :meth:`ok`; ``failed_clause`` is the first to fail at scale ``max|phi|``."""

    reconstruction_error: float
    phi1_negative_squares: int
    phi2_negative_squares: int
    phi2_rank: int | None
    negative_squares: int
    failed_clause: str = ""

    def _clauses(self, scale: float, tol: float) -> tuple:
        rank = np.nan if self.phi2_rank is None else self.phi2_rank  # None fails both rank clauses
        return (
            _Clause("reconstruction_error", self.reconstruction_error, tol * scale),
            _Clause("phi1_negative_squares", self.phi1_negative_squares, 0),
            _Clause("phi2_negative_squares", self.phi2_negative_squares, 0),
            _Clause("rank_bounded_by_k", rank, self.negative_squares),
            _Clause("k_bounded_by_rank", self.negative_squares, rank),
        )

    def ok(self, scale: float, tol: float = RECONSTRUCTION_RTOL) -> bool:
        """All five clauses, with the reconstruction error at most ``tol * scale``."""
        if not (np.isfinite(scale) and scale >= 0.0):
            raise ValueError(f"scale must be a finite number >= 0, got {scale!r}")
        _checked_tol(tol, "tol")
        return not _first_failed(self._clauses(scale, tol))

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
    ``U(g)`` is built.  The returned certificate's clauses check the
    reconstruction error, positivity of both parts, and
    rank(phi2) = negative_squares(phi), all against phi; its count
    of phi's negative squares is the one this eigendecomposition gives.
    """
    group, e = phi.group, _unit_exponent(phi.values)
    cyclic, inertia = _cyclic_parts(phi)
    with np.errstate(over="ignore"):  # a part beyond the float range is rejected below
        parts = [np.ldexp((f[group.table].conj() @ f).view(float), e).view(complex) for f in cyclic]
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"values scale {phi.max_abs:.3e} is too large: a part of phi overflows")
    phi1, phi2 = (GroupFunction(group, part) for part in parts)
    return phi1, phi2, _certificate(phi, phi1, phi2, inertia.n_neg)


def verify_decomposition(
    phi: GroupFunction, phi1: GroupFunction, phi2: GroupFunction
) -> DecompositionCertificate:
    """Certificate for a claimed decomposition phi = phi1 - phi2.

    Checks reconstruction, positive-definiteness of both parts, and the
    two-sided rank relation k <= rank(phi2) (with rank(phi2) <= k holding for
    decompositions produced here).  Every count is taken afresh.
    """
    for part in (phi1, phi2):
        if part.group is not phi.group and not (
            part.group.order == phi.group.order
            and np.array_equal(part.group.table, phi.group.table)
        ):
            raise ValueError("decomposition parts must live on the same group")
    return _certificate(phi, phi1, phi2, negative_squares(phi))


def _certificate(
    phi: GroupFunction, phi1: GroupFunction, phi2: GroupFunction, n_neg: int
) -> DecompositionCertificate:
    """The certificate of phi = phi1 - phi2, given phi's negative-square count."""
    err = float(np.max(np.abs(phi.values - phi1.values + phi2.values)))
    inertia2 = _gram_spectrum(phi2)[2]
    cert = DecompositionCertificate(
        reconstruction_error=err,
        phi1_negative_squares=_pd_negative_squares(phi1),
        phi2_negative_squares=inertia2.n_neg,
        phi2_rank=None if inertia2.n_neg else inertia2.n_pos,
        negative_squares=n_neg,
    )
    return replace(cert, failed_clause=_first_failed(cert._clauses(phi.max_abs, RECONSTRUCTION_RTOL)))


def _pd_negative_squares(phi: GroupFunction) -> int:
    """:func:`negative_squares`, 0 if ``Gram + (GRAM_KERNEL_RTOL/2) phi(e) I`` is Cholesky-PD.

    The null threshold is ``GRAM_KERNEL_RTOL max|eig|`` with ``max|eig| >= |phi(e)|``,
    the mean eigenvalue, so its other half covers the factor's roundoff.
    """
    gram = _hermitian_gram(phi, _unit_exponent(phi.values))  # its diagonal is Re phi(e), at the same scale
    return 0 if _positive_definite(gram, GRAM_KERNEL_RTOL / 2.0 * float(gram[0, 0].real)) else negative_squares(phi)
