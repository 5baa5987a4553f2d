"""Seeded random generators for test corpora and the CLI ``gen`` command.

Generators are specified by certificate, not by formula: every draw is
checked against the relevant predicate before it is returned.

Each dissipativity acceptance test is one Cholesky factorization of the
draw's own dissipativity form H, shifted by ``sigma nu`` with ``nu <= ||A||``
the lower bound of :func:`kreinkit.spaces._norm_lower_bound`.  A factor of
``H + sigma nu I`` proves ``lambda_min(H) > -sigma nu`` up to the
factorization's backward error (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 10), which is all a threshold test needs, so no
spectrum is computed: ``sigma = 1e-12`` certifies a J-dissipative draw,
``sigma = -1e-9`` a strongly J-dissipative one, and ``sigma = -PREDICATE_TOL``
the decay fixture, at the slack of the dissipativity test of :func:`kreinkit.mnps`.

Draws are built in place.  :func:`random_complex` fills the real and imaginary
parts of one complex array and scales it, :func:`random_hermitian` overwrites
that array with its Hermitian part, and a dissipative draw overwrites S with
``J (S + iP)``, forming ``P = c c^H / n`` one block of ``_BLOCK`` rows (the
last one up to ``2 _BLOCK - 1``) at a time.  So a dissipative draw holds its
result, c and one real ``n x n`` array of normals at most; c is freed before
the acceptance test, which holds the result and its form, the one array that
the test overwrites.  Every draw is the same, bit for bit, as the out-of-place
formula ``J (S + iP)``.
"""

from __future__ import annotations

import numpy as np

from .ball import mobius_matrix
from .fixpoint import GroupRep
from .groups import FiniteGroup
from .qpd import GroupFunction
from .spaces import (PREDICATE_TOL, _BLOCK, IndefiniteSpace, _j_conjugate, _mirrored_blocks, _norm_lower_bound,
                     _positive_definite, _unitarity_gap, dissipativity_form, operator_norm)

__all__ = [
    "random_complex",
    "random_unitary",
    "random_hermitian",
    "random_j_dissipative",
    "random_strongly_j_dissipative",
    "random_ball_point",
    "random_j_unitary",
    "corner_decay_fixture",
    "random_unitary_rep",
    "cyclic_character_rep",
    "fixture_conjugated_rep",
    "random_conjugated_rep",
    "random_qpd_function",
    "doubled_form_matrix",
    "fixture_double_rep",
]


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries, filled into one complex array and scaled in place."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a Gaussian matrix."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """``(G + G^H) / 2`` for a :func:`random_complex` G, symmetrized in place one pair of blocks at a time."""
    h = random_complex(rng, (n, n))
    for rows, cols in _mirrored_blocks(n):
        upper, lower = h[rows, cols], h[cols, rows]
        x, y = upper + lower.conj().T, lower + upper.conj().T
        np.divide(x, 2.0, out=upper)
        np.divide(y, 2.0, out=lower)
    return h


def random_j_dissipative(
    space: IndefiniteSpace,
    rng: np.random.Generator,
    margin: float | None = None,
    rank_deficient: bool = False,
) -> np.ndarray:
    """Random A with PSD dissipativity form; checked before returning.

    ``A = J (S + iP)`` with S Hermitian and P >= 0 has dissipativity form
    exactly P.  ``margin`` adds margin * I to P; ``rank_deficient`` makes P
    singular so the operator is dissipative but not strongly so.
    """
    return _dissipative_draw(space, rng, margin, rank_deficient, strict=False)


def random_strongly_j_dissipative(
    space: IndefiniteSpace, rng: np.random.Generator, margin: float = 0.1
) -> np.ndarray:
    return _dissipative_draw(space, rng, margin, False, strict=True)


def _dissipative_draw(space: IndefiniteSpace, rng: np.random.Generator, margin: float | None,
                      rank_deficient: bool, strict: bool) -> np.ndarray:
    n = space.n
    a = random_hermitian(rng, n)  # S, which becomes A = J (S + iP) in place
    c = random_complex(rng, (n, max(1, n - 2) if rank_deficient else n))
    # rows i0:i1 of P = c c^H / n, bit for bit, with no n x n conj(c).  BLAS sums
    # a product of a few rows in another order, so the last block takes the
    # _BLOCK to 2 _BLOCK - 1 rows left rather than a thin remainder
    starts = range(0, max(n - _BLOCK, 1), _BLOCK)
    for i0, i1 in zip(starts, [*starts[1:], n]):
        p = np.conj(c[i0:i1]) @ c.T
        np.conjugate(p, out=p)
        p /= n
        if margin is not None:
            p.flat[i0 :: n + 1] += margin  # the rows' entries on the diagonal of P
        p *= 1j
        a[i0:i1] += p
    del c, p  # freed before the form is allocated
    a *= space.j_signs[:, None]
    # accept only draws certified dissipative, and strongly so when strict
    nu = _norm_lower_bound(a)
    if _positive_definite(dissipativity_form(space, a), (-1e-9 if strict else 1e-12) * nu):
        return a
    if strict and _positive_definite(dissipativity_form(space, a), 1e-12 * nu):
        raise AssertionError("generator produced a non-strongly-dissipative matrix")
    raise AssertionError("generator produced a non-dissipative matrix")


def random_ball_point(
    space: IndefiniteSpace, rng: np.random.Generator, norm: float = 0.5
) -> np.ndarray:
    """A ball point with spectral norm exactly ``norm``."""
    if norm < 0:
        raise ValueError(f"a ball point's norm must be at least 0, got {norm}")
    g = random_complex(rng, (space.n_plus, space.n_minus))
    top = operator_norm(g)
    if top == 0.0:
        return g
    return g * (norm / top)


def random_j_unitary(
    space: IndefiniteSpace, rng: np.random.Generator, center_norm: float = 0.6
) -> np.ndarray:
    """M_A times a block-diagonal unitary; every J-unitary has this form."""
    a = random_ball_point(space, rng, norm=center_norm * rng.uniform(0.2, 1.0))
    block = space.assemble(
        random_unitary(rng, space.n_minus),
        np.zeros((space.n_minus, space.n_plus)),
        np.zeros((space.n_plus, space.n_minus)),
        random_unitary(rng, space.n_plus),
    )
    u = mobius_matrix(space, a) @ block
    if operator_norm(_unitarity_gap(space, u)) > 1e-8:
        raise AssertionError("generator produced a non-J-unitary matrix")
    return u


def corner_decay_fixture(
    space: IndefiniteSpace,
    rng: np.random.Generator,
    decay: float = 0.95,
    margin: float = 1.0,
) -> np.ndarray:
    """Strongly J-dissipative matrix whose far H+ coordinates decouple geometrically.

    H- block dense, H+ block diagonal with spread entries, corner entries
    scaled by decay**j along the H+ index.  The graph operator of the full
    problem then has rows falling off like decay**j, so coordinate
    truncations converge in norm with geometric inter-level deltas.  The
    anti-Hermitian part is diagonal-plus-block and keeps the dissipativity
    margin at ``margin``.
    """
    k, n = space.n_minus, space.n
    a = np.zeros((n, n), dtype=complex)  # S, which becomes A = J (S + iP) in place
    a[:k, :k] = random_hermitian(rng, k)
    weights = decay ** np.arange(space.n_plus)
    corner = random_complex(rng, (k, space.n_plus)) * weights[None, :]
    a[:k, k:] = corner
    a[k:, :k] = corner.conj().T
    plus_diagonal = a.reshape(-1)[k * (n + 1) :: n + 1]  # a view of the H+ block's diagonal
    plus_diagonal[:] = rng.uniform(1.0, 3.0, space.n_plus)
    c1 = random_complex(rng, (k, k))
    a[:k, :k] += 1j * (c1 @ c1.conj().T / max(1, k) + margin * np.eye(k))
    plus_diagonal += 1j * (margin * rng.uniform(1.0, 2.0, space.n_plus))
    a *= space.j_signs[:, None]
    if not _positive_definite(dissipativity_form(space, a), -PREDICATE_TOL * _norm_lower_bound(a)):
        raise AssertionError("decay fixture lost strong dissipativity")
    return a


def _known_answer(sp, rng, c_norm, eps):
    """``A = M_c D M_c^{-1}`` with ``D = diag(r + i eps j)``, and its MNPS graph c.

    M_c is J-unitary, so the dissipativity form of A is congruent to eps I and
    A is strictly J-dissipative; its lower half-plane eigenvectors span
    ``M_c H- = graph(c)``.  With ``|c|`` near 1 and eps small the spectrum
    hugs the real axis while ``||A||`` grows with ``cond(M_c)``.
    """
    c = random_ball_point(sp, rng, c_norm)
    m_c = mobius_matrix(sp, c)
    d = rng.standard_normal(sp.n) + 1j * eps * sp.j_signs
    return (m_c * d) @ mobius_matrix(sp, -c), c


def _invariant_clusters(group: FiniteGroup, rng: np.random.Generator) -> list[np.ndarray]:
    """Orthonormal bases of invariant subspaces of the regular representation.

    Eigenspaces of a generic group-averaged Hermitian matrix; cluster sizes
    equal the dimensions of the irreducible representations.
    """
    m = group.order
    h = random_hermitian(rng, m)
    # P_g h P_g^T = h[ix_(q, q)] with q = table[g^-1]; summed in the same order
    c = sum(h[np.ix_(q, q)] for q in group.table[group.inverses]) / m
    eigs, vecs = np.linalg.eigh((c + c.conj().T) / 2.0)
    gap = 1e-6 * max(1.0, float(np.max(np.abs(eigs))))
    clusters = []
    start = 0
    for i in range(1, m + 1):
        if i == m or eigs[i] - eigs[i - 1] > gap:
            clusters.append(vecs[:, start:i])
            start = i
    return clusters


def _compression(group: FiniteGroup, g: int, v: np.ndarray) -> np.ndarray:
    """``v^H P_g v`` bit for bit: ``v^H P_g`` is ``v[table[g]]^H``, laid out as before."""
    return np.ascontiguousarray(v[group.table[g]].conj().T) @ v


def random_unitary_rep(
    group: FiniteGroup, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """A random ``dim``-dimensional unitary representation of the group.

    Direct sum (with repetition) of compressions of the regular
    representation onto invariant subspaces, conjugated by a random unitary.
    """
    if dim == 0:
        return np.zeros((group.order, 0, 0), dtype=complex)
    clusters = _invariant_clusters(group, rng)
    pieces: list[np.ndarray] = []
    total = 0
    while total < dim:
        options = [c for c in clusters if c.shape[1] <= dim - total]
        choice = options[rng.integers(0, len(options))]
        pieces.append(choice)
        total += choice.shape[1]
    q = random_unitary(rng, dim)
    mats = np.empty((group.order, dim, dim), dtype=complex)
    for g in range(group.order):
        blocks = [_compression(group, g, v) for v in pieces]
        full = np.zeros((dim, dim), dtype=complex)
        at = 0
        for b in blocks:
            d = b.shape[0]
            full[at : at + d, at : at + d] = b
            at += d
        mats[g] = q @ full @ q.conj().T
    return mats


def cyclic_character_rep(group: FiniteGroup, exponents) -> np.ndarray:
    """Diagonal character rep of a cyclic group built from integer labels.

    ``exponents`` lists one integer per diagonal entry; element labelled j
    acts as diag(exp(2 pi i a j / m)).  Distinct exponents make the rep
    multiplicity-free, so its only invariant subspaces are coordinate spans.
    """
    m = group.order
    js = np.array([int(label) for label in group.elements])
    exps = np.asarray(exponents, dtype=int)
    mats = np.zeros((m, len(exps), len(exps)), dtype=complex)
    for g in range(m):
        mats[g] = np.diag(np.exp(2j * np.pi * exps * js[g] / m))
    return mats


def fixture_conjugated_rep(
    group: FiniteGroup, u_minus, u_plus, center
) -> GroupRep:
    """Test rep pi(g) = M_A diag(u_minus(g), u_plus(g)) M_{-A}.

    ``u_minus`` / ``u_plus`` are per-element unitary blocks on H- / H+ and
    ``center`` is a strict ball point; the result is J-unitary with
    ``||pi|| <= ||M_A||^2``.
    """
    um = np.asarray(u_minus, dtype=complex)
    up = np.asarray(u_plus, dtype=complex)
    if um.shape[0] != group.order or up.shape[0] != group.order:
        raise ValueError("need one unitary block per group element")
    space = IndefiniteSpace(um.shape[1], up.shape[1])
    a = np.asarray(center, dtype=complex)
    m_a = mobius_matrix(space, a)
    m_a_inv = _j_conjugate(space, m_a)  # M_{-A}, bit for bit
    z12 = np.zeros((space.n_minus, space.n_plus))
    z21 = np.zeros((space.n_plus, space.n_minus))
    mats = np.array(
        [m_a @ space.assemble(um[g], z12, z21, up[g]) @ m_a_inv
         for g in range(group.order)]
    )
    return GroupRep(group, space, mats)


def random_conjugated_rep(
    group: FiniteGroup,
    space: IndefiniteSpace,
    rng: np.random.Generator,
    center_norm: float = 0.5,
) -> tuple[GroupRep, np.ndarray]:
    """Conjugated-block fixture; returns the rep and the conjugation center."""
    u_minus = random_unitary_rep(group, space.n_minus, rng)
    u_plus = random_unitary_rep(group, space.n_plus, rng)
    a = random_ball_point(space, rng, norm=center_norm)
    return fixture_conjugated_rep(group, u_minus, u_plus, a), a


def random_qpd_function(
    group: FiniteGroup, rng: np.random.Generator, k: int = 1
) -> tuple[GroupFunction, GroupFunction, GroupFunction]:
    """phi = phi_pd - c * phi_ft with phi_ft of rank <= k.

    The PD part is a matrix element of the regular representation plus a
    multiple of the delta at the identity; the finite-type part is a matrix
    element of a k'-dimensional invariant compression (k' <= k), scaled so
    the difference really has negative squares.  k = 0 gives phi_ft = 0.
    Returns (phi, phi_pd, scaled finite-type part).
    """
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    m = group.order
    x = random_complex(rng, m)
    # P_g x = x[table[g^-1]]
    pd_vals = np.array([np.vdot(x, x[q]) for q in group.table[group.inverses]])
    delta = np.zeros(m)
    delta[group.identity] = rng.uniform(0.5, 1.5) * float(np.abs(pd_vals).max())
    pd_vals = pd_vals + delta

    phi_pd = GroupFunction(group, pd_vals)
    if k == 0:
        return phi_pd, phi_pd, GroupFunction(group, np.zeros(m))

    clusters = _invariant_clusters(group, rng)
    rng.shuffle(clusters)
    picked: list[np.ndarray] = []
    total = 0
    for c in clusters:
        if total + c.shape[1] <= k:
            picked.append(c)
            total += c.shape[1]
        if total == k:
            break
    v = np.hstack(picked)
    y = random_complex(rng, total)
    ft_vals = np.array([np.vdot(y, _compression(group, g, v) @ y) for g in range(m)])
    scale = 2.0 * float(np.abs(pd_vals).max()) / max(float(np.abs(ft_vals).max()), 1e-12)
    ft_vals = scale * rng.uniform(1.0, 2.0) * ft_vals

    phi_ft = GroupFunction(group, ft_vals)
    phi = GroupFunction(group, pd_vals - ft_vals)
    return phi, phi_pd, phi_ft


def doubled_form_matrix(n: int) -> np.ndarray:
    """The pairing [x1+y1, x2+y2] = (x1, y2) + (y1, x2) on C^n + C^n."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [eye, zero]]).astype(complex)


def fixture_double_rep(rep: GroupRep) -> GroupRep:
    """Doubling trick: tau(g) = diag(pi(g), pi(g^{-1})^H) on H + H.

    ``tau`` preserves the skew pairing of :func:`doubled_form_matrix` for any
    invertible pi; in the coordinates diagonalizing that pairing (difference
    vectors first, sum vectors last) it becomes J-unitary for the equal-split
    signature (n, n).
    """
    group = rep.group
    n = rep.space.n
    basis = np.block(
        [[np.eye(n), np.eye(n)], [-np.eye(n), np.eye(n)]]
    ).astype(complex) / np.sqrt(2.0)
    mats = []
    for g in range(group.order):
        pig = rep.matrices[g]
        pig_inv_star = rep.matrices[group.inv(g)].conj().T
        tau = np.block(
            [[pig, np.zeros((n, n))], [np.zeros((n, n)), pig_inv_star]]
        )
        mats.append(basis.conj().T @ tau @ basis)
    return GroupRep(group, IndefiniteSpace(n, n), np.array(mats))
