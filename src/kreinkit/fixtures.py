"""Seeded random generators for test corpora and the CLI ``gen`` command.

Generators are specified by certificate, not by formula: every draw is
checked against the relevant predicate before it is returned.
"""

from __future__ import annotations

import numpy as np

import numpy.linalg as nla

from .ball import mobius_matrix
from .fixpoint import GroupRep
from .groups import FiniteGroup
from .qpd import GroupFunction
from .spaces import (PREDICATE_TOL, IndefiniteSpace, _norm_lower_bound, classify_operator,
                     dissipativity_form, operator_norm)

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
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a Gaussian matrix."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    h = random_complex(rng, (n, n))
    return (h + h.conj().T) / 2.0


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
    s = random_hermitian(rng, n)
    c = random_complex(rng, (n, max(1, n - 2) if rank_deficient else n))
    p = c @ c.conj().T / n
    if margin is not None:
        p = p + margin * np.eye(n)
    a = space.j_signs[:, None] * (s + 1j * p)
    # accept only draws certified dissipative, and strongly so when strict
    form_min = float(np.min(nla.eigvalsh(dissipativity_form(space, a))))
    scale = _norm_lower_bound(a)
    if form_min < -1e-12 * scale:
        raise AssertionError("generator produced a non-dissipative matrix")
    if strict and form_min <= 1e-9 * scale:
        raise AssertionError("generator produced a non-strongly-dissipative matrix")
    return a


def random_ball_point(
    space: IndefiniteSpace, rng: np.random.Generator, norm: float = 0.5
) -> np.ndarray:
    """A ball point with spectral norm exactly ``norm``."""
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
    if classify_operator(space, u).unitarity_defect > 1e-8:
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
    s = np.zeros((n, n), dtype=complex)
    s[:k, :k] = random_hermitian(rng, k)
    weights = decay ** np.arange(space.n_plus)
    corner = random_complex(rng, (k, space.n_plus)) * weights[None, :]
    s[:k, k:] = corner
    s[k:, :k] = corner.conj().T
    s[k:, k:] = np.diag(rng.uniform(1.0, 3.0, space.n_plus))
    c1 = random_complex(rng, (k, k))
    p = np.zeros((n, n), dtype=complex)
    p[:k, :k] = c1 @ c1.conj().T / max(1, k) + margin * np.eye(k)
    p[k:, k:] = np.diag(margin * rng.uniform(1.0, 2.0, space.n_plus))
    a = space.j_signs[:, None] * (s + 1j * p)
    # classify_operator's strong-dissipativity test, without its other predicates
    form_min = float(np.min(nla.eigvalsh(dissipativity_form(space, a))))
    if not form_min > PREDICATE_TOL * _norm_lower_bound(a):
        raise AssertionError("decay fixture lost strong dissipativity")
    return a


def _invariant_clusters(group: FiniteGroup, rng: np.random.Generator) -> list[np.ndarray]:
    """Orthonormal bases of invariant subspaces of the regular representation.

    Eigenspaces of a generic group-averaged Hermitian matrix; cluster sizes
    equal the dimensions of the irreducible representations.
    """
    m = group.order
    perms = [group.left_translation(g) for g in range(m)]
    h = random_hermitian(rng, m)
    c = sum(p @ h @ p.T for p in perms) / m
    eigs, vecs = np.linalg.eigh((c + c.conj().T) / 2.0)
    gap = 1e-6 * max(1.0, float(np.max(np.abs(eigs))))
    clusters = []
    start = 0
    for i in range(1, m + 1):
        if i == m or eigs[i] - eigs[i - 1] > gap:
            clusters.append(vecs[:, start:i])
            start = i
    return clusters


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
    perms = [group.left_translation(g) for g in range(group.order)]
    q = random_unitary(rng, dim)
    mats = np.empty((group.order, dim, dim), dtype=complex)
    for g in range(group.order):
        blocks = [v.conj().T @ perms[g] @ v for v in pieces]
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
    m_a_inv = mobius_matrix(space, -a)
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
    the difference really has negative squares.
    Returns (phi, phi_pd, scaled finite-type part).
    """
    m = group.order
    perms = [group.left_translation(g) for g in range(m)]
    x = random_complex(rng, m)
    pd_vals = np.array([np.vdot(x, p @ x) for p in perms])
    delta = np.zeros(m)
    delta[group.identity] = rng.uniform(0.5, 1.5) * float(np.abs(pd_vals).max())
    pd_vals = pd_vals + delta

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
    if not picked:
        picked = [min(clusters, key=lambda c: c.shape[1])]
        total = picked[0].shape[1]
    v = np.hstack(picked)
    y = random_complex(rng, total)
    ft_vals = np.array([np.vdot(y, v.conj().T @ p @ v @ y) for p in perms])
    scale = 2.0 * float(np.abs(pd_vals).max()) / max(float(np.abs(ft_vals).max()), 1e-12)
    ft_vals = scale * rng.uniform(1.0, 2.0) * ft_vals

    phi_pd = GroupFunction(group, pd_vals)
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
