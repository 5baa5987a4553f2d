"""The fixtures' index-array formulas draw exactly what the dense permutation products drew.

The dissipativity and J-unitarity acceptance tests decide what the spectral rules they
replaced decided, and take no dense spectrum.
"""

import tracemalloc

import numpy as np
import pytest

import kreinkit.fixtures as fixtures_module
from kreinkit import GroupFunction, build_space, cyclic, named_group, negative_squares, operator_norm
from kreinkit.fixtures import (
    corner_decay_fixture,
    fixture_conjugated_rep,
    random_ball_point,
    random_complex,
    random_conjugated_rep,
    random_hermitian,
    random_j_dissipative,
    random_j_unitary,
    random_qpd_function,
    random_strongly_j_dissipative,
    random_unitary,
    random_unitary_rep,
)
from kreinkit.spaces import PREDICATE_TOL, _norm_lower_bound, dissipativity_form


def dense_clusters(group, rng):
    """``_invariant_clusters`` through m dense permutation matrices, kept as reference."""
    m = group.order
    perms = [group.left_translation(g) for g in range(m)]
    h = random_hermitian(rng, m)
    c = sum(p @ h @ p.T for p in perms) / m
    eigs, vecs = np.linalg.eigh((c + c.conj().T) / 2.0)
    gap = 1e-6 * max(1.0, float(np.max(np.abs(eigs))))
    clusters, start = [], 0
    for i in range(1, m + 1):
        if i == m or eigs[i] - eigs[i - 1] > gap:
            clusters.append(vecs[:, start:i])
            start = i
    return clusters, perms


def dense_unitary_rep(group, dim, rng):
    clusters, perms = dense_clusters(group, rng)
    pieces, total = [], 0
    while total < dim:
        options = [c for c in clusters if c.shape[1] <= dim - total]
        choice = options[rng.integers(0, len(options))]
        pieces.append(choice)
        total += choice.shape[1]
    q = random_unitary(rng, dim)
    mats = np.empty((group.order, dim, dim), dtype=complex)
    for g in range(group.order):
        full = np.zeros((dim, dim), dtype=complex)
        at = 0
        for v in pieces:
            b = v.conj().T @ perms[g] @ v
            full[at : at + b.shape[0], at : at + b.shape[0]] = b
            at += b.shape[0]
        mats[g] = q @ full @ q.conj().T
    return mats


def dense_qpd_function(group, rng, k):
    m = group.order
    perms = [group.left_translation(g) for g in range(m)]
    x = random_complex(rng, m)
    pd_vals = np.array([np.vdot(x, p @ x) for p in perms])
    delta = np.zeros(m)
    delta[group.identity] = rng.uniform(0.5, 1.5) * float(np.abs(pd_vals).max())
    pd_vals = pd_vals + delta
    clusters, _ = dense_clusters(group, rng)
    rng.shuffle(clusters)
    picked, total = [], 0
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
    return pd_vals - ft_vals, pd_vals, ft_vals


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "S4", "Z12"])
def test_draws_match_the_dense_formula(name):
    group = named_group(name)
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for dim in (1, 2, 5):
            assert np.array_equal(random_unitary_rep(group, dim, rng), dense_unitary_rep(group, dim, ref))
        for k in (1, 2, 3):
            drawn = random_qpd_function(group, rng, k=k)
            for got, want in zip(drawn, dense_qpd_function(group, ref, k)):
                assert np.array_equal(got.values, GroupFunction(group, want).values)


def test_benchmark_draws_match_the_dense_formula():
    # the S4 (4,30) representation and the S5 k = 3 functions of the group benchmark
    s4, s5, space = named_group("S4"), named_group("S5"), build_space(4, 30)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    rep, center = random_conjugated_rep(s4, space, rng, center_norm=0.5)
    um, up = dense_unitary_rep(s4, 4, ref), dense_unitary_rep(s4, 30, ref)
    ref_center = random_ball_point(space, ref, norm=0.5)
    assert np.array_equal(center, ref_center)
    assert np.array_equal(rep.matrices, fixture_conjugated_rep(s4, um, up, ref_center).matrices)
    for _ in range(2):
        phi = random_qpd_function(s5, rng, k=3)[0]
        assert np.array_equal(phi.values, GroupFunction(s5, dense_qpd_function(s5, ref, 3)[0]).values)


def test_draw_memory_is_quadratic_in_the_order():
    # m dense m x m permutation matrices would be 8 m^3 = 1 GiB at m = 512
    group = cyclic(512)
    tracemalloc.start()
    try:
        phi, _, _ = random_qpd_function(group, np.random.default_rng(1), k=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.values.shape == (512,)
    assert peak < 8 * 16 * group.order**2


@pytest.mark.parametrize("name", ["Z4", "S3", "S5"])
def test_qpd_draw_takes_k_as_the_rank_bound(name):
    # k = 0 leaves no finite-type part; a negative k is no rank bound at all
    group = named_group(name)
    phi, pd, ft = random_qpd_function(group, np.random.default_rng(0), k=0)
    assert not ft.values.any()
    assert np.array_equal(phi.values, pd.values)
    assert negative_squares(phi) == 0
    with pytest.raises(ValueError, match="^k must be at least 0, got -1"):
        random_qpd_function(group, np.random.default_rng(0), k=-1)


def test_ball_point_rejects_a_negative_norm():
    space = build_space(2, 3)
    with pytest.raises(ValueError, match="^a ball point's norm must be at least 0, got -0.5"):
        random_ball_point(space, np.random.default_rng(0), norm=-0.5)
    assert operator_norm(random_ball_point(space, np.random.default_rng(0), norm=0.0)) == 0.0


def spectral_rule(space, a, strict):
    """The ``eigvalsh`` acceptance rule of the dissipative draws, kept as the oracle of the Cholesky tests."""
    form_min = float(np.min(np.linalg.eigvalsh(dissipativity_form(space, a))))
    scale = _norm_lower_bound(a)
    if form_min < -1e-12 * scale:
        return "generator produced a non-dissipative matrix"
    if strict and form_min <= 1e-9 * scale:
        return "generator produced a non-strongly-dissipative matrix"
    return None


def decay_rule(space, a):
    """The decay fixture's ``eigvalsh`` rule: strongly J-dissipative beyond ``PREDICATE_TOL * nu``."""
    form_min = float(np.min(np.linalg.eigvalsh(dissipativity_form(space, a))))
    return None if form_min > PREDICATE_TOL * _norm_lower_bound(a) else "decay fixture lost strong dissipativity"


def unitary_rule(space, u):
    """The J-unitarity rule ``||U^H J U - J|| <= 1e-8``, with a dense J."""
    defect = operator_norm(u.conj().T @ space.j @ u - space.j)
    return "generator produced a non-J-unitary matrix" if defect > 1e-8 else None


def drawn(name, draw):
    """Run ``draw()``; return the matrix it passed to ``fixtures.<name>`` and its AssertionError message or None."""
    seen, inner = [], getattr(fixtures_module, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixtures_module, name, lambda space, a: seen.append(a) or inner(space, a))
        try:
            draw()
        except AssertionError as err:
            return seen[0], str(err)
    return seen[0], None


DISSIPATIVE_SIGNATURES = [(2, 10), (5, 60)]


@pytest.mark.parametrize("sig", DISSIPATIVE_SIGNATURES)
@pytest.mark.parametrize("strict, offset, expected", [
    # margin -lambda_min + offset * nu puts the smallest form eigenvalue at offset * nu;
    # a negative offset makes the margin negative
    (False, -1e-3, "non-dissipative"),
    (False, -1e-10, "non-dissipative"),
    (False, 1e-10, None),
    (False, 1e-3, None),
    (True, -1e-6, "non-dissipative"),
    (True, -1e-10, "non-dissipative"),
    (True, 0.0, "non-strongly-dissipative"),  # the margin cancels the smallest eigenvalue
    (True, 1e-10, "non-strongly-dissipative"),
    (True, 1e-7, None),
    (True, 1e-3, None),
])
def test_dissipative_draws_raise_exactly_when_the_spectrum_says(sig, strict, offset, expected):
    space = build_space(*sig)
    for seed in range(3):
        reference = random_j_dissipative(space, np.random.default_rng(seed))  # the same stream, margin None
        form_min = float(np.min(np.linalg.eigvalsh(dissipativity_form(space, reference))))
        margin = -form_min + offset * _norm_lower_bound(reference)
        generator = random_strongly_j_dissipative if strict else random_j_dissipative
        a, message = drawn("dissipativity_form",
                           lambda: generator(space, np.random.default_rng(seed), margin=margin))
        # the margin lands where it was meant to, and the Cholesky tests agree with the spectrum
        assert spectral_rule(space, a, strict) == (expected and f"generator produced a {expected} matrix")
        assert message == spectral_rule(space, a, strict)


@pytest.mark.parametrize("sig", DISSIPATIVE_SIGNATURES)
@pytest.mark.parametrize("scaled, fails", [(0.0, True), (1e-11, True), (1e-7, False), (1.0, False)])
def test_decay_fixture_raises_exactly_when_the_spectrum_says(sig, scaled, fails):
    # margin = scaled * nu, with nu from the same stream at margin 1; margin 0 leaves H+ no margin at all
    space = build_space(*sig)
    for seed in range(3):
        nu = _norm_lower_bound(corner_decay_fixture(space, np.random.default_rng(seed)))
        a, message = drawn("dissipativity_form",
                           lambda: corner_decay_fixture(space, np.random.default_rng(seed), margin=scaled * nu))
        assert (decay_rule(space, a) is not None) == fails
        assert message == decay_rule(space, a)


@pytest.mark.parametrize("stretch, fails", [(0.0, False), (1e-12, False), (1e-6, True), (1e-3, True)])
def test_j_unitary_draw_raises_exactly_when_the_spectrum_says(stretch, fails, monkeypatch):
    # (1 + t) M_A makes the draw's unitarity gap ((1 + t)^2 - 1) J, of norm about 2t
    mobius = fixtures_module.mobius_matrix
    monkeypatch.setattr(fixtures_module, "mobius_matrix", lambda space, a: (1.0 + stretch) * mobius(space, a))
    space = build_space(3, 7)
    for seed in range(3):
        u, message = drawn("_unitarity_gap",
                           lambda: random_j_unitary(space, np.random.default_rng(seed)))
        assert (unitary_rule(space, u) is not None) == fails
        assert message == unitary_rule(space, u)


def test_dissipative_draws_take_no_dense_spectrum(monkeypatch):
    # each acceptance test is one in-place Cholesky in 64-column blocks: no
    # eigvalsh, svd, Cholesky or inverse of an n x n matrix
    space = build_space(5, 295)
    n = space.n
    calls = {name: [] for name in ("eigvalsh", "svd", "cholesky", "inv")}
    for name, shapes in calls.items():
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda x, *args, _solver=solver, _shapes=shapes, **kwargs:
                            _shapes.append(np.shape(x)) or _solver(x, *args, **kwargs))
    rng = np.random.default_rng(7)
    for draw in (lambda: random_strongly_j_dissipative(space, rng),
                 lambda: random_j_dissipative(space, rng, rank_deficient=True),
                 lambda: corner_decay_fixture(space, rng)):
        for shapes in calls.values():
            shapes.clear()
        draw()
        assert (n, n) not in calls["eigvalsh"] + calls["svd"]
        assert calls["cholesky"] == [(64, 64)] * 4 + [(44, 44)]
        assert calls["inv"] == [(64, 64)] * 4


@pytest.mark.parametrize("draw", [
    lambda space, rng: random_strongly_j_dissipative(space, rng),
    lambda space, rng: random_j_dissipative(space, rng),
    lambda space, rng: random_j_dissipative(space, rng, margin=0.3),
    lambda space, rng: random_j_dissipative(space, rng, rank_deficient=True),
    lambda space, rng: corner_decay_fixture(space, rng),
], ids=["strongly", "dissipative", "margin", "rank-deficient", "corner-decay"])
def test_dissipative_draws_are_built_in_place(draw):
    # the draw, c and the form are the only n x n arrays, never all three at once;
    # a small draw first, so that no first-call allocation is counted
    draw(build_space(1, 2), np.random.default_rng(3))
    space = build_space(5, 395)
    tracemalloc.start()
    try:
        a = draw(space, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * a.nbytes
