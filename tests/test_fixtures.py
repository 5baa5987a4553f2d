"""The fixtures' index-array formulas draw exactly what the dense permutation products drew."""

import tracemalloc

import numpy as np
import pytest

from kreinkit import GroupFunction, build_space, cyclic, named_group, negative_squares, operator_norm
from kreinkit.fixtures import (
    fixture_conjugated_rep,
    random_ball_point,
    random_complex,
    random_conjugated_rep,
    random_hermitian,
    random_qpd_function,
    random_unitary,
    random_unitary_rep,
)


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
