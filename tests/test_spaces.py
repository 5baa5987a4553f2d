import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kreinkit import (
    IndefiniteSpace,
    NotAGraphError,
    Subspace,
    build_space,
    graph_from_subspace,
    graph_of,
    indefinite_product,
    invariance_residual,
    j_adjoint,
    operator_norm,
    subspace_signature,
)
import kreinkit.spaces as spaces_module
from kreinkit.fixtures import random_ball_point, random_complex, random_j_dissipative, random_j_unitary
from kreinkit.mnps import CAYLEY_SHIFT, mnps
from kreinkit.spaces import PREDICATE_TOL, _norm_lower_bound, _unitarity_gap, dissipativity_form


def test_build_space_small_signatures():
    sp = build_space(1, 1)
    assert_allclose(sp.j, np.diag([-1.0, 1.0]))
    sp = build_space(0, 3)
    assert_allclose(sp.j, np.eye(3))
    sp = build_space(2, 3)
    eigs = np.linalg.eigvalsh(sp.j)
    assert np.sum(eigs < 0) == 2 and np.sum(eigs > 0) == 3


def test_build_space_rejects_zero_dimensions():
    with pytest.raises(ValueError):
        build_space(0, 0)
    with pytest.raises(ValueError):
        build_space(-1, 2)


def test_indefinite_product_signs():
    sp = build_space(1, 1)
    assert indefinite_product(sp, [1, 0], [1, 0]) == pytest.approx(-1)
    assert indefinite_product(sp, [0, 1], [0, 1]) == pytest.approx(1)
    assert indefinite_product(sp, [1, 1], [1, 1]) == pytest.approx(0)


def test_indefinite_product_dimension_mismatch():
    sp = build_space(1, 1)
    with pytest.raises(ValueError):
        indefinite_product(sp, [1, 0, 0], [1, 0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_indefinite_product_self_is_real(seed):
    rng = np.random.default_rng(seed)
    sp = build_space(int(rng.integers(0, 4)), int(rng.integers(1, 5)))
    x = random_complex(rng, sp.n)
    val = indefinite_product(sp, x, x)
    assert abs(val.imag) <= 1e-14 * np.linalg.norm(x) ** 2


def test_j_adjoint_fixed_points():
    sp = build_space(2, 3)
    assert_allclose(j_adjoint(sp, sp.j), sp.j)
    assert_allclose(j_adjoint(sp, np.eye(5)), np.eye(5))


def test_j_adjoint_pairing_identity():
    # [Ax, y] = [x, A^# y] over random vector pairs
    rng = np.random.default_rng(11)
    sp = build_space(2, 3)
    a = random_complex(rng, (5, 5))
    adj = j_adjoint(sp, a)
    for _ in range(100):
        x = random_complex(rng, 5)
        y = random_complex(rng, 5)
        lhs = indefinite_product(sp, a @ x, y)
        rhs = indefinite_product(sp, x, adj @ y)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_j_adjoint_is_involution(seed):
    rng = np.random.default_rng(seed)
    sp = build_space(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    a = random_complex(rng, (sp.n, sp.n))
    assert_allclose(j_adjoint(sp, j_adjoint(sp, a)), a, atol=0)


def form_margin(sp, a):
    """``lambda_min`` of A's dissipativity form, and the predicate tolerance ``PREDICATE_TOL * nu``."""
    a = np.asarray(a, dtype=complex)
    return float(np.min(np.linalg.eigvalsh(dissipativity_form(sp, a)))), PREDICATE_TOL * _norm_lower_bound(a)


def is_j_expanding(sp, a):
    """``lambda_min`` of the Hermitian part of ``A^H J A - J`` is ``>= -PREDICATE_TOL * nu``."""
    a = np.asarray(a, dtype=complex)
    gap = _unitarity_gap(sp, a)
    return float(np.min(np.linalg.eigvalsh((gap + gap.conj().T) / 2.0))) >= -PREDICATE_TOL * _norm_lower_bound(a)


def test_classify_j_itself():
    # J is J-selfadjoint and J-unitary; its form is 0, so J-dissipative but not strongly
    sp = build_space(1, 1)
    margin, tol = form_margin(sp, sp.j)
    assert operator_norm(sp.j - j_adjoint(sp, sp.j)) <= tol
    assert operator_norm(_unitarity_gap(sp, sp.j.astype(complex))) <= tol
    assert margin >= -tol and not margin > tol


def test_classify_i_times_j_strongly_dissipative():
    sp = build_space(1, 1)
    margin, tol = form_margin(sp, 1j * sp.j)
    assert margin > tol
    assert margin == pytest.approx(1.0)


def test_classify_tolerance_is_relative_like_mnps():
    # the predicate slack PREDICATE_TOL * nu has no max(1, ||A||) floor: a
    # tiny operator is judged at its own scale, exactly as mnps judges it
    from kreinkit import NotDissipativeError

    sp = build_space(1, 1)
    bad = -1e-10j * sp.j
    margin, tol = form_margin(sp, bad)
    assert not margin >= -tol
    with pytest.raises(NotDissipativeError):
        mnps(sp, bad)
    good = 1e-10j * sp.j
    margin, tol = form_margin(sp, good)
    assert margin > tol
    assert mnps(sp, good).certified


def is_j_unitary(sp, u):
    """``||U^H J U - J|| <= PREDICATE_TOL * nu``, the J-unitarity predicate, with a dense J."""
    u = np.asarray(u, dtype=complex)
    return operator_norm(u.conj().T @ sp.j @ u - sp.j) <= PREDICATE_TOL * _norm_lower_bound(u)


def _bound_input(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "random":
        return random_complex(rng, (n, n))
    if kind == "rank-1":
        return np.outer(random_complex(rng, n), random_complex(rng, n).conj())
    if kind == "rank-deficient":
        r = int(rng.integers(1, max(2, n)))  # r < n once n > 1
        return random_complex(rng, (n, r)) @ random_complex(rng, (r, n))
    if kind == "zero-padded":
        r, off = int(rng.integers(1, n + 1)), int(rng.integers(0, n))
        a = np.zeros((n, n), dtype=complex)
        idx = (off + np.arange(r)) % n
        a[np.ix_(idx, idx)] = random_complex(rng, (r, r))
        return a
    k = int(rng.integers(0, n + 1))
    return 1j * build_space(k, n - k).j


@given(
    st.sampled_from(["random", "rank-1", "rank-deficient", "zero-padded", "ij"]),
    st.integers(1, 40),
    st.floats(-12.0, 12.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_norm_lower_bound_is_certified_and_tight(kind, n, exponent, seed):
    # nu <= ||A|| makes every tolerance relative to it stricter than relative
    # to ||A||; nu > 0.8 ||A|| keeps the Cayley shift's cap 1.25 nu above ||A||
    a = 10.0**exponent * _bound_input(kind, n, np.random.default_rng(seed))
    nu = _norm_lower_bound(a)
    norm = operator_norm(a)
    assert nu <= norm * (1 + 1e-12)
    assert nu * CAYLEY_SHIFT > norm
    assert _norm_lower_bound(a.copy()) == nu  # seeded: deterministic for a given A


def test_classify_expanding():
    sp = build_space(1, 1)
    assert is_j_expanding(sp, sp.j)  # J-unitaries expand with equality
    sp_def = build_space(0, 2)
    assert is_j_expanding(sp_def, 2.0 * np.eye(2))
    assert not is_j_expanding(sp_def, 0.5 * np.eye(2))


def test_classify_mobius_matrix_is_j_unitary():
    from kreinkit import mobius_matrix

    rng = np.random.default_rng(5)
    sp = build_space(2, 3)
    m = mobius_matrix(sp, random_ball_point(sp, rng, 0.7))
    assert is_j_unitary(sp, m)


def test_block_operator_blocks_reassemble():
    rng = np.random.default_rng(1)
    sp = build_space(2, 3)
    a = random_complex(rng, (5, 5))
    a11, a12, a21, a22 = sp.blocks(a)
    assert a11.shape == (2, 2) and a12.shape == (2, 3)
    assert a21.shape == (3, 2) and a22.shape == (3, 3)
    assert_allclose(sp.assemble(a11, a12, a21, a22), a)


@pytest.mark.parametrize("n_minus, n_plus", [(2, 3), (5, 1), (0, 3), (3, 0)])
def test_assemble_matches_np_block_bit_for_bit(n_minus, n_plus):
    # real and complex blocks alike come back as one complex matrix
    rng = np.random.default_rng(n_minus + 7 * n_plus)
    sp = build_space(n_minus, n_plus)
    a11, a12, a21, a22 = sp.blocks(random_complex(rng, (sp.n, sp.n)))
    a12 = a12.real.copy()
    out = sp.assemble(a11, a12, a21, a22)
    ref = np.block([[np.asarray(a11, complex), np.asarray(a12, complex)],
                    [np.asarray(a21, complex), np.asarray(a22, complex)]])
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def test_graph_of_zero_spans_h_minus():
    sp = build_space(2, 3)
    z = graph_of(sp, np.zeros((3, 2)))
    assert_allclose(z.basis[:2], np.eye(2))
    assert_allclose(z.basis[2:], 0)


def test_graph_of_scalar_gram():
    sp = build_space(1, 1)
    z = graph_of(sp, [[0.5]])
    gram = z.basis.conj().T @ sp.j @ z.basis
    assert gram[0, 0] == pytest.approx(-0.75)


def test_graph_gram_identity():
    # Z^H J Z = W^H W - I for any contraction, singular iff ||W|| = 1
    rng = np.random.default_rng(4)
    sp = build_space(2, 4)
    for norm in (0.3, 0.8, 1.0):
        w = random_ball_point(sp, rng, norm)
        z = graph_of(sp, w)
        gram = z.basis.conj().T @ sp.j @ z.basis
        assert_allclose(gram, w.conj().T @ w - np.eye(2), atol=1e-14)
        assert np.max(np.linalg.eigvalsh(gram)) <= 1e-12
        singular = np.min(np.abs(np.linalg.eigvalsh(gram))) < 1e-12
        assert singular == (norm == 1.0)


def test_graph_from_subspace_round_trip():
    sp = build_space(1, 1)
    assert_allclose(graph_from_subspace(sp, np.array([[1.0], [0.0]])), [[0.0]])
    assert_allclose(graph_from_subspace(sp, np.array([[1.0], [0.5]])), [[0.5]])
    rng = np.random.default_rng(9)
    sp = build_space(3, 4)
    w = random_ball_point(sp, rng, 0.6)
    t = random_complex(rng, (3, 3))  # any change of basis of the graph
    z = graph_of(sp, w).basis @ t
    assert_allclose(graph_from_subspace(sp, z), w, atol=1e-10)


def test_graph_from_subspace_rejects_h_plus():
    sp = build_space(1, 1)
    with pytest.raises(NotAGraphError):
        graph_from_subspace(sp, np.array([[0.0], [1.0]]))


def test_blocks_and_graph_conversion_reject_the_wrong_size():
    sp = build_space(1, 2)
    with pytest.raises(ValueError, match=r"^expected a 3x3 matrix, got \(2, 2\)$"):
        sp.blocks(np.eye(2))
    with pytest.raises(ValueError, match="^graph conversion needs a subspace of dimension 1$"):
        graph_from_subspace(sp, np.eye(3)[:, :2])


def test_subspace_signature_labels():
    sp = build_space(2, 3)
    assert subspace_signature(sp, graph_of(sp, np.zeros((3, 2)))).is_negative
    sig = subspace_signature(build_space(1, 1), np.array([[1.0], [1.0]]))
    assert sig.n_null == 1
    h_plus = np.vstack([np.zeros((2, 3)), np.eye(3)])
    assert subspace_signature(sp, h_plus).n_pos == 3


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-9])
def test_subspace_signature_rejects_a_bad_tolerance(tol):
    # inf or nan would count every direction of a definite basis as null
    sp = build_space(1, 2)
    with pytest.raises(ValueError, match="tol must be a finite number above 0"):
        subspace_signature(sp, np.eye(3), tol=tol)
    assert subspace_signature(sp, np.eye(3), tol=1e-9) == subspace_signature(sp, np.eye(3))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_subspace_signature_basis_independent(seed):
    rng = np.random.default_rng(seed)
    sp = build_space(2, 3)
    z = random_complex(rng, (5, 3))
    t = random_complex(rng, (3, 3)) + 2 * np.eye(3)
    assert subspace_signature(sp, z) == subspace_signature(sp, z @ t)


def test_subspace_signature_reads_no_dense_j(monkeypatch):
    # the Gram matrix is (Z^H * signs) @ Z: O(n d^2), and the n x n J is never read
    rng = np.random.default_rng(21)
    sp = build_space(3, 40)
    z = random_complex(rng, (sp.n, 7))
    gram = z.conj().T @ np.diag(sp.j_signs) @ z
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    monkeypatch.setattr(IndefiniteSpace, "j", property(lambda self: pytest.fail("dense J read")))
    sig = subspace_signature(sp, z)
    assert (sig.n_pos, sig.n_neg, sig.n_null) == (np.sum(eigs > 0), np.sum(eigs < 0), 0)


def _two_pass_form(space, a):
    # (JA - (JA)^H) / 2i followed by the symmetrization (h + h^H) / 2
    h = space.j_signs[:, None] * np.asarray(a, dtype=complex)
    h = (h - h.conj().T) / 2j
    return (h + h.conj().T) / 2.0


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_dissipativity_form_needs_no_symmetrization(seed, n_minus, n_plus):
    rng = np.random.default_rng(seed)
    sp = build_space(n_minus, n_plus)
    a = random_j_dissipative(sp, rng, rank_deficient=bool(rng.integers(0, 2)))
    h = dissipativity_form(sp, a)
    # on J-dissipative input, bit for bit (signed zeros included)
    assert np.array_equal(h.view(np.uint64), _two_pass_form(sp, a).view(np.uint64))
    # on any input, equal in value: only the sign of a zero entry may differ
    b = random_complex(rng, (sp.n, sp.n))
    hb = dissipativity_form(sp, b)
    assert np.array_equal(hb, hb.conj().T)
    assert np.array_equal(hb, _two_pass_form(sp, b))


ORDERS = [1, 63, 64, 65, 127, 128, 129, 300]


def _order_space(n):
    return build_space(n // 3, n - n // 3)


@pytest.mark.parametrize("n", ORDERS)
def test_dissipativity_form_matches_the_dense_formula(n):
    # (J A - A^H J) / 2i with J as a dense matrix, across the row-block edges
    sp = _order_space(n)
    a = random_complex(np.random.default_rng(n), (n, n))
    j = sp.j
    assert np.array_equal(dissipativity_form(sp, a), (j @ a - a.conj().T @ j) / 2j)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_positive_definite_agrees_with_cholesky(n, where, monkeypatch):
    # H is positive definite but for coordinate p, which is decoupled and
    # carries lambda_min: a shift just short of -lambda_min fails at the
    # diagonal block holding p and at no earlier one
    rng = np.random.default_rng(n)
    g = random_complex(rng, (n, n))
    h = g @ g.conj().T / n + np.eye(n)
    p = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    h[p, :] = h[:, p] = 0.0
    h[p, p] = -1.0 - operator_norm(h)
    lam = float(np.min(np.linalg.eigvalsh(h)))
    cholesky, shapes = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda x: shapes.append(x.shape) or cholesky(x))
    block = spaces_module._BLOCK
    size = n if n <= 2 * block else block
    for sign in (1.0, -1.0):
        shift = -lam + sign * 1e-6 * operator_norm(h)
        try:
            cholesky(h + shift * np.eye(n))
            expected = True
        except np.linalg.LinAlgError:
            expected = False
        shapes.clear()
        assert spaces_module._positive_definite(h.copy(), shift) is expected is (sign > 0)
        assert len(shapes) == (-(-n // size) if expected else p // size + 1)


def test_positive_definite_makes_no_n_by_n_factor():
    # the factor overwrites h: beside it sit a few n x 64 blocks
    n = 1000
    g = random_complex(np.random.default_rng(5), (n, n))
    h = g @ g.conj().T / n
    tracemalloc.start()
    try:
        ok = spaces_module._positive_definite(h, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < h.nbytes / 4


def test_package_reads_no_dense_j(monkeypatch):
    # the unitarity gap and the fallback's A + itJ shift the diagonal by j_signs
    monkeypatch.setattr(IndefiniteSpace, "j", property(lambda self: pytest.fail("dense J read")))
    sp = build_space(2, 5)
    rng = np.random.default_rng(3)
    u = random_j_unitary(sp, rng)
    assert operator_norm(spaces_module._unitarity_gap(sp, u)) <= PREDICATE_TOL * _norm_lower_bound(u)
    a = np.diag(build_space(1, 1).j_signs) @ np.ones((2, 2))  # the Jordan-type fixture: the fallback only
    assert mnps(build_space(1, 1), a, tol_res=1e-8).certified


def test_invariance_residual_trivial_cases():
    sp = build_space(2, 3)
    assert invariance_residual(sp, sp.j, np.zeros((3, 2))) == 0.0
    rng = np.random.default_rng(2)
    w = random_ball_point(sp, rng, 0.9)
    assert invariance_residual(sp, np.eye(5), w) == 0.0


def test_invariance_residual_constructed_invariant_graph():
    # conjugate a block-diagonal matrix so that a prescribed graph is invariant
    rng = np.random.default_rng(3)
    sp = build_space(2, 3)
    w = random_ball_point(sp, rng, 0.5)
    z = graph_of(sp, w).basis
    comp = np.vstack([w.conj().T, np.eye(3)])  # the dual graph, a complement
    s = np.hstack([z, comp])
    blocks = np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    a = s @ blocks @ np.linalg.inv(s)
    assert invariance_residual(sp, a, w) <= 1e-10 * operator_norm(a)


def test_subspace_rejects_rank_deficient_basis():
    sp = build_space(1, 2)
    with pytest.raises(ValueError):
        Subspace(sp, np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
@pytest.mark.parametrize(
    "call,name,good",
    [
        (Subspace, "basis", np.eye(3)[:, :1]),
        (lambda sp, v: indefinite_product(sp, v, np.ones(3)), "x", np.ones(3)),
        (lambda sp, v: indefinite_product(sp, np.ones(3), v), "y", np.ones(3)),
        (j_adjoint, "operator", np.eye(3)),
        (graph_of, "graph operator", np.zeros((2, 1))),
        (graph_from_subspace, "basis", np.eye(3)[:, :1]),
        (subspace_signature, "basis", np.eye(3)[:, :1]),
        (lambda sp, v: invariance_residual(sp, v, np.zeros((2, 1))), "operator", np.eye(3)),
        (lambda sp, v: invariance_residual(sp, np.eye(3), v), "graph operator", np.zeros((2, 1))),
    ],
    ids=["Subspace", "product-x", "product-y", "j_adjoint", "graph_of", "graph_from_subspace", "subspace_signature", "residual-a", "residual-w"],
)
def test_entry_points_reject_bad_input_by_name(call, name, good, bad):
    # the one input gate: a wrong shape or a non-finite entry is named
    # after the argument it arrived in, before any linear algebra runs
    sp = build_space(1, 2)
    call(sp, good)
    if bad == "shape":
        v, message = good[1:], "must be "
    else:
        v, message = good.astype(complex), "has non-finite entries"
        v.flat[0] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        call(sp, v)


@pytest.mark.parametrize("e", [-1001, -2, 0, 1, 3, 1000])
def test_unit_product_scales_its_fresh_product_in_place(e):
    # x is copied only when its half of 2^-e is not 1, and the product's own result is scaled where it lies
    rng = np.random.default_rng(4)
    m, x = random_complex(rng, (6, 6)), random_complex(rng, (6, 2))
    seen, made = [], []

    def product(v):
        seen.append(v)
        made.append(m @ v)
        return made[-1]

    out = spaces_module._unit_product(product, x, e)
    assert (seen[0] is x) == (e // 2 == 0)
    assert np.shares_memory(out, made[0])
    half = np.ldexp(x.view(float), -(e // 2)).view(complex)
    assert np.array_equal(out, np.ldexp((m @ half).view(float), e // 2 - e).view(complex))
