import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

from kreinkit import (
    NotDissipativeError,
    SpectrumOnAxisError,
    approximation_ladder,
    build_space,
    fractional_linear,
    graph_from_subspace,
    graph_of,
    invariance_residual,
    mnps,
    mobius_matrix,
    operator_norm,
    spectral_split,
    subspace_signature,
    verify_mnps,
)
from kreinkit.fixtures import (
    _known_answer,
    corner_decay_fixture,
    random_ball_point,
    random_complex,
    random_j_dissipative,
    random_strongly_j_dissipative,
)
from kreinkit.spaces import PREDICATE_TOL, _first_failed, _norm_lower_bound, dissipativity_form

# ``kreinkit.mnps`` is the solver function; the module is reached by its import path
MNPS_MODULE = importlib.import_module("kreinkit.mnps")


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts the levels of the eigenvector fallback the solver runs."""
    calls = []
    eig_graph = MNPS_MODULE._eig_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return eig_graph(*args, **kwargs)

    monkeypatch.setattr(MNPS_MODULE, "_eig_graph", counting)
    return calls


def form_margin(sp, a):
    """The smallest eigenvalue of A's dissipativity form, and the predicate tolerance ``PREDICATE_TOL * nu``."""
    a = np.asarray(a, dtype=complex)
    return float(np.min(np.linalg.eigvalsh(dissipativity_form(sp, a)))), PREDICATE_TOL * _norm_lower_bound(a)


def principal_angle(z1, z2):
    # sin-based: accurate for small angles, unlike arccos of a singular value
    q1 = np.linalg.qr(z1)[0]
    q2 = np.linalg.qr(z2)[0]
    return operator_norm(q2 - q1 @ (q1.conj().T @ q2))


class TestSpectralSplit:
    def test_diagonal(self):
        sp = build_space(1, 1)
        zm, zp = spectral_split(sp, np.diag([-1j, 1j]))
        assert_allclose(np.abs(zm.basis), [[1.0], [0.0]])
        assert_allclose(np.abs(zp.basis), [[0.0], [1.0]])

    def test_ij_splits_along_signature(self):
        sp = build_space(1, 1)
        zm, _ = spectral_split(sp, 1j * sp.j)
        assert_allclose(np.abs(zm.basis), [[1.0], [0.0]])

    def test_conjugated_diagonal_recovered(self):
        rng = np.random.default_rng(2)
        n = 6
        sp = build_space(2, 4)
        eigs = rng.standard_normal(n) + 1j * np.r_[-rng.uniform(0.5, 1, 2), rng.uniform(0.5, 1, 4)]
        s = random_complex(rng, (n, n)) + 2 * np.eye(n)
        a = s @ np.diag(eigs) @ np.linalg.inv(s)
        zm, zp = spectral_split(sp, a)
        assert principal_angle(zm.basis, s[:, :2]) <= 1e-8
        assert principal_angle(zp.basis, s[:, 2:]) <= 1e-8

    def test_invariance_of_split(self):
        rng = np.random.default_rng(3)
        sp = build_space(2, 3)
        a = random_strongly_j_dissipative(sp, rng, margin=0.3)
        zm, zp = spectral_split(sp, a)
        assert zm.dim + zp.dim == sp.n
        for z in (zm.basis, zp.basis):
            proj = z @ z.conj().T
            resid = operator_norm(a @ z - proj @ (a @ z))
            assert resid <= 1e-9 * operator_norm(a)

    def test_real_spectrum_rejected(self):
        # the message names the test that failed; no function takes a
        # regularization setting, so it does not suggest one
        sp = build_space(1, 1)
        axis = r"within AXIS_RTOL \* nu = .* of the real axis"
        with pytest.raises(SpectrumOnAxisError, match=axis) as exc:
            spectral_split(sp, sp.j)
        assert "regularization" not in str(exc.value)

    def test_defective_eigenvalue_is_rejected(self):
        # a Jordan block at -i: eig returns its one eigenvector twice, which
        # spans one of the two dimensions of the lower subspace
        sp = build_space(2, 1)
        a = np.array([[-1j, 1, 0], [0, -1j, 0], [0, 0, 1j]])
        with pytest.raises(SpectrumOnAxisError, match="dependent: a defective eigenvalue"):
            spectral_split(sp, a)

    def test_definiteness_of_spectral_subspaces(self):
        # for strongly dissipative operators the split subspaces are definite
        rng = np.random.default_rng(4)
        for seed in range(10):
            sp = build_space(2, 4)
            a = random_strongly_j_dissipative(sp, rng, margin=0.05)
            zm, zp = spectral_split(sp, a)
            assert subspace_signature(sp, zm).is_negative
            assert subspace_signature(sp, zp).is_positive


class TestMnpsStrong:
    """Strongly J-dissipative input certifies at the first step, t = 0."""

    def test_ij_gives_zero(self, eig_calls):
        # the Ritz shift of A = iJ is ||A||, where A + i mu is singular; the
        # retry at 1.25||A|| is not
        sp = build_space(2, 3)
        rep = mnps(sp, 1j * sp.j)
        assert not eig_calls
        assert_allclose(rep.w, 0, atol=1e-14)
        assert rep.certified
        assert rep.regularization_t == 0.0 and rep.iterations == 1

    def test_hand_solved_two_by_two(self):
        # A = [[-i, 0], [1, i]]: the eigenvector for -i is (1, i/2),
        # cross-checked against a brute-force eigensolver below
        sp = build_space(1, 1)
        a = np.array([[-1j, 0.0], [1.0, 1j]])
        rep = mnps(sp, a)
        assert rep.regularization_t == 0.0 and rep.iterations == 1
        assert_allclose(rep.w, [[0.5j]], atol=1e-12)
        assert rep.w_norm == pytest.approx(0.5, abs=1e-12)

        eigvals, eigvecs = np.linalg.eig(a)
        idx = int(np.argmin(eigvals.imag))
        vec = eigvecs[:, idx]
        assert_allclose(vec[1] / vec[0], rep.w[0, 0], atol=1e-12)

    def test_random_strong_certificates(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sp = build_space(int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            a = random_strongly_j_dissipative(sp, rng, margin=rng.uniform(0.05, 0.5))
            rep = mnps(sp, a)
            assert rep.certified
            assert rep.regularization_t == 0.0 and rep.iterations == 1
            assert rep.w_norm <= 1 + 1e-8
            assert rep.residual <= 1e-8 * max(1.0, operator_norm(a))
            assert rep.subspace_inertia.is_negative

    def test_cayley_fixed_point_replaces_schur(self, eig_calls):
        rng = np.random.default_rng(15)
        sp = build_space(5, 100)
        a = random_strongly_j_dissipative(sp, rng)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified
        assert rep.regularization_t == 0.0 and rep.iterations == 1
        lower, _ = spectral_split(sp, a)
        assert_allclose(rep.w, graph_from_subspace(sp, lower), atol=1e-9)

    def test_cayley_solve_takes_no_svd_of_a(self, monkeypatch, eig_calls):
        # the scale is a seeded lower bound on ||A||: no n x n SVD or spectral
        # norm runs anywhere in a certified Cayley solve
        rng = np.random.default_rng(16)
        sp = build_space(5, 200)
        a = random_strongly_j_dissipative(sp, rng)
        svd, norm, bound = np.linalg.svd, np.linalg.norm, MNPS_MODULE.operator_norm
        shapes = []

        def recording_svd(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return svd(x, *args, **kwargs)

        def recording_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        def recording_bound(x):
            shapes.append(np.shape(x))
            return bound(x)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "norm", recording_norm)
        monkeypatch.setattr(MNPS_MODULE, "operator_norm", recording_bound)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified
        assert rep.regularization_t == 0.0 and rep.iterations == 1
        assert shapes  # the certificate's norms went through the recorders
        assert (sp.n, sp.n) not in shapes

    def test_cayley_certificate_reads_one_svd_of_w(self, monkeypatch, eig_calls):
        # ||W|| and the graph inertia come from one singular-value call on W;
        # the Ritz shift takes no SVD and no Hermitian eigensolve
        rng = np.random.default_rng(17)
        sp = build_space(4, 60)
        a = random_strongly_j_dissipative(sp, rng)
        svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh
        svd_shapes, eigvalsh_shapes = [], []

        def recording_svd(x, *args, **kwargs):
            svd_shapes.append(np.shape(x))
            return svd(x, *args, **kwargs)

        def recording_eigvalsh(x, *args, **kwargs):
            eigvalsh_shapes.append(np.shape(x))
            return eigvalsh(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified and rep.regularization_t == 0.0
        assert svd_shapes == [(sp.n_plus, sp.n_minus)]
        assert not eigvalsh_shapes

    def test_cayley_step_count(self, monkeypatch, eig_calls):
        # the Ritz shift (0.41 nu here) with the stop on the tail bound
        # takes 15 steps; a shift of 0.77 nu from bounds on the rows of A
        # took 30, the fixed mu = 1.25 nu 50, and mu = 2 nu with a stop one
        # step past roundoff 88
        rng = np.random.default_rng(19)
        sp = build_space(5, 195)
        a = random_strongly_j_dissipative(sp, rng)
        inv = np.linalg.inv
        steps = []

        def counting(x):
            # the pivot blocks of A22 + i mu are 128 x 128 and 67 x 67, so only
            # the Schur complement S (once) and Y- have this shape
            if np.shape(x) == (sp.n_minus, sp.n_minus):  # one Y-^{-1} per step
                steps.append(1)
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", counting)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified
        assert 0 < len(steps) <= 40

    @pytest.mark.parametrize("delta, fixed_shift_steps", [(0.1, 126), (0.05, 166), (0.02, 205)])
    def test_near_axis_shift_takes_no_more_steps(self, monkeypatch, eig_calls, delta,
                                                 fixed_shift_steps):
        # -lambda_min(Im A) is about 2 delta here: a shift that low would run
        # past the 300-step cap and fall back to the eigenvectors at delta <=
        # 0.05; the lower eigenvalues near +-0.9 - i delta put the Ritz shift
        # near 0.91, and the steps at or below the fixed shift mu = 1.25 nu's
        # (fixed_shift_steps)
        sp = build_space(3, 60)
        a = _near_axis_draw(sp, np.random.default_rng(0), delta)
        solve = MNPS_MODULE._lu_solve
        steps = []

        def counting(lu, z):
            steps.append(1)
            return solve(lu, z)

        monkeypatch.setattr(MNPS_MODULE, "_lu_solve", counting)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified
        assert 0 < len(steps) <= fixed_shift_steps

    @pytest.mark.parametrize("s", [0.3, 1e-3, 1e-4])
    @pytest.mark.parametrize("seed", range(3))
    def test_small_h_minus_block_stays_on_the_cayley_path(self, monkeypatch, eig_calls, s,
                                                          seed):
        # D A D with D = diag(s I_3, I) shrinks the H- block far below the
        # rest; a shift aimed at the lower eigenvalues keeps the step count
        # low, where a shift set by the rows of A ran the 300-step cap
        sp = build_space(3, 60)
        d = np.r_[np.full(sp.n_minus, s), np.ones(sp.n_plus)]
        a = d[:, None] * random_strongly_j_dissipative(sp, np.random.default_rng(seed)) * d
        solve = MNPS_MODULE._lu_solve
        steps = []

        def counting(lu, z):
            steps.append(1)
            return solve(lu, z)

        monkeypatch.setattr(MNPS_MODULE, "_lu_solve", counting)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified and rep.regularization_t == 0.0
        assert 0 < len(steps) <= 50

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 60))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cayley_graph_does_not_depend_on_shift(self, eig_calls, seed, n_minus, n_plus):
        # |c(lambda)| = |lambda - i mu| / |lambda + i mu| > 1 exactly when
        # Im lambda < 0, for every mu > 0: the shift moves only the speed.
        # The Ritz shift is compared with fixed multiples of nu
        rng = np.random.default_rng(seed)
        sp = build_space(n_minus, n_plus)
        a = random_strongly_j_dissipative(sp, rng, margin=rng.uniform(0.05, 0.5))
        graphs = []
        for shift in (None, 1.25, 2.0, 4.0):
            with pytest.MonkeyPatch.context() as mp:
                if shift is not None:
                    mp.setattr(MNPS_MODULE, "_cayley_shift", lambda space, m, scale: shift * scale)
                rep = mnps(sp, a)
            assert rep.certified and rep.regularization_t == 0.0
            graphs.append(rep.w)
        assert not eig_calls
        for w in graphs[1:]:
            assert operator_norm(w - graphs[0]) <= 1e-12

    def test_singular_shift_falls_back(self, monkeypatch, eig_calls):
        # mu = nu = ||A|| makes A + i mu exactly singular for A = iJ: the
        # Cayley solve gives up and the eigenvector fallback certifies
        sp = build_space(1, 1)
        monkeypatch.setattr(MNPS_MODULE, "CAYLEY_SHIFT", 1.0)
        rep = mnps(sp, 1j * sp.j)
        assert eig_calls
        assert rep.certified
        assert_allclose(rep.w, 0, atol=1e-14)

    def test_cayley_solve_inverts_no_n_by_n_array(self, monkeypatch, eig_calls):
        # np.linalg.inv sees the diagonal blocks of the dissipativity test's
        # Cholesky factor (not the last), then the pivot blocks of the H+
        # block's LU, the Schur complement S and Y-
        rng = np.random.default_rng(21)
        sp = build_space(5, 295)
        a = random_strongly_j_dissipative(sp, rng)
        inv = np.linalg.inv
        shapes = []

        def recording(x):
            shapes.append(np.shape(x))
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", recording)
        rep = mnps(sp, a)
        assert not eig_calls
        assert rep.certified
        k = sp.n_minus
        assert shapes[:7] == [(64, 64)] * 4 + [(128, 128), (128, 128), (39, 39)]
        assert set(shapes[7:]) == {(k, k)}

    def test_cayley_graph_holds_one_n_by_n_array(self):
        # the LU overwrites the copy A22 + i mu; no inverse sits beside it
        rng = np.random.default_rng(20)
        sp = build_space(5, 295)
        a = random_strongly_j_dissipative(sp, rng)
        scale = _norm_lower_bound(a)
        tracemalloc.start()
        try:
            w = MNPS_MODULE._cayley_graph(sp, a, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w is not None
        assert peak < 1.75 * a.nbytes

    def test_solve_holds_one_n_by_n_array(self):
        # the dissipativity form is factored in place and freed before the LU
        # copy of A22 + i mu is made, so at most one n x n array sits beside A
        rng = np.random.default_rng(20)
        sp = build_space(5, 295)
        a = random_strongly_j_dissipative(sp, rng)
        tracemalloc.start()
        try:
            rep = mnps(sp, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.certified
        assert peak < 1.5 * a.nbytes

    def test_solve_gates_the_operator_once(self, monkeypatch):
        # the certificate's residual takes the already-checked operator
        spaces_module = importlib.import_module("kreinkit.spaces")
        checked, names = spaces_module._checked, []

        def spy(a, shape, name):
            names.append(name)
            return checked(a, shape, name)

        monkeypatch.setattr(spaces_module, "_checked", spy)
        monkeypatch.setattr(MNPS_MODULE, "_checked", spy)
        sp = build_space(5, 95)
        rep = mnps(sp, random_strongly_j_dissipative(sp, np.random.default_rng(21)))
        assert rep.certified
        assert names == ["operator"]

    def test_certificate_holds_no_n_plus_square_array(self):
        # W (A12 W) keeps every temporary n_plus x n_minus; (W A12) W was n_plus x n_plus
        sp = build_space(5, 400)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(22))
        w = mnps(sp, a).w
        tracemalloc.start()
        try:
            res, _, _, clauses = MNPS_MODULE._certificate(sp, a, w, 1e-9, _norm_lower_bound(a))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _first_failed(clauses) == ""
        assert res == invariance_residual(sp, a, w)
        assert peak < a.nbytes / 16


class TestBlockLu:
    block = MNPS_MODULE._LU_BLOCK

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, block - 1, block, block + 1, 2 * block + 3]),
        st.integers(1, 20),
        st.floats(1e-3, 1e3),
        st.floats(0.0, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_solve_of_accretive_shift(self, seed, n, k, mu, ratio):
        # i mu I + A with ||A|| < mu has positive definite Hermitian part
        # after division by i mu, so no pivoting between blocks is needed
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (n, n))
        a *= ratio * mu / operator_norm(a)
        m = a + 1j * mu * np.eye(n)
        z = random_complex(rng, (n, k))
        x = MNPS_MODULE._lu_solve(MNPS_MODULE._block_lu(m.copy()), z)
        eps = np.finfo(float).eps
        assert np.linalg.norm(m @ x - z) <= 100 * n * eps * operator_norm(m) * np.linalg.norm(x)
        ref = np.linalg.solve(m, z)
        cond = (mu + ratio * mu) / (mu - ratio * mu)
        assert np.linalg.norm(x - ref) <= 100 * n * eps * cond * np.linalg.norm(ref)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, block - 1, block, block + 1, 2 * block + 3]),
        st.integers(0, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_singular_pivot_block_raises(self, seed, n, pivot):
        # m is lower triangular, so each pivot is its own diagonal block; a
        # zero row makes that one exactly singular
        rng = np.random.default_rng(seed)
        m = 1j * np.eye(n) + 0.1 * np.tril(random_complex(rng, (n, n)))
        starts = range(0, n, self.block)
        j0 = starts[min(pivot, len(starts) - 1)]
        m[j0, j0 : j0 + self.block] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            MNPS_MODULE._block_lu(m)


class TestMnps:
    def test_strongly_dissipative_certifies_at_t_zero(self):
        rng = np.random.default_rng(6)
        sp = build_space(2, 3)
        a = random_strongly_j_dissipative(sp, rng, margin=0.3)
        rep = mnps(sp, a)
        assert rep.certified
        assert rep.regularization_t == 0.0

    def test_j_itself_certifies_with_zero_graph(self):
        sp = build_space(2, 3)
        rep = mnps(sp, sp.j)
        assert rep.certified
        assert_allclose(rep.w, 0, atol=1e-12)

    def test_jordan_type_neutral_fixture(self, eig_calls):
        # nilpotent J-selfadjoint with a neutral eigenvector; the unique MNPS
        # graph sits on the boundary, reached only as the regularization shrinks
        sp = build_space(1, 1)
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        a = sp.j @ h
        assert operator_norm(a - sp.j @ a.conj().T @ sp.j) <= PREDICATE_TOL * _norm_lower_bound(a)  # J-selfadjoint
        rep = mnps(sp, a, tol_res=1e-8)
        assert eig_calls  # the Cayley iteration stalls on the boundary
        assert rep.certified
        assert rep.iterations > 3
        assert_allclose(rep.w, [[-1.0]], atol=1e-3)
        assert rep.residual <= 1e-8 * max(1.0, operator_norm(a))

    def test_jordan_type_fixture_keeps_its_answer_at_every_power_of_two(self):
        # the solve runs on 2^-e A with e from nu, so the parity of the exponent
        # no longer picks between a t = 0 answer and the end of the schedule
        sp = build_space(1, 1)
        a = sp.j @ np.array([[1.0, 1.0], [1.0, 1.0]])
        rep = mnps(sp, a, tol_res=1e-8)
        for k in range(-6, 7):
            scaled = mnps(sp, 2.0**k * a, tol_res=1e-8)
            assert np.array_equal(scaled.w, rep.w)
            assert (scaled.iterations, scaled.regularization_t) == (rep.iterations, 2.0**k * rep.regularization_t)

    def test_unreachable_tolerance_returns_uncertified_report(self, eig_calls):
        # the Cayley graph stalls on the boundary and no level of the fixed
        # schedule reaches a residual of 1e-30 nu: every level is tried
        sp = build_space(1, 1)
        a = sp.j @ np.array([[1.0, 1.0], [1.0, 1.0]])
        rep = mnps(sp, a, tol_res=1e-30)
        assert not rep.certified
        assert rep.message.startswith("failed to certify")
        levels = 1 + MNPS_MODULE.LADDER_LEVELS  # t = 0, then the shrinking t
        assert rep.iterations == levels == len(eig_calls)

    def test_fallback_level_whose_eig_fails_is_skipped(self, monkeypatch):
        # np.linalg.eig raises LinAlgError when it does not converge: the level
        # is skipped like one whose eigenvectors do not fit the rule
        sp = build_space(1, 1)
        a = sp.j @ np.array([[1.0, 1.0], [1.0, 1.0]])

        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        rep = mnps(sp, a)
        assert not rep.certified and rep.iterations == 1 + MNPS_MODULE.LADDER_LEVELS

    def test_random_dissipative_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            sp = build_space(int(rng.integers(1, 4)), int(rng.integers(1, 8)))
            a = random_j_dissipative(sp, rng, rank_deficient=bool(rng.integers(0, 2)))
            rep = mnps(sp, a)
            assert rep.certified
            assert rep.w_norm <= 1 + 1e-8
            z = graph_of(sp, rep.w)
            gram = z.basis.conj().T @ sp.j @ z.basis
            assert np.max(np.linalg.eigvalsh(gram)) <= 1e-9

    def test_scale_covariance(self):
        # a certified graph for A also certifies c*A
        rng = np.random.default_rng(8)
        sp = build_space(2, 3)
        a = random_strongly_j_dissipative(sp, rng, margin=0.2)
        rep = mnps(sp, a)
        for c in (0.5, 3.0, 17.0):
            assert invariance_residual(sp, c * a, rep.w) <= c * 1e-8 * operator_norm(a)

    def test_rejects_non_dissipative(self):
        sp = build_space(1, 1)
        with pytest.raises(NotDissipativeError):
            mnps(sp, -1j * sp.j)

    def test_failed_cholesky_test_rejects_at_once(self, monkeypatch):
        # the seed-7 strongly dissipative (5,395) draw minus 0.5i J has form margin about -0.4:
        # one form, one failed Cholesky test and no spectrum decide it; the message names the shift
        sp = build_space(5, 395)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(7)) - 0.5j * sp.j
        forms, spectra = [], []
        form, eigvalsh = MNPS_MODULE.dissipativity_form, np.linalg.eigvalsh
        monkeypatch.setattr(MNPS_MODULE, "dissipativity_form", lambda *args: forms.append(1) or form(*args))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kw: spectra.append(1) or eigvalsh(*args, **kw))
        with pytest.raises(NotDissipativeError) as info:
            mnps(sp, a)
        assert len(forms) == 1 and not spectra
        assert f"{PREDICATE_TOL * _norm_lower_bound(a):.3e} I" in str(info.value)

    def test_the_cholesky_test_alone_decides(self, monkeypatch):
        # a failed test rejects even a J-dissipative input: no second test overrules it
        sp = build_space(2, 10)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(3))
        assert mnps(sp, a).certified
        monkeypatch.setattr(MNPS_MODULE, "_positive_definite", lambda h, shift: False)
        with pytest.raises(NotDissipativeError, match="has no Cholesky factor$"):
            mnps(sp, a)

    def test_classify_agrees_with_dissipativity_test(self):
        # A + icJ raises the form margin by exactly c: place it within a few
        # percent of the threshold -PREDICATE_TOL * nu on either side; both
        # judge it against the same nu <= ||A||
        rng = np.random.default_rng(18)
        outcomes = set()
        for _ in range(24):
            sp = build_space(int(rng.integers(1, 6)), int(rng.integers(40, 100)))
            a = random_j_dissipative(sp, rng)
            margin = float(np.min(np.linalg.eigvalsh(dissipativity_form(sp, a))))
            ratio = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, -1.5)
            a = a + 1j * (-ratio * PREDICATE_TOL * _norm_lower_bound(a) - margin) * sp.j
            try:
                mnps(sp, a)
            except NotDissipativeError:
                accepted = False
            else:
                accepted = True
            margin, tol = form_margin(sp, a)
            assert (margin >= -tol) == accepted == (ratio < 1.0)
            outcomes.add(accepted)
        assert outcomes == {True, False}

    def test_definite_space_is_trivial(self):
        sp = build_space(0, 3)
        rep = mnps(sp, 1j * np.eye(3))
        assert rep.certified and rep.w.shape == (3, 0)

    def test_zero_operator_is_certified_with_zero_graph(self):
        sp = build_space(2, 3)
        rep = mnps(sp, np.zeros((5, 5)))
        assert rep.certified and rep.residual == 0.0
        assert_allclose(rep.w, 0, atol=0)

    @given(st.floats(-12.0, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_graph_is_scale_invariant(self, exponent):
        # tolerances are relative to ||A||: c*A has the graph of A at every scale
        rng = np.random.default_rng(8)
        sp = build_space(2, 4)
        a = random_strongly_j_dissipative(sp, rng, margin=0.2)
        rep = mnps(sp, 10.0**exponent * a)
        assert rep.certified
        assert operator_norm(rep.w - mnps(sp, a).w) <= 1e-10

    @pytest.mark.parametrize("e", [-1000, 510, 600, 1000])
    def test_every_entry_point_certifies_at_extreme_binades(self, e):
        # from 2^510 on, A^H (A Q) in the norm bound overflowed and the solve raised LinAlgError
        sp = build_space(2, 10)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(3))
        scaled = np.ldexp(a.view(float), e).view(complex)
        w = mnps(sp, a).w
        rep = mnps(sp, scaled)
        assert rep.certified and rep.iterations == 1  # the Cayley path
        assert operator_norm(rep.w - w) <= 1e-12
        check = verify_mnps(sp, scaled, rep.w)
        assert check.invariant and check.maximal_nonpositive
        ladder = approximation_ladder(sp, scaled, [(1, 5), (2, 10)])
        assert ladder.all_certified
        assert operator_norm(ladder.final_w - w) <= 1e-12

    def test_top_of_the_float_range(self):
        # each product with A takes half of 2^-e before it and half after, so A Q
        # stays finite: the draw certifies up to 2^1021 (max entry 2^1022.07) with
        # the bits of its unscaled answer, and a norm bound beyond the range is rejected
        sp = build_space(2, 10)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(3))
        w = mnps(sp, a).w
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for e in (1020, 1021):
                rep = mnps(sp, np.ldexp(a.view(float), e).view(complex))
                assert rep.certified and np.array_equal(rep.w, w)
            with pytest.raises(ValueError, match=r"^operator scale inf is above the normal range"):
                mnps(sp, np.ldexp(a.view(float), 1022).view(complex))

    def test_subnormal_operator_is_rejected_by_its_scale(self):
        sp = build_space(2, 10)
        a = np.ldexp(random_strongly_j_dissipative(sp, np.random.default_rng(3)).view(float), -1070).view(complex)
        for solve in (lambda: mnps(sp, a), lambda: verify_mnps(sp, a, np.zeros((10, 2))),
                      lambda: approximation_ladder(sp, a, [(2, 10)])):
            with pytest.raises(ValueError, match=r"^operator scale \S+ is below the normal range"):
                solve()


class TestLadder:
    def test_single_level_equals_full_solve(self):
        rng = np.random.default_rng(9)
        sp = build_space(2, 4)
        a = random_strongly_j_dissipative(sp, rng, margin=0.2)
        ladder = approximation_ladder(sp, a, [(2, 4)])
        full = mnps(sp, a)
        assert_allclose(ladder.final_w, full.w, atol=1e-12)

    def test_block_diagonal_stabilizes_exactly(self):
        # block-diagonal within each signature part: compression is exact once
        # the leading block is covered
        rng = np.random.default_rng(10)
        small = build_space(1, 2)
        a_small = random_strongly_j_dissipative(small, rng, margin=0.3)
        sp = build_space(2, 4)
        a = np.zeros((6, 6), dtype=complex)
        idx = np.r_[np.arange(1), 2 + np.arange(2)]
        a[np.ix_(idx, idx)] = a_small
        a[1, 1] = -1j  # H- coordinate: dissipativity needs Im(lambda) <= 0 there
        a[np.ix_([4, 5], [4, 5])] = 1j * np.eye(2)
        margin, tol = form_margin(sp, a)
        assert margin > tol  # strongly J-dissipative
        ladder = approximation_ladder(sp, a, [(1, 2), (2, 3), (2, 4)])
        assert ladder.levels[1].delta_to_previous is not None
        assert ladder.levels[2].delta_to_previous == pytest.approx(0.0, abs=1e-10)

    def test_decay_fixture_deltas_shrink(self):
        rng = np.random.default_rng(11)
        sp = build_space(4, 196)
        a = corner_decay_fixture(sp, rng, decay=0.93, margin=1.0)
        levels = [(4, 60), (4, 100), (4, 140), (4, 170), (4, 186), (4, 196)]
        ladder = approximation_ladder(sp, a, levels)
        assert ladder.all_certified
        deltas = [lv.delta_to_previous for lv in ladder.levels[1:]]
        assert deltas[-1] <= deltas[-2] <= deltas[-3]
        assert verify_mnps(sp, a, ladder.final_w).invariant

    def test_level_validation(self):
        sp = build_space(2, 3)
        a = 1j * sp.j
        with pytest.raises(ValueError):
            approximation_ladder(sp, a, [(1, 2), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            approximation_ladder(sp, a, [(1, 2)])
        with pytest.raises(ValueError):
            approximation_ladder(sp, a, [(2, 4), (2, 3)])
        with pytest.raises(ValueError, match="^at least one ladder level is required$"):
            approximation_ladder(sp, a, [])
        for level in ((3, 3), (2, 4), (-1, 3), (0, 0)):
            with pytest.raises(ValueError, match=r"^level \(.*\) is out of range for the space$"):
                approximation_ladder(sp, a, [level])
        # levels are integers: neither truncated nor read from booleans
        sp = build_space(1, 2)
        for levels in ([(0.9, 1.5), (1.2, 2.7)], [(True, 2)], [(1, 2.0)]):
            with pytest.raises(ValueError, match="pairs of integers"):
                approximation_ladder(sp, 1j * sp.j, levels)
        assert approximation_ladder(sp, 1j * sp.j, [(np.int64(1), 2)]).all_certified

    def test_levels_that_are_not_pairs_raise(self):
        sp = build_space(1, 2)
        for levels in ([5], [(1, 2, 3)], [(1,)]):
            with pytest.raises(ValueError, match="ladder levels must be pairs of integers"):
                approximation_ladder(sp, 1j * sp.j, levels)

    def test_levels_match_their_truncated_solves(self):
        # each level is the plain mnps solve of its truncation, bit for bit,
        # and the ladder's tol_res reaches every level
        rng = np.random.default_rng(12)
        sp = build_space(2, 20)
        a = corner_decay_fixture(sp, rng, decay=0.8)
        levels = [(1, 5), (2, 10), (2, 20)]
        for tol_res in (MNPS_MODULE.DEFAULT_TOL_RES, 1e-30):
            ladder = approximation_ladder(sp, a, levels, tol_res=tol_res)
            for (km, kp), lv in zip(levels, ladder.levels):
                idx = np.r_[np.arange(km), sp.n_minus + np.arange(kp)]
                rep = mnps(build_space(km, kp), a[np.ix_(idx, idx)], tol_res=tol_res)
                assert_allclose(lv.w_embedded[:kp, :km], rep.w, rtol=0, atol=0)
                assert lv.residual == rep.residual
                assert lv.certified == rep.certified
                assert lv.certified == (tol_res == MNPS_MODULE.DEFAULT_TOL_RES)

    def test_last_level_solves_the_input_itself(self, monkeypatch):
        # the full signature is solved on A, not on an np.ix_ copy of it
        sp = build_space(2, 20)
        a = corner_decay_fixture(sp, np.random.default_rng(12), decay=0.8)
        solve, inputs = MNPS_MODULE.mnps, []
        monkeypatch.setattr(MNPS_MODULE, "mnps",
                            lambda space, m, **kwargs: inputs.append(m) or solve(space, m, **kwargs))
        approximation_ladder(sp, a, [(1, 5), (2, 20)])
        assert len(inputs) == 2 and inputs[0] is not a and inputs[-1] is a


class TestVerify:
    def test_trivial_and_solver_outputs(self):
        sp = build_space(2, 3)
        rep = verify_mnps(sp, sp.j, np.zeros((3, 2)))
        assert rep.maximal_nonpositive and rep.invariant

        rng = np.random.default_rng(13)
        a = random_strongly_j_dissipative(sp, rng, margin=0.2)
        sol = mnps(sp, a)
        rep = verify_mnps(sp, a, sol.w)
        assert rep.maximal_nonpositive and rep.invariant

    def test_large_w_fails_maximality(self):
        sp = build_space(1, 1)
        rep = verify_mnps(sp, 1j * sp.j, [[2.0]])
        assert not rep.maximal_nonpositive

    def test_verifier_and_solver_share_one_judgement(self):
        rng = np.random.default_rng(21)
        sp = build_space(3, 12)
        a = random_strongly_j_dissipative(sp, rng)
        sol = mnps(sp, a)
        rep = verify_mnps(sp, a, sol.w, tol=MNPS_MODULE.DEFAULT_TOL_RES)
        assert sol.certified and rep.invariant and rep.maximal_nonpositive
        assert (rep.residual, rep.inertia) == (sol.residual, sol.subspace_inertia)
        # just outside the slack on ||W||: both reject
        far = sol.w * ((1.0 + 2 * MNPS_MODULE.W_NORM_SLACK) / sol.w_norm)
        assert not verify_mnps(sp, a, far).maximal_nonpositive
        assert not MNPS_MODULE._report_for(sp, a, far, 0.0, 1, 1.0, 1.0).certified

    def test_tolerance_is_relative_for_small_operators(self):
        rng = np.random.default_rng(8)
        sp = build_space(2, 4)
        a = random_strongly_j_dissipative(sp, rng, margin=0.2)
        assert not verify_mnps(sp, 1e-10 * a, np.zeros((4, 2))).invariant
        assert verify_mnps(sp, 1e-10 * a, mnps(sp, a).w).invariant


@pytest.mark.parametrize(
    "solve",
    [
        spectral_split,
        mnps,
        lambda sp, a: approximation_ladder(sp, a, [(1, 2)]),
        lambda sp, a: verify_mnps(sp, a, np.zeros((2, 1))),
    ],
    ids=["spectral_split", "mnps", "approximation_ladder", "verify_mnps"],
)
@pytest.mark.parametrize(
    "a,message",
    [
        (np.diag([-1j, 1 + 1j, 2 + 1j, 3 + 1j]), "must be 3x3, got "),
        (np.ones((3, 2)), "must be 3x3, got "),
        (np.diag([-1j, 1j]), "must be 3x3, got "),
        (1j, "must be 3x3, got "),
        (np.diag([-1j, np.nan, 1j]), "has non-finite entries"),
        (np.diag([-1j, np.inf, 1j]), "has non-finite entries"),
        (np.diag([-1j, 1j, -np.inf]), "has non-finite entries"),
    ],
    ids=["4x4", "3x2", "2x2", "scalar", "nan", "inf", "-inf"],
)
def test_operator_of_the_wrong_size_is_rejected(solve, a, message):
    # each entry point names the operator and the size the (1,2) space
    # expects, and rejects a non-finite operator before any linear algebra
    with pytest.raises(ValueError, match=f"^operator {message}"):
        solve(build_space(1, 2), a)


@pytest.mark.parametrize(
    "solve",
    [
        lambda sp, a, tol: mnps(sp, a, tol_res=tol),
        lambda sp, a, tol: approximation_ladder(sp, a, [(sp.n_minus, sp.n_plus)], tol_res=tol),
        lambda sp, a, tol: verify_mnps(sp, a, np.zeros((sp.n_plus, sp.n_minus)), tol=tol),
    ],
    ids=["mnps", "approximation_ladder", "verify_mnps"],
)
@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(solve, tol):
    # 0 or nan certifies nothing and sends every solve through the whole
    # fallback schedule; inf certifies any graph
    sp = build_space(2, 3)
    with pytest.raises(ValueError, match="must be a finite number above 0"):
        solve(sp, 1j * sp.j, tol)


def test_certificate_batch_over_mixed_signatures():
    # every certified report must satisfy all three certificates
    rng = np.random.default_rng(14)
    count = 0
    for _ in range(200):
        sp = build_space(int(rng.integers(1, 5)), int(rng.integers(1, 30)))
        a = random_j_dissipative(sp, rng)
        rep = mnps(sp, a)
        if rep.certified:
            count += 1
            assert rep.w_norm <= 1 + 1e-8
            assert rep.residual <= 1e-8 * max(1.0, operator_norm(a))
            assert rep.subspace_inertia.n_pos == 0
    assert count == 200


def _near_axis_draw(sp, rng, delta):
    """Lower eigenvalues near ``+-0.9 - i delta`` behind a small ``A12``.

    ``A = J (S + iP)`` with dissipativity form ``P = diag(delta, 0.12)``: A11
    is ``diag(-0.9, 0.9, ...) - i delta``, A22 a real diagonal plus ``0.12 i``
    and the coupling has entries of size 1e-3.  So ``-lambda_min(Im A)`` is
    about ``2 delta``, far below ``||A||``, while the lower eigenvalues are not.
    """
    k, n = sp.n_minus, sp.n
    s = np.zeros((n, n), dtype=complex)
    s[:k, :k] = np.diag(0.9 * (-1.0) ** np.arange(k))
    s[k:, k:] = np.diag(rng.uniform(-1.0, 1.0, sp.n_plus))
    corner = 1e-3 * random_complex(rng, (k, sp.n_plus))
    s[:k, k:] = corner
    s[k:, :k] = corner.conj().T
    p = np.diag(np.r_[np.full(k, delta), np.full(sp.n_plus, 0.12)])
    return sp.j_signs[:, None] * (s + 1j * p)


def _shift_input(kind, sp, rng):
    if kind == "dissipative":
        return random_j_dissipative(sp, rng)
    if kind == "rank-deficient":
        return random_j_dissipative(sp, rng, rank_deficient=True)
    if kind == "strong":
        return random_strongly_j_dissipative(sp, rng)
    if kind == "corner-decay":
        return corner_decay_fixture(sp, rng)
    if kind == "decoupled":
        # the first H- coordinate keeps no coupling to H+: A21's first column is
        # zero, so block Arnoldi meets a zero pivot in its first block
        ja = sp.j_signs[:, None] * random_strongly_j_dissipative(sp, rng)
        s, p = (ja + ja.conj().T) / 2, (ja - ja.conj().T) / 2j
        s[sp.n_minus :, 0] = s[0, sp.n_minus :] = 0.0
        p[1:, 0] = p[0, 1:] = 0.0  # principal blocks of a PSD form stay PSD
        return sp.j_signs[:, None] * (s + 1j * p)
    # eigenvalues of the known-answer draw keep their half-plane in rounding
    return _known_answer(sp, rng, rng.choice([0.9, 0.99, 0.999]), rng.choice([1e-3, 1e-6]))[0]


@given(
    st.sampled_from(
        ["dissipative", "rank-deficient", "strong", "corner-decay", "decoupled", "known-answer"]
    ),
    st.integers(1, 5),
    st.integers(1, 30),
    st.integers(-20, 20),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_cayley_shift_bounds(kind, n_minus, n_plus, exponent, seed):
    # the Ritz shift scales with A, stays in [4 PREDICATE_TOL nu, CAYLEY_SHIFT nu],
    # and so keeps the Hermitian part of (A22 + i mu) / (i mu) at least 0.75 I:
    # the pivot-free LU of the H+ block is stable at every scale (2^e scales A
    # without rounding, from about 1e-6 to 1e6)
    sp = build_space(n_minus, n_plus)
    base = _shift_input(kind, sp, np.random.default_rng(seed))
    a = 2.0**exponent * base
    nu = _norm_lower_bound(a)
    mu = MNPS_MODULE._cayley_shift(sp, a, nu)
    assert 4.0 * PREDICATE_TOL * nu <= mu <= MNPS_MODULE.CAYLEY_SHIFT * nu
    a22 = a[n_minus:, n_minus:]
    assert np.linalg.eigvalsh(np.eye(n_plus) + (a22 - a22.conj().T) / (2j * mu))[0] >= 0.75 - 1e-12
    base_mu = MNPS_MODULE._cayley_shift(sp, base, _norm_lower_bound(base))
    assert mu == pytest.approx(2.0**exponent * base_mu, rel=1e-12)


def _pow2(a, e):
    """``2^e a``, exact in the normal range."""
    return np.ldexp(np.ascontiguousarray(a).view(float), e).view(complex)


@given(
    st.sampled_from(
        ["dissipative", "rank-deficient", "strong", "corner-decay", "decoupled", "known-answer"]
    ),
    st.integers(1, 5),
    st.integers(1, 30),
    st.integers(-1000, 1000),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_entry_points_are_exactly_scale_covariant(kind, n_minus, n_plus, e, seed):
    # every step runs on 2^-f A with f the exponent of nu, and a power of two is
    # exact: W and the bases keep their bits, and residual, nu and t scale by 2^e
    sp = build_space(n_minus, n_plus)
    a = _shift_input(kind, sp, np.random.default_rng(seed))
    scaled = _pow2(a, e)
    assert _norm_lower_bound(scaled) == np.ldexp(_norm_lower_bound(a), e)
    rep, big = mnps(sp, a), mnps(sp, scaled)
    assert np.array_equal(big.w, rep.w)
    assert (big.certified, big.iterations, big.failed_clause) == (rep.certified, rep.iterations, rep.failed_clause)
    assert big.residual == np.ldexp(rep.residual, e)
    assert big.regularization_t == np.ldexp(rep.regularization_t, e)
    check, big_check = verify_mnps(sp, a, rep.w), verify_mnps(sp, scaled, rep.w)
    assert big_check.residual == np.ldexp(check.residual, e)
    assert (big_check.invariant, big_check.maximal_nonpositive, big_check.inertia) == (
        check.invariant, check.maximal_nonpositive, check.inertia)
    levels = [(n_minus, n_plus)] if n_plus == 1 else [(n_minus, 1), (n_minus, n_plus)]
    ladder, big_ladder = (approximation_ladder(sp, x, levels) for x in (a, scaled))
    assert np.array_equal(big_ladder.final_w, ladder.final_w)
    try:
        split = spectral_split(sp, a)
    except SpectrumOnAxisError:
        with pytest.raises(SpectrumOnAxisError):
            spectral_split(sp, scaled)
    else:
        for z, big_z in zip(split, spectral_split(sp, scaled)):
            assert np.array_equal(big_z.basis, z.basis)


def test_certified_answers_lie_near_the_known_mnps():
    # the Cayley path certifies none of these draws; the eigenvectors of A
    # picked by their type certify each at t = 0.  A graph from a t > 0 level
    # can lie about t away from c with a residual under tol_res * nu, so only
    # the distance to c shows it
    far, certified = [], 0
    for sig in [(1, 5), (2, 10), (3, 30)]:
        sp = build_space(*sig)
        for c_norm in (0.9, 0.99, 0.999, 0.9999):
            for eps in (1e-3, 1e-6, 1e-9):
                for seed in range(3):
                    a, c = _known_answer(sp, np.random.default_rng(seed), c_norm, eps)
                    rep = mnps(sp, a)
                    if rep.certified:
                        certified += 1
                        err = operator_norm(rep.w - c)
                        if err > 1e-6:
                            far.append((sig, c_norm, eps, seed, err))
    assert certified == 108
    assert not far, far


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(1, 12),
    st.sampled_from(["dissipative", "strong", "j-selfadjoint"]),
    st.floats(0.0, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_mnps_is_j_unitarily_covariant(seed, n_minus, n_plus, kind, c_norm):
    # V = M_c is J-unitary, so V A V^{-1} is J-dissipative with the MNPS
    # V graph(W) = graph(phi_V(W)).  A = J H with H positive definite is
    # J-selfadjoint with a real spectrum: its dissipativity form is 0, the
    # Cayley iteration stalls, and its MNPS is spanned by the eigenvectors of
    # negative type, which a vanishing regularization itJ only approaches
    rng = np.random.default_rng(seed)
    sp = build_space(n_minus, n_plus)
    if kind == "j-selfadjoint":
        g = random_complex(rng, (sp.n, sp.n))
        h = g @ g.conj().T / sp.n + 0.1 * np.eye(sp.n)
        a = sp.j_signs[:, None] * h
    else:
        a = (random_strongly_j_dissipative if kind == "strong" else random_j_dissipative)(sp, rng)
    c = random_ball_point(sp, rng, c_norm)
    v = mobius_matrix(sp, c)
    rep = mnps(sp, a)
    moved = mnps(sp, v @ a @ mobius_matrix(sp, -c))
    assert rep.certified and moved.certified
    assert operator_norm(moved.w - fractional_linear(sp, v, rep.w)) <= 1e-10
    if kind == "j-selfadjoint":
        # with H = L L^H, J H x = lambda x for x = L^{-H} y and the Hermitian
        # L^H J L y = lambda y; the negative lambda have the negative type
        l = np.linalg.cholesky(h)
        lam, y = np.linalg.eigh((l.conj().T * sp.j_signs) @ l)
        exact = graph_from_subspace(sp, np.linalg.solve(l.conj().T, y[:, lam < 0.0]))
        assert rep.regularization_t == 0.0
        assert operator_norm(rep.w - exact) <= 1e-12


def _ball_operator(data, n_plus, n_minus, seed):
    """An n_plus x n_minus W with singular values drawn at least 1e-6 away from 1."""
    r = min(n_plus, n_minus)
    s = data.draw(
        st.lists(
            st.one_of(st.floats(0.0, 1.0 - 1e-6), st.floats(1.0 + 1e-6, 3.0)),
            min_size=r,
            max_size=r,
        )
    )
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(random_complex(rng, (n_plus, n_plus)))[0][:, :r]
    v = np.linalg.qr(random_complex(rng, (n_minus, n_minus)))[0][:, :r]
    return (u * np.asarray(s, dtype=float)) @ v.conj().T


@given(st.data(), st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_certificate_matches_graph_signature_and_norm(data, n_minus, n_plus, seed):
    # covers n_minus > n_plus, n_minus = 0, n_plus = 0 and ||W|| > 1; on the
    # sphere both rules count roundoff signs, so it is kept out of the draw
    if n_minus + n_plus == 0:
        n_plus = 1
    sp = build_space(n_minus, n_plus)
    w = _ball_operator(data, n_plus, n_minus, seed)
    a = 1j * np.asarray(sp.j)
    _, inertia, w_norm, (_, maximal) = MNPS_MODULE._certificate(sp, a, w, 1e-9, 1.0)
    assert inertia == subspace_signature(sp, graph_of(sp, w))
    assert w_norm == pytest.approx(operator_norm(w), rel=1e-14, abs=0.0)
    assert (_first_failed([maximal]) == "") == (operator_norm(w) <= 1.0 + MNPS_MODULE.W_NORM_SLACK)
