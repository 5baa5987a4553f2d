import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kreinkit import (
    GroupRep,
    Subspace,
    build_space,
    common_fixed_point,
    cyclic,
    decompose,
    fractional_linear,
    gns_construct,
    graph_from_subspace,
    graph_of,
    group_average_metric,
    invariance_residual,
    mobius_matrix,
    mobius_norm,
    named_group,
    operator_norm,
    radius_from_norm,
    rep_validate,
    subspace_signature,
    unitarize,
)
import kreinkit.ball as ball_module
import kreinkit.fixpoint as fixpoint_module
from kreinkit.ball import DENOM_COND_LIMIT, BoundaryError, MapUndefinedError
from kreinkit.fixtures import (
    corner_decay_fixture,
    cyclic_character_rep,
    doubled_form_matrix,
    fixture_conjugated_rep,
    fixture_double_rep,
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
from kreinkit.serialization import report_to_json
from kreinkit.spaces import PREDICATE_TOL, _norm_lower_bound, _stack_frobenius_norm, _stack_norm, dissipativity_form


def block_unitary_rep(group, space, rng):
    um = random_unitary_rep(group, space.n_minus, rng)
    up = random_unitary_rep(group, space.n_plus, rng)
    mats = np.array(
        [
            space.assemble(
                um[g],
                np.zeros((space.n_minus, space.n_plus)),
                np.zeros((space.n_plus, space.n_minus)),
                up[g],
            )
            for g in range(group.order)
        ]
    )
    return GroupRep(group, space, mats)


class TestRepValidate:
    def test_block_unitary_rep_is_clean(self):
        rng = np.random.default_rng(0)
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        diag = rep_validate(rep)
        assert diag.homomorphism_defect <= 1e-12
        assert diag.identity_defect <= 1e-12
        assert diag.j_unitarity_defect <= 1e-12

    def test_conjugated_rep_stays_j_unitary(self):
        rng = np.random.default_rng(1)
        rep, _ = random_conjugated_rep(named_group("S3"), build_space(2, 3), rng)
        diag = rep_validate(rep)
        assert diag.ok(1e-10)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_ok_rejects_a_bad_tolerance(self, tol):
        # inf would pass any defect, nan or 0 none
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="tol must be a finite number above 0"):
            rep_validate(rep).ok(tol)

    def test_corrupted_assignment_flagged(self):
        rng = np.random.default_rng(2)
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        mats = rep.matrices.copy()
        mats[1] = mats[2]  # break the homomorphism
        bad = GroupRep(rep.group, rep.space, mats)
        assert rep_validate(bad).homomorphism_defect > 1e-3


class TestOrbitRadius:
    def test_block_unitary_rep_fixes_zero(self):
        rng = np.random.default_rng(3)
        rep = block_unitary_rep(cyclic(3), build_space(1, 2), rng)
        assert fixpoint_module._orbit_radius(rep) <= 1e-12

    def test_conjugated_rep_orbit(self):
        rng = np.random.default_rng(4)
        group = cyclic(4)
        sp = build_space(1, 2)
        rep, center = random_conjugated_rep(group, sp, rng, center_norm=0.5)
        r = fixpoint_module._orbit_radius(rep)
        assert r <= radius_from_norm(rep.norm) + 1e-9

    def test_single_j_unitary_bound(self):
        rng = np.random.default_rng(5)
        sp = build_space(2, 3)
        for _ in range(20):
            u = random_j_unitary(sp, rng)
            r = operator_norm(fractional_linear(sp, u, np.zeros((3, 2))))
            assert r <= radius_from_norm(operator_norm(u)) + 1e-9

    def test_scalar_involution_closed_form(self):
        # U = M_a diag(1,-1) M_{-a} on the disk: phi_U(0) = 2a/(1+a^2),
        # ||U|| = (1+a)/(1-a); both derived by composition algebra
        sp = build_space(1, 1)
        group = cyclic(2)
        for a in (0.2, 0.5, 0.8):
            center = np.array([[a]])
            rep = fixture_conjugated_rep(
                group,
                np.array([np.eye(1), np.eye(1)]),
                np.array([np.eye(1), -np.eye(1)]),
                center,
            )
            assert fixpoint_module._orbit_radius(rep) == pytest.approx(2 * a / (1 + a * a), abs=1e-12)
            assert rep.norm == pytest.approx((1 + a) / (1 - a), abs=1e-10)
            report = common_fixed_point(rep)
            assert_allclose(report.k, center, atol=1e-10)


class TestGroupAverageMetric:
    def test_unitary_rep_gives_identity(self):
        rng = np.random.default_rng(6)
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        assert_allclose(group_average_metric(rep), np.eye(3), atol=1e-12)

    def test_invariance_and_spectral_pinch(self):
        rng = np.random.default_rng(7)
        rep, _ = random_conjugated_rep(named_group("D4"), build_space(2, 3), rng)
        b = group_average_metric(rep)
        norm = rep.norm
        for mat in rep.matrices:
            assert operator_norm(mat.conj().T @ b @ mat - b) <= 1e-10 * norm**2
        eigs = np.linalg.eigvalsh(b)
        assert eigs.min() >= 1.0 / norm**2 - 1e-10
        assert eigs.max() <= norm**2 + 1e-10

    def test_trivial_group(self):
        sp = build_space(1, 1)
        rep = GroupRep(cyclic(1), sp, np.eye(2)[None, :, :])
        assert_allclose(group_average_metric(rep), np.eye(2))

    def test_commutation_with_rep(self):
        # B^{-1} J commutes with every pi(g); this is what makes the pencil work
        rng = np.random.default_rng(8)
        rep, _ = random_conjugated_rep(named_group("Q8"), build_space(1, 3), rng)
        b = group_average_metric(rep)
        c = np.linalg.solve(b, rep.space.j)
        for mat in rep.matrices:
            assert operator_norm(c @ mat - mat @ c) <= 1e-9 * rep.norm**2


def loop_norm(rep):
    """The boundedness constant as a per-element loop, kept as reference."""
    return max(operator_norm(m) for m in rep.matrices)


def loop_average_metric(rep, check=True):
    """group_average_metric with the exact spectral guard on every element."""
    mats = rep.matrices
    b = sum(m.conj().T @ m for m in mats) / len(mats)
    b = (b + b.conj().T) / 2.0
    if check:
        defect = max(operator_norm(m.conj().T @ b @ m - b) for m in mats)
        if defect > 1e-10 * max(1.0, loop_norm(rep) ** 2) * max(1.0, operator_norm(b)):
            raise ValueError("averaged metric is not group-invariant")
    return b


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_group_rep_rejects_bad_matrices_by_name(bad):
    # the stack is one (order, n, n) array with finite entries
    sp = build_space(1, 2)
    mats = np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0])]).astype(complex)
    GroupRep(cyclic(2), sp, mats)
    if bad == "shape":
        mats, message = mats[:, :2, :2], r"must be 2x3x3, got \(2, 2, 2\)"
    else:
        mats[1, 0, 2], message = (np.nan if bad == "nan" else np.inf), "has non-finite entries"
    with pytest.raises(ValueError, match=f"^matrices {message}"):
        GroupRep(cyclic(2), sp, mats)


class TestBoundednessConstant:
    def test_norm_matches_loop_and_is_computed_once(self, monkeypatch):
        rng = np.random.default_rng(30)
        for name, sig in (("S4", (2, 6)), ("Q8", (1, 3)), ("Z2", (1, 1))):
            rep, _ = random_conjugated_rep(named_group(name), build_space(*sig), rng)
            assert rep.norm == loop_norm(rep)

        def no_linalg(*args, **kwargs):
            raise AssertionError("cached norm recomputed")

        monkeypatch.setattr(np.linalg, "svd", no_linalg)
        monkeypatch.setattr(np.linalg, "norm", no_linalg)
        assert rep.norm == rep.norm

    def test_norm_stays_a_plain_property(self):
        # wrappers that replace the getter (such as a tracer) need its fget
        assert isinstance(GroupRep.__dict__["norm"], property)
        assert GroupRep.__dict__["norm"].fget is not None

    def test_guard_rejects_corrupted_matrix(self):
        rng = np.random.default_rng(31)
        rep, _ = random_conjugated_rep(named_group("S3"), build_space(2, 3), rng)
        mats = rep.matrices.copy()
        mats[1] = 2.0 * mats[1]
        with pytest.raises(ValueError, match="not group-invariant"):
            group_average_metric(GroupRep(rep.group, rep.space, mats))
        # a corruption far below the Frobenius bound's scale but above the
        # tolerance of a unitary rep (||pi|| = ||B|| = 1) is still caught
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        mats = rep.matrices.copy()
        mats[1] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match="not group-invariant"):
            group_average_metric(GroupRep(rep.group, rep.space, mats))

    def test_guard_rejects_nan(self):
        rng = np.random.default_rng(32)
        rep, _ = random_conjugated_rep(named_group("Z4"), build_space(1, 2), rng)
        for g in (0, 3):
            mats = rep.matrices.copy()
            mats[g, 0, 1] = np.nan
            with pytest.raises(ValueError):
                group_average_metric(GroupRep(rep.group, rep.space, mats))

    def test_guard_falls_back_to_the_exact_defect(self, monkeypatch):
        # near the boundary ||pi|| is large: the Frobenius defect is above the
        # floor, the spectral defect is inside the scaled tolerance
        rng = np.random.default_rng(33)
        rep, _ = random_conjugated_rep(named_group("D4"), build_space(2, 3), rng,
                                       center_norm=0.999)
        b = loop_average_metric(rep, check=False)
        frobenius = [np.linalg.norm(m.conj().T @ b @ m - b) for m in rep.matrices]
        assert max(frobenius) > fixpoint_module.INVARIANCE_RTOL
        calls = []
        monkeypatch.setattr(fixpoint_module, "operator_norm",
                            lambda m: calls.append(1) or operator_norm(m))
        assert np.array_equal(group_average_metric(rep), b)
        assert len(calls) >= rep.group.order
        assert np.array_equal(loop_average_metric(rep), b)

    def test_guard_skips_the_exact_defect_when_the_bound_suffices(self, monkeypatch):
        rng = np.random.default_rng(34)
        rep, _ = random_conjugated_rep(named_group("S4"), build_space(2, 6), rng)
        monkeypatch.setattr(fixpoint_module, "operator_norm", None)
        assert np.array_equal(group_average_metric(rep), loop_average_metric(rep))

    def test_reports_match_loop_reference(self, monkeypatch):
        # the same seeded S4 reps and S5 function, once with the per-element
        # loops (patched in) and once as shipped; every value is bit-identical
        def run():
            rng = np.random.default_rng(35)
            reps = [random_conjugated_rep(named_group("S4"), build_space(2, 6), rng,
                                          center_norm=c)[0] for c in (0.3, 0.7)]
            phi = random_qpd_function(named_group("S5"), rng, k=3)[0]
            out = []
            for rep in reps:
                fp = common_fixed_point(rep)
                uni = unitarize(rep, fp)
                out += [report_to_json(fp), report_to_json(uni), uni.unitaries.tobytes()]
            phi1, phi2, cert = decompose(phi)
            return out + [phi1.values.tobytes(), phi2.values.tobytes(), report_to_json(cert)]

        shipped = run()
        monkeypatch.setattr(GroupRep, "norm", property(loop_norm))
        monkeypatch.setattr(fixpoint_module, "group_average_metric", loop_average_metric)
        assert run() == shipped


def spectral(x):
    """The per-element spectral norm the certificates were first written with."""
    return 0.0 if x.size == 0 else float(np.linalg.norm(x, 2))


def loop_fractional_linear(space, u, w):
    """phi_U(W) for one U, as a reference for the stacked map."""
    k = space.n_minus
    if k == 0:
        return np.zeros((space.n_plus, 0), dtype=complex)
    denom = u[:k, :k] + u[:k, k:] @ w
    if np.linalg.cond(denom) > DENOM_COND_LIMIT:
        raise MapUndefinedError("singular denominator")
    return np.linalg.solve(denom.T, (u[k:, :k] + u[k:, k:] @ w).T).T


def loop_rep_validate(rep):
    group, mats, space = rep.group, rep.matrices, rep.space
    m = group.order
    if m <= 64:
        pairs = ((i, j) for i in range(m) for j in range(m))
    else:
        rng = np.random.default_rng(0)
        pairs = zip(rng.integers(0, m, 4096), rng.integers(0, m, 4096))
    hom = 0.0
    for i, j in pairs:
        hom = max(hom, spectral(mats[group.mult(i, j)] - mats[i] @ mats[j]))
    ident = spectral(mats[group.identity] - np.eye(space.n))
    junit = max(
        spectral(g.conj().T @ (space.j_signs[:, None] * g) - space.j) for g in mats
    )
    return hom, ident, junit


class TestBatchedCertificates:
    """Each certificate over the element stack equals its per-element loop, bit for bit."""

    CASES = [
        (name, sig)
        for name in ("S3", "D4", "Q8", "S4", "Z12")
        for sig in ((0, 3), (3, 0), (1, 2), (2, 3), (3, 5))
    ]

    @pytest.mark.parametrize("name,sig", CASES)
    def test_certificates_match_per_element_loops(self, name, sig):
        rng = np.random.default_rng(sum(sig) + 7 * len(name))
        rep, _ = random_conjugated_rep(named_group(name), build_space(*sig), rng,
                                       center_norm=0.7)
        space, mats = rep.space, rep.matrices
        fp = common_fixed_point(rep)
        k = fp.k
        zero = np.zeros_like(k)
        assert fp.max_map_residual == max(
            spectral(loop_fractional_linear(space, m, k) - k) for m in mats)
        assert fp.orbit_radius == max(
            spectral(loop_fractional_linear(space, m, zero)) for m in mats)
        assert np.array_equal(fractional_linear(space, mats, k),
                              np.array([loop_fractional_linear(space, m, k) for m in mats]))
        assert rep.norm == max(spectral(m) for m in mats)
        uni = unitarize(rep, fp)
        unitaries = np.array([uni.v @ m @ uni.v_inv for m in mats])
        assert np.array_equal(uni.unitaries, unitaries)
        gaps = [u.conj().T @ u - np.eye(space.n) for u in unitaries]
        assert uni.max_unitarity_defect == max(
            float(np.sqrt(np.sum((g.conj() * g).real))) for g in gaps)
        # the Frobenius defect bounds the spectral one, within a factor sqrt(n)
        exact = max(spectral(g) for g in gaps)
        assert exact <= uni.max_unitarity_defect <= np.sqrt(space.n) * exact
        diag = rep_validate(rep)
        assert (diag.homomorphism_defect, diag.identity_defect,
                diag.j_unitarity_defect) == loop_rep_validate(rep)
        if space.n_minus == 0 or space.n_plus == 0:
            # the stacks of ball points are empty, so their norms read 0.0
            assert fp.max_map_residual == fp.orbit_radius == 0.0

    def test_sampled_pairs_match_on_s5(self):
        rng = np.random.default_rng(50)
        rep, _ = random_conjugated_rep(named_group("S5"), build_space(1, 2), rng)
        assert rep.group.order > 64
        diag = rep_validate(rep)
        assert (diag.homomorphism_defect, diag.identity_defect,
                diag.j_unitarity_defect) == loop_rep_validate(rep)
        # a doubled identity breaks the products that the sampled pairs read
        mats = rep.matrices.copy()
        mats[rep.group.identity] *= 2.0
        bad = GroupRep(rep.group, rep.space, mats)
        assert rep_validate(bad).homomorphism_defect == loop_rep_validate(bad)[0] > 0.5

    def test_one_singular_denominator_in_a_stack_raises(self):
        rng = np.random.default_rng(51)
        rep, _ = random_conjugated_rep(named_group("D4"), build_space(1, 2), rng)
        w = np.zeros((2, 1), dtype=complex)
        mats = rep.matrices.copy()
        mats[3, 0, :] = [0.0, 1.0, 0.0]  # U11 + U12 W = 0 at W = 0
        for g in range(len(mats)):
            if g != 3:
                loop_fractional_linear(rep.space, mats[g], w)
        with pytest.raises(MapUndefinedError):
            loop_fractional_linear(rep.space, mats[3], w)
        with pytest.raises(MapUndefinedError):
            fractional_linear(rep.space, mats, w)

    def test_one_call_per_certificate(self, monkeypatch):
        rng = np.random.default_rng(53)
        rep, _ = random_conjugated_rep(named_group("S4"), build_space(4, 30), rng,
                                       center_norm=0.5)
        rep.norm  # read once, then cached
        maps, stacks, norms = [], [], []
        monkeypatch.setattr(fixpoint_module, "fractional_linear",
                            lambda *a: maps.append(1) or fractional_linear(*a))
        monkeypatch.setattr(fixpoint_module, "_stack_norm",
                            lambda m: stacks.append(m.shape) or _stack_norm(m))
        monkeypatch.setattr(fixpoint_module, "_stack_frobenius_norm",
                            lambda m: stacks.append(("F",) + m.shape)
                            or _stack_frobenius_norm(m))
        monkeypatch.setattr(fixpoint_module, "operator_norm",
                            lambda m: norms.append(m.shape) or operator_norm(m))
        ball_norms = []
        monkeypatch.setattr(ball_module, "operator_norm",
                            lambda m: ball_norms.append(m.shape) or operator_norm(m))
        unitarize(rep, common_fixed_point(rep))
        assert len(maps) == 2  # the map residual and the orbit radius
        # the residual and the orbit radius, one SVD stack each; the unitarity
        # defect, one Frobenius stack
        assert stacks == [(24, 30, 4), (24, 30, 4), ("F", 24, 34, 34)]
        assert norms == [(30, 4), (34, 34)]  # ||K|| once, ||V^-1|| once
        assert ball_norms == [(30, 4)]  # M_K's boundary check; V = J M_K J takes none


class TestCommonFixedPoint:
    def test_unitary_rep_fixes_origin(self):
        rng = np.random.default_rng(9)
        rep = block_unitary_rep(named_group("S3"), build_space(2, 2), rng)
        report = common_fixed_point(rep)
        assert report.certified
        assert report.k_norm <= 1e-10

    def test_conjugated_fixture_recovers_center(self):
        # multiplicity-free character blocks make the invariant negative
        # subspace unique, so K must come back as the conjugation center
        group = cyclic(6)
        u_minus = cyclic_character_rep(group, [1])
        u_plus = cyclic_character_rep(group, [2, 3])
        rng = np.random.default_rng(10)
        sp = build_space(1, 2)
        center = random_ball_point(sp, rng, 0.55)
        rep = fixture_conjugated_rep(group, u_minus, u_plus, center)
        report = common_fixed_point(rep)
        assert report.certified
        assert report.max_map_residual <= 1e-8
        assert report.k_norm <= operator_norm(center) + 1e-8
        assert_allclose(report.k, center, atol=1e-6)

    def test_cyclic_group_generated_by_one_j_unitary(self):
        # powers of one J-unitary of finite order
        rng = np.random.default_rng(11)
        sp = build_space(1, 2)
        group = cyclic(8)
        a = random_ball_point(sp, rng, 0.4)
        block = sp.assemble(
            [[np.exp(2j * np.pi / 8)]],
            np.zeros((1, 2)),
            np.zeros((2, 1)),
            np.diag(np.exp(2j * np.pi * np.array([3, 5]) / 8)),
        )
        u = mobius_matrix(sp, a) @ block @ mobius_matrix(sp, -a)
        mats = np.array([np.linalg.matrix_power(u, j) for j in range(8)])
        rep = GroupRep(group, sp, mats)
        report = common_fixed_point(rep)
        assert report.certified
        assert report.max_map_residual <= 1e-8

    def test_fixed_point_is_invariant_graph(self):
        rng = np.random.default_rng(12)
        rep, _ = random_conjugated_rep(named_group("D4"), build_space(2, 2), rng)
        report = common_fixed_point(rep)
        for mat in rep.matrices:
            assert invariance_residual(rep.space, mat, report.k) <= 1e-8

    @given(
        st.sampled_from(["Z4", "D4", "S3", "Q8"]),
        st.integers(1, 2),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_unitary_conjugation_moves_fixed_point(self, name, n_minus, n_plus, seed):
        # D = diag(U-, U+) acts on the ball as W -> U+ W U-^H, so conjugating
        # the rep by D must carry its fixed point K to U+ K U-^H
        rng = np.random.default_rng(seed)
        sp = build_space(n_minus, n_plus)
        rep, _ = random_conjugated_rep(named_group(name), sp, rng)
        um, up = random_unitary(rng, n_minus), random_unitary(rng, n_plus)
        d = sp.assemble(um, np.zeros((n_minus, n_plus)), np.zeros((n_plus, n_minus)), up)
        moved = GroupRep(rep.group, sp, d @ rep.matrices @ d.conj().T)
        report = common_fixed_point(moved)
        assert report.certified
        assert_allclose(report.k, up @ common_fixed_point(rep).k @ um.conj().T, atol=1e-9)

    @given(
        st.sampled_from(["Z4", "D4", "S3", "Q8"]),
        st.integers(1, 2),
        st.integers(1, 3),
        st.sampled_from([0.6, 0.9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_j_unitary_conjugation_moves_fixed_point(
        self, name, n_minus, n_plus, center_norm, seed
    ):
        # phi_V carries common fixed points of pi to those of V pi V^-1, and
        # phi_V^-1 carries them back.  The averaged metric is not covariant
        # under a non-unitary V, so when pi has several fixed points the
        # solver may pick another one: check residuals, not K_moved = phi_V(K)
        rng = np.random.default_rng(seed)
        sp = build_space(n_minus, n_plus)
        rep, _ = random_conjugated_rep(named_group(name), sp, rng)
        v = random_j_unitary(sp, rng, center_norm=center_norm)
        v_inv = np.linalg.inv(v)
        moved = GroupRep(rep.group, sp, v @ rep.matrices @ v_inv)
        report = common_fixed_point(moved)
        assert report.certified
        carried = (
            (moved.matrices, fractional_linear(sp, v, common_fixed_point(rep).k)),
            (rep.matrices, fractional_linear(sp, v_inv, report.k)),
        )
        for mats, k in carried:
            assert max(operator_norm(fractional_linear(sp, m, k) - k) for m in mats) <= 1e-9


def dual_pair(rep):
    """The invariant (positive, negative) pair ``[K^H; I]``, ``[I; K]`` of the common fixed point K."""
    k, sp = common_fixed_point(rep).k, rep.space
    return Subspace(sp, np.vstack([k.conj().T, np.eye(sp.n_plus)])), graph_of(sp, k)


class TestInvariantDualPair:
    def test_zero_fixed_point_gives_coordinate_pair(self):
        rng = np.random.default_rng(15)
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        positive, negative = dual_pair(rep)
        assert positive.dim == 2 and negative.dim == 1
        assert abs(negative.basis[1:, :]).max() <= 1e-10
        assert abs(positive.basis[:1, :]).max() <= 1e-10

    def test_conjugated_pair_properties(self):
        rng = np.random.default_rng(16)
        rep, center = random_conjugated_rep(named_group("S3"), build_space(2, 3), rng)
        positive, negative = dual_pair(rep)
        sp = rep.space
        assert subspace_signature(sp, positive).is_positive
        assert subspace_signature(sp, negative).is_negative
        assert positive.dim == sp.n_plus and negative.dim == sp.n_minus
        combined = np.hstack([positive.basis, negative.basis])
        assert np.linalg.matrix_rank(combined) == sp.n
        for basis in (positive.basis, negative.basis):
            q = np.linalg.qr(basis)[0]
            proj = q @ q.conj().T
            for mat in rep.matrices:
                img = mat @ basis
                assert operator_norm(img - proj @ img) <= 1e-8 * operator_norm(img)

    def test_pair_matches_mobius_image_of_coordinates(self):
        group = cyclic(5)
        u_minus = cyclic_character_rep(group, [1])
        u_plus = cyclic_character_rep(group, [2, 3])
        rng = np.random.default_rng(17)
        sp = build_space(1, 2)
        center = random_ball_point(sp, rng, 0.5)
        rep = fixture_conjugated_rep(group, u_minus, u_plus, center)
        positive, negative = dual_pair(rep)
        m = mobius_matrix(sp, center)
        # negative part = M_A . H-; positive part = M_A . H+
        target_neg = m[:, :1]
        target_pos = m[:, 1:]
        for got, want in ((negative.basis, target_neg), (positive.basis, target_pos)):
            qg = np.linalg.qr(got)[0]
            qw = np.linalg.qr(want)[0]
            assert operator_norm(qw - qg @ (qg.conj().T @ qw)) <= 1e-8


def scipy_pencil_fixed_point(rep):
    """K from scipy's generalized eigensolver for J v = lambda B v, as a reference."""
    lam, vec = scipy.linalg.eigh(rep.space.j, group_average_metric(rep))
    return graph_from_subspace(rep.space, vec[:, lam < 0.0])


class TestPencilAndDualPair:
    def test_fixed_point_matches_scipy_pencil(self):
        rng = np.random.default_rng(36)
        for name in ("S4", "D4", "Q8"):
            for sig in ((1, 3), (2, 5), (3, 7)):
                for center_norm in (0.5, 0.9, 0.99, 0.999):
                    rep, _ = random_conjugated_rep(named_group(name), build_space(*sig), rng,
                                                   center_norm=center_norm)
                    report = common_fixed_point(rep)
                    assert report.certified
                    assert_allclose(report.k, scipy_pencil_fixed_point(rep), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sig", [(2, 5), (3, 2), (1, 1), (3, 0), (0, 3)])
    def test_pair_is_j_orthogonal_with_full_shapes(self, sig):
        rng = np.random.default_rng(37)
        sp = build_space(*sig)
        for center_norm in (0.5, 0.999):
            rep, _ = random_conjugated_rep(named_group("S4"), sp, rng, center_norm=center_norm)
            positive, negative = dual_pair(rep)
            assert positive.basis.shape == (sp.n, sp.n_plus)
            assert negative.basis.shape == (sp.n, sp.n_minus)
            cross = positive.basis.conj().T @ sp.j @ negative.basis
            assert (abs(cross).max() if cross.size else 0.0) <= 1e-14
            assert subspace_signature(sp, positive).is_positive
            assert subspace_signature(sp, negative).is_negative

    def test_metric_not_positive_definite_raises(self):
        rng = np.random.default_rng(38)
        rep, _ = random_conjugated_rep(named_group("S3"), build_space(1, 2), rng)
        with pytest.raises(np.linalg.LinAlgError):
            fixpoint_module._pencil_negative_basis(rep.space, -group_average_metric(rep))

    def test_decompose_reads_no_boundedness_constant(self, monkeypatch):
        # decompose takes K from the metric and the pencil alone: neither the
        # SVDs behind GroupRep.norm nor the orbit radius run for it
        reads = []
        norm = GroupRep.norm

        def counting(rep):
            reads.append(rep.group.order)
            return norm.fget(rep)

        monkeypatch.setattr(GroupRep, "norm", property(counting))
        rng = np.random.default_rng(39)
        for k in (1, 2, 3):
            phi = random_qpd_function(named_group("S4"), rng, k=k)[0]
            phi1, phi2, cert = decompose(phi)
            assert cert.ok(scale=phi.max_abs)
        assert reads == []
        rep, _ = random_conjugated_rep(named_group("S4"), build_space(1, 3), rng)
        common_fixed_point(rep)
        assert reads  # the counter sees the reads the full report makes


@pytest.mark.parametrize("solve", [common_fixed_point, unitarize], ids=["fixpoint", "unitarize"])
@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
def test_certificate_tolerance_must_be_finite_and_positive(solve, tol):
    # inf would certify any fixed point, and 0 or nan none
    rep = block_unitary_rep(cyclic(4), build_space(1, 2), np.random.default_rng(18))
    with pytest.raises(ValueError, match="cert_tol must be a finite number above 0"):
        solve(rep, cert_tol=tol)


class TestUnitarize:
    def test_already_unitary(self):
        rng = np.random.default_rng(18)
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        report = unitarize(rep)
        assert report.certified
        assert report.cond == pytest.approx(1.0, abs=1e-10)
        assert report.bound == pytest.approx(3.0)
        assert_allclose(report.v, np.eye(3), atol=1e-10)

    def test_conjugated_norm_point_six(self):
        group = cyclic(4)
        u_minus = cyclic_character_rep(group, [1])
        u_plus = cyclic_character_rep(group, [2, 3])
        rng = np.random.default_rng(19)
        sp = build_space(1, 2)
        center = random_ball_point(sp, rng, 0.6)
        rep = fixture_conjugated_rep(group, u_minus, u_plus, center)
        report = unitarize(rep)
        assert report.certified
        assert report.max_unitarity_defect <= 1e-8
        assert report.cond <= 1.6 / 0.4 + 1e-8

    def test_batch_cond_bound(self):
        rng = np.random.default_rng(20)
        groups = [named_group(n) for n in ("Z2", "Z4", "S3", "D4", "Q8")]
        for i in range(50):
            group = groups[i % len(groups)]
            k = 1 + i % 3
            sp = build_space(k, k + int(rng.integers(1, 4)))
            rep, _ = random_conjugated_rep(group, sp, rng, center_norm=rng.uniform(0.2, 0.6))
            report = unitarize(rep)
            assert report.certified
            assert report.cond <= 2 * rep.norm**2 + 1 + 1e-6
            for u in report.unitaries:
                assert operator_norm(u.conj().T @ u - np.eye(sp.n)) <= 1e-8

    def test_boundary_fixed_point_raises(self):
        # a fixed point within BOUNDARY_MARGIN of the sphere has no Mobius
        # matrix: mobius_matrix's own check rejects it
        rng = np.random.default_rng(21)
        rep = block_unitary_rep(cyclic(4), build_space(1, 2), rng)
        report = common_fixed_point(rep)
        k = np.array([[1.0 - 1e-9], [0.0]])
        with pytest.raises(ValueError) as exc:
            unitarize(rep, replace(report, k=k, k_norm=operator_norm(k)))
        assert exc.type is BoundaryError


class TestFixtures:
    def test_conjugated_rep_identity_group(self):
        group = cyclic(1)
        rep = fixture_conjugated_rep(
            group, np.eye(1)[None], np.eye(2)[None], np.zeros((2, 1))
        )
        assert_allclose(rep.matrices[0], np.eye(3), atol=1e-14)

    def test_conjugated_rep_zero_center_is_block_diagonal(self):
        rng = np.random.default_rng(21)
        group = cyclic(3)
        um = random_unitary_rep(group, 1, rng)
        up = random_unitary_rep(group, 2, rng)
        rep = fixture_conjugated_rep(group, um, up, np.zeros((2, 1)))
        for g in range(3):
            assert abs(rep.matrices[g][:1, 1:]).max() <= 1e-14
            assert abs(rep.matrices[g][1:, :1]).max() <= 1e-14

    def test_conjugated_rep_norm_bound(self):
        rng = np.random.default_rng(22)
        group = named_group("Z4")
        sp = build_space(1, 2)
        rep, center = random_conjugated_rep(group, sp, rng, center_norm=0.5)
        assert rep_validate(rep).ok(1e-10)
        assert rep.norm <= mobius_norm(sp, center).norm ** 2 + 1e-10

    @pytest.mark.parametrize("sig", [(1, 3), (2, 5), (5, 60), (5, 295), (2, 127)])
    def test_dissipative_draws_match_dense_formula(self, sig):
        # A = J (S + iP) with J as a dense matrix, drawn from the same stream
        # by the out-of-place expressions the in-place draws replaced
        def random_complex(rng, shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

        def random_hermitian(rng, n):
            h = random_complex(rng, (n, n))
            return (h + h.conj().T) / 2.0

        sp = build_space(*sig)
        n = sp.n
        for seed in range(3):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for strong, margin, deficient in ((True, 0.1, False), (False, None, False),
                                              (False, None, True), (False, 0.3, False)):
                if strong:
                    a = random_strongly_j_dissipative(sp, rng, margin=margin)
                else:
                    a = random_j_dissipative(sp, rng, margin=margin, rank_deficient=deficient)
                s = random_hermitian(ref, n)
                c = random_complex(ref, (n, max(1, n - 2) if deficient else n))
                p = c @ c.conj().T / n
                if margin is not None:
                    p = p + margin * np.eye(n)
                assert np.array_equal(a, sp.j @ (s + 1j * p))
            for decay, margin in ((0.95, 1.0), (0.8, 0.3)):
                a = corner_decay_fixture(sp, rng, decay=decay, margin=margin)
                k, n_plus = sp.n_minus, sp.n_plus
                s = np.zeros((n, n), dtype=complex)
                s[:k, :k] = random_hermitian(ref, k)
                corner = random_complex(ref, (k, n_plus)) * (decay ** np.arange(n_plus))[None, :]
                s[:k, k:], s[k:, :k] = corner, corner.conj().T
                s[k:, k:] = np.diag(ref.uniform(1.0, 3.0, n_plus))
                c1 = random_complex(ref, (k, k))
                p = np.zeros((n, n), dtype=complex)
                p[:k, :k] = c1 @ c1.conj().T / max(1, k) + margin * np.eye(k)
                p[k:, k:] = np.diag(margin * ref.uniform(1.0, 2.0, n_plus))
                assert np.array_equal(a, sp.j @ (s + 1j * p))
                form_min = float(np.min(np.linalg.eigvalsh(dissipativity_form(sp, a))))
                assert form_min > PREDICATE_TOL * _norm_lower_bound(a)  # strongly J-dissipative

    def test_double_rep_form_matrix(self):
        form = doubled_form_matrix(2)
        assert_allclose(form, np.block([[np.zeros((2, 2)), np.eye(2)],
                                        [np.eye(2), np.zeros((2, 2))]]))

    def test_double_rep_of_unitary_is_unitary(self):
        rng = np.random.default_rng(23)
        group = cyclic(4)
        sp = build_space(1, 1)
        rep = block_unitary_rep(group, sp, rng)
        tau = fixture_double_rep(rep)
        for mat in tau.matrices:
            assert operator_norm(mat.conj().T @ mat - np.eye(4)) <= 1e-12

    def test_double_rep_preserves_doubled_form(self):
        # non-unitary invertible rep of Z6, e.g. a unitary conjugated by
        # a diagonal stretch; tau must preserve the skew pairing, i.e. be
        # J-unitary in the diagonalizing coordinates
        group = cyclic(6)
        t = np.diag([2.0, 0.5])
        u = np.diag(np.exp(2j * np.pi * np.array([1, 5]) / 6))
        mats = np.array(
            [t @ np.linalg.matrix_power(u, j) @ np.linalg.inv(t) for j in range(6)]
        )
        rep = GroupRep(group, build_space(0, 2), mats)
        tau = fixture_double_rep(rep)
        assert tau.space.n_minus == 2 and tau.space.n_plus == 2
        diag = rep_validate(tau)
        assert diag.homomorphism_defect <= 1e-10
        assert diag.j_unitarity_defect <= 1e-10
        # equivalently, the raw blocks preserve the x/y pairing
        form = doubled_form_matrix(2)
        for g in range(6):
            raw = np.block(
                [
                    [mats[g], np.zeros((2, 2))],
                    [np.zeros((2, 2)), mats[group.inv(g)].conj().T],
                ]
            )
            assert operator_norm(raw.conj().T @ form @ raw - form) <= 1e-10


def frobenius_precheck(rep, b):
    """The per-element Frobenius pre-check of the loop reference."""
    return all(np.linalg.norm(m.conj().T @ b @ m - b) <= fixpoint_module.INVARIANCE_RTOL
               for m in rep.matrices)


class TestElementStackChunks:
    """The averaged metric runs over the element stack in chunks, with the loop's bits."""

    @pytest.fixture(scope="class")
    def gns_rep(self):
        # 120 GNS matrices of 120 x 120 (27.6 MB), each larger than one chunk
        phi = random_qpd_function(named_group("S5"), np.random.default_rng(36), k=3)[0]
        rep = gns_construct(phi).rep(phi.group)
        assert rep.matrices.shape == (120, 120, 120)
        return rep

    def test_many_chunks_give_the_loop_metric_and_decision(self, gns_rep, monkeypatch):
        assert gns_rep.matrices[0].nbytes > fixpoint_module._CHUNK_BYTES  # one element a chunk
        calls = []
        monkeypatch.setattr(fixpoint_module, "operator_norm",
                            lambda m: calls.append(1) or operator_norm(m))
        b = group_average_metric(gns_rep)
        assert np.array_equal(b, loop_average_metric(gns_rep))
        assert (not calls) == frobenius_precheck(gns_rep, b)

    def test_peak_memory_stays_below_the_stack(self, gns_rep):
        gns_rep.norm  # cached before the measurement, as on a fallback's second call
        tracemalloc.start()
        try:
            group_average_metric(gns_rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gns_rep.matrices.nbytes

    @pytest.mark.parametrize("chunk_bytes", [1, 2**10, 2**12])
    def test_small_chunks_keep_every_decision(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(fixpoint_module, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(37)
        rep, _ = random_conjugated_rep(named_group("S4"), build_space(2, 6), rng)
        assert rep.matrices.nbytes > chunk_bytes  # several chunks
        b = group_average_metric(rep)
        assert np.array_equal(b, loop_average_metric(rep)) and frobenius_precheck(rep, b)
        # a corruption in the last chunk is still caught
        mats = rep.matrices.copy()
        mats[-1] *= 2.0
        with pytest.raises(ValueError, match="not group-invariant"):
            group_average_metric(GroupRep(rep.group, rep.space, mats))
        # near the boundary the pre-check fails and the exact defect accepts
        rep, _ = random_conjugated_rep(named_group("D4"), build_space(2, 3), rng, center_norm=0.999)
        b = loop_average_metric(rep)
        assert not frobenius_precheck(rep, b)
        assert np.array_equal(group_average_metric(rep), b)
