import numpy as np
import pytest
from numpy.testing import assert_allclose

import kreinkit.fixpoint as fixpoint_module
import kreinkit.qpd as qpd_module
from kreinkit import (
    GroupFunction,
    common_fixed_point,
    cyclic,
    decompose,
    finite_type_rank,
    gns_construct,
    gram_matrix,
    invariant_dual_pair,
    named_group,
    negative_squares,
    symmetric,
    verify_decomposition,
)
from kreinkit.fixtures import random_complex, random_qpd_function


def delta_at_identity(group, scale=1.0):
    vals = np.zeros(group.order)
    vals[group.identity] = scale
    return GroupFunction(group, vals)


class TestGroupFunction:
    def test_hermitian_symmetry_enforced(self):
        g = cyclic(3)
        GroupFunction(g, [1.0, 2.0 + 1j, 2.0 - 1j])
        with pytest.raises(ValueError):
            GroupFunction(g, [1.0, 2.0 + 1j, 2.0 + 1j])

    def test_identity_value_must_be_real(self):
        g = cyclic(2)
        with pytest.raises(ValueError):
            GroupFunction(g, [1j, 0.0])

    def test_symmetry_tolerance_is_relative_to_the_values(self):
        # phi(2) = 0 while phi(1) = 1e-13j: a complete violation at this scale
        with pytest.raises(ValueError):
            GroupFunction(cyclic(3), [1e-13, 1e-13j, 0.0])
        GroupFunction(cyclic(3), [1e-13, 2e-13j, -2e-13j])


class TestGramMatrix:
    def test_delta_gives_identity(self):
        g = symmetric(3)
        assert_allclose(gram_matrix(delta_at_identity(g)), np.eye(6))

    def test_z2_worked_values(self):
        g = cyclic(2)
        phi = GroupFunction(g, [1.0, 2.0])
        assert_allclose(gram_matrix(phi), [[1.0, 2.0], [2.0, 1.0]])

    def test_constant_function_rank_one(self):
        g = cyclic(5)
        phi = GroupFunction(g, np.ones(5))
        gram = gram_matrix(phi)
        assert_allclose(gram, np.ones((5, 5)))
        assert negative_squares(phi) == 0
        assert finite_type_rank(phi) == 1

    def test_hermitian_and_reorder_invariant(self):
        rng = np.random.default_rng(0)
        g = named_group("D4")
        phi, _, _ = random_qpd_function(g, rng, k=2)
        gram = gram_matrix(phi)
        assert_allclose(gram, gram.conj().T)
        perm = rng.permutation(g.order)
        sub = gram_matrix(phi, perm)
        e1 = np.linalg.eigvalsh(gram)
        e2 = np.linalg.eigvalsh(sub)
        assert np.sum(e1 < -1e-10) == np.sum(e2 < -1e-10)

    def test_translation_preserves_gram(self):
        # P_g^H Gram P_g = Gram for every left translation
        rng = np.random.default_rng(1)
        g = named_group("S3")
        phi, _, _ = random_qpd_function(g, rng, k=1)
        gram = gram_matrix(phi)
        for x in range(g.order):
            p = g.left_translation(x)
            assert_allclose(p.conj().T @ gram @ p, gram, atol=1e-12)


class TestNegativeSquares:
    def test_constant_is_pd(self):
        assert negative_squares(GroupFunction(cyclic(4), np.ones(4))) == 0

    def test_z2_example_has_one(self):
        phi = GroupFunction(cyclic(2), [1.0, 2.0])
        assert negative_squares(phi) == 1

    def test_unitary_matrix_element_is_pd(self):
        rng = np.random.default_rng(2)
        g = named_group("Q8")
        x = random_complex(rng, g.order)
        vals = np.array([np.vdot(x, g.left_translation(h) @ x) for h in range(g.order)])
        assert negative_squares(GroupFunction(g, vals)) == 0


class TestFiniteTypeRank:
    def test_constant_rank_one(self):
        assert finite_type_rank(GroupFunction(cyclic(6), np.ones(6))) == 1

    def test_two_characters_rank_two(self):
        g = cyclic(4)
        js = np.arange(4)
        chi1 = np.exp(2j * np.pi * js / 4)
        chi3 = np.exp(2j * np.pi * 3 * js / 4)
        phi = GroupFunction(g, chi1 + chi3)
        assert finite_type_rank(phi) == 2

    def test_delta_has_full_rank(self):
        g = named_group("D4")
        assert finite_type_rank(delta_at_identity(g)) == g.order

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            finite_type_rank(GroupFunction(cyclic(2), [1.0, 2.0]))


class TestGns:
    def test_constant_function(self):
        g = cyclic(3)
        gns = gns_construct(GroupFunction(g, np.ones(3)))
        assert gns.rank == 1
        assert list(gns.signs) == [1]
        for mat in gns.matrices:
            assert_allclose(mat, np.eye(1), atol=1e-12)

    def test_z2_worked_example(self):
        g = cyclic(2)
        gns = gns_construct(GroupFunction(g, [1.0, 2.0]))
        assert gns.rank == 2
        assert list(gns.signs) == [-1, 1]  # negatives-first ordering
        assert_allclose(np.abs(gns.matrices[1]), np.diag([1.0, 1.0]), atol=1e-12)
        assert_allclose(gns.matrices[1], np.diag([-1.0, 1.0]), atol=1e-12)

    def test_certificates_on_random_fixtures(self):
        rng = np.random.default_rng(3)
        for name in ("Z6", "S3", "D4", "Q8"):
            g = named_group(name)
            phi, _, _ = random_qpd_function(g, rng, k=2)
            gns = gns_construct(phi)
            k = negative_squares(phi)
            assert int(np.sum(gns.signs < 0)) == k
            jn = gns.signs.astype(float)
            # homomorphism and J'-unitarity
            for i in range(g.order):
                for j in range(g.order):
                    prod = gns.matrices[i] @ gns.matrices[j]
                    assert np.linalg.norm(prod - gns.matrices[g.mult(i, j)]) <= 1e-9
            for mat in gns.matrices:
                gram = mat.conj().T @ np.diag(jn) @ mat - np.diag(jn)
                assert np.linalg.norm(gram) <= 1e-9
            # matrix-element identity
            f = gns.cyclic
            vals = np.array(
                [np.vdot(jn * f, mat @ f) for mat in gns.matrices]
            )
            assert_allclose(vals, phi.values, atol=1e-9 * max(1.0, phi.max_abs))

    def test_pd_input_gives_unitary_rep(self):
        rng = np.random.default_rng(4)
        g = cyclic(5)
        x = random_complex(rng, 5)
        vals = np.array([np.vdot(x, g.left_translation(h) @ x) for h in range(5)])
        gns = gns_construct(GroupFunction(g, vals))
        assert np.all(gns.signs == 1)
        for mat in gns.matrices:
            assert np.linalg.norm(mat.conj().T @ mat - np.eye(gns.rank)) <= 1e-10


class TestDecompose:
    def test_pd_input_passthrough(self):
        rng = np.random.default_rng(5)
        g = cyclic(4)
        x = random_complex(rng, 4)
        vals = np.array([np.vdot(x, g.left_translation(h) @ x) for h in range(4)])
        phi = GroupFunction(g, vals)
        phi1, phi2, cert = decompose(phi)
        assert_allclose(phi1.values, phi.values)
        assert abs(phi2.values).max() == 0.0
        assert cert.ok(scale=phi.max_abs)

    def test_z2_character_coefficients(self):
        phi = GroupFunction(cyclic(2), [1.0, 2.0])
        phi1, phi2, cert = decompose(phi)
        assert_allclose(phi1.values, [1.5, 1.5], atol=1e-12)
        assert_allclose(phi2.values, [0.5, -0.5], atol=1e-12)
        assert cert.ok(scale=phi.max_abs)
        assert cert.phi2_rank == 1 == cert.negative_squares

    def test_negative_definite_identity_delta(self):
        g = cyclic(3)
        phi = GroupFunction(g, -delta_at_identity(g, 2.0).values)
        phi1, phi2, cert = decompose(phi)
        assert abs(phi1.values).max() == 0.0
        assert_allclose(phi2.values, -phi.values)
        assert cert.parts_positive_definite

    def test_random_round_trip(self):
        rng = np.random.default_rng(6)
        for name, k in (("Z6", 1), ("Z6", 2), ("S3", 2), ("D4", 3), ("S4", 3)):
            g = named_group(name)
            phi, _, _ = random_qpd_function(g, rng, k=k)
            phi1, phi2, cert = decompose(phi)
            scale = phi.max_abs
            assert cert.reconstruction_error <= 1e-8 * max(1.0, scale)
            assert negative_squares(phi1) == 0
            assert negative_squares(phi2) == 0
            assert finite_type_rank(phi2) <= negative_squares(phi)
            assert cert.ok(scale=scale)

    def test_zero_function_splits_into_zeros(self):
        phi = GroupFunction(named_group("S3"), np.zeros(6))
        phi1, phi2, cert = decompose(phi)
        assert abs(phi1.values).max() == 0.0 == abs(phi2.values).max()
        assert cert.ok(scale=phi.max_abs)

    @pytest.mark.parametrize("name", ["S4", "S5"])
    def test_positive_part_far_below_negative_part(self, name):
        # phi1 is 1e-7 of phi: both parts must stay Hermitian and PD at their own scale
        group = named_group(name)
        _, pd, ft = random_qpd_function(group, np.random.default_rng(2), k=2)
        phi = GroupFunction(group, 1e-7 * pd.values - ft.values)
        phi1, phi2, cert = decompose(phi)
        assert phi1.max_abs <= 1e-6 * phi.max_abs
        assert cert.ok(scale=phi.max_abs)
        assert cert.phi2_rank == cert.negative_squares == 2

    def test_sign_count_matches_negative_squares(self):
        rng = np.random.default_rng(7)
        g = named_group("Z12")
        phi, _, _ = random_qpd_function(g, rng, k=3)
        assert negative_squares(phi) == int(np.sum(gns_construct(phi).signs < 0))


def dual_pair_parts(phi, gns, report):
    """phi1, phi2 from the fixed point's dual pair and a solve, kept as reference."""
    positive, negative = invariant_dual_pair(gns.rep(phi.group), report)
    coeff = np.linalg.solve(np.hstack([positive.basis, negative.basis]), gns.cyclic)
    jn = gns.signs.astype(float)
    parts = []
    for f in (positive.basis @ coeff[: positive.dim], negative.basis @ coeff[positive.dim :]):
        parts.append(np.array([np.vdot(jn * f, mat @ f) for mat in gns.matrices]))
    return parts[0], -parts[1]


class TestSignSplit:
    """The GNS coordinate blocks are an invariant dual pair, with K = 0."""

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "S4", "S5"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_coordinate_blocks_are_the_invariant_dual_pair(self, name, k):
        group = named_group(name)
        phi, _, _ = random_qpd_function(group, np.random.default_rng(100 + 10 * k), k=k)
        gns = gns_construct(phi)
        # every U(g) commutes with J'
        neg = gns.signs < 0
        assert 0 < int(np.sum(neg)) < gns.rank
        scale = float(np.max(np.abs(gns.matrices)))
        assert np.max(np.abs(gns.matrices[:, neg][:, :, ~neg])) <= 1e-12 * scale
        assert np.max(np.abs(gns.matrices[:, ~neg][:, :, neg])) <= 1e-12 * scale
        # so the common fixed point is K = 0
        report = common_fixed_point(gns.rep(group))
        assert report.certified
        assert report.k_norm <= 1e-12
        # and the sign split equals the split along the fixed point's dual pair
        phi1, phi2, cert = decompose(phi)
        ref1, ref2 = dual_pair_parts(phi, gns, report)
        tol = 1e-12 * phi.max_abs
        assert np.max(np.abs(phi1.values - ref1)) <= tol
        assert np.max(np.abs(phi2.values - ref2)) <= tol
        assert cert.ok(scale=phi.max_abs)
        assert cert.phi2_rank == cert.negative_squares == negative_squares(phi)

    def test_decompose_runs_no_fixed_point_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("decompose ran the fixed-point pencil")

        for attr in ("group_average_metric", "_pencil_negative_basis", "graph_from_subspace"):
            monkeypatch.setattr(fixpoint_module, attr, forbidden)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        monkeypatch.setattr(qpd_module, "gns_construct", forbidden)
        rng = np.random.default_rng(11)
        for name, k in (("S3", 1), ("D4", 2), ("S4", 3)):
            phi, _, _ = random_qpd_function(named_group(name), rng, k=k)
            _, _, cert = decompose(phi)
            assert cert.ok(scale=phi.max_abs)
            assert cert.negative_squares == k


class TestVerifyDecomposition:
    def test_accepts_decompose_output(self):
        rng = np.random.default_rng(8)
        g = named_group("S3")
        phi, _, _ = random_qpd_function(g, rng, k=2)
        phi1, phi2, _ = decompose(phi)
        cert = verify_decomposition(phi, phi1, phi2)
        assert cert.ok(scale=phi.max_abs)

    def test_trivial_decomposition_of_pd(self):
        g = cyclic(3)
        phi = GroupFunction(g, np.ones(3))
        zero = GroupFunction(g, np.zeros(3))
        cert = verify_decomposition(phi, phi, zero)
        assert cert.ok(scale=phi.max_abs)

    def test_sign_flipped_decomposition_fails(self):
        g = cyclic(3)
        phi = GroupFunction(g, np.ones(3))
        zero = GroupFunction(g, np.zeros(3))
        neg = GroupFunction(g, -phi.values)
        cert = verify_decomposition(phi, zero, neg)
        assert cert.phi2_negative_squares > 0
        assert not cert.ok(scale=phi.max_abs)

    def test_reconstruction_tolerance_is_relative_to_scale(self):
        # at max|phi| = 1e-6 a shift of 1e-9 in phi1(e) is 0.1% of phi
        g = named_group("S3")
        phi, _, _ = random_qpd_function(g, np.random.default_rng(8), k=2)
        phi = GroupFunction(g, phi.values * (1e-6 / phi.max_abs))
        phi1, phi2, cert = decompose(phi)
        assert cert.ok(scale=1e-6)
        shifted = phi1.values.copy()
        shifted[g.identity] += 1e-9
        cert = verify_decomposition(phi, GroupFunction(g, shifted), phi2)
        assert cert.parts_positive_definite
        assert not cert.ok(scale=1e-6)

    def test_runs_on_eigenvalues_alone(self, monkeypatch):
        # the certificate counts signs from eigvalsh; only decompose needs vectors
        rng = np.random.default_rng(12)
        for name, k in (("S3", 1), ("Q8", 2), ("S5", 3)):
            phi, _, _ = random_qpd_function(named_group(name), rng, k=k)
            phi1, phi2, cert = decompose(phi)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", _forbidden_eigh)
                assert verify_decomposition(phi, phi1, phi2) == cert
                assert negative_squares(phi) == cert.negative_squares > 0
                assert finite_type_rank(phi2) == cert.phi2_rank
            assert cert.ok(scale=phi.max_abs)

    def test_k_bounded_by_rank_of_finite_part(self):
        rng = np.random.default_rng(9)
        g = named_group("D4")
        phi, phi_pd, phi_ft = random_qpd_function(g, rng, k=2)
        cert = verify_decomposition(phi, phi_pd, phi_ft)
        assert cert.reconstruction_error <= 1e-10
        assert cert.k_bounded_by_rank


def _forbidden_eigh(*args, **kwargs):
    raise AssertionError("a sign count asked for eigenvectors")


def eigh_counts(phi):
    """(negative, nonzero) eigenvalue counts of the Gram matrix, from eigh."""
    gram = gram_matrix(phi)
    eigs = np.linalg.eigh((gram + gram.conj().T) / 2.0)[0]
    thr = qpd_module.GRAM_KERNEL_RTOL * np.max(np.abs(eigs))
    return int(np.sum(eigs < -thr)), int(np.sum(np.abs(eigs) > thr))


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "S4", "Z12", "S5"])
def test_sign_counts_match_eigh_reference(name):
    # eps * phi_pd - c * phi_ft with one part far below the other, as well as both at scale 1
    group = named_group(name)
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        _, pd, ft = random_qpd_function(group, rng, k=k)
        for eps, c in ((1.0, 1.0), (1e-7, 1.0), (1.0, 1e-7), (1e-9, 1.0), (1.0, 1e-9)):
            phi = GroupFunction(group, eps * pd.values - c * ft.values)
            neg, _ = eigh_counts(phi)
            assert negative_squares(phi) == neg
            phi1, phi2, cert = decompose(phi)
            (neg1, rank1), (neg2, rank2) = eigh_counts(phi1), eigh_counts(phi2)
            assert (cert.negative_squares, cert.phi1_negative_squares) == (neg, neg1)
            assert cert.phi2_negative_squares == neg2
            assert cert.phi2_rank == (rank2 if neg2 == 0 else None)
            for part, (part_neg, part_rank) in ((phi1, (neg1, rank1)), (phi2, (neg2, rank2))):
                if part_neg == 0:
                    assert finite_type_rank(part) == part_rank
            assert neg2 == 0 and rank2 == neg
