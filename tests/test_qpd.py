import json
import sys
import warnings

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
    dihedral,
    direct_product,
    finite_type_rank,
    gns_construct,
    named_group,
    negative_squares,
    symmetric,
    verify_decomposition,
)
from kreinkit.cli import main as cli_main
from kreinkit.fixtures import random_complex, random_qpd_function
from kreinkit.qpd import RECONSTRUCTION_RTOL
from kreinkit.serialization import group_function_to_json, group_to_json
from kreinkit.spaces import _first_failed


DENSE_EIGH = np.linalg.eigh


def scaled_by_pow2(phi, e):
    """``2^e phi``, exact in the normal range."""
    return GroupFunction(phi.group, np.ldexp(phi.values.view(float), e).view(complex))


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
    """The Hermitian Gram matrix ``Phi[i, j] = phi(g_i^{-1} g_j)`` that every spectrum reads."""

    def test_delta_gives_identity(self):
        g = symmetric(3)
        assert_allclose(qpd_module._hermitian_gram(delta_at_identity(g)), np.eye(6))

    def test_z2_worked_values(self):
        g = cyclic(2)
        phi = GroupFunction(g, [1.0, 2.0])
        assert_allclose(qpd_module._hermitian_gram(phi), [[1.0, 2.0], [2.0, 1.0]])

    def test_constant_function_rank_one(self):
        g = cyclic(5)
        phi = GroupFunction(g, np.ones(5))
        gram = qpd_module._hermitian_gram(phi)
        assert_allclose(gram, np.ones((5, 5)))
        assert negative_squares(phi) == 0
        assert finite_type_rank(phi) == 1

    def test_hermitian(self):
        rng = np.random.default_rng(0)
        g = named_group("D4")
        phi, _, _ = random_qpd_function(g, rng, k=2)
        gram = qpd_module._hermitian_gram(phi)
        assert_allclose(gram, gram.conj().T)

    def test_translation_preserves_gram(self):
        # P_g^H Gram P_g = Gram for every left translation
        rng = np.random.default_rng(1)
        g = named_group("S3")
        phi, _, _ = random_qpd_function(g, rng, k=1)
        gram = qpd_module._hermitian_gram(phi)
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
        assert _passes(cert, "phi1_negative_squares") and _passes(cert, "phi2_negative_squares")

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
    k, n_plus = report.k, report.k.shape[0]
    positive, negative = np.vstack([k.conj().T, np.eye(n_plus)]), np.vstack([np.eye(k.shape[1]), k])
    coeff = np.linalg.solve(np.hstack([positive, negative]), gns.cyclic)
    jn = gns.signs.astype(float)
    parts = []
    for f in (positive @ coeff[:n_plus], negative @ coeff[n_plus:]):
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

    def test_parts_must_live_on_the_same_group(self):
        phi = GroupFunction(cyclic(3), np.ones(3))
        assert verify_decomposition(phi, GroupFunction(cyclic(3), np.ones(3)), phi).negative_squares == 0
        with pytest.raises(ValueError, match="^decomposition parts must live on the same group$"):
            verify_decomposition(phi, phi, GroupFunction(named_group("S3"), np.zeros(6)))

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
        assert _passes(cert, "phi1_negative_squares") and _passes(cert, "phi2_negative_squares")
        assert not cert.ok(scale=1e-6)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"scale": np.inf}, "scale must be a finite number >= 0"),
            ({"scale": np.nan}, "scale must be a finite number >= 0"),
            ({"scale": -1.0}, "scale must be a finite number >= 0"),
            ({"scale": 1.0, "tol": np.inf}, "tol must be a finite number above 0"),
            ({"scale": 1.0, "tol": np.nan}, "tol must be a finite number above 0"),
            ({"scale": 1.0, "tol": 0.0}, "tol must be a finite number above 0"),
        ],
        ids=["scale-inf", "scale-nan", "scale-negative", "tol-inf", "tol-nan", "tol-zero"],
    )
    def test_ok_rejects_a_bad_scale_or_tolerance(self, kwargs, message):
        # scale = inf would pass any reconstruction error
        g = cyclic(3)
        phi = GroupFunction(g, np.ones(3))
        zero = GroupFunction(g, np.zeros(3))
        cert = verify_decomposition(phi, zero, zero)  # reconstruction error 1
        with pytest.raises(ValueError, match=message):
            cert.ok(**kwargs)
        assert not cert.ok(scale=1.0)

    def test_ok_accepts_a_zero_scale(self):
        g = cyclic(3)
        zero = GroupFunction(g, np.zeros(3))
        assert verify_decomposition(zero, zero, zero).ok(scale=0.0)

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
        assert _passes(cert, "k_bounded_by_rank")


def _passes(cert, name):
    """Whether the certificate's clause ``name`` passes; only ``reconstruction_error`` reads the scale."""
    return not _first_failed(c for c in cert._clauses(1.0, RECONSTRUCTION_RTOL) if c.name == name)


def _forbidden_eigh(*args, **kwargs):
    raise AssertionError("a sign count asked for eigenvectors")


def eigh_counts(phi):
    """(negative, nonzero) eigenvalue counts of the Gram matrix, from eigh."""
    gram = phi.values[phi.group.table[phi.group.inverses]]  # phi(g_i^-1 g_j)
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


@pytest.mark.parametrize("name", ["S3", "D4", "S4", "S5", "Z12"])
def test_decompose_certificate_equals_verify_decomposition(name):
    # decompose counts phi's negative squares from its own eigh; the public
    # check recounts every function and must reach the same certificate
    group = named_group(name)
    rng = np.random.default_rng(41)
    for k in (0, 1, 2, 3):
        for _ in range(2):
            phi, _, _ = random_qpd_function(group, rng, k=k)
            phi1, phi2, cert = decompose(phi)
            assert cert == verify_decomposition(phi, phi1, phi2)
            assert cert.ok(scale=phi.max_abs)


class TestCholeskyFirstCount:
    """phi1's count: a shifted Cholesky that passes reads 0, else the Gram spectrum counts."""

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "S4", "Z12", "S5"])
    def test_agrees_with_the_eigvalsh_count(self, name, monkeypatch):
        group = named_group(name)
        rng = np.random.default_rng(43)
        calls = []
        spectrum = qpd_module._gram_spectrum
        monkeypatch.setattr(qpd_module, "_gram_spectrum", lambda phi: calls.append(1) or spectrum(phi))
        for k in (1, 2, 3):
            phi, pd, ft = random_qpd_function(group, rng, k=k)
            for eps in (1.0, 1e-7, 1e-9):
                # positive parts at several scales take the Cholesky path
                for part in (decompose(GroupFunction(group, eps * pd.values - ft.values))[0],
                             pd, ft):
                    calls.clear()
                    assert qpd_module._pd_negative_squares(part) == 0
                    # a zero phi1 (no positive part left at eps = 1e-9) has no factor
                    assert len(calls) == (part.max_abs == 0.0)
                    assert negative_squares(part) == 0
            # an indefinite input fails the Cholesky and falls back to the spectrum
            calls.clear()
            assert qpd_module._pd_negative_squares(phi) == negative_squares(phi) > 0
            assert len(calls) == 2

    def test_falls_back_on_a_negative_identity_value(self):
        # phi(e) < 0 makes the shift negative; the count still comes out exact
        group = named_group("S3")
        phi = delta_at_identity(group, -2.0)
        assert qpd_module._pd_negative_squares(phi) == negative_squares(phi) == 6
        zero = GroupFunction(group, np.zeros(6))
        assert qpd_module._pd_negative_squares(zero) == negative_squares(zero) == 0


BLOCK_GROUPS = {
    "S5": lambda: named_group("S5"),
    "S4xZ2": lambda: direct_product(symmetric(4), cyclic(2)),
    "Q8xS3": lambda: direct_product(named_group("Q8"), symmetric(3)),
    "D4xD4": lambda: direct_product(dihedral(4), dihedral(4)),
    "D30": lambda: dihedral(30),
    "Z64": lambda: cyclic(64),
    "S5xZ2": lambda: direct_product(symmetric(5), cyclic(2)),
}


def dense_reference(phi):
    """Eigenvalues and parts phi1, phi2 of the spectral split, from one dense eigh."""
    group = phi.group
    gram = phi.values[group.table[group.inverses]]  # phi(g_i^-1 g_j)
    eigs, vecs = DENSE_EIGH((gram + gram.conj().T) / 2.0)
    thr = qpd_module.GRAM_KERNEL_RTOL * np.max(np.abs(eigs))
    row = vecs[group.identity]
    parts = []
    for keep in (eigs > thr, eigs < -thr):
        f = vecs[:, keep] @ (np.sqrt(np.abs(eigs[keep])) * row[keep].conj())
        parts.append(f[group.table].conj() @ f)
    return eigs, parts[0], parts[1]


@pytest.fixture
def square_eigensolves(monkeypatch):
    """Records the shape of each m x m eigensolve in qpd; a stack of blocks is not one."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recording(a, *args, _solver=solver, **kwargs):
            if np.ndim(a) == 2 and sys._getframe(1).f_globals["__name__"] == qpd_module.__name__:
                calls.append(a.shape)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


class TestBlockSpectrum:
    """Gram spectra through the group's invariant basis agree with a dense eigh."""

    @pytest.mark.parametrize("name", list(BLOCK_GROUPS) + ["Z1", "Z2", "S3", "Q8", "S4"])
    def test_matches_the_dense_eigh(self, name, square_eigensolves, monkeypatch):
        # the named groups lie below the crossover and keep the identity as one block;
        # the others take the invariant basis at every order
        blocks = name in BLOCK_GROUPS
        if blocks:
            monkeypatch.setattr(qpd_module, "_BLOCK_MIN_ORDER", 1)
        group = BLOCK_GROUPS[name]() if blocks else named_group(name)
        rng = np.random.default_rng(53)
        for k in (1, 3):
            _, pd, ft = random_qpd_function(group, rng, k=k)
            for eps in (1.0, 1e-7, 1e-9):
                for c in (1.0, 1e-7, 1e-9):
                    phi = GroupFunction(group, eps * pd.values - c * ft.values)
                    ref_eigs, ref1, ref2 = dense_reference(phi)
                    tol = 1e-13 * np.max(np.abs(ref_eigs))
                    eigs, _, _ = qpd_module._gram_spectrum(phi)
                    assert np.max(np.abs(eigs - ref_eigs)) <= tol
                    assert np.max(np.abs(qpd_module._gram_spectrum(phi, vectors=True)[0] - ref_eigs)) <= tol
                    phi1, phi2, cert = decompose(phi)
                    assert np.max(np.abs(phi1.values - ref1)) <= 1e-12 * phi.max_abs
                    assert np.max(np.abs(phi2.values - ref2)) <= 1e-12 * phi.max_abs
                    assert cert == verify_decomposition(phi, phi1, phi2)
                    neg, _ = eigh_counts(phi)
                    assert negative_squares(phi) == cert.negative_squares == neg
                    (neg1, _), (neg2, rank2) = eigh_counts(phi1), eigh_counts(phi2)
                    assert (cert.phi1_negative_squares, cert.phi2_negative_squares) == (neg1, neg2)
                    assert cert.phi2_rank == (rank2 if neg2 == 0 else None)
        # the one m x m eigensolve is the basis; the identity takes none
        assert square_eigensolves == ([(group.order, group.order)] if blocks else [])

    def test_corrupted_basis_falls_back_to_one_block(self, square_eigensolves):
        group = named_group("S5")
        phi, _, _ = random_qpd_function(group, np.random.default_rng(54), k=3)
        basis, layout = qpd_module._invariant_basis(group)
        # rotate one column of the first block into the last block: still orthogonal, no longer invariant
        i, j = layout[0][0], layout[-1][1] - 1
        bad = basis.copy()
        bad[:, i], bad[:, j] = (basis[:, i] + basis[:, j]) / np.sqrt(2), (basis[:, i] - basis[:, j]) / np.sqrt(2)
        object.__setattr__(group, "_invariant_basis", (bad, layout))
        square_eigensolves.clear()
        assert [ub.shape for ub, _, _ in qpd_module._gram_blocks(phi, vectors=False)] == [(1, 120, 120)]
        ref_eigs = dense_reference(phi)[0]
        eigs, _, _ = qpd_module._gram_spectrum(phi)
        assert np.max(np.abs(eigs - ref_eigs)) <= 1e-13 * np.max(np.abs(ref_eigs))
        assert negative_squares(phi) == eigh_counts(phi)[0] > 0
        phi1, phi2, cert = decompose(phi)
        assert cert.ok(scale=phi.max_abs)
        assert cert == verify_decomposition(phi, phi1, phi2)
        # U as one 120 x 120 block is a stack of one, not a dense eigensolve of Phi
        assert square_eigensolves == []

    def test_non_orthogonal_basis_raises(self, tmp_path, monkeypatch):
        # one block cannot absorb a U that is off orthogonal: the spectrum is not certified
        group = named_group("S5")
        phi, _, _ = random_qpd_function(group, np.random.default_rng(54), k=3)
        basis, layout = qpd_module._invariant_basis(group)
        object.__setattr__(group, "_invariant_basis", (1.01 * basis, layout))
        for call in (negative_squares, decompose, gns_construct):
            with pytest.raises(RuntimeError, match="not orthogonal"):
                call(phi)
        # the CLI reads a RuntimeError as uncertified, exit 1
        monkeypatch.setattr(qpd_module, "_invariant_basis", lambda g: (1.01 * basis, layout))
        args = []
        for name, obj in (("group", group_to_json(group)), ("values", group_function_to_json(phi))):
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            args += [f"--{name}", str(tmp_path / f"{name}.json")]
        assert cli_main(["qpd", "classify", *args]) == 1

    @pytest.mark.parametrize("e", [-600, 0, 400, 600])
    def test_corrupted_basis_raises_at_every_binade(self, e):
        # ||Phi||_F overflowed from about 2^500 and underflowed below 2^-500: the
        # squared limit was inf, or 0 beside a residual of 0, and passed any basis
        group = named_group("S5")
        phi, _, _ = random_qpd_function(group, np.random.default_rng(5), k=1)
        basis, layout = qpd_module._invariant_basis(group)
        bad = basis.copy()
        bad[:, 5] += 1e-3 * basis[:, 7]
        object.__setattr__(group, "_invariant_basis", (bad, layout))
        with pytest.raises(RuntimeError, match="not orthogonal"):
            decompose(scaled_by_pow2(phi, e))

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_true_basis_certifies_at_extreme_binades(self, e):
        phi, _, _ = random_qpd_function(named_group("S5"), np.random.default_rng(5), k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phi1, phi2, cert = decompose(scaled_by_pow2(phi, e))
        assert cert.failed_clause == ""
        assert cert.negative_squares == negative_squares(phi) == 1

    @pytest.mark.parametrize("name,e", [("D8", 1015), ("Z4", 1020)])
    def test_top_of_the_float_range_certifies(self, name, e, tmp_path):
        # eigvalsh overflows inside on D8's Gram matrix at 2^1015 (its spectrum
        # stays below 2^1021), and Z4's Hermitian part overflows at 2^1020
        # (max|phi| 2^1023.65): the spectrum is taken on 2^-e phi, so the count
        # holds and no LinAlgError reaches the CLI
        phi, _, _ = random_qpd_function(named_group(name), np.random.default_rng(5), k=1)
        big = scaled_by_pow2(phi, e)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phi1, phi2, cert = decompose(big)
        assert cert.failed_clause == ""
        assert cert.negative_squares == negative_squares(big) == negative_squares(phi) == 1
        args = []
        for key, obj in (("group", group_to_json(big.group)), ("values", group_function_to_json(big))):
            (tmp_path / f"{key}.json").write_text(json.dumps(obj))
            args += [f"--{key}", str(tmp_path / f"{key}.json")]
        assert cli_main(["qpd", "decompose", *args, "--out", str(tmp_path / "out.json")]) == 0

    def test_parts_beyond_the_float_range_are_rejected_by_scale(self):
        # a flat spectrum of mixed signs puts phi1(e) near sqrt(m) / 2 times max|phi|
        s = np.where(np.random.default_rng(0).random(64) < 0.5, -1.0, 1.0)
        phi = GroupFunction(cyclic(64), np.fft.ifft(s))
        big = scaled_by_pow2(phi, 1024 - np.frexp(phi.max_abs)[1])  # max|phi| in [2^1023, 2^1024)
        assert negative_squares(big) == negative_squares(phi) == np.count_nonzero(s < 0)
        with pytest.raises(ValueError, match=r"^values scale \S+ is too large: a part of phi overflows$"):
            decompose(big)

    def test_subnormal_function_is_rejected_by_its_scale(self):
        phi, _, _ = random_qpd_function(named_group("S5"), np.random.default_rng(5), k=1)
        with pytest.raises(ValueError, match=r"^values scale \S+ is below the normal range"):
            decompose(scaled_by_pow2(phi, -1070))

    def test_basis_eigh_runs_once_per_group_object(self, square_eigensolves):
        for _ in range(2):
            group = named_group("S5")
            rng = np.random.default_rng(55)
            for k in (1, 2, 3):
                phi, _, _ = random_qpd_function(group, rng, k=k)
                phi1, phi2, _ = decompose(phi)
                verify_decomposition(phi, phi1, phi2)
                gns_construct(phi)
                finite_type_rank(phi2)
        assert square_eigensolves == [(120, 120)] * 2

    def test_dense_below_the_crossover(self):
        # small groups take the identity as one block, the dense solve: -2 I gives exact zeros
        group = named_group("S4")
        assert group.order < qpd_module._BLOCK_MIN_ORDER
        phi = GroupFunction(group, -delta_at_identity(group, 2.0).values)
        phi1, phi2, cert = decompose(phi)
        basis, layout = qpd_module._invariant_basis(group)
        assert np.array_equal(basis, np.eye(24)) and layout == [(0, 24, 24)]
        assert abs(phi1.values).max() == 0.0
        assert cert.negative_squares == 24


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_group_function_rejects_bad_values_by_name(bad):
    # one value per element, all finite: a NaN would pass the symmetry test
    # (NaN > tol is False) and reach the negative-square count
    good = [1.0, 0.5, 0.5]
    assert negative_squares(GroupFunction(cyclic(3), good)) == 0
    if bad == "shape":
        values, message = good[:2], r"must be of length 3, got \(2,\)"
    else:
        values, message = [np.nan if bad == "nan" else np.inf, 0.5, 0.5], "has non-finite entries"
    with pytest.raises(ValueError, match=f"^values {message}"):
        negative_squares(GroupFunction(cyclic(3), values))


@pytest.mark.parametrize("name", ["S5", "S5xZ2", "D30"])
def test_real_products_with_the_basis_match_the_complex_product(name):
    # U is real and the Hermitian Gram is Hermitian bit for bit, so Phi U is one
    # real product on Phi's float view; it agrees with the complex product
    group = BLOCK_GROUPS[name]()
    basis, layout = qpd_module._invariant_basis(group)
    assert basis.dtype == float
    rng = np.random.default_rng(56)
    for k in (1, 3):
        phi, _, _ = random_qpd_function(group, rng, k=k)
        gram = qpd_module._hermitian_gram(phi)
        assert np.array_equal(gram, gram.conj().T)
        pu = qpd_module._gram_times_basis(gram, basis)
        assert pu.flags.c_contiguous
        assert np.linalg.norm(pu - gram @ basis.astype(complex)) <= 1e-14 * np.linalg.norm(gram)
        for start, stop, d in layout:
            ub = basis[:, start:stop].reshape(group.order, -1, d).transpose(1, 0, 2)
            pub = pu[:, start:stop].reshape(group.order, -1, d).transpose(1, 0, 2)
            t = qpd_module._real_left(ub.transpose(0, 2, 1), pub)
            assert_allclose(t, ub.transpose(0, 2, 1).astype(complex) @ pub,
                            rtol=0, atol=1e-14 * np.linalg.norm(gram))
