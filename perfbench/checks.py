"""Independent checks of kreinkit's outputs, through public functions only.

No check reads a report's ``certified`` flag or its own residual fields: each
one recomputes the certificate from the input and the returned object.
Each check returns a list of failure messages; an empty list is a pass.
The names are bound when this module is imported, before any tracing wraps
them, so checking never shows up in a trace.
"""

from __future__ import annotations

import numpy as np

from kreinkit import (
    GroupFunction,
    build_space,
    fixtures,
    fractional_linear,
    graph_of,
    invariance_residual,
    mobius_matrix,
    named_group,
    operator_norm,
    subspace_signature,
    verify_decomposition,
)

#: Relative invariance residual allowed, against ||A|| with no max(1, .) floor.
RESIDUAL_RTOL = 1e-8
#: Slack on ||W|| <= 1, on fixed-point map residuals and on unitarity defects.
ABS_TOL = 1e-8


def rep_norm(matrices) -> float:
    """max_g ||pi(g)||, computed here rather than through GroupRep.norm."""
    return float(np.max(np.linalg.norm(np.asarray(matrices), 2, axis=(-2, -1))))


def check_mnps(space, a, norm_a: float, w) -> list[str]:
    w = np.asarray(w)
    if w.shape != (space.n_plus, space.n_minus) or not np.all(np.isfinite(w)):
        return [f"W has shape {w.shape} or non-finite entries"]
    fails = []
    res = invariance_residual(space, a, w)
    if not res <= RESIDUAL_RTOL * norm_a:
        fails.append(f"relative invariance residual {res / norm_a:.2e} at {space.n_minus},{space.n_plus}")
    w_norm = operator_norm(w)
    if not w_norm <= 1.0 + ABS_TOL:
        fails.append(f"||W|| = {w_norm:.12g} > 1")
    if subspace_signature(space, graph_of(space, w)).n_pos != 0:
        fails.append("graph of W has a positive direction")
    return fails


def check_fixed_point(rep, k) -> list[str]:
    k = np.asarray(k)
    if not operator_norm(k) < 1.0:
        return [f"||K|| = {operator_norm(k):.6g} is not inside the ball"]
    residual = max(operator_norm(fractional_linear(rep.space, m, k) - k) for m in rep.matrices)
    return [] if residual <= ABS_TOL else [f"fixed-point map residual {residual:.2e}"]


def check_unitarization(rep, norm_pi: float, v, v_inv) -> list[str]:
    v, v_inv = np.asarray(v), np.asarray(v_inv)
    eye = np.eye(rep.space.n)
    fails = []
    inverse_defect = operator_norm(v @ v_inv - eye)
    if not inverse_defect <= ABS_TOL * operator_norm(v) * operator_norm(v_inv):
        fails.append(f"V V^-1 - I has norm {inverse_defect:.2e}")
    defect = max(operator_norm((u := v @ m @ v_inv).conj().T @ u - eye) for m in rep.matrices)
    if not defect <= ABS_TOL:
        fails.append(f"unitarity defect {defect:.2e}")
    cond = operator_norm(v) * operator_norm(v_inv)
    if not cond <= 2.0 * norm_pi**2 + 1.0 + ABS_TOL:
        fails.append(f"cond {cond:.6g} over 2||pi||^2+1 = {2.0 * norm_pi**2 + 1.0:.6g}")
    return fails


def check_mobius_matrix(space, center, m) -> list[str]:
    """M_A is J-unitary and its fractional-linear map sends 0 to the center A."""
    j = space.j
    fails = []
    defect = operator_norm(m.conj().T @ j @ m - j)
    if not defect <= ABS_TOL * operator_norm(m) ** 2:
        fails.append(f"M_A is not J-unitary (defect {defect:.2e})")
    image = fractional_linear(space, m, np.zeros_like(center))
    if not operator_norm(image - center) <= ABS_TOL:
        fails.append("M_A does not map 0 to its center")
    return fails


def check_decomposition(phi, phi1, phi2) -> list[str]:
    cert = verify_decomposition(phi, phi1, phi2)
    return [] if cert.ok(scale=phi.max_abs) else [f"decomposition certificate fails: {cert.as_dict()}"]


def truncate(space, a, level):
    """The ladder level's space and A compressed onto its first k- and k+ coordinates."""
    km, kp = level
    idx = np.r_[np.arange(km), space.n_minus + np.arange(kp)]
    return build_space(km, kp), a[np.ix_(idx, idx)]


def check_ladder(space, a, levels, norms, embedded) -> list[str]:
    """Every level's W against its own truncation of A; the last level is A itself."""
    fails = []
    for level, norm_sub, w_full in zip(levels, norms, embedded):
        sub_space, sub = truncate(space, a, level)
        fails += check_mnps(sub_space, sub, norm_sub, np.asarray(w_full)[: level[1], : level[0]])
    return fails


def self_test() -> list[str]:
    """Each check passes a known answer and rejects a perturbed one.

    The known answers come from constructions, not from the solvers, so a
    broken solver shows as failed operations rather than as a broken check.
    """
    rng = np.random.default_rng(7)
    errors = []

    def expect(name, good, bad):
        if good:
            errors.append(f"{name}: check rejects a correct answer: {good}")
        if not bad:
            errors.append(f"{name}: check accepts a perturbed answer")

    def bump(x):
        return x + 1e-4 * fixtures.random_complex(rng, x.shape)

    # A = T B T^-1 with T = [[I, 0], [W, I]] and B block upper triangular
    # leaves the graph of W invariant.
    space = build_space(2, 6)
    w = fixtures.random_ball_point(space, rng, norm=0.5)
    graph = np.eye(space.n, dtype=complex)
    graph[space.n_minus:, : space.n_minus] = w
    b = fixtures.random_complex(rng, (space.n, space.n))
    b[space.n_minus:, : space.n_minus] = 0.0
    a = graph @ b @ np.linalg.inv(graph)
    expect("mnps", check_mnps(space, a, operator_norm(a), w), check_mnps(space, a, operator_norm(a), bump(w)))

    # M_C = [[S, C^H T], [C S, T]] with S = (I - C^H C)^-1/2, T = (I - C C^H)^-1/2.
    def inv_sqrt(h):
        eigs, vecs = np.linalg.eigh(h)
        return (vecs / np.sqrt(eigs)) @ vecs.conj().T

    c = fixtures.random_ball_point(space, rng, norm=0.5)
    s = inv_sqrt(np.eye(space.n_minus) - c.conj().T @ c)
    t = inv_sqrt(np.eye(space.n_plus) - c @ c.conj().T)
    m = np.block([[s, c.conj().T @ t], [c @ s, t]])
    expect("Mobius matrix", check_mobius_matrix(space, c, m), check_mobius_matrix(space, c, bump(m)))

    # pi(g) = M_C diag(u(g)) M_-C fixes C, and V = M_-C makes it unitary.
    group = named_group("S3")
    rep, center = fixtures.random_conjugated_rep(group, build_space(2, 4), rng)
    expect("fixed point", check_fixed_point(rep, center), check_fixed_point(rep, bump(center)))
    v, v_inv = mobius_matrix(rep.space, -center), mobius_matrix(rep.space, center)
    norm_pi = rep_norm(rep.matrices)
    expect("unitarization", check_unitarization(rep, norm_pi, v, v_inv),
           check_unitarization(rep, norm_pi, bump(v), v_inv))

    # random_qpd_function draws phi together with its parts phi = phi_pd - phi_ft.
    phi, phi_pd, phi_ft = fixtures.random_qpd_function(group, rng, k=1)
    shifted = phi_pd.values.copy()
    shifted[group.identity] += 1e-4 * phi.max_abs
    expect("decomposition", check_decomposition(phi, phi_pd, phi_ft),
           check_decomposition(phi, GroupFunction(group, shifted), phi_ft))
    return errors
