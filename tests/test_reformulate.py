"""Robust counterpart correctness: closed forms, dual oracles, LMI structure."""

import itertools
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from roset import conic, model, reformulate as rf, shapes
from roset.calibrate import CalibResult, calibrate_size
from roset.errors import (
    DegenerateShapeError,
    ExportOnlyProgramError,
    InvalidArgumentError,
    InvalidScaleError,
    UnsupportedCombinationError,
)


def fake_calib(s):
    return CalibResult(i_star=1, s=float(s), n2=1, epsilon=0.5, delta=0.5,
                       tie_warning=False)


def pset_with_size(shape, s):
    return shapes.PredictionSet(shape=shape, size=float(s), calib=fake_calib(s))


def solve_block(block, c_x):
    """Minimize c_x'x subject to a single RC block."""
    c = np.concatenate([np.asarray(c_x, dtype=float), np.zeros(block.n_aux)])
    A = np.hstack([block.rows_x, block.rows_aux])
    prog = conic.ConicProgram(c=c, A=A, b=block.offsets, cones=block.cones)
    return conic.solve(prog)


def pin_spec(objective, family, rhs, x_fixed, eps=0.5, delta=0.5):
    """CcpSpec whose deterministic rows pin x to x_fixed exactly."""
    x_fixed = np.asarray(x_fixed, dtype=float)
    d = x_fixed.size
    det = model.DetConstraints(
        a_ub=np.vstack([np.eye(d), -np.eye(d)]),
        b_ub=np.concatenate([x_fixed, -x_fixed]),
    )
    return model.CcpSpec(objective=objective, family=family, rhs=rhs,
                         epsilon=eps, delta=delta, det=det)


def feasible_at(spec, pset):
    sol = conic.solve(rf.assemble_ro(spec, pset).program)
    assert sol.status in (conic.SolveStatus.OPTIMAL, conic.SolveStatus.INFEASIBLE)
    return sol.status is conic.SolveStatus.OPTIMAL


def poly_vertices(rows, offs, tol=1e-7):
    """All vertices of {xi : rows xi <= offs} by basis enumeration (d <= 3)."""
    rows = np.asarray(rows, dtype=float)
    offs = np.asarray(offs, dtype=float)
    d = rows.shape[1]
    verts = []
    for idx in itertools.combinations(range(rows.shape[0]), d):
        sub = rows[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, offs[list(idx)])
        if np.all(rows @ v <= offs + tol):
            verts.append(v)
    assert verts, "polytope has no vertices"
    return np.array(verts)


# ---------------------------------------------------------------------------
# linear x ellipsoid


def test_ellipsoid_rc_unit_ball_feasible_set():
    block = rf.rc_linear_ellipsoid(np.zeros(2), np.eye(2), 1.0, 1.0)
    sol = solve_block(block, [-1.0, 0.0])
    assert sol.status is conic.SolveStatus.OPTIMAL
    assert abs(sol.obj + 1.0) <= 1e-7
    assert np.allclose(sol.x[:2], [1.0, 0.0], atol=1e-6)


def test_ellipsoid_rc_rho_zero_is_nominal_row():
    block = rf.rc_linear_ellipsoid([1.0, 0.0], np.eye(2), 0.0, 1.0)
    assert block.cones == (conic.Nonneg(1),)
    assert np.array_equal(block.rows_x, [[1.0, 0.0]])
    assert np.array_equal(block.offsets, [1.0])
    # an all-zero factor leaves no norm term even at rho > 0
    block = rf.rc_linear_ellipsoid([1.0, 0.0], np.zeros((2, 2)), 2.0, 1.0)
    assert block.cones == (conic.Nonneg(1),)
    assert np.array_equal(block.rows_x, [[1.0, 0.0]])
    assert np.array_equal(block.offsets, [1.0])


def test_ellipsoid_rc_rejects_negative_rho():
    with pytest.raises(InvalidArgumentError):
        rf.rc_linear_ellipsoid(np.zeros(2), np.eye(2), -0.5, 1.0)


def test_ellipsoid_rc_sampling_oracle():
    """Analytic worst case dominates, and nearly meets, a dense sampled max."""
    rng = np.random.default_rng(20260817)
    n_samp = 100_000
    for _ in range(10):
        mu = rng.normal(size=2)
        raw = rng.normal(size=(2, 2))
        sigma = raw @ raw.T + 0.3 * np.eye(2)
        s = float(rng.uniform(0.5, 3.0))
        x = rng.normal(size=2)
        ell = shapes.Ellipsoid(center=mu, sigma=sigma)
        rho = np.sqrt(s)
        analytic = mu @ x + rho * np.linalg.norm(ell.chol.T @ x)

        theta = rng.uniform(0, 2 * np.pi, size=n_samp)
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        radii = np.ones(n_samp)
        radii[::3] = rng.uniform(0, 1, size=radii[::3].size)  # some interior
        pts = mu + rho * (radii[:, None] * u) @ ell.chol.T
        sampled = float(np.max(pts @ x))
        assert analytic >= sampled - 1e-9
        assert analytic - sampled <= 1e-2 * (1.0 + abs(analytic))


# ---------------------------------------------------------------------------
# linear x polytope


def test_polytope_rc_box_gives_l1_constraint():
    """Worst case over the box [-1,1]^2 is the l1 norm of x."""
    rows = np.vstack([np.eye(2), -np.eye(2)])
    block = rf.rc_linear_polytope(rows, np.ones(4), 1.0)
    sol = solve_block(block, [-1.0, -2.0])
    # min -x1-2x2 over ||x||_1 <= 1 is -2 at (0, 1)
    assert abs(sol.obj + 2.0) <= 1e-6


def test_polytope_rc_single_point_reduces_to_nominal():
    a = np.array([2.0, -1.0])
    rows = np.vstack([np.eye(2), -np.eye(2)])
    offs = np.concatenate([a, -a])
    block = rf.rc_linear_polytope(rows, offs, 1.0)
    # sup over {a} of xi'x = a'x, so min c'x s.t. a'x <= 1 with c = -a
    sol = solve_block(block, -a)
    assert abs(sol.obj + 1.0) <= 1e-6


def test_polytope_rc_vertex_enumeration_oracle():
    """The dual LP value equals the max of x over enumerated vertices."""
    rng = np.random.default_rng(42)
    for d in (2, 3):
        for _ in range(8):
            rows = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(3, d))])
            offs = np.concatenate([
                rng.uniform(0.5, 2.0, size=2 * d),
                0.8 * np.linalg.norm(rows[2 * d:], axis=1),
            ])
            x = rng.normal(size=d)
            best = float(np.max(poly_vertices(rows, offs) @ x))

            r = rows.shape[0]
            dual = conic.ConicProgram(
                c=offs, A=np.vstack([rows.T, -np.eye(r)]),
                b=np.concatenate([x, np.zeros(r)]),
                cones=(conic.Zero(d), conic.Nonneg(r)),
            )
            sol = conic.solve(dual)
            assert sol.status is conic.SolveStatus.OPTIMAL
            assert abs(sol.obj - best) <= 1e-6 * (1.0 + abs(best))

            # and the RC block flips feasibility exactly at that value
            shape_pin = pin_spec(np.zeros(d), model.SingleLinear(),
                                 [best + 1e-4 * (1 + abs(best))], x)
            pset = pset_with_size(
                shapes.Polytope(rows=rows, offsets=offs, interior=np.zeros(d)), 1.0)
            assert feasible_at(shape_pin, pset)
            shape_pin = pin_spec(np.zeros(d), model.SingleLinear(),
                                 [best - 1e-4 * (1 + abs(best))], x)
            assert not feasible_at(shape_pin, pset)


def test_polytope_level_offsets_match_transform():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    box = shapes.fit_polytope_box(pts)
    for s in (0.25, 1.0, 1.8):
        offs = rf.polytope_level_offsets(box, s)
        probe = rng.normal(size=(500, 3))
        inside_t = shapes.transform_values(box, probe) <= s
        inside_h = np.all(probe @ box.rows.T <= offs + 1e-12, axis=1)
        assert np.array_equal(inside_t, inside_h)


# ---------------------------------------------------------------------------
# linear x vecnorm (joint rows)


def test_vecnorm_identity_reduces_to_ellipsoid_rc():
    abar = np.array([[0.5, -0.25]])
    b1 = rf.rc_linear_vecnorm(abar, np.eye(2), 0.7, [1.3])
    b2 = rf.rc_linear_ellipsoid(abar[0], np.eye(2), 0.7, 1.3)
    assert np.array_equal(b1.rows_x, b2.rows_x)
    assert np.array_equal(b1.offsets, b2.offsets)
    assert b1.cones == b2.cones


def test_vecnorm_two_rows_identity_factor():
    """With M = I and Abar = 0 every row's worst case is ||x||_2."""
    block = rf.rc_linear_vecnorm(np.zeros((2, 2)), np.eye(4), 1.0, [1.0, 1.0])
    assert block.cones == (conic.SecondOrder(3), conic.SecondOrder(3))
    sol = solve_block(block, [-1.0, -1.0])
    # min -(x1+x2) s.t. ||x|| <= 1  ->  -(sqrt 2)
    assert abs(sol.obj + np.sqrt(2.0)) <= 1e-7


def test_vecnorm_sampling_oracle():
    rng = np.random.default_rng(11)
    l, d = 2, 2
    m = l * d
    n_samp = 100_000
    for _ in range(6):
        abar = rng.normal(size=(l, d))
        raw = rng.normal(size=(m, m))
        m_factor = raw @ raw.T + 1.5 * np.eye(m)
        rho = float(rng.uniform(0.5, 2.0))
        x = rng.normal(size=d)
        block = rf.rc_linear_vecnorm(abar, m_factor, rho, np.zeros(l))

        u = rng.normal(size=(n_samp, m))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u[::4] *= rng.uniform(0, 1, size=u[::4].shape[0])[:, None]
        vecs = abar.reshape(-1) + rho * np.linalg.solve(m_factor, u.T).T
        mats = vecs.reshape(n_samp, l, d)
        sampled = (mats @ x).max(axis=0)

        tails = np.linalg.solve(m_factor.T, np.eye(m))
        for i in range(l):
            xi = np.zeros(m)
            xi[i * d:(i + 1) * d] = x
            analytic = abar[i] @ x + rho * np.linalg.norm(tails.T @ xi)
            assert analytic >= sampled[i] - 1e-9
            assert analytic - sampled[i] <= 1e-2 * (1.0 + abs(analytic))
        assert block.cones == (conic.SecondOrder(1 + d), conic.SecondOrder(1 + d))


def test_vecnorm_singular_factor_rejected():
    m_factor = np.zeros((4, 4))
    with pytest.raises(DegenerateShapeError):
        rf.rc_linear_vecnorm(np.zeros((2, 2)), m_factor, 1.0, [1.0, 1.0])


def test_vecnorm_qr_rows_match_uncompressed_rows():
    """Each row's d x d QR factor has the optimum of its raw (m x d) tail."""
    rng = np.random.default_rng(23)
    for l, d in itertools.product(range(1, 5), range(1, 7)):
        m = l * d
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        m_factor = (q * rng.uniform(0.5, 2.0, size=m)) @ q.T
        abar = 0.05 * rng.normal(size=(l, d))
        rho = float(rng.uniform(1.0, 2.0))
        b = rng.uniform(1.0, 2.0, size=l)
        tails = np.linalg.solve(m_factor.T, np.eye(m))
        raw = [(f"row{i}", rf.Block(
            rows_x=np.vstack([abar[i], -rho * tails[:, i * d: (i + 1) * d]]),
            rows_aux=np.zeros((1 + m, 0)), offsets=np.append(b[i], np.zeros(m)),
            cones=(conic.SecondOrder(1 + m),))) for i in range(l)]
        compressed = rf.rc_linear_vecnorm(abar, m_factor, rho, b)
        assert compressed.cones == (conic.SecondOrder(1 + d),) * l
        det = model.DetConstraints(a_ub=np.vstack([-np.eye(d), np.ones((1, d))]),
                                   b_ub=np.append(np.full(d, 0.2), 0.3))
        c = rng.normal(size=d)
        for extra in ([], rf.det_blocks(det)):
            sol_qr = conic.solve(rf.assemble(c, [("qr", compressed)] + extra)[0])
            sol_raw = conic.solve(rf.assemble(c, raw + extra)[0])
            assert sol_qr.status is sol_raw.status is conic.SolveStatus.OPTIMAL
            assert abs(sol_qr.obj - sol_raw.obj) <= 1e-7 * max(1.0, abs(sol_raw.obj))


# ---------------------------------------------------------------------------
# linear x pca


def _pca_pair(rng, m=4, r=2, n=400):
    latent = rng.normal(size=(n, r)) @ np.diag([2.0, 0.7])
    mix = rng.normal(size=(r, m))
    pts = latent @ mix + rng.normal(size=m)
    return shapes.pca_ellipsoid(pts, variance_keep=0.95)


def test_pca_identity_projection_matches_ellipsoid():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(60, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
    ell = shapes.fit_ellipsoid(pts)
    pca = shapes.PcaEllipsoid(projection=np.eye(2), center_reduced=ell.center,
                              sigma_reduced=ell.sigma)
    s = 2.3
    blk = rf.rc_pca(pca, np.sqrt(s), 1.0)
    sol_p = solve_block(blk, [-1.0, -0.4])
    sol_e = solve_block(rf.rc_linear_ellipsoid(ell.center, ell.chol, np.sqrt(s), 1.0),
                        [-1.0, -0.4])
    assert abs(sol_p.obj - sol_e.obj) <= 1e-6


def test_pca_zero_size_reduces_to_lifted_center():
    rng = np.random.default_rng(6)
    pca = _pca_pair(rng)
    m = pca.dim
    x = pca.projection.T @ rng.normal(size=pca.rank)  # in the row space
    lifted = pca.projection.T @ pca.center_reduced
    value = float(lifted @ x)
    fam = model.SingleLinear()
    pset = pset_with_size(pca, 0.0)
    assert feasible_at(pin_spec(np.zeros(m), fam, [value + 1e-6], x), pset)
    assert not feasible_at(pin_spec(np.zeros(m), fam, [value - 1e-6], x), pset)


def test_pca_sampling_oracle():
    rng = np.random.default_rng(7)
    n_samp = 100_000
    for trial in range(5):
        pca = _pca_pair(rng)
        m, r = pca.dim, pca.rank
        s = float(rng.uniform(0.5, 2.5))
        x = pca.projection.T @ rng.normal(size=r)
        mx = pca.projection @ x
        analytic = pca.center_reduced @ mx + np.sqrt(s) * np.sqrt(
            mx @ pca.sigma_reduced @ mx)

        w = rng.normal(size=(n_samp, r))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        z = pca.center_reduced + np.sqrt(s) * w @ pca.chol.T
        null = np.eye(m) - pca.projection.T @ pca.projection
        lift = z @ pca.projection + rng.normal(size=(n_samp, m)) @ null.T
        sampled = float(np.max(lift @ x))
        assert analytic >= sampled - 1e-9
        assert analytic - sampled <= 1e-2 * (1.0 + abs(analytic))

        fam = model.SingleLinear()
        pset = pset_with_size(pca, s)
        margin = 1e-4 * (1.0 + abs(analytic))
        assert feasible_at(pin_spec(np.zeros(m), fam, [analytic + margin], x), pset)
        assert not feasible_at(pin_spec(np.zeros(m), fam, [analytic - margin], x), pset)


# ---------------------------------------------------------------------------
# quadratic LMI


def _reconstruct_lmi(block, z):
    svec = block.offsets - np.hstack([block.rows_x, block.rows_aux]) @ z
    side = block.cones[0].side
    return conic.mat_from_triu(svec, side)


def _random_quadratic(rng, d=2, p=2, k=3):
    a0 = rng.normal(size=(p, d))
    b0 = rng.normal(size=d)
    c0 = float(rng.normal())
    dirs = [(0.4 * rng.normal(size=(p, d)), 0.4 * rng.normal(size=d),
             0.4 * float(rng.normal())) for _ in range(k)]
    return (a0, b0, c0), dirs


def _quad_value(nominal, dirs, x, u, q):
    a0, b0, c0 = nominal
    a = a0 + sum(uj * aj for uj, (aj, _, _) in zip(u, dirs))
    b = b0 + sum(uj * bj for uj, (_, bj, _) in zip(u, dirs))
    c = c0 + sum(uj * cj for uj, (_, _, cj) in zip(u, dirs))
    return float(x @ (a.T @ a) @ x - b @ x - c - q)


def _lmi_tau_feasible(block, x, lo=0.0, hi=None):
    """Search tau >= lo maximizing the smallest eigenvalue (concave in tau)."""
    def eig_min(tau):
        return float(np.linalg.eigvalsh(
            _reconstruct_lmi(block, np.concatenate([x, [tau]])))[0])

    if hi is None:
        hi = 10.0 * (1.0 + float(np.max(np.abs(block.offsets))))
    for _ in range(3):
        a, b = lo, hi
        for _ in range(200):
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if eig_min(m1) < eig_min(m2):
                a = m1
            else:
                b = m2
        best = (a + b) / 2
        if hi - best > 1e-6 * hi or eig_min(best) >= -1e-9:
            return eig_min(best) >= -1e-9
        hi *= 10.0
    return eig_min(best) >= -1e-9


def test_quadratic_lmi_k0_identity_example():
    block = rf.rc_quadratic_ellipsoid((np.eye(2), np.zeros(2), 1.0), [])
    mat = _reconstruct_lmi(block, np.zeros(2))
    assert np.array_equal(mat, np.eye(3))
    assert block.n_aux == 0


def test_quadratic_lmi_entries_match_recipe():
    """Every entry of the certificate matrix equals its defining formula."""
    rng = np.random.default_rng(9)
    nominal, dirs = _random_quadratic(rng, d=3, p=2, k=2)
    a0, b0, c0 = nominal
    q = 0.6
    block = rf.rc_quadratic_ellipsoid(nominal, dirs, q=q)
    x = rng.normal(size=3)
    tau = 0.37
    mat = _reconstruct_lmi(block, np.concatenate([x, [tau]]))
    k, p = len(dirs), a0.shape[0]
    assert mat.shape == (1 + k + p, 1 + k + p)
    assert np.array_equal(mat, mat.T)
    assert abs(mat[0, 0] - (c0 + q + b0 @ x - tau)) <= 1e-12
    for j, (aj, bj, cj) in enumerate(dirs):
        assert abs(mat[0, 1 + j] - (cj / 2 + bj @ x / 2)) <= 1e-12
        assert abs(mat[1 + j, 1 + j] - tau) <= 1e-12
        assert np.allclose(mat[1 + k:, 1 + j], aj @ x, atol=1e-12)
    assert np.allclose(mat[1 + k:, 0], a0 @ x, atol=1e-12)
    assert np.allclose(mat[1 + k:, 1 + k:], np.eye(p), atol=1e-12)


def test_quadratic_lmi_feasibility_tracks_worst_case():
    """Shift the rhs above/below the sampled worst case; the LMI must follow."""
    rng = np.random.default_rng(10)
    for trial in range(6):
        nominal, dirs = _random_quadratic(rng, d=2, p=2, k=2)
        x = rng.normal(size=2)
        u = rng.normal(size=(4000, 2))
        u /= np.maximum(1.0, np.linalg.norm(u, axis=1, keepdims=True))
        worst = max(_quad_value(nominal, dirs, x, uu, 0.0) for uu in u)
        margin = 0.25 * (1.0 + abs(worst))

        feas = rf.rc_quadratic_ellipsoid(nominal, dirs, q=worst + margin)
        assert _lmi_tau_feasible(feas, x)
        infeas = rf.rc_quadratic_ellipsoid(nominal, dirs, q=worst - margin)
        assert not _lmi_tau_feasible(infeas, x)

        # the implication direction on fresh samples
        fresh = rng.normal(size=(10_000, 2))
        fresh /= np.maximum(1.0, np.linalg.norm(fresh, axis=1, keepdims=True))
        q = worst + margin
        vals = [_quad_value(nominal, dirs, x, uu, q) for uu in fresh[:200]]
        assert max(vals) <= 1e-8


def test_quadratic_lmi_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        rf.rc_quadratic_ellipsoid((np.eye(2), np.zeros(2), 0.0),
                                  [(np.eye(3), np.zeros(3), 0.0)])


# ---------------------------------------------------------------------------
# semidefinite LMI


def _sdp_instance(rng, d=2, p=2):
    mats = []
    for _ in range(d):
        raw = rng.normal(size=(p, p))
        mats.append((raw + raw.T) / 2 + p * np.eye(p))
    raw = rng.normal(size=(p, p))
    b_mat = -((raw @ raw.T) / p)
    return mats, b_mat


def _sdp_lambda_feasible(block, x, span=50.0):
    def eig_min(lam):
        return float(np.linalg.eigvalsh(
            _reconstruct_lmi(block, np.concatenate([x, [lam]])))[0])

    a, b = 0.0, span
    for _ in range(200):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        if eig_min(m1) < eig_min(m2):
            a = m1
        else:
            b = m2
    return eig_min((a + b) / 2) >= -1e-9


def test_sdp_lmi_structure():
    rng = np.random.default_rng(12)
    mats, b_mat = _sdp_instance(rng)
    rho = 0.4
    block = rf.rc_sdp_normbounded(mats, b_mat, rho)
    d, p = len(mats), b_mat.shape[0]
    x = rng.normal(size=d)
    lam = 0.9
    mat = _reconstruct_lmi(block, np.concatenate([x, [lam]]))
    assert mat.shape == (d * p + p, d * p + p)
    assert np.array_equal(mat, mat.T)
    assert np.allclose(mat[:d * p, :d * p], lam * np.eye(d * p), atol=1e-12)
    a0 = b_mat + sum(xj * mj for xj, mj in zip(x, mats))
    assert np.allclose(mat[d * p:, d * p:], a0 - lam * np.eye(p), atol=1e-12)
    for j in range(d):
        assert np.allclose(mat[j * p:(j + 1) * p, d * p:], rho * x[j] * np.eye(p),
                           atol=1e-12)


def test_sdp_lmi_rho_zero_reduces_to_nominal():
    rng = np.random.default_rng(13)
    mats, b_mat = _sdp_instance(rng)
    block = rf.rc_sdp_normbounded(mats, b_mat, 0.0)
    d, p = len(mats), b_mat.shape[0]
    x = rng.normal(size=d)
    mat = _reconstruct_lmi(block, np.concatenate([x, [0.0]]))
    a0 = b_mat + sum(xj * mj for xj, mj in zip(x, mats))
    assert np.allclose(mat[d * p:, d * p:], a0, atol=1e-12)
    assert np.allclose(mat[:d * p], 0.0, atol=1e-12)


def test_sdp_lmi_feasibility_tracks_worst_case():
    rng = np.random.default_rng(14)
    for trial in range(5):
        mats, b_mat = _sdp_instance(rng)
        d, p = len(mats), b_mat.shape[0]
        rho = float(rng.uniform(0.1, 0.5))
        x = np.abs(rng.normal(size=d)) + 0.5

        zetas = rng.normal(size=(3000, d * p, p))
        zetas /= np.linalg.norm(zetas, ord=2, axis=(1, 2))[:, None, None]
        zetas *= rho

        def worst_eig(bb):
            a0 = bb + sum(xj * mj for xj, mj in zip(x, mats))
            lx = np.vstack([xj * np.eye(p) for xj in x])
            vals = [np.linalg.eigvalsh(a0 + lx.T @ z + z.T @ lx)[0] for z in zetas]
            return float(min(vals))

        base = worst_eig(b_mat)
        margin = 0.3 * (1.0 + abs(base))
        ok = rf.rc_sdp_normbounded(mats, b_mat + (margin - base) * np.eye(p), rho)
        assert _sdp_lambda_feasible(ok, x)
        bad_b = b_mat - (margin + base) * np.eye(p)
        bad = rf.rc_sdp_normbounded(mats, bad_b, rho)
        assert not _sdp_lambda_feasible(bad, x)

        # implication on fresh perturbations
        fresh = rng.normal(size=(10_000, d * p, p))
        fresh /= np.linalg.norm(fresh, ord=2, axis=(1, 2))[:, None, None]
        fresh *= rho
        a0 = (b_mat + (margin - base) * np.eye(p)
              + sum(xj * mj for xj, mj in zip(x, mats)))
        lx = np.vstack([xj * np.eye(p) for xj in x])
        mins = [np.linalg.eigvalsh(a0 + lx.T @ z + z.T @ lx)[0]
                for z in fresh[:500]]
        assert min(mins) >= -1e-8


def test_sdp_lmi_rejects_asymmetric_blocks():
    with pytest.raises(InvalidArgumentError):
        rf.rc_sdp_normbounded([np.array([[0.0, 1.0], [0.0, 0.0]])],
                              -np.eye(2), 0.5)


# ---------------------------------------------------------------------------
# union / partition


def test_union_single_component_identity():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(80, 2)) + [3.0, 1.0]
    ell = shapes.fit_ellipsoid(pts)
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[20.0], epsilon=0.5, delta=0.5)
    direct = rf.assemble_ro(spec, pset_with_size(ell, 1.7))
    unioned = rf.assemble_ro(
        spec, pset_with_size(shapes.Union(components=(ell,)), 1.7))
    assert np.array_equal(direct.program.A, unioned.program.A)
    assert np.array_equal(direct.program.b, unioned.program.b)
    assert direct.program.cones == unioned.program.cones


def test_union_two_balls_structure_and_direction():
    """Two SOC rows per constraint; cluster fit beats one ellipsoid."""
    rng = np.random.default_rng(16)
    blob1 = rng.normal(size=(70, 2)) * 0.4 + [4.0, 4.0]
    blob2 = rng.normal(size=(70, 2)) * 0.4 + [-4.0, 4.0]
    pts = np.vstack([blob1, blob2])
    phase2 = np.vstack([
        rng.normal(size=(60, 2)) * 0.4 + [4.0, 4.0],
        rng.normal(size=(60, 2)) * 0.4 + [-4.0, 4.0],
    ])
    union = shapes.cluster_union(pts, k=2, seed=0)
    single = shapes.fit_ellipsoid(pts)
    # probe the spread direction: one ellipsoid must span both blobs there
    spec = model.CcpSpec(
        objective=[-1.0, 0.0], family=model.SingleLinear(), rhs=[30.0],
        epsilon=0.05, delta=0.05,
        det=model.DetConstraints(a_ub=np.vstack([np.eye(2), -np.eye(2)]),
                                 b_ub=np.full(4, 50.0)),
    )
    ps_u = shapes.build_prediction_set(union, phase2, 0.05, 0.05)
    ps_s = shapes.build_prediction_set(single, phase2, 0.05, 0.05)
    rp_u = rf.assemble_ro(spec, ps_u)
    assert sum(isinstance(c, conic.SecondOrder) for c in rp_u.program.cones) == 2
    sol_u = conic.solve(rp_u.program)
    sol_s = conic.solve(rf.assemble_ro(spec, ps_s).program)
    assert sol_u.status is conic.SolveStatus.OPTIMAL
    assert sol_s.status is conic.SolveStatus.OPTIMAL
    assert sol_u.obj <= sol_s.obj + 1e-9


def test_union_rejects_nested():
    inner = shapes.Union(components=(shapes.Ball(center=np.zeros(2)),))
    with pytest.raises(InvalidArgumentError):
        shapes.Union(components=(inner,))


def _nearest_center_case(rng, d, l, with_det):
    """Centers (one repeated), rhs and a spec whose programs have an optimum.

    Every b_i > 0, so x = 0 is feasible.  The objective is minus a positive
    combination of projected centers c_{k,i}, and every program below
    implies c_{k,i}'x <= b_i, so the objective is bounded below.
    """
    m = l * d
    centers = rng.normal(size=(3, m))
    centers = np.vstack([centers, centers[1]])
    rhs = rng.uniform(1.0, 3.0, size=l)
    weights = rng.uniform(0.2, 1.0, size=(centers.shape[0], l))
    objective = -np.einsum("ki,kid->d", weights, centers.reshape(-1, l, d))
    det = None
    if with_det:
        det = model.DetConstraints(a_ub=np.vstack([np.eye(d), -np.eye(d)]),
                                   b_ub=np.full(2 * d, 4.0))
    family = model.SingleLinear() if l == 1 else model.JointLinear(l=l)
    spec = model.CcpSpec(objective=objective, family=family, rhs=rhs,
                         epsilon=0.5, delta=0.5, det=det)
    return centers, spec


def _nearest_center_cases():
    """The seeded (d, l, with_det, centers, spec, s) cases of seed 31."""
    rng = np.random.default_rng(31)
    for d, l, with_det in itertools.product(range(1, 6), range(1, 4), (False, True)):
        centers, spec = _nearest_center_case(rng, d, l, with_det)
        yield d, l, with_det, centers, spec, float(rng.uniform(0.05, 0.6))


def _ball_stack(spec, centers, s):
    """The program with one _vecnorm_blocks stack per ball of size s."""
    l = spec.rhs.size
    balls = [(f"b{k}", rf._vecnorm_blocks(c.reshape(l, -1), np.eye(c.size),
                                          np.sqrt(s), spec.rhs))
             for k, c in enumerate(centers)]
    return rf.assemble(spec.objective, rf.det_blocks(spec.det) + balls)[0]


def _solved_objective(program):
    sol = conic.solve(program)
    assert sol.status is conic.SolveStatus.OPTIMAL
    return sol.obj


def test_nearest_center_blocks_match_per_component_blocks():
    """Ball basis, all-ball union and box grid against per-component blocks.

    The references are the per-component counterparts: one
    _vecnorm_blocks stack per ball and one rc_linear_polytope dual per box
    and row.  The references leave the repeated center out (it adds
    nothing to the set), so the comparison also checks that dropping
    duplicate rows is exact.
    """
    for d, l, with_det, centers, spec, s in _nearest_center_cases():
        m = l * d
        det = rf.det_blocks(spec.det)
        want = _solved_objective(_ball_stack(spec, centers[:3], s))
        basis = shapes.BallBasis(centers=centers)
        union = shapes.Union(components=basis.components)
        for shape in (basis, union):
            rp = rf.assemble_ro(spec, pset_with_size(shape, s))
            assert rp.program.n_vars == d + 1
            got = _solved_objective(rp.program)
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (d, l, with_det)

        grid = shapes.BoxGrid(centers=centers, half_width=0.7)
        half = 0.7 * s
        box_rows = np.vstack([np.eye(m), -np.eye(m)])
        ref_boxes = [(f"g{k}.{i}", rf.rc_linear_polytope(
                         box_rows, np.concatenate([c + half, half - c]),
                         float(spec.rhs[i]), x_dim=d, x_offset=i * d))
                     for k, c in enumerate(centers[:3]) for i in range(l)]
        want = _solved_objective(rf.assemble(spec.objective, det + ref_boxes)[0])
        rp = rf.assemble_ro(spec, pset_with_size(grid, s))
        assert rp.program.n_vars == 2 * d
        got = _solved_objective(rp.program)
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (d, l, with_det)


def test_repeated_second_order_blocks_solve_optimal():
    """Per-ball stacks that keep the repeated center repeat its SOC blocks
    exactly; the program solves to the optimum of the distinct centers."""
    for d, l, with_det, centers, spec, s in _nearest_center_cases():
        want = _solved_objective(_ball_stack(spec, centers[:3], s))
        sol = conic.solve(_ball_stack(spec, centers, s))
        assert sol.status is conic.SolveStatus.OPTIMAL, (d, l, with_det, sol.reason)
        assert abs(sol.obj - want) <= 1e-7 * max(1.0, abs(want)), (d, l, with_det)


def test_nearest_center_blocks_at_size_zero_are_nominal_rows():
    rng = np.random.default_rng(32)
    for d, l in ((1, 1), (3, 2), (2, 3)):
        centers, spec = _nearest_center_case(rng, d, l, with_det=False)
        nominal = [(f"b{k}", rf._vecnorm_blocks(c.reshape(l, d), np.eye(l * d),
                                                0.0, spec.rhs))
                   for k, c in enumerate(centers)]
        want = _solved_objective(rf.assemble(spec.objective, nominal)[0])
        # the repeated center leaves l duplicate rows out of 4 * l
        for shape in (shapes.BallBasis(centers=centers),
                      shapes.BoxGrid(centers=centers, half_width=0.5)):
            rp = rf.assemble_ro(spec, pset_with_size(shape, 0.0))
            assert rp.program.cones == (conic.Nonneg(3 * l),)
            assert rp.program.n_vars == d
            got = _solved_objective(rp.program)
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_nearest_center_rows_are_the_worst_case_over_the_set():
    """At the solved x, every row of the counterpart equals the worst case
    of its constraint row over one calibrated ball or box, attained at a
    boundary point of the set, and sampled points of the set stay below it."""
    rng = np.random.default_rng(33)
    d, l = 3, 2
    m = l * d
    a_rows = rng.normal(size=(m, m)) * 0.3
    data = rng.normal(size=(300, m)) @ a_rows.T + rng.uniform(0.5, 1.5, size=m)
    spec = model.CcpSpec(objective=-np.ones(d), family=model.JointLinear(l=l),
                         rhs=[4.0, 5.0], epsilon=0.1, delta=0.1,
                         det=model.DetConstraints(a_ub=-np.eye(d), b_ub=np.zeros(d)))
    for shape in (shapes.ball_basis(data[:40]),
                  shapes.grid_histogram(data[:150], width=0.8)):
        pset = shapes.build_prediction_set(shape, data[150:], 0.1, 0.1)
        s = pset.size
        rp = rf.assemble_ro(spec, pset)
        sol = conic.solve(rp.program)
        assert sol.status is conic.SolveStatus.OPTIMAL
        x = sol.x[:d]
        if isinstance(shape, shapes.BallBasis):
            radius, aux = np.sqrt(s), np.array([np.linalg.norm(x)])
            direction = x / np.linalg.norm(x)
            unit = rng.normal(size=(500, m))
            unit *= (rng.uniform(size=(500, 1)) ** (1 / m)
                     / np.linalg.norm(unit, axis=1, keepdims=True))
        else:
            radius, aux = shape.half_width * s, np.abs(x)
            direction = np.sign(x)
            unit = rng.uniform(-1.0, 1.0, size=(500, m))
        blk = rf._basic_linear_blocks(shape, s, spec.rhs, l, d)[0]
        r = blk.cones[0].dim - (0 if isinstance(shape, shapes.BallBasis) else 2 * d)
        lhs = blk.rows_x[:r] @ x + blk.rows_aux[:r] @ aux
        assert np.all(lhs <= blk.offsets[:r] + 1e-7)
        inside = (shape.centers[:, None, :] + radius * unit).reshape(-1, m)
        assert np.all(shapes.transform_values(shape, inside) <= s * (1 + 1e-12))
        values = rf.linear_row_values(inside, x, l).reshape(len(shape.centers), -1, l)
        assert np.all(values <= spec.rhs + 1e-7)
        for center, center_values in zip(shape.centers, values):
            for i in range(l):
                c_i = center[i * d: (i + 1) * d]
                row = np.flatnonzero(np.all(blk.rows_x[:r] == c_i, axis=1)
                                     & (blk.offsets[:r] == spec.rhs[i]))
                assert row.size == 1
                worst = c_i + radius * direction
                assert abs(worst @ x - lhs[row[0]]) <= 1e-9 * (1.0 + abs(lhs[row[0]]))
                assert np.all(center_values[:, i] <= lhs[row[0]] + 1e-9)
                boundary = center.copy()
                boundary[i * d: (i + 1) * d] = worst
                assert shapes.transform_eval(shape, boundary) <= s * (1 + 1e-12)


def test_union_of_balls_document_assembles_like_ball_basis():
    rng = np.random.default_rng(34)
    pts = rng.normal(size=(12, 4))
    spec = model.CcpSpec(objective=[-1.0, -0.5], family=model.JointLinear(l=2),
                         rhs=[3.0, 2.0], epsilon=0.5, delta=0.5)
    legacy = shapes.shape_from_json(shapes.shape_to_json(
        shapes.Union(components=tuple(shapes.Ball(center=p) for p in pts))))
    basis = shapes.shape_from_json(shapes.shape_to_json(shapes.ball_basis(pts)))
    assert isinstance(basis, shapes.BallBasis)
    assert np.array_equal(basis.centers, pts)
    old = rf.assemble_ro(spec, pset_with_size(legacy, 0.3)).program
    new = rf.assemble_ro(spec, pset_with_size(basis, 0.3)).program
    assert np.array_equal(old.A, new.A)
    assert np.array_equal(old.b, new.b)
    assert old.cones == new.cones


def test_partition_single_block_identity():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(60, 2)) + [1.0, 2.0]
    comp = shapes.fit_ellipsoid(pts, mode="diag")
    inter = shapes.Intersection(components=(comp,), blocks=((0, 1),))
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[15.0], epsilon=0.5, delta=0.5)
    direct = rf.assemble_ro(spec, pset_with_size(comp, 1.2))
    part = rf.assemble_ro(spec, pset_with_size(inter, 1.2))
    assert np.array_equal(direct.program.A, part.program.A)
    assert direct.program.cones == part.program.cones


def test_partition_matches_manual_per_row_stack():
    c1 = shapes.DiagEllipsoid(center=[0.0, 0.5], variances=[1.0, 2.0])
    c2 = shapes.DiagEllipsoid(center=[1.0, -0.5], variances=[2.0, 0.5])
    inter = shapes.Intersection(components=(c1, c2), blocks=((0, 1), (2, 3)))
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.JointLinear(l=2),
                         rhs=[4.0, 4.0], epsilon=0.5, delta=0.5)
    s = 1.5
    rp = rf.assemble_ro(spec, pset_with_size(inter, s))
    rho = np.sqrt(s)
    b1 = rf.rc_linear_ellipsoid(c1.center, np.diag(np.sqrt(c1.variances)), rho, 4.0)
    b2 = rf.rc_linear_ellipsoid(c2.center, np.diag(np.sqrt(c2.variances)), rho, 4.0)
    assert np.array_equal(rp.program.A, np.vstack([b1.rows_x, b2.rows_x]))
    assert np.array_equal(rp.program.b, np.concatenate([b1.offsets, b2.offsets]))


def test_partition_misaligned_blocks_rejected():
    c1 = shapes.Ball(center=np.zeros(2))
    c2 = shapes.Ball(center=np.zeros(2))
    inter = shapes.Intersection(components=(c1, c2), blocks=((0, 2), (1, 3)))
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.JointLinear(l=2),
                         rhs=[4.0, 4.0], epsilon=0.5, delta=0.5)
    with pytest.raises(InvalidArgumentError):
        rf.assemble_ro(spec, pset_with_size(inter, 1.0))


def test_plain_intersection_unsupported():
    inter = shapes.Intersection(components=(
        shapes.Ball(center=np.zeros(2)), shapes.Ball(center=np.ones(2))))
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[5.0], epsilon=0.5, delta=0.5)
    with pytest.raises(UnsupportedCombinationError):
        rf.assemble_ro(spec, pset_with_size(inter, 1.0))


def test_joint_vs_individual_conservativeness():
    """Block-diagonal data: the consolidated set is never less conservative."""
    rng = np.random.default_rng(18)
    d, l = 2, 2
    for trial in range(5):
        mu = rng.uniform(1.0, 2.0, size=l * d)
        sd = rng.uniform(0.3, 1.2, size=l * d)
        data = rng.normal(size=(240, l * d)) * sd + mu
        ph1, ph2 = data[:120], data[120:]
        comps = tuple(
            shapes.fit_ellipsoid(ph1[:, i * d:(i + 1) * d], mode="diag")
            for i in range(l)
        )
        joint = shapes.DiagEllipsoid(
            center=np.concatenate([c.center for c in comps]),
            variances=np.concatenate([c.variances for c in comps]),
        )
        inter = shapes.Intersection(
            components=comps, blocks=tuple(
                tuple(range(i * d, (i + 1) * d)) for i in range(l)))
        ps_joint = shapes.build_prediction_set(joint, ph2, 0.05, 0.05)
        ps_ind = shapes.build_prediction_set(inter, ph2, 0.05, 0.05)
        assert ps_joint.size >= ps_ind.size - 1e-12

        spec = model.CcpSpec(
            objective=-np.ones(d), family=model.JointLinear(l=l),
            rhs=np.full(l, 5.0), epsilon=0.05, delta=0.05,
            det=model.DetConstraints(a_ub=np.vstack([np.eye(d), -np.eye(d)]),
                                     b_ub=np.full(2 * d, 50.0)),
        )
        f_joint = conic.solve(rf.assemble_ro(spec, ps_joint).program).obj
        f_ind = conic.solve(rf.assemble_ro(spec, ps_ind).program).obj
        assert f_joint >= f_ind - 1e-6


# ---------------------------------------------------------------------------
# nesting monotonicity


def test_nesting_monotonicity():
    rng = np.random.default_rng(19)
    for trial in range(6):
        mu = rng.normal(size=3) + 2.0
        raw = rng.normal(size=(3, 3))
        ell = shapes.Ellipsoid(center=mu, sigma=raw @ raw.T + 0.5 * np.eye(3))
        spec = model.CcpSpec(
            objective=rng.normal(size=3), family=model.SingleLinear(),
            rhs=[float(rng.uniform(5.0, 9.0))], epsilon=0.5, delta=0.5,
            det=model.DetConstraints(a_ub=np.vstack([np.eye(3), -np.eye(3)]),
                                     b_ub=np.full(6, 10.0)),
        )
        s1 = float(rng.uniform(0.2, 1.0))
        s2 = s1 * float(rng.uniform(1.2, 3.0))
        sol1 = conic.solve(rf.assemble_ro(spec, pset_with_size(ell, s1)).program)
        sol2 = conic.solve(rf.assemble_ro(spec, pset_with_size(ell, s2)).program)
        if sol2.status is conic.SolveStatus.OPTIMAL:
            assert sol1.status is conic.SolveStatus.OPTIMAL
            assert sol1.obj <= sol2.obj + 1e-6 * (1.0 + abs(sol2.obj))


# ---------------------------------------------------------------------------
# assembly bookkeeping


def test_assemble_single_linear_ball_one_cone():
    rng = np.random.default_rng(21)
    data = rng.normal(size=(200, 2)) + [1.0, 2.0]
    shape = shapes.fit_ellipsoid(data[:100], mode="ball")
    pset = shapes.build_prediction_set(shape, data[100:], 0.05, 0.05)
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[9.0], epsilon=0.05, delta=0.05)
    rp = rf.assemble_ro(spec, pset)
    assert rp.program.cones == (conic.SecondOrder(3),)
    assert rp.mapping == (rf.Span("x", "x", 0, 2),)
    assert not rp.is_export_only


def test_assemble_ball_basis_shares_one_epigraph():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(7, 2))
    basis = shapes.ball_basis(pts)
    spec = model.CcpSpec(objective=[-1.0, 0.0], family=model.SingleLinear(),
                         rhs=[8.0], epsilon=0.5, delta=0.5)
    rp = rf.assemble_ro(spec, pset_with_size(basis, 0.4))
    assert rp.program.cones == (conic.Nonneg(7), conic.SecondOrder(3))


def test_assemble_quadratic_is_export_only():
    rng = np.random.default_rng(23)
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.Quadratic(q=2),
                         rhs=[4.0], epsilon=0.05, delta=0.05)
    data = rng.normal(size=(300, spec.data_dim)) * 0.2 + 1.0
    shape = shapes.fit_ellipsoid(data[:100], mode="diag")
    pset = shapes.build_prediction_set(shape, data[100:], 0.05, 0.05)
    rp = rf.assemble_ro(spec, pset)
    assert rp.is_export_only
    roles = {sp.role for sp in rp.mapping}
    assert roles == {"x", "lmi-slack"}
    with pytest.raises(ExportOnlyProgramError):
        conic.solve(rp.program)
    out = conic.export(rp.program, "sdpa")
    assert out.splitlines()[0] == str(rp.program.n_vars)


def test_assemble_mapping_tiles_variables():
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(50, 2))
    box = shapes.fit_polytope_box(pts)
    spec = model.CcpSpec(
        objective=[-1.0, -1.0], family=model.JointLinear(l=1), rhs=[6.0],
        epsilon=0.5, delta=0.5,
        det=model.DetConstraints(a_ub=np.eye(2), b_ub=[9.0, 9.0]),
    )
    rp = rf.assemble_ro(spec, pset_with_size(box, 0.8))
    covered = 0
    for sp in rp.mapping:
        assert sp.start == covered
        covered = sp.stop
    assert covered == rp.program.n_vars
    assert rp.mapping[0] == rf.Span("x", "x", 0, 2)
    assert any(sp.role == "polytope-dual" for sp in rp.mapping)
    assert rp.rows[0].role == "deterministic"
    assert all(sp.role == "robust" for sp in rp.rows[1:])


def test_assemble_dimension_mismatch_rejected():
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.JointLinear(l=2),
                         rhs=[1.0, 1.0], epsilon=0.5, delta=0.5)
    ball = shapes.Ball(center=np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        rf.assemble_ro(spec, pset_with_size(ball, 1.0))


def test_unsupported_pairs_list_supported_ones():
    cal = fake_calib(1.0)
    spec_q = model.CcpSpec(objective=[1.0], family=model.Quadratic(q=1),
                           rhs=[1.0], epsilon=0.1, delta=0.1)
    poly = shapes.Polytope(rows=np.vstack([np.eye(3), -np.eye(3)]),
                           offsets=np.ones(6), interior=np.zeros(3))
    with pytest.raises(UnsupportedCombinationError) as err:
        rf.assemble_ro(spec_q, shapes.PredictionSet(shape=poly, size=1.0, calib=cal))
    assert "supported pairs" in str(err.value)

    spec_s = model.CcpSpec(objective=[1.0], family=model.Semidefinite(p=2),
                           rhs=np.zeros(4), epsilon=0.1, delta=0.1)
    ell = shapes.Ellipsoid(center=np.zeros(4), sigma=np.eye(4))
    with pytest.raises(UnsupportedCombinationError):
        rf.assemble_ro(spec_s, shapes.PredictionSet(shape=ell, size=1.0, calib=cal))


def test_assemble_semidefinite_ball():
    rng = np.random.default_rng(25)
    p, d = 2, 2
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.Semidefinite(p=p),
                         rhs=(-np.eye(p)).reshape(-1), epsilon=0.05, delta=0.05)
    raw = rng.normal(size=(160, d, p, p))
    sym = (raw + raw.transpose(0, 1, 3, 2)) / 2 + 3 * np.eye(p)
    data = sym.reshape(160, -1)
    shape = shapes.fit_ellipsoid(data[:40], mode="ball")
    pset = shapes.build_prediction_set(shape, data[40:], 0.05, 0.05)
    rp = rf.assemble_ro(spec, pset)
    assert rp.is_export_only
    assert rp.program.cones == (conic.PsdExportOnly(d * p + p),)


# ---------------------------------------------------------------------------
# reconstruction


def test_linear_row_values_matches_a_row_loop():
    rng = np.random.default_rng(29)
    for l in range(1, 4):
        for d in range(1, 6):
            pts = rng.normal(size=(37, l * d))
            x = rng.normal(size=d)
            got = rf.linear_row_values(pts, x, l)
            ref = np.array([[pt[j * d: (j + 1) * d] @ x for j in range(l)]
                            for pt in pts])
            assert got.shape == (37, l)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)
    assert rf.linear_row_values(np.empty((0, 6)), np.ones(3), 2).shape == (0, 2)


def test_reconstruction_halfspace_for_single_row():
    rng = np.random.default_rng(26)
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[3.0], epsilon=0.5, delta=0.5)
    phase2 = rng.normal(size=(40, 2)) * 0.3
    x_hat = np.array([0.6, 0.8])
    pset = rf.build_reconstruction_set(x_hat, spec, [1.0], phase2, 0.5, 0.5)
    s = pset.calib.s
    assert pset.size == 1.0
    assert np.allclose(pset.shape.rows, x_hat[None, :])
    assert np.allclose(pset.shape.offsets, [3.0 + s])
    # transform-level agreement with the margins (same induced ordering)
    vals = shapes.transform_values(pset.shape, phase2)
    margins = phase2 @ x_hat - 3.0
    assert np.array_equal(np.argsort(vals), np.argsort(margins))


def test_reconstruction_feasible_start_improves():
    """Deep feasibility of x_hat gives s < 0 and no objective regression."""
    rng = np.random.default_rng(27)
    for trial in range(5):
        d, l = 3, 2
        spec = model.CcpSpec(
            objective=-np.ones(d), family=model.JointLinear(l=l),
            rhs=np.full(l, 10.0), epsilon=0.05, delta=0.05,
        )
        phase2 = rng.normal(size=(80, l * d)) * 0.3 + 1.0
        x_hat = np.full(d, 0.5)  # margins stay well below 10
        scale = np.full(l, 2.0)
        pset = rf.build_reconstruction_set(x_hat, spec, scale, phase2, 0.05, 0.05)
        assert pset.calib.s < 0
        sol = conic.solve(rf.assemble_ro(spec, pset).program)
        assert sol.status is conic.SolveStatus.OPTIMAL
        f_hat = float(spec.objective @ x_hat)
        assert sol.obj <= f_hat + 1e-8


def test_reconstruction_optimizer_collinear_with_x_hat():
    rng = np.random.default_rng(28)
    spec = model.CcpSpec(objective=[-2.0, -1.0], family=model.SingleLinear(),
                         rhs=[4.0], epsilon=0.05, delta=0.05)
    phase2 = rng.normal(size=(80, 2)) * 0.5 + 0.8
    x_hat = np.array([1.2, 0.4])
    pset = rf.build_reconstruction_set(x_hat, spec, [1.0], phase2, 0.05, 0.05)
    sol = conic.solve(rf.assemble_ro(spec, pset).program)
    assert sol.status is conic.SolveStatus.OPTIMAL
    cross = sol.x[0] * x_hat[1] - sol.x[1] * x_hat[0]
    assert abs(cross) <= 1e-6 * (1.0 + np.linalg.norm(sol.x[:2]))


def ray_set(x_hat, offsets):
    """The reconstructed set {xi : x_hat'xi_j <= o_j for all j} at size 1."""
    x_hat = np.asarray(x_hat, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    rows = np.kron(np.eye(offsets.size), x_hat)
    interior = np.kron(offsets - 1.0, x_hat) / float(x_hat @ x_hat)
    return pset_with_size(shapes.Polytope(rows=rows, offsets=offsets,
                                          interior=interior), 1.0)


def active_at(spec, x_hat):
    """spec with each det row that x_hat misses scaled to be active there.

    solve_reconstruction takes such a row as a'x_hat = b; scaled by
    b / a'x_hat it says the same in x, for the polytope-dual oracle.
    """
    if spec.det is None:
        return spec
    ax = spec.det.a_ub @ x_hat
    scale = np.minimum(ax, spec.det.b_ub) / ax
    return replace(spec, det=model.DetConstraints(
        spec.det.a_ub * scale[:, None], spec.det.b_ub))


def test_solve_reconstruction_hand_checked_cases():
    """Each row bounds lambda in x = lambda x_hat; the objective picks an end."""
    x_hat = np.array([1.0, -2.0])
    opt = conic.SolveStatus.OPTIMAL

    def solve(objective, offsets, rhs, det=None):
        spec = model.CcpSpec(objective=objective,
                             family=model.JointLinear(l=len(rhs)), rhs=rhs,
                             epsilon=0.5, delta=0.5, det=det)
        pset = ray_set(x_hat, offsets)
        status, x = rf.solve_reconstruction(spec, x_hat, pset)
        # the polytope dual of the same set agrees
        want = conic.solve(rf.assemble_ro(active_at(spec, x_hat), pset).program)
        assert status is want.status
        if status is opt:
            assert float(spec.objective @ x) == pytest.approx(want.obj, abs=1e-7)
        return status, x

    down = [-1.0, 0.0]  # c'x_hat = -1 < 0: the largest lambda wins
    # lambda <= min(4/2, 4/8) = 0.5; the row with o_j < 0 only asks
    # lambda >= -4, which lambda >= 0 already implies
    status, x = solve(down, [2.0, 8.0, -1.0], [4.0, 4.0, 4.0])
    assert status is opt and np.array_equal(x, [0.5, -1.0])
    # no positive offset caps lambda; o_j = 0 <= b_j leaves it free
    status, x = solve(down, [-1.0, 0.0], [4.0, 4.0])
    assert status is conic.SolveStatus.UNBOUNDED and x is None
    # lambda <= 0.5 from the robust row but lambda >= 0.75 from the det
    # row (0, 1)'x = -2 lambda <= -1.5: the interval is empty
    status, x = solve(down, [8.0], [4.0],
                      det=model.DetConstraints([[0.0, 1.0]], [-1.5]))
    assert status is conic.SolveStatus.INFEASIBLE and x is None
    # o_j = 0 > b_j: the row reads 0 <= -1 whatever lambda
    status, x = solve(down, [2.0, 0.0], [4.0, -1.0])
    assert status is conic.SolveStatus.INFEASIBLE and x is None
    # c'x_hat >= 0: the smallest lambda wins, here lambda >= 0.5 from the
    # det row -2 lambda <= -1, and lambda = 0 without it
    status, x = solve([1.0, 0.0], [2.0], [4.0],
                      det=model.DetConstraints([[0.0, 1.0]], [-1.0]))
    assert status is opt and np.array_equal(x, [0.5, -1.0])
    status, x = solve([2.0, 1.0], [2.0], [4.0])  # c'x_hat = 0
    assert status is opt and not np.any(x)
    # det rows that x_hat misses are taken as active at x_hat: x_0 <= 0
    # leaves lambda free (not lambda <= 0), (0, 1)'x <= -3 asks lambda >= 1
    # (not lambda >= 1.5), so lambda = 1 stays feasible
    status, x = solve(down, [2.0], [4.0],
                      det=model.DetConstraints([[1.0, 0.0]], [0.0]))
    assert status is opt and np.array_equal(x, [2.0, -4.0])
    status, x = solve([1.0, 0.0], [2.0], [4.0],
                      det=model.DetConstraints([[0.0, 1.0]], [-3.0]))
    assert status is opt and np.array_equal(x, x_hat)
    spec = model.CcpSpec(objective=down, family=model.JointLinear(l=2),
                         rhs=[4.0, 4.0], epsilon=0.5, delta=0.5)
    with pytest.raises(InvalidArgumentError):
        rf.solve_reconstruction(spec, x_hat, ray_set(x_hat, [2.0]))


def test_solve_reconstruction_x_hat_outside_nonneg_bound():
    """x_hat 4e-8 outside x >= 0 keeps x = lambda x_hat feasible up to hi.

    Taken as it is, the row -x_1 <= 0 would read 4e-8 lambda <= 0 and pin
    lambda to 0; taken as active at x_hat it reads 0 <= 0.
    """
    x_hat = np.array([1.0, -4e-8])
    det = model.DetConstraints(-np.eye(2), np.zeros(2))
    for offset, lam in ((2.0, 2.0), (4.0, 1.0)):  # lambda <= 4 / offset
        spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.JointLinear(l=1),
                             rhs=[4.0], epsilon=0.5, delta=0.5, det=det)
        status, x = rf.solve_reconstruction(spec, x_hat, ray_set(x_hat, [offset]))
        assert status is conic.SolveStatus.OPTIMAL
        assert np.array_equal(x, lam * x_hat)
        assert float(spec.objective @ x) <= float(spec.objective @ x_hat)


def _polytope_dual_trials(seed):
    """Endless seeded reconstruction cases: (trial, spec, x_hat, pset).

    Odd trials add det rows, which x_hat misses in about a third of them.
    The set is built lazily, so walking to a late trial draws only from the
    generator.
    """
    rng = np.random.default_rng(seed)
    for trial in itertools.count():
        d, l = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        x_hat = rng.normal(size=d)
        x_hat[0] += np.sign(x_hat[0]) * 0.1
        det = None
        if trial % 2:
            a_ub = rng.normal(size=(2, d))
            det = model.DetConstraints(a_ub, rng.uniform(-1.0, 3.0, size=2))
        spec = model.CcpSpec(objective=rng.normal(size=d),
                             family=model.JointLinear(l=l),
                             rhs=rng.uniform(1.0, 10.0, size=l),
                             epsilon=0.2, delta=0.2, det=det)
        # shift the margins so that the offsets o_j take both signs
        shift = rng.uniform(-15.0, 2.0) / float(x_hat @ x_hat)
        phase2 = rng.normal(size=(40, l * d)) + shift * np.tile(x_hat, l)
        scale = rng.uniform(0.5, 2.0, size=l)
        yield trial, spec, x_hat, partial(rf.build_reconstruction_set,
                                          x_hat, spec, scale, phase2, 0.2, 0.2)


def _check_polytope_dual(spec, x_hat, pset, where):
    """Check that solve_reconstruction and the solved polytope dual agree;
    return the status."""
    status, x = rf.solve_reconstruction(spec, x_hat, pset)
    want = conic.solve(rf.assemble_ro(active_at(spec, x_hat), pset).program)
    assert status is want.status, (where, want.reason)
    if want.status is conic.SolveStatus.OPTIMAL:
        obj = float(spec.objective @ x)
        assert abs(obj - want.obj) <= 1e-7 * max(1.0, abs(want.obj)), where
    return want.status


def test_solve_reconstruction_matches_polytope_dual():
    """The closed-form ray LP and the generic polytope dual of one set agree.

    solve_reconstruction takes a det row that x_hat misses as active at
    x_hat, and the oracle gets the row scaled to say so.  Infeasible
    instances then need rho > 0 and a det row that asks lambda > hi; the
    first comes at trial 75.
    """
    seen = set()
    for trial, spec, x_hat, pset in itertools.islice(_polytope_dual_trials(29), 400):
        seen.add(_check_polytope_dual(spec, x_hat, pset(), trial))
    assert seen == {conic.SolveStatus.OPTIMAL, conic.SolveStatus.UNBOUNDED,
                    conic.SolveStatus.INFEASIBLE}


# the trials of seeds 29-32 (2000 each) on which the solver that factored the
# unscaled KKT system [[0, A', G'], [A, 0, 0], [G, 0, -W^2]] stopped with
# iter-limit, although the program has an optimum
_UNSCALED_KKT_STOPS = {
    29: (121, 266, 485, 752, 1584),
    30: (225, 399, 657, 749, 800, 1261, 1558, 1609, 1710, 1871),
    31: (566, 776, 1091, 1236, 1320, 1629, 1756),
    32: (44, 66, 287, 642, 846, 899, 1676),
}


def test_polytope_duals_that_stopped_the_unscaled_kkt_solve_optimal():
    for seed, stops in _UNSCALED_KKT_STOPS.items():
        for trial, spec, x_hat, pset in _polytope_dual_trials(seed):
            if trial in stops:
                status = _check_polytope_dual(spec, x_hat, pset(), (seed, trial))
                assert status is conic.SolveStatus.OPTIMAL, (seed, trial)
            if trial == stops[-1]:
                break


def test_reconstruction_scale_validation():
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.JointLinear(l=2),
                         rhs=[3.0, 3.0], epsilon=0.5, delta=0.5)
    phase2 = np.zeros((10, 4)) + 0.1
    with pytest.raises(InvalidScaleError):
        rf.build_reconstruction_set([1.0, 1.0], spec, [1.0, 0.0], phase2, 0.5, 0.5)
    with pytest.raises(InvalidScaleError):
        rf.build_reconstruction_set([1.0, 1.0], spec, [1.0], phase2, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        rf.build_reconstruction_set([0.0, 0.0], spec, [1.0, 1.0], phase2, 0.5, 0.5)
    spec_q = model.CcpSpec(objective=[1.0], family=model.Quadratic(q=1),
                           rhs=[1.0], epsilon=0.5, delta=0.5)
    with pytest.raises(UnsupportedCombinationError):
        rf.build_reconstruction_set([1.0], spec_q, [1.0], phase2, 0.5, 0.5)


def test_reconstruction_calibration_uses_max_margin():
    """Hand-checkable two-row case: t is the max of the scaled row margins."""
    spec = model.CcpSpec(objective=[-1.0], family=model.JointLinear(l=2),
                         rhs=[1.0, 2.0], epsilon=0.5, delta=0.5)
    x_hat = np.array([1.0])
    phase2 = np.array([
        [0.0, 0.0],   # margins (-1, -2)/k -> max -0.5
        [2.0, 1.0],   # margins (1, -1)/k  -> max 0.5
        [0.5, 4.0],   # margins (-0.5, 2)/k -> max 1.0
    ])
    pset = rf.build_reconstruction_set(x_hat, spec, [2.0, 2.0], phase2, 0.5, 0.5)
    expected = calibrate_size(np.array([-0.5, 0.5, 1.0]), 0.5, 0.5)
    assert pset.calib.s == expected.s
    assert pset.calib.i_star == expected.i_star
