"""End-to-end acceptance checks, one test per release criterion.

Each test pins one guarantee: the sample-size grid, the coverage and
tightness of the order-statistic calibration, the confidence curve's
local maxima, robust-counterpart and LMI certificate oracles, joint
calibration conservativeness, reconstruction, method ordering on the
replicated benchmark, and the conic solver itself. Tolerances and
budgets are stated inline; every randomized check runs on a fixed seed.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from roset import (baselines, calibrate, conic, harness as hz, model,
                   reformulate as rf, shapes)
from roset.calibrate import CalibResult

EPS = DELTA = 0.05

GRID_PAIRS = (
    (0.05, 0.2), (0.05, 0.1), (0.05, 0.05), (0.05, 0.01), (0.05, 0.005),
    (0.05, 0.001), (0.05, 0.00001),
    (0.2, 0.05), (0.1, 0.05), (0.05, 0.05), (0.01, 0.05), (0.001, 0.05),
)
GRID_RO = (32, 45, 59, 90, 104, 135, 225, 14, 29, 59, 299, 2995)
GRID_SG = {
    5: (134, 158, 181, 229, 248, 291, 405, 44, 89, 181, 913, 9151),
    11: (272, 306, 336, 398, 423, 476, 613, 82, 167, 336, 1693, 16959),
    50: (1114, 1180, 1237, 1349, 1392, 1482, 1703, 304, 615, 1237, 6211,
         62165),
    100: (2162, 2254, 2331, 2482, 2539, 2658, 2945, 576, 1161, 2331, 11691,
          116989),
}


def gaussian_instance(seed, d, b=10.0):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(1.0, 3.0, size=d)
    raw = rng.normal(size=(d, d)) * 0.3
    sigma = raw @ raw.T + 0.5 * np.eye(d)
    spec = model.CcpSpec(objective=-mu, family=model.SingleLinear(),
                         rhs=[b], epsilon=EPS, delta=DELTA)
    return spec, hz.gaussian_sampler(mu, sigma)


# ---------------------------------------------------------------------------
# 1. sample-size comparison grid, integer exact, under 5 seconds


def test_criterion_01_sample_size_grid():
    start = time.perf_counter()
    for idx, (eps, delta) in enumerate(GRID_PAIRS):
        assert calibrate.min_phase2_size(eps, delta) == GRID_RO[idx], \
            f"two-phase size off at {(eps, delta)}"
        for d, col in GRID_SG.items():
            assert baselines.sg_min_size(eps, delta, d) == col[idx], \
                f"scenario size off at {(eps, delta, d)}"
    elapsed = time.perf_counter() - start
    warnings.warn(
        "note: the scenario count at (eps=0.2, delta=0.05, d=5) evaluates "
        "to 44 from the binomial tail; tabulations listing 50 shift the "
        "tail index by one", stacklevel=1)
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. coverage of the minimal Phase-2 size across 10,000 simulations


def test_criterion_02_coverage_simulation():
    start = time.perf_counter()
    n2 = calibrate.min_phase2_size(EPS, DELTA)
    i_star = calibrate.calib_index_upper(n2, EPS, DELTA)
    rng = np.random.default_rng(202602)
    u = rng.random((10_000, n2))
    t = np.partition(u, i_star - 1, axis=1)[:, i_star - 1]
    coverage = float(np.mean(t >= 1.0 - EPS))
    elapsed = time.perf_counter() - start
    assert 0.94 <= coverage <= 0.97, f"coverage {coverage:.4f}"
    assert elapsed < 10.0, f"simulation took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. tightness at n2 = 10,000 over 500 replications


def test_criterion_03_tightness_large_phase2():
    start = time.perf_counter()
    n2 = 10_000
    i_star = calibrate.calib_index_upper(n2, EPS, DELTA)
    rng = np.random.default_rng(202603)
    content = np.empty(500)
    for r in range(500):
        u = rng.random(n2)
        # uniform data: the set content at threshold t is F(t) = t
        content[r] = np.partition(u, i_star - 1)[i_star - 1]
    elapsed = time.perf_counter() - start
    assert abs(content.mean() - (1.0 - EPS)) <= 0.005, \
        f"mean content {content.mean():.5f}"
    coverage = float(np.mean(content >= 1.0 - EPS))
    assert abs(coverage - (1.0 - DELTA)) <= 0.03, f"coverage {coverage:.4f}"
    assert elapsed < 60.0, f"tightness run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. confidence-curve local maxima


def test_criterion_04_confidence_curve_maxima():
    dt = {n2: 1.0 - calibrate.upper_rank_confidence(n2, EPS, DELTA)[1]
          for n2 in range(59, 202)}
    maxima = [n for n in range(60, 200) if dt[n] > dt[n - 1] and dt[n] > dt[n + 1]]
    if dt[59] > dt[60]:
        maxima.insert(0, 59)
    assert maxima == [59, 93, 124, 153, 181]


# ---------------------------------------------------------------------------
# 5. linear robust-counterpart oracles, 100 instances per shape


def _vertices(rows, offs):
    d = rows.shape[1]
    verts = []
    for idx in itertools.combinations(range(rows.shape[0]), d):
        sub = rows[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, offs[list(idx)])
        if np.all(rows @ v <= offs + 1e-9):
            verts.append(v)
    return np.array(verts)


def test_criterion_05_linear_rc_oracles():
    rng = np.random.default_rng(2026051)
    n_samp = 100_000

    # ellipsoid: analytic worst case vs a dense boundary sample
    for i in range(100):
        m = int(rng.integers(2, 5))
        mu = rng.normal(size=m)
        raw = rng.normal(size=(m, m))
        ell = shapes.Ellipsoid(center=mu, sigma=raw @ raw.T + 0.3 * np.eye(m))
        rho = math.sqrt(float(rng.uniform(0.5, 3.0)))
        x = rng.normal(size=m)
        analytic = float(mu @ x + rho * np.linalg.norm(ell.chol.T @ x))
        u = rng.normal(size=(n_samp, m))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u[::50] *= rng.uniform(0, 1, size=u[::50].shape[0])[:, None]
        sampled = float(np.max((mu + rho * u @ ell.chol.T) @ x))
        assert analytic >= sampled - 1e-9, f"ellipsoid instance {i}"
        assert analytic - sampled <= 1e-2 * (1.0 + abs(analytic)), \
            f"ellipsoid gap at instance {i}"

    # polytope: dual LP equals vertex enumeration, dominates sampled combos
    for i in range(100):
        d = 2 + (i % 2)
        extra = rng.normal(size=(3, d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        rows = np.vstack([np.eye(d), -np.eye(d), extra])
        offs = np.concatenate([rng.uniform(0.5, 2.0, size=2 * d),
                               rng.uniform(0.6, 1.5, size=3)])
        x = rng.normal(size=d)
        verts = _vertices(rows, offs)
        best = float(np.max(verts @ x))
        r = rows.shape[0]
        dual = conic.ConicProgram(
            c=offs, A=np.vstack([rows.T, -np.eye(r)]),
            b=np.concatenate([x, np.zeros(r)]),
            cones=(conic.Zero(d), conic.Nonneg(r)))
        sol = conic.solve(dual)
        assert sol.status is conic.SolveStatus.OPTIMAL
        assert abs(sol.obj - best) <= 1e-6 * (1.0 + abs(best)), \
            f"polytope dual vs vertices at instance {i}"
        w = rng.random((n_samp, verts.shape[0]))
        w /= w.sum(axis=1, keepdims=True)
        pts = np.vstack([verts, w @ verts])
        assert np.all(pts @ rows.T <= offs + 1e-9)
        sampled = float(np.max(pts @ x))
        # dominance up to the solver's own convergence tolerance
        assert sol.obj >= sampled - 1e-6 * (1.0 + abs(best))
        assert sol.obj - sampled <= 1e-2 * (1.0 + abs(sol.obj))

    # vecnorm rows: per-row analytic worst case on a mapped ball
    for i in range(100):
        l, d = 2, 2
        m = l * d
        abar = rng.normal(size=(l, d))
        raw = rng.normal(size=(m, m))
        m_factor = raw @ raw.T + 1.5 * np.eye(m)
        rho = float(rng.uniform(0.5, 2.0))
        x = rng.normal(size=d)
        u = rng.normal(size=(n_samp, m))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vecs = abar.reshape(-1) + rho * np.linalg.solve(m_factor, u.T).T
        sampled = (vecs.reshape(n_samp, l, d) @ x).max(axis=0)
        tails = np.linalg.solve(m_factor.T, np.eye(m))
        for j in range(l):
            xi = np.zeros(m)
            xi[j * d:(j + 1) * d] = x
            analytic = float(abar[j] @ x + rho * np.linalg.norm(tails.T @ xi))
            assert analytic >= sampled[j] - 1e-9, f"vecnorm instance {i}"
            assert analytic - sampled[j] <= 1e-2 * (1.0 + abs(analytic))

    # pca: reduced-space worst case with null-space lift noise
    for i in range(100):
        latent = rng.normal(size=(300, 2)) @ np.diag([2.0, 0.7])
        pts = latent @ rng.normal(size=(2, 4)) + rng.normal(size=4)
        pca = shapes.pca_ellipsoid(pts, variance_keep=0.95)
        m, rk = pca.dim, pca.rank
        s = float(rng.uniform(0.5, 2.5))
        x = pca.projection.T @ rng.normal(size=rk)
        mx = pca.projection @ x
        analytic = float(pca.center_reduced @ mx
                         + math.sqrt(s) * math.sqrt(mx @ pca.sigma_reduced @ mx))
        w = rng.normal(size=(n_samp, rk))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        z = pca.center_reduced + math.sqrt(s) * w @ pca.chol.T
        null = np.eye(m) - pca.projection.T @ pca.projection
        lift = z @ pca.projection + rng.normal(size=(n_samp, m)) @ null.T
        sampled = float(np.max(lift @ x))
        assert analytic >= sampled - 1e-9, f"pca instance {i}"
        assert analytic - sampled <= 1e-2 * (1.0 + abs(analytic))


# ---------------------------------------------------------------------------
# 6. LMI certificate oracles


def _reconstruct_lmi(block, z):
    svec = block.offsets - np.hstack([block.rows_x, block.rows_aux]) @ z
    return conic.mat_from_triu(svec, block.cones[0].side)


def _slack_feasible(block, x, hi):
    def eig_min(t):
        return float(np.linalg.eigvalsh(
            _reconstruct_lmi(block, np.concatenate([x, [t]])))[0])

    for _ in range(3):
        a, b = 0.0, hi
        for _ in range(200):
            m1, m2 = a + (b - a) / 3, b - (b - a) / 3
            if eig_min(m1) < eig_min(m2):
                a = m1
            else:
                b = m2
        best = (a + b) / 2
        if hi - best > 1e-6 * hi or eig_min(best) >= -1e-9:
            return eig_min(best) >= -1e-9
        hi *= 10.0
    return eig_min(best) >= -1e-9


def _quad_values(nominal, dirs, x, u_batch, q):
    a0, b0, c0 = nominal
    v0 = a0 @ x
    vj = np.stack([aj @ x for aj, _, _ in dirs])
    ax = v0 + u_batch @ vj
    lin = b0 @ x + u_batch @ np.array([bj @ x for _, bj, _ in dirs])
    const = c0 + u_batch @ np.array([cj for _, _, cj in dirs])
    return np.einsum("np,np->n", ax, ax) - lin - const - q


def test_criterion_06_lmi_certificate_oracles():
    rng = np.random.default_rng(2026061)

    # structural reductions: symmetry, k = 0, rho = 0
    block = rf.rc_quadratic_ellipsoid((np.eye(2), np.zeros(2), 1.0), [])
    assert np.array_equal(_reconstruct_lmi(block, np.zeros(2)), np.eye(3))
    mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    b_mat = -0.5 * np.eye(2)
    blk0 = rf.rc_sdp_normbounded(mats, b_mat, 0.0)
    x0 = rng.normal(size=2)
    mat0 = _reconstruct_lmi(blk0, np.concatenate([x0, [0.0]]))
    assert np.array_equal(mat0, mat0.T)
    a00 = b_mat + x0[0] * mats[0] + x0[1] * mats[1]
    assert np.allclose(mat0[4:, 4:], a00, atol=1e-12)
    assert np.allclose(mat0[:4], 0.0, atol=1e-12)

    # 10 quadratic instances: certificate tracks and implies feasibility
    for i in range(10):
        a0 = rng.normal(size=(2, 2))
        b0 = rng.normal(size=2)
        c0 = float(rng.normal())
        dirs = [(0.4 * rng.normal(size=(2, 2)), 0.4 * rng.normal(size=2),
                 0.4 * float(rng.normal())) for _ in range(2)]
        x = rng.normal(size=2)
        u = rng.normal(size=(4000, 2))
        u /= np.maximum(1.0, np.linalg.norm(u, axis=1, keepdims=True))
        worst = float(np.max(_quad_values((a0, b0, c0), dirs, x, u, 0.0)))
        margin = 0.25 * (1.0 + abs(worst))
        feas = rf.rc_quadratic_ellipsoid((a0, b0, c0), dirs, q=worst + margin)
        hi = 10.0 * (1.0 + float(np.max(np.abs(feas.offsets))))
        assert _slack_feasible(feas, x, hi), f"quadratic instance {i}"
        infeas = rf.rc_quadratic_ellipsoid((a0, b0, c0), dirs,
                                           q=worst - margin)
        hi = 10.0 * (1.0 + float(np.max(np.abs(infeas.offsets))))
        assert not _slack_feasible(infeas, x, hi)
        fresh = rng.normal(size=(10_000, 2))
        fresh /= np.maximum(1.0, np.linalg.norm(fresh, axis=1, keepdims=True))
        vals = _quad_values((a0, b0, c0), dirs, x, fresh, worst + margin)
        assert float(np.max(vals)) <= 1e-8, f"quadratic implication {i}"

    # 10 norm-bounded matrix instances
    for i in range(10):
        mats = []
        for _ in range(2):
            raw = rng.normal(size=(2, 2))
            mats.append((raw + raw.T) / 2 + 2.0 * np.eye(2))
        raw = rng.normal(size=(2, 2))
        b_mat = -(raw @ raw.T) / 2
        rho = float(rng.uniform(0.1, 0.5))
        x = np.abs(rng.normal(size=2)) + 0.5
        lx = np.vstack([xj * np.eye(2) for xj in x])

        zetas = rng.normal(size=(3000, 4, 2))
        zetas /= np.linalg.norm(zetas, ord=2, axis=(1, 2))[:, None, None]
        zetas *= rho
        a0 = b_mat + x[0] * mats[0] + x[1] * mats[1]
        pert = np.swapaxes(zetas, 1, 2) @ lx
        base = float(np.min(np.linalg.eigvalsh(
            a0 + pert + np.swapaxes(pert, 1, 2))[:, 0]))
        margin = 0.3 * (1.0 + abs(base))
        ok = rf.rc_sdp_normbounded(mats, b_mat + (margin - base) * np.eye(2),
                                   rho)
        assert _slack_feasible(ok, x, 50.0), f"matrix instance {i}"
        bad = rf.rc_sdp_normbounded(mats, b_mat - (margin + base) * np.eye(2),
                                    rho)
        assert not _slack_feasible(bad, x, 50.0)
        fresh = rng.normal(size=(10_000, 4, 2))
        fresh /= np.linalg.norm(fresh, ord=2, axis=(1, 2))[:, None, None]
        fresh *= rho
        a0_ok = (b_mat + (margin - base) * np.eye(2)
                 + x[0] * mats[0] + x[1] * mats[1])
        pert = np.swapaxes(fresh, 1, 2) @ lx
        mins = np.linalg.eigvalsh(a0_ok + pert + np.swapaxes(pert, 1, 2))[:, 0]
        assert float(np.min(mins)) >= -1e-8, f"matrix implication {i}"


# ---------------------------------------------------------------------------
# 7. joint calibration is never less conservative than per-block


def test_criterion_07_joint_calibration_conservative():
    rng = np.random.default_rng(2026071)
    d, l = 2, 2
    for trial in range(50):
        mu = rng.uniform(1.0, 2.0, size=l * d)
        sd = rng.uniform(0.3, 1.2, size=l * d)
        data = rng.normal(size=(240, l * d)) * sd + mu
        ph1, ph2 = data[:120], data[120:]
        comps = tuple(
            shapes.fit_ellipsoid(ph1[:, i * d:(i + 1) * d], mode="diag")
            for i in range(l))
        joint = shapes.DiagEllipsoid(
            center=np.concatenate([c.center for c in comps]),
            variances=np.concatenate([c.variances for c in comps]))
        inter = shapes.Intersection(components=comps)
        ps_joint = shapes.build_prediction_set(joint, ph2, EPS, DELTA)
        ps_ind = shapes.build_prediction_set(inter, ph2, EPS, DELTA)
        rho_each = [
            shapes.build_prediction_set(comps[i], ph2[:, i * d:(i + 1) * d],
                                        EPS, DELTA).size
            for i in range(l)]
        assert ps_joint.size >= max(rho_each) - 1e-12, f"trial {trial}"
        assert ps_joint.size >= ps_ind.size - 1e-12

        spec = model.CcpSpec(
            objective=-np.ones(d), family=model.JointLinear(l=l),
            rhs=np.full(l, 5.0), epsilon=EPS, delta=DELTA,
            det=model.DetConstraints(a_ub=np.vstack([np.eye(d), -np.eye(d)]),
                                     b_ub=np.full(2 * d, 50.0)))
        f_joint = conic.solve(rf.assemble_ro(spec, ps_joint).program).obj
        f_ind = conic.solve(rf.assemble_ro(spec, ps_ind).program).obj
        assert f_joint >= f_ind - 1e-6, f"objective ordering at trial {trial}"


# ---------------------------------------------------------------------------
# 8. reconstruction: monotone improvement and violation confidence


def test_criterion_08_reconstruction_guarantees():
    spec, sampler = gaussian_instance(123, d=11)
    mu = -spec.objective
    sigma_chol = sampler.params["chol"]
    sigma = sigma_chol @ sigma_chol.T
    bad = 0
    improved_checked = 0
    for r in range(100):
        data = sampler.draw(np.random.Generator(np.random.PCG64(5000 + r)),
                            120)
        rec = hz.reconstruction_pipeline(data, spec, n1=60, seed=r)
        if rec.status_reconstructed != "optimal":
            bad += 1
            continue
        if rec.rho <= 0.0:
            assert rec.obj_tilde <= rec.obj_hat + 1e-8, \
                f"reconstruction regressed at rep {r} (rho={rec.rho:.4g})"
            improved_checked += 1
        if hz.gaussian_violation(rec.x_tilde, mu, sigma, 10.0) > EPS:
            bad += 1
    delta_hat = bad / 100.0
    assert improved_checked >= 50, "too few rho <= 0 replications to attest"
    assert delta_hat <= 0.10, f"delta_hat {delta_hat:.3f}"


# ---------------------------------------------------------------------------
# 9. replicated benchmark ordering


def test_criterion_09_benchmark_ordering():
    start = time.perf_counter()
    spec, sampler = gaussian_instance(123, d=11)
    common = dict(spec=spec, sampler=sampler, n=120)
    rep_ro = hz.run_replications(
        hz.ExperimentConfig(method="ro", n1=60, **common), 100, 77)
    rep_rc = hz.run_replications(
        hz.ExperimentConfig(method="ro_reconstructed", n1=60, **common),
        100, 77)
    rep_sg = hz.run_replications(
        hz.ExperimentConfig(method="sg", **common), 100, 77)
    assert rep_ro.delta_hat == 0.0, f"ro delta_hat {rep_ro.delta_hat}"
    assert rep_sg.delta_hat >= 0.5, f"sg delta_hat {rep_sg.delta_hat}"
    assert rep_rc.mean_objective < rep_ro.mean_objective, \
        "reconstruction did not improve on the two-phase objective"

    spec_h, sampler_h = gaussian_instance(321, d=100)
    rep_hd = hz.run_replications(
        hz.ExperimentConfig(spec=spec_h, sampler=sampler_h, method="sg",
                            n=120), 100, 78)
    unbounded = sum(1 for rec in rep_hd.records if rec.status == "unbounded")
    assert unbounded >= 90, f"only {unbounded} of 100 runs were unbounded"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"benchmark took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 10. conic solver suite


def test_criterion_10_solver_suite():
    rng = np.random.default_rng(2026101)

    # 50 bounded feasible LPs against vertex enumeration
    for i in range(50):
        d = 2 + (i % 2)
        extra = rng.normal(size=(4, d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        rows = np.vstack([np.eye(d), -np.eye(d), extra])
        offs = np.concatenate([rng.uniform(0.5, 2.5, size=2 * d),
                               rng.uniform(0.4, 1.6, size=4)])
        c = rng.normal(size=d)
        verts = _vertices(rows, offs)
        best = float(np.min(verts @ c))
        prog = conic.ConicProgram(c=c, A=rows, b=offs,
                                  cones=(conic.Nonneg(rows.shape[0]),))
        sol = conic.solve(prog)
        assert sol.status is conic.SolveStatus.OPTIMAL
        assert abs(sol.obj - best) <= 1e-6 * (1.0 + abs(best)), \
            f"LP instance {i}: {sol.obj} vs {best}"

    # 20 ball-constrained problems against the closed form
    for i in range(20):
        d = int(rng.integers(2, 6))
        p = rng.normal(size=d)
        radius = float(rng.uniform(0.5, 2.0))
        c = rng.normal(size=d)
        prog = conic.ConicProgram(
            c=c, A=np.vstack([np.zeros((1, d)), -np.eye(d)]),
            b=np.concatenate([[radius], -p]),
            cones=(conic.SecondOrder(d + 1),))
        sol = conic.solve(prog)
        closed = float(c @ p - radius * np.linalg.norm(c))
        x_star = p - radius * c / np.linalg.norm(c)
        assert sol.status is conic.SolveStatus.OPTIMAL
        assert abs(sol.obj - closed) <= 1e-6 * (1.0 + abs(closed)), \
            f"ball instance {i}"
        assert np.allclose(sol.x, x_star, atol=1e-5)

    # 20 pathological programs classified exactly
    classified = 0
    for i in range(10):
        a = rng.normal(size=3)
        b0 = float(rng.uniform(-1.0, 1.0))
        gap = float(rng.uniform(0.5, 2.0))
        prog = conic.ConicProgram(
            c=rng.normal(size=3), A=np.vstack([a, -a]),
            b=np.array([b0, -b0 - gap]), cones=(conic.Nonneg(2),))
        if conic.solve(prog).status is conic.SolveStatus.INFEASIBLE:
            classified += 1
    for i in range(10):
        a = rng.normal(size=3)
        prog = conic.ConicProgram(
            c=a, A=a.reshape(1, 3), b=np.array([float(rng.uniform(0.5, 3.0))]),
            cones=(conic.Nonneg(1),))
        if conic.solve(prog).status is conic.SolveStatus.UNBOUNDED:
            classified += 1
    assert classified == 20, f"only {classified}/20 statuses correct"
