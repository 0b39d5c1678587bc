"""Violation metrics, replication determinism, reconstruction pipeline."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from roset import conic, harness as hz, model, shapes
from roset.errors import InvalidArgumentError

EPS = DELTA = 0.05


def gaussian_instance(seed, d=11, b=10.0):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(1.0, 3.0, size=d)
    raw = rng.normal(size=(d, d)) * 0.3
    sigma = raw @ raw.T + 0.5 * np.eye(d)
    spec = model.CcpSpec(objective=-mu, family=model.SingleLinear(), rhs=[b],
                         epsilon=EPS, delta=DELTA)
    return spec, hz.gaussian_sampler(mu, sigma), mu, sigma


def closed_form_optimum(mu, sigma, b, eps):
    g = float(mu @ np.linalg.solve(sigma, mu))
    z = stats.norm.ppf(1.0 - eps)
    return -b * g / (g + z * math.sqrt(g))


# ---------------------------------------------------------------------------
# violation metrics


def test_gaussian_violation_quantile():
    p = hz.gaussian_violation([1.0, 0.0], [0.0, 0.0], np.eye(2), 1.6449)
    assert abs(p - 0.05) <= 1e-4


def test_gaussian_violation_edges():
    assert hz.gaussian_violation([1.0], [0.0], np.eye(1), 1e9) == pytest.approx(0.0)
    assert hz.gaussian_violation([1.0], [2.0], np.eye(1), 2.0) == pytest.approx(0.5)
    assert hz.gaussian_violation([0.0], [5.0], np.eye(1), 1.0) == 0.0
    assert hz.gaussian_violation([0.0], [5.0], np.eye(1), -1.0) == 1.0


def test_mc_violation_matches_analytic():
    rng = np.random.default_rng(0)
    spec, samp, mu, sigma = gaussian_instance(3, d=4, b=2.0)
    for trial in range(20):
        x = rng.normal(size=4)
        pa = hz.gaussian_violation(x, mu, sigma, 2.0)
        pm = hz.mc_violation(x, samp, spec, n_eval=10_000, seed=trial)
        se = math.sqrt(max(pa * (1 - pa), 1e-12) / 10_000)
        assert abs(pa - pm) <= 3 * se + 1e-9


def test_violation_rate_joint_any_row():
    spec = model.CcpSpec(objective=[1.0], family=model.JointLinear(l=2),
                         rhs=[1.0, 1.0], epsilon=0.1, delta=0.1)
    # rows are (a_1, a_2) stacked; x = 1 so lhs = the coefficients
    pts = np.array([
        [0.5, 0.5],   # neither violated
        [2.0, 0.0],   # first row violated
        [0.0, 2.0],   # second row violated
        [2.0, 2.0],   # both
    ])
    assert hz.violation_rate(spec, [1.0], pts) == 0.75


def test_violation_rate_quadratic():
    spec = model.CcpSpec(objective=[1.0, 1.0], family=model.Quadratic(q=2),
                         rhs=[1.0], epsilon=0.1, delta=0.1)
    # A = I, b = 0, c = 0: constraint value ||x||^2 > 1?
    point = np.concatenate([np.eye(2).reshape(-1), np.zeros(2), [0.0]])
    pts = np.vstack([point, point])
    assert hz.violation_rate(spec, [1.0, 1.0], pts) == 1.0  # 2 > 1
    assert hz.violation_rate(spec, [0.5, 0.5], pts) == 0.0  # 0.5 <= 1


def test_violation_rate_semidefinite():
    spec = model.CcpSpec(objective=[1.0], family=model.Semidefinite(p=2),
                         rhs=(-np.eye(2)).reshape(-1), epsilon=0.1, delta=0.1)
    good = (3.0 * np.eye(2)).reshape(-1)   # B + 3I = 2I psd
    bad = (0.5 * np.eye(2)).reshape(-1)    # B + 0.5I indefinite
    assert hz.violation_rate(spec, [1.0], np.vstack([good, bad])) == 0.5


def test_violation_rate_rejects_empty_sample():
    """A 0-row sample has no violation fraction, on every family's branch."""
    cases = [
        (model.CcpSpec(objective=[1.0], family=model.JointLinear(l=2),
                       rhs=[1.0, 1.0], epsilon=0.1, delta=0.1), [1.0]),
        (model.CcpSpec(objective=[1.0, 1.0], family=model.Quadratic(q=2),
                       rhs=[1.0], epsilon=0.1, delta=0.1), [1.0, 1.0]),
        (model.CcpSpec(objective=[1.0], family=model.Semidefinite(p=2),
                       rhs=(-np.eye(2)).reshape(-1), epsilon=0.1, delta=0.1), [1.0]),
    ]
    for spec, x in cases:
        with pytest.raises(InvalidArgumentError, match="at least one row"):
            hz.violation_rate(spec, x, np.empty((0, spec.data_dim)))


def test_rows_violated_matches_mean_of_any():
    """The column-by-column count is np.mean(np.any(...)) bit for bit,
    also where row values sit exactly at their rhs."""
    rng = np.random.default_rng(20261019)
    for l in range(1, 5):
        family = model.SingleLinear() if l == 1 else model.JointLinear(l=l)
        spec = model.CcpSpec(objective=[1.0], family=family, rhs=rng.normal(size=l),
                             epsilon=0.1, delta=0.1)
        for n in (1, 2, 7, 999, 10_007):
            values = spec.rhs + rng.normal(size=(n, l)) * rng.uniform(0.1, 3.0)
            at_rhs = rng.random((n, l)) < 0.3
            values[at_rhs] = np.broadcast_to(spec.rhs, (n, l))[at_rhs]
            want = float(np.mean(np.any(values > spec.rhs, axis=1)))
            got = hz._rows_violated(values, spec)
            assert type(got) is float
            assert got.hex() == want.hex(), (l, n)


# ---------------------------------------------------------------------------
# samplers


def test_sampler_round_trip_and_dims():
    rng = np.random.default_rng(1)
    sig = np.eye(3) * 2.0
    samplers = [
        hz.gaussian_sampler(np.arange(3.0), sig),
        hz.mixture_sampler([0.3, 0.7], rng.normal(size=(2, 3)),
                           np.stack([np.eye(3), 2 * np.eye(3)])),
        hz.scaled_beta_sampler(rng.normal(size=4), rng.normal(size=(6, 4))),
        hz.quadratic_wishart_sampler(3, q=4.0),
        hz.sdp_wishart_sampler(np.stack([np.eye(2), 2 * np.eye(2)])),
        hz.pca_synthetic_sampler(np.zeros(2), np.eye(2),
                                 rng.normal(size=(10, 2))),
    ]
    for samp in samplers:
        obj = json.loads(json.dumps(hz.sampler_to_obj(samp)))
        back = hz.sampler_from_obj(obj)
        assert hz.sampler_to_obj(back) == obj
        with pytest.raises(InvalidArgumentError, match="param"):
            hz.sampler_from_obj({**obj, "param": obj["params"]})
        assert back.kind == samp.kind
        r1 = np.random.Generator(np.random.PCG64(5))
        r2 = np.random.Generator(np.random.PCG64(5))
        a = samp.draw(r1, 8)
        c = back.draw(r2, 8)
        assert a.shape == (8, samp.dim)
        assert np.array_equal(a, c)
    for params in ({"d": 3.5, "q": 4.0}, {"d": 3, "q": 4.0, "dof": "4"},
                   {"d": 3, "q": 4.0, "mu_high": True}):
        with pytest.raises(InvalidArgumentError):
            hz.sampler_from_obj({"kind": "quadratic_wishart", "params": params})


def test_scaled_beta_bounded_support():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=3)
    a_rows = rng.normal(size=(5, 3))
    samp = hz.scaled_beta_sampler(a0, a_rows)
    pts = samp.draw(np.random.default_rng(0), 5000)
    # each coordinate lies within a0 +- sum |a_i| componentwise
    span = np.sum(np.abs(a_rows), axis=0)
    assert np.all(pts <= a0 + span + 1e-12)
    assert np.all(pts >= a0 - span - 1e-12)
    # mean-zero perturbations center on a0
    assert np.allclose(pts.mean(axis=0), a0, atol=0.1)


def test_scaled_beta_22_draw_has_the_beta22_law():
    samp = hz.scaled_beta_sampler(np.zeros(2), np.eye(2))
    u = (samp.draw(np.random.default_rng(12), 50_000).reshape(-1) + 1.0) / 2.0
    assert u.size == 100_000
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert stats.kstest(u, lambda x: x * x * (3.0 - 2.0 * x)).pvalue > 0.01
    assert abs(u.mean() - 0.5) < 4e-3
    assert abs(u.var() - 0.05) < 2e-3


def test_scaled_beta_other_parameters_keep_the_rng_beta_stream():
    rng = np.random.default_rng(13)
    a0, a_rows = rng.normal(size=4), rng.normal(size=(6, 4))
    for alpha, beta in ((0.5, 3.0), (2.0, 3.0), (1.0, 1.0)):
        samp = hz.scaled_beta_sampler(a0, a_rows, alpha=alpha, beta=beta)
        got = samp.draw(np.random.default_rng(14), 300)
        ref_rng = np.random.default_rng(14)
        ref = a0 + (2.0 * ref_rng.beta(alpha, beta, size=(300, 6)) - 1.0) @ a_rows
        assert np.array_equal(got, ref)


def test_scaled_beta_22_draw_needs_no_more_memory_than_rng_beta():
    rng = np.random.default_rng(15)
    a0, a_rows = rng.uniform(1.0, 2.0, size=15), rng.normal(size=(15, 15))
    n = 10_000

    def peak(samp):
        samp.draw(np.random.default_rng(0), n)  # warm caches
        tracemalloc.start()
        try:
            samp.draw(np.random.default_rng(0), n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    median = peak(hz.scaled_beta_sampler(a0, a_rows))
    beta = peak(hz.scaled_beta_sampler(a0, a_rows, alpha=2.0, beta=3.0))
    # interpreter bookkeeping aside: one more (n, 15) array would be 1.2 MB
    assert median <= beta + 1024


def _one_sampler_of_each_kind(rng):
    """(sampler, largest draw count to test) for every kind and beta pair."""
    a0, a_rows = rng.normal(size=4), rng.normal(size=(6, 4))
    return [
        (hz.gaussian_sampler(rng.normal(size=3), np.eye(3) + 0.2), 2500),
        (hz.mixture_sampler([0.3, 0.7], rng.normal(size=(2, 3)),
                            np.stack([np.eye(3), 2 * np.eye(3)])), 2500),
        (hz.scaled_beta_sampler(a0, a_rows), 2500),
        (hz.scaled_beta_sampler(a0, a_rows, alpha=2.0, beta=3.0), 2500),
        (hz.quadratic_wishart_sampler(2, q=4.0), 40),
        (hz.sdp_wishart_sampler(np.stack([np.eye(2), 2 * np.eye(2)])), 40),
        (hz.pca_synthetic_sampler(np.zeros(2), np.eye(2),
                                  rng.normal(size=(5, 2))), 2500),
    ]


def test_projected_draw_is_the_draw_times_the_projection():
    rng = np.random.default_rng(16)
    for samp, n_max in _one_sampler_of_each_kind(rng):
        proj = rng.normal(size=(samp.dim, 3))
        for n in (0, 7, n_max):  # 2500 rows: two full blocks and a partial
            got = samp.draw(np.random.default_rng(17), n, project=proj)
            want = samp.draw(np.random.default_rng(17), n) @ proj
            assert got.shape == (n, 3)
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, samp.kind
        with pytest.raises(InvalidArgumentError, match="project"):
            samp.draw(np.random.default_rng(17), 5, project=np.ones((samp.dim + 1, 2)))


def test_mc_violation_scores_the_unprojected_sample():
    rng = np.random.default_rng(18)
    l, d = 3, 5
    m = l * d
    raw = rng.normal(size=(m, m)) * 0.1
    a0 = rng.uniform(1.0, 2.0, size=m)
    samplers = [hz.gaussian_sampler(a0, raw @ raw.T + 0.01 * np.eye(m)),
                hz.scaled_beta_sampler(a0, 0.15 * rng.normal(size=(m, m))),
                hz.scaled_beta_sampler(a0, 0.15 * rng.normal(size=(m, m)),
                                       alpha=2.0, beta=3.0)]
    for samp in samplers:
        for seed in range(3):
            x = rng.uniform(0.5, 1.5, size=d)
            # rhs near the 80% quantile of each row: a rate well inside (0, 1)
            pilot = samp.draw(np.random.default_rng(99), 2000).reshape(-1, l, d) @ x
            spec = model.CcpSpec(objective=-np.ones(d), family=model.JointLinear(l),
                                 rhs=np.quantile(pilot, 0.8, axis=0),
                                 epsilon=EPS, delta=DELTA)
            got = hz.mc_violation(x, samp, spec, n_eval=10_000, seed=seed)
            want = hz.violation_rate(
                spec, x, samp.draw(np.random.Generator(np.random.PCG64(seed)), 10_000))
            assert 0.2 < got < 0.8
            assert got == want


def _peak_bytes(call):
    call()  # warm caches
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projected_evaluation_never_forms_the_sample():
    rng = np.random.default_rng(19)
    n, m = 10_000, 15
    raw = rng.normal(size=(m, m)) * 0.3
    gauss = hz.gaussian_sampler(rng.uniform(1.0, 2.0, size=m), raw @ raw.T + np.eye(m))
    single = model.CcpSpec(objective=-np.ones(m), family=model.SingleLinear(),
                           rhs=[20.0], epsilon=EPS, delta=DELTA)
    x = rng.uniform(0.5, 1.0, size=m)
    peak = _peak_bytes(lambda: hz.mc_violation(x, gauss, single, n_eval=n))
    assert peak < n * m * 8 / 4
    # scaled beta, JointLinear(3) over d = 5: its fixed block buffers exceed
    # that bound at this n, but only the (n, 3) row values grow with n
    beta = hz.scaled_beta_sampler(rng.uniform(1.0, 2.0, size=m),
                                  0.15 * rng.normal(size=(m, m)))
    joint = model.CcpSpec(objective=-np.ones(5), family=model.JointLinear(3),
                          rhs=np.full(3, 10.0), epsilon=EPS, delta=DELTA)
    x = rng.uniform(0.5, 1.0, size=5)

    def peak_at(n_eval):
        return _peak_bytes(lambda: hz.mc_violation(x, beta, joint, n_eval=n_eval))

    assert peak_at(4 * n) - peak_at(n) < 3 * n * 3 * 8 + n * m * 8 / 4


def test_quadratic_wishart_layout():
    samp = hz.quadratic_wishart_sampler(3, q=4.0)
    pts = samp.draw(np.random.default_rng(3), 50)
    assert pts.shape == (50, 13)
    a, b, c = model.split_quadratic_point(pts[0], 3, 3)
    # A is a symmetric psd square root and the transform is consistent:
    # x'A'Ax - b'x - c = (x-mu)'M(x-mu) - q for M = A'A and the mu used
    m_mat = a.T @ a
    mu_back = 0.5 * np.linalg.solve(m_mat, b)
    assert np.allclose(a, a.T, atol=1e-12)
    assert c == pytest.approx(4.0 - mu_back @ m_mat @ mu_back, rel=1e-9)


def test_sdp_wishart_layout():
    mats = np.stack([np.eye(2), np.zeros((2, 2))])
    samp = hz.sdp_wishart_sampler(mats)
    pts = samp.draw(np.random.default_rng(4), 30)
    got = model.split_semidefinite_point(pts[0], 2, 2)
    for mat in got:
        assert np.allclose(mat, mat.T, atol=1e-12)
    # zeta is psd, so xi_0 - A_0 must be psd
    assert np.linalg.eigvalsh(got[0] - np.eye(2))[0] >= -1e-10


def test_pca_synthetic_low_rank_plus_noise():
    rng = np.random.default_rng(5)
    proj = rng.normal(size=(40, 3))
    samp = hz.pca_synthetic_sampler(np.ones(3), np.eye(3), proj, noise=0.0005)
    pts = samp.draw(np.random.default_rng(1), 200)
    # residual after projecting onto range(proj) is bounded by the noise
    q_mat, _ = np.linalg.qr(proj)
    resid = pts - (pts @ q_mat) @ q_mat.T
    assert np.max(np.abs(resid)) <= 0.0005 * math.sqrt(40) * 3


def test_sampler_validation():
    with pytest.raises(InvalidArgumentError):
        hz.gaussian_sampler([0.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        hz.mixture_sampler([0.5, 0.6], np.zeros((2, 2)),
                           np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(InvalidArgumentError):
        hz.quadratic_wishart_sampler(3, q=1.0, dof=2)
    with pytest.raises(InvalidArgumentError):
        hz.sampler_from_obj({"kind": "nope", "params": {}})
    with pytest.raises(InvalidArgumentError):
        hz.sampler_from_obj({"kind": "scaled_beta", "params": {
            "a0": [0.0], "a_rows": [[1.0]], "alpah": 3.0}})
    # a non-finite array is refused when the sampler is built, not drawn
    with pytest.raises(InvalidArgumentError, match="mu"):
        hz.gaussian_sampler([np.nan, 0.0], np.eye(2))
    with pytest.raises(InvalidArgumentError, match="a0"):
        hz.sampler_from_obj(json.loads(
            '{"kind": "scaled_beta", "params": {"a0": [Infinity], "a_rows": [[1.0]]}}'))
    # a draw count must be an integer: 2.5 is an error, not 2 rows
    samp = hz.gaussian_sampler([0.0, 0.0], np.eye(2))
    assert samp.draw(np.random.default_rng(0), np.int64(3)).shape == (3, 2)
    with pytest.raises(InvalidArgumentError, match="draw count"):
        samp.draw(np.random.default_rng(0), 2.5)


# ---------------------------------------------------------------------------
# replication harness


def test_run_replications_deterministic():
    spec, samp, _, _ = gaussian_instance(7, d=3, b=6.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro", n=80, n1=20)
    rep_a = hz.run_replications(cfg, 6, master_seed=11)
    rep_b = hz.run_replications(cfg, 6, master_seed=11)
    assert rep_a.records == rep_b.records
    assert [rec.replication for rec in rep_a.records] == list(range(6))
    rep_d = hz.run_replications(cfg, 6, master_seed=12)
    assert rep_d.records != rep_a.records
    # integral numpy counts are counts; a fractional count or seed is an
    # error, not 2 replications or seed 5
    rep_np = hz.run_replications(cfg, np.int64(6), master_seed=np.int64(11))
    assert rep_np.records == rep_a.records and rep_np.config_echo["seed"] == 11
    for r_count, seed in ((2.5, 0), (3, 5.7)):
        with pytest.raises(InvalidArgumentError):
            hz.run_replications(cfg, r_count, seed)


def test_run_replications_rejects_a_negative_seed():
    # as the CLI's --seed flag does, instead of numpy's SeedSequence error
    spec, samp, _, _ = gaussian_instance(7, d=3, b=6.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="sg", n=30)
    with pytest.raises(InvalidArgumentError, match="master seed"):
        hz.run_replications(cfg, 2, -1)


def test_master_seeds_share_no_replication_data():
    spec, samp, _, _ = gaussian_instance(7, d=3, b=6.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="sg", n=30)
    objectives = [
        {rec.objective for rec in hz.run_replications(cfg, 8, master_seed=s).records
         if rec.objective is not None}
        for s in (0, 1)
    ]
    assert len(objectives[0]) == len(objectives[1]) == 8
    assert not objectives[0] & objectives[1]


def test_run_replications_aggregates():
    spec, samp, _, _ = gaussian_instance(8, d=3, b=6.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro", n=80, n1=20)
    rep = hz.run_replications(cfg, 10, master_seed=3)
    assert rep.r == 10 and rep.failures == 0
    viols = [r.violation_probability for r in rep.records]
    assert rep.eps_hat == pytest.approx(float(np.mean(viols)))
    assert rep.delta_hat == pytest.approx(
        float(np.mean([v > EPS for v in viols])))
    objs = [r.objective for r in rep.records]
    assert rep.mean_objective == pytest.approx(float(np.mean(objs)))
    assert rep.config_echo["n2"] == 60


def test_run_replications_counts_failures_against_delta():
    # d=30 with only 40 scenarios: SG is frequently unbounded
    spec, samp, _, _ = gaussian_instance(9, d=30, b=8.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="sg", n=40)
    rep = hz.run_replications(cfg, 8, master_seed=5)
    bad = sum(1 for r in rep.records if r.violation_probability is None)
    assert bad == rep.failures
    assert sum(rep.statuses.values()) == 8
    over = sum(1 for r in rep.records
               if r.violation_probability is not None
               and r.violation_probability > EPS)
    assert rep.delta_hat == pytest.approx((bad + over) / 8)


def test_replication_note_carries_the_solver_reason(monkeypatch):
    def stalled(prog, **kwargs):
        return conic.Solution(
            status=conic.SolveStatus.ITER_LIMIT, x=np.zeros(prog.n_vars),
            y=None, z=None, s=None, obj=None, gap=None, gap_abs=None,
            pres=None, dres=None, iterations=3, reason="singular KKT system")

    monkeypatch.setattr(conic, "solve", stalled)
    spec, samp, _, _ = gaussian_instance(10, d=3, b=6.0)
    for method, status, note in (
            ("ro", "iter-limit", "singular KKT system"),
            # a failed initial solve skips the reconstruction and says why
            ("ro_reconstructed", "skipped", "initial=iter-limit")):
        cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method=method,
                                  n=80, n1=20)
        rep = hz.run_replications(cfg, 2, master_seed=3)
        for rec in rep.records:
            assert rec.status == status
            assert rec.note == note
            assert rec.violation_probability is None
        assert rep.failures == 2
        assert rep.statuses == {status: 2}
        doc = json.loads(hz.report_to_json(rep))
        assert doc["aggregates"]["statuses"] == {status: 2}


def test_experiment_config_validation():
    spec, samp, _, _ = gaussian_instance(10, d=3, b=6.0)
    with pytest.raises(InvalidArgumentError):
        hz.ExperimentConfig(spec=spec, sampler=samp, method="bogus", n=10)
    with pytest.raises(InvalidArgumentError):
        hz.ExperimentConfig(spec=spec, sampler=samp, method="ro", n=10, n1=11)
    with pytest.raises(InvalidArgumentError):
        hz.ExperimentConfig(spec=spec, sampler=samp, method="safe_hoeffding",
                            n=10, perturbation={"a0": np.zeros(3)})
    spec_q = model.CcpSpec(objective=np.ones(2), family=model.Quadratic(q=2),
                           rhs=[1.0], epsilon=0.1, delta=0.1)
    with pytest.raises(InvalidArgumentError):
        hz.ExperimentConfig(spec=spec_q, sampler=hz.quadratic_wishart_sampler(
            2, q=1.0), method="ro", n=10, n1=5)
    # the closed-form violation needs a gaussian sampler; the config says
    # so up front instead of failing after the first successful solve
    mix = hz.mixture_sampler([1.0], np.zeros((1, 3)), np.eye(3)[None])
    with pytest.raises(InvalidArgumentError, match="analytic"):
        hz.ExperimentConfig(spec=spec, sampler=mix, method="sg", n=1,
                            violation="analytic")
    obj = hz.config_to_obj(hz.ExperimentConfig(spec=spec, sampler=mix,
                                               method="sg", n=1))
    with pytest.raises(InvalidArgumentError, match="analytic"):
        hz.config_from_obj({**obj, "violation": "analytic"})
    # a Monte Carlo violation needs at least one draw; the config says so
    # instead of the run aborting after the first solve
    for sampler, violation in ((mix, "auto"), (mix, "mc"), (samp, "mc")):
        with pytest.raises(InvalidArgumentError, match="n_eval"):
            hz.ExperimentConfig(spec=spec, sampler=sampler, method="sg", n=8,
                                n_eval=0, violation=violation)
        with pytest.raises(InvalidArgumentError, match="n_eval"):
            hz.config_from_obj({**obj, "sampler": hz.sampler_to_obj(sampler),
                                "n_eval": 0, "violation": violation})
    # the closed form draws nothing, so n_eval is not read
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="sg", n=8, n_eval=0)
    assert hz.run_replications(cfg, 1, master_seed=0).failures == 0


def test_experiment_config_reads_its_counts():
    # a fractional or boolean count is refused when the config is built, not
    # once per replication (n) or out of run_replications (n_eval)
    spec, samp, _, _ = gaussian_instance(10, d=3, b=6.0)
    for counts in ({"n": 130.5}, {"n": 130, "n1": 20.5}, {"n": 130, "n1": True},
                   {"n": 8, "n_eval": 10.5, "violation": "mc"}):
        with pytest.raises(InvalidArgumentError, match="must be int"):
            hz.ExperimentConfig(spec=spec, sampler=samp, method="sg", **counts)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro",
                              n=np.int64(130), n1=np.int64(40), n_eval=np.int64(500))
    assert (type(cfg.n), type(cfg.n1), type(cfg.n_eval)) == (int, int, int)
    assert cfg.n2 == 90


def test_experiment_config_rejects_a_too_small_phase_2():
    spec, samp, _, _ = gaussian_instance(10, d=3, b=6.0)
    # n2 = 59 is the minimum at epsilon = delta = 0.05
    obj = hz.config_to_obj(hz.ExperimentConfig(spec=spec, sampler=samp,
                                               method="ro", n=79, n1=20))
    for method in ("ro", "ro_reconstructed"):
        with pytest.raises(InvalidArgumentError, match="59"):
            hz.ExperimentConfig(spec=spec, sampler=samp, method=method,
                                n=8, n1=4)
        with pytest.raises(InvalidArgumentError, match="59"):
            hz.config_from_obj({**obj, "method": method, "n": 78})
    # scenario methods have no Phase 2
    hz.ExperimentConfig(spec=spec, sampler=samp, method="sg", n=8)


@pytest.mark.parametrize("shape, options, match", [
    ("pca", {"variance_kep": 0.9}, "variance_kep"),
    ("box_grid", None, "width"),
    ("box_grid", {}, "width"),
    ("cluster_union", {"kk": 3}, "kk"),
    ("cluster_union", {"k": "three"}, "'k'"),
    ("cluster_union", {"k": 2.5}, "'k'"),
    ("box_grid", {"width": True}, "'width'"),
    ("ellipsoid", {"k": 2}, "known: none"),
    ("ball", [["k", 2]], "object"),
])
def test_shape_options_are_checked(shape, options, match):
    spec, samp, _, _ = gaussian_instance(10, d=3, b=6.0)
    pts = samp.draw(np.random.default_rng(0), 40)
    with pytest.raises(InvalidArgumentError, match=match):
        hz.fit_shape(shape, pts, options)
    with pytest.raises(InvalidArgumentError, match=match):
        hz.ExperimentConfig(spec=spec, sampler=samp, method="ro", n=80,
                            n1=20, shape=shape, shape_options=options)
    obj = hz.config_to_obj(hz.ExperimentConfig(spec=spec, sampler=samp,
                                               method="ro", n=80, n1=20))
    with pytest.raises(InvalidArgumentError, match=match):
        hz.config_from_obj({**obj, "shape": shape, "shape_options": options})


def test_shape_options_keep_their_defaults():
    pts = np.random.default_rng(0).normal(size=(40, 3))
    for kind, options, default in (
            ("cluster_union", {"k": 2, "mode": "full", "seed": 0}, {}),
            ("pca", {"variance_keep": 0.9999}, None),
            ("box_grid", {"width": 1}, {"width": 1.0})):
        want = hz.fit_shape(kind, pts, options)
        got = hz.fit_shape(kind, pts, default)
        assert shapes.shape_to_obj(got) == shapes.shape_to_obj(want)


def test_experiment_config_document_round_trip_and_strictness():
    spec, samp, _, _ = gaussian_instance(10, d=3, b=6.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro", n=80,
                              n1=20, shape="ball", n_eval=500)
    obj = hz.config_to_obj(cfg)
    back = hz.config_from_obj(json.loads(json.dumps(obj)))
    assert hz.config_to_obj(back) == obj
    # absent optional fields take the dataclass defaults
    minimal = {k: obj[k] for k in ("spec", "sampler", "method", "n")}
    dflt = hz.config_from_obj(minimal)
    assert (dflt.n1, dflt.shape, dflt.n_eval, dflt.violation, dflt.scale) == \
        (0, "ellipsoid", 10_000, "auto", "auto")
    # a misspelled key is rejected instead of silently ignored
    with pytest.raises(InvalidArgumentError, match="shape_option"):
        hz.config_from_obj({**obj, "shape_option": {"k": 3}})
    with pytest.raises(InvalidArgumentError, match="'n'"):
        hz.config_from_obj({k: v for k, v in obj.items() if k != "n"})
    # counts must be JSON integers: no truncation, bool or string cast
    for name, value in (("n", "many"), ("n", 200.9), ("n", 80.0), ("n1", True),
                        ("n_eval", "300"), ("method", 3)):
        with pytest.raises(InvalidArgumentError, match=f"'{name}'"):
            hz.config_from_obj({**obj, name: value})
    # nested documents reject unknown keys too
    with pytest.raises(InvalidArgumentError, match="kind"):
        hz.config_from_obj({**obj, "spec": {**obj["spec"], "kind": "x"}})
    with pytest.raises(InvalidArgumentError, match="a_0"):
        hz.config_from_obj({**obj, "perturbation": {"a_0": [1.0]}})


def test_theorem_confidence_end_to_end():
    """Across replications, the violation target holds at rate >= 1 - delta."""
    spec, samp, _, _ = gaussian_instance(11, d=3, b=8.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro",
                              n=79, n1=20)  # n2 = 59: the minimum for .05/.05
    rep = hz.run_replications(cfg, 400, master_seed=21)
    assert rep.failures == 0
    ok = sum(1 for r in rep.records if r.violation_probability <= EPS)
    mc_slack = 3 * math.sqrt(DELTA * (1 - DELTA) / 400)
    assert ok / 400 >= (1 - DELTA) - mc_slack


# ---------------------------------------------------------------------------
# reconstruction pipeline


def test_reconstruction_pipeline_improves_on_plain_ro():
    spec, samp, mu, sigma = gaussian_instance(123, d=11, b=10.0)
    cfg_ro = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro",
                                 n=120, n1=60)
    cfg_rc = hz.ExperimentConfig(spec=spec, sampler=samp,
                                 method="ro_reconstructed", n=120, n1=60)
    rep_ro = hz.run_replications(cfg_ro, 30, master_seed=7)
    rep_rc = hz.run_replications(cfg_rc, 30, master_seed=7)
    assert rep_rc.mean_objective < rep_ro.mean_objective
    assert rep_ro.delta_hat == 0.0
    assert rep_rc.delta_hat <= 0.2  # paper-scale runs sit near 0.04
    true_opt = closed_form_optimum(mu, sigma, 10.0, EPS)
    assert rep_ro.mean_objective > true_opt  # conservativeness
    assert rep_rc.mean_objective > true_opt - 1e-9


def test_reconstruction_rho_nonpositive_never_regresses():
    """rho <= 0 keeps x = x_hat feasible, so obj_tilde <= obj_hat exactly."""
    spec, samp, _, _ = gaussian_instance(45, d=5, b=8.0)
    # and a scaled-beta JointLinear(3) instance whose det rows x >= 0 bind
    rng = np.random.default_rng(20170413)
    d, l = 5, 3
    beta_spec = model.CcpSpec(objective=-rng.uniform(1.0, 2.0, size=d),
                              family=model.JointLinear(l), rhs=np.full(l, 10.0),
                              epsilon=0.05, delta=0.05,
                              det=model.DetConstraints(-np.eye(d), np.zeros(d)))
    beta_samp = hz.scaled_beta_sampler(rng.uniform(1.0, 2.0, size=l * d),
                                       rng.normal(size=(l * d, l * d)) * 0.15)
    for sp, sm, n, n1 in ((spec, samp, 120, 60), (beta_spec, beta_samp, 200, 100)):
        count_checked = 0
        for r in range(25):
            rng = np.random.Generator(np.random.PCG64(1000 + r))
            data = sm.draw(rng, n)
            rec = hz.reconstruction_pipeline(data, sp, n1=n1, seed=r)
            if rec.rho is not None and rec.rho <= 0:
                assert rec.status_reconstructed == "optimal"
                assert rec.obj_tilde <= rec.obj_hat
                assert rec.improved
                count_checked += 1
        assert count_checked >= 15  # most replications have rho <= 0


def test_reconstruction_pipeline_runs_one_conic_solve(monkeypatch):
    """Only the initial robust program goes to the solver."""
    programs = []
    solve = conic.solve

    def counted(prog, **kwargs):
        programs.append(prog)
        return solve(prog, **kwargs)

    monkeypatch.setattr(conic, "solve", counted)
    spec, samp, _, _ = gaussian_instance(46, d=4, b=8.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp,
                              method="ro_reconstructed", n=120, n1=60)
    rep = hz.run_replications(cfg, 4, master_seed=2)
    assert rep.statuses == {"optimal": 4}
    assert len(programs) == 4


def test_reconstruction_scale_std_policy():
    spec, samp, _, _ = gaussian_instance(46, d=4, b=8.0)
    data = samp.draw(np.random.default_rng(0), 150)
    rec = hz.reconstruction_pipeline(data, spec, n1=70, seed=3, scale="std")
    assert rec.scale is not None and np.all(rec.scale > 0)
    assert rec.scale_fallback_rows == (0,)
    assert rec.status_reconstructed == "optimal"


def test_reconstruction_margin_scale_values():
    # margin scale: k_j = b_j - mu_j'x_hat with mu_j the Phase-1 mean row.
    # A robust-feasible x_hat against a set containing the Phase-1 mean
    # always yields k_j > 0, so "margin" and "auto" agree on the same data.
    spec, samp, _, _ = gaussian_instance(47, d=4, b=8.0)
    data = samp.draw(np.random.default_rng(2), 130)
    rec_m = hz.reconstruction_pipeline(data, spec, n1=65, seed=1,
                                       scale="margin")
    rec_a = hz.reconstruction_pipeline(data, spec, n1=65, seed=1,
                                       scale="auto")
    assert rec_m.status_reconstructed == "optimal"
    assert rec_m.scale_fallback_rows == ()
    assert np.array_equal(rec_m.scale, rec_a.scale)
    assert np.array_equal(rec_m.x_tilde, rec_a.x_tilde)
    # recompute Scale 1 by hand from the same Phase-1 split
    split = model.split_data(model.Dataset(data), 65, 1)
    mu_hat = split.phase1.points.mean(axis=0)
    assert rec_m.scale[0] == pytest.approx(8.0 - mu_hat @ rec_m.x_hat)
    assert rec_m.scale[0] > 0
    with pytest.raises(InvalidArgumentError):
        hz.reconstruction_pipeline(data, spec, n1=65, seed=1, scale="median")


def test_reconstruction_collinear_single_row():
    spec, samp, _, _ = gaussian_instance(48, d=6, b=9.0)
    data = samp.draw(np.random.default_rng(9), 140)
    rec = hz.reconstruction_pipeline(data, spec, n1=70, seed=4)
    assert rec.status_reconstructed == "optimal"
    x_hat, x_tilde = rec.x_hat, rec.x_tilde
    cosine = (x_hat @ x_tilde) / (np.linalg.norm(x_hat) * np.linalg.norm(x_tilde))
    assert abs(abs(cosine) - 1.0) <= 1e-6


def test_reconstruction_x_hat_on_det_bound_keeps_guarantee():
    """x_hat a solver tolerance outside a det row must not force x_tilde = 0.

    The scaled-beta JointLinear(3) instance with x >= 0 added.  The initial
    solve of some inputs of data seed 11 puts x_hat a solver tolerance below
    a bound x_i >= 0 while rho <= 0 (the 9th input, by 8e-10; the 126th did,
    by 4e-8, with an earlier solver); on the first such input x = x_hat must
    stay feasible.  Which inputs qualify depends on the solver's round-off,
    so the test looks for one, and fails if none of the first 126 does.
    """
    rng = np.random.default_rng(20170413)
    d, l = 5, 3
    a0 = rng.uniform(1.0, 2.0, size=l * d)
    a_rows = rng.normal(size=(l * d, l * d)) * 0.15
    spec = model.CcpSpec(objective=-rng.uniform(1.0, 2.0, size=d),
                         family=model.JointLinear(l), rhs=np.full(l, 10.0),
                         epsilon=0.05, delta=0.05,
                         det=model.DetConstraints(-np.eye(d), np.zeros(d)))
    data_rng = np.random.default_rng(11)
    for _ in range(126):
        # the data is drawn with rng.beta, as the scaled-beta sampler did
        # before its Beta(2, 2) draw became the median of three uniforms
        data = a0 + (2.0 * data_rng.beta(2.0, 2.0, size=(200, l * d)) - 1.0) @ a_rows
        split_seed = int(data_rng.integers(2**63))
        data_rng.integers(2**63)  # the evaluation seed of the same input
        rec = hz.reconstruction_pipeline(data, spec, 100, seed=split_seed)
        if rec.x_hat.min() < 0 and rec.rho <= 0:
            break
    else:
        pytest.fail("no input puts x_hat outside a bound with rho <= 0")
    assert rec.status_reconstructed == "optimal"
    assert rec.rho <= 0
    assert rec.obj_tilde <= rec.obj_hat + 1e-8
    assert rec.improved


# ---------------------------------------------------------------------------
# reports


def test_report_csv_and_json_shapes():
    spec, samp, _, _ = gaussian_instance(50, d=3, b=6.0)
    cfg = hz.ExperimentConfig(spec=spec, sampler=samp, method="ro", n=80, n1=20)
    rep = hz.run_replications(cfg, 4, master_seed=9)
    text = hz.report_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "replication,status,objective,violation_probability,note"
    assert len(lines) == 5
    doc = hz.report_to_json(rep)
    parsed = json.loads(doc)
    assert parsed["aggregates"]["replications"] == 4
    assert parsed["config"]["method"] == "ro"
    # byte determinism of serialized output
    assert hz.report_to_csv(rep) == text
    assert hz.report_to_json(rep) == doc
