"""Scenario counts against frozen oracles; safe approximation behavior."""

import math

import numpy as np
import pytest
from scipy import stats

from roset import baselines as bl, conic, model
from roset.calibrate import min_phase2_size
from roset.errors import InvalidArgumentError, UnsupportedCombinationError

# (epsilon, delta) rows of the published minimum-size table
TABLE_PAIRS = [
    (0.05, 0.2), (0.05, 0.1), (0.05, 0.05), (0.05, 0.01), (0.05, 0.005),
    (0.05, 0.001), (0.05, 0.00001),
    (0.2, 0.05), (0.1, 0.05), (0.05, 0.05), (0.01, 0.05), (0.001, 0.05),
]
TABLE_RO = [32, 45, 59, 90, 104, 135, 225, 14, 29, 59, 299, 2995]
TABLE_SG = {
    5: [134, 158, 181, 229, 248, 291, 405, 44, 89, 181, 913, 9151],
    11: [272, 306, 336, 398, 423, 476, 613, 82, 167, 336, 1693, 16959],
    50: [1114, 1180, 1237, 1349, 1392, 1482, 1703, 304, 615, 1237, 6211, 62165],
    100: [2162, 2254, 2331, 2482, 2539, 2658, 2945, 576, 1161, 2331, 11691, 116989],
}


def test_min_size_table_grid():
    got_ro = [min_phase2_size(e, d) for e, d in TABLE_PAIRS]
    assert got_ro == TABLE_RO
    for dim, col in TABLE_SG.items():
        got = [bl.sg_min_size(e, d, dim) for e, d in TABLE_PAIRS]
        assert got == col


def test_sg_min_size_matches_scipy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        eps = float(rng.uniform(0.01, 0.3))
        delta = float(rng.uniform(0.001, 0.2))
        d = int(rng.integers(1, 40))
        n = bl.sg_min_size(eps, delta, d)
        assert stats.binom.cdf(d - 1, n, eps) <= delta * (1 + 1e-12)
        if n > d:
            assert stats.binom.cdf(d - 1, n - 1, eps) > delta * (1 - 1e-12)


def test_sg_min_size_minimality_invariant():
    from roset.calibrate import binom_cdf
    for eps, delta in TABLE_PAIRS:
        for d in (5, 11):
            n = bl.sg_min_size(eps, delta, d)
            assert binom_cdf(d - 1, n, eps) <= delta
            assert binom_cdf(d - 1, n - 1, eps) > delta


def test_sg_min_size_d1_equals_phase2_minimum():
    for eps in (0.3, 0.2, 0.1, 0.05, 0.01):
        for delta in (0.2, 0.1, 0.05, 0.01):
            assert bl.sg_min_size(eps, delta, 1) == min_phase2_size(eps, delta)
            for d in (2, 5, 20):
                assert bl.sg_min_size(eps, delta, d) >= min_phase2_size(eps, delta)


def test_sg_min_size_monotone():
    sizes_d = [bl.sg_min_size(0.05, 0.05, d) for d in (1, 2, 5, 11, 50, 100)]
    assert sizes_d == sorted(sizes_d)
    sizes_e = [bl.sg_min_size(e, 0.05, 5) for e in (0.2, 0.1, 0.05, 0.01)]
    assert sizes_e == sorted(sizes_e)


def test_sg_min_size_validation():
    with pytest.raises(InvalidArgumentError):
        bl.sg_min_size(0.0, 0.05, 5)
    with pytest.raises(InvalidArgumentError):
        bl.sg_min_size(0.05, 1.0, 5)
    # a count must be an integer: 2.9 and True are errors, not d = 2 and 1
    for d in (0, 2.9, True):
        with pytest.raises(InvalidArgumentError):
            bl.sg_min_size(0.05, 0.05, d)
    assert bl.sg_min_size(0.05, 0.05, np.int64(5)) == 181


# ---------------------------------------------------------------------------
# scenario solves


def box_det(d, width):
    return model.DetConstraints(a_ub=np.vstack([np.eye(d), -np.eye(d)]),
                                b_ub=np.full(2 * d, float(width)))


def test_sg_solve_zero_scenarios_is_det_lp():
    spec = model.CcpSpec(objective=[-1.0, -2.0], family=model.SingleLinear(),
                         rhs=[10.0], epsilon=0.1, delta=0.1, det=box_det(2, 1.0))
    sol = bl.sg_solve(spec, np.zeros((0, 2)))
    assert sol.status is conic.SolveStatus.OPTIMAL
    assert abs(sol.obj + 3.0) <= 1e-7


def test_sg_solve_without_rows_is_unconstrained():
    spec = model.CcpSpec(objective=[-1.0, 0.5], family=model.SingleLinear(),
                         rhs=[1.0], epsilon=0.1, delta=0.1)
    sol = bl.sg_solve(spec, np.zeros((0, 2)))
    assert sol.status is conic.SolveStatus.UNBOUNDED
    flat = model.CcpSpec(objective=[0.0, 0.0], family=model.SingleLinear(),
                         rhs=[1.0], epsilon=0.1, delta=0.1)
    sol = bl.sg_solve(flat, np.zeros((0, 2)))
    assert sol.status is conic.SolveStatus.OPTIMAL
    assert sol.obj == pytest.approx(0.0, abs=1e-9)


def test_sg_solve_imposes_every_scenario():
    rng = np.random.default_rng(1)
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[1.0], epsilon=0.1, delta=0.1, det=box_det(2, 100.0))
    sc = np.abs(rng.normal(size=(40, 2))) + 0.1
    sol = bl.sg_solve(spec, sc)
    assert sol.status is conic.SolveStatus.OPTIMAL
    assert np.all(sc @ sol.x <= 1.0 + 1e-7)
    # without the box, a direction like (1, -2) escapes every (1,1) scenario
    spec_all = model.CcpSpec(objective=[-1.0, 0.0], family=model.SingleLinear(),
                             rhs=[1.0], epsilon=0.1, delta=0.1)
    sol2 = bl.sg_solve(spec_all, np.ones((10, 2)))
    assert sol2.status is conic.SolveStatus.UNBOUNDED


def test_sg_solve_joint_rows():
    rng = np.random.default_rng(2)
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.JointLinear(l=2),
                         rhs=[1.0, 2.0], epsilon=0.1, delta=0.1,
                         det=box_det(2, 50.0))
    sc = np.abs(rng.normal(size=(15, 4))) + 0.1
    sol = bl.sg_solve(spec, sc)
    assert sol.status is conic.SolveStatus.OPTIMAL
    mats = sc.reshape(-1, 2, 2)
    lhs = np.einsum("nij,j->ni", mats, sol.x)
    assert np.all(lhs <= np.array([1.0, 2.0]) + 1e-7)


def test_sg_solve_infeasible_passthrough():
    spec = model.CcpSpec(objective=[1.0], family=model.SingleLinear(),
                         rhs=[-1.0], epsilon=0.1, delta=0.1,
                         det=box_det(1, 0.5))
    # need x * 1 <= -1 with |x| <= 0.5: impossible
    sol = bl.sg_solve(spec, np.array([[1.0]]))
    assert sol.status is conic.SolveStatus.INFEASIBLE


def test_sg_solve_rejects_nonlinear():
    spec = model.CcpSpec(objective=[1.0], family=model.Quadratic(q=1),
                         rhs=[1.0], epsilon=0.1, delta=0.1)
    with pytest.raises(UnsupportedCombinationError):
        bl.sg_solve(spec, np.zeros((3, 2)))
    with pytest.raises(InvalidArgumentError):
        bl.sg_solve(model.CcpSpec(objective=[1.0, 0.0],
                                  family=model.SingleLinear(), rhs=[1.0],
                                  epsilon=0.1, delta=0.1),
                    np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# safe approximations


def test_safe_hoeffding_eta_two_closed_form():
    # eps = exp(-2) makes eta exactly 2; constraint 2|x1| <= 1
    prog = bl.safe_hoeffding([-1.0, 0.0], [0.0, 0.0], [[1.0, 0.0]],
                             1.0, math.exp(-2.0), det=box_det(2, 5.0))
    sol = conic.solve(prog)
    assert abs(sol.obj + 0.5) <= 1e-6


def test_safe_hoeffding_zero_directions_reduce_to_nominal():
    prog = bl.safe_hoeffding([-1.0], [2.0], [[0.0]], 3.0, 0.05)
    assert all(not isinstance(k, conic.SecondOrder) for k in prog.cones)
    sol = conic.solve(prog)
    assert abs(sol.obj + 1.5) <= 1e-7  # 2x <= 3


def test_safe_hoeffding_feasible_under_scaled_beta():
    """The certified solution never violates under the true bounded noise."""
    rng = np.random.default_rng(3)
    d, L = 10, 15
    a0 = rng.normal(size=d)
    a_rows = rng.normal(size=(L, d)) * 0.3
    c = rng.normal(size=d)
    prog = bl.safe_hoeffding(c, a0, a_rows, 5.0, 0.05, det=box_det(d, 10.0))
    sol = conic.solve(prog)
    assert sol.status is conic.SolveStatus.OPTIMAL
    x = sol.x[:d]
    zeta = 2.0 * rng.beta(2.0, 2.0, size=(20_000, L)) - 1.0
    lhs = a0 @ x + zeta @ (a_rows @ x)
    assert np.mean(lhs > 5.0) == 0.0


def test_safe_gaussian_reduces_to_hoeffding():
    rng = np.random.default_rng(4)
    d, L = 3, 4
    a0 = rng.normal(size=d)
    a_rows = rng.normal(size=(L, d))
    c = rng.normal(size=d)
    det = box_det(d, 5.0)
    sol_h = conic.solve(bl.safe_hoeffding(c, a0, a_rows, 2.0, 0.05, det=det))
    sol_g = conic.solve(bl.safe_gaussian(c, a0, a_rows, np.zeros(L), np.zeros(L),
                                         np.ones(L), 2.0, 0.05, det=det))
    assert abs(sol_h.obj - sol_g.obj) <= 1e-6 * (1.0 + abs(sol_h.obj))


def test_safe_gaussian_sigma_zero_is_linear():
    rng = np.random.default_rng(5)
    d, L = 3, 4
    prog = bl.safe_gaussian(rng.normal(size=d), rng.normal(size=d),
                            rng.normal(size=(L, d)), -np.ones(L), np.ones(L),
                            np.zeros(L), 2.0, 0.05, det=box_det(d, 5.0))
    assert all(isinstance(k, conic.Nonneg) for k in prog.cones)


def test_safe_gaussian_honors_mean_interval():
    """Worst mean in [mu-, mu+] is priced by the epigraph rows."""
    # one direction, sigma tiny: constraint approx a0'x + max(mu- t, mu+ t) <= b
    # with t = a1'x; pick x sign so the max binds at mu+
    prog = bl.safe_gaussian([-1.0], [0.0], [[1.0]], [-0.5], [1.5],
                            [1e-9], 3.0, 0.05, det=box_det(1, 100.0))
    sol = conic.solve(prog)
    # max over mu of mu * x for x > 0 is 1.5 x, so 1.5 x <= 3
    assert abs(sol.obj + 2.0) <= 1e-5


def test_safe_gaussian_validation():
    with pytest.raises(InvalidArgumentError):
        bl.safe_gaussian([1.0], [0.0], [[1.0]], [1.0], [0.0], [1.0], 1.0, 0.05)
    with pytest.raises(InvalidArgumentError):
        bl.safe_gaussian([1.0], [0.0], [[1.0]], [0.0], [0.0], [-1.0], 1.0, 0.05)
    with pytest.raises(InvalidArgumentError):
        bl.safe_hoeffding([1.0], [0.0], [[1.0]], 1.0, 1.5)


def test_safe_gaussian_violation_certificate():
    """Solution respects the chance constraint under any admissible Gaussian."""
    rng = np.random.default_rng(6)
    d, L = 4, 6
    a0 = rng.normal(size=d)
    a_rows = rng.normal(size=(L, d)) * 0.5
    mu_lo = -0.2 * np.ones(L)
    mu_hi = 0.3 * np.ones(L)
    sig = np.full(L, 0.8)
    eps = 0.05
    prog = bl.safe_gaussian(rng.normal(size=d), a0, a_rows, mu_lo, mu_hi, sig,
                            4.0, eps, det=box_det(d, 8.0))
    sol = conic.solve(prog)
    assert sol.status is conic.SolveStatus.OPTIMAL
    x = sol.x[:d]
    t = a_rows @ x
    # adversarial admissible distribution: worst mean endpoint, max variance
    worst_mu = np.where(t >= 0, mu_hi, mu_lo)
    mean_lhs = a0 @ x + worst_mu @ t
    std_lhs = math.sqrt(float(sig**2 @ t**2))
    if std_lhs > 0:
        from math import erfc, sqrt
        p = 0.5 * erfc((4.0 - mean_lhs) / (std_lhs * sqrt(2.0)))
        assert p <= eps + 1e-9
    else:
        assert mean_lhs <= 4.0 + 1e-9
