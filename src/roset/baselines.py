"""Scenario generation and safe convex approximation baselines.

Two families of competitors for the comparative experiments: scenario
generation (sample a batch of constraint realizations and impose all of
them) with its classical minimum sample sizes, and safe convex
approximations built from concentration inequalities for an additive
perturbation model xi = a0 + sum_i zeta_i a_i.
"""

from __future__ import annotations

import math

import numpy as np

from . import conic, model, reformulate
from .calibrate import _check_prob, binom_cdf
from .errors import InvalidArgumentError, UnsupportedCombinationError

__all__ = [
    "sg_min_size",
    "sg_solve",
    "safe_hoeffding",
    "safe_gaussian",
]


def _log_tail_ok(n: int, epsilon: float, tail_k: int, log_budget: float) -> bool:
    """True when log P(Bin(n, eps) <= tail_k) <= log_budget."""
    cdf = binom_cdf(tail_k, n, epsilon)
    if cdf == 0.0:
        return True
    return math.log(cdf) <= log_budget


def _min_size(epsilon: float, tail_k: int, log_budget: float) -> int:
    lo = tail_k + 1  # below this the binomial CDF is exactly 1
    hi = lo
    while not _log_tail_ok(hi, epsilon, tail_k, log_budget):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_tail_ok(mid, epsilon, tail_k, log_budget):
            hi = mid
        else:
            lo = mid + 1
    return lo


def sg_min_size(epsilon: float, delta: float, d: int) -> int:
    """Smallest scenario count n with P(Bin(n, epsilon) <= d-1) <= delta.

    This is the classical a-priori guarantee for scenario generation with a
    d-dimensional decision: solving with n sampled constraints makes the
    optimizer epsilon-feasible with probability at least 1 - delta.
    """
    epsilon = _check_prob(epsilon, "epsilon")
    delta = _check_prob(delta, "delta")
    d = model.read_value(d, int, "decision dimension", least=1)
    return _min_size(epsilon, d - 1, math.log(delta))


def sg_solve(spec: model.CcpSpec, scenarios) -> conic.Solution:
    """Solve the scenario program: every sampled constraint imposed at once.

    Each scenario row is one realization of the stacked constraint
    coefficients; linear families only. Infeasible/unbounded classifications
    from the solver are passed through untouched.
    """
    fam = spec.family
    if not isinstance(fam, model.JointLinear):
        raise UnsupportedCombinationError(
            "scenario generation is implemented for linear constraint "
            "families only"
        )
    l = fam.l
    d = spec.d
    pts = np.asarray(scenarios, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, l * d)
    if pts.ndim != 2 or pts.shape[1] != l * d:
        raise InvalidArgumentError(
            f"scenario rows must have {l * d} columns, got {pts.shape}"
        )
    blocks = reformulate.det_blocks(spec.det)
    n = pts.shape[0] * l
    if n:
        blocks.append(reformulate.Block(
            rows_x=pts.reshape(n, d), rows_aux=np.zeros((n, 0)),
            offsets=np.tile(spec.rhs, pts.shape[0]), cones=(conic.Nonneg(n),)))
    return conic.solve(reformulate.assemble(spec.objective, blocks))


def _perturbation_arrays(a0, a_rows):
    a0 = np.asarray(a0, dtype=float).reshape(-1)
    a_rows = np.asarray(a_rows, dtype=float)
    if a_rows.ndim != 2 or a_rows.shape[0] < 1:
        raise InvalidArgumentError(
            "perturbation directions must form a nonempty 2-d array (L, d)")
    if a_rows.shape[1] != a0.size:
        raise InvalidArgumentError(
            f"perturbation directions have {a_rows.shape[1]} columns but the "
            f"nominal vector has {a0.size}")
    if not (np.all(np.isfinite(a0)) and np.all(np.isfinite(a_rows))):
        raise InvalidArgumentError("perturbation model must be finite")
    return a0, a_rows


def safe_hoeffding(objective, a0, a_rows, b: float, epsilon: float,
                   det: model.DetConstraints | None = None) -> conic.ConicProgram:
    """Hoeffding-based safe approximation of P(xi'x <= b) >= 1 - epsilon.

    For xi = a0 + sum_i zeta_i a_i with independent zero-mean zeta_i in
    [-1, 1], the chance constraint is implied by

        eta * sqrt(sum_i (a_i'x)^2) <= b - a0'x,   eta = sqrt(2 log(1/eps)),

    which is the ellipsoidal robust row with factor a_rows' and radius eta.
    """
    epsilon = _check_prob(epsilon, "epsilon")
    a0, a_rows = _perturbation_arrays(a0, a_rows)
    eta = math.sqrt(2.0 * math.log(1.0 / epsilon))
    row = reformulate.rc_linear_ellipsoid(a0, a_rows.T, eta, b)
    return reformulate.assemble(objective, reformulate.det_blocks(det) + [row])


def safe_gaussian(objective, a0, a_rows, mu_minus, mu_plus, sigma, b: float,
                  epsilon: float,
                  det: model.DetConstraints | None = None) -> conic.ConicProgram:
    """Safe approximation for Gaussian perturbation coefficients.

    Each zeta_i ~ N(mu_i, s_i^2) with mu_i in [mu_minus_i, mu_plus_i] and
    s_i <= sigma_i. The chance constraint is implied by

        (a0'x - b) + sum_i max[a_i'x mu_i^-, a_i'x mu_i^+]
            + sqrt(2 log(1/eps)) * sqrt(sum_i sigma_i^2 (a_i'x)^2) <= 0.

    The max terms get one epigraph variable t_i each (two linear rows); the
    rest is the ellipsoidal robust row a0'x + sum_i t_i + eta ||.|| <= b.
    """
    epsilon = _check_prob(epsilon, "epsilon")
    a0, a_rows = _perturbation_arrays(a0, a_rows)
    big = np.asarray(mu_plus, dtype=float).reshape(-1)
    small = np.asarray(mu_minus, dtype=float).reshape(-1)
    sig = np.asarray(sigma, dtype=float).reshape(-1)
    L = a_rows.shape[0]
    if big.size != L or small.size != L or sig.size != L:
        raise InvalidArgumentError("mean bounds and sigma must have length L")
    if np.any(small > big):
        raise InvalidArgumentError("need mu_minus <= mu_plus componentwise")
    if np.any(sig < 0.0):
        raise InvalidArgumentError("sigma must be nonnegative")

    eta = math.sqrt(2.0 * math.log(1.0 / epsilon))
    norm = reformulate.rc_linear_ellipsoid(a0, (sig[:, None] * a_rows).T, eta, b)
    # epigraph rows t_i - mu^- a_i'x >= 0 and t_i - mu^+ a_i'x >= 0, then the
    # norm row with sum_i t_i added to its head
    epi_x = np.empty((2 * L, a0.size))
    epi_x[0::2] = small[:, None] * a_rows
    epi_x[1::2] = big[:, None] * a_rows
    rows_aux = np.zeros((2 * L + norm.offsets.size, L))
    rows_aux[: 2 * L] = -np.repeat(np.eye(L), 2, axis=0)
    rows_aux[2 * L] = 1.0
    row = reformulate.Block(
        rows_x=np.vstack([epi_x, norm.rows_x]), rows_aux=rows_aux,
        offsets=np.concatenate([np.zeros(2 * L), norm.offsets]),
        cones=(conic.Nonneg(2 * L),) + norm.cones)
    return reformulate.assemble(objective, reformulate.det_blocks(det) + [row])
