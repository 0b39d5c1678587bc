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

from . import conic, model
from .calibrate import _check_prob, binom_cdf
from .errors import InvalidArgumentError, UnsupportedCombinationError

__all__ = [
    "sg_min_size",
    "sg_min_size_discard",
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
    d = int(d)
    if d < 1:
        raise InvalidArgumentError("decision dimension must be >= 1")
    return _min_size(epsilon, d - 1, math.log(delta))


def sg_min_size_discard(epsilon: float, delta: float, d: int, k_discard: int) -> int:
    """Scenario count when k_discard constraints may be discarded a posteriori.

    Smallest n with C(k+d-1, k) * P(Bin(n, epsilon) <= k+d-1) <= delta.
    With k_discard = 0 this reduces to sg_min_size.
    """
    epsilon = _check_prob(epsilon, "epsilon")
    delta = _check_prob(delta, "delta")
    d = int(d)
    k = int(k_discard)
    if d < 1:
        raise InvalidArgumentError("decision dimension must be >= 1")
    if k < 0:
        raise InvalidArgumentError("k_discard must be >= 0")
    log_comb = (math.lgamma(k + d) - math.lgamma(k + 1) - math.lgamma(d))
    return _min_size(epsilon, k + d - 1, math.log(delta) - log_comb)


def sg_solve(spec: model.CcpSpec, scenarios) -> conic.Solution:
    """Solve the scenario program: every sampled constraint imposed at once.

    Each scenario row is one realization of the stacked constraint
    coefficients; linear families only. Infeasible/unbounded classifications
    from the solver are passed through untouched.
    """
    fam = spec.family
    if not isinstance(fam, (model.SingleLinear, model.JointLinear)):
        raise UnsupportedCombinationError(
            "scenario generation is implemented for linear constraint "
            "families only"
        )
    l = getattr(fam, "l", 1)
    d = spec.d
    pts = np.asarray(scenarios, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, l * d)
    if pts.ndim != 2 or pts.shape[1] != l * d:
        raise InvalidArgumentError(
            f"scenario rows must have {l * d} columns, got {pts.shape}"
        )
    n = pts.shape[0]
    rows = pts.reshape(n * l, d)
    offsets = np.tile(spec.rhs, n)
    if spec.det is not None:
        rows = np.vstack([rows, spec.det.a_ub]) if rows.size else spec.det.a_ub
        offsets = np.concatenate([offsets, spec.det.b_ub])
    if rows.shape[0] == 0:
        # vacuous row so the program is well formed; does not constrain x
        rows = np.zeros((1, d))
        offsets = np.ones(1)
    prog = conic.ConicProgram(c=spec.objective, A=rows, b=offsets,
                              cones=(conic.Nonneg(rows.shape[0]),))
    return conic.solve(prog)


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


def _with_det(rows, offsets, cone_list, det, n_vars, n_aux):
    if det is None:
        return rows, offsets, cone_list
    pad = np.hstack([det.a_ub, np.zeros((det.a_ub.shape[0], n_aux))])
    rows = np.vstack([pad, rows])
    offsets = np.concatenate([det.b_ub, offsets])
    return rows, offsets, [conic.Nonneg(det.a_ub.shape[0])] + cone_list


def safe_hoeffding(objective, a0, a_rows, b: float, epsilon: float,
                   det: model.DetConstraints | None = None) -> conic.ConicProgram:
    """Hoeffding-based safe approximation of P(xi'x <= b) >= 1 - epsilon.

    For xi = a0 + sum_i zeta_i a_i with independent zero-mean zeta_i in
    [-1, 1], the chance constraint is implied by

        eta * sqrt(sum_i (a_i'x)^2) <= b - a0'x,   eta = sqrt(2 log(1/eps)).
    """
    epsilon = _check_prob(epsilon, "epsilon")
    a0, a_rows = _perturbation_arrays(a0, a_rows)
    c = np.asarray(objective, dtype=float).reshape(-1)
    if c.size != a0.size:
        raise InvalidArgumentError("objective length must match the dimension")
    eta = math.sqrt(2.0 * math.log(1.0 / epsilon))
    tail = eta * a_rows
    if np.all(tail == 0.0):
        rows = a0[None, :]
        offsets = np.array([float(b)])
        cones = [conic.Nonneg(1)]
    else:
        rows = np.vstack([a0[None, :], tail])
        offsets = np.zeros(1 + a_rows.shape[0])
        offsets[0] = float(b)
        cones = [conic.SecondOrder(1 + a_rows.shape[0])]
    rows, offsets, cones = _with_det(rows, offsets, cones, det, c.size, 0)
    return conic.ConicProgram(c=c, A=rows, b=offsets, cones=tuple(cones))


def safe_gaussian(objective, a0, a_rows, mu_minus, mu_plus, sigma, b: float,
                  epsilon: float,
                  det: model.DetConstraints | None = None) -> conic.ConicProgram:
    """Safe approximation for Gaussian perturbation coefficients.

    Each zeta_i ~ N(mu_i, s_i^2) with mu_i in [mu_minus_i, mu_plus_i] and
    s_i <= sigma_i. The chance constraint is implied by

        (a0'x - b) + sum_i max[a_i'x mu_i^-, a_i'x mu_i^+]
            + sqrt(2 log(1/eps)) * sqrt(sum_i sigma_i^2 (a_i'x)^2) <= 0.

    The max terms get one epigraph variable each (two linear rows); the norm
    becomes a second-order cone row.
    """
    epsilon = _check_prob(epsilon, "epsilon")
    a0, a_rows = _perturbation_arrays(a0, a_rows)
    big = np.asarray(mu_plus, dtype=float).reshape(-1)
    small = np.asarray(mu_minus, dtype=float).reshape(-1)
    sig = np.asarray(sigma, dtype=float).reshape(-1)
    L, d = a_rows.shape
    if big.size != L or small.size != L or sig.size != L:
        raise InvalidArgumentError("mean bounds and sigma must have length L")
    if np.any(small > big):
        raise InvalidArgumentError("need mu_minus <= mu_plus componentwise")
    if np.any(sig < 0.0):
        raise InvalidArgumentError("sigma must be nonnegative")
    c = np.asarray(objective, dtype=float).reshape(-1)
    if c.size != d:
        raise InvalidArgumentError("objective length must match the dimension")

    eta = math.sqrt(2.0 * math.log(1.0 / epsilon))
    # variables (x, t) with t the epigraphs of the max terms
    n_vars = d + L
    # epigraph rows: t_i - mu^- a_i'x >= 0 and t_i - mu^+ a_i'x >= 0
    epi = np.zeros((2 * L, n_vars))
    for i in range(L):
        epi[2 * i, :d] = small[i] * a_rows[i]
        epi[2 * i, d + i] = -1.0
        epi[2 * i + 1, :d] = big[i] * a_rows[i]
        epi[2 * i + 1, d + i] = -1.0
    cones = [conic.Nonneg(2 * L)]

    head = np.zeros((1, n_vars))
    head[0, :d] = a0
    head[0, d:] = 1.0
    tail = eta * sig[:, None] * a_rows
    if np.all(tail == 0.0):
        main = head
        offsets = np.array([float(b)])
        cones.append(conic.Nonneg(1))
    else:
        main = np.vstack([head, np.hstack([tail, np.zeros((L, L))])])
        offsets = np.zeros(1 + L)
        offsets[0] = float(b)
        cones.append(conic.SecondOrder(1 + L))
    rows = np.vstack([epi, main])
    offsets = np.concatenate([np.zeros(2 * L), offsets])
    rows, offsets, cones = _with_det(rows, offsets, cones, det, d, L)
    c_full = np.concatenate([c, np.zeros(L)])
    return conic.ConicProgram(c=c_full, A=rows, b=offsets, cones=tuple(cones))
