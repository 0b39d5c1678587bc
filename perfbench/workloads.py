"""The benchmark's three workloads.

Each workload fixes one chance-constrained instance and, in set-up, draws
the input data of a pool of ops from the workload seed with roset's own
samplers. An op reaches roset only through module attributes
(``harness.reconstruction_pipeline``, ``conic.solve``, ...), so the traced
run can rebind them, and returns what the oracle needs.

Every workload offers the same four things:

``inputs``    the pool of per-op inputs, about one run's worth, cycled by
              the timed loop
``op``        one op: from the first call into roset to the violation score
``check``     the correctness oracle for one op's output
``score``     (objective, violation probability) of a successful op
"""

from __future__ import annotations

import math

import numpy as np

from roset import baselines, conic, harness, model, reformulate, shapes

# The instance (cost vector, data law) is the same for every workload seed;
# the seed only changes the data each op sees.
INSTANCE_SEED = 20170413
RHS = 10.0
# absolute slack of the oracle's comparisons, relative to max(1, |reference|)
REL_TOL = 1e-6
# the paper's reconstruction guarantee holds up to the solver's own accuracy
IMPROVED_TOL = 1e-8


def _gaussian_instance(d: int, epsilon: float, delta: float):
    """max mu'x subject to P(xi'x <= RHS) >= 1 - epsilon, xi ~ N(mu, sigma)."""
    rng = np.random.default_rng(INSTANCE_SEED)
    mu = rng.uniform(1.0, 3.0, size=d)
    raw = rng.normal(size=(d, d)) * 0.3
    sigma = raw @ raw.T + 0.5 * np.eye(d)
    spec = model.CcpSpec(objective=-mu, family=model.SingleLinear(), rhs=[RHS],
                         epsilon=epsilon, delta=delta)
    return mu, sigma, spec, harness.gaussian_sampler(mu, sigma)


def _tol(reference: float) -> float:
    return REL_TOL * max(1.0, abs(reference))


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _bad_violation(viol) -> str | None:
    if viol is None or not 0.0 <= viol <= 1.0:
        return f"violation probability {viol!r} outside [0, 1]"
    return None


class Replicate:
    """One Monte Carlo replication of the paper's reconstruction pipeline.

    JointLinear(3) with d=5, scaled-beta data, n=200 split 100/100 (Phase 2
    needs at least 59 rows at eps=delta=0.05), then a 10k-sample Monte
    Carlo violation estimate of the reconstructed solution.
    """

    name = "replicate"
    d, rows, n, n1, n_eval = 5, 3, 200, 100, 10_000
    pool = 512

    def __init__(self, seed: int):
        rng = np.random.default_rng(INSTANCE_SEED)
        m = self.rows * self.d
        self.sampler = harness.scaled_beta_sampler(
            rng.uniform(1.0, 2.0, size=m), rng.normal(size=(m, m)) * 0.15)
        self.spec = model.CcpSpec(
            objective=-rng.uniform(1.0, 2.0, size=self.d),
            family=model.JointLinear(self.rows), rhs=np.full(self.rows, RHS),
            epsilon=0.05, delta=0.05)
        data_rng = np.random.default_rng(seed)
        self.inputs = [(self.sampler.draw(data_rng, self.n), _seed_from(data_rng),
                        _seed_from(data_rng)) for _ in range(self.pool)]

    def op(self, inp):
        data, split_seed, eval_seed = inp
        rec = harness.reconstruction_pipeline(data, self.spec, self.n1,
                                              seed=split_seed)
        viol = None
        if rec.x_tilde is not None:
            viol = harness.mc_violation(rec.x_tilde, self.sampler, self.spec,
                                        n_eval=self.n_eval, seed=eval_seed)
        return rec, viol

    def check(self, inp, out):
        rec, viol = out
        if rec.status_initial != "optimal" or rec.status_reconstructed != "optimal":
            return "status", f"{rec.status_initial}/{rec.status_reconstructed}"
        bad = _bad_violation(viol)
        if bad:
            return "wrong", bad
        if rec.rho <= 0.0 and not rec.obj_tilde <= rec.obj_hat + IMPROVED_TOL:
            return "wrong", (f"rho={rec.rho:.6g} <= 0 but obj_tilde "
                             f"{rec.obj_tilde:.12g} > obj_hat {rec.obj_hat:.12g}")
        return None

    def score(self, out):
        rec, viol = out
        return rec.obj_tilde, viol


class ScenarioLp:
    """One scenario-generation LP: every sampled constraint imposed at once.

    Gaussian single-linear d=10 with N = sg_min_size(0.04, 0.05, 10) = 390
    Nonneg rows and 10 variables, scored by the closed-form violation.
    """

    name = "scenario_lp"
    d, epsilon, delta = 10, 0.04, 0.05
    pool = 256

    def __init__(self, seed: int):
        self.mu, self.sigma, self.spec, sampler = _gaussian_instance(
            self.d, self.epsilon, self.delta)
        self.n = baselines.sg_min_size(self.epsilon, self.delta, self.d)
        data_rng = np.random.default_rng(seed)
        self.inputs = [sampler.draw(data_rng, self.n) for _ in range(self.pool)]

    def op(self, scenarios):
        sol = baselines.sg_solve(self.spec, scenarios)
        viol = None
        if sol.status is conic.SolveStatus.OPTIMAL:
            viol = harness.gaussian_violation(sol.x[: self.d], self.mu, self.sigma, RHS)
        return sol, viol

    def check(self, scenarios, out):
        from scipy.optimize import linprog

        sol, viol = out
        if sol.status is not conic.SolveStatus.OPTIMAL:
            return "status", sol.status.value
        bad = _bad_violation(viol)
        if bad:
            return "wrong", bad
        x = sol.x[: self.d]
        excess = float(np.max(scenarios @ x)) - RHS
        if excess > _tol(RHS):
            return "wrong", f"a scenario row is violated by {excess:.3g}"
        ref = linprog(self.spec.objective, A_ub=scenarios,
                      b_ub=np.full(len(scenarios), RHS), bounds=(None, None),
                      method="highs")
        if ref.status != 0:
            return "wrong", f"reference LP did not solve: {ref.message}"
        obj = float(self.spec.objective @ x)
        if abs(obj - ref.fun) > _tol(ref.fun):
            return "wrong", f"objective {obj:.12g} != reference {ref.fun:.12g}"
        return None

    def score(self, out):
        sol, viol = out
        return float(self.spec.objective @ sol.x[: self.d]), viol


class UnionRo:
    """One two-phase robust solve over a union of balls (``ball_basis``).

    Gaussian single-linear d=10, n1=30 balls, n2=120 calibration rows; the
    robust counterpart repeats an 11-row second-order cone per ball, so the
    program has 330 rows in 30 SOC blocks.
    """

    name = "union_ro"
    d, n1, n2, epsilon, delta = 10, 30, 120, 0.05, 0.05
    pool = 256

    def __init__(self, seed: int):
        self.mu, self.sigma, self.spec, sampler = _gaussian_instance(
            self.d, self.epsilon, self.delta)
        data_rng = np.random.default_rng(seed)
        self.inputs = [(sampler.draw(data_rng, self.n1 + self.n2), _seed_from(data_rng))
                       for _ in range(self.pool)]

    def op(self, inp):
        data, split_seed = inp
        split = model.split_data(model.Dataset(data), self.n1, split_seed)
        shape = harness.fit_shape("ball_basis", split.phase1.points)
        pset = shapes.build_prediction_set(shape, split.phase2.points,
                                           self.epsilon, self.delta)
        sol = conic.solve(reformulate.assemble_ro(self.spec, pset).program)
        viol = None
        if sol.status is conic.SolveStatus.OPTIMAL:
            viol = harness.gaussian_violation(sol.x[: self.d], self.mu, self.sigma, RHS)
        return sol, pset, viol

    def check(self, inp, out):
        sol, pset, viol = out
        if sol.status is not conic.SolveStatus.OPTIMAL:
            return "status", sol.status.value
        bad = _bad_violation(viol)
        if bad:
            return "wrong", bad
        x = sol.x[: self.d]
        centers = np.array([ball.center for ball in pset.shape.components])
        worst = float(np.max(centers @ x)) + math.sqrt(max(pset.size, 0.0)) * float(
            np.linalg.norm(x))
        if worst > RHS + _tol(RHS):
            return "wrong", f"worst case over the balls {worst:.12g} > {RHS}"
        return None

    def score(self, out):
        sol, _, viol = out
        return float(self.spec.objective @ sol.x[: self.d]), viol


WORKLOADS = {cls.name: cls for cls in (Replicate, ScenarioLp, UnionRo)}
