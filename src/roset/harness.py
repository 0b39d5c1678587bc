"""Monte Carlo validation: violation metrics, replicated experiments,
and the set-reconstruction pipeline.

A replication draws a fresh dataset, runs one solution method end to end,
and scores the returned decision by its true (analytic or simulated)
constraint violation probability. Aggregates follow the usual two-level
reading: eps_hat is the mean violation probability of the returned
solutions, delta_hat the fraction of replications whose solution misses
the epsilon target.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import warnings
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from . import baselines, conic, model, reformulate, shapes
from .calibrate import CalibResult, min_phase2_size
from .errors import InvalidArgumentError, RosetError

__all__ = [
    "Sampler",
    "gaussian_sampler",
    "mixture_sampler",
    "scaled_beta_sampler",
    "quadratic_wishart_sampler",
    "sdp_wishart_sampler",
    "pca_synthetic_sampler",
    "sampler_to_obj",
    "sampler_from_obj",
    "gaussian_violation",
    "violation_rate",
    "mc_violation",
    "fit_shape",
    "SHAPE_KINDS",
    "SCALE_POLICIES",
    "VIOLATION_MODES",
    "two_phase_ro",
    "ExperimentConfig",
    "config_to_obj",
    "config_from_obj",
    "ReplicationRecord",
    "ExperimentReport",
    "run_replications",
    "ReconstructionResult",
    "reconstruction_pipeline",
    "report_to_csv",
    "report_to_json",
]


def _rep_seeds(master_seed: int, r: int) -> tuple[int, int]:
    """(data, evaluation) seeds of replication r, independent across (master, r)."""
    children = np.random.SeedSequence([master_seed, r]).spawn(2)
    return tuple(int(child.generate_state(1, np.uint64)[0]) for child in children)


# ---------------------------------------------------------------------------
# data generators


@dataclass(frozen=True, eq=False)
class Sampler:
    """A named distribution over observations xi in R^m."""

    kind: str
    params: dict

    def draw(self, rng: np.random.Generator, n: int,
             project: np.ndarray | None = None) -> np.ndarray:
        """n observations as an (n, m) array, or draw(rng, n) @ project.

        ``project`` is an (m, l) matrix.  The gaussian and scaled-beta laws
        are affine in their base variates (mu + z chol', a0 + (2 zeta - 1)
        a_rows); for them the projection is folded into that map and each
        block of base variates goes straight to its l columns, so no n x m
        array is formed.  The base variates come from the same blocks with
        or without ``project``, so the random stream is the same.  Other
        kinds draw the points and multiply.
        """
        n = model.read_value(n, int, "draw count")
        if n < 0:
            raise InvalidArgumentError("draw count must be >= 0")
        if project is None:
            return self._points(rng, n)
        project = np.asarray(project, dtype=float)
        p = self.params
        if self.kind == "gaussian":
            fill, lin, off = _normal, p["chol"].T, p["mu"]
        elif self.kind == "scaled_beta":
            # a0 + (2 zeta - 1) a_rows = (a0 - 1'a_rows) + zeta (2 a_rows)
            fill = _zeta_fill(p)
            lin, off = 2.0 * p["a_rows"], p["a0"] - p["a_rows"].sum(axis=0)
        else:
            pts = self._points(rng, n)
            return pts @ _projection(project, pts.shape[1])
        project = _projection(project, off.size)
        out = _variates(rng, n, lin.shape[0], fill, lin @ project)
        out += off @ project
        return out

    def _points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = self.params
        if self.kind == "gaussian":
            z = _variates(rng, n, p["mu"].size, _normal)
            return p["mu"] + z @ p["chol"].T
        if self.kind == "mixture":
            comp = rng.choice(p["weights"].size, size=n, p=p["weights"])
            z = rng.normal(size=(n, p["means"].shape[1]))
            out = np.empty_like(z)
            for j in range(p["weights"].size):
                mask = comp == j
                out[mask] = p["means"][j] + z[mask] @ p["chols"][j].T
            return out
        if self.kind == "scaled_beta":
            zeta = _variates(rng, n, p["a_rows"].shape[0], _zeta_fill(p))
            zeta *= 2.0
            zeta -= 1.0
            out = zeta @ p["a_rows"]
            out += p["a0"]
            return out
        if self.kind == "quadratic_wishart":
            d, dof, q = p["d"], p["dof"], p["q"]
            out = np.empty((n, d * d + d + 1))
            for i in range(n):
                g = rng.normal(size=(d, dof))
                m_mat = g @ g.T
                mu = rng.uniform(p["mu_low"], p["mu_high"], size=d)
                evals, evecs = np.linalg.eigh(m_mat)
                root = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.T
                out[i, : d * d] = root.reshape(-1)
                out[i, d * d : d * d + d] = 2.0 * m_mat @ mu
                out[i, -1] = q - mu @ m_mat @ mu
            return out
        if self.kind == "sdp_wishart":
            mats, dof = p["a_mats"], p["dof"]
            d, pp = mats.shape[0], mats.shape[1]
            out = np.empty((n, d * pp * pp))
            for i in range(n):
                point = np.empty((d, pp, pp))
                for j in range(d):
                    g = rng.normal(size=(pp, dof))
                    point[j] = mats[j] + g @ g.T
                out[i] = point.reshape(-1)
            return out
        if self.kind == "pca_synthetic":
            latent = p["mu"] + rng.normal(size=(n, p["mu"].size)) @ p["chol"].T
            noise = rng.uniform(-p["noise"], p["noise"],
                                size=(n, p["projection"].shape[0]))
            return latent @ p["projection"].T + noise
        raise InvalidArgumentError(f"unknown sampler kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.draw(np.random.default_rng(0), 0).shape[1]


_BLOCK_ROWS = 1024


def _variates(rng: np.random.Generator, n: int, m: int, fill,
              lin: np.ndarray | None = None) -> np.ndarray:
    """n rows of m base variates, filled _BLOCK_ROWS rows at a time.

    ``fill(rng, block)`` overwrites a block of rows with fresh variates.
    Without ``lin`` the (n, m) variates are returned.  With ``lin`` (m, l)
    each block is mapped to block @ lin as soon as it is drawn, so the
    result is (n, l) and the variates only ever fill one reused block.
    """
    if lin is None:
        out = np.empty((n, m))
        for i in range(0, n, _BLOCK_ROWS):
            fill(rng, out[i: i + _BLOCK_ROWS])
        return out
    out = np.empty((n, lin.shape[1]))
    buf = np.empty((min(_BLOCK_ROWS, n), m))
    for i in range(0, n, _BLOCK_ROWS):
        block = buf[: min(_BLOCK_ROWS, n - i)]
        fill(rng, block)
        np.matmul(block, lin, out=out[i: i + _BLOCK_ROWS])
    return out


def _projection(project: np.ndarray, m: int) -> np.ndarray:
    if project.ndim != 2 or project.shape[0] != m:
        raise InvalidArgumentError(
            f"project must be ({m}, l), got shape {project.shape}")
    return project


def _normal(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


def _zeta_fill(params: dict):
    """Block filler of the scaled-beta sampler's Beta(alpha, beta) variates.

    Beta(2, 2) is drawn as the median of three uniforms: the k-th smallest
    of n uniforms is Beta(k, n + 1 - k) (Devroye, Non-Uniform Random
    Variate Generation, 1986, on uniform order statistics).  A block's three
    uniforms come from one reused buffer, several times faster than
    rng.beta.  The block size is part of this stream: changing it changes
    the draws.  Other parameter pairs keep rng.beta, whose stream does not
    depend on the blocks.
    """
    alpha, beta = params["alpha"], params["beta"]
    m = params["a_rows"].shape[0]
    if alpha == beta == 2.0:
        buf = np.empty(3 * _BLOCK_ROWS * m)

        def median3(rng, med):
            r = med.shape[0]
            a, b, c = rng.random(out=buf[: 3 * r * m].reshape(3, r, m))
            # median = min(max(a, b), max(min(a, b), c))
            np.minimum(a, b, out=med)
            np.maximum(a, b, out=a)
            np.maximum(med, c, out=med)
            np.minimum(med, a, out=med)
        return median3

    def rng_beta(rng, out):
        out[...] = rng.beta(alpha, beta, size=out.shape)
    return rng_beta


def _spd_chol(sigma, what: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError(f"{what} must be symmetric positive definite") from exc


def gaussian_sampler(mu, sigma) -> Sampler:
    mu = model.frozen(mu, "mu").reshape(-1)
    sigma = model.frozen(sigma, "sigma")
    if sigma.shape != (mu.size, mu.size):
        raise InvalidArgumentError("sigma must be square and match mu")
    return Sampler("gaussian", {"mu": mu, "sigma": sigma,
                                "chol": _spd_chol(sigma, "sigma")})


def mixture_sampler(weights, means, sigmas) -> Sampler:
    weights = model.frozen(weights, "weights").reshape(-1)
    means = model.frozen(means, "means")
    sigmas = model.frozen(sigmas, "sigmas")
    if means.ndim != 2 or means.shape[0] != weights.size:
        raise InvalidArgumentError("means must be (k, m) aligned with weights")
    if sigmas.shape != (weights.size, means.shape[1], means.shape[1]):
        raise InvalidArgumentError("sigmas must be (k, m, m)")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise InvalidArgumentError("weights must be a probability vector")
    chols = np.stack([_spd_chol(s, "mixture sigma") for s in sigmas])
    return Sampler("mixture", {"weights": weights, "means": means,
                               "sigmas": sigmas, "chols": chols})


def scaled_beta_sampler(a0, a_rows, alpha: float = 2.0, beta: float = 2.0) -> Sampler:
    a0 = model.frozen(a0, "a0").reshape(-1)
    a_rows = model.frozen(a_rows, "a_rows")
    if a_rows.ndim != 2 or a_rows.shape[1] != a0.size:
        raise InvalidArgumentError("a_rows must be (L, d) matching a0")
    alpha = model.read_value(alpha, float, "alpha")
    beta = model.read_value(beta, float, "beta")
    if not (alpha > 0 and beta > 0):
        raise InvalidArgumentError("beta parameters must be positive")
    return Sampler("scaled_beta", {"a0": a0, "a_rows": a_rows,
                                   "alpha": alpha, "beta": beta})


def quadratic_wishart_sampler(d: int, q: float, mu_low: float = 0.0,
                              mu_high: float = 5.0, dof: int | None = None) -> Sampler:
    d = model.read_value(d, int, "dimension")
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    dof = d if dof is None else model.read_value(dof, int, "Wishart dof")
    if dof < d:
        raise InvalidArgumentError("Wishart dof must be >= dimension")
    q = model.read_value(q, float, "q")
    mu_low = model.read_value(mu_low, float, "mu_low")
    mu_high = model.read_value(mu_high, float, "mu_high")
    if not mu_low <= mu_high:
        raise InvalidArgumentError("need mu_low <= mu_high")
    return Sampler("quadratic_wishart", {"d": d, "dof": dof, "q": q,
                                         "mu_low": mu_low, "mu_high": mu_high})


def sdp_wishart_sampler(a_mats, dof: int | None = None) -> Sampler:
    a_mats = model.frozen(a_mats, "a_mats")
    if a_mats.ndim != 3 or a_mats.shape[1] != a_mats.shape[2]:
        raise InvalidArgumentError("a_mats must be (d, p, p)")
    p = a_mats.shape[1]
    dof = p if dof is None else model.read_value(dof, int, "Wishart dof")
    if dof < p:
        raise InvalidArgumentError("Wishart dof must be >= matrix side")
    return Sampler("sdp_wishart", {"a_mats": a_mats, "dof": dof})


def pca_synthetic_sampler(mu, sigma, projection, noise: float = 0.0005) -> Sampler:
    mu = model.frozen(mu, "mu").reshape(-1)
    sigma = model.frozen(sigma, "sigma")
    projection = model.frozen(projection, "projection")
    if projection.ndim != 2 or projection.shape[1] != mu.size:
        raise InvalidArgumentError("projection must be (m, k) matching mu")
    noise = model.read_value(noise, float, "noise half-width")
    if noise < 0:
        raise InvalidArgumentError("noise half-width must be >= 0")
    return Sampler("pca_synthetic", {"mu": mu, "sigma": sigma,
                                     "chol": _spd_chol(sigma, "sigma"),
                                     "projection": projection,
                                     "noise": noise})


_SAMPLERS = {
    "gaussian": gaussian_sampler,
    "mixture": mixture_sampler,
    "scaled_beta": scaled_beta_sampler,
    "quadratic_wishart": quadratic_wishart_sampler,
    "sdp_wishart": sdp_wishart_sampler,
    "pca_synthetic": pca_synthetic_sampler,
}


def sampler_to_obj(sampler: Sampler) -> dict:
    """{"kind", "params"}: params are the factory's arguments, as JSON data."""
    names = inspect.signature(_SAMPLERS[sampler.kind]).parameters
    return {"kind": sampler.kind,
            "params": {name: np.asarray(sampler.params[name]).tolist()
                       for name in names}}


def sampler_from_obj(obj: dict) -> Sampler:
    """Call the kind's factory with params, which must name its arguments."""
    model.read_fields(obj, "sampler", ("kind", "params"), ("kind",))
    kind = obj["kind"]
    factory = _SAMPLERS.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise InvalidArgumentError(f"unknown sampler kind {kind!r}")
    names = inspect.signature(factory).parameters
    params = model.read_fields(
        obj.get("params", {}), f"{kind} sampler params", names,
        [name for name, par in names.items() if par.default is par.empty])
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed {kind} sampler params: {exc}") from exc


# ---------------------------------------------------------------------------
# violation metrics


def gaussian_violation(x, mu, sigma, b: float) -> float:
    """P(xi'x > b) for xi ~ N(mu, sigma), evaluated in closed form."""
    x = np.asarray(x, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    sigma = np.asarray(sigma, dtype=float)
    if np.all(x == 0.0):
        return 0.0 if b >= 0 else 1.0
    var = float(x @ sigma @ x)
    if var <= 0.0:
        raise InvalidArgumentError("sigma must be positive definite")
    t = (float(b) - float(mu @ x)) / math.sqrt(var)
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def violation_rate(spec: model.CcpSpec, x, points) -> float:
    """Fraction of observation rows whose constraint is violated at x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.data_dim:
        raise InvalidArgumentError(
            f"points must be (n, {spec.data_dim}), got {pts.shape}")
    if pts.shape[0] < 1:
        raise InvalidArgumentError("points must have at least one row")
    fam = spec.family
    if isinstance(fam, (model.SingleLinear, model.JointLinear)):
        return _rows_violated(reformulate.linear_row_values(pts, x, fam.n_rows()),
                              spec)
    if isinstance(fam, model.Quadratic):
        q, d = fam.q, spec.d
        a_part = pts[:, : q * d].reshape(-1, q, d)
        ax = a_part @ x
        quad = np.sum(ax * ax, axis=1)
        lin = pts[:, q * d : q * d + d] @ x
        return float(np.mean(quad - lin - pts[:, -1] > spec.rhs[0]))
    if isinstance(fam, model.Semidefinite):
        p = fam.p
        mats = pts.reshape(pts.shape[0], spec.d, p, p)
        lhs = np.einsum("ndpq,d->npq", mats, x) + model.semidefinite_rhs_matrix(spec)
        lhs = (lhs + lhs.transpose(0, 2, 1)) / 2.0
        eigs = np.linalg.eigvalsh(lhs)[:, 0]
        return float(np.mean(eigs < 0.0))
    raise InvalidArgumentError(f"unknown family {fam!r}")


def _rows_violated(row_values: np.ndarray, spec: model.CcpSpec) -> float:
    """Fraction of the (n, l) linear row values with some row above its rhs.

    The l column comparisons are ORed one column at a time, which is faster
    than np.any over the short row axis, and the count over n is the float
    np.mean of the same booleans gives.  n must be at least 1.
    """
    hit = row_values[:, 0] > spec.rhs[0]
    for j in range(1, row_values.shape[1]):
        hit |= row_values[:, j] > spec.rhs[j]
    return float(np.count_nonzero(hit) / row_values.shape[0])


def mc_violation(x, sampler: Sampler, spec: model.CcpSpec,
                 n_eval: int = 10_000, seed: int = 0) -> float:
    """Monte Carlo estimate of the violation probability at x.

    For the linear families the draw is projected through X, the (m, l)
    block embedding of x (column j holds x in row block j), so each block
    of draws maps straight to its l row values a_j(xi)'x and the (n_eval,
    m) sample is never formed.  The stream, and so the estimate, is that of
    violation_rate(spec, x, sampler.draw(rng, n_eval)).  Other families
    score the drawn points with violation_rate.
    """
    if n_eval < 1:
        raise InvalidArgumentError("n_eval must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    fam = spec.family
    if not isinstance(fam, (model.SingleLinear, model.JointLinear)):
        return violation_rate(spec, x, sampler.draw(rng, n_eval))
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != spec.d:
        raise InvalidArgumentError(f"x must have {spec.d} entries, got {x.size}")
    embed = np.kron(np.eye(fam.n_rows()), x[:, None])
    return _rows_violated(sampler.draw(rng, n_eval, project=embed), spec)


# ---------------------------------------------------------------------------
# shape fitting by name


# shape kind -> (fitter(phase1, **options), {option: type}); an option left
# out takes the fitter's default, and one without a default must be given
_SHAPE_FITTERS = {
    "ellipsoid": (partial(shapes.fit_ellipsoid, mode="full"), {}),
    "diag_ellipsoid": (partial(shapes.fit_ellipsoid, mode="diag"), {}),
    "ball": (partial(shapes.fit_ellipsoid, mode="ball"), {}),
    "polytope_box": (shapes.fit_polytope_box, {}),
    "pca": (shapes.pca_ellipsoid, {"variance_keep": float, "ridge": float}),
    "cluster_union": (partial(shapes.cluster_union, k=2),
                      {"k": int, "mode": str, "seed": int}),
    "ball_basis": (shapes.ball_basis, {}),
    "box_grid": (shapes.grid_histogram, {"width": float}),
}
SHAPE_KINDS = tuple(_SHAPE_FITTERS)
# shape kind -> the options whose fitter parameter has no default
_REQUIRED_OPTIONS = {
    kind: tuple(name for name in types
                if inspect.signature(fitter).parameters[name].default
                is inspect.Parameter.empty)
    for kind, (fitter, types) in _SHAPE_FITTERS.items()}


def _shape_options(kind: str, options) -> dict:
    """The kind's fitting options, checked by name and type."""
    if kind not in _SHAPE_FITTERS:
        raise InvalidArgumentError(
            f"unknown shape kind {kind!r}; known: {', '.join(SHAPE_KINDS)}")
    types = _SHAPE_FITTERS[kind][1]
    options = model.read_fields({} if options is None else options,
                                f"{kind} shape options", types, _REQUIRED_OPTIONS[kind])
    return {name: model.read_value(value, types[name], f"{kind} shape option {name!r}")
            for name, value in options.items()}


def fit_shape(kind: str, phase1, options: dict | None = None):
    """Fit a Phase-1 shape by its registry name."""
    return _SHAPE_FITTERS[kind][0](phase1, **_shape_options(kind, options))


# ---------------------------------------------------------------------------
# experiment configuration and report


SCALE_POLICIES = ("auto", "margin", "std")      # reconstruction scale
VIOLATION_MODES = ("auto", "mc", "analytic")    # violation evaluation


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: a CCP, a data law, a method, and split sizes."""

    spec: model.CcpSpec
    sampler: Sampler
    method: str
    n: int
    n1: int = 0
    shape: str = "ellipsoid"
    shape_options: dict | None = None
    n_eval: int = 10_000
    violation: str = "auto"  # one of VIOLATION_MODES
    perturbation: dict | None = None
    scale: str = "auto"      # one of SCALE_POLICIES

    def __post_init__(self):
        # the counts, also those of a config document, are read here
        for name in ("n", "n1", "n_eval"):
            object.__setattr__(self, name, model.read_value(
                getattr(self, name), int, f"experiment config field {name!r}"))
        if self.method not in _METHODS:
            raise InvalidArgumentError(
                f"method must be one of {', '.join(_METHODS)}")
        _shape_options(self.shape, self.shape_options)
        if self.n < 1:
            raise InvalidArgumentError("n must be >= 1")
        if not (0 <= self.n1 <= self.n):
            raise InvalidArgumentError("need 0 <= n1 <= n")
        need = min_phase2_size(self.spec.epsilon, self.spec.delta)
        if self.method in ("ro", "ro_reconstructed") and self.n2 < need:
            raise InvalidArgumentError(
                f"Phase 2 has n - n1 = {self.n2} rows; calibrating at this "
                f"epsilon and delta needs at least {need}")
        if self.violation not in VIOLATION_MODES:
            raise InvalidArgumentError("violation must be auto, mc, or analytic")
        if self.scale not in SCALE_POLICIES:
            raise InvalidArgumentError("scale must be auto, margin, or std")
        if self.sampler.dim != self.spec.data_dim:
            raise InvalidArgumentError(
                f"sampler draws dimension {self.sampler.dim} but the family "
                f"expects {self.spec.data_dim}")
        if not isinstance(self.spec.family,
                          (model.SingleLinear, model.JointLinear)):
            raise InvalidArgumentError(
                "replicated experiments need a linear constraint family; "
                "conic families build export-only programs")
        if self.violation == "analytic" and not _has_gaussian_violation(self):
            raise InvalidArgumentError(
                "analytic violation needs a gaussian sampler and the single "
                "linear family")
        if self.n_eval < 1 and not _analytic_violation(self):
            raise InvalidArgumentError(
                "n_eval must be >= 1 where the violation is estimated by "
                "Monte Carlo")
        if self.method in ("safe_hoeffding", "safe_gaussian"):
            if not isinstance(self.spec.family, model.SingleLinear):
                raise InvalidArgumentError(
                    "safe approximations apply to the single linear family")
            pert = self.perturbation or {}
            need = {"a0", "a_rows"}
            if self.method == "safe_gaussian":
                need |= {"mu_minus", "mu_plus", "sigma"}
            missing = sorted(need - set(pert))
            if missing:
                raise InvalidArgumentError(
                    f"{self.method} needs perturbation fields: {', '.join(missing)}")

    @property
    def n2(self) -> int:
        return self.n - self.n1


@dataclass(frozen=True)
class ReplicationRecord:
    replication: int
    status: str
    objective: float | None
    violation_probability: float | None
    note: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    records: tuple[ReplicationRecord, ...]
    mean_objective: float | None
    eps_hat: float | None
    delta_hat: float
    r: int
    failures: int
    config_echo: dict
    statuses: dict  # replication status -> count


def _has_gaussian_violation(config: ExperimentConfig) -> bool:
    return (config.sampler.kind == "gaussian"
            and isinstance(config.spec.family, model.SingleLinear))


def _analytic_violation(config: ExperimentConfig) -> bool:
    """Whether the violation is the closed form rather than Monte Carlo."""
    # the config admits "analytic" only where the closed form applies
    return config.violation != "mc" and _has_gaussian_violation(config)


def _violation_of(config: ExperimentConfig, x, eval_seed: int) -> float:
    if _analytic_violation(config):
        p = config.sampler.params
        return gaussian_violation(x, p["mu"], p["sigma"], float(config.spec.rhs[0]))
    return mc_violation(x, config.sampler, config.spec, config.n_eval,
                        seed=eval_seed)


def two_phase_ro(spec: model.CcpSpec, data: model.Dataset, n1: int, seed: int,
                 shape: str, shape_options: dict | None):
    """Split, fit the Phase-1 shape, calibrate on Phase 2, reformulate."""
    split = model.split_data(data, n1, seed)
    fitted = fit_shape(shape, split.phase1, shape_options)
    pset = shapes.build_prediction_set(fitted, split.phase2, spec.epsilon, spec.delta)
    return reformulate.assemble_ro(spec, pset)


def _solved(spec: model.CcpSpec, sol):
    """(status, decision x or None unless optimal, note) of one solve.

    The note is the solver's reason for stopping short, if it gave one.
    """
    x = sol.x[: spec.d] if sol.status is conic.SolveStatus.OPTIMAL else None
    return sol.status.value, x, sol.reason or ""


def _method_ro(config: ExperimentConfig, data_rows, seed: int):
    rp = two_phase_ro(config.spec, model.Dataset(data_rows), config.n1, seed,
                      config.shape, config.shape_options)
    return _solved(config.spec, conic.solve(rp.program))


def _method_ro_reconstructed(config: ExperimentConfig, data_rows, seed: int):
    rec = reconstruction_pipeline(data_rows, config.spec, config.n1, seed=seed,
                                  shape=config.shape,
                                  shape_options=config.shape_options,
                                  scale=config.scale)
    note = (f"rho={rec.rho:.6g}" if rec.rho is not None
            else f"initial={rec.status_initial}")
    return rec.status_reconstructed, rec.x_tilde, note


def _method_sg(config: ExperimentConfig, data_rows, seed: int):
    return _solved(config.spec, baselines.sg_solve(config.spec, data_rows))


def _method_safe_hoeffding(config: ExperimentConfig, data_rows, seed: int):
    pert = config.perturbation
    prog = baselines.safe_hoeffding(
        config.spec.objective, pert["a0"], pert["a_rows"],
        float(config.spec.rhs[0]), config.spec.epsilon, det=config.spec.det)
    return _solved(config.spec, conic.solve(prog))


def _method_safe_gaussian(config: ExperimentConfig, data_rows, seed: int):
    pert = config.perturbation
    prog = baselines.safe_gaussian(
        config.spec.objective, pert["a0"], pert["a_rows"],
        pert["mu_minus"], pert["mu_plus"], pert["sigma"],
        float(config.spec.rhs[0]), config.spec.epsilon, det=config.spec.det)
    return _solved(config.spec, conic.solve(prog))


# method name -> (config, data rows, split seed) -> (status, x or None, note)
_METHODS = {
    "ro": _method_ro,
    "ro_reconstructed": _method_ro_reconstructed,
    "sg": _method_sg,
    "safe_hoeffding": _method_safe_hoeffding,
    "safe_gaussian": _method_safe_gaussian,
}


def _run_one(config: ExperimentConfig, master_seed: int, r: int) -> ReplicationRecord:
    seed, eval_seed = _rep_seeds(master_seed, r)
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        data_rows = config.sampler.draw(rng, config.n)
        status, x, note = _METHODS[config.method](config, data_rows, seed)
    except RosetError as exc:
        status, x, note = "error", None, f"{type(exc).__name__}: {exc}"
    objective = viol = None
    if x is not None:
        objective = float(config.spec.objective @ x)
        viol = _violation_of(config, x, eval_seed)
    return ReplicationRecord(replication=r, status=status, objective=objective,
                             violation_probability=viol, note=note)


def run_replications(config: ExperimentConfig, r_count: int,
                     master_seed: int) -> ExperimentReport:
    """Run R independent replications, in replication order."""
    r_count = model.read_value(r_count, int, "replication count")
    master_seed = model.read_value(master_seed, int, "master seed")
    if r_count < 1:
        raise InvalidArgumentError("replication count must be >= 1")
    if master_seed < 0:
        raise InvalidArgumentError("master seed must be >= 0")
    records = [_run_one(config, master_seed, r) for r in range(r_count)]
    statuses = dict(Counter(rec.status for rec in records))
    failures = r_count - statuses.get("optimal", 0)
    good = [rec for rec in records if rec.violation_probability is not None]
    eps_hat = (float(np.mean([rec.violation_probability for rec in good]))
               if good else None)
    mean_obj = (float(np.mean([rec.objective for rec in good]))
                if good else None)
    # a failed replication has no feasible solution to certify: count it
    # against the method when scoring the confidence level
    over = sum(1 for rec in good
               if rec.violation_probability > config.spec.epsilon)
    delta_hat = (over + failures) / r_count
    echo = {
        "method": config.method,
        "shape": config.shape,
        "epsilon": config.spec.epsilon,
        "delta": config.spec.delta,
        "n": config.n,
        "n1": config.n1,
        "n2": config.n2,
        "seed": master_seed,
        "n_eval": config.n_eval,
        "violation": config.violation,
    }
    return ExperimentReport(records=tuple(records), mean_objective=mean_obj,
                            eps_hat=eps_hat, delta_hat=float(delta_hat),
                            r=r_count, failures=failures, config_echo=echo,
                            statuses=statuses)


# ---------------------------------------------------------------------------
# reconstruction pipeline


@dataclass(frozen=True)
class ReconstructionResult:
    x_hat: np.ndarray | None
    x_tilde: np.ndarray | None
    obj_hat: float | None
    obj_tilde: float | None
    rho: float | None
    scale: np.ndarray | None
    scale_fallback_rows: tuple[int, ...]
    status_initial: str
    status_reconstructed: str

    @property
    def improved(self) -> bool | None:
        if self.obj_hat is None or self.obj_tilde is None:
            return None
        return bool(self.obj_tilde <= self.obj_hat + 1e-8)


def reconstruction_pipeline(data, spec: model.CcpSpec, n1: int, seed: int = 0,
                            shape: str = "ellipsoid",
                            shape_options: dict | None = None,
                            scale: str = "auto") -> ReconstructionResult:
    """Initial RO solve on a Phase-1 region, then margin-based reshaping.

    Phase 1 fits the shape and sizes it to cover ceil(n1(1-eps)) of its own
    points; solving that RO gives x_hat. The set is then rebuilt around
    x_hat's constraint margins and recalibrated on Phase 2, and the
    reconstructed RO, a linear program in the one scalar lambda of
    x = lambda x_hat, is solved in closed form for x_tilde by
    reformulate.solve_reconstruction.
    """
    if scale not in SCALE_POLICIES:
        raise InvalidArgumentError("scale must be auto, margin, or std")
    if not isinstance(data, model.Dataset):
        data = model.Dataset(data)
    split = model.split_data(data, n1, seed)
    ph1 = split.phase1.points
    if ph1.shape[0] < 1:
        raise InvalidArgumentError("reconstruction needs at least one Phase-1 row")

    fitted = fit_shape(shape, split.phase1, shape_options)
    values = np.sort(shapes.transform_values(fitted, ph1))
    cover = min(len(values), max(1, math.ceil(len(values) * (1.0 - spec.epsilon))))
    s0 = float(values[cover - 1])
    pset0 = shapes.PredictionSet(
        shape=fitted, size=s0,
        calib=CalibResult(i_star=cover, s=s0, n2=len(values),
                          epsilon=spec.epsilon, delta=spec.delta,
                          tie_warning=False))
    sol0 = conic.solve(reformulate.assemble_ro(spec, pset0).program)
    if sol0.status is not conic.SolveStatus.OPTIMAL:
        return ReconstructionResult(
            x_hat=None, x_tilde=None, obj_hat=None, obj_tilde=None, rho=None,
            scale=None, scale_fallback_rows=(),
            status_initial=sol0.status.value, status_reconstructed="skipped")
    x_hat = sol0.x[: spec.d]
    obj_hat = float(spec.objective @ x_hat)

    l = spec.family.n_rows()
    lhs_rows = reformulate.linear_row_values(ph1, x_hat, l)
    if scale == "std":
        k = lhs_rows.std(axis=0, ddof=0)
        fallback = tuple(range(l))
    else:
        mu_rows = ph1.reshape(ph1.shape[0], l, spec.d).mean(axis=0)
        k = spec.rhs - mu_rows @ x_hat
        bad = np.flatnonzero(k <= 0.0)
        if bad.size and scale == "margin":
            raise InvalidArgumentError(
                f"margin scale is nonpositive on rows {bad.tolist()}; "
                "use scale='auto' or 'std'")
        if bad.size:
            k = k.copy()
            k[bad] = lhs_rows[:, bad].std(axis=0, ddof=0)
            warnings.warn(
                f"margin scale was nonpositive on rows {bad.tolist()}; "
                "fell back to the per-row standard deviation",
                stacklevel=2)
        fallback = tuple(int(i) for i in bad)

    pset_rec = reformulate.build_reconstruction_set(
        x_hat, spec, k, split.phase2, spec.epsilon, spec.delta)
    status, x_tilde = reformulate.solve_reconstruction(spec, x_hat, pset_rec)
    return ReconstructionResult(
        x_hat=x_hat, x_tilde=x_tilde, obj_hat=obj_hat,
        obj_tilde=None if x_tilde is None else float(spec.objective @ x_tilde),
        rho=float(pset_rec.calib.s), scale=k, scale_fallback_rows=fallback,
        status_initial="optimal", status_reconstructed=status.value)


# ---------------------------------------------------------------------------
# experiment configuration files


_PERTURBATION_FIELDS = ("a0", "a_rows", "mu_minus", "mu_plus", "sigma")
# field name -> (to document, from document); the other fields are plain
# values, read by their annotation
_CONFIG_CODECS = {
    "spec": (lambda spec: json.loads(model.spec_to_json(spec)),
             lambda obj: model.spec_from_json(json.dumps(obj))),
    "sampler": (sampler_to_obj, sampler_from_obj),
    "perturbation": (
        lambda pert: None if pert is None else {
            k: np.asarray(v, dtype=float).tolist() for k, v in pert.items()},
        lambda obj: None if obj is None else {
            k: model.frozen(v, f"perturbation {k}") for k, v in model.read_fields(
                obj, "perturbation", _PERTURBATION_FIELDS).items()}),
}
_CONFIG_SCALARS = {"str": str}  # the int fields are read by ExperimentConfig


def config_to_obj(config: ExperimentConfig) -> dict:
    """One entry per ExperimentConfig field, in field order."""
    return {f.name: (_CONFIG_CODECS[f.name][0](getattr(config, f.name))
                     if f.name in _CONFIG_CODECS else getattr(config, f.name))
            for f in fields(ExperimentConfig)}


def config_from_obj(obj: dict) -> ExperimentConfig:
    """Inverse of config_to_obj; absent fields take the dataclass defaults."""
    known = fields(ExperimentConfig)
    model.read_fields(obj, "experiment config", [f.name for f in known],
                      [f.name for f in known if f.default is MISSING])
    kwargs = {}
    for f in known:
        if f.name not in obj:
            continue
        value = obj[f.name]
        if f.name in _CONFIG_CODECS:
            value = _CONFIG_CODECS[f.name][1](value)
        elif f.type in _CONFIG_SCALARS:
            value = model.read_value(value, _CONFIG_SCALARS[f.type],
                                     f"experiment config field {f.name!r}")
        kwargs[f.name] = value
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# report output


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replication", "status", "objective",
                     "violation_probability", "note"])
    for rec in report.records:
        writer.writerow([
            rec.replication,
            rec.status,
            "" if rec.objective is None else f"{rec.objective:.17g}",
            "" if rec.violation_probability is None
            else f"{rec.violation_probability:.17g}",
            rec.note,
        ])
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    doc = {
        "aggregates": {
            "mean_objective": report.mean_objective,
            "eps_hat": report.eps_hat,
            "delta_hat": report.delta_hat,
            "replications": report.r,
            "failures": report.failures,
            "statuses": report.statuses,
        },
        "config": report.config_echo,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
