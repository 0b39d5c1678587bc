"""Monte Carlo validation: violation metrics, replicated experiments,
and the set-reconstruction pipeline.

A replication draws a fresh dataset, runs one solution method end to end,
and scores the returned decision by its true (analytic or simulated)
constraint violation probability; a safe method reads no data, so its
program is built with the config, solved once, and scored anew in each
replication. Aggregates follow the usual two-level reading: eps_hat is the
mean violation probability of the returned solutions, delta_hat the
fraction of replications whose solution misses the epsilon target.
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
from .errors import InvalidArgumentError, InvalidScaleError, RosetError

__all__ = [
    "Sampler",
    "gaussian_sampler",
    "mixture_sampler",
    "scaled_beta_sampler",
    "quadratic_wishart_sampler",
    "sdp_wishart_sampler",
    "pca_synthetic_sampler",
    "sampler_from_obj",
    "gaussian_violation",
    "violation_rate",
    "mc_violation",
    "fit_shape",
    "SHAPE_KINDS",
    "two_phase_ro",
    "ExperimentConfig",
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

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n observations as an (n, m) array."""
        n = model.read_value(n, int, "draw count", least=0)
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


def _normal(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


def _zeta_fill(params: dict):
    """Block filler of the scaled-beta sampler's Beta(alpha, beta) variates.

    Beta(2, 2) is drawn as the median of three uniforms: the k-th smallest
    of n uniforms is Beta(k, n + 1 - k) (Devroye, Non-Uniform Random
    Variate Generation, 1986, on uniform order statistics).  A block of r
    rows takes ceil(3 r m / 2) raw 64-bit words from the bit generator, read
    as 3 r m 32-bit integers; the min/max network takes the median k of its
    three thirds in uint32, and one conversion gives zeta = (k + 1/2) 2^-32.
    That is exactly the median of three uniforms on the grid of the 2^32
    midpoints (k + 1/2) 2^-32, so zeta lies strictly inside (0, 1), is
    symmetric about 1/2, and its CDF is within 2e-10 of Beta(2, 2)'s
    3t^2 - 2t^3 (the grid's CDF is within 2^-33 of t, and the median's slope
    in it is at most 3/2).  It uses half the generator output of three
    float64 uniforms and no float sorting pass.  This kernel changed the
    (2, 2) stream a second time, after the float64 median of three had
    replaced rng.beta.  The block size is part of this stream: changing it
    changes the draws.  Other parameter pairs keep rng.beta, whose stream
    does not depend on the blocks.
    """
    alpha, beta = params["alpha"], params["beta"]
    m = params["a_rows"].shape[0]
    if alpha == beta == 2.0:
        low = np.empty(_BLOCK_ROWS * m, dtype=np.uint32)

        def median3(rng, med):
            r = med.shape[0]
            words = rng.bit_generator.random_raw(-(-3 * r * m // 2))
            a, b, c = words.view(np.uint32)[: 3 * r * m].reshape(3, r, m)
            # median = min(max(a, b), max(min(a, b), c))
            t = np.minimum(a, b, out=low[: r * m].reshape(r, m))
            np.maximum(a, b, out=a)
            np.maximum(t, c, out=t)
            np.minimum(t, a, out=t)
            np.add(t, 0.5, out=med)
            med *= 2.0 ** -32
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
    d = model.read_value(d, int, "dimension", least=1)
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


def _decision(x, d: int) -> np.ndarray:
    """x read as d finite floats."""
    x = model.frozen(x, "x").reshape(-1)
    if x.size != d:
        raise InvalidArgumentError(f"x must have {d} entries, got {x.size}")
    return x


def gaussian_violation(x, mu, sigma, b: float) -> float:
    """P(xi'x > b) for xi ~ N(mu, sigma), evaluated in closed form."""
    mu = model.frozen(mu, "mu", ndim=1)
    x = _decision(x, mu.size)
    sigma = model.frozen(sigma, "sigma", ndim=2)
    if sigma.shape != (mu.size, mu.size):
        raise InvalidArgumentError(f"sigma must be ({mu.size}, {mu.size}), got {sigma.shape}")
    b = float(model.frozen(b, "b", ndim=0))
    if np.all(x == 0.0):
        return 0.0 if b >= 0 else 1.0
    var = float(x @ sigma @ x)
    if var <= 0.0:
        raise InvalidArgumentError("sigma must be positive definite")
    t = (b - float(mu @ x)) / math.sqrt(var)
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def violation_rate(spec: model.CcpSpec, x, points) -> float:
    """Fraction of observation rows whose constraint is violated at x."""
    pts = model.frozen(points, "points", ndim=2)
    if pts.shape[1] != spec.data_dim:
        raise InvalidArgumentError(f"points must be (n, {spec.data_dim}), got {pts.shape}")
    if pts.shape[0] < 1:
        raise InvalidArgumentError("points must have at least one row")
    return _violation_rate(spec, _decision(x, spec.d), pts)


def _violation_rate(spec: model.CcpSpec, x: np.ndarray, pts: np.ndarray) -> float:
    """violation_rate at a read x and (n, data_dim) points."""
    fam = spec.family
    if isinstance(fam, model.JointLinear):
        return _rows_violated(reformulate.linear_row_values(pts, x, fam.l), spec)
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

    It is violation_rate(spec, x, sampler.draw(rng, n_eval)).  The gaussian
    and scaled-beta laws are affine in their base variates (mu + z chol',
    a0 + (2 zeta - 1) a_rows); for them and a linear family that map is
    composed with X, the (m, l) block embedding of x (column j holds x in
    row block j), so each block of the base variates draw would take maps
    straight to its l row values and no (n_eval, m) sample is formed.
    """
    n_eval = model.read_value(n_eval, int, "n_eval", least=1)
    seed = model.read_value(seed, int, "violation seed", least=0)
    x = _decision(x, spec.d)
    rng = np.random.Generator(np.random.PCG64(seed))
    fam, p = spec.family, sampler.params
    if not (isinstance(fam, model.JointLinear)
            and sampler.kind in ("gaussian", "scaled_beta")):
        pts = sampler.draw(rng, n_eval)
        _check_dim(pts.shape[1], spec)
        return _violation_rate(spec, x, pts)
    if sampler.kind == "gaussian":
        fill, lin, off = _normal, p["chol"].T, p["mu"]
    else:
        # a0 + (2 zeta - 1) a_rows = (a0 - 1'a_rows) + zeta (2 a_rows)
        fill = _zeta_fill(p)
        lin, off = 2.0 * p["a_rows"], p["a0"] - p["a_rows"].sum(axis=0)
    _check_dim(off.size, spec)
    embed = np.kron(np.eye(fam.l), x[:, None])
    rows = _variates(rng, n_eval, lin.shape[0], fill, lin @ embed)
    rows += off @ embed
    return _rows_violated(rows, spec)


def _check_dim(m: int, spec: model.CcpSpec) -> None:
    if m != spec.data_dim:
        raise InvalidArgumentError(
            f"sampler draws dimension {m} but the family expects {spec.data_dim}")


# ---------------------------------------------------------------------------
# shape fitting by name


# shape kind -> (fitter(phase1, **options), {option: the reader the fitter
# uses}); an option left out takes the fitter's default, and one without a
# default must be given
_SHAPE_FITTERS = {
    "ellipsoid": (partial(shapes.fit_ellipsoid, mode="full"), {}),
    "diag_ellipsoid": (partial(shapes.fit_ellipsoid, mode="diag"), {}),
    "ball": (partial(shapes.fit_ellipsoid, mode="ball"), {}),
    "polytope_box": (shapes.fit_polytope_box, {}),
    "pca": (shapes.pca_ellipsoid, {"variance_keep": shapes.read_variance_keep}),
    "cluster_union": (partial(shapes.cluster_union, k=2), {"k": shapes.read_cluster_count}),
    "ball_basis": (shapes.ball_basis, {}),
    "box_grid": (shapes.grid_histogram, {"width": shapes.read_width}),
}
SHAPE_KINDS = tuple(_SHAPE_FITTERS)
# shape kind -> the options whose fitter parameter has no default
_REQUIRED_OPTIONS = {
    kind: tuple(name for name in readers
                if inspect.signature(fitter).parameters[name].default
                is inspect.Parameter.empty)
    for kind, (fitter, readers) in _SHAPE_FITTERS.items()}


def _shape_options(kind: str, options) -> dict:
    """The kind's fitting options, checked by name, type and range."""
    if not isinstance(kind, str) or kind not in _SHAPE_FITTERS:
        raise InvalidArgumentError(
            f"unknown shape kind {kind!r}; known: {', '.join(SHAPE_KINDS)}")
    readers = _SHAPE_FITTERS[kind][1]
    options = model.read_fields({} if options is None else options,
                                f"{kind} shape options", readers, _REQUIRED_OPTIONS[kind])
    return {name: readers[name](value) for name, value in options.items()}


def fit_shape(kind: str, phase1, options: dict | None = None):
    """Fit a Phase-1 shape by its registry name."""
    options = _shape_options(kind, options)
    return _SHAPE_FITTERS[kind][0](phase1, **options)


# ---------------------------------------------------------------------------
# experiment configuration and report


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: a CCP, a data law, a method and the fields it reads
    (_READS), each other field left at its default; a safe method's program,
    which the config alone decides, is built with it."""

    spec: model.CcpSpec
    sampler: Sampler
    method: str
    n: int = 0
    n1: int = 0
    shape: str = "ellipsoid"
    shape_options: dict | None = None
    n_eval: int = 10_000     # Monte Carlo draws, where no closed form applies
    perturbation: dict | None = None
    _program = None  # not a field: a safe method's program, set below

    def __post_init__(self):
        # the names and counts, also those of a config document, are read here
        object.__setattr__(self, "method", model.read_value(
            self.method, str, "experiment config field 'method'"))
        if self.method not in _READS:
            raise InvalidArgumentError(f"method must be one of {', '.join(_READS)}")
        reads = _READS[self.method]
        for f in fields(self):
            value = getattr(self, f.name)
            # compared by type first, so an array value is refused, not tested
            if not (f.default is MISSING or f.name in reads
                    or type(value) is type(f.default) and value == f.default):
                raise InvalidArgumentError(
                    f"{self.method} does not read experiment config field {f.name!r}; "
                    f"it reads {', '.join(reads)}")
        for name, kind, least in (("n", int, 1), ("n1", int, None), ("shape", str, None),
                                  ("n_eval", int, None)):
            if name in reads:
                object.__setattr__(self, name, model.read_value(
                    getattr(self, name), kind, f"experiment config field {name!r}", least))
        if "shape" in reads:
            _shape_options(self.shape, self.shape_options)
        if "n1" in reads:
            if self.n1 < 1:
                raise InvalidArgumentError(
                    f"{self.method} fits its shape on n1 Phase-1 rows; need n1 >= 1")
            need = min_phase2_size(self.spec.epsilon, self.spec.delta)
            if self.n2 < need:
                raise InvalidArgumentError(
                    f"Phase 2 has n - n1 = {self.n2} rows; calibrating at this "
                    f"epsilon and delta needs at least {need}")
        _check_dim(self.sampler.dim, self.spec)
        if not isinstance(self.spec.family, model.JointLinear):
            raise InvalidArgumentError(
                "replicated experiments need a linear constraint family; "
                "conic families build export-only programs")
        if self.n_eval < 1 and not _closed_form(self):
            raise InvalidArgumentError(
                "n_eval must be >= 1 where the violation is estimated by "
                "Monte Carlo")
        if "perturbation" in reads:
            if not isinstance(self.spec.family, model.SingleLinear):
                raise InvalidArgumentError(
                    "safe approximations apply to the single linear family")
            build, names = _SAFE_METHODS[self.method]
            pert = {k: model.frozen(v, f"perturbation {k}") for k, v in model.read_fields(
                {} if self.perturbation is None else self.perturbation,
                f"{self.method} perturbation", _PERTURBATION_FIELDS, names).items()}
            object.__setattr__(self, "perturbation", pert)
            object.__setattr__(self, "_program", build(
                self.spec.objective, *(pert[k] for k in names), float(self.spec.rhs[0]),
                self.spec.epsilon, det=self.spec.det))

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


def _closed_form(config: ExperimentConfig) -> bool:
    """Whether the violation is the closed form rather than Monte Carlo."""
    return (config.sampler.kind == "gaussian"
            and isinstance(config.spec.family, model.SingleLinear))


def _violation_of(config: ExperimentConfig, x, eval_seed: int) -> float:
    if _closed_form(config):
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
                                  shape_options=config.shape_options)
    note = (f"rho={rec.rho:.6g}" if rec.rho is not None
            else f"initial={rec.status_initial}")
    return rec.status_reconstructed, rec.x_tilde, note


def _method_sg(config: ExperimentConfig, data_rows, seed: int):
    return _solved(config.spec, baselines.sg_solve(config.spec, data_rows))


# safe method -> (program builder, its perturbation arguments in order)
_SAFE_METHODS = {
    "safe_hoeffding": (baselines.safe_hoeffding, ("a0", "a_rows")),
    "safe_gaussian": (baselines.safe_gaussian,
                      ("a0", "a_rows", "mu_minus", "mu_plus", "sigma")),
}
_PERTURBATION_FIELDS = tuple(
    dict.fromkeys(name for _, names in _SAFE_METHODS.values() for name in names))


# method name -> (config, data rows, split seed) -> (status, x or None, note);
# a safe method reads no data, and ExperimentConfig builds its program
_METHODS = {
    "ro": _method_ro,
    "ro_reconstructed": _method_ro_reconstructed,
    "sg": _method_sg,
}

# method name -> the config fields it reads besides spec, sampler and method;
# every method lists n_eval, which the law, not the method, decides to read
_SPLIT_FIELDS = ("n", "n1", "shape", "shape_options", "n_eval")
_READS = {"ro": _SPLIT_FIELDS, "ro_reconstructed": _SPLIT_FIELDS, "sg": ("n", "n_eval"),
          **dict.fromkeys(_SAFE_METHODS, ("perturbation", "n_eval"))}


def _outcome(config: ExperimentConfig, seed: int):
    """(status, x or None, note) of the method on n rows drawn from seed."""
    try:
        data_rows = config.sampler.draw(
            np.random.Generator(np.random.PCG64(seed)), config.n)
        return _METHODS[config.method](config, data_rows, seed)
    except RosetError as exc:
        return "error", None, f"{type(exc).__name__}: {exc}"


def run_replications(config: ExperimentConfig, r_count: int,
                     master_seed: int) -> ExperimentReport:
    """Run R independent replications, in replication order."""
    r_count = model.read_value(r_count, int, "replication count", least=1)
    master_seed = model.read_value(master_seed, int, "master seed", least=0)
    # a safe method's program, built with the config, is solved once, and
    # each replication scores that solution with its own evaluation seed
    shared = (None if config._program is None
              else _solved(config.spec, conic.solve(config._program)))
    records = []
    for r in range(r_count):
        seed, eval_seed = _rep_seeds(master_seed, r)
        status, x, note = shared or _outcome(config, seed)
        objective = None if x is None else float(config.spec.objective @ x)
        viol = None if x is None else _violation_of(config, x, eval_seed)
        records.append(ReplicationRecord(r, status, objective, viol, note))
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
    # only what the method reads, and n2 where it reads n1
    reads = _READS[config.method]
    closed = _closed_form(config)
    echo = {
        "method": config.method,
        "epsilon": config.spec.epsilon,
        "delta": config.spec.delta,
        **{name: getattr(config, name) if name in reads else None
           for name in ("shape", "n", "n1")},
        "n2": config.n2 if "n1" in reads else None,
        "seed": master_seed,
        "n_eval": None if closed else config.n_eval,
        "violation": "analytic" if closed else "mc",
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
                            shape_options: dict | None = None) -> ReconstructionResult:
    """Initial RO solve on a Phase-1 region, then margin-based reshaping.

    Phase 1 fits the shape and sizes it to cover ceil(n1(1-eps)) of its own
    points; solving that RO gives x_hat. The set is then rebuilt around
    x_hat's constraint margins and recalibrated on Phase 2, and the
    reconstructed RO, a linear program in the one scalar lambda of
    x = lambda x_hat, is solved in closed form for x_tilde by
    reformulate.solve_reconstruction.

    Row j is scaled by its margin k_j = b_j - mu_j'x_hat, mu_j the Phase-1
    mean of its coefficients. Where that margin is nonpositive, k_j falls back
    to the standard deviation of the row's Phase-1 values a_j'x_hat; a
    UserWarning names those rows and scale_fallback_rows lists them. A
    nonpositive margin on a row whose Phase-1 values are all equal has no
    positive scale: InvalidScaleError names the rows.
    """
    if not isinstance(data, model.Dataset):
        data = model.Dataset(data)
    split = model.split_data(data, n1, seed)
    ph1 = split.phase1.points

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

    l = spec.family.l
    mu_rows = ph1.reshape(ph1.shape[0], l, spec.d).mean(axis=0)
    k = spec.rhs - mu_rows @ x_hat
    bad = np.flatnonzero(k <= 0.0)
    if bad.size:
        lhs_bad = reformulate.linear_row_values(ph1, x_hat, l)[:, bad]
        flat = bad[np.ptp(lhs_bad, axis=0) == 0.0]
        if flat.size:
            raise InvalidScaleError(
                f"margin scale is nonpositive on rows {flat.tolist()}, whose "
                "Phase-1 values a_j'x_hat are all equal: no positive scale")
        k[bad] = lhs_bad.std(axis=0, ddof=0)
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


def config_from_obj(obj: dict) -> ExperimentConfig:
    """The config a parsed JSON document describes, one entry per
    ExperimentConfig field; absent fields take the dataclass defaults."""
    known = fields(ExperimentConfig)
    model.read_fields(obj, "experiment config", [f.name for f in known],
                      [f.name for f in known if f.default is MISSING])
    return ExperimentConfig(**{**obj, "spec": model.spec_from_obj(obj["spec"]),
                               "sampler": sampler_from_obj(obj["sampler"])})


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
