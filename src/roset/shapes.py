"""Phase-1 shape learning.

Each shape defines a scalar transform t(xi); the prediction set at size s is
the level set {xi : t(xi) <= s}.  Combinators take the min (union) or max
(intersection, each component on its own slice of xi) of their component
transforms, so a single calibrated size covers the whole composite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Union as TUnion

import numpy as np

from . import calibrate
from .calibrate import CalibResult
from .errors import (
    ClusterDegeneracyError,
    DegenerateDataError,
    InvalidArgumentError,
    TooFineGridError,
)
from .model import Dataset, frozen, read_value

DEFAULT_RIDGE = 1e-8
_GRID_GUARD = 10**6


def _points_of(data) -> np.ndarray:
    """The (n, m) points of a Dataset or an array, n >= 1; a Dataset's points
    were checked finite when it was built."""
    pts = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidArgumentError("need a 2-d point array with at least one row")
    if not isinstance(data, Dataset) and not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("data must be finite")
    return pts


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """t(xi) = (xi - center)' sigma^{-1} (xi - center), sigma SPD.

    sigma counts as symmetric when |sigma - sigma'| <= 1e-12 + 1e-5 |sigma'|
    entrywise, the test np.allclose(sigma, sigma.T, atol=1e-12) makes, done
    here in one elementwise pass.
    """

    center: np.ndarray
    sigma: np.ndarray

    variant = "ellipsoid"

    def __post_init__(self):
        center = frozen(self.center, "center", 1)
        sigma = frozen(self.sigma, "sigma", 2)
        m = center.size
        if sigma.shape != (m, m):
            raise InvalidArgumentError("sigma must be m x m")
        if not np.all(np.abs(sigma - sigma.T) <= 1e-12 + 1e-5 * np.abs(sigma.T)):
            raise InvalidArgumentError("sigma must be symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError("sigma is not positive definite") from exc
        chol.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular L with sigma = L L'."""
        return self._chol


@dataclass(frozen=True, eq=False)
class DiagEllipsoid:
    """Axis-aligned ellipsoid: t(xi) = sum_j (xi_j - center_j)^2 / variances_j."""

    center: np.ndarray
    variances: np.ndarray

    variant = "diag_ellipsoid"

    def __post_init__(self):
        center = frozen(self.center, "center", 1)
        variances = frozen(self.variances, "variances", 1)
        if variances.size != center.size:
            raise InvalidArgumentError("variances must match center length")
        if np.any(variances <= 0):
            raise DegenerateDataError("variances must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "variances", variances)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class Ball:
    """Isotropic squared distance: t(xi) = ||xi - center||^2."""

    center: np.ndarray

    variant = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", frozen(self.center, "center", 1))

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class Polytope:
    """Half-space set {xi : rows xi <= offsets} with a strict interior point.

    t(xi) = max_i rows_i'(xi - interior) / (offsets_i - rows_i' interior); the
    level set at s = 1 is the polytope itself, smaller s shrinks it toward
    the interior point.
    """

    rows: np.ndarray
    offsets: np.ndarray
    interior: np.ndarray

    variant = "polytope"

    def __post_init__(self):
        rows = frozen(self.rows, "polytope rows", 2)
        offsets = frozen(self.offsets, "polytope offsets", 1)
        interior = frozen(self.interior, "interior point", 1)
        if rows.shape[0] != offsets.size or rows.shape[0] < 1:
            raise InvalidArgumentError("rows and offsets must align")
        if rows.shape[1] != interior.size:
            raise InvalidArgumentError("interior point dimension mismatch")
        slack = offsets - rows @ interior
        if np.any(slack <= 0):
            raise InvalidArgumentError(
                "interior point must satisfy every half-space strictly"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "interior", interior)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class PcaEllipsoid:
    """Ellipsoid in a projected subspace: t(xi) = (M xi - mu)' S^{-1} (M xi - mu)."""

    projection: np.ndarray
    center_reduced: np.ndarray
    sigma_reduced: np.ndarray

    variant = "pca_ellipsoid"

    def __post_init__(self):
        projection = frozen(self.projection, "projection", 2)
        center = frozen(self.center_reduced, "center_reduced", 1)
        sigma = frozen(self.sigma_reduced, "sigma_reduced", 2)
        r = projection.shape[0]
        if center.size != r or sigma.shape != (r, r):
            raise InvalidArgumentError("reduced parameters must match projection rows")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError("reduced sigma is not positive definite") from exc
        chol.flags.writeable = False
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "center_reduced", center)
        object.__setattr__(self, "sigma_reduced", sigma)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.projection.shape[1]

    @property
    def rank(self) -> int:
        return self.projection.shape[0]

    @property
    def chol(self) -> np.ndarray:
        return self._chol


def _check_centers(centers) -> np.ndarray:
    centers = frozen(centers, "centers", 2)
    if centers.shape[0] < 1:
        raise InvalidArgumentError("need at least one center")
    return centers


@dataclass(frozen=True, eq=False)
class BallBasis:
    """Union of equal balls: t(xi) = min_k ||xi - centers_k||^2.

    The level set at size s is the union of the balls of radius sqrt(s)
    around the K rows of ``centers``.
    """

    centers: np.ndarray

    variant = "ball_basis"

    def __post_init__(self):
        object.__setattr__(self, "centers", _check_centers(self.centers))

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def components(self) -> tuple:
        """The balls, built on each read; none are stored."""
        return tuple(Ball(center=c) for c in self.centers)


@dataclass(frozen=True, eq=False)
class BoxGrid:
    """Union of axis-aligned cubes: t(xi) = min_i ||xi - centers_i||_inf / half_width."""

    centers: np.ndarray
    half_width: float

    variant = "box_grid"

    def __post_init__(self):
        centers = _check_centers(self.centers)
        hw = read_value(self.half_width, float, "half_width")
        if not (hw > 0 and np.isfinite(hw)):
            raise InvalidArgumentError("half_width must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "half_width", hw)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


_BASIC = (Ellipsoid, DiagEllipsoid, Ball, Polytope, PcaEllipsoid, BallBasis,
          BoxGrid)


def _basic_components(components) -> tuple:
    components = tuple(components)
    if not components:
        raise InvalidArgumentError("combinator needs at least one component")
    if not all(isinstance(comp, _BASIC) for comp in components):
        raise InvalidArgumentError(
            "combinators accept basic shapes only (no nesting)"
        )
    return components


def _check_components(components) -> tuple:
    """Basic shapes of one common dimension."""
    components = _basic_components(components)
    if len({comp.dim for comp in components}) != 1:
        raise InvalidArgumentError("component dimensions differ")
    return components


@dataclass(frozen=True, eq=False)
class Union:
    """t(xi) = min over components; membership in any component level set."""

    components: tuple

    variant = "union"

    def __post_init__(self):
        object.__setattr__(self, "components", _check_components(self.components))

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass(frozen=True, eq=False)
class Intersection:
    """The constraint-wise product of its components.

    Component i reads the next components[i].dim coordinates, in order, so
    dim is the sum of the component dimensions; t(xi) = max over components
    of each one's transform on its own slice, membership in every component
    level set.  This max-map calibrates one shared size for constraint-wise
    uncertainty.
    """

    components: tuple

    variant = "intersection"

    def __post_init__(self):
        object.__setattr__(self, "components", _basic_components(self.components))

    @property
    def dim(self) -> int:
        return sum(comp.dim for comp in self.components)


Shape = TUnion[Ellipsoid, DiagEllipsoid, Ball, Polytope, PcaEllipsoid, BallBasis,
               BoxGrid, Union, Intersection]


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """A calibrated set {xi : t(xi) <= size}."""

    shape: Shape
    size: float
    calib: CalibResult

    @property
    def dim(self) -> int:
        return self.shape.dim


# ---------------------------------------------------------------------------
# transforms


def transform_values(shape: Shape, points) -> np.ndarray:
    """Vectorized transform over an (n, m) array of points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidArgumentError("points must be a 2-d array")
    if pts.shape[1] != shape.dim:
        raise InvalidArgumentError(
            f"points have dimension {pts.shape[1]}, shape expects {shape.dim}"
        )
    if isinstance(shape, Ellipsoid):
        diff = pts - shape.center
        w = np.linalg.solve(shape.chol, diff.T)
        return np.sum(w * w, axis=0)
    if isinstance(shape, DiagEllipsoid):
        diff = pts - shape.center
        return np.sum(diff * diff / shape.variances, axis=1)
    if isinstance(shape, Polytope):
        slack = shape.offsets - shape.rows @ shape.interior
        vals = (pts - shape.interior) @ shape.rows.T / slack
        return np.max(vals, axis=1)
    if isinstance(shape, PcaEllipsoid):
        proj = pts @ shape.projection.T - shape.center_reduced
        w = np.linalg.solve(shape.chol, proj.T)
        return np.sum(w * w, axis=0)
    if isinstance(shape, (Ball, BallBasis, BoxGrid)):
        # a Ball is the basis of its one center; chunks of centers bound the
        # (n, chunk, m) difference of the squared 2-norm
        centers = shape.center[None, :] if isinstance(shape, Ball) else shape.centers
        norm = np.inf if isinstance(shape, BoxGrid) else 2
        step = max(1, 10**7 // max(1, pts.size))
        dist = np.min([_distances(pts, centers[lo : lo + step], norm).min(axis=1)
                       for lo in range(0, centers.shape[0], step)], axis=0)
        return dist / shape.half_width if norm == np.inf else dist
    if isinstance(shape, Union):
        vals = [transform_values(comp, pts) for comp in shape.components]
        return np.min(vals, axis=0)
    if isinstance(shape, Intersection):
        ends = np.cumsum([comp.dim for comp in shape.components])
        vals = [transform_values(comp, pts[:, end - comp.dim : end])
                for comp, end in zip(shape.components, ends)]
        return np.max(vals, axis=0)
    raise InvalidArgumentError(f"unknown shape {shape!r}")


def _distances(pts: np.ndarray, centers: np.ndarray, norm) -> np.ndarray:
    """The (n, k) distances from n points to k centers: the squared 2-norm
    for norm 2, the max-norm for norm inf (one coordinate at a time)."""
    if norm == 2:
        diff = pts[:, None, :] - centers
        return np.einsum("nkm,nkm->nk", diff, diff)
    dist = np.zeros((pts.shape[0], centers.shape[0]))
    for j in range(pts.shape[1]):
        np.maximum(dist, np.abs(pts[:, j, None] - centers[:, j]), out=dist)
    return dist


# ---------------------------------------------------------------------------
# fitting


def _regularize_spd(sigma: np.ndarray) -> np.ndarray:
    m = sigma.shape[0]
    tr = float(np.trace(sigma))
    if tr <= 0:
        raise DegenerateDataError("covariance has zero trace; data are a single point")
    level = DEFAULT_RIDGE * tr / m
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    if lam_min <= level:
        sigma = sigma + level * np.eye(m)
    return sigma


def fit_ellipsoid(phase1, mode: str = "full") -> Shape:
    """Fit an ellipsoidal shape: sample mean plus (regularized) covariance.

    mode "full" keeps the whole covariance matrix, "diag" its diagonal, and
    "ball" replaces it with the identity.  A near-singular covariance is
    lifted by DEFAULT_RIDGE times its mean variance.
    """
    pts = _points_of(phase1)
    n, m = pts.shape
    mu = pts.mean(axis=0)
    if mode == "ball":
        return Ball(center=mu)
    if n > 1:
        cov = np.cov(pts, rowvar=False, ddof=1).reshape(m, m)
    else:
        cov = np.zeros((m, m))
    if mode == "full":
        return Ellipsoid(center=mu, sigma=_regularize_spd(cov))
    if mode == "diag":
        var = np.diag(cov).copy()
        tr = float(var.sum())
        if tr <= 0:
            raise DegenerateDataError("all coordinates have zero variance")
        level = DEFAULT_RIDGE * tr / m
        var[var <= level] += level
        return DiagEllipsoid(center=mu, variances=var)
    raise InvalidArgumentError(f"unknown mode {mode!r}")


def fit_polytope_box(phase1) -> Polytope:
    """Axis-aligned bounding box of the data as 2m half-spaces."""
    pts = _points_of(phase1)
    n, m = pts.shape
    if n < 2:
        raise InvalidArgumentError("need at least two points for a box")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if np.any(hi - lo <= 0):
        raise DegenerateDataError("a coordinate has zero width")
    rows = np.vstack([np.eye(m), -np.eye(m)])
    offsets = np.concatenate([hi, -lo])
    return Polytope(rows=rows, offsets=offsets, interior=(lo + hi) / 2.0)


def read_cluster_count(k) -> int:
    """cluster_union's option k, an int >= 1."""
    return read_value(k, int, "cluster count 'k'", least=1)


def read_variance_keep(value) -> float:
    """pca_ellipsoid's option variance_keep, a float in (0, 1]."""
    value = read_value(value, float, "pca option 'variance_keep'")
    if 0 < value <= 1:
        return value
    raise InvalidArgumentError(f"pca option 'variance_keep' must be in (0, 1], got {value}")


def read_width(width) -> float:
    """grid_histogram's option width, a finite float > 0."""
    width = read_value(width, float, "box_grid option 'width'")
    if width > 0 and np.isfinite(width):
        return width
    raise InvalidArgumentError(f"box_grid option 'width' must be finite and > 0, got {width}")


def _kmeans(pts: np.ndarray, k: int):
    n = pts.shape[0]
    rng = np.random.Generator(np.random.PCG64(0))
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = _distances(pts, centers[:1], 2)[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = pts[rng.integers(n)]
        else:
            centers[j] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _distances(pts, centers[j : j + 1], 2)[:, 0])

    repaired = False
    labels = None
    for _ in range(100):
        dist = _distances(pts, centers, 2)
        labels = np.argmin(dist, axis=1)
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            if repaired:
                raise ClusterDegeneracyError(
                    "empty cluster persists; use a smaller k"
                )
            repaired = True
            assigned = dist[np.arange(n), labels]
            for j in np.flatnonzero(counts == 0):
                far = int(np.argmax(assigned))
                centers[j] = pts[far]
                assigned[far] = -1.0
            continue
        new_centers = np.vstack(
            [pts[labels == j].mean(axis=0) for j in range(k)]
        )
        move = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if move <= 1e-8:
            break
    return labels, centers


def cluster_union(phase1, k: int) -> Shape:
    """k-means the data and fit one full ellipsoid per cluster; union of the
    fits.  The k-means++ start draws from np.random.PCG64(0), so a fit is
    a function of the data and k."""
    pts = _points_of(phase1)
    k = read_cluster_count(k)
    if k == 1:
        return fit_ellipsoid(pts)
    if 2 * k > pts.shape[0]:
        raise ClusterDegeneracyError(
            f"{k} clusters cannot all hold >= 2 of {pts.shape[0]} points"
        )
    labels, _ = _kmeans(pts, k)
    parts = []
    for j in range(k):
        cluster = pts[labels == j]
        if cluster.shape[0] < 2:
            raise ClusterDegeneracyError(
                f"cluster {j} has {cluster.shape[0]} point(s); use a smaller k"
            )
        parts.append(fit_ellipsoid(cluster))
    return Union(components=tuple(parts))


def pca_ellipsoid(phase1, variance_keep: float = 0.9999) -> PcaEllipsoid:
    """Project onto the leading principal components, ellipsoid in that space.

    The rank is the smallest r whose components capture at least
    variance_keep of the total variance.
    """
    pts = _points_of(phase1)
    n, m = pts.shape
    if n < 2:
        raise InvalidArgumentError("need at least two points")
    variance_keep = read_variance_keep(variance_keep)
    mu = pts.mean(axis=0)
    cov = np.cov(pts, rowvar=False, ddof=1).reshape(m, m)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = float(evals.sum())
    if total <= 0:
        raise DegenerateDataError("covariance has zero trace")
    cum = np.cumsum(evals) / total
    r = int(np.argmax(cum >= variance_keep * (1 - 1e-12))) + 1
    M = evecs[:, :r].T
    # fix eigenvector signs for reproducibility
    for i in range(r):
        j = int(np.argmax(np.abs(M[i])))
        if M[i, j] < 0:
            M[i] = -M[i]
    sigma_red = _regularize_spd(np.diag(evals[:r]))
    return PcaEllipsoid(projection=M, center_reduced=M @ mu, sigma_reduced=sigma_red)


def ball_basis(phase1) -> BallBasis:
    """One ball per data point; the transform is the squared distance to the
    nearest point."""
    return BallBasis(centers=_points_of(phase1))


def grid_histogram(phase1, width: float) -> BoxGrid:
    """Boxes of a regular grid (anchored at the data minimum) that contain
    at least one point."""
    pts = _points_of(phase1)
    width = read_width(width)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    # counted in floats: a cast to int first would overflow on a tiny width
    boxes = float(np.prod(np.floor((hi - lo) / width) + 1.0))
    if boxes > _GRID_GUARD:
        raise TooFineGridError(f"grid would span {boxes:.3g} boxes (limit {_GRID_GUARD})")
    idx = np.floor((pts - lo) / width).astype(int)
    occupied = np.unique(idx, axis=0)
    centers = lo + (occupied + 0.5) * width
    return BoxGrid(centers=centers, half_width=width / 2.0)


def build_prediction_set(shape: Shape, phase2, epsilon: float,
                         delta: float) -> PredictionSet:
    """Calibrate the level-set size on held-out data."""
    pts = _points_of(phase2)
    values = transform_values(shape, pts)
    calib = calibrate.calibrate_size(values, epsilon, delta)
    return PredictionSet(shape=shape, size=calib.s, calib=calib)


# ---------------------------------------------------------------------------
# serialization


def _plain(value):
    """A shape field as JSON-ready data; component shapes become documents."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if is_dataclass(value):
        return shape_to_obj(value)
    return value


def shape_to_obj(shape: Shape) -> dict:
    """{"variant", "parameters"}: the parameters are the dataclass fields."""
    params = {f.name: _plain(getattr(shape, f.name)) for f in fields(shape)}
    return {"variant": shape.variant, "parameters": params}
