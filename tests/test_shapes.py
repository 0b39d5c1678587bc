import json
import math

import numpy as np
import pytest

from roset import shapes
from roset.errors import (
    ClusterDegeneracyError,
    DegenerateDataError,
    InfeasibleCalibrationError,
    InvalidArgumentError,
    TooFineGridError,
)
from roset.shapes import (
    Ball,
    BallBasis,
    BoxGrid,
    DiagEllipsoid,
    Ellipsoid,
    Intersection,
    PcaEllipsoid,
    Polytope,
    Union,
    ball_basis,
    build_prediction_set,
    cluster_union,
    fit_ellipsoid,
    fit_polytope_box,
    grid_histogram,
    pca_ellipsoid,
    shape_to_obj,
    transform_values,
)


def test_fit_ball_square_corners():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    shape = fit_ellipsoid(pts, mode="ball")
    assert isinstance(shape, Ball)
    assert np.allclose(shape.center, [1.0, 1.0])
    assert transform_values(shape, [[1.0, 3.0]])[0] == pytest.approx(4.0)


def test_fit_full_on_line_regularizes():
    t = np.linspace(0, 1, 20)
    pts = np.column_stack([t, 2 * t])  # rank-1 spread in R^2
    shape = fit_ellipsoid(pts, mode="full")
    assert isinstance(shape, Ellipsoid)
    assert np.all(np.linalg.eigvalsh(shape.sigma) > 0)


def test_fit_diag_variance_recovery():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(1000, 2)) * np.array([1.0, 2.0])
    shape = fit_ellipsoid(pts, mode="diag")
    assert isinstance(shape, DiagEllipsoid)
    assert abs(shape.variances[0] - 1.0) < 0.15
    assert abs(shape.variances[1] - 4.0) < 0.6


def test_fit_degenerate_single_repeated_point():
    pts = np.ones((5, 3))
    with pytest.raises(DegenerateDataError):
        fit_ellipsoid(pts, mode="full")
    with pytest.raises(DegenerateDataError):
        fit_ellipsoid(pts, mode="diag")
    # ball mode has no covariance to degenerate
    assert isinstance(fit_ellipsoid(pts, mode="ball"), Ball)


def test_transform_identity_ellipsoid():
    shape = Ellipsoid(center=np.zeros(2), sigma=np.eye(2))
    assert transform_values(shape, [[3.0, 4.0]])[0] == pytest.approx(25.0)


def test_ellipsoid_symmetry_test_matches_allclose():
    """Ellipsoid accepts sigma exactly where np.allclose(sigma, sigma.T,
    atol=1e-12) does, for off-diagonal perturbations on both sides of the
    tolerance and at scales where the absolute or the relative part rules."""
    rng = np.random.default_rng(20261019)
    verdicts = []
    for _ in range(600):
        m = int(rng.integers(2, 6))
        scale = 10.0 ** rng.integers(-14, 3)
        raw = rng.normal(size=(m, m))
        sigma = (raw @ raw.T + m * np.eye(m)) * scale
        # an upper-triangle entry: the Cholesky factor reads only the lower
        i, j = np.sort(rng.choice(m, size=2, replace=False))
        tol = 1e-12 + 1e-5 * abs(sigma[j, i])
        factor = rng.choice([0.5, 0.999999, 1.0, 1.000001, 2.0]) * rng.choice([-1.0, 1.0])
        sigma[i, j] = sigma[j, i] + factor * tol
        want = bool(np.allclose(sigma, sigma.T, atol=1e-12))
        try:
            Ellipsoid(center=np.zeros(m), sigma=sigma)
            got = True
        except InvalidArgumentError:
            got = False
        assert got == want, (m, scale, factor)
        verdicts.append(want)
    assert 100 <= sum(verdicts) <= 500


def test_transform_polytope_unit_box():
    box = Polytope(rows=np.vstack([np.eye(2), -np.eye(2)]),
                   offsets=np.ones(4), interior=np.zeros(2))
    assert transform_values(box, [[0.5, -0.25]])[0] == pytest.approx(0.5)
    assert transform_values(box, [[1.0, 0.0]])[0] == pytest.approx(1.0)


def test_transform_union_min_map():
    u = Union(components=(Ball(center=np.zeros(2)), Ball(center=np.array([10.0, 0.0]))))
    assert transform_values(u, [[5.0, 0.0]])[0] == pytest.approx(25.0)
    assert transform_values(u, [[9.0, 0.0]])[0] == pytest.approx(1.0)


def test_transform_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        transform_values(Ball(center=np.zeros(2)), [[1.0, 2.0, 3.0]])


def test_ellipsoid_vs_direct_quadratic():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(3, 3))
    sigma = B @ B.T + 0.5 * np.eye(3)
    mu = rng.normal(size=3)
    shape = Ellipsoid(center=mu, sigma=sigma)
    inv = np.linalg.inv(sigma)
    for _ in range(10):
        xi = rng.normal(size=3)
        want = (xi - mu) @ inv @ (xi - mu)
        assert transform_values(shape, xi[None])[0] == pytest.approx(want, rel=1e-10)


def test_fit_polytope_box_examples():
    shape = fit_polytope_box(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert np.allclose(shape.interior, [0.5, 1.0])
    assert transform_values(shape, [[1.0, 2.0]])[0] == pytest.approx(1.0)
    with pytest.raises(DegenerateDataError):
        fit_polytope_box(np.array([[1.0, 1.0], [1.0, 1.0]]))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(100, 2))
    box = fit_polytope_box(pts)
    assert np.all(transform_values(box, pts) <= 1.0 + 1e-12)


def test_cluster_union_two_blobs():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(80, 2)) * 0.2 + np.array([0.0, 0.0])
    b = rng.normal(size=(80, 2)) * 0.2 + np.array([8.0, 8.0])
    pts = np.vstack([a, b])
    shape = cluster_union(pts, k=2)
    assert isinstance(shape, Union) and len(shape.components) == 2
    centers = sorted(tuple(c.center) for c in shape.components)
    assert np.linalg.norm(np.array(centers[0]) - [0.0, 0.0]) < 0.5
    assert np.linalg.norm(np.array(centers[1]) - [8.0, 8.0]) < 0.5


def test_cluster_union_k1_reduction():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    one = cluster_union(pts, k=1)
    ref = fit_ellipsoid(pts, mode="full")
    assert isinstance(one, Ellipsoid)
    assert np.array_equal(one.center, ref.center)
    assert np.array_equal(one.sigma, ref.sigma)


def test_cluster_count_is_an_int_of_at_least_one():
    pts = np.random.default_rng(0).normal(size=(40, 2))
    for k in (2.5, True, "2", 0, -1):
        with pytest.raises(InvalidArgumentError, match="cluster count"):
            cluster_union(pts, k=k)
    got = cluster_union(pts, k=np.int64(2))
    want = cluster_union(pts, k=2)
    assert shapes.shape_to_obj(got) == shapes.shape_to_obj(want)


def test_kmeans_repairs_an_empty_cluster(monkeypatch):
    # on these 22 points the second assignment leaves a cluster empty; the
    # repair moves its center to the point farthest from its own, and the
    # fit goes on to four clusters of at least two points each
    rng = np.random.default_rng(28982)
    for bounds in ((1, 4), (6, 40), (2, 6)):
        rng.integers(*bounds)
    pts = rng.normal(size=(22, 2)) * 2.0
    pts[:7] += 8.0
    counts = []
    bincount = np.bincount

    def recorded(*args, **kwargs):
        counts.append(bincount(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(np, "bincount", recorded)
    union = cluster_union(pts, 4)
    monkeypatch.undo()
    assert any(np.any(c == 0) for c in counts)
    assert len(union.components) == 4
    centers = np.array([comp.center for comp in union.components])
    nearest = np.argmin(((pts[:, None, :] - centers) ** 2).sum(axis=2), axis=1)
    assert np.bincount(nearest, minlength=4).min() >= 2


def test_cluster_union_degenerate_k():
    pts = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ClusterDegeneracyError):
        cluster_union(pts, k=10)


def test_cluster_union_deterministic():
    rng = np.random.default_rng(12)
    pts = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 6.0])
    s1 = cluster_union(pts, k=2)
    s2 = cluster_union(pts, k=2)
    for c1, c2 in zip(s1.components, s2.components):
        assert np.array_equal(c1.center, c2.center)


def test_pca_rank_on_planar_data():
    rng = np.random.default_rng(4)
    basis = rng.normal(size=(2, 10))
    pts = rng.normal(size=(200, 2)) @ basis
    shape = pca_ellipsoid(pts, variance_keep=0.9999)
    assert shape.rank == 2
    assert shape.dim == 10


def test_pca_full_rank_matches_ellipsoid():
    rng = np.random.default_rng(9)
    mix = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    pts = rng.normal(size=(300, 4)) @ mix + rng.normal(size=4)
    full = fit_ellipsoid(pts, mode="full")
    proj = pca_ellipsoid(pts, variance_keep=1.0)
    assert proj.rank == 4
    xi = pts[:20] + 0.1 * rng.normal(size=(20, 4))
    tv_full = transform_values(full, xi)
    tv_proj = transform_values(proj, xi)
    assert np.max(np.abs(tv_full - tv_proj)) < 1e-8


def test_pca_and_grid_options_are_floats():
    # a bool or a string is refused, not read as 1.0 or compared with a number
    pts = np.random.default_rng(2).normal(size=(40, 2))
    for fit, name in ((pca_ellipsoid, "variance_keep"), (grid_histogram, "width")):
        for bad in (True, "0.5"):
            with pytest.raises(InvalidArgumentError, match=name):
                fit(pts, **{name: bad})
    assert shape_to_obj(pca_ellipsoid(pts, variance_keep=1)) == \
        shape_to_obj(pca_ellipsoid(pts, variance_keep=1.0))
    assert shape_to_obj(grid_histogram(pts, width=np.int64(1))) == \
        shape_to_obj(grid_histogram(pts, width=1.0))


def test_pca_latent_factor_cutoff():
    # data living on an 11-dimensional subspace plus tiny noise keeps
    # exactly 11 components at the 0.01% threshold
    rng = np.random.default_rng(11)
    P = rng.normal(size=(30, 11))
    latent = rng.normal(size=(400, 11))
    pts = latent @ P.T + 1e-4 * rng.normal(size=(400, 30))
    shape = pca_ellipsoid(pts, variance_keep=0.9999)
    assert shape.rank == 11


def test_ball_basis():
    u = ball_basis(np.array([[0.0], [10.0]]))
    assert isinstance(u, BallBasis) and len(u.components) == 2
    assert transform_values(u, [[4.0]])[0] == pytest.approx(16.0)
    single = ball_basis(np.array([[1.0, 2.0]]))
    assert transform_values(single, [[1.0, 2.0]])[0] == pytest.approx(0.0)


def test_ball_basis_transform_equals_min_over_balls():
    rng = np.random.default_rng(18)
    # the last case spans three chunks of 50 centers
    for n, k, m in ((1, 1, 1), (40, 7, 3), (120, 30, 10), (20_000, 120, 10)):
        centers = rng.normal(size=(k, m))
        pts = rng.normal(size=(n, m)) * 2.0
        basis = BallBasis(centers=centers)
        balls = np.min([transform_values(Ball(center=c), pts) for c in centers], axis=0)
        assert np.array_equal(transform_values(basis, pts), balls)
        union = Union(components=basis.components)
        assert np.array_equal(transform_values(union, pts), balls)


def test_nearest_center_kernel_matches_a_loop_over_centers():
    # shapes._distances against one center at a time, for both norms, and the
    # chunked minimum of transform_values against the minimum of that loop;
    # the squared 2-norms sum m <= 300 nonnegative terms in another order, so
    # each is within m * 2**-53 of the exact sum, and they agree to 1e-13
    rng = np.random.default_rng(23)
    # (20_000, 120, 10) spans three chunks of 50 centers; m = 300 is the
    # dimension of the largest experiments
    for n, k, m in ((1, 1, 1), (1, 5, 2), (40, 7, 3), (120, 30, 10),
                    (20_000, 120, 10), (50, 4, 300), (1000, 1, 300)):
        centers = rng.normal(size=(k, m))
        pts = rng.normal(size=(n, m)) * 2.0
        sq = np.column_stack([np.sum((pts - c) ** 2, axis=1) for c in centers])
        inf = np.column_stack([np.max(np.abs(pts - c), axis=1) for c in centers])
        np.testing.assert_allclose(shapes._distances(pts, centers, 2), sq,
                                   rtol=1e-13, atol=0)
        assert np.array_equal(shapes._distances(pts, centers, np.inf), inf)
        np.testing.assert_allclose(transform_values(BallBasis(centers=centers), pts),
                                   sq.min(axis=1), rtol=1e-13, atol=0)
        np.testing.assert_allclose(transform_values(Ball(center=centers[0]), pts),
                                   sq[:, 0], rtol=1e-13, atol=0)
        # the max-norm is exact, so a box grid equals the (n, k, m) formula
        # bit for bit, over all centers at once or one center at a time
        grid = BoxGrid(centers=centers, half_width=0.3)
        if n * k * m <= 10**6:
            full = np.max(np.abs(pts[:, None, :] - centers[None, :, :]), axis=2)
            assert np.array_equal(transform_values(grid, pts), full.min(axis=1) / 0.3)
        assert np.array_equal(transform_values(grid, pts), inf.min(axis=1) / 0.3)


def test_grid_histogram_examples():
    g = grid_histogram(np.array([[0.1], [0.9]]), width=1.0)
    assert g.centers.shape == (1, 1)
    g2 = grid_histogram(np.array([[0.1], [1.9]]), width=1.0)
    assert g2.centers.shape == (2, 1)
    # transform is zero at an occupied center
    assert transform_values(g2, g2.centers[:1])[0] == pytest.approx(0.0)
    # and 1.0 exactly at a box face
    assert transform_values(g, [[g.centers[0, 0] + 0.5]])[0] == pytest.approx(1.0)


def test_grid_histogram_guard():
    pts = np.array([[0.0, 0.0], [100.0, 100.0]])
    with pytest.raises(TooFineGridError):
        grid_histogram(pts, width=0.01)
    # every per-axis count would overflow an int: the boxes are counted in
    # floats, so an odd number of axes cannot make the product negative
    rng = np.random.default_rng(0)
    for m in (1, 3, 5):
        with pytest.raises(TooFineGridError):
            grid_histogram(rng.normal(size=(20, m)), width=1e-30)


def test_build_prediction_set_max_order_statistic():
    mags = np.arange(1.0, 60.0)
    signs = np.where(np.arange(59) % 2 == 0, 1.0, -1.0)
    phase2 = (mags * signs).reshape(-1, 1)
    pset = build_prediction_set(Ball(center=np.zeros(1)), phase2, 0.05, 0.05)
    assert pset.calib.i_star == 59
    assert pset.size == pytest.approx(59.0**2)
    assert (transform_values(pset.shape, [[59.0], [59.1]]) <= pset.size).tolist() == \
        [True, False]


def test_build_prediction_set_too_small():
    with pytest.raises(InfeasibleCalibrationError):
        build_prediction_set(Ball(center=np.zeros(1)),
                             np.arange(58.0).reshape(-1, 1), 0.05, 0.05)


def test_build_prediction_set_intersection_max_map():
    comps = (Ball(center=np.zeros(1)), Ball(center=np.array([1.0])))
    inter = Intersection(components=comps)
    grid = np.linspace(-3, 3, 59)
    phase2 = np.column_stack([grid, grid[::-1] / 2])
    pset = build_prediction_set(inter, phase2, 0.05, 0.05)
    want = np.max(np.maximum(phase2[:, 0] ** 2, (phase2[:, 1] - 1.0) ** 2))
    assert pset.size == pytest.approx(want)


def test_membership_consistency_union_intersection():
    rng = np.random.default_rng(14)
    comps = (Ball(center=np.zeros(2)), Ball(center=np.array([2.0, 0.0])))
    u, inter = Union(components=comps), Intersection(components=comps)
    for _ in range(200):
        xi = rng.uniform(-3, 5, size=2)
        s = float(rng.uniform(0.0, 9.0))
        in_comp = [transform_values(c, xi[None])[0] <= s for c in comps]
        assert (transform_values(u, xi[None])[0] <= s) == any(in_comp)
        # the product reads each component on its own slice of a point in R^4
        pair = rng.uniform(-3, 5, size=4)
        in_slice = [transform_values(c, pair[None, 2 * i: 2 * i + 2])[0] <= s
                    for i, c in enumerate(comps)]
        assert (transform_values(inter, pair[None])[0] <= s) == all(in_slice)


def test_level_sets_nest_in_s():
    rng = np.random.default_rng(15)
    shape = fit_ellipsoid(rng.normal(size=(60, 3)), mode="full")
    pts = rng.normal(size=(500, 3)) * 2
    vals = transform_values(shape, pts)
    s1, s2 = 1.0, 2.5
    assert np.all((vals <= s1) <= (vals <= s2))


def test_ball_transform_rotation_invariant():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(40, 3))
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shape = fit_ellipsoid(pts, mode="ball")
    mu = shape.center
    pts_rot = (pts - mu) @ Q.T + mu
    shape_rot = fit_ellipsoid(pts_rot, mode="ball")
    for _ in range(20):
        xi = rng.normal(size=3)
        xi_rot = (xi - mu) @ Q.T + mu
        assert abs(transform_values(shape, xi[None])[0]
                   - transform_values(shape_rot, xi_rot[None])[0]) < 1e-9


def test_phase2_coverage_guarantee():
    # fraction of replications whose true content is >= 1-eps must respect
    # the calibration confidence
    rng = np.random.default_rng(2718)
    eps = delta = 0.05
    n2, reps = 59, 1000
    shape = fit_ellipsoid(rng.normal(size=(200, 2)), mode="full")
    pool = rng.normal(size=(100_000, 2))
    pool_t = np.sort(transform_values(shape, pool))
    hits = 0
    for _ in range(reps):
        draw = rng.normal(size=(n2, 2))
        s = float(np.max(transform_values(shape, draw)))  # i* = 59 of 59
        content = np.searchsorted(pool_t, s, side="right") / pool_t.size
        hits += content >= 1 - eps
    mc_err = math.sqrt(delta * (1 - delta) / reps)
    assert hits / reps >= 1 - delta - 3 * mc_err


def test_union_rejects_nesting():
    b = Ball(center=np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        Union(components=(Union(components=(b,)), b))
    with pytest.raises(InvalidArgumentError):
        Union(components=())
    with pytest.raises(InvalidArgumentError):
        Union(components=(b, Ball(center=np.zeros(3))))


def test_polytope_requires_strict_interior():
    with pytest.raises(InvalidArgumentError):
        Polytope(rows=np.eye(2), offsets=np.zeros(2), interior=np.zeros(2))


def test_shape_json_round_trip_all_variants():
    # roset fit prints these documents: the variant and every field that is
    # set, arrays as nested lists of the same floats, components as documents
    ball = {"variant": "ball", "parameters": {"center": [math.pi, -1.0]}}
    origin = {"variant": "ball", "parameters": {"center": [0.0, 0.0]}}
    cases = [
        (Ellipsoid(center=np.array([0.1, 0.2]), sigma=np.array([[2.0, 0.5], [0.5, 1.0]])),
         {"variant": "ellipsoid",
          "parameters": {"center": [0.1, 0.2], "sigma": [[2.0, 0.5], [0.5, 1.0]]}}),
        (DiagEllipsoid(center=np.array([1 / 3, 2.0]), variances=np.array([0.1, 7.0])),
         {"variant": "diag_ellipsoid",
          "parameters": {"center": [1 / 3, 2.0], "variances": [0.1, 7.0]}}),
        (Ball(center=np.array([math.pi, -1.0])), ball),
        (Polytope(rows=np.array([[1.0, 0.0], [0.0, -1.0]]), offsets=np.array([1.0, 2.0]),
                  interior=np.zeros(2)),
         {"variant": "polytope",
          "parameters": {"rows": [[1.0, 0.0], [0.0, -1.0]], "offsets": [1.0, 2.0],
                         "interior": [0.0, 0.0]}}),
        (PcaEllipsoid(projection=np.array([[0.6, 0.8]]), center_reduced=np.array([1.5]),
                      sigma_reduced=np.array([[0.25]])),
         {"variant": "pca_ellipsoid",
          "parameters": {"projection": [[0.6, 0.8]], "center_reduced": [1.5],
                         "sigma_reduced": [[0.25]]}}),
        (BallBasis(centers=np.array([[0.0, 1.0], [2.0, 3.0]])),
         {"variant": "ball_basis", "parameters": {"centers": [[0.0, 1.0], [2.0, 3.0]]}}),
        (BoxGrid(centers=np.array([[0.5, 0.5], [1.5, 0.5]]), half_width=0.5),
         {"variant": "box_grid",
          "parameters": {"centers": [[0.5, 0.5], [1.5, 0.5]], "half_width": 0.5}}),
        (Union(components=(Ball(center=np.array([math.pi, -1.0])), Ball(center=np.zeros(2)))),
         {"variant": "union", "parameters": {"components": [ball, origin]}}),
        (Intersection(components=(Ball(center=np.zeros(2)),
                                  Ball(center=np.array([math.pi, -1.0])))),
         {"variant": "intersection", "parameters": {"components": [origin, ball]}}),
    ]
    for shape, doc in cases:
        assert json.loads(json.dumps(shape_to_obj(shape))) == doc


def test_intersection_blocks_transform_and_dim():
    c1 = Ball(center=np.array([1.0, 0.0]))
    c2 = Ball(center=np.array([0.0, 2.0]))
    inter = Intersection(components=(c1, c2))
    assert inter.dim == 4
    xi = np.array([2.0, 0.0, 0.0, 0.0])
    # component 1 sees (2, 0), component 2 sees (0, 0)
    assert transform_values(inter, xi[None])[0] == max(1.0, 4.0)


def test_intersection_blocks_validation():
    b1, b2 = Ball(center=np.zeros(1)), Ball(center=np.zeros(2))
    inter = Intersection(components=(b2, b1, b2))  # dimensions may differ
    assert inter.dim == 5
    # b1 reads coordinate 2 only
    assert transform_values(inter, [[0.0, 0.0, 3.0, 0.0, 0.0]])[0] == 9.0
    with pytest.raises(InvalidArgumentError):  # no nesting
        Intersection(components=(b2, Union(components=(b2,))))
    with pytest.raises(InvalidArgumentError):  # at least one component
        Intersection(components=())


def test_intersection_blocks_json_round_trip():
    inter = Intersection(
        components=(Ball(center=np.ones(2)), Ball(center=np.zeros(1))))
    doc = json.loads(json.dumps(shape_to_obj(inter)))
    assert doc == {"variant": "intersection", "parameters": {"components": [
        {"variant": "ball", "parameters": {"center": [1.0, 1.0]}},
        {"variant": "ball", "parameters": {"center": [0.0]}}]}}
    assert "blocks" not in doc["parameters"]
