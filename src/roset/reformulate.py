"""Robust counterparts: calibrated prediction set + CCP -> conic program.

Each rc_* operation turns "constraint holds for every xi in the set" into
explicit conic rows over the decision vector x plus, where needed, auxiliary
variables (polytope duals, norm auxiliaries, LMI slacks).  Level sets of
squared transforms (ellipsoid family, ball bases, PCA sets) enter with
radius sqrt(size); half-space transforms (polytopes, box grids) scale
linearly in the size.  That conversion happens here and nowhere else.

Linear families have one dispatch, _linear_blocks.  The ellipsoid shapes,
PCA sets and the safe approximations of baselines all emit ellipsoidal
rows a_i'x + rho ||T_i x|| <= b_i from one builder, _vecnorm_blocks; a PCA
set adds the equality rows that keep x in its projection's row space.
Ball bases (and unions made only of balls) and box grids share one norm
epigraph across all their components and rows; other unions replicate
the rows once per component, and polytopes get their dual, once per row.

Conic row convention throughout: a block contributes rows
``offsets - rows_x @ x - rows_aux @ aux`` that must land in its cones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic, model, shapes
from .calibrate import calibrate_size
from .errors import (
    InvalidArgumentError,
    InvalidScaleError,
    UnsupportedCombinationError,
)

__all__ = [
    "Block",
    "RobustProgram",
    "rc_linear_ellipsoid",
    "rc_linear_polytope",
    "rc_quadratic_ellipsoid",
    "rc_sdp_normbounded",
    "build_reconstruction_set",
    "solve_reconstruction",
    "det_blocks",
    "assemble",
    "assemble_ro",
    "polytope_level_offsets",
]

SUPPORTED_PAIRS = (
    "single_linear/joint_linear x {ellipsoid, diag_ellipsoid, ball, polytope, "
    "pca_ellipsoid, ball_basis, box_grid, union, intersection (one component per row)}; "
    "quadratic x {ellipsoid, diag_ellipsoid, ball}; semidefinite x {ball}"
)


@dataclass(frozen=True, eq=False)
class Block:
    """A bundle of conic rows over (x, aux).

    Semantics: offsets - rows_x @ x - rows_aux @ aux must lie in the product
    of ``cones`` (row counts match in order).  The auxiliary columns are
    block-local; assembly places them after x and any earlier block's.
    """

    rows_x: np.ndarray
    rows_aux: np.ndarray
    offsets: np.ndarray
    cones: tuple

    def __post_init__(self):
        rx = np.atleast_2d(model.frozen(self.rows_x, "block rows_x"))
        ra = np.atleast_2d(model.frozen(self.rows_aux, "block rows_aux"))
        off = model.frozen(self.offsets, "block offsets").reshape(-1)
        k = off.size
        if rx.shape[0] != k or ra.shape[0] != k:
            raise InvalidArgumentError("block row counts disagree")
        if sum(c.rows for c in self.cones) != k:
            raise InvalidArgumentError("cone rows do not cover the block")
        object.__setattr__(self, "rows_x", rx)
        object.__setattr__(self, "rows_aux", ra)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "cones", tuple(self.cones))

    @property
    def n_aux(self) -> int:
        return self.rows_aux.shape[1]

    @property
    def n_x(self) -> int:
        return self.rows_x.shape[1]


def _no_aux(k: int) -> np.ndarray:
    return np.zeros((k, 0))


def _checked_rho(rho) -> float:
    rho = float(rho)
    if not (rho >= 0 and np.isfinite(rho)):
        raise InvalidArgumentError("rho must be finite and >= 0")
    return rho


def _x_embedding(m: int, x_dim: int | None, x_offset: int) -> np.ndarray:
    """The (m, x_dim) identity block placing x at ambient coordinates
    [x_offset, x_offset + x_dim); x_dim defaults to m."""
    if x_dim is None:
        x_dim = m
    if x_offset < 0 or x_offset + x_dim > m:
        raise InvalidArgumentError("x embedding exceeds the ambient dimension")
    embed = np.zeros((m, x_dim))
    embed[x_offset: x_offset + x_dim] = np.eye(x_dim)
    return embed


def _rho_of_size(s: float) -> float:
    """Radius of the level set of a squared transform at size s."""
    return float(np.sqrt(max(float(s), 0.0)))


# ---------------------------------------------------------------------------
# linear-family robust counterparts


def rc_linear_ellipsoid(a0, delta, rho: float, b: float) -> Block:
    """Protect a0'x + worst ellipsoidal perturbation <= b.

    The uncertain row is a = a0 + rho * delta u with ||u|| <= 1, giving the
    second-order row a0'x + rho ||delta' x|| <= b of _vecnorm_blocks.  All-zero
    columns of delta do not change the norm and are dropped first, so with
    none left the row is the nominal half-space.
    """
    a0 = np.asarray(a0, dtype=float).reshape(-1)
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    if delta.shape[0] != a0.size:
        raise InvalidArgumentError("delta must have one row per x coordinate")
    tail = delta.T[np.any(delta != 0.0, axis=0)]
    return _vecnorm_blocks(a0[None, :], tail, rho, np.array([float(b)]))


def rc_linear_polytope(halfspace_rows, halfspace_offsets, b: float, *,
                       x_dim: int | None = None, x_offset: int = 0) -> Block:
    """Protect sup{xi'x_emb : D xi <= e} <= b via the dual variables p >= 0.

    Feasibility of (x, p) with e'p <= b, D'p = x_emb, p >= 0 certifies the
    worst case; x_emb places x at ambient coordinates
    [x_offset, x_offset + x_dim) and zero elsewhere.
    """
    rows = np.atleast_2d(np.asarray(halfspace_rows, dtype=float))
    offs = np.asarray(halfspace_offsets, dtype=float).reshape(-1)
    r, m = rows.shape
    if offs.size != r:
        raise InvalidArgumentError("halfspace rows and offsets must align")
    embed = _x_embedding(m, x_dim, x_offset)
    x_dim = embed.shape[1]
    rows_x = np.vstack([np.zeros((1, x_dim)), embed, np.zeros((r, x_dim))])
    rows_aux = np.vstack([offs[None, :], -rows.T, -np.eye(r)])
    offsets = np.zeros(1 + m + r)
    offsets[0] = float(b)
    return Block(
        rows_x=rows_x,
        rows_aux=rows_aux,
        offsets=offsets,
        cones=(conic.Nonneg(1), conic.Zero(m), conic.Nonneg(r)),
    )


def _vecnorm_blocks(abar: np.ndarray, tails: np.ndarray, rho: float,
                    b: np.ndarray) -> Block:
    """The ellipsoidal rows abar_i'x + rho ||tails[:, block i] x|| <= b_i, stacked.

    ``abar`` is (l, d), ``tails`` is (t, l*d) and block i is the columns
    [i*d, (i+1)*d), which act on row i's uncertain vector.  Row i is one
    SOC(1 + min(t, d)).  With t > d one QR over the (l, t, d) stack of
    tails gives each row its d x d triangular factor R_i instead, with
    ||R_i x|| = ||tail_i x||; a tail that is already triangular or diagonal
    is its own factor, so t <= d needs none.  With rho = 0 or t = 0 every
    row is the nominal half-space, one Nonneg(1) each.
    """
    l, d = abar.shape
    t = tails.shape[0]
    if tails.shape != (t, l * d):
        raise InvalidArgumentError("tails must have one column per entry of the rows")
    rho = _checked_rho(rho)
    if rho == 0.0 or t == 0:
        return Block(rows_x=abar, rows_aux=_no_aux(l), offsets=b,
                     cones=(conic.Nonneg(1),) * l)
    factors = tails.reshape(t, l, d).transpose(1, 0, 2)
    if t > d:
        factors = np.linalg.qr(factors, mode="r")
    k = factors.shape[1]
    rows_x = np.concatenate([abar[:, None, :], -rho * factors], axis=1)
    offsets = np.zeros((l, 1 + k))
    offsets[:, 0] = b
    return Block(rows_x=rows_x.reshape(l * (1 + k), d), rows_aux=_no_aux(l * (1 + k)),
                 offsets=offsets, cones=(conic.SecondOrder(1 + k),) * l)


# ---------------------------------------------------------------------------
# LMI robust counterparts (export only)


def _psd_block(const_mat, x_mats, aux_mats) -> Block:
    """Affine LMI const + sum x_j X_j + sum aux_t T_t >= 0 as a PSD block."""
    side = const_mat.shape[0]
    offsets = conic.triu_from_mat(const_mat)
    rows_x = np.column_stack([-conic.triu_from_mat(mat) for mat in x_mats]) \
        if x_mats else _no_aux(offsets.size)
    rows_aux = np.column_stack([-conic.triu_from_mat(mat) for mat in aux_mats]) \
        if aux_mats else _no_aux(offsets.size)
    return Block(rows_x=rows_x, rows_aux=rows_aux, offsets=offsets,
                 cones=(conic.PsdExportOnly(side),))


def rc_quadratic_ellipsoid(nominal, directions, q: float = 0.0) -> Block:
    """LMI certificate for x'A(u)'A(u)x - b(u)'x - c(u) <= q over ||u|| <= 1.

    (A, b, c)(u) = nominal + sum_j u_j * directions[j]; the sqrt-size scaling
    is expected to be folded into the directions already.  For k >= 1 the
    block introduces the slack tau; k = 0 needs none.  The certificate matrix
    (order: the homogenizing coordinate, then u, then the identity block)

        [ c0+q+b0'x-tau   (c_j+b_j'x)/2   (A0 x)' ]
        [      .             tau I        rows A_j x ]
        [      .               .             I    ]

    is PSD for some tau iff the worst-case quadratic stays <= q.
    """
    a0, b0, c0 = nominal
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    b0 = np.asarray(b0, dtype=float).reshape(-1)
    c0 = float(c0)
    p, d = a0.shape
    if b0.size != d:
        raise InvalidArgumentError("nominal b must have d entries")
    dirs = []
    for aj, bj, cj in directions:
        aj = np.atleast_2d(np.asarray(aj, dtype=float))
        bj = np.asarray(bj, dtype=float).reshape(-1)
        if aj.shape != (p, d) or bj.size != d:
            raise InvalidArgumentError("direction dimensions must match the nominal")
        dirs.append((aj, bj, float(cj)))
    k = len(dirs)
    side = 1 + k + p

    const = np.zeros((side, side))
    const[0, 0] = c0 + float(q)
    for j, (_, _, cj) in enumerate(dirs):
        const[0, 1 + j] = const[1 + j, 0] = cj / 2.0
    const[1 + k:, 1 + k:] = np.eye(p)

    x_mats = []
    for t in range(d):
        mat = np.zeros((side, side))
        mat[0, 0] = b0[t]
        for j, (aj, bj, _) in enumerate(dirs):
            mat[0, 1 + j] = mat[1 + j, 0] = bj[t] / 2.0
            mat[1 + k:, 1 + j] = aj[:, t]
            mat[1 + j, 1 + k:] = aj[:, t]
        mat[1 + k:, 0] = a0[:, t]
        mat[0, 1 + k:] = a0[:, t]
        x_mats.append(mat)

    if k == 0:
        return _psd_block(const, x_mats, [])
    tau_mat = np.zeros((side, side))
    tau_mat[0, 0] = -1.0
    for j in range(k):
        tau_mat[1 + j, 1 + j] = 1.0
    return _psd_block(const, x_mats, [tau_mat])


def rc_sdp_normbounded(abar_blocks, b_mat, rho: float) -> Block:
    """LMI certificate for B + sum_j xi_j x_j >= 0 under a norm-bounded xi.

    The stacked perturbation zeta = [xi_1; ...; xi_d] - [Abar_1; ...] obeys
    ||zeta||_{2,2} <= rho.  With L'(x) = [x_1 I_p, ..., x_d I_p] the block

        [ lambda I_{dp}      rho L(x)        ]
        [ rho L'(x)      A0(x) - lambda I_p  ]

    (A0(x) = B + sum_j x_j Abar_j) is PSD for some lambda iff the uncertain
    matrix stays PSD for every admissible zeta.
    """
    mats = [np.atleast_2d(np.asarray(mat, dtype=float)) for mat in abar_blocks]
    b_mat = np.atleast_2d(np.asarray(b_mat, dtype=float))
    d = len(mats)
    if d < 1:
        raise InvalidArgumentError("need at least one coefficient block")
    p = b_mat.shape[0]
    if b_mat.shape != (p, p):
        raise InvalidArgumentError("B must be square")
    for mat in mats:
        if mat.shape != (p, p):
            raise InvalidArgumentError("coefficient blocks must match B's shape")
    scale = max(1.0, float(np.max(np.abs(b_mat))),
                *(float(np.max(np.abs(m))) for m in mats))
    for mat in mats + [b_mat]:
        if float(np.max(np.abs(mat - mat.T))) > 1e-8 * scale:
            raise InvalidArgumentError("coefficient matrices must be symmetric")
    mats = [(mat + mat.T) / 2.0 for mat in mats]
    b_mat = (b_mat + b_mat.T) / 2.0
    rho = _checked_rho(rho)

    side = d * p + p
    const = np.zeros((side, side))
    const[d * p:, d * p:] = b_mat

    x_mats = []
    for j in range(d):
        mat = np.zeros((side, side))
        mat[j * p: (j + 1) * p, d * p:] = rho * np.eye(p)
        mat[d * p:, j * p: (j + 1) * p] = rho * np.eye(p)
        mat[d * p:, d * p:] += mats[j]
        x_mats.append(mat)

    lam_mat = np.zeros((side, side))
    lam_mat[: d * p, : d * p] = np.eye(d * p)
    lam_mat[d * p:, d * p:] = -np.eye(p)
    return _psd_block(const, x_mats, [lam_mat])


# ---------------------------------------------------------------------------
# shape dispatch for linear families


def polytope_level_offsets(shape: shapes.Polytope, s: float) -> np.ndarray:
    """Offsets of the polytope's level set at size s (linear in s)."""
    anchor = shape.rows @ shape.interior
    return anchor + float(s) * (shape.offsets - anchor)


_ELLIPSOIDS = (shapes.Ellipsoid, shapes.DiagEllipsoid, shapes.Ball)


def _ellipsoid_factor(shape) -> np.ndarray:
    """F with the unit level set {center + F u : ||u|| <= 1}."""
    if isinstance(shape, shapes.Ellipsoid):
        return shape.chol
    if isinstance(shape, shapes.DiagEllipsoid):
        return np.diag(np.sqrt(shape.variances))
    return np.eye(shape.dim)


def _pca_blocks(shape: shapes.PcaEllipsoid, rho: float, rhs: np.ndarray,
                d: int) -> list:
    """Rows protected against {xi : M xi = mu + rho L u, ||u|| <= 1}.

    xi enters the set only through M xi, so row i's worst case is finite
    only if x, placed at block i, lies in the row space of M: x_emb = M'z.
    There it is mu'z + rho ||L'z||, an ellipsoidal row whose center is
    lift'mu and whose tails are L' lift, where z = lift x_emb and lift is
    (M^+)' (M itself when its rows are orthonormal, as a fitted PCA's are).
    With N the null-space basis of M, the equality rows N'[:, block i] x = 0
    of every row i act on the same d columns of x, so one Zero block holds
    an orthonormal basis of their row space instead: at most d rows, its
    rank read by np.linalg.matrix_rank, and no block when M has full column
    rank.
    """
    l, r = rhs.size, shape.rank
    u, sv, vt = np.linalg.svd(shape.projection)
    if sv.size < r or not sv[-1] > 1e-12 * sv[0]:
        raise InvalidArgumentError("the PCA projection rows must be linearly independent")
    lift = (u / sv) @ vt[:r]
    blocks = [_vecnorm_blocks((shape.center_reduced @ lift).reshape(l, d),
                              shape.chol.T @ lift, rho, rhs)]
    null = vt[r:].reshape(-1, l, d).transpose(1, 0, 2).reshape(-1, d)
    if null.size:
        k = np.linalg.matrix_rank(null)
        basis = np.linalg.svd(null, full_matrices=False)[2][:k]
        blocks.append(Block(rows_x=basis, rows_aux=_no_aux(k), offsets=np.zeros(k),
                            cones=(conic.Zero(k),)))
    return blocks


def _nearest_center_block(centers: np.ndarray, radius: float, norm: int,
                          rhs: np.ndarray, l: int, d: int) -> Block:
    """Rows protected against a union of equal balls (norm 2) or cubes (norm 1).

    Every component is centers_k plus a ball or cube of the same radius, and
    row i sees only coordinate block i, onto which each component projects
    as the ball or cube of that radius around the projected center c_{k,i}.
    The worst case of row i over component k is c_{k,i}'x + radius*||x||
    (the dual norm), so one shared epigraph variable g >= ||x|| serves every
    row: c_{k,i}'x + radius*g <= b_i.  Duplicate (c_{k,i}, b_i) rows are
    dropped, and the rest kept in lexicographic order, as np.unique(axis=0)
    leaves them; with radius 0 g is dropped too.  For norm 2, g is a scalar t
    with (t, x) in SOC(1 + d); for norm 1, g = 1'u with u >= x and u >= -x.
    """
    k = centers.shape[0]
    pairs = np.column_stack([centers.reshape(k * l, d), np.tile(rhs, k)])
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    fresh = np.ones(k * l, dtype=bool)
    fresh[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
    pairs = pairs[fresh]
    rows_c, offs = pairs[:, :d], pairs[:, d]
    r = offs.size
    if radius == 0.0:
        return Block(rows_x=rows_c, rows_aux=_no_aux(r), offsets=offs,
                     cones=(conic.Nonneg(r),))
    eye = np.eye(d)
    if norm == 2:
        rows_x = np.vstack([rows_c, np.zeros((1, d)), -eye])
        rows_aux = np.concatenate([np.full(r, radius), [-1.0], np.zeros(d)])[:, None]
        cones = (conic.Nonneg(r), conic.SecondOrder(1 + d))
    else:
        rows_x = np.vstack([rows_c, -eye, eye])
        rows_aux = np.vstack([np.full((r, d), radius), -eye, -eye])
        cones = (conic.Nonneg(r + 2 * d),)
    return Block(rows_x=rows_x, rows_aux=rows_aux,
                 offsets=np.concatenate([offs, np.zeros(rows_x.shape[0] - r)]),
                 cones=cones)


def _linear_blocks(shape, s: float, rhs: np.ndarray, d: int) -> list:
    """RC blocks protecting the rows a_i'x <= rhs_i against shape at size s.

    A union replicates the rows once per component, except that a union
    made only of balls is a ball basis and gets its shared-epigraph block.
    An intersection is the constraint-wise product: it has one component
    per row, and component i, of dimension d, protects row i.
    """
    l = rhs.size
    if isinstance(shape, shapes.Union):
        if not all(isinstance(comp, shapes.Ball) for comp in shape.components):
            return [blk for comp in shape.components
                    for blk in _linear_blocks(comp, s, rhs, d)]
        shape = shapes.BallBasis(centers=[comp.center for comp in shape.components])
    if isinstance(shape, shapes.Intersection):
        if len(shape.components) != l:
            raise InvalidArgumentError(
                f"intersection has {len(shape.components)} components "
                f"but the family has {l} rows"
            )
        return [blk for i, comp in enumerate(shape.components)
                for blk in _linear_blocks(comp, s, rhs[i: i + 1], d)]
    m = l * d
    if shape.dim != m:
        raise InvalidArgumentError(
            f"shape dimension {shape.dim} does not match the data dimension {m}"
        )
    rho = _rho_of_size(s)
    if isinstance(shape, _ELLIPSOIDS):
        abar = shape.center.reshape(l, d)
        return [_vecnorm_blocks(abar, _ellipsoid_factor(shape).T, rho, rhs)]
    if isinstance(shape, shapes.PcaEllipsoid):
        return _pca_blocks(shape, rho, rhs, d)
    if isinstance(shape, shapes.Polytope):
        offs = polytope_level_offsets(shape, s)
        return [
            rc_linear_polytope(shape.rows, offs, float(rhs[i]),
                               x_dim=d, x_offset=i * d)
            for i in range(l)
        ]
    if isinstance(shape, shapes.BallBasis):
        return [_nearest_center_block(shape.centers, rho, 2, rhs, l, d)]
    if isinstance(shape, shapes.BoxGrid):
        half = shape.half_width * max(float(s), 0.0)
        return [_nearest_center_block(shape.centers, half, 1, rhs, l, d)]
    raise UnsupportedCombinationError(
        f"no linear robust counterpart for shape {shape.variant!r}; "
        f"supported pairs: {SUPPORTED_PAIRS}"
    )


# ---------------------------------------------------------------------------
# reconstruction


def linear_row_values(points, x, l: int) -> np.ndarray:
    """a_j(xi)'x for each point xi (a row of l blocks a_j) and row j: (n, l).

    One matrix-vector product over the (n*l, d) stack of blocks, several
    times faster than the batched (n, l, d) @ x.
    """
    n = points.shape[0]
    return (points.reshape(n * l, len(x)) @ x).reshape(n, l)


def build_reconstruction_set(x_hat, spec: model.CcpSpec, scale, phase2,
                             epsilon: float, delta: float) -> shapes.PredictionSet:
    """Recalibrate around a candidate solution x_hat (linear families only).

    The Phase-2 transform is t(A) = max_j (a_j'x_hat - b_j) / k_j with the
    positive scale vector k; the returned set is the polytope
    {xi : a_j'x_hat <= b_j + s k_j for all j} at size 1, with the calibrated
    s recorded in the calibration result (s <= 0 certifies that x_hat itself
    stays feasible for the reconstructed program).  Only deterministic
    right-hand sides are supported.
    """
    if not isinstance(spec.family, model.JointLinear):
        raise UnsupportedCombinationError(
            "reconstruction supports the linear constraint families only"
        )
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    d = spec.d
    l = spec.family.l
    if x_hat.size != d:
        raise InvalidArgumentError(f"x_hat must have {d} entries")
    norm2 = float(x_hat @ x_hat)
    if norm2 <= 0:
        raise InvalidArgumentError("x_hat must be nonzero")
    k = np.asarray(scale, dtype=float).reshape(-1)
    if k.size != l:
        raise InvalidScaleError(f"scale must have {l} entries, got {k.size}")
    if np.any(k <= 0) or not np.all(np.isfinite(k)):
        raise InvalidScaleError("every scale component must be positive")
    pts = shapes._points_of(phase2)
    if pts.shape[1] != l * d:
        raise InvalidArgumentError(
            f"phase2 points have dimension {pts.shape[1]}, expected {l * d}"
        )
    margins = (linear_row_values(pts, x_hat, l) - spec.rhs) / k
    values = margins.max(axis=1)
    calib = calibrate_size(values, epsilon, delta)
    s = calib.s

    rows = np.zeros((l, l * d))
    for j in range(l):
        rows[j, j * d: (j + 1) * d] = x_hat
    offsets = spec.rhs + s * k
    interior = np.zeros(l * d)
    for j in range(l):
        interior[j * d: (j + 1) * d] = ((offsets[j] - 1.0) / norm2) * x_hat
    shape = shapes.Polytope(rows=rows, offsets=offsets, interior=interior)
    return shapes.PredictionSet(shape=shape, size=1.0, calib=calib)


def solve_reconstruction(spec: model.CcpSpec, x_hat,
                         pset_rec: shapes.PredictionSet) -> tuple:
    """Solve the reconstructed program in closed form: (status, x or None).

    Over the reconstructed set {xi : x_hat'xi_j <= o_j for all j} the worst
    case of xi_j'x is finite only on the ray x = lambda x_hat with
    lambda >= 0, where it is lambda o_j; a det row a'x <= b becomes
    lambda a'x_hat <= b.  So every row bounds one scalar, lambda a_k <= b_k,
    the feasible lambda form an interval [lo, hi], and the objective
    lambda c'x_hat is least at hi if c'x_hat < 0 (unbounded if hi is
    infinite) and at lo otherwise.

    x_hat comes from an earlier solve and may end a solver tolerance outside
    a det row; such a row is taken as active at x_hat, a_k = b_k.  So
    lambda = 1 (x = x_hat) stays feasible, and rho <= 0 keeps
    obj_tilde <= obj_hat.  (Raising b_k to a'x_hat instead would cap lambda
    at 1 wherever x_hat misses a row with b_k = 0, such as x >= 0, by 1e-11.)
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    a = np.asarray(pset_rec.shape.offsets, dtype=float)
    b = spec.rhs
    if a.size != b.size:
        raise InvalidArgumentError("need one rhs entry per reconstructed offset")
    if spec.det is not None:
        a = np.concatenate([a, np.minimum(spec.det.a_ub @ x_hat, spec.det.b_ub)])
        b = np.concatenate([b, spec.det.b_ub])
    up, down = a > 0.0, a < 0.0
    lo = max(0.0, float(np.max(b[down] / a[down], initial=-np.inf)))
    hi = float(np.min(b[up] / a[up], initial=np.inf))
    if lo > hi or np.any((a == 0.0) & (b < 0.0)):
        return conic.SolveStatus.INFEASIBLE, None
    if float(spec.objective @ x_hat) >= 0.0:
        return conic.SolveStatus.OPTIMAL, lo * x_hat
    if hi == np.inf:
        return conic.SolveStatus.UNBOUNDED, None
    return conic.SolveStatus.OPTIMAL, hi * x_hat


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True, eq=False)
class RobustProgram:
    """A reformulated CCP: the spec, its prediction set and the conic program.

    The program's variables are x first, then each robust block's auxiliary
    columns in block order.
    """

    spec: model.CcpSpec
    set: shapes.PredictionSet
    program: conic.ConicProgram


def _shape_blocks(spec: model.CcpSpec, pset: shapes.PredictionSet) -> list:
    """RC blocks for the spec's protected constraints."""
    shape = pset.shape
    s = pset.size
    family = spec.family
    d = spec.d

    if isinstance(family, model.JointLinear):
        return _linear_blocks(shape, s, spec.rhs, d)

    if isinstance(family, model.Quadratic):
        if not isinstance(shape, _ELLIPSOIDS):
            raise UnsupportedCombinationError(
                f"quadratic family with shape {shape.variant!r} is not supported; "
                f"supported pairs: {SUPPORTED_PAIRS}"
            )
        m = spec.data_dim
        if shape.dim != m:
            raise InvalidArgumentError("shape dimension does not match (vec A, b, c)")
        factor = _ellipsoid_factor(shape)
        rho = _rho_of_size(s)
        nominal = model.split_quadratic_point(shape.center, family.q, d)
        directions = [
            model.split_quadratic_point(rho * factor[:, j], family.q, d)
            for j in range(m)
        ]
        return [rc_quadratic_ellipsoid(nominal, directions, q=float(spec.rhs[0]))]

    if isinstance(family, model.Semidefinite):
        if not isinstance(shape, shapes.Ball):
            raise UnsupportedCombinationError(
                f"semidefinite family with shape {shape.variant!r} is not supported; "
                f"supported pairs: {SUPPORTED_PAIRS}"
            )
        if shape.dim != spec.data_dim:
            raise InvalidArgumentError("shape dimension does not match vec(xi)")
        abar = model.split_semidefinite_point(shape.center, d, family.p)
        b_mat = model.semidefinite_rhs_matrix(spec)
        return [rc_sdp_normbounded(abar, b_mat, _rho_of_size(s))]

    raise UnsupportedCombinationError(
        f"unknown constraint family {family.kind!r}; supported pairs: {SUPPORTED_PAIRS}"
    )


def det_blocks(det: model.DetConstraints | None) -> list:
    """The block of deterministic rows A_ub x <= b_ub, if any."""
    if det is None or det.b_ub.size == 0:
        return []
    return [Block(rows_x=det.a_ub, rows_aux=_no_aux(det.b_ub.size),
                  offsets=det.b_ub, cones=(conic.Nonneg(det.b_ub.size),))]


def assemble(objective, blocks) -> conic.ConicProgram:
    """Stack blocks into min c'x over (x, aux) subject to every block.

    The rows follow the blocks in order, and so do the auxiliary columns,
    which come after x.
    """
    c = np.asarray(objective, dtype=float).reshape(-1)
    d = c.size
    n_aux = sum(blk.n_aux for blk in blocks)
    n_rows = sum(blk.offsets.size for blk in blocks)
    A = np.zeros((n_rows, d + n_aux))
    b = np.zeros(n_rows)
    cones = []
    aux_base = d
    r0 = 0
    for i, blk in enumerate(blocks):
        k = blk.offsets.size
        if blk.n_x != d:
            raise InvalidArgumentError(
                f"block {i} has {blk.n_x} x-columns but the objective "
                f"has {d} entries")
        A[r0: r0 + k, :d] = blk.rows_x
        A[r0: r0 + k, aux_base: aux_base + blk.n_aux] = blk.rows_aux
        aux_base += blk.n_aux
        b[r0: r0 + k] = blk.offsets
        cones.extend(blk.cones)
        r0 += k
    c = np.concatenate([c, np.zeros(n_aux)])
    return conic.ConicProgram(c=c, A=A, b=b, cones=tuple(cones))


def assemble_ro(spec: model.CcpSpec, pset: shapes.PredictionSet) -> RobustProgram:
    """Assemble min c'x subject to deterministic rows plus all RC blocks.

    Programs with an LMI block are export-only and refuse the internal
    solver.
    """
    if pset.dim != spec.data_dim:
        raise InvalidArgumentError(
            f"prediction set dimension {pset.dim} does not match "
            f"the family's data dimension {spec.data_dim}"
        )
    program = assemble(spec.objective, det_blocks(spec.det) + _shape_blocks(spec, pset))
    return RobustProgram(spec=spec, set=pset, program=program)
