"""Primal-dual interior-point solver for linear and second-order cone programs.

Implements a homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  The embedding solves

    minimize c'x  s.t.  Ax = b,  Gx + s = h,  s in C,

obtained from the IR by routing Zero rows to (A, b) and Nonneg/SecondOrder
rows to (G, h).  Working variables are (x, y, z, s, tau, kappa), with (y, z)
one dual vector over the rows [A; G]; residuals

    rx = A'y + G'z + c*tau
    ry = Ax - b*tau
    rz = Gx + s - h*tau
    rt = c'x + b'y + h'z + kappa

all vanish at a solution of the embedding, and the sign of tau vs kappa at
convergence separates optimality from infeasibility certificates.

Every program takes one loop of at most MAX_ITER iterations and one exit,
``_solution``.  Without rows the first iterate is x = 0, optimal when the
dual residual ||c|| / max(1, ||c||) is within FEAS_TOL, else the second is a ray.
A breakdown ends the loop as ITER_LIMIT at the best iterate, with its reason;
a tau that is not positive, or whose square underflows to 0 (the deflated gap
divides by tau^2), is one, so tau's collapse on a badly scaled program is a
status, not an exception.

The cone layer is blockwise over second-order blocks only: a nonnegative row
is the one-dimensional second-order cone, so each solve gives every Nonneg row
its own one-row block and keeps the inequality rows in program order.  The
scaling and every cone kernel are a fixed number of array operations over all
rows, whatever the number and dimensions of the blocks: per-block sums over
the block heads with ``np.add.reduceat``, broadcast back to rows through a
row-to-block index.  The scaling is an operator and no p x p scaling matrix is
built: as CVXOPT stores it, W = eta (2vv' - J) per block, so W, W^{-1} and the
hyperbolic rotation of the step test are each one block reflection
(2uu' - J) x, one kernel for all three with a different u.

Step lengths are measured in the scaled space, as in CVXOPT's ``coneqp``:
W^{-1} ds and W dz both step from the one point lam = W z = W^{-1} s, and W
maps the cone onto itself, so one kernel (``_NT.max_step``) measures both
against lam.  The predictor takes its step and mu_aff from lam and never
unscales ds.  The corrector moves by SDPT3's fraction of the step alpha to
the boundary (Toh, Todd & Tutuncu 1999), min(1, (0.9 + 0.09 min(1, alpha))
alpha): 0.99 alpha when alpha is long, further back when it is short.

The KKT system is the scaled one of ``coneqp`` (Vandenberghe 2010): the one
with a -W^2 block, its last block row multiplied by W^{-1}, in the unknowns
(dx, dy, W dz).  Its -I block stays well scaled where W^2 spreads apart near
the boundary, and W dz is the scaled direction that max_step reads.  A static
d_x on the x diagonal and -d on the equality rows' diagonal, as in ECOS
(Domahidi, Chu & Boyd 2013), makes it quasi-definite and so nonsingular
whatever the rank of [A; G] (Vanderbei 1995): repeated or all-zero columns
need no other path.  d = 1e-10 and d_x = d min(1, max(1, ||c||) /
max(1, ||(b, h)||)): the term d_x dx that the x diagonal adds to the dual
residual grows with x, whose scale is that of (b, h) over that of c, so an
absolute d_x stalls the dual residual of a program with a large solution.
It is dense, (n+me+p) square, and LU-factored twice per iteration.

Built once per solve: the cone layout (``_Cones``: block heads, row-to-block
index, J, tail mask, cone identity e), the KKT matrix but its W^{-1}G blocks,
the (2, p) scaled-step buffer and the residual scales.  Each residual is
scaled by the data its own conditions involve: the primal ones by
max(1, ||b||) and max(1, ||h||), the dual one and a ray's (||Ax||, ||Gx + s||
at c'x = -1) by max(1, ||c||), a Farkas certificate's (||A'y + G'z|| at
b'y + h'z = -1) by max(1, ||(b, h)||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import (
    ConicProgram,
    Nonneg,
    SecondOrder,
    Solution,
    SolveStatus,
    Zero,
    trace_array,
)
from .errors import ExportOnlyProgramError

# the static regularization d of the KKT diagonal: -d on the equality rows,
# and +d on x scaled down for data whose (b, h) outweighs c (see _KKT)
_REG = 1e-10
# stopping tolerances: FEAS_TOL bounds the relative residuals and the
# residual of an infeasibility certificate, GAP_TOL the relative gap
FEAS_TOL = 1e-8
GAP_TOL = 1e-8
# the iteration limit: a solve that reaches it returns its best iterate
MAX_ITER = 200


class _Breakdown(Exception):
    pass


@dataclass
class _Cones:
    """Inequality-row layout: second-order blocks in program row order.

    A Nonneg row is a block of dimension 1.  ``heads`` holds each block's
    first row and ``blk`` each row's block; ``J``, ``tail`` and the cone
    identity ``e`` are 1, 0 and 1 on a head and -1, 1 and 0 elsewhere.
    """

    heads: np.ndarray
    blk: np.ndarray
    J: np.ndarray
    tail: np.ndarray
    e: np.ndarray

    def tdot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-block dot products u1'v1 of the block tails.

        Along the last axis, so stacked vectors give one row each.
        """
        return np.add.reduceat(u * v * self.tail, self.heads, axis=-1)


@dataclass
class _Split:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    cones: _Cones
    nu: float
    # max(1, ||v||) for v = c, b, h and (b, h): the residual scales
    scales: tuple


def _split(prog: ConicProgram) -> _Split:
    eq = np.zeros(prog.b.size, dtype=bool)
    dims = []
    row = 0
    for cone in prog.cones:
        kind = type(cone)
        if kind is Zero:
            eq[row : row + cone.dim] = True
        elif kind is Nonneg:
            dims += [1] * cone.dim
        elif kind is SecondOrder:
            dims.append(cone.dim)
        else:
            raise ExportOnlyProgramError(
                "program contains a PSD block; export it instead of solving"
            )
        row += cone.rows
    dims = np.array(dims, dtype=np.intp)
    heads = np.cumsum(dims) - dims
    blk = np.repeat(np.arange(dims.size), dims)
    tail = np.ones(blk.size)
    tail[heads] = 0.0
    c, b, h = prog.c.copy(), prog.b[eq], prog.b[~eq]
    return _Split(c=c, A=prog.A[eq], b=b, G=prog.A[~eq], h=h,
                  cones=_Cones(heads=heads, blk=blk,
                               J=1.0 - 2.0 * tail, tail=tail, e=1.0 - tail),
                  nu=1.0 + dims.size,  # 1 for the tau*kappa pair
                  scales=tuple(max(1.0, _norm(v))
                               for v in (c, b, h, np.concatenate((b, h)))))


def _min_eig(cones: _Cones, v: np.ndarray) -> float:
    soc = v[cones.heads] - np.sqrt(cones.tdot(v, v))
    return float(np.minimum.reduce(soc, initial=math.inf))


def _jprod(cones: _Cones, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    heads, blk = cones.heads, cones.blk
    out = u[heads][blk] * v + v[heads][blk] * u
    out[heads] = np.add.reduceat(u * v, heads)
    return out


def _jdiv(cones: _Cones, lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve lam o u = w blockwise."""
    heads, blk = cones.heads, cones.blk
    l0 = lam[heads]
    det = l0 * l0 - cones.tdot(lam, lam)
    u0 = (l0 * w[heads] - cones.tdot(lam, w)) / det
    out = (w - u0[blk] * lam) / l0[blk]
    out[heads] = u0
    return out


class _NT:
    """Nesterov-Todd scaling W, with W z = W^{-1} s = lam, as an operator.

    Per block W = eta T(wbar), where wbar has unit J-norm and T(wbar) is the
    hyperbolic rotation taking e to wbar.  It is the reflection 2vv' - J with
    v = (wbar + e) / sqrt(2 (1 + wbar0)), as CVXOPT stores it, so that
    W = eta (2vv' - J) and W^{-1} = (2(Jv)(Jv)' - J) / eta.  On a one-row
    block wbar = v = 1 and W = eta = sqrt(s/z).  ``sz`` stacks s and z as its
    two rows.

    lam = kappa lbar, with kappa = (det s det z)^(1/4) and lbar of unit
    J-norm, is built in closed form from the normalized s and z, as in
    CVXOPT's ``compute_scaling``; on a one-row block lbar = 1 and
    lam = kappa = sqrt(s z).  The step test rotates by T(J lbar), the
    reflection in u = (J lbar + e) / sqrt(2 (1 + lbar0)).
    """

    def __init__(self, cones: _Cones, sz: np.ndarray):
        heads, blk, J, e = cones.heads, cones.blk, cones.J, cones.e
        head = sz.take(heads, axis=1)
        det = head * head - cones.tdot(sz, sz)
        # interior: heads and determinants all positive (det > 0 alone also
        # admits the negative cone); NaN fails
        if not np.minimum(head, det).min(initial=math.inf) > 0.0:
            raise _Breakdown("iterate left the cone interior")
        self.cones = cones
        root_s, root_z = root = np.sqrt(det)
        # s and z scaled to unit J-norm
        sn, zn = unit = sz / root.take(blk, axis=1)
        sn0, zn0 = unit0 = head / root
        heads_sum = sn0 + zn0
        gamma = np.sqrt((1.0 + np.add.reduceat(sn * zn, heads)) / 2.0)
        gamma2 = 2.0 * gamma
        # v = (wbar + e) / sqrt(2 (1 + wbar0)), wbar0 = (sn0 + zn0) / (2 gamma)
        v = ((sn + J * zn) / gamma2[blk] + e) / np.sqrt(2.0 + heads_sum / gamma)[blk]
        self._v = np.array((v, J * v))  # the reflections of W and of W^{-1}
        self._eta = np.sqrt(root_s / root_z)[blk]
        self.kappa = np.sqrt(root_s * root_z)
        # lbar1 = ((gamma + zn0) sn1 + (gamma + sn0) zn1) / (sn0 + zn0 + 2 gamma)
        lbar = ((gamma + unit0[::-1]).take(blk, axis=1) * unit).sum(axis=0) / (
            heads_sum + gamma2)[blk]
        lbar[heads] = gamma
        self.lam = lbar * self.kappa[blk]
        self._u = (J * lbar + e) / np.sqrt(gamma2 + 2.0)[blk]

    def _reflect(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(2uu' - J) x per block, along the last axis of x."""
        dot = np.add.reduceat(u * x, self.cones.heads, axis=-1)
        return (2.0 * dot).take(self.cones.blk, axis=-1) * u - self.cones.J * x

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """W^{-1} x; on a (k, p) x, W^{-1} of each row."""
        return self._reflect(self._v[1], x) / self._eta

    def unscale(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W d[0], W^{-1} d[1]): ds and dz from (W^{-1} ds, W dz)."""
        ds, dz = self._reflect(self._v, d)
        return ds * self._eta, dz / self._eta

    def max_step(self, d: np.ndarray) -> float:
        """Largest alpha >= 0 with lam + alpha*d in the cone (can be inf).

        d stacks scaled directions as rows, W^{-1} ds and W dz, and the step
        keeps every row in the cone.  The rotation T(J lbar) maps lbar to the
        cone identity e and the cone onto itself, so with t = T(J lbar) d a
        block stays inside while alpha (||t1|| - t0) <= kappa.  On a one-row
        block the step is -lam/d.  A NaN never sets the step.
        """
        t = self._reflect(self._u, d)
        out = np.fmax.reduce(np.sqrt(self.cones.tdot(t, t))
                             - t.take(self.cones.heads, axis=1))
        pos = out > 0.0
        return float(np.minimum.reduce(self.kappa[pos] / out[pos], initial=math.inf))


def _kkt_solve(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        X = np.linalg.solve(K, B)
    except np.linalg.LinAlgError as exc:
        raise _Breakdown("singular KKT system") from exc
    if not np.isfinite(X).all():
        raise _Breakdown("non-finite KKT solution")
    return X


class _KKT:
    """The regularized scaled KKT system

        [[d_x I, A', (W^{-1}G)'], [A, -d I, 0], [W^{-1}G, 0, -I]],

    d = _REG and d_x = d min(1, max(1, ||c||) / max(1, ||(b, h)||)).

    It is allocated once with W = I, so the diagonal is written once per
    solve; ``set_scaling`` rewrites the W^{-1}G blocks, from one W^{-1} pass
    over the rows [G'; h'; rz'], and W^{-1}h in ``cbh`` = (c, b, W^{-1}h) and in
    the shared right-hand side column ``rhs[:, 0]`` = (-c, b, W^{-1}h).
    """

    def __init__(self, sp: _Split):
        c, b, G, h = sp.c, sp.b, sp.G, sp.h
        n, off = c.size, c.size + b.size
        self.n, self.off = n, off
        self.K = K = np.zeros((off + h.size,) * 2)
        self.AG = AG = np.vstack((sp.A, G))
        K[:n, n:] = AG.T
        K[n:, :n] = AG
        np.fill_diagonal(K[:n, :n], _REG * min(1.0, sp.scales[0] / sp.scales[3]))
        np.fill_diagonal(K[n:off, n:off], -_REG)
        np.fill_diagonal(K[off:, off:], -1.0)
        self._rows = np.vstack((G.T, h, h))
        self.cbh = np.concatenate((c, b, h))
        self.rhs = np.zeros((off + h.size, 2))
        self.rhs[:, 0] = self.cbh
        self.rhs[:n, 0] = -c

    def set_scaling(self, nt: _NT, rz: np.ndarray) -> np.ndarray:
        """Rewrite the W^{-1}G and W^{-1}h parts for nt; return W^{-1} rz."""
        n, off, rows = self.n, self.off, self._rows
        rows[-1] = rz
        rows = nt.apply_inv(rows)
        self.K[off:, :n] = rows[:n].T
        self.K[:n, off:] = rows[:n]
        self.cbh[off:] = self.rhs[off:, 0] = rows[n]
        return rows[n + 1]


def _norm(v: np.ndarray) -> float:
    # the value of np.linalg.norm(v) for a vector, without its call overhead
    return math.sqrt(v @ v)


def solve(prog: ConicProgram) -> Solution:
    sp = _split(prog)
    c, b, h = sp.c, sp.b, sp.h
    cones, nu = sp.cones, sp.nu
    n, me, p = c.size, b.size, h.size
    off, bh = n + me, np.concatenate((b, h))
    # the scales of the residuals, each by the data its conditions involve
    resx0, resy0, resz0, resbh = sp.scales

    # initialization: least-norm heuristic with identity scaling, then shift
    # s and z into the cone interior
    kkt = _KKT(sp)
    K, rhs, cbh, AG = kkt.K, kkt.rhs, kkt.cbh, kkt.AG
    init = np.zeros((off + p, 2))
    init[n:, 0] = bh
    init[:n, 1] = -c
    try:
        init = _kkt_solve(K, init)
    except _Breakdown:
        init = np.zeros((off + p, 2))
    # the iterate is v = (x, y, z), with (y, z) one dual over the rows [A; G],
    # and s; each step replaces both arrays, so a kept point stays as it was
    v = init[:, 1].copy()
    v[:n] = init[:n, 0]
    s = -init[off:, 0]
    for u in (s, v[off:]):
        t = -_min_eig(cones, u)
        if t >= 0.0:
            u += (1.0 + t) * cones.e
    tau, kappa = 1.0, 1.0
    # the scaled step (W^{-1} ds, W dz) that _NT.max_step reads
    dsc = np.empty((2, p))

    best, best_score, trace = None, math.inf, []
    status, cert, reason = SolveStatus.ITER_LIMIT, None, "iteration limit"

    for it in range(1, MAX_ITER + 1):
        x, yz, z = v[:n], v[n:], v[off:]
        aty = AG.T @ yz
        rx = aty + c * tau
        r = AG @ x - bh * tau
        r[me:] += s
        ry, rz = r[:me], r[me:]
        cx, byhz, sz = float(c @ x), float(bh @ yz), float(s @ z)
        rt = cx + byhz + kappa
        mu = (sz + tau * kappa) / nu

        pcost, dcost = cx / tau, -byhz / tau
        # the deflated residuals are the embedding's over tau
        pres = max(_norm(ry) / resy0, _norm(rz) / resz0) / tau
        dres = _norm(rx) / resx0 / tau
        gap_abs = sz / (tau * tau)
        relgap = gap_abs / max(1.0, abs(pcost), abs(dcost))
        # the step taken from this iterate replaces the NaN once it is known
        row = (it, pcost, dcost, pres, dres, relgap, float(mu))
        trace.append(row + (math.nan,))

        point = (v, s, tau, pcost, relgap, gap_abs, pres, dres)
        score = max(pres, dres, relgap)
        if score < best_score:
            best_score, best = score, point

        if pres <= FEAS_TOL and dres <= FEAS_TOL and relgap <= GAP_TOL:
            status, best = SolveStatus.OPTIMAL, point
            break

        # infeasibility certificates from the embedding
        if byhz < 0.0:
            # A'y + G'z, with b'y + h'z scaled to -1
            resid = _norm(aty) / (-byhz) * resbh
            if resid <= FEAS_TOL:
                status, best, cert = SolveStatus.INFEASIBLE, (v, s, -1.0 / byhz), resid
                break
        if cx < 0.0:
            # A x = ry + b tau and G x + s = rz + h tau, with c'x scaled to -1
            rb = r + bh * tau
            resid = max(_norm(rb[:me]), _norm(rb[me:])) / (-cx) * resx0
            if resid <= FEAS_TOL:
                status, best, cert = SolveStatus.UNBOUNDED, (v, s, -1.0 / cx), resid
                break

        try:
            nt = _NT(cones, np.array((s, z)))
            lam = nt.lam
            res = np.concatenate((rx, ry, kkt.set_scaling(nt, rz)))

            def _direction(sigma, lds, dtk_rhs):
                """((dx, dy, W dz), dtau, dkappa); dsc gets (W^{-1} ds, W dz).

                lds solves lam o lds = r for the complementarity residual r.
                """
                f = 1.0 - sigma
                np.multiply(res, -f, out=rhs[:, 1])
                rhs[off:, 1] -= lds
                sol = _kkt_solve(K, rhs)
                t1, t2 = (cbh @ sol).tolist()
                dtau = (-f * rt - dtk_rhs / tau - t2) / (t1 - kappa / tau)
                d = sol[:, 1] + dtau * sol[:, 0]
                dsc[1] = d[off:]
                np.subtract(lds, dsc[1], out=dsc[0])
                return d, dtau, (dtk_rhs - kappa * dtau) / tau

            def _max_step(dtau, dkappa):
                """Largest step keeping lam, tau and kappa in their cones."""
                return min(nt.max_step(dsc), -tau / dtau if dtau < 0.0 else math.inf,
                           -kappa / dkappa if dkappa < 0.0 else math.inf)

            # predictor: lds = -lam; as lam'lam = s'z and dsc[0] + dsc[1] = lds,
            # the affine s'z is (1 - a) s'z + a^2 dsc[0]'dsc[1]
            _, dta, dka = _direction(0.0, -lam, -tau * kappa)
            a = min(1.0, _max_step(dta, dka))
            mu_aff = ((1.0 - a) * sz + a * a * float(dsc[0] @ dsc[1])
                      + (tau + a * dta) * (kappa + a * dka)) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector: lam o (lds + lam) = sigma mu e - dsc[0] o dsc[1]
            corr = _jprod(cones, dsc[0], dsc[1])
            lds = _jdiv(cones, lam, sigma * mu * cones.e - corr) - lam
            dtk_rhs = sigma * mu - tau * kappa - dta * dka
            d, dtau, dkappa = _direction(sigma, lds, dtk_rhs)
            alpha = _max_step(dtau, dkappa)
            # SDPT3's step fraction (Toh, Todd & Tutuncu 1999): 0.99 alpha
            # (at most a full step) when alpha >= 1, falling to 0.9 alpha as
            # alpha shrinks
            a = min(1.0, (0.9 + 0.09 * min(1.0, alpha)) * alpha)
            if not math.isfinite(a) or a <= 0.0:
                raise _Breakdown("no progress possible")
            trace[-1] = row + (a,)

            ds, d[off:] = nt.unscale(dsc)
            v = v + a * d
            s = s + a * ds
            tau = tau + a * dtau
            kappa = kappa + a * dkappa
            if tau <= 0.0 or kappa <= 0.0:
                raise _Breakdown("tau/kappa left the positive orthant")
            if tau * tau == 0.0:
                # the deflated gap divides by tau^2
                raise _Breakdown("tau underflowed: tau^2 is 0")
        except _Breakdown as exc:
            reason = str(exc)
            break

    return _solution(status, n, best, it, trace, cert, reason)


def _solution(status: SolveStatus, n: int, point: tuple, it: int, trace: list,
              cert: float | None, reason: str | None) -> Solution:
    """The Solution of status at point; reason is kept for ITER_LIMIT only.

    An optimal or best iterate, point = (v, s, tau, obj, gap, gap_abs, pres,
    dres), is deflated by its tau.  A certificate, point = (v, s, scale)
    with residual cert, is the iterate times scale, which sets b'y + h'z or
    c'x to -1: its (y, z) when INFEASIBLE, its (x, s) when UNBOUNDED.
    """
    v, s, t, *stats = point  # t: the iterate's tau or the certificate's scale
    off = v.size - s.size
    x, y, z = v[:n], v[n:off], v[off:]
    if cert is None:
        x, y, z, s = x / t, y / t, z / t, s / t
    elif status is SolveStatus.INFEASIBLE:
        x, y, z, s = None, y * t, z * t, None
    else:
        x, y, z, s = x * t, None, None, s * t
    obj, gap, gap_abs, pres, dres = stats or (None,) * 5
    return Solution(status=status, x=x, y=y, z=z, s=s, obj=obj, gap=gap,
                    gap_abs=gap_abs, pres=pres, dres=dres, iterations=it,
                    cert_residual=cert, trace=trace_array(trace),
                    reason=reason if status is SolveStatus.ITER_LIMIT else None)
