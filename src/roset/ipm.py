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
d = 1e-10 on the x diagonal and -d on the equality rows' diagonal, as in
ECOS (Domahidi, Chu & Boyd 2013), makes it quasi-definite and so nonsingular
whatever the rank of [A; G] (Vanderbei 1995): repeated or all-zero columns
need no other path.  It is dense, (n+me+p) square, and LU-factored twice per
iteration.  Eliminating its -I block gives the reduced system
[[(W^{-1}G)'(W^{-1}G) + d I, A'], [A, -d I]], which waits until the
benchmark's peak_rss_mb measures the working set: the benchmark keeps every
op's output, so a 30 s scenario_lp run read 55.7 MB after 333 ops of the
dense system and 64.2 MB after 1347 ops of a reduced-system prototype, past
the 10% bound.
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

# the static regularization d of the KKT diagonal, +d on x and -d on the
# equality rows (see _KKT)
_REG = 1e-10
# stopping tolerances: FEAS_TOL bounds the relative residuals and the
# residual of an infeasibility certificate, GAP_TOL the relative gap
FEAS_TOL = 1e-8
GAP_TOL = 1e-8


class _Breakdown(Exception):
    pass


@dataclass
class _Cones:
    """Inequality-row layout: second-order blocks in program row order.

    A Nonneg row is a block of dimension 1.  ``heads`` holds each block's
    first row, ``blk`` each row's block, ``J`` is +1 on a head and -1
    elsewhere, and ``tail`` is 0 on a head and 1 elsewhere.
    """

    dims: np.ndarray
    heads: np.ndarray
    blk: np.ndarray
    J: np.ndarray
    tail: np.ndarray

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
    return _Split(c=prog.c.copy(), A=prog.A[eq], b=prog.b[eq],
                  G=prog.A[~eq], h=prog.b[~eq],
                  cones=_Cones(dims=dims, heads=heads, blk=blk,
                               J=1.0 - 2.0 * tail, tail=tail),
                  nu=1.0 + dims.size)  # 1 for the tau*kappa pair


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
        heads, blk, J = cones.heads, cones.blk, cones.J
        head = sz[:, heads]
        det = head * head - cones.tdot(sz, sz)
        # interior: heads and determinants all positive (det > 0 alone also
        # admits the negative cone); NaN fails
        if not np.minimum(head, det).min(initial=math.inf) > 0.0:
            raise _Breakdown("iterate left the cone interior")
        self.cones = cones
        root = np.sqrt(det)
        # s and z scaled to unit J-norm
        unit = sz / root[:, blk]
        unit0 = head / root
        sn, zn = unit
        gamma = np.sqrt((1.0 + np.add.reduceat(sn * zn, heads)) / 2.0)
        e = (1.0 + J) / 2.0
        wbar = (sn + J * zn) / (2.0 * gamma)[blk]
        self._v = (wbar + e) / np.sqrt(2.0 * (1.0 + wbar[heads]))[blk]
        self._Jv = J * self._v
        self._eta = np.sqrt(root[0] / root[1])[blk]
        self.kappa = np.sqrt(root[0] * root[1])
        # lbar1 = ((gamma + zn0) sn1 + (gamma + sn0) zn1) / (sn0 + zn0 + 2 gamma)
        lbar = ((gamma + unit0[::-1])[:, blk] * unit).sum(axis=0) / (
            unit0.sum(axis=0) + 2.0 * gamma)[blk]
        lbar[heads] = gamma
        self.lam = lbar * self.kappa[blk]
        self._u = (J * lbar + e) / np.sqrt(2.0 * (1.0 + gamma))[blk]

    def _reflect(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(2uu' - J) x per block, along the last axis of x."""
        dot = np.add.reduceat(u * x, self.cones.heads, axis=-1)
        return (2.0 * dot)[..., self.cones.blk] * u - self.cones.J * x

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x; on a (k, p) x, W of each row."""
        return self._reflect(self._v, x) * self._eta

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """W^{-1} x; on a (k, p) x, W^{-1} of each row."""
        return self._reflect(self._Jv, x) / self._eta

    def max_step(self, d: np.ndarray) -> float:
        """Largest alpha >= 0 with lam + alpha*d in the cone (can be inf).

        d stacks scaled directions as rows, W^{-1} ds and W dz, and the step
        keeps every row in the cone.  The rotation T(J lbar) maps lbar to the
        cone identity e and the cone onto itself, so with t = T(J lbar) d a
        block stays inside while alpha (||t1|| - t0) <= kappa.  On a one-row
        block the step is -lam/d.  A NaN never sets the step.
        """
        t = self._reflect(self._u, d)
        out = np.fmax.reduce(np.sqrt(self.cones.tdot(t, t)) - t[:, self.cones.heads])
        pos = out > 0.0
        return float(np.minimum.reduce(self.kappa[pos] / out[pos], initial=math.inf))


def _kkt_solve(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        X = np.linalg.solve(K, B)
    except np.linalg.LinAlgError as exc:
        raise _Breakdown("singular KKT system") from exc
    if not np.all(np.isfinite(X)):
        raise _Breakdown("non-finite KKT solution")
    return X


class _KKT:
    """The regularized scaled KKT system

        [[d I, A', (W^{-1}G)'], [A, -d I, 0], [W^{-1}G, 0, -I]],  d = _REG.

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
        np.fill_diagonal(K[:n, :n], _REG)
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


def solve(prog: ConicProgram, max_iter: int = 200) -> Solution:
    sp = _split(prog)
    c, b, h = sp.c, sp.b, sp.h
    cones, nu = sp.cones, sp.nu
    n, me, p = c.size, b.size, h.size

    if me == 0 and p == 0:
        if np.linalg.norm(c) == 0.0:
            return Solution(status=SolveStatus.OPTIMAL, x=np.zeros(n),
                            y=np.zeros(0), z=np.zeros(0), s=np.zeros(0),
                            obj=0.0, gap=0.0, gap_abs=0.0, pres=0.0, dres=0.0,
                            iterations=0)
        ray = -c / np.linalg.norm(c)
        return Solution(status=SolveStatus.UNBOUNDED, x=ray / max(-(c @ ray), 1e-300),
                        y=None, z=None, s=None, obj=None, gap=None, gap_abs=None,
                        pres=None, dres=None, iterations=0, cert_residual=0.0)

    resx0, resy0, resz0 = (max(1.0, float(np.linalg.norm(v))) for v in (c, b, h))
    off, bh = n + me, np.concatenate((b, h))

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
    e = (1.0 + cones.J) / 2.0
    for u in (s, v[off:]):
        t = -_min_eig(cones, u)
        if t >= 0.0:
            u += (1.0 + t) * e
    tau, kappa = 1.0, 1.0
    # the scaled step (W^{-1} ds, W dz) that _NT.max_step reads
    dsc = np.empty((2, p))

    best = None
    best_score = math.inf
    trace = []
    it = 0
    reason = "iteration limit"

    for it in range(1, max_iter + 1):
        x, yz, z = v[:n], v[n:], v[off:]
        rx = AG.T @ yz + c * tau
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
            return _solution(SolveStatus.OPTIMAL, n, point, it, trace)

        # infeasibility certificates from the embedding
        if byhz < 0.0:
            # A'y + G'z = rx - c tau
            resid = _norm(rx - c * tau) / (-byhz) / resx0
            if resid <= FEAS_TOL:
                scale = -1.0 / byhz
                return Solution(status=SolveStatus.INFEASIBLE, x=None,
                                y=v[n:off] * scale, z=z * scale, s=None,
                                obj=None, gap=None, gap_abs=None, pres=None,
                                dres=None, iterations=it, cert_residual=resid,
                                trace=trace_array(trace))
        if cx < 0.0:
            # A x = ry + b tau, G x + s = rz + h tau
            rb = r + bh * tau
            resid = max(_norm(rb[:me]) / resy0, _norm(rb[me:]) / resz0) / (-cx)
            if resid <= FEAS_TOL:
                scale = -1.0 / cx
                return Solution(status=SolveStatus.UNBOUNDED, x=x * scale,
                                y=None, z=None, s=s * scale, obj=None,
                                gap=None, gap_abs=None, pres=None, dres=None,
                                iterations=it, cert_residual=resid,
                                trace=trace_array(trace))

        try:
            nt = _NT(cones, np.stack((s, z)))
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
                t1, t2 = cbh @ sol
                dtau = (-f * rt - dtk_rhs / tau - t2) / (t1 - kappa / tau)
                d = sol[:, 1] + dtau * sol[:, 0]
                dsc[1] = d[off:]
                dsc[0] = lds - dsc[1]
                return d, dtau, (dtk_rhs - kappa * dtau) / tau

            # predictor: lam o lds = -lam o lam gives lds = -lam; s'z =
            # lam'lam and W is symmetric, so the affine s'z is read off the
            # scaled directions
            _, dta, dka = _direction(0.0, -lam, -tau * kappa)
            alpha = nt.max_step(dsc)
            if dta < 0.0:
                alpha = min(alpha, -tau / dta)
            if dka < 0.0:
                alpha = min(alpha, -kappa / dka)
            a = min(1.0, alpha)
            mu_aff = ((lam + a * dsc[0]) @ (lam + a * dsc[1])
                      + (tau + a * dta) * (kappa + a * dka)) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector
            corr = _jprod(cones, dsc[0], dsc[1])
            lds = _jdiv(cones, lam, sigma * mu * e - _jprod(cones, lam, lam) - corr)
            dtk_rhs = sigma * mu - tau * kappa - dta * dka
            d, dtau, dkappa = _direction(sigma, lds, dtk_rhs)

            alpha = nt.max_step(dsc)
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            # SDPT3's step fraction (Toh, Todd & Tutuncu 1999): 0.99 alpha
            # (at most a full step) when alpha >= 1, falling to 0.9 alpha as
            # alpha shrinks
            a = min(1.0, (0.9 + 0.09 * min(1.0, alpha)) * alpha)
            if not math.isfinite(a) or a <= 0.0:
                raise _Breakdown("no progress possible")
            trace[-1] = row + (a,)

            d[off:] = nt.apply_inv(dsc[1])
            v = v + a * d
            s = s + a * nt.apply(dsc[0])
            tau = tau + a * dtau
            kappa = kappa + a * dkappa
            if tau <= 0.0 or kappa <= 0.0:
                raise _Breakdown("tau/kappa left the positive orthant")
        except _Breakdown as exc:
            reason = str(exc)
            break

    return _solution(SolveStatus.ITER_LIMIT, n, best, it, trace, reason)


def _solution(status: SolveStatus, n: int, point: tuple, it: int, trace: list,
              reason: str | None = None) -> Solution:
    """The Solution at an iterate point, deflated by its tau."""
    v, s, tau, pcost, relgap, gap_abs, pres, dres = point
    off = v.size - s.size
    return Solution(status=status, x=v[:n] / tau, y=v[n:off] / tau,
                    z=v[off:] / tau, s=s / tau, obj=pcost, gap=relgap,
                    gap_abs=gap_abs, pres=pres, dres=dres, iterations=it,
                    trace=trace_array(trace), reason=reason)
