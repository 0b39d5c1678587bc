"""Primal-dual interior-point solver for linear and second-order cone programs.

Implements a homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  The embedding solves

    minimize c'x  s.t.  Ax = b,  Gx + s = h,  s in C,

obtained from the IR by routing Zero rows to (A, b) and Nonneg/SecondOrder
rows to (G, h).  Working variables are (x, y, z, s, tau, kappa); residuals

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
built.  The KKT system is still dense, (n+me+p) square: it is allocated once
per solve, each iteration rewrites only its -W^2 entries, and it is
LU-factored twice per iteration, for the predictor and the corrector.
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

_STEP = 0.99
_REG = 1e-10


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


def _cone_identity(cones: _Cones, p: int) -> np.ndarray:
    e = np.zeros(p)
    e[cones.heads] = 1.0
    return e


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


def _max_step(cones: _Cones, v: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha >= 0 with v + alpha*d still in the cone (can be inf).

    v and d may stack several vectors as rows; the step then keeps every
    row in the cone.  A NaN candidate never sets the step.
    """
    heads, blk = cones.heads, cones.blk
    # in units of each block's head v0 > 0, so that v0 = 1 and a one-row
    # block's discriminant is exactly 0: its step is then -v0/d0 to rounding
    scale = (1.0 / v[..., heads])[..., blk]
    v, d = v * scale, d * scale
    d0 = d[..., heads]
    a0 = 1.0 - cones.tdot(v, v)
    a1 = d0 - cones.tdot(v, d)
    a2 = d0 * d0 - cones.tdot(d, d)
    disc = a1 * a1 - a2 * a0
    # smallest positive root of a2 t^2 + 2 a1 t + a0, written in the
    # numerically stable conjugate form a0 / (-a1 + sqrt(disc))
    denom = -a1 + np.sqrt(np.maximum(disc, 0.0))
    root = ~((a2 == 0.0) & (a1 >= 0.0)) & (denom > 0.0)
    root &= (a2 <= 0.0) | ((a1 < 0.0) & (disc >= 0.0))
    back = d0 < 0.0
    cands = np.concatenate((a0[root] / denom[root], -1.0 / d0[back]))
    return float(np.fmin.reduce(cands, initial=math.inf))


class _NT:
    """Nesterov-Todd scaling W, with W z = W^{-1} s = lam, as an operator.

    Per block W = eta T(wbar), where wbar has unit J-norm and
    T(wbar) = [[w0, w1'], [w1, I + w1 w1'/(1 + w0)]], so that
    W^2 = eta^2 (2 wbar wbar' - J).  On a one-row block wbar = 1 and
    W = eta = sqrt(s/z).
    """

    def __init__(self, cones: _Cones, s: np.ndarray, z: np.ndarray):
        heads, blk = cones.heads, cones.blk
        s0, z0 = s[heads], z[heads]
        ds = s0 * s0 - cones.tdot(s, s)
        dz = z0 * z0 - cones.tdot(z, z)
        # interior: heads and determinants all positive (det > 0 alone also
        # admits the negative cone); NaN fails
        inside = np.concatenate((s0, z0, ds, dz))
        if not np.min(inside, initial=math.inf) > 0.0:
            raise _Breakdown("iterate left the cone interior")
        self.cones = cones
        self.eta = (ds / dz) ** 0.25
        sn = s / np.sqrt(ds)[blk]
        zn = z / np.sqrt(dz)[blk]
        gamma = np.sqrt((1.0 + np.add.reduceat(sn * zn, heads)) / 2.0)
        self.wbar = (sn + cones.J * zn) / (2.0 * gamma)[blk]
        self.w0, self.w1 = self.wbar[heads], self.wbar * cones.tail
        self._w0inv = 1.0 / (1.0 + self.w0)
        self._eta = self.eta[blk]
        self.lam = self.apply(z)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W v."""
        # with dot = w1'v1, T(wbar) v has the head w0 v0 + dot and the tail
        # v1 + (v0 + dot / (1 + w0)) w1
        heads, w0, w1 = self.cones.heads, self.w0, self.w1
        v0 = v[heads]
        dot = np.add.reduceat(w1 * v, heads)
        out = v + (v0 + dot * self._w0inv)[self.cones.blk] * w1
        out[heads] = w0 * v0 + dot
        return out * self._eta


def _kkt_solve(K: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    try:
        X = np.linalg.solve(K, B)
        if np.all(np.isfinite(X)):
            return X
    except np.linalg.LinAlgError:
        pass
    # regularized retry with refinement against the unregularized matrix
    N = K.shape[0]
    reg = np.full(N, -_REG)
    reg[:n] = _REG
    Kr = K + np.diag(reg)
    try:
        X = np.linalg.solve(Kr, B)
        for _ in range(2):
            X = X + np.linalg.solve(Kr, B - K @ X)
    except np.linalg.LinAlgError as exc:
        raise _Breakdown("singular KKT system") from exc
    if not np.all(np.isfinite(X)):
        raise _Breakdown("non-finite KKT solution")
    return X


class _KKT:
    """The dense KKT matrix [[0, A', G'], [A, 0, 0], [G, 0, -W^2]] of a solve.

    It is allocated once with W = I; ``set_scaling`` rewrites only the -W^2
    entries, each block's dim^2 entries.
    """

    def __init__(self, sp: _Split):
        n, me, p = sp.c.size, sp.b.size, sp.h.size
        N, off = n + me + p, n + me
        self.K = K = np.zeros((N, N))
        K[:n, n:off] = sp.A.T
        K[n:off, :n] = sp.A
        K[:n, off:] = sp.G.T
        K[off:, :n] = sp.G
        cones = sp.cones
        dims, heads = cones.dims, cones.heads
        # entry e of block k sits at (heads[k] + i, heads[k] + j), with
        # (i, j) = divmod(local index, dims[k]), in row-major order
        size = dims * dims
        self._blk = np.repeat(np.arange(dims.size), size)
        local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        k = dims[self._blk]
        self._r = heads[self._blk] + local // k
        self._c = heads[self._blk] + local % k
        diag = self._r == self._c
        self._jdiag = np.where(diag, cones.J[self._r], 0.0)
        self._flat = K.reshape(-1)
        self._idx = (off + self._r) * N + off + self._c
        self._flat[self._idx[diag]] = -1.0

    def set_scaling(self, nt: _NT) -> None:
        wbar = nt.wbar
        self._flat[self._idx] = nt.eta[self._blk] ** 2 * (
            self._jdiag - 2.0 * wbar[self._r] * wbar[self._c])


def _norm(v: np.ndarray) -> float:
    # the value of np.linalg.norm(v) for a vector, without its call overhead
    return math.sqrt(v @ v)


def solve(prog: ConicProgram, gap_tol: float = 1e-8, feas_tol: float = 1e-8,
          max_iter: int = 200) -> Solution:
    sp = _split(prog)
    c, A, b, G, h = sp.c, sp.A, sp.b, sp.G, sp.h
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

    resx0 = max(1.0, float(np.linalg.norm(c)))
    resy0 = max(1.0, float(np.linalg.norm(b)))
    resz0 = max(1.0, float(np.linalg.norm(h)))

    # initialization: least-norm heuristic with identity scaling, then shift
    # s and z into the cone interior
    kkt = _KKT(sp)
    K = kkt.K
    rhs = np.zeros((n + me + p, 2))
    rhs[n : n + me, 0] = b
    rhs[n + me :, 0] = h
    rhs[:n, 1] = -c
    try:
        init = _kkt_solve(K, rhs, n)
    except _Breakdown:
        init = np.zeros((n + me + p, 2))
    x = init[:n, 0]
    y = init[n : n + me, 1]
    # s and z live stacked, as _max_step reads them, and dsz is their step
    sz = np.stack((-init[n + me :, 0], init[n + me :, 1]))
    s, z = sz
    dsz = np.empty((2, p))
    e = _cone_identity(cones, p)
    for v in (s, z):
        t = -_min_eig(cones, v)
        if t >= 0.0:
            v += (1.0 + t) * e
    tau, kappa = 1.0, 1.0
    # the (-c, b, h) column of every iteration's KKT right-hand side
    rhs2 = np.zeros((n + me + p, 2))
    rhs2[:n, 0] = -c
    rhs2[n : n + me, 0] = b
    rhs2[n + me :, 0] = h

    best = None
    best_score = math.inf
    trace = []
    it = 0
    reason = "iteration limit"

    def _deflated():
        return x / tau, y / tau, z / tau, s / tau

    for it in range(1, max_iter + 1):
        rx = A.T @ y + G.T @ z + c * tau
        ry = A @ x - b * tau
        rz = G @ x + s - h * tau
        rt = c @ x + b @ y + h @ z + kappa
        mu = (s @ z + tau * kappa) / nu

        xt, yt, zt, st = _deflated()
        pcost = float(c @ xt)
        dcost = float(-(b @ yt + h @ zt))
        # the deflated residuals are the embedding's over tau:
        # A xt - b = ry/tau, G xt + st - h = rz/tau, A'yt + G'zt + c = rx/tau
        pres = max(_norm(ry) / resy0, _norm(rz) / resz0) / tau
        dres = _norm(rx) / resx0 / tau
        gap_abs = float(st @ zt)
        relgap = gap_abs / max(1.0, abs(pcost), abs(dcost))
        trace.append((it, pcost, dcost, pres, dres, relgap, float(mu)))

        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best = (xt, yt, zt, st, pcost, relgap, gap_abs, pres, dres)

        if pres <= feas_tol and dres <= feas_tol and relgap <= gap_tol:
            return Solution(status=SolveStatus.OPTIMAL, x=xt, y=yt, z=zt, s=st,
                            obj=pcost, gap=relgap, gap_abs=gap_abs,
                            pres=pres, dres=dres, iterations=it,
                            trace=trace_array(trace))

        # infeasibility certificates from the embedding
        by_hz = float(b @ y + h @ z)
        if by_hz < 0.0:
            # A'y + G'z = rx - c tau
            resid = _norm(rx - c * tau) / (-by_hz) / resx0
            if resid <= feas_tol:
                scale = -1.0 / by_hz
                return Solution(status=SolveStatus.INFEASIBLE, x=None,
                                y=y * scale, z=z * scale, s=None, obj=None,
                                gap=None, gap_abs=None, pres=None, dres=None,
                                iterations=it, cert_residual=resid,
                                trace=trace_array(trace))
        cx = float(c @ x)
        if cx < 0.0:
            # A x = ry + b tau, G x + s = rz + h tau
            resid = max(
                _norm(ry + b * tau) / resy0,
                _norm(rz + h * tau) / resz0,
            ) / (-cx)
            if resid <= feas_tol:
                scale = -1.0 / cx
                return Solution(status=SolveStatus.UNBOUNDED, x=x * scale,
                                y=None, z=None, s=s * scale, obj=None,
                                gap=None, gap_abs=None, pres=None, dres=None,
                                iterations=it, cert_residual=resid,
                                trace=trace_array(trace))

        try:
            nt = _NT(cones, s, z)
            lam = nt.lam
            kkt.set_scaling(nt)

            def _direction(sigma, ds_rhs, dtk_rhs):
                """(dx, dy, dtau, dkappa, lds, W dz); (ds, dz) go to dsz."""
                f = 1.0 - sigma
                rhs2[:n, 1] = -f * rx
                rhs2[n : n + me, 1] = -f * ry
                lds = _jdiv(cones, lam, ds_rhs)
                rhs2[n + me :, 1] = -f * rz - nt.apply(lds)
                sol = _kkt_solve(K, rhs2, n)
                x1, y1, z1 = sol[:n, 0], sol[n : n + me, 0], sol[n + me :, 0]
                x2, y2, z2 = sol[:n, 1], sol[n : n + me, 1], sol[n + me :, 1]
                denom = float(c @ x1 + b @ y1 + h @ z1) - kappa / tau
                num = -f * rt - dtk_rhs / tau - float(c @ x2 + b @ y2 + h @ z2)
                dtau = num / denom
                dsz[1] = z2 + dtau * z1
                wdz = nt.apply(dsz[1])
                dsz[0] = nt.apply(lds - wdz)
                dkappa = (dtk_rhs - kappa * dtau) / tau
                return x2 + dtau * x1, y2 + dtau * y1, dtau, dkappa, lds, wdz

            lam2 = _jprod(cones, lam, lam)

            # predictor
            _, _, dta, dka, lds_a, wdz_a = _direction(0.0, -lam2, -tau * kappa)
            alpha = _max_step(cones, sz, dsz)
            if dta < 0.0:
                alpha = min(alpha, -tau / dta)
            if dka < 0.0:
                alpha = min(alpha, -kappa / dka)
            a = min(1.0, alpha)
            mu_aff = ((s + a * dsz[0]) @ (z + a * dsz[1])
                      + (tau + a * dta) * (kappa + a * dka)) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector; W^{-1} dsa = lds_a - W dza
            corr = _jprod(cones, lds_a - wdz_a, wdz_a)
            ds_rhs = sigma * mu * e - lam2 - corr
            dtk_rhs = sigma * mu - tau * kappa - dta * dka
            dx, dy, dtau, dkappa, _, _ = _direction(sigma, ds_rhs, dtk_rhs)

            alpha = _max_step(cones, sz, dsz)
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            a = min(1.0, _STEP * alpha)
            if not math.isfinite(a) or a <= 0.0:
                raise _Breakdown("no progress possible")

            x = x + a * dx
            y = y + a * dy
            sz += a * dsz
            tau = tau + a * dtau
            kappa = kappa + a * dkappa
            if tau <= 0.0 or kappa <= 0.0:
                raise _Breakdown("tau/kappa left the positive orthant")
        except _Breakdown as exc:
            reason = str(exc)
            break

    xt, yt, zt, st, pcost, relgap, gap_abs, pres, dres = best
    return Solution(status=SolveStatus.ITER_LIMIT, x=xt, y=yt, z=zt, s=st,
                    obj=pcost, gap=relgap, gap_abs=gap_abs, pres=pres,
                    dres=dres, iterations=it, trace=trace_array(trace),
                    reason=reason)
