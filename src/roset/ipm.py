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
built.

Step lengths are measured in the scaled space, as in CVXOPT's ``coneqp``:
W^{-1} ds and W dz both step from the one point lam = W z = W^{-1} s, and W
maps the cone onto itself, so one kernel (``_NT.max_step``) measures both
against lam.  The predictor takes its step and mu_aff from lam and never
unscales ds.  The corrector moves by SDPT3's fraction of the step alpha to
the boundary (Toh, Todd & Tutuncu 1999), min(1, (0.9 + 0.09 min(1, alpha))
alpha): 0.99 alpha when alpha is long, further back when it is short.

The KKT system is still dense, (n+me+p) square: it is allocated once per
solve, each iteration rewrites only its -W^2 entries, and it is LU-factored
twice per iteration, for the predictor and the corrector.  A reduced system
that eliminates s and z waits until the benchmark's peak_rss_mb measures the
working set instead of every op's retained output, which grows with
throughput.
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


class _NT:
    """Nesterov-Todd scaling W, with W z = W^{-1} s = lam, as an operator.

    Per block W = eta T(wbar), where wbar has unit J-norm and
    T(wbar) = [[w0, w1'], [w1, I + w1 w1'/(1 + w0)]], so that
    W^2 = eta^2 (2 wbar wbar' - J).  On a one-row block wbar = 1 and
    W = eta = sqrt(s/z).  ``sz`` stacks s and z as its two rows.

    lam = kappa lbar, with kappa = (det s det z)^(1/4) and lbar of unit
    J-norm, is built in closed form from the normalized s and z, as in
    CVXOPT's ``compute_scaling``; on a one-row block lbar = 1 and
    lam = kappa = sqrt(s z).
    """

    def __init__(self, cones: _Cones, sz: np.ndarray):
        heads, blk = cones.heads, cones.blk
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
        self.eta = np.sqrt(root[0] / root[1])
        self.wbar = (sn + cones.J * zn) / (2.0 * gamma)[blk]
        self.w0, self.w1 = self.wbar[heads], self.wbar * cones.tail
        self._w0inv = 1.0 / (1.0 + self.w0)
        self._eta = self.eta[blk]
        self.kappa = np.sqrt(root[0] * root[1])
        # lbar1 = ((gamma + zn0) sn1 + (gamma + sn0) zn1) / (sn0 + zn0 + 2 gamma)
        lbar = ((gamma + unit0[::-1])[:, blk] * unit).sum(axis=0) / (
            unit0.sum(axis=0) + 2.0 * gamma)[blk]
        lbar[heads] = gamma
        self.lam = lbar * self.kappa[blk]
        self._l0, self._l1 = gamma, lbar * cones.tail
        self._l0inv = 1.0 / (1.0 + gamma)

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

    def max_step(self, d: np.ndarray) -> float:
        """Largest alpha >= 0 with lam + alpha*d in the cone (can be inf).

        d stacks scaled directions as rows, W^{-1} ds and W dz, and the step
        keeps every row in the cone.  The hyperbolic rotation T(J lbar) maps
        lbar to the cone identity e and the cone onto itself, so with
        t = T(J lbar) d a block stays inside while alpha (||t1|| - t0) <= kappa.
        On a one-row block the step is -lam/d.  A NaN never sets the step.
        """
        heads, l1 = self.cones.heads, self._l1
        d0 = d[:, heads]
        dot = np.add.reduceat(l1 * d, heads, axis=1)
        # t has the head l0 d0 - l1'd1 and the tail d1 - (d0 - dot/(1 + l0)) l1
        t = d - (d0 - dot * self._l0inv)[:, self.cones.blk] * l1
        out = np.fmax.reduce(np.sqrt(self.cones.tdot(t, t)) - (self._l0 * d0 - dot))
        pos = out > 0.0
        return float(np.minimum.reduce(self.kappa[pos] / out[pos], initial=math.inf))


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
    # s and z live stacked, as _NT reads them, and dsc holds the scaled step
    # (W^{-1} ds, W dz) that _NT.max_step reads
    sz = np.stack((-init[n + me :, 0], init[n + me :, 1]))
    s, z = sz
    dsc = np.empty((2, p))
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
        # the step taken from this iterate replaces the NaN once it is known
        row = (it, pcost, dcost, pres, dres, relgap, float(mu))
        trace.append(row + (math.nan,))

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
            nt = _NT(cones, sz)
            lam = nt.lam
            kkt.set_scaling(nt)

            def _direction(sigma, lds, wlds, dtk_rhs):
                """(dx, dy, dtau, dkappa, dz); dsc gets (W^{-1} ds, W dz).

                lds solves lam o lds = r for the complementarity right-hand
                side r, and wlds = W lds.
                """
                f = 1.0 - sigma
                rhs2[:n, 1] = -f * rx
                rhs2[n : n + me, 1] = -f * ry
                rhs2[n + me :, 1] = -f * rz - wlds
                sol = _kkt_solve(K, rhs2, n)
                x1, y1, z1 = sol[:n, 0], sol[n : n + me, 0], sol[n + me :, 0]
                x2, y2, z2 = sol[:n, 1], sol[n : n + me, 1], sol[n + me :, 1]
                denom = float(c @ x1 + b @ y1 + h @ z1) - kappa / tau
                num = -f * rt - dtk_rhs / tau - float(c @ x2 + b @ y2 + h @ z2)
                dtau = num / denom
                dz = z2 + dtau * z1
                dsc[1] = nt.apply(dz)
                dsc[0] = lds - dsc[1]
                dkappa = (dtk_rhs - kappa * dtau) / tau
                return x2 + dtau * x1, y2 + dtau * y1, dtau, dkappa, dz

            # predictor: lam o lds = -lam o lam gives lds = -lam and
            # W lds = -s; s'z = lam'lam and W is symmetric, so the affine s'z
            # is read off the scaled directions
            _, _, dta, dka, _ = _direction(0.0, -lam, -s, -tau * kappa)
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
            dx, dy, dtau, dkappa, dz = _direction(sigma, lds, nt.apply(lds), dtk_rhs)

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

            x = x + a * dx
            y = y + a * dy
            s += a * nt.apply(dsc[0])
            z += a * dz
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
