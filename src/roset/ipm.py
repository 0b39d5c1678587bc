"""Primal-dual interior-point solver for linear and second-order cone programs.

Implements a homogeneous self-dual embedding with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step, dense linear algebra throughout.  The
embedding solves

    minimize c'x  s.t.  Ax = b,  Gx + s = h,  s in C,

obtained from the IR by routing Zero rows to (A, b) and Nonneg/SecondOrder
rows to (G, h).  Working variables are (x, y, z, s, tau, kappa); residuals

    rx = A'y + G'z + c*tau
    ry = Ax - b*tau
    rz = Gx + s - h*tau
    rt = c'x + b'y + h'z + kappa

all vanish at a solution of the embedding, and the sign of tau vs kappa at
convergence separates optimality from infeasibility certificates.
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
)
from .errors import ExportOnlyProgramError

_STEP = 0.99
_REG = 1e-10


class _Breakdown(Exception):
    pass


@dataclass
class _Split:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    blocks: list  # ("l" | "q", slice into the inequality rows)
    nu: float


def _split(prog: ConicProgram) -> _Split:
    eq_rows: list[int] = []
    ineq_rows: list[int] = []
    blocks = []
    nu = 1.0  # tau*kappa pair
    pos = 0
    for cone, sl in prog.cone_slices():
        rows = list(range(sl.start, sl.stop))
        if isinstance(cone, Zero):
            eq_rows.extend(rows)
        elif isinstance(cone, Nonneg):
            start = pos
            if blocks and blocks[-1][0] == "l":
                # Zero rows are routed out, so neighbouring Nonneg blocks,
                # also across Zero rows, form one "l" block
                start = blocks.pop()[1].start
            blocks.append(("l", slice(start, pos + cone.dim)))
            ineq_rows.extend(rows)
            pos += cone.dim
            nu += cone.dim
        elif isinstance(cone, SecondOrder):
            blocks.append(("q", slice(pos, pos + cone.dim)))
            ineq_rows.extend(rows)
            pos += cone.dim
            nu += 1.0
        else:
            raise ExportOnlyProgramError(
                "program contains a PSD block; export it instead of solving"
            )
    A = prog.A[eq_rows, :] if eq_rows else np.zeros((0, prog.n_vars))
    b = prog.b[eq_rows] if eq_rows else np.zeros(0)
    G = prog.A[ineq_rows, :] if ineq_rows else np.zeros((0, prog.n_vars))
    h = prog.b[ineq_rows] if ineq_rows else np.zeros(0)
    return _Split(c=prog.c.copy(), A=A, b=b, G=G, h=h, blocks=blocks, nu=nu)


def _min_eig(blocks, v: np.ndarray) -> float:
    out = math.inf
    for kind, sl in blocks:
        u = v[sl]
        if kind == "l":
            m = float(u.min())
        else:
            m = float(u[0] - np.linalg.norm(u[1:]))
        out = min(out, m)
    return out


def _cone_identity(blocks, p: int) -> np.ndarray:
    e = np.zeros(p)
    for kind, sl in blocks:
        if kind == "l":
            e[sl] = 1.0
        else:
            e[sl.start] = 1.0
    return e


def _jprod(blocks, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    for kind, sl in blocks:
        a, c = u[sl], v[sl]
        if kind == "l":
            out[sl] = a * c
        else:
            out[sl.start] = a @ c
            out[sl.start + 1 : sl.stop] = a[0] * c[1:] + c[0] * a[1:]
    return out


def _jdiv(blocks, lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve lam o u = w blockwise."""
    out = np.empty_like(w)
    for kind, sl in blocks:
        lb, wb = lam[sl], w[sl]
        if kind == "l":
            out[sl] = wb / lb
        else:
            det = lb[0] ** 2 - lb[1:] @ lb[1:]
            u0 = (lb[0] * wb[0] - lb[1:] @ wb[1:]) / det
            out[sl.start] = u0
            out[sl.start + 1 : sl.stop] = (wb[1:] - u0 * lb[1:]) / lb[0]
    return out


def _max_step(blocks, v: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha >= 0 with v + alpha*d still in the cone (can be inf)."""
    best = math.inf
    for kind, sl in blocks:
        vi, di = v[sl], d[sl]
        if kind == "l":
            neg = di < 0
            if np.any(neg):
                best = min(best, float(np.min(-vi[neg] / di[neg])))
        else:
            v0, v1 = vi[0], vi[1:]
            d0, d1 = di[0], di[1:]
            a0 = v0 * v0 - v1 @ v1
            a1 = v0 * d0 - v1 @ d1
            a2 = d0 * d0 - d1 @ d1
            disc = a1 * a1 - a2 * a0
            # smallest positive root of a2 t^2 + 2 a1 t + a0, written in the
            # numerically stable conjugate form a0 / (-a1 + sqrt(disc))
            if not (a2 == 0.0 and a1 >= 0.0):
                if a2 <= 0.0 or (a1 < 0.0 and disc >= 0.0):
                    denom = -a1 + math.sqrt(max(disc, 0.0))
                    if denom > 0.0:
                        best = min(best, a0 / denom)
            if d0 < 0.0:
                best = min(best, -v0 / d0)
    return best


def _scaling(blocks, s: np.ndarray, z: np.ndarray, p: int):
    """Nesterov-Todd scaling: W z = W^{-1} s = lam, W symmetric pd."""
    W = np.zeros((p, p))
    Winv = np.zeros((p, p))
    W2 = np.zeros((p, p))
    lam = np.zeros(p)
    for kind, sl in blocks:
        sb, zb = s[sl], z[sl]
        if kind == "l":
            w = np.sqrt(sb / zb)
            idx = np.arange(sl.start, sl.stop)
            W[idx, idx] = w
            Winv[idx, idx] = 1.0 / w
            W2[idx, idx] = w * w
            lam[sl] = np.sqrt(sb * zb)
        else:
            k = sl.stop - sl.start
            ds = sb[0] ** 2 - sb[1:] @ sb[1:]
            dz = zb[0] ** 2 - zb[1:] @ zb[1:]
            if ds <= 0.0 or dz <= 0.0:
                raise _Breakdown("iterate left the cone interior")
            eta = (ds / dz) ** 0.25
            sn = sb / math.sqrt(ds)
            zn = zb / math.sqrt(dz)
            gamma = math.sqrt((1.0 + sn @ zn) / 2.0)
            wbar = np.empty(k)
            wbar[0] = (sn[0] + zn[0]) / (2.0 * gamma)
            wbar[1:] = (sn[1:] - zn[1:]) / (2.0 * gamma)
            T = np.empty((k, k))
            T[0, 0] = wbar[0]
            T[0, 1:] = wbar[1:]
            T[1:, 0] = wbar[1:]
            T[1:, 1:] = np.eye(k - 1) + np.outer(wbar[1:], wbar[1:]) / (1.0 + wbar[0])
            J = np.diag(np.concatenate(([1.0], -np.ones(k - 1))))
            Wb = eta * T
            W[sl, sl] = Wb
            Winv[sl, sl] = (J @ T @ J) / eta
            # T(wbar)^2 = 2 wbar wbar' - J for unit-J wbar
            W2[sl, sl] = (eta * eta) * (2.0 * np.outer(wbar, wbar) - J)
            lam[sl] = Wb @ zb
    return W, Winv, W2, lam


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


def _assemble_kkt(sp: _Split, W2: np.ndarray) -> np.ndarray:
    n = sp.c.size
    me = sp.b.size
    p = sp.h.size
    N = n + me + p
    K = np.zeros((N, N))
    K[:n, n : n + me] = sp.A.T
    K[n : n + me, :n] = sp.A
    K[:n, n + me :] = sp.G.T
    K[n + me :, :n] = sp.G
    K[n + me :, n + me :] = -W2
    return K


def solve(prog: ConicProgram, gap_tol: float = 1e-8, feas_tol: float = 1e-8,
          max_iter: int = 200) -> Solution:
    sp = _split(prog)
    c, A, b, G, h = sp.c, sp.A, sp.b, sp.G, sp.h
    blocks, nu = sp.blocks, sp.nu
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
    K0 = _assemble_kkt(sp, np.eye(p))
    rhs = np.zeros((n + me + p, 2))
    rhs[n : n + me, 0] = b
    rhs[n + me :, 0] = h
    rhs[:n, 1] = -c
    try:
        init = _kkt_solve(K0, rhs, n)
    except _Breakdown:
        init = np.zeros((n + me + p, 2))
    x = init[:n, 0]
    s = -init[n + me :, 0]
    y = init[n : n + me, 1]
    z = init[n + me :, 1]
    e = _cone_identity(blocks, p)
    for v in (s, z):
        t = -_min_eig(blocks, v)
        if t >= 0.0:
            v += (1.0 + t) * e
    tau, kappa = 1.0, 1.0

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
        pres = max(
            float(np.linalg.norm(A @ xt - b)) / resy0,
            float(np.linalg.norm(G @ xt + st - h)) / resz0,
        )
        dres = float(np.linalg.norm(A.T @ yt + G.T @ zt + c)) / resx0
        gap_abs = float(st @ zt)
        relgap = gap_abs / max(1.0, abs(pcost), abs(dcost))
        trace.append({"iter": it, "pcost": pcost, "dcost": dcost, "pres": pres,
                      "dres": dres, "gap": relgap, "mu": float(mu)})

        score = max(pres, dres, relgap)
        if score < best_score:
            best_score = score
            best = (xt.copy(), yt.copy(), zt.copy(), st.copy(),
                    pcost, relgap, gap_abs, pres, dres)

        if pres <= feas_tol and dres <= feas_tol and relgap <= gap_tol:
            return Solution(status=SolveStatus.OPTIMAL, x=xt, y=yt, z=zt, s=st,
                            obj=pcost, gap=relgap, gap_abs=gap_abs, pres=pres,
                            dres=dres, iterations=it, trace=tuple(trace))

        # infeasibility certificates from the embedding
        by_hz = float(b @ y + h @ z)
        if by_hz < 0.0:
            resid = float(np.linalg.norm(A.T @ y + G.T @ z)) / (-by_hz) / resx0
            if resid <= feas_tol:
                scale = -1.0 / by_hz
                return Solution(status=SolveStatus.INFEASIBLE, x=None,
                                y=y * scale, z=z * scale, s=None, obj=None,
                                gap=None, gap_abs=None, pres=None, dres=None,
                                iterations=it, cert_residual=resid,
                                trace=tuple(trace))
        cx = float(c @ x)
        if cx < 0.0:
            resid = max(
                float(np.linalg.norm(A @ x)) / resy0,
                float(np.linalg.norm(G @ x + s)) / resz0,
            ) / (-cx)
            if resid <= feas_tol:
                scale = -1.0 / cx
                return Solution(status=SolveStatus.UNBOUNDED, x=x * scale,
                                y=None, z=None, s=s * scale, obj=None,
                                gap=None, gap_abs=None, pres=None, dres=None,
                                iterations=it, cert_residual=resid,
                                trace=tuple(trace))

        try:
            if _min_eig(blocks, s) <= 0.0 or _min_eig(blocks, z) <= 0.0:
                raise _Breakdown("iterate left the cone interior")
            W, Winv, W2, lam = _scaling(blocks, s, z, p)
            K = _assemble_kkt(sp, W2)

            rhs2 = np.zeros((n + me + p, 2))
            rhs2[:n, 0] = -c
            rhs2[n : n + me, 0] = b
            rhs2[n + me :, 0] = h

            def _direction(sigma, ds_rhs, dtk_rhs):
                f = 1.0 - sigma
                rhs2[:n, 1] = -f * rx
                rhs2[n : n + me, 1] = -f * ry
                wlds = W @ _jdiv(blocks, lam, ds_rhs)
                rhs2[n + me :, 1] = -f * rz - wlds
                sol = _kkt_solve(K, rhs2, n)
                x1, y1, z1 = sol[:n, 0], sol[n : n + me, 0], sol[n + me :, 0]
                x2, y2, z2 = sol[:n, 1], sol[n : n + me, 1], sol[n + me :, 1]
                denom = float(c @ x1 + b @ y1 + h @ z1) - kappa / tau
                num = -f * rt - dtk_rhs / tau - float(c @ x2 + b @ y2 + h @ z2)
                dtau = num / denom
                dx = x2 + dtau * x1
                dy = y2 + dtau * y1
                dz = z2 + dtau * z1
                dst = W @ (_jdiv(blocks, lam, ds_rhs) - W @ dz)
                dkappa = (dtk_rhs - kappa * dtau) / tau
                return dx, dy, dz, dst, dtau, dkappa

            lam2 = _jprod(blocks, lam, lam)

            # predictor
            dxa, dya, dza, dsa, dta, dka = _direction(0.0, -lam2, -tau * kappa)
            alpha = min(_max_step(blocks, s, dsa), _max_step(blocks, z, dza))
            if dta < 0.0:
                alpha = min(alpha, -tau / dta)
            if dka < 0.0:
                alpha = min(alpha, -kappa / dka)
            a = min(1.0, alpha)
            mu_aff = ((s + a * dsa) @ (z + a * dza)
                      + (tau + a * dta) * (kappa + a * dka)) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector
            corr = _jprod(blocks, Winv @ dsa, W @ dza)
            ds_rhs = sigma * mu * e - lam2 - corr
            dtk_rhs = sigma * mu - tau * kappa - dta * dka
            dx, dy, dz, dst, dtau, dkappa = _direction(sigma, ds_rhs, dtk_rhs)

            alpha = min(_max_step(blocks, s, dst), _max_step(blocks, z, dz))
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0.0:
                alpha = min(alpha, -kappa / dkappa)
            a = min(1.0, _STEP * alpha)
            if not math.isfinite(a) or a <= 0.0:
                raise _Breakdown("no progress possible")

            x = x + a * dx
            y = y + a * dy
            z = z + a * dz
            s = s + a * dst
            tau = tau + a * dtau
            kappa = kappa + a * dkappa
            if tau <= 0.0 or kappa <= 0.0:
                raise _Breakdown("tau/kappa left the positive orthant")
        except _Breakdown as exc:
            reason = str(exc)
            break

    xt, yt, zt, st, pcost, relgap, gap_abs, pres, dres = best
    return Solution(status=SolveStatus.ITER_LIMIT, x=xt, y=yt, z=zt, s=st,
                    obj=pcost, gap=relgap, gap_abs=gap_abs, pres=pres, dres=dres,
                    iterations=it, trace=tuple(trace), reason=reason)
