"""The batched cone kernels of ipm against per-block reference formulas.

The ``ref_*`` functions below are the per-block loops the solver used
before its cone layer ran over all second-order blocks at once; they are
kept here only as the oracle.  ``ref_max_step``, the root of each block's
quadratic on s or z, is the oracle of the solver's step measured in the
scaled space.  ``blocks`` lists ("l" | "q", slice) over the inequality rows
in program order.
"""

import math

import numpy as np
import pytest

from roset import ipm
from roset.conic import ConicProgram, Nonneg, SecondOrder, Zero


def ref_min_eig(blocks, v):
    out = math.inf
    for kind, sl in blocks:
        u = v[sl]
        if kind == "l":
            m = float(u.min())
        else:
            m = float(u[0] - np.linalg.norm(u[1:]))
        out = min(out, m)
    return out


def ref_jprod(blocks, u, v):
    out = np.empty_like(u)
    for kind, sl in blocks:
        a, c = u[sl], v[sl]
        if kind == "l":
            out[sl] = a * c
        else:
            out[sl.start] = a @ c
            out[sl.start + 1 : sl.stop] = a[0] * c[1:] + c[0] * a[1:]
    return out


def ref_jdiv(blocks, lam, w):
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


def ref_max_step(blocks, v, d):
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
            if not (a2 == 0.0 and a1 >= 0.0):
                if a2 <= 0.0 or (a1 < 0.0 and disc >= 0.0):
                    denom = -a1 + math.sqrt(max(disc, 0.0))
                    if denom > 0.0:
                        best = min(best, a0 / denom)
            if d0 < 0.0:
                best = min(best, -v0 / d0)
    return best


def ref_scaling(blocks, s, z, p):
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
            W2[sl, sl] = (eta * eta) * (2.0 * np.outer(wbar, wbar) - J)
            lam[sl] = Wb @ zb
    return W, Winv, W2, lam


def random_layout(rng):
    """Nonneg runs, SOC blocks of dims 1..16 (one of dim 1) and Zero rows."""
    cones = [SecondOrder(1)]
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.integers(3)
        if kind == 0:
            cones.append(Nonneg(int(rng.integers(1, 6))))
        elif kind == 1:
            cones.append(SecondOrder(int(rng.integers(1, 17))))
        else:
            cones.append(Zero(int(rng.integers(1, 3))))
    rng.shuffle(cones)
    blocks, pos = [], 0
    for cone in cones:
        if not isinstance(cone, Zero):
            # SecondOrder(1) is the nonnegative ray; the "l" formulas are the
            # exact ones for it (the "q" step takes the square root of a
            # discriminant that is zero up to rounding)
            blocks.append(("l" if isinstance(cone, Nonneg) or cone.dim == 1 else "q",
                           slice(pos, pos + cone.dim)))
            pos += cone.dim
    rows = sum(cone.dim for cone in cones)
    prog = ConicProgram(c=np.ones(2), A=rng.normal(size=(rows, 2)),
                        b=rng.normal(size=rows), cones=tuple(cones))
    return prog, blocks, pos


def interior(rng, blocks, p):
    v = np.empty(p)
    for kind, sl in blocks:
        if kind == "l":
            v[sl] = rng.uniform(0.1, 2.0, size=sl.stop - sl.start)
        else:
            v[sl.start + 1 : sl.stop] = rng.normal(size=sl.stop - sl.start - 1)
            v[sl.start] = np.linalg.norm(v[sl.start + 1 : sl.stop]) + rng.uniform(0.1, 2.0)
    return v


def assert_rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(
        1.0, np.max(np.abs(want), initial=0.0))


def layouts():
    rng = np.random.default_rng(404)
    for _ in range(25):
        prog, blocks, p = random_layout(rng)
        yield rng, prog, ipm._split(prog), blocks, p


def test_layout_keeps_program_row_order():
    """Inequality rows stay in program order; a Nonneg row is a one-row block."""
    for _, prog, sp, blocks, p in layouts():
        ineq = np.flatnonzero(np.repeat([not isinstance(c, Zero) for c in prog.cones],
                                        [c.dim for c in prog.cones]))
        assert np.array_equal(sp.G, prog.A[ineq])
        assert np.array_equal(sp.h, prog.b[ineq])
        dims = []
        for kind, sl in blocks:
            k = sl.stop - sl.start
            dims += [1] * k if kind == "l" else [k]
        assert np.bincount(sp.cones.blk).tolist() == dims
        assert sp.nu == 1.0 + len(dims)


def test_kernels_match_per_block_formulas():
    for rng, _, sp, blocks, p in layouts():
        cones = sp.cones
        u, v = interior(rng, blocks, p), interior(rng, blocks, p)
        w, d = rng.normal(size=p), rng.normal(size=p)
        for x in (u, w):
            assert ipm._min_eig(cones, x) == pytest.approx(
                ref_min_eig(blocks, x), rel=1e-12, abs=1e-12)
        assert_rel(ipm._jprod(cones, u, w), ref_jprod(blocks, u, w))
        assert_rel(ipm._jdiv(cones, u, w), ref_jdiv(blocks, u, w))
        e = (1.0 + cones.J) / 2.0  # the cone identity
        assert_rel(ipm._jprod(cones, e, w), w)


def at(cones, u):
    """The scaling at s = z = u: W = I, so its lam is u and its steps are u's."""
    return ipm._NT(cones, np.stack((u, u)))


def test_scaled_step_matches_per_block_formula():
    for rng, _, sp, blocks, p in layouts():
        u, v = interior(rng, blocks, p), interior(rng, blocks, p)
        d = rng.normal(size=p)
        nt = at(sp.cones, u)
        assert_rel(nt.lam, u)
        # directions that leave the cone and ones that never do (step inf)
        for step in (d, v, v - 0.5 * u):
            got = nt.max_step(step[None])
            want = ref_max_step(blocks, u, step)
            assert got == pytest.approx(want, rel=1e-12), (got, want)
        assert nt.max_step(v[None]) == math.inf
        # stacked rows: the step that keeps every row in the cone
        got = nt.max_step(np.stack((d, v - 0.5 * u)))
        want = min(ref_max_step(blocks, u, d), ref_max_step(blocks, u, v - 0.5 * u))
        assert got == pytest.approx(want, rel=1e-12), (got, want)


def test_scaled_step_is_the_step_of_s_and_z():
    """W is a cone automorphism: lam + a W^{-1} ds and lam + a W dz stay in
    the cone exactly as long as s + a ds and z + a dz do."""
    for rng, _, sp, blocks, p in layouts():
        s, z = interior(rng, blocks, p), interior(rng, blocks, p)
        ds, dz = rng.normal(size=p), rng.normal(size=p)
        W, Winv, _, _ = ref_scaling(blocks, s, z, p)
        got = ipm._NT(sp.cones, np.stack((s, z))).max_step(np.stack((Winv @ ds, W @ dz)))
        want = min(ref_max_step(blocks, s, ds), ref_max_step(blocks, z, dz))
        assert got == pytest.approx(want, rel=1e-12), (got, want)


def test_scaled_step_of_one_row_blocks_is_minus_lam_over_d():
    rng = np.random.default_rng(7)
    for k in (1, 5, 40):
        sp = ipm._split(ConicProgram(c=np.ones(2), A=rng.normal(size=(k, 2)),
                                     b=np.ones(k), cones=(Nonneg(k),)))
        for _ in range(20):
            sz = rng.uniform(0.01, 3.0, size=(2, k))
            d = rng.normal(size=(2, k))
            nt = ipm._NT(sp.cones, sz)
            assert np.array_equal(nt.lam, np.sqrt(sz[0] * sz[1]))
            for rows in (d[:1], d):
                neg = rows < 0.0
                lam = np.broadcast_to(nt.lam, rows.shape)
                want = float(np.min(-lam[neg] / rows[neg], initial=math.inf))
                assert nt.max_step(rows) == want


def test_scaled_step_skips_nan():
    """A NaN never sets the step: a block whose rows are all NaN gives no
    candidate, and a NaN row defers to the other rows of its block."""
    for rng, _, sp, blocks, p in layouts():
        u = interior(rng, blocks, p)
        d = rng.normal(size=p)
        nt = at(sp.cones, u)
        for i, (_, sl) in enumerate(blocks):
            bad = d.copy()
            bad[sl] = math.nan
            rest = [blk for j, blk in enumerate(blocks) if j != i]
            got = nt.max_step(bad[None])
            want = ref_max_step(rest, u, d)
            assert got == pytest.approx(want, rel=1e-12), (got, want)
            assert nt.max_step(np.stack((bad, d))) == nt.max_step(d[None])


def test_scaled_step_without_inequality_rows_is_inf():
    sp = ipm._split(ConicProgram(c=np.ones(2), A=np.ones((1, 2)), b=[1.0],
                                 cones=(Zero(1),)))
    nt = ipm._NT(sp.cones, np.zeros((2, 0)))
    assert nt.lam.shape == (0,)
    assert nt.max_step(np.zeros((2, 0))) == math.inf


def test_nt_operator_matches_dense_scaling():
    for rng, _, sp, blocks, p in layouts():
        s, z = interior(rng, blocks, p), interior(rng, blocks, p)
        v = rng.normal(size=p)
        W, Winv, _, lam = ref_scaling(blocks, s, z, p)
        nt = ipm._NT(sp.cones, np.stack((s, z)))
        assert_rel(nt.lam, lam)
        # unscale(d) = (W d[0], W^{-1} d[1])
        for got, want in zip(nt.unscale(np.stack((v, v))), (W @ v, Winv @ v)):
            assert_rel(got, want)
        for got in nt.unscale(np.stack((Winv @ v, W @ v))):
            assert_rel(got, v)
        for got in nt.unscale(np.stack((z, s))):  # W z = W^{-1} s = lam
            assert_rel(got, nt.lam)
        for got, want in zip(nt.unscale(np.stack((nt.lam, nt.lam))), (s, z)):
            assert_rel(got, want)
        assert_rel(nt.apply_inv(v), Winv @ v)
        # a (3, p) stack maps row by row
        X = rng.normal(size=(3, p))
        assert_rel(nt.apply_inv(X), X @ Winv.T)
        assert_rel(nt.unscale(nt.apply_inv(X[:2]))[0], X[0])

        # the scaled KKT system: only its W^{-1}G blocks and W^{-1}h follow W
        kkt = ipm._KKT(sp)
        n, off = sp.c.size, sp.c.size + sp.b.size
        assert np.array_equal(kkt.K[off:, off:], -np.eye(p))
        assert_rel(kkt.set_scaling(nt, v), Winv @ v)
        K = kkt.K
        assert np.array_equal(K[off:, off:], -np.eye(p))
        assert_rel(K[off:, :n], Winv @ sp.G)
        assert np.array_equal(K[:n, off:], K[off:, :n].T)
        assert np.array_equal(K[n:off, :n], sp.A) and np.array_equal(K[:n, n:off], sp.A.T)
        # the static regularization: +d_x on the x diagonal, -d on the
        # equality rows', nothing below them; d_x = d min(1, max(1, |c|) /
        # max(1, |(b, h)|))
        scale = max(1.0, np.linalg.norm(sp.c)) / max(1.0, np.linalg.norm(np.r_[sp.b, sp.h]))
        assert np.array_equal(K[:n, :n], ipm._REG * min(1.0, scale) * np.eye(n))
        assert np.array_equal(K[n:off, n:off], -ipm._REG * np.eye(off - n))
        assert not np.any(K[off:, n:off])
        cbh = np.concatenate((sp.c, sp.b, Winv @ sp.h))
        assert_rel(kkt.cbh, cbh)
        assert_rel(kkt.rhs[:, 0], np.concatenate((-sp.c, cbh[n:])))


def test_nt_operator_rejects_points_outside_the_cone():
    for rng, _, sp, blocks, p in layouts():
        s, z = interior(rng, blocks, p), interior(rng, blocks, p)
        heads = [sl.start for kind, sl in blocks if kind == "q" and sl.stop - sl.start > 1]
        if not heads:
            continue
        s[heads[-1]] = 0.0  # s0^2 - ||s1||^2 < 0
        with pytest.raises(ipm._Breakdown):
            ipm._NT(sp.cones, np.stack((s, z)))


def test_nt_operator_rejects_nonneg_and_negative_cone_points():
    """A negative Nonneg entry or a negated SOC block (det > 0, head < 0) of
    either s or z is outside the cone interior."""
    for rng, _, sp, blocks, p in layouts():
        for _, sl in blocks:
            for which in (0, 1):
                pair = [interior(rng, blocks, p), interior(rng, blocks, p)]
                pair[which][sl] *= -1.0
                assert ipm._min_eig(sp.cones, pair[which]) < 0.0
                with pytest.raises(ipm._Breakdown):
                    ipm._NT(sp.cones, np.stack(pair))
