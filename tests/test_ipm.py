import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from roset import baselines, conic, harness, ipm, model, reformulate, shapes
from roset.calibrate import CalibResult
from roset.conic import ConicProgram, Nonneg, SecondOrder, SolveStatus, Zero


def lp_min(c, G, h):
    """min c'x s.t. Gx <= h as a ConicProgram."""
    return ConicProgram(c=c, A=G, b=h, cones=(Nonneg(len(h)),))


def vertex_enum_opt(c, G, h, tol=1e-9):
    """Brute-force LP oracle: scan all basic feasible points."""
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    n = G.shape[1]
    best = np.inf
    for rows in itertools.combinations(range(G.shape[0]), n):
        sub = G[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, h[list(rows)])
        if np.all(G @ v <= h + tol):
            best = min(best, float(np.asarray(c) @ v))
    return best


def test_min_x_subject_to_x_ge_1():
    sol = conic.solve(lp_min([1.0], [[-1.0]], [-1.0]))
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.x[0] - 1.0) < 1e-7
    assert sol.gap <= 1e-8


def test_soc_symmetry_example():
    # min -x1 - x2 s.t. ||x|| <= 1
    prog = ConicProgram(c=[-1.0, -1.0],
                        A=[[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
                        b=[1.0, 0.0, 0.0], cones=(SecondOrder(3),))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.OPTIMAL
    root = np.sqrt(2) / 2
    assert np.allclose(sol.x, [root, root], atol=1e-6)


def test_optimal_invariant_tolerances():
    rng = np.random.default_rng(0)
    G = np.vstack([rng.normal(size=(8, 3)), -np.eye(3)])
    h = np.concatenate([G[:8] @ np.ones(3) + 1.0, np.zeros(3)])
    sol = conic.solve(lp_min(rng.normal(size=3), G, h))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.gap <= 1e-8 and sol.pres <= 1e-8 and sol.dres <= 1e-8


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(123)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 2, 9))
        G = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        h = G @ x0 + rng.uniform(0.1, 1.5, size=m)
        G = np.vstack([G, np.eye(n), -np.eye(n)])
        h = np.concatenate([h, np.full(n, 6.0) + x0, np.full(n, 6.0) - x0])
        c = rng.normal(size=n)
        sol = conic.solve(lp_min(c, G, h))
        want = vertex_enum_opt(c, G, h)
        assert sol.status is SolveStatus.OPTIMAL, trial
        assert abs(sol.obj - want) < 1e-6, (trial, sol.obj, want)


def test_random_ball_socps_closed_form():
    rng = np.random.default_rng(7)
    for trial in range(15):
        n = int(rng.integers(2, 7))
        x0 = rng.normal(size=n)
        r = float(rng.uniform(0.3, 2.5))
        c = rng.normal(size=n)
        A = np.zeros((n + 1, n))
        A[1:, :] = -np.eye(n)
        b = np.concatenate([[r], -x0])
        sol = conic.solve(ConicProgram(c=c, A=A, b=b, cones=(SecondOrder(n + 1),)))
        want = float(c @ x0) - r * float(np.linalg.norm(c))
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.obj - want) < 1e-6
        xw = x0 - r * c / np.linalg.norm(c)
        assert np.allclose(sol.x, xw, atol=1e-5)


def test_socp_with_equality_closed_form():
    # min c'x s.t. ||x - x0|| <= r, 1'x = 1'x0: projects c on the hyperplane
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 4
        x0 = rng.normal(size=n)
        r, c = 0.7, rng.normal(size=n)
        P = np.eye(n) - np.ones((n, n)) / n
        cp = P @ c
        A = np.vstack([np.ones((1, n)), np.zeros((1, n)), -np.eye(n)])
        b = np.concatenate([[x0.sum()], [r], -x0])
        prog = ConicProgram(c=c, A=A, b=b, cones=(Zero(1), SecondOrder(n + 1)))
        sol = conic.solve(prog)
        want = float(c @ x0) - r * float(np.linalg.norm(cp))
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.obj - want) < 1e-6


def test_infeasible_lp_certificate():
    # x >= 1 and x <= 0
    prog = ConicProgram(c=[0.0], A=[[-1.0], [1.0]], b=[-1.0, 0.0], cones=(Nonneg(2),))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.cert_residual <= 1e-8
    # Farkas: z >= 0, A'z ~ 0, b'z = -1
    assert np.all(sol.z >= -1e-12)
    assert abs(np.array([-1.0, 1.0]) @ sol.z) <= 1e-7
    assert abs(np.array([-1.0, 0.0]) @ sol.z + 1.0) < 1e-9


def test_infeasible_equalities():
    prog = ConicProgram(c=[1.0], A=[[1.0], [1.0]], b=[0.0, 1.0], cones=(Zero(2),))
    assert conic.solve(prog).status is SolveStatus.INFEASIBLE


def test_equality_only_optimal():
    # x0 + x1 = 2, x0 - x1 = 0 pins x = (1, 1)
    prog = ConicProgram(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, -1.0]], b=[2.0, 0.0],
                        cones=(Zero(2),))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.OPTIMAL
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-7)
    assert sol.obj == pytest.approx(3.0, abs=1e-7)
    # c in the row space: every point of x0 + x1 = 2 is optimal
    prog = ConicProgram(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[2.0], cones=(Zero(1),))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.obj == pytest.approx(2.0, abs=1e-7)
    assert sol.x.sum() == pytest.approx(2.0, abs=1e-7)


def test_equality_only_unbounded():
    # x1 = 1 leaves x0 free: the ray (-1, 0) has c'x = -1 and A x = 0
    prog = ConicProgram(c=[1.0, 0.0], A=[[0.0, 1.0]], b=[1.0], cones=(Zero(1),))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.UNBOUNDED
    assert sol.x @ [1.0, 0.0] == pytest.approx(-1.0, abs=1e-7)
    assert abs(sol.x[1]) <= 1e-7


def test_infeasible_soc():
    # ||x|| <= -1 is empty
    prog = ConicProgram(c=[1.0, 0.0], A=[[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
                        b=[-1.0, 0.0, 0.0], cones=(SecondOrder(3),))
    assert conic.solve(prog).status is SolveStatus.INFEASIBLE


def test_unbounded_lp_ray():
    prog = ConicProgram(c=[-1.0], A=[[-1.0]], b=[0.0], cones=(Nonneg(1),))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.UNBOUNDED
    # ray satisfies c'x = -1 and feasibility of the recession cone
    assert abs(-1.0 * sol.x[0] + 1.0) < 1e-7
    assert sol.x[0] >= 0


def test_unbounded_soc():
    # min -x1 with x2 >= |x1|
    prog = ConicProgram(c=[-1.0, 0.0], A=[[0.0, -1.0], [-1.0, 0.0]],
                        b=[0.0, 0.0], cones=(SecondOrder(2),))
    assert conic.solve(prog).status is SolveStatus.UNBOUNDED


def test_batch_infeasible_unbounded_classification():
    rng = np.random.default_rng(99)
    n_ok = 0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        G = rng.normal(size=(4, n))
        x0 = rng.normal(size=n)
        h = G @ x0 + rng.uniform(0.1, 1.0, size=4)
        if trial % 2 == 0:
            # contradictory pair of half-spaces
            g = rng.normal(size=n)
            Gf = np.vstack([G, g, -g])
            hf = np.concatenate([h, [g @ x0 - 1.0], [-(g @ x0) - 1.0]])
            want = SolveStatus.INFEASIBLE
        else:
            # objective decreasing along a feasible recession direction
            Gf, hf = G, h
            d = np.linalg.lstsq(G, -np.ones(4), rcond=None)[0]
            if np.any(G @ d > -1e-9):
                continue
            want = SolveStatus.UNBOUNDED
            sol = conic.solve(lp_min(-d, Gf, hf))
            assert sol.status is want, trial
            n_ok += 1
            continue
        sol = conic.solve(lp_min(np.zeros(n), Gf, hf))
        assert sol.status is want, trial
        n_ok += 1
    assert n_ok >= 15


def test_weak_duality_along_trace():
    rng = np.random.default_rng(5)
    G = np.vstack([rng.normal(size=(10, 4)), -np.eye(4)])
    h = np.concatenate([G[:10] @ np.zeros(4) + 1.0, np.ones(4)])
    sol = conic.solve(lp_min(rng.normal(size=4), G, h))
    assert len(sol.trace) == sol.iterations
    for rec in sol.trace:
        if max(rec["pres"], rec["dres"]) < 1e-6:
            assert rec["pcost"] >= rec["dcost"] - 1e-6


def test_row_scaling_invariance():
    rng = np.random.default_rng(21)
    G = np.vstack([rng.normal(size=(8, 3)), -np.eye(3)])
    h = np.concatenate([np.ones(8), np.ones(3)])
    c = rng.normal(size=3)
    base = conic.solve(lp_min(c, G, h))
    scale = rng.uniform(0.1, 10.0, size=len(h))
    scaled = conic.solve(lp_min(c, G * scale[:, None], h * scale))
    assert abs(base.obj - scaled.obj) < 1e-6


def test_bit_identical_determinism():
    rng = np.random.default_rng(2)
    G = np.vstack([rng.normal(size=(7, 3)), -np.eye(3)])
    h = np.concatenate([np.ones(7), np.ones(3)])
    prog = lp_min(rng.normal(size=3), G, h)
    a = conic.solve(prog)
    b = conic.solve(prog)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.iterations == b.iterations
    # bytes, not records: the last record's step is NaN, and NaN != NaN
    assert a.trace.tobytes() == b.trace.tobytes()


def test_degenerate_redundant_equalities():
    prog = ConicProgram(c=[1.0, 1.0],
                        A=[[1.0, 1.0], [2.0, 2.0], [-1.0, 0.0], [0.0, -1.0]],
                        b=[1.0, 2.0, 0.0, 0.0], cones=(Zero(2), Nonneg(2)))
    sol = conic.solve(prog)
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.obj - 1.0) < 1e-7


def test_lps_with_a_repeated_column_solve_optimal():
    # feasible (h - Gx0 > 0) and bounded (-c in the cone of G's rows) by
    # construction; the copy of column j changes neither, but it leaves
    # [A; G] rank deficient, and only the regularized KKT matrix stays
    # nonsingular near the optimum
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(2, 6), rng.integers(4, 12)
        G = rng.normal(size=(p, n))
        h = G @ rng.normal(size=n) + rng.uniform(0.1, 1.0, p)
        c = -G.T @ rng.uniform(0.1, 1.0, p)
        j = rng.integers(n)
        ref = conic.solve(lp_min(c, G, h))
        sol = conic.solve(lp_min(np.append(c, c[j]), np.column_stack((G, G[:, j])), h))
        assert ref.status is SolveStatus.OPTIMAL, seed
        assert sol.status is SolveStatus.OPTIMAL, (seed, sol.reason)
        assert sol.obj == pytest.approx(ref.obj, rel=1e-6, abs=1e-6), seed


def test_sg_solve_with_a_repeated_feature_matches_highs():
    # a duplicated data column is a duplicated decision variable with the
    # same cost: the scenario LP keeps the optimum of the 4-feature LP
    d, n = 4, 100
    c = -np.ones(d)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = rng.multivariate_normal(np.ones(d), 0.1 * np.eye(d), size=n)
        ref = linprog(c, A_ub=data, b_ub=np.full(n, 10.0), bounds=(None, None),
                      method="highs")
        spec = model.CcpSpec(objective=np.append(c, c[0]),
                             family=model.SingleLinear(), rhs=[10.0],
                             epsilon=0.05, delta=0.05)
        sol = baselines.sg_solve(spec, np.column_stack((data, data[:, 0])))
        assert ref.status == 0, seed
        assert sol.status is SolveStatus.OPTIMAL, (seed, sol.reason)
        assert sol.obj == pytest.approx(ref.fun, rel=1e-6), seed


def test_kkt_matrix_is_nonsingular_with_a_zero_column():
    # x1 appears in no row, so [A; G] has a zero column; the +d on the x
    # diagonal keeps the matrix quasi-definite
    prog = ConicProgram(c=[1.0, 0.0], A=[[1.0, 0.0], [-1.0, 0.0]], b=[1.0, 0.0],
                        cones=(Zero(1), Nonneg(1)))
    kkt = ipm._KKT(ipm._split(prog))
    assert np.all(np.isfinite(np.linalg.solve(kkt.K, kkt.rhs)))


def test_unconstrained_programs():
    sol = conic.solve(ConicProgram(c=[0.0, 0.0], A=np.zeros((0, 2)), b=[],
                                   cones=()))
    assert sol.status is SolveStatus.OPTIMAL
    sol = conic.solve(ConicProgram(c=[1.0], A=np.zeros((0, 1)), b=[], cones=()))
    assert sol.status is SolveStatus.UNBOUNDED


def test_dual_point_certifies_objective():
    # strong duality: b'y* at optimum equals primal objective
    rng = np.random.default_rng(31)
    G = np.vstack([rng.normal(size=(9, 3)), -np.eye(3)])
    h = np.concatenate([np.ones(9), np.ones(3)])
    c = rng.normal(size=3)
    sol = conic.solve(lp_min(c, G, h))
    assert sol.status is SolveStatus.OPTIMAL
    dual_obj = -float(h @ sol.z)
    assert abs(dual_obj - sol.obj) < 1e-6
    assert np.all(sol.z >= -1e-9)


def _split_and_merged(rng, n=4, k=5):
    """One LP whose Nonneg rows sit around a Zero row, and its merged form."""
    G = np.vstack([rng.normal(size=(k, n)), np.eye(n), -np.eye(n)])
    x0 = rng.normal(size=n)
    h = G @ x0 + rng.uniform(0.1, 1.0, size=G.shape[0])
    eq = rng.normal(size=(1, n))
    c = rng.normal(size=n)
    split = ConicProgram(c=c, A=np.vstack([G[:k], eq, G[k:]]),
                         b=np.concatenate([h[:k], eq @ x0, h[k:]]),
                         cones=(Nonneg(k), Zero(1), Nonneg(2 * n)))
    merged = ConicProgram(c=c, A=np.vstack([G, eq]),
                          b=np.concatenate([h, eq @ x0]),
                          cones=(Nonneg(G.shape[0]), Zero(1)))
    return split, merged


def test_nonneg_blocks_merge_across_zero_rows():
    rng = np.random.default_rng(31)
    for trial in range(5):
        split, merged = _split_and_merged(rng)
        cones = ipm._split(split).cones
        assert cones.dims.tolist() == [1] * 13  # 13 one-row blocks
        a, b = conic.solve(split), conic.solve(merged)
        assert a.status is b.status is SolveStatus.OPTIMAL, trial
        assert np.array_equal(a.x, b.x), trial
        assert a.iterations == b.iterations, trial
    soc_between = ConicProgram(c=[1.0, 1.0], A=np.zeros((5, 2)), b=np.ones(5),
                               cones=(Nonneg(1), SecondOrder(3), Nonneg(1)))
    cones = ipm._split(soc_between).cones
    assert cones.dims.tolist() == [1, 3, 1]


def test_nonneg_rows_solve_as_one_row_second_order_blocks():
    """Nonneg(k) and k x SecondOrder(1) are one cone: same x bit for bit."""
    for seed in range(20):
        c, G, h = _random_lp(seed, 3, 12, "optimal")
        a = conic.solve(lp_min(c, G, h))
        b = conic.solve(ConicProgram(c=c, A=G, b=h, cones=(SecondOrder(1),) * h.size))
        assert a.status is b.status is SolveStatus.OPTIMAL, seed
        assert np.array_equal(a.x, b.x), seed
        assert a.iterations == b.iterations, seed


def test_trace_is_one_read_only_record_array():
    c, G, h = _random_lp(3, 3, 12, "optimal")
    sol = conic.solve(lp_min(c, G, h))
    assert sol.trace.dtype == conic.TRACE_DTYPE and sol.trace.shape == (sol.iterations,)
    assert sol.trace["iter"].tolist() == list(range(1, sol.iterations + 1))
    assert sol.trace[-1]["gap"] == sol.gap and sol.trace[-1]["pcost"] == sol.obj
    # the step taken from each iterate; none from the optimal one
    step = sol.trace["step"]
    assert np.all((step[:-1] > 0.0) & (step[:-1] <= 1.0)) and np.isnan(step[-1])
    with pytest.raises(ValueError):
        sol.trace["mu"][0] = 0.0
    cut = conic.solve(lp_min(c, G, h), max_iter=2)
    assert cut.status is conic.SolveStatus.ITER_LIMIT
    assert cut.trace["step"].tolist() == step[:2].tolist()
    empty = conic.solve(ConicProgram(c=[0.0], A=np.zeros((0, 1)), b=[], cones=()))
    assert empty.trace.dtype == conic.TRACE_DTYPE and empty.trace.size == 0


def _interleaved(rng, n=3):
    """(Nonneg, SOC ball, Zero, Nonneg, SOC) blocks of one feasible program."""
    x0 = rng.normal(size=n)
    G1, G2, B = (rng.normal(size=(k, n)) for k in (4, 3, 2))
    d = rng.normal(size=2)
    a = rng.normal(size=(1, n))
    return [
        (Nonneg(4), G1, G1 @ x0 + rng.uniform(0.1, 1.0, size=4)),
        (SecondOrder(n + 1), np.vstack([np.zeros(n), np.eye(n)]),
         np.concatenate([[rng.uniform(0.5, 2.0)], x0])),
        (Zero(1), a, a @ x0),
        (Nonneg(3), G2, G2 @ x0 + rng.uniform(0.1, 1.0, size=3)),
        (SecondOrder(3), np.vstack([np.zeros(n), B]),
         np.concatenate([[np.linalg.norm(B @ x0 - d) + 0.5], d])),
    ]


def _program(c, blocks):
    return ConicProgram(c=c, A=np.vstack([A for _, A, _ in blocks]),
                        b=np.concatenate([b for _, _, b in blocks]),
                        cones=tuple(cone for cone, _, _ in blocks))


def _ineq_rows(prog):
    return np.flatnonzero(np.repeat([not isinstance(c, Zero) for c in prog.cones],
                                    [c.dim for c in prog.cones]))


def test_z_and_s_come_back_in_program_row_order():
    rng = np.random.default_rng(41)
    for trial in range(4):
        blocks = _interleaved(rng)
        c = rng.normal(size=3)
        # the copy reverses the block order and the rows of each Nonneg block
        rows = np.split(np.arange(sum(cone.dim for cone, _, _ in blocks)),
                        np.cumsum([cone.dim for cone, _, _ in blocks])[:-1])
        flipped = [(cone, A[::-1], b[::-1]) if isinstance(cone, Nonneg) else (cone, A, b)
                   for cone, A, b in blocks]
        perm = np.concatenate([r[::-1] if isinstance(cone, Nonneg) else r
                               for (cone, _, _), r in zip(blocks, rows)][::-1])
        prog, copy = _program(c, blocks), _program(c, flipped[::-1])
        assert np.array_equal(copy.A, prog.A[perm])
        a, b = conic.solve(prog), conic.solve(copy)
        assert a.status is b.status is SolveStatus.OPTIMAL, trial
        assert abs(a.obj - b.obj) <= 1e-7 * max(1.0, abs(a.obj)), trial
        for q, sol in ((prog, a), (copy, b)):
            ineq = _ineq_rows(q)
            assert np.allclose(sol.s, q.b[ineq] - q.A[ineq] @ sol.x, atol=1e-7), trial
        # row i of the copy is program row perm[i]; map it to z/s positions
        pos = np.searchsorted(_ineq_rows(prog), perm[_ineq_rows(copy)])
        assert np.allclose(b.z, a.z[pos], atol=1e-6), trial
        assert np.allclose(b.s, a.s[pos], atol=1e-6), trial
        # complementarity per block: s o z = 0 in the Jordan product.  For s
        # and z in a second-order cone, the tail s0 z1 + z0 s1 of s o z is at
        # most sqrt(2 s0 z0 s'z), so it vanishes only as the root of the gap
        start = 0
        for cone, _, _ in blocks:
            if isinstance(cone, Zero):
                continue
            sb, zb = a.s[start : start + cone.dim], a.z[start : start + cone.dim]
            start += cone.dim
            if isinstance(cone, Nonneg):
                assert np.all(sb >= 0.0) and np.all(zb >= 0.0), trial
                assert np.all(sb * zb <= 1e-7), trial
                continue
            for v in (sb, zb):
                assert v[0] >= np.linalg.norm(v[1:]), trial
            assert sb @ zb <= 1e-7, trial
            tail = sb[0] * zb[1:] + zb[0] * sb[1:]
            assert np.linalg.norm(tail) <= np.sqrt(2.0 * sb[0] * zb[0] * 1e-7), trial


_HIGHS_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
                 3: SolveStatus.UNBOUNDED}


def _random_lp(seed, n, p, kind):
    """min c'x s.t. Gx <= h with p >> n rows, built to be of the given kind."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(p, n))
    x0 = rng.normal(size=n)
    if kind == "unbounded":
        # every row recedes along d, and c'd < 0
        d = rng.normal(size=n)
        G[G @ d > 0] *= -1.0
        c = -d
    else:
        # c = -G'u with u >= 0 makes the dual feasible: the LP is bounded
        c = -G.T @ rng.uniform(0.0, 1.0, size=p)
    h = G @ x0 + rng.uniform(0.1, 1.0, size=p)
    if kind == "infeasible":
        g = rng.normal(size=n)
        G = np.vstack([G, g, -g])
        h = np.concatenate([h, [g @ x0 - 1.0, -(g @ x0) - 1.0]])
    return c, G, h


def test_lps_classify_like_highs():
    seen = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           ratio=st.integers(4, 12),
           kind=st.sampled_from(["optimal", "infeasible", "unbounded"]))
    def check(seed, n, ratio, kind):
        c, G, h = _random_lp(seed, n, ratio * n, kind)
        ref = linprog(c, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
        want = _HIGHS_STATUS[ref.status]
        sol = conic.solve(lp_min(c, G, h))
        assert sol.status is want, (kind, ref.message)
        if want is SolveStatus.OPTIMAL:
            assert abs(sol.obj - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
            assert np.all(G @ sol.x <= h + 1e-7)
        elif want is SolveStatus.INFEASIBLE:
            # Farkas: z >= 0, G'z = 0, h'z = -1
            assert sol.cert_residual <= 1e-8
            assert np.all(sol.z >= -1e-9) and abs(h @ sol.z + 1.0) <= 1e-9
        else:
            # a ray: Gx <= 0 and c'x = -1
            assert sol.cert_residual <= 1e-8
            assert np.all(G @ sol.x <= 1e-7) and abs(c @ sol.x + 1.0) <= 1e-9
        seen.add(want)

    check()
    assert seen == set(_HIGHS_STATUS.values())


def test_iteration_limit_reports_reason():
    split, _ = _split_and_merged(np.random.default_rng(32))
    sol = conic.solve(split, max_iter=1)
    assert sol.status is SolveStatus.ITER_LIMIT
    assert sol.reason == "iteration limit"
    assert sol.iterations == 1 and sol.x is not None
    assert conic.solve(split).reason is None


def test_breakdown_reports_its_reason(monkeypatch):
    def singular(K, B):
        raise ipm._Breakdown("singular KKT system")

    monkeypatch.setattr(ipm, "_kkt_solve", singular)
    split, _ = _split_and_merged(np.random.default_rng(33))
    sol = conic.solve(split)
    assert sol.status is SolveStatus.ITER_LIMIT
    assert sol.reason == "singular KKT system"
    assert sol.iterations == 1


def _replicate_programs(count):
    """Phase-1 robust programs of the reconstruction pipeline: an ellipsoid
    fitted to 100 scaled-beta points of JointLinear(3), d = 5, sized to cover
    ceil(100 (1 - eps)) of them; each is 3 x SOC(6) over 5 variables."""
    d, l, n1, eps = 5, 3, 100, 0.05
    rng = np.random.default_rng(20170413)
    sampler = harness.scaled_beta_sampler(rng.uniform(1.0, 2.0, size=d * l),
                                          rng.normal(size=(d * l, d * l)) * 0.15)
    spec = model.CcpSpec(objective=-rng.uniform(1.0, 2.0, size=d),
                         family=model.JointLinear(l), rhs=np.full(l, 10.0),
                         epsilon=eps, delta=eps)
    cover = math.ceil(n1 * (1.0 - eps))
    for _ in range(count):
        ph1 = sampler.draw(rng, n1)
        shape = harness.fit_shape("ellipsoid", ph1)
        size = float(np.sort(shapes.transform_values(shape, ph1))[cover - 1])
        pset = shapes.PredictionSet(shape=shape, size=size, calib=CalibResult(
            i_star=cover, s=size, n2=n1, epsilon=eps, delta=eps))
        yield reformulate.assemble_ro(spec, pset).program


def _ball_basis_programs(count):
    """Gaussian single-linear d = 10 robust programs over a ball basis of 30
    points, calibrated on 120 more: one shared SOC(11) epigraph."""
    d, eps = 10, 0.05
    rng = np.random.default_rng(20170413)
    raw = rng.normal(size=(d, d)) * 0.3
    sampler = harness.gaussian_sampler(rng.uniform(1.0, 3.0, size=d),
                                       raw @ raw.T + 0.5 * np.eye(d))
    spec = model.CcpSpec(objective=-np.ones(d), family=model.SingleLinear(),
                         rhs=[10.0], epsilon=eps, delta=eps)
    for _ in range(count):
        data = sampler.draw(rng, 150)
        pset = shapes.build_prediction_set(shapes.ball_basis(data[:30]), data[30:],
                                           eps, eps)
        yield reformulate.assemble_ro(spec, pset).program


def test_iteration_counts_on_workload_shaped_programs():
    """Deterministic guard on the step rule over seeded programs shaped like
    the benchmark's.  A fixed 0.99 step fraction with steps measured on s and
    z took 10.4 iterations per program on the first set and 729 in all on
    the second."""
    sols = [conic.solve(prog) for prog in _replicate_programs(40)]
    assert all(sol.status is SolveStatus.OPTIMAL for sol in sols)
    assert np.mean([sol.iterations for sol in sols]) <= 9.0
    sols = [conic.solve(prog) for prog in _ball_basis_programs(60)]
    assert all(sol.status is SolveStatus.OPTIMAL for sol in sols)
    assert sum(sol.iterations for sol in sols) <= 729


def _in_cones(prog, u, tol):
    """Whether u lies in the program's Nonneg and SecondOrder cones, to tol."""
    row = 0
    for cone in prog.cones:
        part, row = u[row:row + cone.dim], row + cone.dim
        if type(cone) is Nonneg and not np.all(part >= -tol):
            return False
        if type(cone) is SecondOrder and not part[0] >= np.linalg.norm(part[1:]) - tol:
            return False
    return True


def _scenario_lp(rng, rows=390, d=10):
    """min -mu'x s.t. xi_i'x <= 10 over Gaussian scenarios xi_i ~ N(mu, sigma)."""
    mu = rng.uniform(1.0, 3.0, size=d)
    raw = rng.normal(size=(d, d)) * 0.3
    xi = rng.multivariate_normal(mu, raw @ raw.T + 0.5 * np.eye(d), size=rows)
    return lp_min(-mu, xi, np.full(rows, 10.0))


# iterations of the parent solver on the programs below; a change to the
# iteration's fixed cost changes no iterate beyond its last bits, so no count
# may grow
_WORKLOAD_SHAPE_ITERATIONS = {"3 x SOC(6)": 9, "30 Nonneg + SOC(11)": 13,
                              "390-row scenario LP": 10}


def test_one_program_of_each_workload_shape():
    progs = {"3 x SOC(6)": next(_replicate_programs(1)),
             "30 Nonneg + SOC(11)": next(_ball_basis_programs(1)),
             "390-row scenario LP": _scenario_lp(np.random.default_rng(9))}
    for name, prog in progs.items():
        sol = conic.solve(prog)
        assert sol.status is SolveStatus.OPTIMAL, name
        assert sol.iterations <= _WORKLOAD_SHAPE_ITERATIONS[name], name
        assert sol.obj == pytest.approx(float(prog.c @ sol.x), rel=1e-12)
        if name == "390-row scenario LP":
            ref = linprog(prog.c, A_ub=prog.A, b_ub=prog.b, bounds=(None, None),
                          method="highs")
            assert ref.status == 0
            assert abs(sol.obj - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
        # x is feasible and z dual feasible, so by weak duality no feasible
        # point does better than -b'z, which the objective meets
        assert _in_cones(prog, prog.b - prog.A @ sol.x, 1e-7), name
        assert _in_cones(prog, sol.z, 1e-9), name
        assert np.linalg.norm(prog.A.T @ sol.z + prog.c) <= 1e-7 * max(
            1.0, np.linalg.norm(prog.c))
        assert abs(sol.obj + float(prog.b @ sol.z)) <= 1e-6 * max(1.0, abs(sol.obj))


def test_large_data_scales_give_no_false_certificates():
    # bounded, feasible LPs with a large c or h: each certificate residual is
    # scaled by the data its own conditions involve, where a Farkas residual
    # divided by max(1, |c|) read the min LP as infeasible at c = 1e8 and a
    # ray residual divided by max(1, |h|) read the max LP as unbounded at
    # h = 1e9
    G = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    for scale in (1.0, 1e8, 1e9, 1e12):
        for c, h in (([scale, scale], [-1.0, -1.0, 10.0]),  # x >= 1, x1 + x2 <= 10
                     ([-1.0, -1.0], [0.0, 0.0, scale]),     # x >= 0, x1 + x2 <= h
                     ([-scale, -scale], [0.0, 0.0, 10.0])):
            ref = linprog(c, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
            sol = conic.solve(lp_min(c, G, h))
            assert sol.status is SolveStatus.OPTIMAL, (c, h)
            assert abs(sol.obj - ref.fun) <= 1e-6 * abs(ref.fun), (c, h)
