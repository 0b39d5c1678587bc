import json

import numpy as np
import pytest

from roset import conic
from roset.conic import (
    ConicProgram,
    Nonneg,
    PsdExportOnly,
    SecondOrder,
    Zero,
    mat_from_triu,
    triu_from_mat,
)
from roset.errors import (
    ExportOnlyProgramError,
    InvalidArgumentError,
    UnsupportedExportError,
)


def _small_program():
    return ConicProgram(
        c=[1.0, -0.5],
        A=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
        b=[1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
        cones=(Zero(1), Nonneg(2), SecondOrder(3)),
    )


def test_validation_errors():
    with pytest.raises(InvalidArgumentError):
        ConicProgram(c=[1.0], A=[[1.0]], b=[1.0, 2.0], cones=(Nonneg(2),))
    with pytest.raises(InvalidArgumentError):
        ConicProgram(c=[1.0], A=[[1.0]], b=[1.0], cones=(Nonneg(2),))
    with pytest.raises(InvalidArgumentError):
        ConicProgram(c=[np.inf], A=[[1.0]], b=[1.0], cones=(Nonneg(1),))
    with pytest.raises(InvalidArgumentError):
        ConicProgram(c=[1.0], A=[[1.0]], b=[1.0], cones=(SecondOrder(0),))


def test_program_immutable():
    p = _small_program()
    with pytest.raises(ValueError):
        p.A[0, 0] = 5.0
    assert p.n_vars == 2 and p.n_rows == 6


def test_cone_slices():
    p = _small_program()
    slices = p.cone_slices()
    assert [s for _, s in slices] == [slice(0, 1), slice(1, 3), slice(3, 6)]


def test_psd_row_count_and_triu_helpers():
    cone = PsdExportOnly(side=3)
    assert cone.rows == 6
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    M = mat_from_triu(v, 3)
    assert M[0, 1] == M[1, 0] == 2.0
    assert M[2, 2] == 6.0
    assert np.array_equal(triu_from_mat(M), v)


def _assert_json_export_exact(p):
    doc = json.loads(conic.export(p, "json"))
    assert doc["format"] == "conic-program"
    for key, want in (("objective", p.c), ("matrix", p.A), ("offset", p.b)):
        got = np.array(doc[key], dtype=float).reshape(want.shape)
        assert got.tobytes() == want.tobytes(), key
    return doc


def test_json_round_trip_exact():
    doc = _assert_json_export_exact(_small_program())
    assert doc["cones"] == [{"type": "zero", "dim": 1}, {"type": "nonneg", "dim": 2},
                            {"type": "soc", "dim": 3}]


def test_json_round_trip_awkward_floats():
    p = ConicProgram(c=[1.0 / 3.0, 1e-17], A=[[np.pi, -1.0], [0.1, np.e]],
                     b=[2.0 / 7.0, -1e300], cones=(Nonneg(1), PsdExportOnly(1)))
    doc = _assert_json_export_exact(p)
    assert doc["cones"] == [{"type": "nonneg", "dim": 1}, {"type": "psd", "side": 1}]


def test_sdpa_rejects_soc():
    p = _small_program()
    with pytest.raises(UnsupportedExportError):
        conic.export(p, "sdpa")


def test_sdpa_single_psd_block():
    # one variable x with 1x1 PSD block holding x itself: x >= 0 semantics
    p = ConicProgram(c=[1.0], A=[[-1.0]], b=[0.0], cones=(PsdExportOnly(1),))
    text = conic.export(p, "sdpa")
    lines = text.strip().splitlines()
    assert lines[0] == "1"       # one variable
    assert lines[1] == "1"       # one block
    assert lines[2] == "1"       # 1x1 PSD block
    assert lines[3] == "1.0"      # objective
    # single entry: F_1[1,1] = -A[0,0] = 1
    assert lines[4].split() == ["1", "1", "1", "1", "1.0"]


def test_sdpa_zero_rows_become_paired_diagonals():
    # x = 3 with x free, plus a PSD block [x] >= 0
    p = ConicProgram(c=[1.0], A=[[1.0], [-1.0]], b=[3.0, 0.0],
                     cones=(Zero(1), PsdExportOnly(1)))
    text = conic.export(p, "sdpa")
    lines = text.strip().splitlines()
    assert lines[1] == "2"
    assert lines[2].split() == ["-2", "1"]
    entries = [ln.split() for ln in lines[4:]]
    # F0 diag pair carries -b and +b
    f0 = [e for e in entries if e[0] == "0"]
    assert ["0", "1", "1", "1", "-3.0"] in f0
    assert ["0", "1", "2", "2", "3.0"] in f0
    # F1 diag pair carries -A and +A
    f1 = [e for e in entries if e[0] == "1"]
    assert ["1", "1", "1", "1", "-1.0"] in f1
    assert ["1", "1", "2", "2", "1.0"] in f1


def test_sdpa_psd_block_upper_triangle_only():
    # 2x2 PSD block: mat(b - Ax) with b the triu of [[1,2],[2,5]]
    p = ConicProgram(c=[1.0], A=[[0.0], [-1.0], [0.0]], b=[1.0, 2.0, 5.0],
                     cones=(PsdExportOnly(2),))
    text = conic.export(p, "sdpa")
    entries = [ln.split() for ln in text.strip().splitlines()[4:]]
    # every entry has i <= j
    assert all(int(e[2]) <= int(e[3]) for e in entries)
    assert ["0", "1", "1", "2", "-2.0"] in entries
    assert ["1", "1", "1", "2", "1.0"] in entries


def test_sdpa_matches_external_reader_semantics():
    # reconstruct the F matrices from the text and check
    # sum x_k F_k - F0 == mat(b - Ax) on a random program
    rng = np.random.default_rng(1)
    side = 3
    rows = side * (side + 1) // 2
    A = rng.normal(size=(rows + 2, 2))
    b = rng.normal(size=rows + 2)
    p = ConicProgram(c=[1.0, -1.0], A=A, b=b,
                     cones=(Nonneg(2), PsdExportOnly(side)))
    text = conic.export(p, "sdpa")
    lines = text.strip().splitlines()
    sizes = [int(v) for v in lines[2].split()]
    assert sizes == [-2, 3]
    F = {k: [np.zeros((2, 2)), np.zeros((3, 3))] for k in range(3)}
    for ln in lines[4:]:
        k, blk, i, j, v = ln.split()
        k, blk, i, j, v = int(k), int(blk), int(i), int(j), float(v)
        F[k][blk - 1][i - 1, j - 1] = v
        F[k][blk - 1][j - 1, i - 1] = v
    x = rng.normal(size=2)
    resid = b - A @ x
    got_lin = x[0] * F[1][0] + x[1] * F[2][0] - F[0][0]
    assert np.allclose(np.diag(got_lin), resid[:2])
    got_psd = x[0] * F[1][1] + x[1] * F[2][1] - F[0][1]
    assert np.allclose(got_psd, mat_from_triu(resid[2:], side))


def test_export_unknown_format():
    with pytest.raises(InvalidArgumentError):
        conic.export(_small_program(), "mps")


def test_solve_refuses_psd():
    p = ConicProgram(c=[1.0], A=[[-1.0]], b=[0.0], cones=(PsdExportOnly(1),))
    with pytest.raises(ExportOnlyProgramError):
        conic.solve(p)
