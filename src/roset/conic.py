"""Cone-program intermediate representation and exporters.

Programs are stored in the standard embedding

    minimize c'x  subject to  b - A x in K,

where K is an ordered product of elementary cones.  Zero, nonnegative and
second-order blocks are solvable internally (see :mod:`roset.ipm`);
positive-semidefinite blocks are carried through for export only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    ExportOnlyProgramError,
    InvalidArgumentError,
    UnsupportedExportError,
)
from .model import Counts, frozen


@dataclass(frozen=True)
class _Rows(Counts):
    """A cone of dim rows."""

    dim: int

    @property
    def rows(self) -> int:
        return self.dim


class Zero(_Rows):
    """Equality rows: b - Ax = 0."""

    kind = "zero"


class Nonneg(_Rows):
    """Componentwise rows: b - Ax >= 0."""

    kind = "nonneg"


class SecondOrder(_Rows):
    """Rows (t, u) with t >= ||u||_2; dim counts t plus the entries of u."""

    kind = "soc"


@dataclass(frozen=True)
class PsdExportOnly(Counts):
    """A symmetric side x side block required to be PSD.

    The block occupies side*(side+1)/2 consecutive rows holding its upper
    triangle in row-major order, unscaled.  Programs containing such a block
    cannot be solved internally, only exported.
    """

    side: int

    kind = "psd"

    @property
    def rows(self) -> int:
        return self.side * (self.side + 1) // 2


Cone = Union[Zero, Nonneg, SecondOrder, PsdExportOnly]


def psd_triu_indices(side: int) -> list[tuple[int, int]]:
    """Row-major upper-triangle index pairs used by the PSD row layout."""
    return [(i, j) for i in range(side) for j in range(i, side)]


def mat_from_triu(values: np.ndarray, side: int) -> np.ndarray:
    """Rebuild the symmetric matrix whose upper triangle (row-major) is given."""
    values = np.asarray(values, dtype=float)
    if values.shape != (side * (side + 1) // 2,):
        raise InvalidArgumentError(
            f"expected {side * (side + 1) // 2} entries for side {side}, "
            f"got {values.shape}"
        )
    out = np.zeros((side, side))
    for v, (i, j) in zip(values, psd_triu_indices(side)):
        out[i, j] = v
        out[j, i] = v
    return out


def triu_from_mat(mat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`mat_from_triu` for a symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    side = mat.shape[0]
    return np.array([mat[i, j] for i, j in psd_triu_indices(side)])


@dataclass(frozen=True, eq=False)
class ConicProgram:
    """Immutable conic program: minimize c'x subject to b - Ax in K."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: tuple[Cone, ...]

    def __post_init__(self):
        c = frozen(self.c, "objective").reshape(-1)
        A = frozen(self.A, "constraint matrix", 2)
        b = frozen(self.b, "offset").reshape(-1)
        if c.size != A.shape[1]:
            raise InvalidArgumentError(
                f"objective has {c.size} entries but matrix has {A.shape[1]} columns"
            )
        if b.size != A.shape[0]:
            raise InvalidArgumentError(
                f"offset has {b.size} entries but matrix has {A.shape[0]} rows"
            )
        cones = tuple(self.cones)
        total = 0
        for cone in cones:
            if not isinstance(cone, (_Rows, PsdExportOnly)):
                raise InvalidArgumentError(f"unknown cone {cone!r}")
            total += cone.rows
        if total != A.shape[0]:
            raise InvalidArgumentError(
                f"cone rows sum to {total} but matrix has {A.shape[0]} rows"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "cones", cones)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size

    def cone_slices(self) -> list[tuple[Cone, slice]]:
        """Each cone paired with its row slice, in order."""
        out = []
        start = 0
        for cone in self.cones:
            out.append((cone, slice(start, start + cone.rows)))
            start += cone.rows
        return out


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITER_LIMIT = "iter-limit"


# one record per solver iteration: costs, relative residuals and gap, mu, and
# the step length taken from the iterate (NaN when none was taken)
TRACE_DTYPE = np.dtype([("iter", np.int64), ("pcost", float), ("dcost", float),
                        ("pres", float), ("dres", float), ("gap", float),
                        ("mu", float), ("step", float)])


def trace_array(rows=()) -> np.ndarray:
    """A read-only TRACE_DTYPE array of (iter, pcost, ..., mu, step) tuples."""
    out = np.array(list(rows), dtype=TRACE_DTYPE)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver output.

    For OPTIMAL the primal/dual points satisfy the advertised tolerances.
    For INFEASIBLE, (y, z) is a Farkas certificate with b'y + h'z = -1; for
    UNBOUNDED, x is a ray with c'x = -1.  cert_residual measures certificate
    quality; it is None for other statuses.  For ITER_LIMIT, reason says why
    the solver stopped (a numerical breakdown or "iteration limit") and the
    point is the best iterate seen; it is None for other statuses.  z and s
    are in the program's inequality-row order.  trace is a read-only
    structured array of TRACE_DTYPE, one record per iteration, so
    ``trace["pres"]`` is the residual history and ``trace[i]["gap"]`` one
    entry; ``trace["step"]`` is the step length taken from each iterate,
    NaN where none was (the last record, unless the iteration limit ended
    the solve).
    """

    status: SolveStatus
    x: Optional[np.ndarray]
    y: Optional[np.ndarray]
    z: Optional[np.ndarray]
    s: Optional[np.ndarray]
    obj: Optional[float]
    gap: Optional[float]
    gap_abs: Optional[float]
    pres: Optional[float]
    dres: Optional[float]
    iterations: int
    cert_residual: Optional[float] = None
    trace: np.ndarray = field(default_factory=trace_array)
    reason: Optional[str] = None


def solve(prog: ConicProgram) -> Solution:
    """Solve an LP/SOC program with the interior-point method.

    Raises ExportOnlyProgramError if the program has a PSD block.
    """
    from . import ipm

    return ipm.solve(prog)


def export(prog: ConicProgram, format: str) -> str:
    """Serialize a program; format is "json" (lossless) or "sdpa" (sparse)."""
    if format == "json":
        return _export_json(prog)
    if format == "sdpa":
        return _export_sdpa(prog)
    raise InvalidArgumentError(f"unknown export format {format!r}")


def _cone_to_obj(cone: Cone) -> dict:
    if isinstance(cone, PsdExportOnly):
        return {"type": "psd", "side": cone.side}
    return {"type": cone.kind, "dim": cone.dim}


def _export_json(prog: ConicProgram) -> str:
    payload = {
        "format": "conic-program",
        "version": 1,
        "objective": prog.c.tolist(),
        "matrix": prog.A.tolist(),
        "offset": prog.b.tolist(),
        "cones": [_cone_to_obj(cone) for cone in prog.cones],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _fmt(v: float) -> str:
    return repr(float(v))


def _export_sdpa(prog: ConicProgram) -> str:
    """SDPA sparse format (.dat-s).

    The target problem is minimize c'x s.t. sum_k x_k F_k - F_0 >= 0
    (block diagonal).  Nonneg rows become diagonal entries, Zero rows become
    paired +/- diagonal entries, and each PSD block becomes its own block
    with F_k = -mat(A e_k) and F_0 = -mat(b) so that
    sum x_k F_k - F_0 = mat(b - Ax).
    """
    for cone in prog.cones:
        if isinstance(cone, SecondOrder):
            raise UnsupportedExportError(
                "sdpa export supports zero, nonneg and psd cones only"
            )
    m = prog.n_vars
    sizes: list[int] = []
    # entries[k] holds (block, i, j, value) for matrix F_k; index 0 is F_0
    entries: list[list[tuple[int, int, int, float]]] = [[] for _ in range(m + 1)]
    for blk, (cone, sl) in enumerate(prog.cone_slices(), start=1):
        # each row's (i, j, sign) placements, 1-based within the block
        if isinstance(cone, Zero):
            sizes.append(-2 * cone.dim)
            places = [((i, i, -1.0), (i + cone.dim, i + cone.dim, 1.0))
                      for i in range(1, cone.dim + 1)]
        elif isinstance(cone, Nonneg):
            sizes.append(-cone.dim)
            places = [((i, i, -1.0),) for i in range(1, cone.dim + 1)]
        else:  # PsdExportOnly
            sizes.append(cone.side)
            places = [((i + 1, j + 1, -1.0),) for i, j in psd_triu_indices(cone.side)]
        for r, row_places in zip(range(sl.start, sl.stop), places):
            for i, j, sign in row_places:
                if prog.b[r] != 0.0:
                    entries[0].append((blk, i, j, sign * prog.b[r]))
                for k in np.flatnonzero(prog.A[r]):
                    entries[k + 1].append((blk, i, j, sign * prog.A[r, k]))
    lines = [str(m), str(len(sizes)), " ".join(str(s) for s in sizes),
             " ".join(_fmt(v) for v in prog.c)]
    for k in range(m + 1):
        for blk_i, i, j, v in entries[k]:
            lines.append(f"{k} {blk_i} {i} {j} {_fmt(v)}")
    return "\n".join(lines) + "\n"
