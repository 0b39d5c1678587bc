"""Core problem/data types shared across the package.

The data matrix convention is row-major observations: a Dataset holds n rows
of points in R^m. Matrix-valued uncertainty is vectorized by concatenating the
rows of A (C order), and this module owns the split of a point back into its
matrices so every consumer agrees on orientation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Dataset",
    "DataSplit",
    "SingleLinear",
    "JointLinear",
    "Quadratic",
    "Semidefinite",
    "DetConstraints",
    "CcpSpec",
    "split_data",
    "load_dataset_csv",
    "spec_from_obj",
    "split_quadratic_point",
    "split_semidefinite_point",
    "semidefinite_rhs_matrix",
    "Counts",
    "read_fields",
    "read_value",
    "frozen",
]


# ---------------------------------------------------------------------------
# Checks for outside data: every document reader, every record with array
# fields and every family or cone with a count goes through these

def read_fields(obj, what: str, allowed, required=()) -> dict:
    """obj itself, checked to be an object holding every required key and no
    key outside allowed."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InvalidArgumentError(f"unknown {what} field(s): {', '.join(unknown)}; "
                                   f"known: {', '.join(allowed) or 'none'}")
    for key in required:
        if key not in obj:
            raise InvalidArgumentError(f"{what} missing field {key!r}")
    return obj


_VALUE_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


def read_value(value, kind: type, what: str, least=None):
    """value as kind (int, float or str); a bool, a number given as a
    string or a fractional count is an error, not a cast, and so is a value
    below least, when given."""
    if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[kind]):
        raise InvalidArgumentError(f"{what} must be {kind.__name__}, got {value!r}")
    value = kind(value)
    if least is not None and value < least:
        raise InvalidArgumentError(f"{what} must be >= {least}, got {value}")
    return value


def frozen(value, what: str, ndim: int | None = None) -> np.ndarray:
    """A read-only float copy of value, checked finite and, given ndim, of
    that many dimensions."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{what} must be numeric: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise InvalidArgumentError(f"{what} must be a {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


class Counts:
    """Base of the frozen dataclasses whose every field is a count (row
    counts, cone sizes): each is read with read_value as an int >= 1 when
    the instance is built, so a NumPy integer is stored as int and a bool,
    a string or a fractional count is refused."""

    def __post_init__(self):
        for f in fields(self):
            what = f"{self.kind} {f.name!r}"
            object.__setattr__(self, f.name,
                               read_value(getattr(self, f.name), int, what, least=1))


@dataclass(frozen=True, eq=False)
class Dataset:
    """n observations of xi in R^m, one observation per row."""

    points: np.ndarray

    def __post_init__(self):
        arr = frozen(self.points, "Dataset.points")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise InvalidArgumentError(
                f"Dataset.points must be a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidArgumentError(
                "Dataset.points must have at least one row and one column")
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DataSplit:
    phase1: Dataset
    phase2: Dataset


def split_data(data: Dataset, n1: int, seed: int) -> DataSplit:
    """Partition rows into a shape-learning part (n1 rows) and a calibration part.

    The partition is a uniformly random subset draw controlled entirely by
    ``seed`` (PCG64 bit stream); row order within each part is the source
    order, so identical inputs reproduce identical splits bit for bit.

    Both parts hold at least one row: n1 must lie in [1, n - 1].
    """
    n1 = read_value(n1, int, "n1")
    if n1 < 1 or n1 >= data.n:
        raise InvalidArgumentError(f"n1 must lie in [1, {data.n - 1}], got {n1}")
    seed = read_value(seed, int, "split seed", least=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(data.n)
    return DataSplit(
        phase1=Dataset(data.points[np.sort(perm[:n1])]),
        phase2=Dataset(data.points[np.sort(perm[n1:])]),
    )


# ---------------------------------------------------------------------------
# Constraint families

@dataclass(frozen=True)
class JointLinear(Counts):
    """Ax <= b with A in R^{l x d}; xi = vec(A) (row concatenation)."""

    l: int
    kind = "joint_linear"

    def data_dim(self, d: int) -> int:
        return self.l * d

    def rhs_size(self) -> int:
        return self.l


@dataclass(frozen=True)
class SingleLinear(JointLinear):
    """xi'x <= b with xi in R^d: the one-row JointLinear."""

    l: int = field(default=1, init=False)
    kind = "single_linear"


@dataclass(frozen=True)
class Quadratic(Counts):
    """x'A'Ax - b'x - c <= rhs with stochastic (A, b, c), A in R^{q x d}.

    A data point is (vec(A), b, c) laid out as q*d + d + 1 reals.
    """

    q: int
    kind = "quadratic"

    def data_dim(self, d: int) -> int:
        return self.q * d + d + 1

    def rhs_size(self) -> int:
        return 1


@dataclass(frozen=True)
class Semidefinite(Counts):
    """B + sum_j xi_j x_j >= 0 (PSD) with xi_j in R^{p x p}.

    A data point stacks the d coefficient matrices vertically:
    vec([xi_1; ...; xi_d]) with d*p*p reals.  The rhs vector of the CcpSpec
    carries the constant matrix B, row-major (p*p entries).
    """

    p: int
    kind = "semidefinite"

    def data_dim(self, d: int) -> int:
        return d * self.p * self.p

    def rhs_size(self) -> int:
        return self.p * self.p


_FAMILY_KINDS = {
    "single_linear": SingleLinear,
    "joint_linear": JointLinear,
    "quadratic": Quadratic,
    "semidefinite": Semidefinite,
}


@dataclass(frozen=True, eq=False)
class DetConstraints:
    """Deterministic linear constraints A_ub x <= b_ub."""

    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        a = frozen(self.a_ub, "det constraints A_ub", 2)
        b = frozen(self.b_ub, "det constraints b_ub").reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise InvalidArgumentError("det constraints: A_ub rows must match b_ub length")
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)


@dataclass(frozen=True, eq=False)
class CcpSpec:
    """A chance-constrained program: min c'x s.t. P(safety) >= 1 - epsilon."""

    objective: np.ndarray
    family: JointLinear | Quadratic | Semidefinite
    rhs: np.ndarray            # per-row right-hand side; see family docstrings
    epsilon: float
    delta: float
    det: DetConstraints | None = None

    def __post_init__(self):
        c = frozen(self.objective, "objective").reshape(-1)
        if c.size < 1:
            raise InvalidArgumentError("objective must be a finite vector with d >= 1")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidArgumentError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidArgumentError(f"delta must be in (0,1), got {self.delta}")
        rhs = frozen(self.rhs, "rhs").reshape(-1)
        want = self.family.rhs_size()
        if rhs.size != want:
            raise InvalidArgumentError(
                f"rhs must have {want} entries for family {self.family.kind}, got {rhs.size}"
            )
        if self.det is not None and self.det.a_ub.shape[1] != c.size:
            raise InvalidArgumentError("det constraints column count must equal d")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rhs", rhs)

    @property
    def d(self) -> int:
        return self.objective.size

    @property
    def data_dim(self) -> int:
        """Dimension m of one uncertainty observation xi."""
        return self.family.data_dim(self.d)


# ---------------------------------------------------------------------------
# Matrix/vector layout owned here so all modules agree

def split_quadratic_point(v: np.ndarray, q: int, d: int):
    """(vec(A), b, c) layout -> (A: q x d, b: R^d, c: scalar)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != q * d + d + 1:
        raise InvalidArgumentError(f"quadratic point needs {q*d+d+1} entries, got {v.size}")
    a = v[: q * d].reshape(q, d)
    b = v[q * d : q * d + d]
    c = float(v[-1])
    return a, b, c


def split_semidefinite_point(v: np.ndarray, d: int, p: int) -> list[np.ndarray]:
    """Stacked coefficient layout -> list of d matrices, each p x p."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != d * p * p:
        raise InvalidArgumentError(f"semidefinite point needs {d*p*p} entries, got {v.size}")
    stacked = v.reshape(d * p, p)
    return [stacked[j * p : (j + 1) * p, :] for j in range(d)]


def semidefinite_rhs_matrix(spec: "CcpSpec") -> np.ndarray:
    """The constant matrix B stored row-major in a semidefinite spec's rhs."""
    if not isinstance(spec.family, Semidefinite):
        raise InvalidArgumentError("spec does not use the semidefinite family")
    p = spec.family.p
    return spec.rhs.reshape(p, p)


# ---------------------------------------------------------------------------
# I/O

def load_dataset_csv(path) -> Dataset:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidArgumentError(f"could not parse CSV dataset: {exc}") from exc
    return Dataset(arr)


def _family_from_obj(obj):
    """A family from {"kind", **fields}; the family reads its own counts.
    SingleLinear fixes its row count, so a single_linear document names none."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    cls = _FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidArgumentError(f"unknown constraint family kind: {kind!r}")
    names = [f.name for f in fields(cls) if f.init]
    params = read_fields(obj, f"{kind} family", ("kind", *names), names)
    return cls(**{name: params[name] for name in names})


_SPEC_FIELDS = ("objective", "family", "rhs", "epsilon", "delta")


def spec_from_obj(doc) -> CcpSpec:
    """The spec a parsed JSON document describes: objective, family, rhs,
    epsilon, delta and optionally det_constraints ({"A_ub", "b_ub"})."""
    read_fields(doc, "CcpSpec JSON", (*_SPEC_FIELDS, "det_constraints"), _SPEC_FIELDS)
    det = doc.get("det_constraints")
    if det is not None:
        read_fields(det, "det_constraints", ("A_ub", "b_ub"), ("A_ub", "b_ub"))
        det = DetConstraints(a_ub=det["A_ub"], b_ub=det["b_ub"])
    return CcpSpec(
        objective=doc["objective"],
        family=_family_from_obj(doc["family"]),
        rhs=doc["rhs"],
        epsilon=read_value(doc["epsilon"], float, "epsilon"),
        delta=read_value(doc["delta"], float, "delta"),
        det=det,
    )
