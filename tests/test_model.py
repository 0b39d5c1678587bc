import json
from dataclasses import astuple

import numpy as np
import pytest

from roset import conic, harness, model
from roset.errors import InvalidArgumentError


def test_dataset_validation():
    d = model.Dataset([[1.0, 2.0], [3.0, 4.0]])
    assert d.n == 2 and d.m == 2
    with pytest.raises(InvalidArgumentError):
        model.Dataset([[np.nan, 1.0]])
    with pytest.raises(InvalidArgumentError):
        model.Dataset(np.empty((0, 3)))


def test_dataset_immutable():
    d = model.Dataset([[1.0, 2.0]])
    with pytest.raises(ValueError):
        d.points[0, 0] = 9.0


def test_split_all_rows_phase1():
    """n1 = n would leave Phase 2 without rows: an InvalidArgumentError.
    At n1 = n - 1 Phase 2 holds one row, and the parts partition the data."""
    d = model.Dataset(np.arange(20.0).reshape(10, 2))
    with pytest.raises(InvalidArgumentError, match=r"\[1, 9\]"):
        model.split_data(d, 10, seed=7)
    sp = model.split_data(d, 9, seed=7)
    assert (sp.phase1.n, sp.phase2.n) == (9, 1)
    merged = np.vstack([sp.phase1.points, sp.phase2.points])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, d.points))


def test_split_empty_phase1():
    """n1 = 0 would leave Phase 1 without rows: an InvalidArgumentError.
    At n1 = 1 Phase 1 holds one row, and the parts partition the data."""
    d = model.Dataset(np.arange(20.0).reshape(10, 2))
    with pytest.raises(InvalidArgumentError, match=r"\[1, 9\]"):
        model.split_data(d, 0, seed=7)
    sp = model.split_data(d, 1, seed=7)
    assert (sp.phase1.n, sp.phase2.n) == (1, 9)
    merged = np.vstack([sp.phase1.points, sp.phase2.points])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, d.points))


def test_split_deterministic():
    d = model.Dataset(np.random.default_rng(0).normal(size=(120, 3)))
    a = model.split_data(d, 60, seed=1)
    b = model.split_data(d, 60, seed=1)
    assert np.array_equal(a.phase1.points, b.phase1.points)
    assert np.array_equal(a.phase2.points, b.phase2.points)


def test_split_is_partition_and_preserves_order():
    rng = np.random.default_rng(3)
    d = model.Dataset(rng.normal(size=(37, 2)))
    for seed in (0, 1, 99):
        sp = model.split_data(d, 17, seed=seed)
        merged = np.vstack([sp.phase1.points, sp.phase2.points])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, d.points))
        # source order within each part: rows appear in increasing source index
        def source_positions(part):
            pos = []
            for row in part.points:
                matches = np.where((d.points == row).all(axis=1))[0]
                pos.append(matches[0])
            return pos
        assert source_positions(sp.phase1) == sorted(source_positions(sp.phase1))
        assert source_positions(sp.phase2) == sorted(source_positions(sp.phase2))


def test_split_n1_out_of_range():
    d = model.Dataset(np.zeros((5, 1)) + np.arange(5)[:, None])
    with pytest.raises(InvalidArgumentError):
        model.split_data(d, 6, seed=0)


def test_split_seed_must_be_a_nonnegative_int():
    """As the master seed of an experiment: a negative, fractional, boolean
    or string seed is an InvalidArgumentError, also through the pipelines
    that pass it through; a NumPy integer splits as the int it holds."""
    data = model.Dataset(np.arange(20.0).reshape(10, 2))
    spec = model.CcpSpec(objective=[-1.0, -1.0], family=model.SingleLinear(),
                         rhs=[10.0], epsilon=0.5, delta=0.5)
    for bad in (-1, 2.5, True, "3"):
        with pytest.raises(InvalidArgumentError, match="split seed"):
            model.split_data(data, 5, bad)
        with pytest.raises(InvalidArgumentError, match="split seed"):
            harness.two_phase_ro(spec, data, 5, bad, "ellipsoid", None)
        with pytest.raises(InvalidArgumentError, match="split seed"):
            harness.reconstruction_pipeline(data, spec, 5, seed=bad)
    split = model.split_data(data, 5, np.int64(7))
    assert np.array_equal(split.phase1.points, model.split_data(data, 5, 7).phase1.points)


@pytest.mark.parametrize("make, name", [
    (model.JointLinear, "'l'"), (model.Quadratic, "'q'"), (model.Semidefinite, "'p'"),
    (conic.Zero, "dim"), (conic.Nonneg, "dim"), (conic.SecondOrder, "dim"),
    (conic.PsdExportOnly, "side")])
def test_counts_are_read_when_a_family_or_cone_is_built(make, name):
    """A family's row count and a cone's size are read as document counts
    are: a fraction (even 2.0), a bool, a string or a count below 1 is an
    InvalidArgumentError naming the field; a NumPy integer is stored as int."""
    for bad in (2.5, 2.0, True, "3", 0, -1):
        with pytest.raises(InvalidArgumentError, match=name):
            make(bad)
    built = make(np.int64(2))
    (count,) = astuple(built)
    assert type(count) is int and count == 2 and built == make(2)


def test_ccp_spec_validation():
    spec = model.CcpSpec(
        objective=[-1.0, -2.0],
        family=model.SingleLinear(),
        rhs=[10.0],
        epsilon=0.05,
        delta=0.05,
    )
    assert spec.d == 2 and spec.data_dim == 2
    with pytest.raises(InvalidArgumentError):
        model.CcpSpec([-1.0], model.SingleLinear(), [1.0], epsilon=0.0, delta=0.5)
    with pytest.raises(InvalidArgumentError):
        model.CcpSpec([-1.0], model.SingleLinear(), [1.0], epsilon=0.5, delta=1.0)
    with pytest.raises(InvalidArgumentError):
        model.CcpSpec([-1.0, 0.0], model.JointLinear(l=3), [1.0, 2.0], epsilon=0.1, delta=0.1)


def test_family_data_dims():
    assert model.SingleLinear().data_dim(4) == 4
    assert isinstance(model.SingleLinear(), model.JointLinear)
    assert model.SingleLinear().l == 1
    assert model.JointLinear(l=3).data_dim(4) == 12
    assert model.Quadratic(q=4).data_dim(4) == 21
    assert model.Semidefinite(p=3).data_dim(2) == 18


def test_spec_json_roundtrip_exact():
    text = ('{"objective": [-1.25, 3.0, 0.1], "family": {"kind": "joint_linear", "l": 2},'
            ' "rhs": [10.0, -0.5], "epsilon": 0.05000000000000001, "delta": 1e-05,'
            ' "det_constraints": {"A_ub": [[-1.0, 0.0, 0.0]], "b_ub": [0.0]}}')
    back = model.spec_from_obj(json.loads(text))
    assert back.epsilon == 0.05000000000000001 and back.delta == 1e-5
    assert np.array_equal(back.objective, [-1.25, 3.0, 0.1])
    assert np.array_equal(back.rhs, [10.0, -0.5])
    assert isinstance(back.family, model.JointLinear) and back.family.l == 2
    assert np.array_equal(back.det.a_ub, [[-1.0, 0.0, 0.0]])


def test_spec_json_rejects_garbage():
    single = {"objective": [1.0], "family": {"kind": "single_linear"}, "rhs": [0.0],
              "epsilon": 0.1, "delta": 0.1}
    for bad in ("{not json", [1.0], {"objective": [1.0]},
                {**single, "family": {"kind": "mystery"}},
                {**single, "family": {"kind": "joint_linear"}},
                {**single, "det_constraints": {"A_ub": [[1.0]]}}):
        with pytest.raises(InvalidArgumentError):
            model.spec_from_obj(bad)
    # a misspelled optional key, a fractional row count, a string number and
    # an unknown family field are errors, not dropped or cast
    good = {"objective": [1.0, 2.0], "family": {"kind": "joint_linear", "l": 2},
            "rhs": [0.0, 1.0], "epsilon": 0.1, "delta": 0.1,
            "det_constraints": {"A_ub": [[-1.0, 0.0]], "b_ub": [0.0]}}
    assert model.spec_from_obj(good).family == model.JointLinear(l=2)
    # single_linear is the one-row joint_linear: its document names no count
    assert model.spec_from_obj(single).family == model.SingleLinear()
    misspelled = {("det_constraint" if k == "det_constraints" else k): v
                  for k, v in good.items()}
    for bad, match in (
            (misspelled, "det_constraint"),
            ({**good, "family": {"kind": "joint_linear", "l": 2.9}}, "'l'"),
            ({**good, "family": {"kind": "joint_linear", "l": True}}, "'l'"),
            ({**good, "family": {"kind": "joint_linear", "l": 2, "q": 1}}, "q"),
            ({**single, "family": {"kind": "single_linear", "l": 1}},
             "unknown single_linear family field"),
            ({**good, "epsilon": "0.1"}, "epsilon"),
            ({**good, "det_constraints": {**good["det_constraints"], "c": 1}}, "c")):
        with pytest.raises(InvalidArgumentError, match=match):
            model.spec_from_obj(bad)


def test_quadratic_point_layout():
    q, d = 2, 3
    v = np.arange(float(q * d + d + 1))
    a, b, c = model.split_quadratic_point(v, q, d)
    assert a.shape == (2, 3) and np.array_equal(a[1], [3, 4, 5])
    assert np.array_equal(b, [6, 7, 8]) and c == 9.0


def test_semidefinite_point_layout():
    blocks = model.split_semidefinite_point(np.arange(2 * 2 * 2.0), d=2, p=2)
    assert len(blocks) == 2
    assert np.array_equal(blocks[0], [[0, 1], [2, 3]])
    assert np.array_equal(blocks[1], [[4, 5], [6, 7]])


def test_csv_roundtrip(tmp_path):
    pts = np.array([[1.0 / 3.0, 2.0], [1e-17, -4.5]])
    path = tmp_path / "data.csv"
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")
    back = model.load_dataset_csv(path)
    assert np.array_equal(back.points, pts)  # decimal repr round-trips doubles


def test_csv_header_skip(tmp_path):
    # a dataset is numbers only: a header row is refused, not skipped
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(InvalidArgumentError, match="could not parse CSV"):
        model.load_dataset_csv(path)
