"""Command line interface: outputs, exit codes, determinism."""

import itertools
import json

import numpy as np
import pytest

from roset import calibrate, cli, harness as hz, model, shapes


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(123)
    mu = rng.uniform(1.0, 3.0, size=5)
    raw = rng.normal(size=(5, 5)) * 0.3
    sigma = raw @ raw.T + 0.5 * np.eye(5)
    spec = model.CcpSpec(objective=-mu, family=model.SingleLinear(),
                         rhs=[10.0], epsilon=0.05, delta=0.05)
    spec_path = root / "p.json"
    spec_path.write_text(model.spec_to_json(spec))
    sampler = hz.gaussian_sampler(mu, sigma)
    data = sampler.draw(np.random.default_rng(7), 120)
    data_path = root / "d.csv"
    np.savetxt(data_path, data, delimiter=",", fmt="%.17g")
    cfg = hz.ExperimentConfig(spec=spec, sampler=sampler, method="ro",
                              n=120, n1=60)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(hz.config_to_obj(cfg)))

    spec_q = model.CcpSpec(objective=np.ones(2), family=model.Quadratic(q=2),
                           rhs=[1.0], epsilon=0.1, delta=0.1,
                           det=model.DetConstraints(a_ub=np.eye(2),
                                                    b_ub=[5.0, 5.0]))
    specq_path = root / "pq.json"
    specq_path.write_text(model.spec_to_json(spec_q))
    ptsq = hz.quadratic_wishart_sampler(2, q=2.0).draw(
        np.random.default_rng(0), 80)
    dataq_path = root / "dq.csv"
    np.savetxt(dataq_path, ptsq, delimiter=",", fmt="%.17g")
    return {"root": root, "spec": str(spec_path), "data": str(data_path),
            "config": str(cfg_path), "spec_q": str(specq_path),
            "data_q": str(dataq_path), "objective": -mu}


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_example(capsys):
    code, out, _ = run_cli(capsys, ["calibrate", "--eps", "0.05",
                                    "--delta", "0.05", "--n2", "59"])
    assert code == 0
    doc = json.loads(out)
    assert doc["i_star"] == 59
    assert doc["i_lower"] == 53
    assert doc["min_n2"] == 59
    assert doc["confidence"] == pytest.approx(0.9515054747505769, abs=1e-12)


def test_calibrate_reads_confidence_off_the_upper_rank_table(capsys, monkeypatch):
    """One pmf table for i* and its confidence, one for i_lower; the printed
    confidence is P(Bin(n2, 1-eps) <= i*-1) to the last bit."""
    calls = []
    pmf = calibrate._pmf

    def counted(*args):
        calls.append(args)
        return pmf(*args)

    monkeypatch.setattr(calibrate, "_pmf", counted)
    for n2, eps, delta in itertools.product((59, 60, 137, 1000, 4099),
                                            (0.05, 0.1, 0.3), (0.01, 0.05, 0.2)):
        if n2 < calibrate.min_phase2_size(eps, delta):
            continue
        calls.clear()
        code, out, _ = run_cli(capsys, ["calibrate", "--eps", str(eps), "--delta",
                                        str(delta), "--n2", str(n2)])
        assert code == 0
        doc = json.loads(out)
        assert len(calls) == 1 + (doc["i_lower"] is not None), (n2, eps, delta)
        assert doc["confidence"] == calibrate.binom_cdf(doc["i_star"] - 1, n2, 1.0 - eps)


def test_calibrate_rejects_small_n2(capsys):
    code, out, err = run_cli(capsys, ["calibrate", "--eps", "0.05",
                                      "--delta", "0.05", "--n2", "10"])
    assert code == 1
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]["type"] == "InfeasibleCalibrationError"
    assert "59" in doc["error"]["message"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["calibrate", "--eps", "0.05"])  # missing required flags
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["fit", "--data", "x.csv", "--shape-options", "{bad"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:  # replications run sequentially
        cli.main(["experiment", "--config", "cfg.json", "--jobs", "2"])
    assert info.value.code == 2
    capsys.readouterr()
    for command in ("solve", "reconstruct", "export", "experiment"):
        flags = (["--config", "cfg.json"] if command == "experiment"
                 else ["--spec", "spec.json", "--data", "x.csv"])
        with pytest.raises(SystemExit) as info:  # a seed is never negative
            cli.main([command, *flags, "--seed", "-1"])
        assert info.value.code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# table1


def test_table1_frozen_cells(capsys):
    code, out, _ = run_cli(capsys, ["table1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,delta,ro,sg_d5,sg_d11,sg_d50,sg_d100"
    assert len(lines) == 13
    rows = {tuple(ln.split(",")[:2]): ln.split(",")[2:] for ln in lines[1:]}
    assert rows[("0.05", "0.05")] == ["59", "181", "336", "1237", "2331"]
    assert rows[("0.001", "0.05")] == ["2995", "9151", "16959", "62165",
                                       "116989"]
    assert rows[("0.2", "0.05")][:2] == ["14", "44"]
    assert rows[("0.05", "1e-05")] == ["225", "405", "613", "1703", "2945"]


def test_table1_custom_dims(capsys):
    code, out, _ = run_cli(capsys, ["table1", "--dims", "1,5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,delta,ro,sg_d1,sg_d5"
    # d=1 scenario counts coincide with the two-phase minimum size
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[2] == cells[3]


# ---------------------------------------------------------------------------
# solve / export / reconstruct


def test_solve_example_and_determinism(capsys, fixtures):
    argv = ["solve", "--spec", fixtures["spec"], "--data", fixtures["data"],
            "--shape", "ellipsoid", "--split", "0.5", "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    x = np.array(doc["x"])
    assert x.shape == (5,)
    assert doc["objective"] == pytest.approx(float(fixtures["objective"] @ x))
    assert doc["calibration"]["i_star"] == 60
    assert doc["calibration"]["n2"] == 60
    assert "split 120 rows into 60" in err
    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0 and out2 == out  # byte-identical stdout
    _, out3, _ = run_cli(capsys, argv[:-1] + ["2"])
    assert out3 != out  # a different seed moves the split


def test_solve_with_a_large_rhs_is_optimal(capsys, tmp_path):
    # the robust program is bounded and feasible at every rhs, and its
    # optimum scales with the rhs; at 1e9 the ray residual, once divided by
    # max(1, |h|), certified it unbounded
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(0).normal(1.0, 0.3, (140, 2)),
               delimiter=",")
    objective = {}
    for rhs in (10.0, 1e9):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({
            "objective": [-1.0, -1.0], "family": {"kind": "single_linear"},
            "rhs": [rhs], "epsilon": 0.05, "delta": 0.05}))
        code, out, _ = run_cli(capsys, ["solve", "--spec", str(spec), "--data", str(data)])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        objective[rhs] = doc["objective"]
    assert objective[1e9] == pytest.approx(1e8 * objective[10.0], rel=1e-8)


def test_solve_conic_family_points_to_export(capsys, fixtures):
    argv = ["solve", "--spec", fixtures["spec_q"], "--data",
            fixtures["data_q"], "--split", "0.5", "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]["type"] == "ExportOnlyProgramError"


def test_export_json_and_sdpa(capsys, fixtures, tmp_path):
    argv = ["export", "--spec", fixtures["spec"], "--data", fixtures["data"],
            "--split", "0.5", "--seed", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "conic-program"
    assert any(c["type"] == "soc" for c in doc["cones"])
    code2, out2, _ = run_cli(capsys, argv)
    assert out2 == out

    sdpa_argv = ["export", "--spec", fixtures["spec_q"], "--data",
                 fixtures["data_q"], "--split", "0.5", "--seed", "1",
                 "--format", "sdpa"]
    code, out, _ = run_cli(capsys, sdpa_argv)
    assert code == 0
    first = out.split("\n", 1)[0]
    assert int(first) >= 3  # variable count heads the file

    out_file = tmp_path / "prog.dat-s"
    code, out, err = run_cli(capsys, sdpa_argv + ["--out", str(out_file)])
    assert code == 0
    assert out == ""  # file output leaves stdout clean
    assert out_file.read_text().split("\n", 1)[0] == first
    assert str(out_file) in err


def test_reconstruct_improves(capsys, fixtures):
    argv = ["reconstruct", "--spec", fixtures["spec"], "--data",
            fixtures["data"], "--split", "0.5", "--seed", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["status_initial"] == "optimal"
    assert doc["status_reconstructed"] == "optimal"
    if doc["rho"] <= 0:
        assert (doc["objective_reconstructed"]
                <= doc["objective_initial"] + 1e-8)
    assert len(doc["x_tilde"]) == 5
    assert doc["scale_fallback_rows"] == []


def test_fit_round_trips(capsys, fixtures):
    code, out, _ = run_cli(capsys, ["fit", "--data", fixtures["data"],
                                    "--shape", "ball"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ball" and doc["rows"] == 120
    shape = shapes.shape_from_obj(doc["shape"])
    assert shapes.transform_values(shape, np.zeros((1, 5))).shape == (1,)


@pytest.mark.parametrize("shape, options, word", [
    ("pca", '{"variance_kep": 0.9}', "variance_kep"),
    ("box_grid", None, "width"),
    ("cluster_union", '{"kk": 3}', "kk"),
])
def test_fit_bad_shape_options_are_domain_errors(capsys, fixtures, shape,
                                                 options, word):
    argv = ["fit", "--data", fixtures["data"], "--shape", shape]
    if options is not None:
        argv += ["--shape-options", options]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]["type"] == "InvalidArgumentError"
    assert word in doc["error"]["message"]


# ---------------------------------------------------------------------------
# experiment


def test_experiment_runs_and_is_deterministic(capsys, fixtures, tmp_path):
    argv = ["experiment", "--config", fixtures["config"], "--reps", "5",
            "--seed", "3"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["aggregates"]["replications"] == 5
    assert doc["aggregates"]["failures"] == 0
    assert doc["aggregates"]["delta_hat"] == 0.0
    assert doc["config"]["method"] == "ro"
    assert doc["aggregates"]["statuses"] == {"optimal": 5}
    assert "running 5 replications" in err

    rec_file = tmp_path / "records.csv"
    code, out3, _ = run_cli(capsys, argv + ["--records-csv", str(rec_file)])
    assert code == 0 and out3 == out
    lines = rec_file.read_text().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("replication,status,objective")


def test_solve_malformed_spec_is_domain_error(capsys, fixtures, tmp_path):
    bad = tmp_path / "bad_spec.json"
    bad.write_text('{"objective": [1.0], "family": {"kind": "joint_linear"},'
                   ' "rhs": [0.0], "epsilon": 0.1, "delta": 0.1}')
    code, out, err = run_cli(capsys, ["solve", "--spec", str(bad),
                                      "--data", fixtures["data"]])
    assert code == 1 and out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]["type"] == "InvalidArgumentError"


def test_experiment_bad_config_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, ["experiment", "--config", str(bad)])
    assert code == 1 and out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]["type"] == "RosetError"


def test_experiment_config_checks_happen_on_load(capsys, fixtures, tmp_path):
    with open(fixtures["config"], encoding="utf-8") as f:
        cfg = json.load(f)
    for change in ({"n": 70},  # n2 = 10 < 59
                   {"shape": "box_grid"},
                   {"shape": "cluster_union", "shape_options": {"kk": 3}}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **change}))
        code, out, err = run_cli(capsys, ["experiment", "--config", str(path)])
        assert code == 1 and out == ""
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"]["type"] == "InvalidArgumentError"
        assert "running" not in err


def test_missing_file_is_domain_error(capsys):
    code, out, err = run_cli(capsys, ["fit", "--data", "/nonexistent/x.csv"])
    assert code == 1
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]["type"] == "FileNotFoundError"
