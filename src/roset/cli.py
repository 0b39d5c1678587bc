"""Command line interface.

Subcommands:

calibrate    order-statistic rank and coverage numbers for a Phase-2 size
fit          learn an uncertainty-set shape from a data file
solve        two-phase robust solve: split, fit, calibrate, reformulate
reconstruct  initial solve plus margin-based set reconstruction
table1       sample-size comparison grid as CSV
experiment   replicated Monte Carlo runs from a config file
export       write the reformulated conic program (sdpa or json)

Results are printed to stdout as JSON (table1 prints CSV; export prints
the serialized program). Progress notes go to stderr. Exit status 0 on
success, 1 on domain errors (with a JSON error object on stderr), 2 on
usage errors. Identical flags and inputs produce byte-identical stdout;
randomness enters only through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import baselines, calibrate, conic, harness, model, shapes
from .errors import InfeasibleCalibrationError, RosetError

TABLE_PAIRS = (
    (0.05, 0.2), (0.05, 0.1), (0.05, 0.05), (0.05, 0.01), (0.05, 0.005),
    (0.05, 0.001), (0.05, 0.00001),
    (0.2, 0.05), (0.1, 0.05), (0.05, 0.05), (0.01, 0.05), (0.001, 0.05),
)
TABLE_DIMS = (5, 11, 50, 100)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_flag(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from exc


def _seed_flag(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_spec(path: str) -> model.CcpSpec:
    return model.spec_from_json(_read_text(path))


def _split_sizes(n: int, split: float) -> int:
    if not 0.0 < split < 1.0:
        raise RosetError(f"--split must lie in (0, 1); got {split}")
    return int(n * split)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_calibrate(args) -> int:
    n2 = args.n2
    min_n2 = calibrate.min_phase2_size(args.eps, args.delta)
    i_star, confidence = calibrate.upper_rank_confidence(n2, args.eps, args.delta)
    try:
        i_lower = calibrate.calib_index_lower(n2, args.eps, args.delta)
    except InfeasibleCalibrationError:
        i_lower = None
    _emit({
        "i_star": i_star,
        "i_lower": i_lower,
        "n2": n2,
        "epsilon": args.eps,
        "delta": args.delta,
        "min_n2": min_n2,
        "confidence": confidence,
    })
    return 0


def _cmd_fit(args) -> int:
    data = model.load_dataset_csv(args.data)
    pts = data.points
    _log(f"fitting {args.shape} on {pts.shape[0]} rows of dimension {pts.shape[1]}")
    fitted = harness.fit_shape(args.shape, pts, args.shape_options)
    _emit({
        "kind": args.shape,
        "rows": int(pts.shape[0]),
        "shape": shapes.shape_to_obj(fitted),
    })
    return 0


def _assemble(args):
    """Shared two-phase front half: split, fit, calibrate, reformulate."""
    spec = _load_spec(args.spec)
    data = model.load_dataset_csv(args.data)
    n = data.points.shape[0]
    n1 = _split_sizes(n, args.split)
    _log(f"split {n} rows into {n1} Phase-1 / {n - n1} Phase-2 (seed {args.seed})")
    rp = harness.two_phase_ro(spec, data, n1, args.seed, args.shape,
                              args.shape_options)
    _log(f"calibrated size {rp.set.size:.6g} at rank {rp.set.calib.i_star} "
         f"of {rp.set.calib.n2}")
    return rp


def _cmd_solve(args) -> int:
    rp = _assemble(args)
    spec, pset = rp.spec, rp.set
    status, x, _ = harness._solved(spec, conic.solve(rp.program))
    _emit({
        "status": status,
        "objective": None if x is None else float(spec.objective @ x),
        "x": None if x is None else x.tolist(),
        "calibration": {
            "i_star": pset.calib.i_star,
            "s": pset.calib.s,
            "n2": pset.calib.n2,
            "tie_warning": pset.calib.tie_warning,
        },
        "shape": args.shape,
        "epsilon": spec.epsilon,
        "delta": spec.delta,
    })
    return 0


def _cmd_reconstruct(args) -> int:
    spec = _load_spec(args.spec)
    data = model.load_dataset_csv(args.data)
    n1 = _split_sizes(data.points.shape[0], args.split)
    rec = harness.reconstruction_pipeline(
        data, spec, n1, seed=args.seed, shape=args.shape,
        shape_options=args.shape_options, scale=args.scale)
    _emit({
        "status_initial": rec.status_initial,
        "status_reconstructed": rec.status_reconstructed,
        "objective_initial": rec.obj_hat,
        "objective_reconstructed": rec.obj_tilde,
        "rho": rec.rho,
        "x_hat": None if rec.x_hat is None else rec.x_hat.tolist(),
        "x_tilde": None if rec.x_tilde is None else rec.x_tilde.tolist(),
        "scale": None if rec.scale is None else np.asarray(rec.scale).tolist(),
        "scale_fallback_rows": list(rec.scale_fallback_rows),
    })
    return 0


def _cmd_table1(args) -> int:
    import csv as _csv
    import io as _io

    dims = args.dims
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["epsilon", "delta", "ro"] + [f"sg_d{d}" for d in dims])
    for eps, delta in TABLE_PAIRS:
        row = [repr(eps), repr(delta), calibrate.min_phase2_size(eps, delta)]
        row += [baselines.sg_min_size(eps, delta, d) for d in dims]
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())
    return 0


def _cmd_experiment(args) -> int:
    try:
        obj = json.loads(_read_text(args.config))
    except json.JSONDecodeError as exc:
        raise RosetError(f"invalid experiment config JSON: {exc}") from exc
    config = harness.config_from_obj(obj)
    _log(f"running {args.reps} replications of {config.method} "
         f"(n={config.n}, seed={args.seed})")
    report = harness.run_replications(config, args.reps, args.seed)
    if args.records_csv:
        with open(args.records_csv, "w", encoding="utf-8") as fh:
            fh.write(harness.report_to_csv(report))
        _log(f"wrote per-replication records to {args.records_csv}")
    sys.stdout.write(harness.report_to_json(report) + "\n")
    return 0


def _cmd_export(args) -> int:
    rp = _assemble(args)
    text = conic.export(rp.program, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _log(f"wrote {args.format} program to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_two_phase_flags(sub, with_scale=False):
    sub.add_argument("--spec", required=True, help="CCP spec JSON file")
    sub.add_argument("--data", required=True, help="observation CSV file")
    sub.add_argument("--shape", default="ellipsoid",
                     choices=harness.SHAPE_KINDS)
    sub.add_argument("--shape-options", type=_json_flag, default=None,
                     help="shape fitting options as inline JSON")
    sub.add_argument("--split", type=float, default=0.5,
                     help="Phase-1 fraction; n1 = floor(n * split)")
    sub.add_argument("--seed", type=_seed_flag, default=0,
                     help="seed for the data split")
    if with_scale:
        sub.add_argument("--scale", default="auto",
                         choices=harness.SCALE_POLICIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roset",
        description="Learning-based robust optimization for chance "
                    "constrained programs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("calibrate", help="Phase-2 order-statistic rank")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = subs.add_parser("fit", help="fit an uncertainty-set shape")
    p.add_argument("--data", required=True)
    p.add_argument("--shape", default="ellipsoid", choices=harness.SHAPE_KINDS)
    p.add_argument("--shape-options", type=_json_flag, default=None)
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("solve", help="two-phase robust solve")
    _add_two_phase_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("reconstruct", help="solve with set reconstruction")
    _add_two_phase_flags(p, with_scale=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = subs.add_parser("table1", help="sample-size comparison CSV")
    p.add_argument("--dims", type=lambda s: tuple(int(t) for t in s.split(",")),
                   default=TABLE_DIMS,
                   help="comma-separated scenario dimensions")
    p.set_defaults(func=_cmd_table1)

    p = subs.add_parser("experiment", help="replicated Monte Carlo runs")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.add_argument("--records-csv", default=None,
                   help="also write per-replication records to this file")
    p.set_defaults(func=_cmd_experiment)

    p = subs.add_parser("export", help="serialize the conic program")
    _add_two_phase_flags(p)
    p.add_argument("--format", default="json", choices=("sdpa", "json"),
                   help="json is lossless; sdpa covers zero/nonneg/psd cones")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RosetError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
