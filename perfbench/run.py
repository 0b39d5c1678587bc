"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 30 --trace 0

Ops run in a closed loop, one at a time, in this one Python thread, for
``--seconds``; each op's input was drawn in set-up from ``--seed``. After
the loop every op's output goes through the workload's correctness oracle.
With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` the workload runs untraced and then traced, half the time
each, and the result carries the per-layer metrics from the traced half.

The last line of stdout is the result object; the line before it is the
run record (machine, program sizes, failures, informational outputs), also
written to ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a 2-core machine a second BLAS thread gains nothing at
# these matrix sizes and makes each op wait on whichever core another
# process holds. Set before numpy loads; an explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("replicate", "scenario_lp", "union_ro")
# fresh processes timed per run for setup_s; the metric is their median
SETUP_REPS = 5
# probes timed on each side of a set-up process, to scale its time
SETUP_PROBES = 3
# untimed ops before the loop, so lazy imports and first-call costs are paid
WARMUP_OPS = 2
# pool inputs the informational outputs are computed over
OUTPUT_INPUTS = 50
# the speed every time metric is scaled to: the probe's typical median time
# on the machine the benchmark was written on (2-vCPU Xeon VM at 2.1 GHz,
# OpenBLAS 0.3.31 on one thread, Python 3.11)
PROBE_NOMINAL_MS = 4.0
# probes on each side of an op whose median scales it
LOCAL_PROBES = 8

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "conic.solve.self_ms": "ms",
    "conic.solve.calls": "count/op",
    "ipm.iters": "iter",
    "ipm.ms_per_iter": "ms/iter",
    "conic.rows": "rows",
    "conic.vars": "vars",
    "conic.soc_cones": "cones",
    "conic.optimal_ratio": "1",
    "reformulate.assemble.self_ms": "ms",
    "reformulate.recset.self_ms": "ms",
    "baselines.sg.self_ms": "ms",
    "shapes.fit.self_ms": "ms",
    "shapes.calibrate.self_ms": "ms",
    "calibrate.size.self_ms": "ms",
    "model.split.self_ms": "ms",
    "harness.reconstruct.self_ms": "ms",
    "harness.reconstruct.improved_ratio": "1",
    "harness.evaluate.self_ms": "ms",
    "harness.draw.self_ms": "ms",
    "harness.draw.calls": "count/op",
    "trace.op_ms": "ms",
    "trace.covered_frac": "1",
    "trace.overhead_frac": "1",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the timed loop (at least one op runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the wall-clock time, and exit "
                         "(used to time set-up in a fresh process)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _time_setups(args, probe) -> tuple[list[float], list[float]]:
    """Process start to end of set-up, in fresh interpreters.

    Returns the times as measured and at the probe's nominal speed, each
    scaled by the probes run just before and after its process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        around = [probe() for _ in range(SETUP_PROBES)]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                              check=True)
        raw.append(float(proc.stdout.split()[-1]) - start)
        around += [probe() for _ in range(SETUP_PROBES)]
        scaled.append(raw[-1] * PROBE_NOMINAL_MS / (1e3 * statistics.median(around)))
    return raw, scaled


class Probe:
    """A fixed piece of work timed after every op, to gauge the machine's speed.

    On a shared machine the speed of the same code drifts by 10-25% over
    seconds to minutes, with the load of other tenants. The probe mixes
    the two kinds of work the ops do, a dense LAPACK solve and interpreted
    Python, so its time drifts with theirs. Op times are reported at the
    probe's nominal speed: scaled by ``PROBE_NOMINAL_MS`` / the probe time
    around the op. The probe is not roset code, so a change to roset moves
    the scaled times in full.
    """

    def __init__(self):
        m = np.random.default_rng(0).normal(size=(400, 400))
        self.a = m @ m.T + 400.0 * np.eye(400)
        self.b = np.ones((400, 2))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.linalg.solve(self.a, self.b)
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        return time.perf_counter() - t0


def _loop(wl, probe, seconds: float, tracer=None):
    """Closed loop over the input pool, with one probe after each op.

    Returns [(pool index, output)], op latencies and probe times.
    """
    results, latencies, probes = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(wl.inputs)
        ctx = tracer.op(i) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                out = wl.op(wl.inputs[k])
        except Exception as exc:  # a raising op is a failed op; the run goes on
            out = exc
        t1 = time.perf_counter()
        results.append((k, out))
        latencies.append(t1 - t0)
        probes.append(probe())
        i += 1
        if time.perf_counter() - start >= seconds:
            return results, latencies, probes


def _scaled_ms(latencies, probes) -> np.ndarray:
    """Latencies in ms at the probe's nominal speed.

    Each op is scaled by the median of the probes run around it, so the
    scale follows the machine's speed through the run.
    """
    p = np.asarray(probes)
    local = np.array([np.median(p[max(0, i - LOCAL_PROBES): i + LOCAL_PROBES + 1])
                      for i in range(p.size)])
    return np.asarray(latencies) / local * PROBE_NOMINAL_MS


def _judge(wl, results):
    """Oracle verdicts: (failure kind, reason) or None per op."""
    verdicts = []
    for k, out in results:
        if isinstance(out, Exception):
            verdicts.append(("error", f"{type(out).__name__}: {out}"))
        else:
            verdicts.append(wl.check(wl.inputs[k], out))
    return verdicts


def _outputs(wl, results, verdicts) -> dict:
    """Informational outputs over the first OUTPUT_INPUTS pool inputs that ran.

    A fixed set of inputs, so that runs of different speed compare.
    """
    scored = {}
    for (k, out), verdict in zip(results, verdicts):
        if verdict is None and k < OUTPUT_INPUTS and k not in scored:
            scored[k] = wl.score(out)
    if not scored:
        return {"instances": 0}
    objs = [obj for obj, _ in scored.values()]
    viols = [viol for _, viol in scored.values()]
    return {"instances": len(scored),
            "mean_objective": statistics.fmean(objs),
            "eps_hat": statistics.fmean(viols),
            "delta_hat": sum(v > wl.spec.epsilon for v in viols) / len(viols)}


def _program_sizes(wl) -> list[dict]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.op(wl.inputs[0])
    finally:
        tracer.uninstall()
    return tracer.program_sizes()


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def _machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
    }


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "roset" / "__init__.py").is_file():
        print(f"perfbench: no roset source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(time.time()))
        return 0

    probe = Probe()
    setup_raw = setup_scaled = []
    if not args.trace:
        setup_raw, setup_scaled = _time_setups(args, probe)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    for i in range(WARMUP_OPS):
        wl.op(wl.inputs[i % len(wl.inputs)])
        probe()

    tracer = None
    if args.trace:
        results, latencies, probes = _loop(wl, probe, args.seconds / 2)
        plain_ms = _scaled_ms(latencies, probes)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_latencies, traced_probes = _loop(
                wl, probe, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        # layer times are scaled by the traced half's median probe time
        scale = PROBE_NOMINAL_MS / (1e3 * statistics.median(traced_probes))
        values = {name: value * scale if PER_LAYER_UNITS[name].startswith("ms") else value
                  for name, value in tracer.layer_metrics().items()}
        values["trace.overhead_frac"] = (
            _scaled_ms(traced_latencies, traced_probes).mean() / plain_ms.mean() - 1.0)
        results += traced
        latencies += traced_latencies
        probes += traced_probes
    else:
        results, latencies, probes = _loop(wl, probe, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = _judge(wl, results)
    failures = [v for v in verdicts if v is not None]
    if not args.trace:
        op_ms = _scaled_ms(latencies, probes)
        values = {
            "ops_per_s": 1e3 * len(op_ms) / op_ms.sum(),
            "op_ms_p50": float(np.percentile(op_ms, 50)),
            "op_ms_p90": float(np.percentile(op_ms, 90)),
            "setup_s": statistics.median(setup_scaled),
            "ok_frac": 1.0 - len(failures) / len(results),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = _metric_block(values, PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(results),
        # figures as measured, before scaling to the probe's nominal speed
        "probe_ms_median": 1e3 * statistics.median(probes),
        "raw": {"ops_per_s": len(latencies) / sum(latencies),
                "op_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
                "op_ms_p90": 1e3 * float(np.percentile(latencies, 90))},
        "load": "closed loop, one op at a time, one Python thread",
        "failures": {kind: sum(1 for f in failures if f[0] == kind)
                     for kind in ("error", "status", "wrong")},
        "failure_examples": [list(f) for f in failures[:5]],
        "setup_s_samples": setup_scaled,
        "setup_s_raw_samples": setup_raw,
        "program_sizes": _program_sizes(wl),
        "outputs": _outputs(wl, results, verdicts),
        "machine": _machine(),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}.spans.jsonl")

    # an optimal-status answer that fails its oracle is wrong; errors and
    # non-optimal statuses are failures but not wrong answers
    correct = not any(kind == "wrong" for kind, _ in failures)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
