"""Timing spans around roset's layer entry points, for the traced run only.

``Tracer.install`` rebinds each layer's public function, under every name a
roset module reaches it by (``roset.calibrate.calibrate_size`` and the
``calibrate_size`` that ``roset.reformulate`` imported are the same
function), to a wrapper that records a span: name, start, end, op id and
parent span. Spans stay in memory until the run ends. A span's self time is
its duration minus the durations of its children; calls are nested and
single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.op"


def _solve_attrs(out, args, kwargs):
    prog = args[0] if args else kwargs["prog"]
    return {"rows": prog.n_rows, "vars": prog.n_vars,
            "soc": sum(1 for cone in prog.cones if cone.kind == "soc"),
            "iters": out.iterations, "optimal": out.status.value == "optimal"}


def _reconstruct_attrs(out, args, kwargs):
    return {"improved": bool(out.improved)}


# (module, attribute, span name, attributes read from the call)
LAYERS = (
    ("roset.conic", "solve", "conic.solve", _solve_attrs),
    ("roset.baselines", "sg_solve", "baselines.sg", None),
    ("roset.reformulate", "assemble_ro", "reformulate.assemble", None),
    ("roset.reformulate", "build_reconstruction_set", "reformulate.recset", None),
    ("roset.calibrate", "calibrate_size", "calibrate.size", None),
    ("roset.shapes", "build_prediction_set", "shapes.calibrate", None),
    ("roset.harness", "fit_shape", "shapes.fit", None),
    ("roset.model", "split_data", "model.split", None),
    ("roset.harness", "reconstruction_pipeline", "harness.reconstruct", _reconstruct_attrs),
    ("roset.harness", "mc_violation", "harness.evaluate", None),
    ("roset.harness", "gaussian_violation", "harness.evaluate", None),
    ("roset.harness", "Sampler.draw", "harness.draw", None),
)

SELF_MS_LAYERS = ("conic.solve", "baselines.sg", "reformulate.assemble",
                  "reformulate.recset", "calibrate.size", "shapes.calibrate",
                  "shapes.fit", "model.split", "harness.reconstruct",
                  "harness.evaluate", "harness.draw")


class Tracer:
    def __init__(self):
        # each span: [name, start, end, op, parent index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = None

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, self._op, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """The root span of one op; layer spans inside it share its id."""
        self._op = op_id
        span = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(span)
            self._op = None

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if attrs is not None:
                span[5] = attrs(out, args, kwargs)
            return out
        return traced

    def _rebind(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        roset_modules = [mod for key, mod in sys.modules.items()
                         if key == "roset" or key.startswith("roset.")]
        for module_name, attr, name, attrs in LAYERS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self._wrap(name, original, attrs)
            if path:  # a method: callers reach it through the class only
                self._rebind(owner, leaf, traced)
                continue
            for mod in roset_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, op, parent, attrs in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [span[2] - span[1] - c for span, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        """Per-op means of layer self times and counts, and ratios."""
        selfs = self.self_times()
        self_sum: dict = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, selfs):
            self_sum[span[0]] += own
            calls[span[0]] += 1
        ops = max(1, calls[ROOT_SPAN])
        op_s = sum(s[2] - s[1] for s in self.spans if s[0] == ROOT_SPAN)
        # a solve that raised has no attributes; the op counts as failed
        solves = [s for s in self.spans if s[0] == "conic.solve" and s[5]]
        n_solves = max(1, len(solves))
        iters = sum(s[5]["iters"] for s in solves)
        solve_s = sum(s[2] - s[1] for s in solves)
        improved = sum(1 for s in self.spans
                       if s[0] == "harness.reconstruct" and s[5] and s[5]["improved"])
        out = {f"{layer}.self_ms": 1e3 * self_sum[layer] / ops
               for layer in SELF_MS_LAYERS}
        out.update({
            "conic.solve.calls": len(solves) / ops,
            "ipm.iters": iters / n_solves,
            "ipm.ms_per_iter": 1e3 * solve_s / max(1, iters),
            "conic.rows": sum(s[5]["rows"] for s in solves) / n_solves,
            "conic.vars": sum(s[5]["vars"] for s in solves) / n_solves,
            "conic.soc_cones": sum(s[5]["soc"] for s in solves) / n_solves,
            "conic.optimal_ratio": sum(s[5]["optimal"] for s in solves) / n_solves,
            "harness.reconstruct.improved_ratio": improved / ops,
            "harness.draw.calls": calls["harness.draw"] / ops,
            "trace.op_ms": 1e3 * op_s / ops,
            "trace.covered_frac": 1.0 - self_sum[ROOT_SPAN] / op_s if op_s else 0.0,
        })
        return out

    def program_sizes(self) -> list[dict]:
        """Size of every program passed to conic.solve."""
        return [{k: s[5][k] for k in ("rows", "vars", "soc")}
                for s in self.spans if s[0] == "conic.solve" and s[5]]

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "op", "parent", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
