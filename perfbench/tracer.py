"""Per-layer spans recorded from outside the library.

`Tracer.install()` swaps timing wrappers into the module globals and class
attributes that `proxsqn.solver` (and the CLI) look up at call time, and
`restore()` puts the originals back. Spans nest: each wrapper adds its
duration to the enclosing span's child time, so a span's self time is its
duration minus the time of the wrapped calls inside it. Spans and counts are
kept in memory and summarised by `layer_metrics`.

This module imports nothing heavy at load time, so a child process can time
the package import before installing it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# module -> (attribute, span name) pairs; each attribute is a function the
# solver or CLI resolves through that module's globals at call time
_TARGETS = {
    "proxsqn.solver": [
        ("run", "solver.run"),
        ("reference_solution", "solver.reference"),
        ("composite_value", "solver.objective"),
        ("full_gradient", "model.full_gradient"),
        ("hessian_vec", "model.hessian_vec"),
        ("make_snapshot", "sampler.snapshot"),
        ("vr_gradient", "sampler.vr_gradient"),
        ("apply_inverse", "metric.apply_inverse"),
        ("build_metric", "metric.build"),
        ("metric_as_splitting", "metric.splitting"),
        ("prox", "prox.plain"),
    ],
    # make_snapshot's full gradient is looked up in the sampler module
    "proxsqn.sampler": [("full_gradient", "model.full_gradient")],
    # scaled_prox calls scaled_prox_info through the prox module's globals.
    # `proxsqn.prox` as an attribute of the package is the function prox,
    # so the module is fetched with importlib, never `import proxsqn.prox`.
    "proxsqn.prox": [("scaled_prox_info", "prox.scaled")],
    "proxsqn.dataio": [("generate_synthetic", "dataio.generate"),
                       ("parse_libsvm", "dataio.parse")],
    "proxsqn.cli": [("run_solver", "solver.run"),
                    ("reference_solution", "solver.reference"),
                    ("parse_libsvm", "dataio.parse")],
}


class Tracer:
    def __init__(self):
        # name -> [calls, total ns, self ns]
        self.spans: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            key = f"{name}.{args[2].kind.value}" if name == "solver.run" \
                else name
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = spans.setdefault(key, [0, 0, 0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if on_result is not None:
                on_result(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, on_result=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, orig, on_result))
        self._undo.append((owner, attr, orig))

    def install(self, with_cli: bool = False) -> "Tracer":
        hooks = {
            "solver.run": self._on_run,
            "prox.scaled": self._on_scaled,
            "metric.build": self._on_build,
            "model.hessian_vec": self._on_hessian,
        }
        for modname, attrs in _TARGETS.items():
            if modname == "proxsqn.cli" and not with_cli:
                continue
            mod = importlib.import_module(modname)
            for attr, name in attrs:
                self._patch(mod, attr, name, hooks.get(name))
        sampler = importlib.import_module("proxsqn.sampler")
        self._patch(sampler.Sampler, "draw", "sampler.draw")
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- counts read from results at the layer boundary

    def _on_run(self, args, result):
        cfg = args[2]
        if cfg.kind.value in ("prox_sqn", "prox_svrg"):
            self.counts["inner_steps"] += cfg.epochs * cfg.m
        self.counts["rebuilds"] += result.metric_rebuilds
        self.counts["anomalies"] += result.anomalies

    def _on_scaled(self, args, out):
        info = out[1]
        self.counts["root_evals"] += info.evaluations
        if info.method == "exact+bisect":
            self.counts["fallbacks"] += 1

    def _on_build(self, args, metric):
        if metric.skipped:
            self.counts["skipped"] += 1

    def _on_hessian(self, args, out):
        self.counts["hessian_rows"] += len(args[1])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# per-layer metric -> (span, unit): the mean duration of one call
_PER_CALL = {
    "prox.scaled_us": ("prox.scaled", "us"),
    "prox.plain_us": ("prox.plain", "us"),
    "sampler.draw_us": ("sampler.draw", "us"),
    "sampler.vr_gradient_us": ("sampler.vr_gradient", "us"),
    "sampler.snapshot_ms": ("sampler.snapshot", "ms"),
    "metric.build_us": ("metric.build", "us"),
    "metric.apply_inverse_us": ("metric.apply_inverse", "us"),
    "metric.splitting_us": ("metric.splitting", "us"),
    "model.hessian_vec_us": ("model.hessian_vec", "us"),
    "model.full_gradient_ms": ("model.full_gradient", "ms"),
    "solver.objective_ms": ("solver.objective", "ms"),
    "solver.reference_s": ("solver.reference", "s"),
    "dataio.generate_s": ("dataio.generate", "s"),
    "dataio.parse_s": ("dataio.parse", "s"),
}
# per-layer metric -> count kept by the hooks
_COUNTS = {
    "prox.fallbacks": "fallbacks",
    "metric.rebuilds": "rebuilds",
    "metric.skipped": "skipped",
    "metric.anomalies": "anomalies",
    "model.hessian_rows": "hessian_rows",
}
_NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}


def layer_metrics(dump: dict, overhead_s: float,
                  import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a tracer dump, as name -> (value, unit).

    solver.loop_self_us is the self time of the SQN and SVRG solver.run
    spans per inner step; the full-gradient baselines are left out.
    """
    spans, counts = dump["spans"], dump["counts"]
    out = {}
    for metric, (span, unit) in _PER_CALL.items():
        calls, total_ns, _ = spans.get(span, (0, 0, 0))
        out[metric] = (total_ns / calls / _NS_PER[unit] if calls else 0.0,
                       unit)
    for metric, key in _COUNTS.items():
        out[metric] = (counts.get(key, 0), "count")
    scaled_calls = spans.get("prox.scaled", (0,))[0]
    out["prox.root_evals"] = (counts.get("root_evals", 0) / scaled_calls
                              if scaled_calls else 0.0, "count")
    out["model.full_gradient_calls"] = (
        spans.get("model.full_gradient", (0,))[0], "count")
    steps = counts.get("inner_steps", 0)
    self_ns = sum(spans.get(f"solver.run.{kind}", (0, 0, 0))[2]
                  for kind in ("prox_sqn", "prox_svrg"))
    out["solver.loop_self_us"] = (self_ns / steps / 1e3 if steps else 0.0,
                                  "us")
    out["cli.import_s"] = (import_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
