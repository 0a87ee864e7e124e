"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of the ``qboson`` modules while it is
installed, records one span per call (name, start, end, parent) in
memory, and turns each pass's spans into per-layer counts and times.  A
function is patched under every name any ``qboson`` module holds it by,
because some modules import it by name.  ``import_times`` reads
``python -X importtime`` output for the set-up layer.
"""

from __future__ import annotations

import statistics
import sys
import time

# (layer.function, module, attribute path); methods patch the class
TARGETS = (
    ("numerics.pow", "numerics", "TruncSeries.pow"),
    ("numerics.mul", "numerics", "TruncSeries.mul"),
    ("numerics.verify", "numerics", "verify_at_double_precision"),
    ("stationary.compute_stationary", "stationary", "compute_stationary"),
    ("stationary.phi_coefficients", "stationary", "phi_coefficients"),
    ("cumulants.delta_exact_resummed", "cumulants", "delta_exact_resummed"),
    ("oracle.build_generator", "oracle", "build_generator"),
    ("oracle.lambda_derivatives", "oracle", "lambda_derivatives"),
    ("simulate.initial_config", "simulate", "initial_config"),
    ("simulate.run_trajectory", "simulate", "run_trajectory"),
    ("tq.build_first_order", "tq", "build_first_order"),
    ("tq.verify_first_order", "tq", "verify_first_order"),
    ("asymptotics.saddle_point", "asymptotics", "saddle_point"),
    ("asymptotics.saddle_data", "asymptotics", "saddle_data"),
    ("asymptotics.crossover_prediction", "asymptotics",
     "crossover_prediction"),
    ("cli.main", "cli", "main"),
)

# The float oracle holds these dense states x states float64 arrays at
# once: the jump matrix, diag(R), L and the bordered system.
DENSE_FLOAT_MATRICES = 4

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "numerics.pow.calls": "count", "numerics.pow.s": "s",
    "numerics.mul.calls": "count", "numerics.mul.s": "s",
    "numerics.verify.calls": "count", "numerics.verify.s": "s",
    "stationary.compute_stationary.calls": "count",
    "stationary.compute_stationary.s": "s",
    "stationary.phi_coefficients.s": "s",
    "cumulants.delta_exact_resummed.calls": "count",
    "cumulants.delta_exact_resummed.self_s": "s",
    "oracle.build_generator.s": "s", "oracle.states": "count",
    "oracle.lambda_derivatives.self_s": "s",
    "oracle.dense_bytes_computed": "bytes",
    "simulate.initial_config.s": "s", "simulate.run_trajectory.calls": "count",
    "simulate.run_trajectory.s": "s", "simulate.events": "count",
    "simulate.kernel_events_per_s": "1/s",
    "tq.build_first_order.s": "s", "tq.verify_first_order.s": "s",
    "asymptotics.saddle_point.calls": "count",
    "asymptotics.saddle_data.s": "s",
    "asymptotics.crossover_prediction.s": "s",
    "cli.main.calls": "count", "cli.main.self_s": "s",
    "setup.import.scipy_s": "s", "setup.import.mpmath_s": "s",
    "setup.import.numpy_s": "s", "setup.import.qboson_s": "s",
    "trace.overhead_s": "s",
}

# counts must repeat exactly from pass to pass; the rest are medians
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS.items()
                     if unit in ("count", "bytes"))


class Tracer:
    def __init__(self):
        self.spans: list = []   # [pass, name, start, end, parent index]
        self.stack: list = []
        self.counters: list = []  # [pass, counter name, value]
        self.pass_id = 0
        self._patched: list = []

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            span = [tracer.pass_id, name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            tracer._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result):
        if name == "simulate.run_trajectory":
            self.counters.append([self.pass_id, "simulate.events",
                                  result.events])
        elif name == "oracle.lambda_derivatives":
            self.counters.append([self.pass_id, "oracle.states", result.size])
            if not args[0].backend.exact:
                self.counters.append(
                    [self.pass_id, "oracle.dense_bytes_computed",
                     DENSE_FLOAT_MATRICES * 8 * result.size ** 2])

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "qboson" or key.startswith("qboson.")]
        for name, module_name, path in TARGETS:
            module = sys.modules[f"qboson.{module_name}"]
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for holder in [owner] if owner_path else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer counts and times of one traced pass."""
        calls: dict = {}
        total: dict = {}
        child: dict = {}
        for span in self.spans:
            if span[0] != pass_id:
                continue
            _, name, start, end, parent = span
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][1]
                child[pname] = child.get(pname, 0.0) + (end - start)
        out = {metric: 0 for metric in LAYER_METRICS}
        for metric in out:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "s":
                out[metric] = total.get(base, 0.0)
            elif kind == "self_s":
                out[metric] = total.get(base, 0.0) - child.get(base, 0.0)
        for pid, name, value in self.counters:
            if pid == pass_id:
                out[name] += value
        kernel_s = total.get("simulate.run_trajectory", 0.0) - \
            child.get("simulate.run_trajectory", 0.0)
        out["simulate.kernel_events_per_s"] = \
            out["simulate.events"] / kernel_s if kernel_s > 0 else 0.0
        return out

    def span_records(self) -> list:
        return [{"pass": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4]} for s in self.spans]


def summarize(per_pass: list) -> tuple[dict, list]:
    """Counts from the first traced pass, medians for everything else.

    Returns (metrics, names of counts that did not repeat exactly).
    """
    out = {}
    unstable = []
    for metric in per_pass[0]:
        values = [m[metric] for m in per_pass]
        if metric in EXACT_COUNTS:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(metric)
        else:
            out[metric] = statistics.median(values)
    return out, unstable


def import_times(stderr: str) -> dict:
    """Seconds spent importing scipy, mpmath, numpy and qboson.

    Each package's time is the cumulative time of its outermost imports,
    those not nested under another import of the same package, so a
    package's own dependencies count toward it.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative), name.strip()))
    out = {}
    for package in ("scipy", "mpmath", "numpy", "qboson"):
        def ours(mod, package=package):
            return mod == package or mod.startswith(package + ".")
        total = 0
        ancestors: list = []
        # children are printed before their parent, so walk backwards
        for depth, cumulative, name in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            if ours(name) and not any(ours(a) for _, a in ancestors):
                total += cumulative
            ancestors.append((depth, name))
        out[f"setup.import.{package}_s"] = total / 1e6
    return out
