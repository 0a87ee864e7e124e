#!/usr/bin/env python3
"""Benchmark of the qboson CLI: one workload per run, end to end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload float-sweep --seed 1 --seconds 15 --trace 0

The run measures set-up (the median time to ``import qboson.cli`` over
fresh interpreters), runs the workload's pass of CLI requests once to warm
up, then repeats the pass in-process through ``qboson.cli.main`` for
``--seconds`` seconds (at least three times) and reports the median pass
time, each pass rescaled to reference speed by a calibration loop timed
around it.  With ``--trace 1`` it alternates untraced and traced passes
and reports per-layer metrics instead.  Outputs are checked after the timed
region.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy with per-pass details
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark was tuned on a 2-CPU host, where the
# oracle's dense LAPACK solve would otherwise compete with the run itself.
# Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
CHILD_TIMEOUT_S = 60
# On a shared 2-CPU host, speed swings by up to half between stretches of
# seconds to a minute (a fixed loop timed alone went from 55 to 85 ms).
# So each pass is rescaled to the speed at which the calibration loop below
# takes REFERENCE_LOOP_S, timing the loop right before and after the pass.
CALIBRATION_ITERATIONS = 700
REFERENCE_LOOP_S = 0.015
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import qboson.cli; "
                "print(time.perf_counter() - t0)")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_import(src: str, importtime: bool = False):
    """Import qboson.cli in a fresh interpreter; return its stdout/stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        ["-c", IMPORT_PROBE]
    proc = subprocess.run(cmd, env=child_env(src), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout, proc.stderr


def calibration_loop_s() -> float:
    """Mean of five timings of a fixed loop of big-integer and Fraction
    arithmetic.

    Big integers are what the rational backend and mpmath's pure-Python
    mantissas spend their time on.  This loop followed the machine's speed
    during a pass better than a loop of small-integer arithmetic did.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        a, b, acc = 3 ** 1200, 7 ** 900 + 1, Fraction(0)
        for i in range(1, CALIBRATION_ITERATIONS):
            a * b % (a + i)
            acc += Fraction(i, i + 1)
        times.append(time.perf_counter() - t0)
    return statistics.mean(times)


def run_request(cli, argv: list) -> tuple[bool, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(list(argv))
    except SystemExit as exc:   # argparse rejects the request
        rc = exc.code
    if rc != 0:
        print(f"request failed (exit {rc}): {' '.join(argv)}\n"
              f"{err.getvalue()}", file=sys.stderr)
    return rc == 0, buf.getvalue()


def run_pass(cli, requests: list) -> tuple[float, list, int]:
    """(wall seconds, stdout per request, failed requests)."""
    outputs, failed = [], 0
    t0 = time.perf_counter()
    for argv in requests:
        ok, out = run_request(cli, argv)
        outputs.append(out)
        failed += not ok
    return time.perf_counter() - t0, outputs, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qboson", "cli.py")):
        print(f"no qboson sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    requests = workload.requests(args.seed)

    if args.trace:
        setup = []
        import_layers = [tracing.import_times(fresh_import(src, True)[1])
                         for _ in range(IMPORTTIME_SAMPLES)]
    else:
        setup = [float(fresh_import(src)[0]) for _ in range(SETUP_SAMPLES)]
    import qboson.cli as cli

    attempted = failed = 0
    outputs_seen: list = []

    def timed_pass():
        nonlocal attempted, failed
        elapsed, outputs, nfail = run_pass(cli, requests)
        attempted += len(requests)
        failed += nfail
        outputs_seen.append(outputs)
        return elapsed

    timed_pass()   # warm-up
    loop_s = [calibration_loop_s()]
    raw: dict = {"plain": [], "traced": []}
    scaled: dict = {"plain": [], "traced": []}

    def measured_pass(kind):
        elapsed = timed_pass()
        loop_s.append(calibration_loop_s())
        raw[kind].append(elapsed)
        scaled[kind].append(elapsed * REFERENCE_LOOP_S
                            / statistics.mean(loop_s[-2:]))

    tracer = tracing.Tracer()
    t_start = time.perf_counter()
    if not args.trace:
        while time.perf_counter() - t_start < args.seconds \
                or len(raw["plain"]) < MIN_PASSES:
            measured_pass("plain")
    else:
        while time.perf_counter() - t_start < args.seconds \
                or len(raw["traced"]) < MIN_TRACE_PASSES:
            measured_pass("plain")
            tracer.pass_id = len(raw["traced"])
            tracer.install()
            try:
                measured_pass("traced")
            finally:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside the timed region
    checker = checks.Checker()
    for ref in workload.references:
        ok, out = run_request(cli, ref)
        attempted += 1
        failed += not ok
        if ok:
            checker.check(ref, out)
    first = outputs_seen[0]
    for i, argv_i in enumerate(requests):
        if first[i]:
            checker.check(argv_i, first[i])
    errors = checker.finish()
    for i in checks.nondeterministic(outputs_seen):
        errors.append(f"{' '.join(requests[i])}: stdout differs between "
                      "passes")

    pass_s = statistics.median(scaled["plain"])
    if args.trace:
        per_pass = [tracer.pass_metrics(i)
                    for i in range(len(raw["traced"]))]
        values, unstable = tracing.summarize(per_pass)
        errors += [f"count {name} differs between traced passes"
                   for name in unstable]
        for name in import_layers[0]:
            values[name] = statistics.median(s[name] for s in import_layers)
        values["trace.overhead_s"] = \
            statistics.median(scaled["traced"]) - pass_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed,
                  requests=requests, setup_samples=setup,
                  wall_pass_s=raw, reference_pass_s=scaled,
                  calibration_loop_s=loop_s, errors=errors)
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, stem + "-spans.json"), "w") as fh:
            json.dump(tracer.span_records(), fh)

    print(f"{args.workload}: {len(raw['plain'])} untraced passes, "
          f"{len(raw['traced'])} traced; median pass {pass_s:.4f} s at "
          f"reference speed, {statistics.median(raw['plain']):.4f} s wall")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
