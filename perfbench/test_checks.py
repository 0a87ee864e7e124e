"""Self-test of the benchmark's checks.

Each workload's checker must accept the program's real outputs and reject
a deliberately perturbed copy of them.  Run from the root of a source
checkout with ``python3 perfbench/test_checks.py`` (or under pytest:
``python3 -m pytest perfbench/test_checks.py``).  It runs every
workload's pass once, about 15 s in all.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from run import run_request  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def genuine(workload: str) -> tuple:
    """((argv, stdout) of the references, (argv, stdout) of one pass)."""
    import qboson.cli as cli

    def run(requests):
        out = []
        for argv in requests:
            ok, stdout = run_request(cli, argv)
            assert ok, argv
            out.append((argv, stdout))
        return tuple(out)

    wl = WORKLOADS[workload]
    return run(wl.references), run(wl.requests(1))


def errors_for(workload: str, replace=None) -> list:
    """Checker errors for a workload's genuine outputs, with
    ``replace(argv, stdout)`` applied to each output first."""
    refs, outs = genuine(workload)
    checker = checks.Checker()
    for argv, stdout in refs + outs:
        if replace is not None:
            stdout = replace(argv, stdout)
        checker.check(argv, stdout)
    return checker.finish()


def edit_json(stdout: str, **changes) -> str:
    doc = json.loads(stdout)
    for key, fn in changes.items():
        doc["result"][key] = fn(doc["result"][key])
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def edit_csv(stdout: str, N: int, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for row in rows:
        if int(row["N"]) == N:
            edit(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def scaled(text: str, factor) -> str:
    """A rational ("a/b") or decimal value multiplied by factor."""
    value = Fraction(text) * Fraction(factor)
    if "/" in text:
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def set_delta(row: dict, Delta: float, scaled_column: str):
    """Set a sweep row's Delta and keep its derived columns consistent;
    the gap column is scaled_column minus the prediction."""
    N = int(row["N"])
    row["Delta"] = repr(Delta)
    row["Delta_over_N32"] = repr(Delta / N ** 1.5)
    row["Delta_over_N"] = repr(Delta / N)
    row["gap"] = repr(float(row[scaled_column]) - float(row["prediction"]))


def only(command: str, N: int = None, **opts):
    """Predicate on argv: this command, size and options."""
    def match(argv):
        if argv[0] != command:
            return False
        if N is not None and checks.option(argv, "n") != str(N):
            return False
        return all(checks.option(argv, k) == v for k, v in opts.items())
    return match


def perturb(match, fn):
    return lambda argv, out: fn(out) if match(argv) else out


# ---------------------------------------------------------------------------

def test_genuine_outputs_pass():
    for workload in WORKLOADS:
        assert errors_for(workload) == [], workload


def test_exact_rational_rejects_j_off_by_1e_9():
    bad = perturb(only("exact", 28),
                  lambda out: edit_json(out, J=lambda v: scaled(v, 1 + 1e-9)))
    assert any("J =" in e for e in errors_for("exact-rational", bad))


def test_exact_rational_rejects_broken_delta_identity():
    bad = perturb(only("exact", 32, q="3/2"), lambda out: edit_json(
        out, Delta=lambda v: scaled(v, Fraction(1001, 1000))))
    errors = errors_for("exact-rational", bad)
    assert any("S1 + S2" in e for e in errors)


def test_float_sweep_rejects_j_off_by_1e_9():
    bad = perturb(only("sweep", alpha="-1"), lambda out: edit_csv(
        out, 25, lambda r: r.update(J=repr(float(r["J"]) * (1 + 1e-9)))))
    assert any("J at N = 25" in e for e in errors_for("float-sweep", bad))


def test_float_sweep_rejects_stalled_kpz_convergence():
    # Delta at N = 128 with the same deviation from K as at N = 64
    K = checks.kpz_constant(1.0, 0.5)
    _, outs = genuine("float-sweep")
    sweep = next(out for argv, out in outs if only("sweep", q="1/2")(argv))
    row64 = next(r for r in csv.DictReader(io.StringIO(sweep))
                 if r["N"] == "64")
    dev64 = float(row64["Delta_over_N32"]) / K - 1
    bad = perturb(only("sweep", q="1/2"), lambda out: edit_csv(
        out, 128, lambda r: set_delta(
            r, K * (1 + dev64) * 128 ** 1.5, "Delta_over_N32")))
    errors = errors_for("float-sweep", bad)
    assert errors and all("deviation * N" in e for e in errors), errors


def test_float_sweep_rejects_crossover_not_approaching():
    pred = checks.crossover_value(1.0, 1.0)

    def flatten(out):
        rows = {r["N"]: r for r in csv.DictReader(io.StringIO(out))}
        gap25 = float(rows["25"]["Delta_over_N"]) - pred
        return edit_csv(out, 36, lambda r: set_delta(
            r, (pred + gap25) * 36, "Delta_over_N"))

    errors = errors_for("float-sweep",
                        perturb(only("sweep", alpha="1"), flatten))
    assert errors and all("strictly decreasing" in e for e in errors), errors


def test_monte_carlo_rejects_estimate_beyond_z_bound():
    # J_hat + 5 % is about 19 standard errors off at q = 2; 4 Delta_hat is
    # 3 / sqrt(2/15) = 8.2 standard errors off
    bad = perturb(only("simulate", q="2"), lambda out: edit_json(
        out, J_hat=lambda v: v * 1.05))
    assert any("J_hat" in e for e in errors_for("monte-carlo", bad))
    bad = perturb(only("simulate", q="1/2"), lambda out: edit_json(
        out, Delta_hat=lambda v: v * 4))
    assert any("Delta_hat" in e for e in errors_for("monte-carlo", bad))


def test_crosscheck_rejects_oracle_mismatch():
    bad = perturb(only("oracle", 4), lambda out: edit_json(
        out, Delta=lambda v: scaled(v, 1 + 1e-9),
        lambda2=lambda v: scaled(v, 1 + 1e-9)))
    assert any("Delta =" in e for e in errors_for("crosscheck", bad))
    bad = perturb(only("oracle", 8), lambda out: edit_json(
        out, J=lambda v: scaled(v, 1 + 1e-7),
        lambda1=lambda v: scaled(v, 1 + 1e-7)))
    assert any("J =" in e for e in errors_for("crosscheck", bad))


def test_crosscheck_rejects_tq_residual_and_j():
    bad = perturb(only("verify-tq", 24), lambda out: edit_json(
        out, residual_zero=lambda v: False))
    assert any("residual" in e for e in errors_for("crosscheck", bad))
    bad = perturb(only("verify-tq", 16), lambda out: edit_json(
        out, J=lambda v: scaled(v, 1 + 1e-9),
        lambda1=lambda v: scaled(v, 1 + 1e-9)))
    assert any("J =" in e for e in errors_for("crosscheck", bad))


def test_determinism_check_flags_changed_bytes():
    outs = [out for _, out in genuine("monte-carlo")[1]]
    changed = list(outs)
    changed[1] = changed[1].replace('"seed"', '"Seed"', 1)
    assert checks.nondeterministic([outs, outs, changed]) == [1]
    assert checks.nondeterministic([outs, list(outs)]) == []


def test_benchmark_json_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert set(w["name"] for w in bench["workloads"]) == set(WORKLOADS)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
