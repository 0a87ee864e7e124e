"""The benchmark's workloads: a fixed list of CLI requests per pass.

Every request is an argv list for ``qboson.cli.main``.  The seed changes
the order of the requests in a pass and the Monte Carlo seeds, never the
sizes, so the work in a pass does not depend on the seed.  ``references``
are extra requests run once per benchmark run, outside the timed region,
that the checks compare the pass outputs with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[int], list]
    references: tuple = ()


def _shuffled(requests: list, name: str, seed: int) -> list:
    random.Random(f"{name}:{seed}").shuffle(requests)
    return requests


def _exact_rational(seed: int) -> list:
    # sizes where F^N dominates; q = -1/2 must be passed as --q=-1/2
    # because argparse takes "-1/2" after "--q" for an option
    reqs = [["exact", "--n", str(n), "--p", str(n), "--q", "1/2"]
            for n in (28, 40)]
    reqs += [["exact", "--n", str(n), "--p", str(n), "--q=-1/2"]
             for n in (24, 32)]
    reqs += [["exact", "--n", str(n), "--p", str(n), "--q", "3/2"]
             for n in (24, 32)]
    reqs.append(["exact", "--n", "40", "--p", "20", "--q", "1/2"])
    return _shuffled(reqs, "exact-rational", seed)


def _float_sweep(seed: int) -> list:
    reqs = [
        ["sweep", "--rho", "1", "--q", "1/2", "--n", "64,128",
         "--backend", "float"],
        ["sweep", "--rho", "1", "--alpha", "1", "--n", "16,25,36"],
        ["sweep", "--rho", "1", "--alpha", "-1", "--n", "16,25,36"],
        ["exact", "--n", "64", "--p", "64", "--q", "1/2",
         "--backend", "float"],
    ]
    return _shuffled(reqs, "float-sweep", seed)


MC_SIZE = 16
MC_OPTIONS = ["--reps", "16", "--t-burn", "20", "--t-measure", "600"]


def _monte_carlo(seed: int) -> list:
    # The rejection initialiser draws the exact stationary measure, so a
    # short burn-in suffices; the default 10 N^2 would spend most events
    # on burn-in.
    rng = random.Random(f"monte-carlo:{seed}")
    n = str(MC_SIZE)
    return [["simulate", "--n", n, "--p", n, "--q", q,
             "--seed", str(rng.randrange(1, 2 ** 31))] + MC_OPTIONS
            for q in ("1/2", "2")]


def _crosscheck(seed: int) -> list:
    reqs = [
        ["oracle", "--n", "4", "--p", "6", "--q", "1/2"],
        ["oracle", "--n", "3", "--p", "5", "--q", "2"],
        ["oracle", "--n", "8", "--p", "7", "--q", "1/2",
         "--backend", "float"],
        ["verify-tq", "--n", "24", "--p", "24", "--q", "1/2"],
        ["verify-tq", "--n", "16", "--p", "12", "--q", "2"],
        ["verify-tq", "--n", "12", "--p", "12", "--q=-1/2"],
    ]
    return _shuffled(reqs, "crosscheck", seed)


def _exact_refs(*cases) -> tuple:
    return tuple(["exact", "--n", str(n), "--p", str(p), "--q", q]
                 for n, p, q in cases)


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    wl.name: wl for wl in (
        Workload("exact-rational", _exact_rational),
        Workload("float-sweep", _float_sweep),
        Workload("monte-carlo", _monte_carlo,
                 _exact_refs((MC_SIZE, MC_SIZE, "1/2"),
                             (MC_SIZE, MC_SIZE, "2"))),
        Workload("crosscheck", _crosscheck,
                 _exact_refs((4, 6, "1/2"), (3, 5, "2"), (8, 7, "1/2"))),
    )
}
