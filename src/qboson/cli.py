"""Command-line interface.

Subcommands: exact, oracle, simulate, asymptotic, crossover, verify-tq,
sweep.  Each declares only the flags it reads.  Results are JSON (one
document, schema field "schema": 1) except sweep, which emits a plot-ready
CSV.  The document embeds the request for reproducibility: the command and
every declared flag that has a value, --out aside.  Rational values
serialize as "num/den" strings; float backend values as decimal strings
together with the precision in bits, except the float oracle's, which are
float64 and print as the shortest string that reads back as the same
double.

Exit codes: 0 ok, 2 invalid input or an unwritable --out file, 3
precision-verification failure at every float precision up to
``numerics.MAX_PREC_BITS`` (a value's error bound wider than
DEFAULT_VERIFY_RTOL, or an identity of verify-tq or the series' A_0
beyond its derived rounding bound), 4 solver failure or a failed
identity check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache, partial

from .numerics import (FloatBackend, InputError, PrecisionError, RATIONAL,
                       SolverError, certify, escalate_precision)
from . import asymptotics, cumulants, oracle, simulate, stationary, tq

SCHEMA = 1


def _fraction_str(x: Fraction) -> str:
    # the program's own results may pass CPython's 4300-digit int-to-str
    # limit (absent before 3.10.7), so it is lifted for the conversion
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return f"{x.numerator}/{x.denominator}"
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return f"{x.numerator}/{x.denominator}"
    finally:
        set_limit(limit)


def _scalar(x, backend) -> str:
    """A backend scalar as printed: "num/den", or decimal at its precision."""
    if backend.exact:
        return _fraction_str(Fraction(x))
    return backend.ctx.nstr(backend.ratio(x),
                            int(backend.prec_bits * 0.30103) + 2,
                            strip_zeros=True)


def _describe(backend) -> dict:
    if backend.exact:
        return {"kind": "rational"}
    return {"kind": "float", "prec_bits": backend.prec_bits}


def _parse_fraction(name: str, text) -> Fraction:
    if text is None:
        raise InputError(f"--{name} is required")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {name} = {text!r}: {exc}") from None


def _backend(args):
    """The backend of --backend and --q.

    --backend float or a decimal q selects the float backend, at the
    default precision.  oracle computes at that precision, since it rounds
    to float64; exact, verify-tq and sweep raise it until their checks pass
    (``numerics.escalate_precision``).
    """
    q = args.q or ""
    if args.backend == "float" or "." in q or "e" in q.lower():
        return FloatBackend()
    return RATIONAL


def _particles(args, N: int) -> int:
    """The particle number p on a ring of N sites, from --p or --rho."""
    if (args.p is None) == (args.rho is None):
        raise InputError("give exactly one of --p and --rho")
    if args.p is not None:
        return args.p
    p = _parse_fraction("rho", args.rho) * N
    if p.denominator != 1:
        raise InputError(f"rho * N = {p} is not an integer particle number")
    return int(p)


def _system(args) -> tuple[int, int, Fraction]:
    """(N, p, q) of --n, --p or --rho, and --q."""
    if args.n is None:
        raise InputError("--n is required")
    return args.n, _particles(args, args.n), _parse_fraction("q", args.q)


def _write(text: str, args) -> None:
    """Write to the --out file, or to stdout without one."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out!r}: "
                             f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _emit(args, kind: dict, result: dict) -> None:
    request = {key: val for key, val in vars(args).items()
               if val is not None and key not in ("func", "out")}
    doc = {"schema": SCHEMA, "request": request, "backend": kind,
           "result": result}
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)


def _series(params) -> tuple:
    """exact's values at params, and the bound on each one's error (None
    on the rational backend, whose values are exact)."""
    res = cumulants.delta_exact_resummed(params)
    values = {"Z": res.Z, "J": res.J, "Delta": res.Delta, "pJ": res.pJ,
              "S1": res.S1, "S2": res.S2,
              **stationary.intensive_quantities(params, res.J, res.Delta)}
    if res.errors is None:
        return values, None
    # the intensive values scale J and Delta by positive factors
    return values, {**res.errors, **stationary.intensive_quantities(
        params, res.errors["J"], res.errors["Delta"])}


def _certified(params) -> dict:
    """exact's values at params; on the float backend, only if every
    one's error bound, formed in the same run, is at most
    DEFAULT_VERIFY_RTOL relative (``numerics.certify``)."""
    values, errors = _series(params)
    return values if errors is None else certify(values, errors,
                                                 params.backend)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_exact(args) -> int:
    N, p, qfrac = _system(args)
    backend, values = escalate_precision(
        lambda be: _certified(stationary.model(N, p, qfrac, be)),
        _backend(args))
    result = {key: _scalar(val, backend) for key, val in values.items()}
    result.update(N=N, p=p, q=_fraction_str(qfrac))
    _emit(args, _describe(backend), result)
    return 0


def cmd_oracle(args) -> int:
    backend = _backend(args)
    res = oracle.lambda_derivatives(stationary.model(*_system(args), backend))
    if backend.exact:
        scalar, kind = partial(_scalar, backend=backend), _describe(backend)
    else:
        # the float oracle solves in float64 (sparse LU)
        scalar, kind = (lambda x: repr(float(x))), {"kind": "float64"}
    _emit(args, kind, {
        "J": scalar(res.J), "Delta": scalar(res.Delta),
        "lambda1": scalar(res.lambda1), "lambda2": scalar(res.lambda2),
        "states": res.size, "solve_residual": res.residual,
    })
    return 0


def cmd_simulate(args) -> int:
    # exact rates rounded to float64, and start weights formed from them
    cfg = simulate.SimConfig(params=stationary.model(*_system(args)),
                             t_measure=args.t_measure, reps=args.reps,
                             seed=args.seed, t_burn=args.t_burn)
    est = simulate.estimate_cumulants(cfg)
    _emit(args, {"kind": "float64-simulation"}, {
        "J_hat": est.J_hat, "se_J": est.se_J,
        "Delta_hat": est.Delta_hat, "se_D": est.se_D,
        "reps": est.reps, "total_events": est.total_events,
        "seed": cfg.seed, "t_burn": cfg.burn_time,
        "t_measure": cfg.t_measure,
    })
    return 0


def cmd_asymptotic(args) -> int:
    rho = float(_parse_fraction("rho", args.rho))
    sd = asymptotics.saddle_data(rho, _parse_fraction("q", args.q))
    _emit(args, {"kind": "float64"}, {
        "zstar": sd.zstar, "h0": sd.h[0], "h1": sd.h[1], "h2": sd.h[2],
        "h3": sd.h[3], "h4": sd.h[4], "free_energy": sd.free_energy,
        "j_inf": sd.j_inf, "lambda": sd.lambda_nl, "A": sd.A,
        "current_fss": sd.current_fss,
        "kpz_coefficient": asymptotics.kpz_coefficient(sd),
    })
    return 0


def cmd_crossover(args) -> int:
    rho = float(_parse_fraction("rho", args.rho))
    if args.alpha is None:
        raise InputError("--alpha is required")
    cd = asymptotics.crossover_prediction(rho, args.alpha)
    _emit(args, {"kind": "float64"}, {
        "alpha": cd.alpha, "g": cd.g, "D_ew": cd.D_ew, "nu_ew": cd.nu_ew,
        "F": cd.Fg, "prediction": cd.prediction,
    })
    return 0


def cmd_verify_tq(args) -> int:
    # a float identity beyond its rounding bound raises PrecisionError,
    # on which the driver retries at twice the bits
    system = _system(args)
    backend, v = escalate_precision(lambda be: tq.verify_first_order(
        tq.build_first_order(stationary.model(*system, be))), _backend(args))
    scalar = partial(_scalar, backend=backend)
    _emit(args, _describe(backend), {
        "residual_zero": v.residual_zero,
        "max_residual": scalar(v.max_residual),
        "max_relative_residual": scalar(v.max_relative_residual),
        "lambda1": scalar(v.lambda1),
        "J": scalar(v.J),
        "lambda1_equals_J": v.lambda1_equals_J,
        "Q1_at_1": scalar(v.Q1_at_1),
    })
    return 0 if v.ok else 4


def _ring_sizes(text) -> list:
    """The ring sizes of ``sweep --n``: a comma-separated list, each >= 1."""
    if text is None:
        raise InputError("--n is required")
    try:
        Ns = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"--n must be a comma-separated list of integers, "
                         f"got {text!r}") from None
    for N in Ns:
        if N < 1:
            raise InputError(f"N must be >= 1, got {N}")
    return Ns


def _sweep_rows(args):
    Ns = _ring_sizes(args.n)
    if (args.alpha is None) == (args.q is None):
        raise InputError("give exactly one of --q and --alpha")
    kpz = args.alpha is None
    if kpz:
        qfrac = _parse_fraction("q", args.q)
        backend = _backend(args)
    elif args.backend == "rational":
        raise InputError("--alpha runs on the float backend only")
    else:
        backend = FloatBackend()

    rows = []
    predictions: dict = {}
    for N in Ns:
        p = _particles(args, N)
        rho = p / N
        if kpz:
            make_params = partial(stationary.model, N, p, qfrac)
            if rho not in predictions:
                sd = asymptotics.saddle_data(rho, qfrac)
                predictions[rho] = asymptotics.kpz_coefficient(sd)
            qcol = float(qfrac)
        else:
            def make_params(be, N=N, p=p):
                qs = be.ctx.exp(be.integer(-1) * args.alpha
                                / be.ctx.sqrt(N))
                # sqrt and the quotient round -alpha/sqrt(N) = x within
                # 2 2^-P relative, which exp turns into 2|x| 2^-P, and
                # exp's own rounding adds at most 2 2^-P
                return stationary.model(
                    N, p, qs, be,
                    q_error=2 + 2 * abs(args.alpha) / math.sqrt(N))

            if rho not in predictions:
                predictions[rho] = asymptotics.crossover_prediction(
                    rho, args.alpha).prediction
            qcol = float(make_params(backend).q)
        _, values = escalate_precision(
            lambda be: _certified(make_params(be)), backend)
        J, Delta = float(values["J"]), float(values["Delta"])
        d32, d1 = Delta / N ** 1.5, Delta / N
        gap = (d32 if kpz else d1) - predictions[rho]
        rows.append((N, p, qcol, J, Delta, d32, d1, predictions[rho], gap))
    return rows


def cmd_sweep(args) -> int:
    lines = ["N,p,q,J,Delta,Delta_over_N32,Delta_over_N,prediction,gap"]
    lines += [",".join(map(str, row)) for row in _sweep_rows(args)]
    _write("\n".join(lines) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# every flag of the CLI; each subcommand declares the ones it reads
FLAGS = {
    "n": dict(type=int, help="number of sites"),
    "p": dict(type=int, help="number of particles"),
    "rho": dict(help="density p/N"),
    "q": dict(help="deformation parameter, 'a/b' or decimal"),
    "alpha": dict(type=float, help="q = exp(-alpha/sqrt(N))"),
    "backend": dict(choices=("rational", "float"), default="rational"),
    "seed": dict(type=int, default=1),
    "reps": dict(type=int, default=50),
    "t-burn": dict(type=float),
    "t-measure": dict(type=float, default=1000.0),
    "out": dict(help="write to this file instead of stdout"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call of a process."""
    parser = argparse.ArgumentParser(
        prog="qboson",
        description="Current statistics of the q-boson zero range process")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags + ("out",):
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    system = ("n", "p", "rho", "q")
    command("exact", cmd_exact, "exact J and Delta from the series formula",
            *system, "backend")
    command("oracle", cmd_oracle, "spectral perturbation ground truth",
            *system, "backend")
    command("simulate", cmd_simulate, "kinetic Monte Carlo estimates",
            *system, "seed", "reps", "t-burn", "t-measure")
    command("asymptotic", cmd_asymptotic,
            "saddle-point data and KPZ constants", "rho", "q")
    command("crossover", cmd_crossover, "EW-KPZ crossover prediction",
            "rho", "alpha")
    command("verify-tq", cmd_verify_tq,
            "first-order functional-equation check",
            *system, "backend")
    sp = command("sweep", cmd_sweep, "CSV table over a grid of N",
                 "p", "rho", "q", "alpha", "backend")
    sp.add_argument("--n", help="comma-separated list of ring sizes")
    # unset unless given, so that --alpha can reject --backend rational
    sp.set_defaults(backend=None)
    return parser


def _attach_negative_fractions(argv: list) -> list:
    """Rewrite '--q -1/2' as '--q=-1/2', and so any '-' token that reads as
    a Fraction: argparse takes '-1/2' or '-1e-3' for an option name."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and tok.startswith("-"):
            try:
                Fraction(tok)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_fractions(argv))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
