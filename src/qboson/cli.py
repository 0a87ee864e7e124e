"""Command-line interface.

Subcommands: exact, oracle, simulate, asymptotic, crossover, verify-tq,
sweep.  Results are JSON (one document, schema field "schema": 1, the full
request embedded for reproducibility) except sweep, which emits a
plot-ready CSV.  Rational values serialize as "num/den" strings; float
backend values as decimal strings together with the precision in bits,
except the float oracle's, which are float64 and print as the shortest
string that reads back as the same double.

Exit codes: 0 ok, 2 invalid input, 3 precision-verification failure,
4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial

import mpmath

from .numerics import (DEFAULT_PREC_BITS, DEFAULT_VERIFY_RTOL, FloatBackend,
                       InputError, PrecisionError, RATIONAL, SolverError,
                       qvalue, verify_at_double_precision)
from . import asymptotics, cumulants, oracle, simulate, stationary, tq

SCHEMA = 1


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _mpf_str(x, prec_bits: int) -> str:
    dps = int(prec_bits * 0.30103) + 2
    with mpmath.workprec(prec_bits):
        return mpmath.nstr(mpmath.mpf(x), dps, strip_zeros=True)


class Emitter:
    """Serializes backend scalars consistently for one run."""

    def __init__(self, backend):
        self.backend = backend

    def scalar(self, x):
        if x is None:
            return None
        if self.backend.exact:
            return _fraction_str(Fraction(x))
        return _mpf_str(x, self.backend.prec_bits)

    def describe(self) -> dict:
        if self.backend.exact:
            return {"kind": "rational"}
        return {"kind": "float", "prec_bits": self.backend.prec_bits}


def _parse_fraction(name: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {name} = {text!r}: {exc}") from None


def _parse_q_text(text: str, args) -> tuple[str, object]:
    """Return (backend_kind, raw fraction); decimals force the float backend."""
    frac = _parse_fraction("q", text)
    wants_float = args.backend == "float" or \
        ("." in text or "e" in text.lower())
    return ("float" if wants_float else "rational"), frac


def _make_backend(kind: str, args):
    if kind == "float":
        return FloatBackend(args.prec)
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


def _resolve_Np(args) -> tuple[int, int]:
    if args.n is None:
        raise InputError("--n is required")
    return args.n, _particles(args, args.n)


def _model(N: int, p: int, qfrac: Fraction, backend) -> stationary.ModelParams:
    """The model at q = qfrac, with q a scalar of the given backend."""
    return stationary.model(
        N, p, backend.ratio(qfrac.numerator, qfrac.denominator), backend)


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _request_dict(args, command: str) -> dict:
    keep = ("n", "p", "rho", "q", "alpha", "backend", "prec", "tol", "imax",
            "seed", "t_burn", "t_measure", "reps", "init")
    req = {"command": command}
    for key in keep:
        if hasattr(args, key) and getattr(args, key) is not None:
            req[key] = getattr(args, key)
    return req


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_exact(args) -> int:
    N, p = _resolve_Np(args)
    kind, qfrac = _parse_q_text(args.q, args)
    backend = _make_backend(kind, args)
    rtol = args.tol if args.tol is not None else DEFAULT_VERIFY_RTOL

    def compute(be):
        params = _model(N, p, qfrac, be)
        stat = stationary.compute_stationary(params)
        if args.imax is not None:
            res = cumulants.delta_exact_truncated(params, args.imax, stat=stat)
        else:
            res = cumulants.delta_exact_resummed(params, stat=stat)
        intens = stationary.intensive_quantities(params, res.J, res.Delta)
        return {
            "Z": stat.Zvals[p], "J": res.J, "j_N": intens["j_N"],
            "Delta": res.Delta, "Delta_j": intens["Delta_j"],
            "v_p": intens["v_p"], "Delta_p": intens["Delta_p"],
            "pJ": res.pJ, "S1": res.S1, "S2": res.S2,
        }, res

    if backend.exact:
        values, res = compute(backend)
    else:
        # doubled-precision acceptance on the scalar payload; method, i_max
        # and tail_bound come from the P-bit run
        results = {}

        def payload(be):
            vals, results[be.prec_bits] = compute(be)
            return vals
        values = verify_at_double_precision(payload, backend, rtol)
        res = results[backend.prec_bits]

    em = Emitter(backend)
    result = {key: em.scalar(val) for key, val in values.items()}
    result["N"] = N
    result["p"] = p
    result["q"] = _fraction_str(qfrac)
    result["method"] = res.method
    if res.method == "truncated":
        result["i_max"] = res.i_max
        result["tail_bound"] = res.tail_bound
    doc = {"schema": SCHEMA, "request": _request_dict(args, "exact"),
           "backend": em.describe(), "result": result}
    _emit(doc, args)
    return 0


def cmd_oracle(args) -> int:
    N, p = _resolve_Np(args)
    kind, qfrac = _parse_q_text(args.q, args)
    backend = _make_backend(kind, args)
    params = _model(N, p, qfrac, backend)
    res = oracle.lambda_derivatives(params)
    em = Emitter(backend)
    # the float oracle solves in float64 (sparse LU) whatever --prec says
    scalar = em.scalar if backend.exact else (lambda x: repr(float(x)))
    result = {
        "J": scalar(res.J), "Delta": scalar(res.Delta),
        "lambda1": scalar(res.lambda1), "lambda2": scalar(res.lambda2),
        "states": res.size, "solve_residual": res.residual,
    }
    doc = {"schema": SCHEMA, "request": _request_dict(args, "oracle"),
           "backend": em.describe() if backend.exact else {"kind": "float64"},
           "result": result}
    _emit(doc, args)
    return 0


def cmd_simulate(args) -> int:
    N, p = _resolve_Np(args)
    kind, qfrac = _parse_q_text(args.q, args)
    backend = _make_backend(kind, args)
    params = _model(N, p, qfrac, backend)
    cfg = simulate.SimConfig(params=params, t_measure=args.t_measure,
                             reps=args.reps, seed=args.seed,
                             t_burn=args.t_burn, init=args.init)
    est = simulate.estimate_cumulants(cfg)
    doc = {
        "schema": SCHEMA, "request": _request_dict(args, "simulate"),
        "backend": {"kind": "float64-simulation"},
        "result": {
            "J_hat": est.J_hat, "se_J": est.se_J,
            "Delta_hat": est.Delta_hat, "se_D": est.se_D,
            "reps": est.reps, "total_events": est.total_events,
            "seed": cfg.seed, "t_burn": cfg.burn_time,
            "t_measure": cfg.t_measure, "init": cfg.init,
        },
    }
    _emit(doc, args)
    return 0


def cmd_asymptotic(args) -> int:
    if args.rho is None:
        raise InputError("asymptotic requires --rho")
    rho = float(_parse_fraction("rho", args.rho))
    kind, qfrac = _parse_q_text(args.q, args)
    q = qvalue(Fraction(qfrac), RATIONAL)
    tol = args.tol if args.tol is not None else 1e-13
    sd = asymptotics.saddle_data(rho, q, tol)
    doc = {
        "schema": SCHEMA, "request": _request_dict(args, "asymptotic"),
        "backend": {"kind": "float64"},
        "result": {
            "zstar": sd.zstar, "h0": sd.h[0], "h1": sd.h[1], "h2": sd.h[2],
            "h3": sd.h[3], "h4": sd.h[4], "free_energy": sd.free_energy,
            "j_inf": sd.j_inf, "lambda": sd.lambda_nl, "A": sd.A,
            "current_fss": sd.current_fss,
            "kpz_coefficient": asymptotics.kpz_coefficient(sd),
        },
    }
    _emit(doc, args)
    return 0


def cmd_crossover(args) -> int:
    if args.rho is None or args.alpha is None:
        raise InputError("crossover requires --rho and --alpha")
    rho = float(_parse_fraction("rho", args.rho))
    tol = args.tol if args.tol is not None else 1e-10
    cd = asymptotics.crossover_prediction(rho, args.alpha, tol)
    doc = {
        "schema": SCHEMA, "request": _request_dict(args, "crossover"),
        "backend": {"kind": "float64"},
        "result": {"alpha": cd.alpha, "g": cd.g, "D_ew": cd.D_ew,
                   "nu_ew": cd.nu_ew, "F": cd.Fg,
                   "prediction": cd.prediction},
    }
    _emit(doc, args)
    return 0


def cmd_verify_tq(args) -> int:
    N, p = _resolve_Np(args)
    kind, qfrac = _parse_q_text(args.q, args)
    backend = _make_backend(kind, args)
    params = _model(N, p, qfrac, backend)
    first = tq.build_first_order(params)
    ok, residual = tq.verify_first_order(first)
    em = Emitter(backend)
    with backend.workprec():
        max_resid = max(abs(c) for c in residual.coeffs)
        q1_at_1 = sum(first.Q1.coeffs)
    doc = {
        "schema": SCHEMA, "request": _request_dict(args, "verify-tq"),
        "backend": em.describe(),
        "result": {
            "residual_zero": ok,
            "max_residual": em.scalar(max_resid),
            "lambda1": em.scalar(first.lambda1),
            "J": em.scalar(first.J),
            "lambda1_equals_J": first.lambda1 == first.J,
            "Q1_at_1": em.scalar(q1_at_1),
        },
    }
    _emit(doc, args)
    return 0 if ok else 4


def _verified_float_delta(make_params, backend: FloatBackend,
                          rtol: float) -> tuple[float, float]:
    """(J, Delta) on the float backend, accepted at doubled precision.

    make_params rebuilds the model per backend, so inputs like
    q = exp(-alpha/sqrt(N)) are themselves recomputed at 2P.
    """

    def payload(be):
        res = cumulants.delta_exact_resummed(make_params(be))
        return {"J": res.J, "Delta": res.Delta}

    vals = verify_at_double_precision(payload, backend, rtol)
    return float(vals["J"]), float(vals["Delta"])


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
    if args.alpha is not None and args.q is not None:
        raise InputError("sweep takes --q or --alpha, not both")
    if args.alpha is None and args.q is None:
        raise InputError("sweep needs --q or --alpha")
    crossover_mode = args.alpha is not None
    rtol = args.tol if args.tol is not None else DEFAULT_VERIFY_RTOL
    if crossover_mode:
        backend = FloatBackend(args.prec)
    else:
        kind, qfrac = _parse_q_text(args.q, args)
        backend = _make_backend(kind, args)

    rows = []
    pred_cache: dict = {}
    for N in Ns:
        p = _particles(args, N)
        rho = p / N
        if crossover_mode:
            def make_params(be, N=N, p=p):
                with be.workprec():
                    qs = mpmath.exp(be.integer(-1) * args.alpha
                                    / mpmath.sqrt(N))
                return stationary.ModelParams(N=N, p=p, q=qvalue(qs, be))

            J, Delta = _verified_float_delta(make_params, backend, rtol)
            if rho not in pred_cache:
                pred_cache[rho] = asymptotics.crossover_prediction(
                    rho, args.alpha).prediction
            prediction = pred_cache[rho]
            gap = Delta / N - prediction
            qcol = float(make_params(backend).q.q)
        else:
            make_params = partial(_model, N, p, qfrac)
            if backend.exact:
                res = cumulants.delta_exact_resummed(make_params(backend))
                J, Delta = float(res.J), float(res.Delta)
            else:
                J, Delta = _verified_float_delta(make_params, backend, rtol)
            key = (rho, qfrac)
            if key not in pred_cache:
                sd = asymptotics.saddle_data(rho, qvalue(qfrac, RATIONAL))
                pred_cache[key] = asymptotics.kpz_coefficient(sd)
            prediction = pred_cache[key]
            gap = Delta / N ** 1.5 - prediction
            qcol = float(qfrac)
        rows.append((N, p, qcol, J, Delta, Delta / N ** 1.5, Delta / N,
                     prediction, gap))
    return rows


def cmd_sweep(args) -> int:
    rows = _sweep_rows(args)
    lines = ["N,p,q,J,Delta,Delta_over_N32,Delta_over_N,prediction,gap"]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qboson",
        description="Current statistics of the q-boson zero range process")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, q_required=True, n_as_list=False):
        if n_as_list:
            sp.add_argument("--n", type=str, default=None,
                            help="comma-separated list of ring sizes")
        else:
            sp.add_argument("--n", type=int, default=None,
                            help="number of sites")
        sp.add_argument("--p", type=int, default=None,
                        help="number of particles")
        sp.add_argument("--rho", type=str, default=None,
                        help="density p/N (alternative to --p)")
        if q_required:
            sp.add_argument("--q", type=str, default=None,
                            help="deformation parameter, 'a/b' or decimal")
        sp.add_argument("--backend", choices=("rational", "float"),
                        default="rational")
        sp.add_argument("--prec", type=int, default=DEFAULT_PREC_BITS,
                        help="float backend mantissa bits")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("exact", help="exact J and Delta from the series formula")
    common(sp)
    sp.add_argument("--imax", type=int, default=None,
                    help="truncate the i-sum instead of resumming")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("oracle", help="spectral perturbation ground truth")
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("simulate", help="kinetic Monte Carlo estimates")
    common(sp)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--reps", type=int, default=50)
    sp.add_argument("--t-burn", dest="t_burn", type=float, default=None)
    sp.add_argument("--t-measure", dest="t_measure", type=float,
                    default=1000.0)
    sp.add_argument("--init", choices=simulate.INIT_MODES,
                    default="stationary-product-rejection")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("asymptotic", help="saddle-point data and KPZ constants")
    common(sp)
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("crossover", help="EW-KPZ crossover prediction")
    common(sp, q_required=False)
    sp.add_argument("--q", type=str, default=None, help=argparse.SUPPRESS)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_crossover)

    sp = sub.add_parser("verify-tq",
                        help="first-order functional-equation check")
    common(sp)
    sp.set_defaults(func=cmd_verify_tq)

    sp = sub.add_parser("sweep", help="CSV table over a grid of N")
    common(sp, n_as_list=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_sweep)

    return parser


_NEGATIVE_FRACTION = re.compile(r"^-\d+/\d+$")


def _attach_negative_fractions(argv: list) -> list:
    """Rewrite '--q -1/2' as '--q=-1/2'.

    argparse reads a token such as '-1/2' as an option name, so without
    this a negative rational value works only in the '--q=-1/2' form.
    """
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and _NEGATIVE_FRACTION.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
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
