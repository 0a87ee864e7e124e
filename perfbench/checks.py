"""Independent references and checks for the benchmark's outputs.

Nothing here calls the code under test.  Partition functions come from a
convolution recursion over the one-site weights (exact integers for
rational q, doubles built from exactly rounded weights otherwise), the
KPZ constant from the infinite-product form of the weight series, and the
crossover function from an mpmath quadrature.  Every check appends a
message to ``Checker.errors`` when an output is wrong.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction

import mpmath

FLOAT_RTOL = 1e-12        # the CLI's doubled-precision acceptance tolerance
PREDICTION_RTOL = 1e-9    # asymptotic constants, computed two ways
ORACLE_FLOAT_RTOL = 1e-9  # dense double-precision solve vs the series
ORACLE_RESIDUAL_MAX = 1e-10
# Delta/N^{3/2} approaches K with a deviation ~ c/N; between consecutive
# sizes the product (deviation * N) may drift by at most this band
TREND_BAND = (0.7, 1.3)
MC_Z_BOUND = 5.0


def option(argv: list, name: str):
    """Value of ``--name`` in an argv list, in either ``--name v`` or
    ``--name=v`` form; None when absent."""
    flag = "--" + name
    for i, tok in enumerate(argv):
        if tok == flag:
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    return None


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def partition_exact(N: int, p: int, q: Fraction) -> tuple:
    """(Z(N, p-1), Z(N, p)) exactly, for rational q > -1, q != 1.

    With q = a/b, [j]_q = (b^j - a^j) / (b^(j-1) (b - a)).  The weights
    g(m) = f(m) prod_{j<=p} (b^j - a^j) are integers, so the recursion
    Z(n, k) = sum_m g(m) Z(n-1, k-m) runs on integers and is rescaled once.
    """
    a, b = q.numerator, q.denominator
    if a == b or a <= -b:
        raise ValueError(f"q = {q} outside q > -1, q != 1")
    d = [b ** j - a ** j for j in range(p + 1)]
    scale = math.prod(d[1:])
    g = [scale]
    for m in range(1, p + 1):
        val, rem = divmod(g[-1] * b ** (m - 1) * (b - a), d[m])
        if rem:
            raise ArithmeticError("integer weight recursion is not exact")
        g.append(val)
    cur = [1] + [0] * p
    for _ in range(N):
        cur = [sum(g[m] * cur[k - m] for m in range(k + 1))
               for k in range(p + 1)]
    return Fraction(cur[p - 1], scale ** N), Fraction(cur[p], scale ** N)


def exact_current(N: int, p: int, q: Fraction) -> Fraction:
    """J = N Z(N, p-1) / Z(N, p), exactly."""
    z_prev, z_p = partition_exact(N, p, q)
    return N * z_prev / z_p


@functools.lru_cache(maxsize=None)
def partition_float(N: int, p: int, q) -> tuple:
    """(Z(N, p-1), Z(N, p)) in doubles; q is a Fraction or an mpf.

    The weights are computed at 128 bits and rounded once; all terms are
    positive for q > -1 and every sum is exact (fsum), so the relative
    error stays below about 3 N ulp.
    """
    with mpmath.workprec(128):
        qm = mpmath.mpf(q.numerator) / q.denominator \
            if isinstance(q, Fraction) else mpmath.mpf(q)
        w, f = [1.0], mpmath.mpf(1)
        for j in range(1, p + 1):
            f = f * (1 - qm) / (1 - qm ** j)
            w.append(float(f))
    cur = [1.0] + [0.0] * p
    for _ in range(N):
        cur = [math.fsum(w[m] * cur[k - m] for m in range(k + 1))
               for k in range(p + 1)]
    return cur[p - 1], cur[p]


def float_current(N: int, p: int, q) -> float:
    z_prev, z_p = partition_float(N, p, q)
    return N * z_prev / z_p


def crossover_q(N: int, alpha: float):
    """q = exp(-alpha / sqrt(N)) at 128 bits."""
    with mpmath.workprec(128):
        return +mpmath.exp(-mpmath.mpf(alpha) / mpmath.sqrt(N))


@functools.lru_cache(maxsize=None)
def kpz_constant(rho: float, q: float) -> float:
    """lim Delta / N^{3/2} = (sqrt(pi)/4) z* |h3 - h2| / h2^{3/2}.

    Uses F(z) = prod_i 1/(1 - x_i) with x_i = (1-q) q^i z for |q| < 1 and
    F(z) = prod_i (1 + (1-1/q) q^-i z) for q > 1, so that
    (z d/dz)^k ln F is a sum of x/(1-x), x/(1-x)^2, x(1+x)/(1-x)^3 terms.
    """
    if q < 1:
        sign, c, t = 1.0, 1.0 - q, q
    else:
        sign, c, t = -1.0, -(1.0 - 1.0 / q), 1.0 / q

    def log_derivs(z):
        s1 = s2 = s3 = 0.0
        x = c * z
        while abs(x) > 1e-20:
            s1 += x / (1 - x)
            s2 += x / (1 - x) ** 2
            s3 += x * (1 + x) / (1 - x) ** 3
            x *= t
        return sign * s1, sign * s2, sign * s3

    lo, hi = 0.0, 1.0
    if q < 1:
        hi = (1.0 - 1e-15) / c
    else:
        while log_derivs(hi)[0] < rho:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if log_derivs(mid)[0] < rho:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    _, h2, h3 = log_derivs(z)
    return math.sqrt(math.pi) / 4.0 * z * abs(h3 - h2) / h2 ** 1.5


@functools.lru_cache(maxsize=None)
def crossover_value(rho: float, alpha: float) -> float:
    """lim Delta/N = rho F(g), g = 8 rho alpha^2, under q = exp(-alpha/sqrt N).

    F(g) = sqrt(g)/(2 sqrt 2) int_0^inf y^2 e^{-y^2} / tanh(sqrt(g/32) y) dy.
    """
    g = 8.0 * rho * alpha * alpha
    with mpmath.workdps(30):
        c = mpmath.sqrt(mpmath.mpf(g) / 32)
        integral = mpmath.quad(
            lambda y: y * y * mpmath.exp(-y * y) / mpmath.tanh(c * y),
            [0, 1, mpmath.inf])
        return float(rho * mpmath.sqrt(g) / (2 * mpmath.sqrt(2)) * integral)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _rel_err(got, want) -> float:
    if got == want:
        return 0.0
    return float(abs(Fraction(got) - Fraction(want))
                 / max(abs(Fraction(got)), abs(Fraction(want))))


def nondeterministic(passes: list) -> list:
    """Indices of requests whose stdout differs between passes."""
    first = passes[0]
    return sorted({i for outs in passes[1:] for i, out in enumerate(outs)
                   if out != first[i]})


class Checker:
    """Checks the outputs of one benchmark run.

    Feed the reference outputs first (``check`` on each), then the pass
    outputs, then call ``finish`` for the checks that span requests.
    """

    def __init__(self):
        self.errors: list = []
        self.series: dict = {}   # (N, p, q) -> (J, Delta) from exact outputs
        self.kpz: dict = {}      # (rho, q) -> {N: Delta}

    def fail(self, argv, message):
        self.errors.append(f"{' '.join(argv)}: {message}")

    def check(self, argv: list, stdout: str):
        handler = {"exact": self._exact, "sweep": self._sweep,
                   "simulate": self._simulate, "oracle": self._oracle,
                   "verify-tq": self._verify_tq}[argv[0]]
        try:
            handler(argv, stdout)
        except (ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError) as exc:
            self.fail(argv, f"malformed output ({type(exc).__name__}: {exc})")

    def _close(self, argv, name, got, want, exact, rtol=FLOAT_RTOL):
        if exact:
            if Fraction(got) != Fraction(want):
                self.fail(argv, f"{name} = {got}, expected {want}")
        elif _rel_err(got, want) > rtol:
            self.fail(argv, f"{name} = {float(got)!r}, expected "
                      f"{float(want)!r} (rel. err. {_rel_err(got, want):.2e}"
                      f" > {rtol})")

    def _add_kpz_point(self, argv, rho, q, N, Delta, exact):
        points = self.kpz.setdefault((rho, q), {})
        if N in points:
            self._close(argv, f"Delta at N = {N} (vs another request)",
                        Delta, points[N], exact)
        points[N] = Delta

    def _exact(self, argv, stdout):
        doc = json.loads(stdout)
        res = doc["result"]
        N, p = int(option(argv, "n")), int(option(argv, "p"))
        q = Fraction(option(argv, "q"))
        exact = doc["backend"]["kind"] == "rational"
        if (res["N"], res["p"], Fraction(res["q"])) != (N, p, q):
            self.fail(argv, "N, p or q differ from the request")
        v = {key: Fraction(res[key]) for key in
             ("J", "Z", "Delta", "j_N", "v_p", "Delta_j", "Delta_p", "pJ",
              "S1", "S2")}
        if exact:
            self._close(argv, "J", v["J"], exact_current(N, p, q), True)
            self._close(argv, "Z", v["Z"], partition_exact(N, p, q)[1], True)
        else:
            self._close(argv, "J", v["J"], float_current(N, p, q), False)
            self._close(argv, "Z", v["Z"],
                        partition_float(N, p, q)[1], False)
        rho = Fraction(p, N)
        self._close(argv, "j_N", v["j_N"], v["J"] / N, exact)
        self._close(argv, "v_p", v["v_p"], v["j_N"] / rho, exact)
        self._close(argv, "pJ", v["pJ"], p * v["J"], exact)
        self._close(argv, "Delta_j", v["Delta_j"], v["Delta"] / N ** 2, exact)
        self._close(argv, "Delta_p", v["Delta_p"], v["Delta_j"] / rho ** 2,
                    exact)
        # Delta = pJ + (2 N^2 / Z^2)(S1 + S2), judged against its largest term
        pref = 2 * Fraction(N) ** 2 / v["Z"] ** 2
        terms = (v["pJ"], pref * v["S1"], pref * v["S2"])
        gap = v["Delta"] - sum(terms)
        if (gap != 0) if exact else \
                abs(gap) > FLOAT_RTOL * max(abs(t) for t in terms):
            self.fail(argv, f"Delta - pJ - 2N^2/Z^2 (S1 + S2) = {float(gap)}")
        self.series[(N, p, q)] = (v["J"], v["Delta"])
        self._add_kpz_point(argv, rho, q, N, v["Delta"], exact)

    def _sweep(self, argv, stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        Ns = [int(tok) for tok in option(argv, "n").split(",")]
        if [int(r["N"]) for r in rows] != Ns:
            self.fail(argv, "rows do not match the requested sizes")
            return
        rho = Fraction(option(argv, "rho"))
        alpha = option(argv, "alpha")
        devs = []
        for r in rows:
            N, p = int(r["N"]), int(r["p"])
            val = {k: Fraction(r[k]) for k in
                   ("q", "J", "Delta", "Delta_over_N32", "Delta_over_N",
                    "prediction", "gap")}
            if p != rho * N:
                self.fail(argv, f"p = {p} at N = {N}")
            if alpha is None:
                q = Fraction(option(argv, "q"))
                pred = kpz_constant(float(rho), float(q))
                scaled = val["Delta_over_N32"]
                self._add_kpz_point(argv, rho, q, N, val["Delta"], False)
            else:
                q = crossover_q(N, float(alpha))
                pred = crossover_value(float(rho), float(alpha))
                scaled = val["Delta_over_N"]
                devs.append(abs(float(scaled) - pred))
            self._close(argv, f"q at N = {N}", val["q"], Fraction(float(q)),
                        False, 1e-15)
            self._close(argv, f"J at N = {N}", val["J"],
                        float_current(N, p, q), False)
            self._close(argv, f"prediction at N = {N}", val["prediction"],
                        pred, False, PREDICTION_RTOL)
            self._close(argv, f"Delta/N^1.5 at N = {N}",
                        val["Delta_over_N32"], float(val["Delta"]) / N ** 1.5,
                        False, 1e-15)
            self._close(argv, f"Delta/N at N = {N}", val["Delta_over_N"],
                        val["Delta"] / N, False, 1e-15)
            self._close(argv, f"gap at N = {N}", val["gap"],
                        scaled - val["prediction"], False, 1e-12)
        if any(b >= a for a, b in zip(devs, devs[1:])):
            self.fail(argv, f"|Delta/N - rho F(g)| not strictly decreasing: "
                      f"{devs}")

    def _simulate(self, argv, stdout):
        """z tests against the series values with the series' own errors.

        Over R replicas of a window t, W = Y(t_burn + t) - Y(t_burn) has
        variance Delta t, so J_hat has standard error sqrt(Delta / (t R))
        and Delta_hat, a sample variance over t, has Delta sqrt(2/(R-1))
        for near-Gaussian W.  The program's own error bars are only
        required to be positive and of the right size.
        """
        res = json.loads(stdout)["result"]
        N, p = int(option(argv, "n")), int(option(argv, "p"))
        q = Fraction(option(argv, "q"))
        t, R = float(option(argv, "t-measure")), int(option(argv, "reps"))
        if (res["seed"], res["reps"]) != (int(option(argv, "seed")), R):
            self.fail(argv, "seed or reps differ from the request")
        if res["total_events"] <= 0:
            self.fail(argv, "no events simulated")
        ref = self.series.get((N, p, q))
        if ref is None:
            self.fail(argv, "no series reference for this system")
            return
        J, Delta = float(ref[0]), float(ref[1])
        se_J = math.sqrt(Delta / (t * R))
        if not (se_J / 3 <= res["se_J"] <= 3 * se_J and res["se_D"] > 0):
            self.fail(argv, f"reported errors se_J = {res['se_J']}, se_D = "
                      f"{res['se_D']} (expected se_J near {se_J:.4g})")
        for est, want, se in (("J_hat", J, se_J),
                              ("Delta_hat", Delta,
                               Delta * math.sqrt(2 / (R - 1)))):
            z = abs(res[est] - want) / se
            if not z <= MC_Z_BOUND:
                self.fail(argv, f"{est} = {res[est]} is {z:.2f} standard "
                          f"errors from the series value {want!r} "
                          f"(bound {MC_Z_BOUND})")

    def _oracle(self, argv, stdout):
        doc = json.loads(stdout)
        res = doc["result"]
        N, p = int(option(argv, "n")), int(option(argv, "p"))
        q = Fraction(option(argv, "q"))
        if res["states"] != math.comb(N + p - 1, p):
            self.fail(argv, f"states = {res['states']}, expected "
                      f"C({N + p - 1}, {p})")
        exact = doc["backend"]["kind"] == "rational"
        ref = self.series.get((N, p, q))
        if ref is None:
            self.fail(argv, "no series reference for this system")
            return
        self._close(argv, "J", res["J"], ref[0], exact, ORACLE_FLOAT_RTOL)
        self._close(argv, "Delta", res["Delta"], ref[1], exact,
                    ORACLE_FLOAT_RTOL)
        self._close(argv, "lambda1", res["lambda1"], res["J"], True)
        self._close(argv, "Delta", res["Delta"],
                    2 * Fraction(res["lambda2"]), exact)
        if not res["solve_residual"] <= ORACLE_RESIDUAL_MAX:
            self.fail(argv, f"solve residual {res['solve_residual']}")

    def _verify_tq(self, argv, stdout):
        res = json.loads(stdout)["result"]
        N, p = int(option(argv, "n")), int(option(argv, "p"))
        q = Fraction(option(argv, "q"))
        if res["residual_zero"] is not True or \
                Fraction(res["max_residual"]) != 0:
            self.fail(argv, f"nonzero residual {res['max_residual']}")
        if res["lambda1_equals_J"] is not True:
            self.fail(argv, "lambda1_equals_J is not true")
        self._close(argv, "J", res["J"], exact_current(N, p, q), True)
        self._close(argv, "lambda1", res["lambda1"], res["J"], True)
        self._close(argv, "Q1(1)", res["Q1_at_1"], p, True)

    def finish(self) -> list:
        """Run the checks that span requests; return all error messages."""
        for (rho, q), points in sorted(self.kpz.items()):
            if len(points) < 2:
                continue
            K = kpz_constant(float(rho), float(q))
            sizes = sorted(points)
            devs = [abs(float(points[N]) / N ** 1.5 / K - 1) for N in sizes]
            for (n1, d1), (n2, d2) in zip(zip(sizes, devs),
                                          zip(sizes[1:], devs[1:])):
                ratio = (d2 * n2) / (d1 * n1)
                if not (d2 < d1 and TREND_BAND[0] <= ratio <= TREND_BAND[1]):
                    self.errors.append(
                        f"rho = {rho}, q = {q}: |Delta/N^1.5 / K - 1| = "
                        f"{d1:.4g} at N = {n1}, {d2:.4g} at N = {n2}; "
                        f"(deviation * N) ratio {ratio:.3f} outside "
                        f"{TREND_BAND}")
        return self.errors
