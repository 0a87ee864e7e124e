"""Large-N asymptotics: saddle point, KPZ constants, EW-KPZ crossover.

Everything here evaluates in ordinary double precision; the exact-series
modules provide the finite-N values these asymptotics are compared with.

The central object is h(z) = ln F(z) - rho ln z and its scaled-derivative
values h_k = (z d/dz)^k h at the saddle z*, the smallest positive solution
of z (ln F(z))' = rho.  The h_k are evaluated from the infinite-product
form of ln F (termwise closed-form derivatives with geometric truncation),
not from its power series: the product converges for every admissible z in
both regimes, while the series disk can exclude z* for q > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import InputError, SolverError, require_positive

SQRT_PI = math.sqrt(math.pi)
# relative truncation bound of the product sum for ln F and its derivatives
_PRODUCT_TOL = 1e-14


def _dlog1m(v: float, k: int) -> float:
    """(v d/dv)^k ln(1 - v)."""
    if k == 0:
        return math.log1p(-v)
    u = 1.0 - v
    if k == 1:
        return -v / u
    if k == 2:
        return -v / u ** 2
    if k == 3:
        return -v * (1.0 + v) / u ** 3
    if k == 4:
        return -v * (1.0 + 4.0 * v + v * v) / u ** 4
    raise InputError(f"derivative order {k} not supported (0..4)")


def _product_params(q) -> tuple[float, float]:
    """Scale c and ratio t of the product factors w_i = c t^i z.

    ln F(z) = -sum_i ln(1 - w_i) for |q| < 1 (c = 1-q, t = q) and
    ln F(z) = +sum_i ln(1 + w_i) for q > 1 (c = 1-1/q, t = 1/q).  q is a
    real number (an int, Fraction or float), > -1 and not 1.
    """
    if not q > -1:
        raise InputError(f"q must be > -1, got {q}")
    if q == 1:
        raise InputError("ln F product form is undefined at q = 1")
    qf = float(q)
    if q > 1:
        return 1.0 - 1.0 / qf, 1.0 / qf
    return 1.0 - qf, qf


def log_f_log_derivative(z: float, q, k: int) -> float:
    """(z d/dz)^k ln F(z) by termwise differentiation of the product form.

    Truncates the product sum once the geometric tail bound drops below
    _PRODUCT_TOL relative to the sum.  z must lie inside the convergence
    domain: z (1-q) < 1 for |q| < 1, any z > 0 for q > 1.
    """
    z = float(z)
    if z < 0:
        raise InputError(f"z must be >= 0, got {z}")
    if z == 0:
        return 0.0
    c, t = _product_params(q)
    greater = q > 1
    if not greater and z * c >= 1.0:
        raise InputError(
            f"z = {z} is at or beyond the singularity 1/(1-q) = {1 / c}")
    acc = 0.0
    w = c * z
    t_abs = abs(t)
    for _ in range(10_000_000):
        v = -w if greater else w
        term = _dlog1m(v, k)
        acc += term if greater else -term
        w *= t
        # once |w| < 1/2, |(w d/dw)^k ln(1 +- w)| <= 52 |w| for k <= 4, so
        # the remaining terms are bounded by 52 sum_{j>=0} |w| t^j
        if abs(w) < 0.5 and 52.0 * abs(w) / (1.0 - t_abs) <= \
                _PRODUCT_TOL * abs(acc):
            return acc
    raise SolverError("product expansion of ln F did not converge")


def saddle_point(rho: float, q) -> float:
    """Smallest positive root of z (ln F(z))' = rho.

    z (ln F)' is increasing in z with range (0, inf) on the admissible
    interval, so the root is unique: bisection halves its bracket until
    the ends are adjacent doubles and returns their midpoint.
    """
    rho = require_positive("density", float(rho))

    def L(z):
        return log_f_log_derivative(z, q, 1)

    c, _ = _product_params(q)
    greater = q > 1
    hi = 1.0 if greater else (1.0 - 1e-15) / c
    while L(hi) < rho:
        if not greater or hi > 1e300:
            raise SolverError("failed to bracket the saddle point")
        hi *= 2.0
    lo = 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if L(mid) < rho:
            lo = mid
        else:
            hi = mid
    return mid


@dataclass(frozen=True)
class SaddleData:
    """Saddle z*, h_k values, and the derived KPZ-scale quantities.

    h_k = (z d/dz)^k [ln F(z) - rho ln z] at z*; the saddle condition is
    h_1 = 0 and h_2 > 0.  j_inf = z* is the infinite-system bond current,
    lambda_nl the current-density curvature, A = h_2 the height-covariance
    amplitude, and current_fss = lim N (j_N - j_inf) = (z*/2)(h3/h2^2 - 1/h2).
    """

    rho: float
    q: object
    zstar: float
    h: tuple
    free_energy: float
    j_inf: float
    lambda_nl: float
    A: float
    current_fss: float


def saddle_data(rho: float, q) -> SaddleData:
    rho = float(rho)
    zstar = saddle_point(rho, q)
    try:
        h = [log_f_log_derivative(zstar, q, k) for k in range(5)]
    except OverflowError:
        raise SolverError(
            f"the h_k at the saddle z* = {zstar} overflow float64") from None
    h[0] -= rho * math.log(zstar)
    h[1] -= rho
    h2, h3 = h[2], h[3]
    if h2 <= 0:
        raise SolverError(f"h_2 = {h2} <= 0 at the saddle; no valid expansion")
    if h2 ** 2 == 0:   # lambda divides by it, and kpz_coefficient by h2^1.5
        raise SolverError(f"h_2 = {h2} at the saddle: its square "
                          "underflows float64")
    lam = (zstar / h2) * (1.0 / h2 - h3 / h2 ** 2)
    fss = (zstar / 2.0) * (h3 / h2 ** 2 - 1.0 / h2)
    return SaddleData(rho=rho, q=q, zstar=zstar, h=tuple(h),
                      free_energy=-h[0], j_inf=zstar, lambda_nl=lam,
                      A=h2, current_fss=fss)


def kpz_coefficient(saddle: SaddleData) -> float:
    """Predicted lim Delta / N^{3/2}.

    K = (sqrt(pi)/4) z* |h3 - h2| / h2^{3/2}, equal to
    kappa_KPZ A^{3/2} |lambda| with kappa_KPZ = sqrt(pi)/4.
    """
    _, _, h2, h3, _ = saddle.h
    return SQRT_PI / 4.0 * saddle.zstar * abs(h3 - h2) / h2 ** 1.5


# ---------------------------------------------------------------------------
# EW-KPZ crossover
# ---------------------------------------------------------------------------

_QUAD_UPPER = 10.0
# absolute error bound of F(g, infinity): quadrature estimate plus tail
_QUAD_TOL = 1e-10
# bisections after which the panels still pending are accepted as they
# stand, their differences left for the _QUAD_TOL gate
_QUAD_MAX_BISECTIONS = 200
# the 20-point Gauss-Legendre rule on [-1, 1], as (1 - x, w) for each pair
# of nodes +-x; each value is a 200-bit one correctly rounded to a double.
# Nodes are placed from the nearer panel end, at a + h (1 - x) and
# b - h (1 - x): m +- h x carries the rounding of x, times h, into the
# nodes next to an end, and took F to 3.6 ulp from its 200-bit value, where
# this placement stays within 1.8 ulp (over 1000 log-uniform g).
_GAUSS_LEGENDRE_20 = (
    (0.0068714008149050754, 0.017614007139152118),
    (0.03602807272208621, 0.04060142980038694),
    (0.0877655717486741, 0.06267204833410907),
    (0.1608830281777812, 0.08327674157670475),
    (0.2536680935398492, 0.10193011981724044),
    (0.363946319273485, 0.11819453196151841),
    (0.48913299804917293, 0.13168863844917664),
    (0.6262939112845805, 0.14209610931838204),
    (0.7722141488583549, 0.14917298647260374),
    (0.9234734788665027, 0.15275338713072584),
)


def _gauss_legendre(f, a: float, b: float) -> list:
    """The 20 terms of the 20-point Gauss-Legendre rule for the integral
    of f over [a, b], one for each node."""
    h = 0.5 * (b - a)
    return [h * w * f(y) for t, w in _GAUSS_LEGENDRE_20
            for y in (a + h * t, b - h * t)]


def _adaptive_quad(f, edges: list, epsabs: float,
                   epsrel: float) -> tuple[float, float]:
    """Integral of f over [edges[0], edges[-1]] and its error estimate.

    Each panel's rule value is compared with the sum of the rule over its
    two halves.  A panel keeps its halves once they differ from it by at
    most its share, by width, of max(epsabs, epsrel |first estimate|); else
    each half becomes a panel.  The estimate sums the kept differences,
    and the integral is one fsum over the kept halves' terms, so that it
    is rounded once rather than once per panel.
    """
    pending = [(a, b, math.fsum(_gauss_legendre(f, a, b)))
               for a, b in zip(edges, edges[1:])]
    first = math.fsum(whole for _, _, whole in pending)
    tol = max(epsabs, epsrel * abs(first)) / (edges[-1] - edges[0])
    terms, err, bisections = [], 0.0, 0
    while pending:
        a, b, whole = pending.pop()
        mid = 0.5 * (a + b)
        left, right = _gauss_legendre(f, a, mid), _gauss_legendre(f, mid, b)
        left_sum, right_sum = math.fsum(left), math.fsum(right)
        bisections += 1
        diff = abs(left_sum + right_sum - whole)
        if diff <= tol * (b - a) or bisections > _QUAD_MAX_BISECTIONS:
            terms += left + right
            err += diff
        else:
            pending += ((a, mid, left_sum), (mid, b, right_sum))
    return math.fsum(terms), err


def crossover_F(g: float) -> float:
    """Universal crossover value F(g, infinity).

    (sqrt(g)/(2 sqrt(2))) * integral_0^inf y^2 e^{-y^2} / tanh(c y) dy with
    c = sqrt(g)/sqrt(32); the integrand extends continuously by 0 at y = 0.
    An adaptive composite 20-point Gauss-Legendre rule covers [0, 10]; its
    error estimate compares each panel's value with the sum over its two
    halves.  Beyond 10 the Gaussian tail is bounded analytically.  The
    estimate plus that bound, times the prefactor, must stay below
    _QUAD_TOL.
    """
    g = float(g)
    if not g > 0:
        raise InputError(f"crossover parameter g must be > 0, got {g}")
    # sqrt(g/8) and sqrt(g/32) with one rounding each
    s = math.sqrt(2.0 * g)
    prefactor, c = 0.25 * s, 0.125 * s

    def integrand(y):
        if y == 0.0:
            return 0.0
        return y * y * math.exp(-y * y) / math.tanh(c * y)

    # 1/tanh(c y) bends on the scale 1/c near 0.  For large c, panels
    # whose nodes all lie beyond a few 1/c see y^2 e^{-y^2} alone and agree
    # with their halves, while they miss integral y^2 (coth(c y) - 1) dy,
    # about 0.6/c^3; panels doubling from 1/c up to 1 resolve the bend.
    edges, edge = [0.0], 1.0 / c
    while 0.0 < edge < 1.0:
        edges.append(edge)
        edge *= 2.0
    edges.append(_QUAD_UPPER)
    value, err = _adaptive_quad(
        integrand, edges,
        epsabs=min(1e-12, _QUAD_TOL / (4 * max(prefactor, 1.0))),
        epsrel=1e-12)
    T = _QUAD_UPPER
    gauss_tail = 0.5 * T * math.exp(-T * T) + SQRT_PI / 4 * math.erfc(T)
    tail = gauss_tail / math.tanh(c * T)
    total_err = prefactor * (err + tail)
    if total_err > _QUAD_TOL:
        raise SolverError(
            f"quadrature error estimate {total_err} above {_QUAD_TOL}")
    return prefactor * value


@dataclass(frozen=True)
class CrossoverData:
    """Crossover prediction under the scaling q = exp(-alpha/sqrt(N)).

    g = 8 rho alpha^2; D_ew = rho and nu_ew = 1/2 are the EW-limit noise
    and smoothing coefficients fixing the dimensionless combination; the
    prediction is lim Delta/N = rho * F(g, infinity), even in alpha.
    """

    alpha: float
    g: float
    D_ew: float
    nu_ew: float
    Fg: float
    prediction: float


def crossover_prediction(rho: float, alpha: float) -> CrossoverData:
    rho = require_positive("density", float(rho))
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise InputError(f"alpha must be finite, got {alpha}")
    g = 8.0 * rho * alpha * alpha
    Fg = 1.0 if g == 0.0 else crossover_F(g)
    return CrossoverData(alpha=alpha, g=g, D_ew=rho, nu_ew=0.5, Fg=Fg,
                         prediction=rho * Fg)
