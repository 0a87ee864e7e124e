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


def crossover_F(g: float) -> float:
    """Universal crossover value F(g, infinity).

    (sqrt(g)/(2 sqrt(2))) * integral_0^inf y^2 e^{-y^2} / tanh(c y) dy with
    c = sqrt(g)/sqrt(32); the integrand extends continuously by 0 at y = 0.
    Adaptive Gauss-Kronrod panels cover [0, 10]; beyond that the Gaussian
    tail is bounded analytically.  The quadrature's error estimate plus
    that bound, times the prefactor, must stay below _QUAD_TOL.
    """
    # scipy is the slowest import of the package and only this needs it
    from scipy.integrate import quad

    g = float(g)
    if g <= 0:
        raise InputError(f"crossover parameter g must be > 0, got {g}")
    c = math.sqrt(g) / math.sqrt(32.0)
    prefactor = math.sqrt(g) / (2.0 * math.sqrt(2.0))

    def integrand(y):
        if y == 0.0:
            return 0.0
        return y * y * math.exp(-y * y) / math.tanh(c * y)

    value, err = quad(integrand, 0.0, _QUAD_UPPER,
                      epsabs=min(1e-12, _QUAD_TOL / (4 * max(prefactor, 1.0))),
                      epsrel=1e-12, limit=200)
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
