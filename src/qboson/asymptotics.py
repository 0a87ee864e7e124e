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

from .numerics import (InputError, QValue, REGIME_GREATER_ONE, REGIME_UNITY,
                       SolverError)

SQRT_PI = math.sqrt(math.pi)


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


def _product_params(q: QValue) -> tuple[float, float]:
    """Scale c and ratio t of the product factors w_i = c t^i z.

    ln F(z) = -sum_i ln(1 - w_i) for |q| < 1 (c = 1-q, t = q) and
    ln F(z) = +sum_i ln(1 + w_i) for q > 1 (c = 1-1/q, t = 1/q).
    """
    if q.regime == REGIME_UNITY:
        raise InputError("ln F product form is undefined at q = 1")
    qf = float(q.q)
    if q.regime == REGIME_GREATER_ONE:
        return 1.0 - 1.0 / qf, 1.0 / qf
    return 1.0 - qf, qf


def log_f_log_derivative(z: float, q: QValue, k: int,
                         tol: float = 1e-14) -> float:
    """(z d/dz)^k ln F(z) by termwise differentiation of the product form.

    Truncates the product sum once the geometric tail bound drops below
    tol.  z must lie inside the convergence domain: z (1-q) < 1 for
    |q| < 1, any z > 0 for q > 1.
    """
    z = float(z)
    if z < 0:
        raise InputError(f"z must be >= 0, got {z}")
    if z == 0:
        return 0.0
    c, t = _product_params(q)
    greater = q.regime == REGIME_GREATER_ONE
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
        if abs(w) < 0.5 and \
                52.0 * abs(w) / (1.0 - t_abs) <= tol * max(1.0, abs(acc)):
            return acc
    raise SolverError("product expansion of ln F did not converge")


def saddle_point(rho: float, q: QValue, tol: float = 1e-13,
                 max_iter: int = 400) -> float:
    """Smallest positive root of z (ln F(z))' = rho.

    z (ln F)' is increasing in z with range (0, inf) on the admissible
    interval, so the root is unique: bisection brackets it, Newton
    polishes.
    """
    rho = float(rho)
    if rho <= 0:
        raise InputError(f"density must be positive, got {rho}")

    def L(z):
        return log_f_log_derivative(z, q, 1)

    c, _ = _product_params(q)
    if q.regime == REGIME_GREATER_ONE:
        hi = 1.0
        while L(hi) < rho:
            hi *= 2.0
            if hi > 1e300:
                raise SolverError("failed to bracket the saddle point")
        lo = 0.0
    else:
        hi = (1.0 - 1e-15) / c
        lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if L(mid) < rho:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = L(z) - rho
        if abs(g) <= tol * max(1.0, rho):
            return z
        slope = log_f_log_derivative(z, q, 2) / z
        step = g / slope
        znew = z - step
        if not lo < znew < hi:
            znew = 0.5 * (lo + hi)
        if g > 0:
            hi = z
        else:
            lo = z
        z = znew
    raise SolverError(f"saddle-point iteration did not reach |residual| <= {tol}")


@dataclass(frozen=True)
class SaddleData:
    """Saddle z*, h_k values, and the derived KPZ-scale quantities.

    h_k = (z d/dz)^k [ln F(z) - rho ln z] at z*; the saddle condition is
    h_1 = 0 and h_2 > 0.  j_inf = z* is the infinite-system bond current,
    lambda_nl the current-density curvature, A = h_2 the height-covariance
    amplitude, and current_fss = lim N (j_N - j_inf) = (z*/2)(h3/h2^2 - 1/h2).
    """

    rho: float
    q: QValue
    zstar: float
    h: tuple
    free_energy: float
    j_inf: float
    lambda_nl: float
    A: float
    current_fss: float


def saddle_data(rho: float, q: QValue, tol: float = 1e-13) -> SaddleData:
    rho = float(rho)
    zstar = saddle_point(rho, q, tol)
    lnF = log_f_log_derivative(zstar, q, 0)
    h = [lnF - rho * math.log(zstar)]
    h.append(log_f_log_derivative(zstar, q, 1) - rho)
    for k in (2, 3, 4):
        h.append(log_f_log_derivative(zstar, q, k))
    h2, h3 = h[2], h[3]
    if h2 <= 0:
        raise SolverError(f"h_2 = {h2} <= 0 at the saddle; no valid expansion")
    lam = (zstar / h2) * (1.0 / h2 - h3 / h2 ** 2)
    fss = (zstar / 2.0) * (h3 / h2 ** 2 - 1.0 / h2)
    return SaddleData(rho=rho, q=q, zstar=zstar, h=tuple(h),
                      free_energy=-h[0], j_inf=zstar, lambda_nl=lam,
                      A=h2, current_fss=fss)


def partition_asymp(N: int, saddle: SaddleData) -> float:
    """Two-term saddle-point estimate of Z(N, rho N)."""
    h0, _, h2, h3, h4 = saddle.h
    correction = 1.0 + (h4 / (4 * h2 ** 2) - 5 * h3 ** 2 / (12 * h2 ** 3)) \
        / (2 * N)
    return math.exp(N * h0) / math.sqrt(2 * math.pi * N * h2) * correction


def normalized_integral_expansion(g0: float, g1: float, g2: float,
                                  saddle: SaddleData, N: int) -> float:
    """First two orders of a Z-normalized coefficient ratio.

    For integrand values g_k = (z d/dz)^k g at z*, the normalized integral
    is g0 + (1/2N)(h3 g1/h2^2 - g2/h2) + O(N^-2); with g(z) = z this is
    the two-term expansion of the bond current j_N.
    """
    _, _, h2, h3, _ = saddle.h
    return g0 + (h3 * g1 / h2 ** 2 - g2 / h2) / (2 * N)


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


def crossover_F(g: float, quad_tol: float = 1e-10) -> float:
    """Universal crossover value F(g, infinity).

    (sqrt(g)/(2 sqrt(2))) * integral_0^inf y^2 e^{-y^2} / tanh(c y) dy with
    c = sqrt(g)/sqrt(32); the integrand extends continuously by 0 at y = 0.
    Adaptive Gauss-Kronrod panels cover [0, 10]; beyond that the Gaussian
    tail is bounded analytically and checked against the tolerance.
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
                      epsabs=min(1e-12, quad_tol / (4 * max(prefactor, 1.0))),
                      epsrel=1e-12, limit=200)
    T = _QUAD_UPPER
    gauss_tail = 0.5 * T * math.exp(-T * T) + SQRT_PI / 4 * math.erfc(T)
    tail = gauss_tail / math.tanh(c * T)
    total_err = prefactor * (err + tail)
    if total_err > quad_tol:
        raise SolverError(
            f"quadrature error estimate {total_err} above {quad_tol}")
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


def crossover_prediction(rho: float, alpha: float,
                         quad_tol: float = 1e-10) -> CrossoverData:
    rho = float(rho)
    alpha = float(alpha)
    if rho <= 0:
        raise InputError(f"density must be positive, got {rho}")
    g = 8.0 * rho * alpha * alpha
    Fg = 1.0 if g == 0.0 else crossover_F(g, quad_tol)
    return CrossoverData(alpha=alpha, g=g, D_ew=rho, nu_ew=0.5, Fg=Fg,
                         prediction=rho * Fg)
