"""Stationary state of the q-boson zero range process on a ring.

Rates u(n) = (1 - q^n)/(1 - q), one-site weights f(m) = 1/(u(1)...u(m)),
the weight generating series F(z) = sum_m f(m) z^m, partition functions
Z(N, k) read off as coefficients of F(z)^N, the mean integrated current
J = N Z(N, p-1)/Z(N, p), site marginals, and the phi-series entering the
diffusion-coefficient formula.

q = 1 is supported throughout this module (the weights degenerate to
f(m) = 1/m!); only the phi-series is restricted to q != 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import (Backend, InputError, QValue, RATIONAL, TruncSeries,
                       qvalue)


@dataclass(frozen=True)
class ModelParams:
    """Ring size N, particle number p and deformation parameter q."""

    N: int
    p: int
    q: QValue

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"N must be >= 1, got {self.N}")
        if self.p < 1:
            raise InputError(f"p must be >= 1, got {self.p}")

    @property
    def backend(self) -> Backend:
        return self.q.backend

    @property
    def rho(self):
        """Mean density p/N."""
        return self.backend.ratio(self.p, self.N)


def model(N: int, p: int, q, backend: Backend = RATIONAL) -> ModelParams:
    """Convenience constructor accepting a raw q scalar."""
    return ModelParams(N=N, p=p, q=qvalue(q, backend))


def rate_u(n: int, q: QValue):
    """Jump rate out of a site holding n particles: the q-integer [n]_q."""
    if n < 0:
        raise InputError(f"occupation must be >= 0, got {n}")
    backend = q.backend
    if n == 0:
        return backend.integer(0)
    if q.is_unity:
        return backend.integer(n)
    return (1 - q.q ** n) / (1 - q.q)


def weight_f(m: int, q: QValue):
    """One-site stationary weight f(m) = prod_{j=1}^m 1/u(j); f(0) = 1."""
    if m < 0:
        raise InputError(f"occupation must be >= 0, got {m}")
    value = q.backend.integer(1)
    for j in range(1, m + 1):
        value = value / rate_u(j, q)
    return value


def weight_series(q: QValue, degree: int) -> TruncSeries:
    """F(z) = sum_m f(m) z^m truncated at the given degree."""
    backend = q.backend
    coeffs = [backend.integer(1)]
    for j in range(1, degree + 1):
        coeffs.append(coeffs[-1] / rate_u(j, q))
    return TruncSeries(coeffs)


@dataclass(frozen=True)
class StationaryData:
    """F^N, partition values Z(N, 0..2p) and the current J."""

    params: ModelParams
    Fn: TruncSeries           # F(z)^N to degree 2p
    Zvals: tuple              # Z(N, k) for k = 0..2p
    J: object                 # mean integrated current, events per unit time


def compute_stationary(params: ModelParams) -> StationaryData:
    """Build F, F^N and the partition values in one series power.

    The diffusion-coefficient formula consumes Z(N, p..2p-1) anyway, so the
    degree is 2p and all coefficients are read in one batch.
    """
    backend = params.backend
    D = 2 * params.p
    with backend.workprec():
        F = weight_series(params.q, D)
        Fn = F.pow(params.N, backend)
        Zvals = tuple(Fn.coeffs)
        J = params.N * Zvals[params.p - 1] / Zvals[params.p]
    return StationaryData(params=params, Fn=Fn, Zvals=Zvals, J=J)


def intensive_quantities(params: ModelParams, J, Delta=None) -> dict:
    """Per-bond and per-particle cumulants derived from J and Delta.

    j_N = J/N and v^p = j_N/rho always; the Delta-type ratios only when
    Delta is given.
    """
    N = params.N
    rho = params.rho
    jN = J / N
    out = {"j_N": jN, "v_p": jN / rho}
    if Delta is not None:
        Dj = Delta / (N * N)
        out["Delta_j"] = Dj
        out["Delta_p"] = Dj / (rho * rho)
    return out


def _one_site_split(params: ModelParams):
    """F, F^(N-1) and Z(N, p) = sum_m f(m) Z(N-1, p-m), all at degree p.

    Call inside the backend's working precision.
    """
    F = weight_series(params.q, params.p)
    Fn1 = F.pow(params.N - 1, params.backend)
    Zp = sum(F.coeff(m) * Fn1.coeff(params.p - m)
             for m in range(params.p + 1))
    return F, Fn1, Zp


def site_marginal(params: ModelParams, m: int):
    """P(n_1 = m) = f(m) Z(N-1, p-m) / Z(N, p).

    For N = 1 the marginal is the point mass at p.
    """
    if not 0 <= m <= params.p:
        raise InputError(f"occupation {m} out of range 0..{params.p}")
    backend = params.backend
    if params.N == 1:
        return backend.integer(1 if m == params.p else 0)
    with backend.workprec():
        F, Fn1, Zp = _one_site_split(params)
        return F.coeff(m) * Fn1.coeff(params.p - m) / Zp


def occupation_moments(params: ModelParams, k: int):
    """Mean (k=1) or variance (k=2) of a single-site occupation number."""
    if k not in (1, 2):
        raise InputError(f"only moments k=1,2 are supported, got {k}")
    backend = params.backend
    if k == 1:
        return params.rho
    with backend.workprec():
        if params.N == 1:
            return backend.integer(0)
        F, Fn1, Zp = _one_site_split(params)
        second = backend.integer(0)
        for m in range(params.p + 1):
            second += m * m * F.coeff(m) * Fn1.coeff(params.p - m)
        second = second / Zp
        return second - params.rho * params.rho


def phi_coefficients(params: ModelParams, J, degree: int) -> TruncSeries:
    """Series coefficients of phi(z) = (J/p) (ln F(z))' - 1 up to degree.

    phi_m = (J/p) (1-q)^{m+1} / (1 - q^{m+1}) - [m = 0]; the same closed
    form covers |q| < 1 and q > 1.
    """
    params.q.require_series_regime("the phi series")
    q = params.q.q
    backend = params.backend
    with backend.workprec():
        ratio = J / params.p
        coeffs = []
        for m in range(degree + 1):
            val = ratio * (1 - q) ** (m + 1) / (1 - q ** (m + 1))
            if m == 0:
                val = val - 1
            coeffs.append(val)
    return TruncSeries(coeffs)
