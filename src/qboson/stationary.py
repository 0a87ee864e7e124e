"""Stationary state of the q-boson zero range process on a ring.

Rates u(n) = (1 - q^n)/(1 - q), from which the oracle and the Monte Carlo
each form the one-site weights f(m) = 1/(u(1)...u(m)) of the series
F(z) = sum_m f(m) z^m.  The series route reads only d_m, the closed-form
coefficients of z (ln F)': the partition functions Z(N, k) = [z^k] F(z)^N,
built from d, the mean integrated current J = N Z(N, p-1)/Z(N, p), and the
phi-series (J/p) (ln F)' - 1 of the diffusion-coefficient formula.

q = 1 is supported throughout this module (f(m) = 1/m!, F^N = e^(Nz));
only the phi-series is restricted to q != 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import Backend, InputError, RATIONAL, TruncSeries


@dataclass(frozen=True)
class ModelParams:
    """Ring size N, particle number p and deformation parameter q.

    q is a scalar of backend; rates are positive only for q > -1.
    """

    N: int
    p: int
    q: object
    backend: Backend

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"N must be >= 1, got {self.N}")
        if self.p < 1:
            raise InputError(f"p must be >= 1, got {self.p}")
        if not self.q > -1:   # NaN fails this too
            raise InputError(f"q must be > -1, got {self.q}")

    @property
    def rho(self):
        """Mean density p/N."""
        return self.backend.ratio(self.p, self.N)


def model(N: int, p: int, q, backend: Backend = RATIONAL) -> ModelParams:
    """The model at a raw q scalar; on the float backend q is first
    rounded into a scalar of that backend."""
    if not backend.exact:
        q = backend.ratio(q)
    return ModelParams(N=N, p=p, q=q, backend=backend)


def rate_u(n: int, params: ModelParams):
    """Jump rate out of a site holding n particles: the q-integer [n]_q."""
    if n < 0:
        raise InputError(f"occupation must be >= 0, got {n}")
    q, backend = params.q, params.backend
    if n == 0:
        return backend.integer(0)
    if q == 1:
        return backend.integer(n)
    return (1 - q ** n) / (1 - q)


def log_derivative_coefficients(params: ModelParams, degree: int) -> list:
    """d_1..d_degree, the coefficients of z (ln F(z))' = sum_m d_m z^m.

    F(z) = prod_{i>=0} 1/(1 - (1-q) q^i z) for |q| < 1, so
    d_m = (1 - q)^m / (1 - q^m), as rational functions of q for q > 1 too;
    d = (1, 0, 0, ...) at q = 1, where F = e^z.  1 - q^m is t_m, or 2 - t_m
    for q < 0 and odd m, with t_m = 1 - |q|^m = (1 - |q|) + |q| t_(m-1), a
    sum of two terms of one sign; 1 - q^m from the running product q^m
    would cancel near q = +-1.

    Error at P bits for -1 < q < 1, u = 2^-P, to first order: (1 - q)^m
    and t_m carry 2m - 1 roundings each, 2 - t_m (0 < t_m <= 1) and the
    quotient one more each, so d_m > 0 is within 4m u.  compute_stationary
    adds the positive d_j g_(k-j) in one dot, within 2u of their sum
    (FloatBackend.dot), and scales by N/k in two roundings, so the relative
    error of g_k is E_k <= max_j (4j u + E_(k-j)) + 4u <= 8k u.  The extra
    8u in 8 (k + 1) u covers the higher orders while 8 k^2 u <= 1: each
    P-bit Z(N, k) lies within 8 (k + 1) 2^-P of its value at that q.
    """
    backend, q = params.backend, params.q
    if q == 1:
        return [backend.integer(int(m == 1)) for m in range(1, degree + 1)]
    c, s = 1 - q, abs(q)
    sigma, a, t, d = 1 - s, 1, 0, []
    for m in range(1, degree + 1):
        a, t = a * c, sigma + s * t
        d.append(a / (2 - t if q < 0 and m % 2 else t))
    return d


@dataclass(frozen=True)
class StationaryData:
    """Partition values Z(N, 0..degree) and the current J."""

    Zvals: tuple              # Z(N, k) = [z^k] F(z)^N for k = 0..degree
    J: object                 # mean integrated current, events per unit time


def compute_stationary(params: ModelParams, degree: int) -> StationaryData:
    """Z(N, 0..degree), the coefficients g_k of G = F^N, and J.

    z G' = N z (ln F)' G at z^k is k g_k = N sum_{j=1..k} d_j g_(k-j),
    g_0 = 1: one backend.dot per coefficient, over the decoded d and the
    decoded g reversed, each g_k decoded as it is appended.  Each caller
    names the degree it reads: 2p - 1 for the diffusion coefficient, p for
    the first-order T-Q check and at q = 1.  J reads Z(N, p), so degree
    >= p.  Z(N, k) reads only d_1..d_k, so it is the same at any degree.
    """
    if degree < params.p:
        raise InputError(f"degree must be >= p = {params.p}, got {degree}")
    backend, N = params.backend, params.N
    d = backend.vector(log_derivative_coefficients(params, degree))
    g = [backend.integer(1)]
    gv = backend.vector(g)
    for k in range(1, degree + 1):
        g.append(N * backend.dot(d[:k], gv[k - 1::-1]) / k)
        gv.append(g[-1])
    return StationaryData(Zvals=tuple(g),
                          J=N * g[params.p - 1] / g[params.p])


def intensive_quantities(params: ModelParams, J, Delta) -> dict:
    """Per-bond and per-particle cumulants derived from J and Delta."""
    N = params.N
    rho = params.rho
    jN = J / N
    Dj = Delta / (N * N)
    return {"j_N": jN, "v_p": jN / rho, "Delta_j": Dj,
            "Delta_p": Dj / (rho * rho)}


def phi_coefficients(params: ModelParams, J, degree: int) -> TruncSeries:
    """Series coefficients of phi(z) = (J/p) (ln F(z))' - 1 up to degree:
    phi_m = (J/p) d_(m+1) - [m = 0], d from log_derivative_coefficients.
    """
    if params.q == 1:
        raise InputError("the phi series is undefined at q = 1; "
                         "use the free-particle values J = Delta = p")
    ratio = J / params.p
    coeffs = [ratio * d
              for d in log_derivative_coefficients(params, degree + 1)]
    coeffs[0] = coeffs[0] - 1
    return TruncSeries(coeffs)
