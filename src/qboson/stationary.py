"""Stationary state of the q-boson zero range process on a ring.

Rates u(n) = (1 - q^n)/(1 - q), from which the oracle and the Monte Carlo
each form the one-site weights f(m) = 1/(u(1)...u(m)) of the series
F(z) = sum_m f(m) z^m.  The series route never forms f: the partition
functions Z(N, k) = [z^k] F(z)^N come from d_m, the closed-form
coefficients of z (ln F)', for q <= 1, and from the q-difference identity
of F^N for q > 1; the mean integrated current is
J = N Z(N, p-1)/Z(N, p), and the phi-series (J/p) (ln F)' - 1 of the
diffusion-coefficient formula reads d.

q = 1 is supported throughout this module (f(m) = 1/m!, F^N = e^(Nz));
only the phi-series is restricted to q != 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import Backend, InputError, RATIONAL, TruncSeries


@dataclass(frozen=True)
class ModelParams:
    """Ring size N, particle number p and deformation parameter q.

    q is a scalar of backend; rates are positive only for q > -1.  On the
    float backend q_error bounds the relative error of q, in units of
    2^-P: the q a request stands for lies within |q| q_error 2^-P of it.
    The rational backend's q is exact and q_error is not read.
    """

    N: int
    p: int
    q: object
    backend: Backend
    q_error: float = 1

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


def model(N: int, p: int, q, backend: Backend = RATIONAL,
          q_error: float = 1) -> ModelParams:
    """The model at a raw q scalar; on the float backend q is first
    rounded into a scalar of that backend.  q_error is the relative error
    of the q passed, in units of 2^-P, with that rounding: 1 for an exact
    q rounded once (see ModelParams)."""
    if not backend.exact:
        q = backend.ratio(q)
    return ModelParams(N=N, p=p, q=q, backend=backend, q_error=q_error)


def binomial_row(N: int, k: int) -> list:
    """C(N, 0), ..., C(N, k), each from the one before by
    C(N, j) = C(N, j-1) (N - j + 1) / j: k big-int steps for the row."""
    row = [1]
    for j in range(1, k + 1):
        row.append(row[-1] * (N - j + 1) // j)
    return row


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
    P-bit Z(N, k) lies within 8 (k + 1) 2^-P of its value at that q
    (``partition_error``).
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

    For q <= 1, z G' = N z (ln F)' G at z^k is
    k g_k = N sum_{j=1..k} d_j g_(k-j), g_0 = 1, with every d_j > 0 for
    -1 < q < 1 (log_derivative_coefficients).  For q > 1 the d_j
    alternate in sign and that sum cancels; there F(z) =
    prod_{i>=0} (1 + (1 - 1/q) q^-i z), so G(qz) = (1 + (q - 1) z)^N G(z),
    which at z^k, divided by q - 1, is

        g_k [k]_q = sum_{j=1..min(N,k)} C(N, j) (q - 1)^(j-1) g_(k-j),

    [k]_q = (q^k - 1)/(q - 1) = 1 + q [k-1]_q: every term is positive.
    Either way each coefficient is one backend.dot, over a vector decoded
    once and the decoded g reversed, each g_k decoded as it is appended.
    Each caller names the degree it reads: 2p - 1 for the diffusion
    coefficient, p for the first-order T-Q check and at q = 1 or p = 1.
    J reads Z(N, p), so degree >= p.  Z(N, k) reads only g_0..g_(k-1), so
    it is the same at any degree.
    """
    if degree < params.p:
        raise InputError(f"degree must be >= p = {params.p}, got {degree}")
    backend, N, q = params.backend, params.N, params.q
    g = [backend.integer(1)]
    gv = backend.vector(g)
    if q > 1:
        # w_j = C(N, j) (q - 1)^(j-1), j = 1..min(N, degree)
        c, power, w = q - 1, 1, []
        for binom in binomial_row(N, min(N, degree))[1:]:
            w.append(binom * power)
            power = power * c
        w, qint = backend.vector(w), 0
        for k in range(1, degree + 1):
            qint = 1 + q * qint
            # g_(k-1) down to g_(k-min(N,k))
            tail = gv[k - 1:k - 1 - N if k > N else None:-1]
            g.append(backend.dot(w[:k], tail) / qint)
            gv.append(g[-1])
    else:
        d = backend.vector(log_derivative_coefficients(params, degree))
        for k in range(1, degree + 1):
            g.append(N * backend.dot(d[:k], gv[k - 1::-1]) / k)
            gv.append(g[-1])
    return StationaryData(Zvals=tuple(g),
                          J=N * g[params.p - 1] / g[params.p])


def float64_current(params: ModelParams) -> float:
    """J = N Z(N, p-1)/Z(N, p) for q > 1 in float64, by the q-difference
    identity of compute_stationary in log space, as g_k and its terms
    leave float64's range.  No term cancels: it matched the rational J
    within 6e-14 relative at (N, p, q) = (2, 50, 2), (4, 4, 1e17),
    (2, 6, 1e6) and (64, 128, 3/2).  It takes 3 ms at N = 64, p = 256,
    q = 3/2, where the rational compute_stationary takes 15 s."""
    N, p, q = params.N, params.p, params.q
    lq, lc = math.log(q), math.log(q - 1)
    log_w = [math.log(binom) + (j - 1) * lc
             for j, binom in enumerate(binomial_row(N, min(N, p))[1:], 1)]
    log_g = [0.0]
    for k in range(1, p + 1):
        terms = [w + log_g[k - j] for j, w in enumerate(log_w[:k], 1)]
        top = max(terms)
        total = math.fsum(math.exp(x - top) for x in terms)
        # log [k]_q = k log q + log(1 - q^-k) - log(q - 1)
        log_g.append(top + math.log(total) - k * lq
                     - math.log(-math.expm1(-k * lq)) + lc)
    return N * math.exp(log_g[p - 1] - log_g[p])


def q_amplification(params: ModelParams):
    """kappa = |q| / |1 - |q||, a float-backend scalar, for q != 1.

    For |q| < 1 a relative error e of q moves 1 - q^m by at most
    m |q|^m e <= kappa e |1 - q^m|, since 1 - |q|^m >= m |q|^(m-1)
    (1 - |q|) (for q < 0 and odd m, 1 - q^m > 1 moves less).  For q > 1
    the same holds for 1 - r^m, r = 1/q, as 1/(q - 1) <= kappa, and
    d_m = (1 - q)^m/(1 - q^m) moves by at most m kappa e.
    """
    s = abs(params.q)
    return s / abs(1 - s)


def partition_error(params: ModelParams, k: int) -> tuple:
    """(rounding, input): the P-bit Z(N, k) from compute_stationary lies
    within (rounding + input) 2^-P relative of Z(N, k) at the q the
    request stands for, to first order.  Float backend only.

    rounding, the error at the rounded q: 8 (k + 1) for q <= 1
    (log_derivative_coefficients).  For q > 1, with u = 2^-P: w_j =
    C(N, j) (q - 1)^(j-1) is within 2j u (q - 1 and the running power
    carry 2j - 3 roundings, the binomial one), [k]_q within 2 (k - 1) u
    (two roundings a step, positive terms), and the dot of positive terms
    and the quotient add 3u, so E_k <= max_j (2j u + E_(k-j)) + (2k + 1) u
    <= (k^2 + 4k) u, the j = 1 chain being the longest.

    input, q's relative error e = q_error (units of u) moved through the
    exact Z(N, k), kappa = q_amplification: each d_m moves by at most
    (m + 1) kappa e, so for q < 1, where Z(N, k) is a positive polynomial
    in the d_m of weight k, by at most 2k kappa e.  For q > 1, (q - 1)^(j-1)
    moves by (j - 1) kappa and [k]_q by (k - 1) times the error, so
    E_k <= max_j ((j - 1) kappa e + E_(k-j)) + (k - 1) e
    <= (k^2/2 + k kappa) e.  q = 1 is taken as exact: input is 0.
    """
    backend, q = params.backend, params.q
    if q > 1:
        rounding = k * k + 4 * k
        scale = backend.ratio(k * k, 2) + k * q_amplification(params)
    else:
        rounding = 8 * (k + 1)
        scale = 0 if q == 1 else 2 * k * q_amplification(params)
    return rounding, scale * backend.ratio(params.q_error)


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
