"""Stationary state of the q-boson zero range process on a ring.

Rates u(n) = (1 - q^n)/(1 - q), one-site weights f(m) = 1/(u(1)...u(m)),
the weight generating series F(z) = sum_m f(m) z^m, partition functions
Z(N, k) read off as coefficients of F(z)^N, the mean integrated current
J = N Z(N, p-1)/Z(N, p), and the phi-series entering the
diffusion-coefficient formula.

q = 1 is supported throughout this module (the weights degenerate to
f(m) = 1/m!); only the phi-series is restricted to q != 1.
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


def weight_series(params: ModelParams, degree: int) -> TruncSeries:
    """F(z) = sum_m f(m) z^m truncated at the given degree.

    f(0) = 1 and f(m) = f(m-1)/u(m), the one-site stationary weights.
    """
    coeffs = [params.backend.integer(1)]
    for j in range(1, degree + 1):
        coeffs.append(coeffs[-1] / rate_u(j, params))
    return TruncSeries(coeffs)


@dataclass(frozen=True)
class StationaryData:
    """Partition values Z(N, 0..degree) and the current J."""

    Zvals: tuple              # Z(N, k) = [z^k] F(z)^N for k = 0..degree
    J: object                 # mean integrated current, events per unit time


def compute_stationary(params: ModelParams, degree: int) -> StationaryData:
    """Build F, F^N and the partition values Z(N, 0..degree) in one series
    power.

    Each caller names the degree it reads: 2p - 1 for the diffusion
    coefficient, p for the first-order T-Q check and at q = 1.  J reads
    Z(N, p), so degree >= p.  Miller's g_k depends only on a_1..a_k and g_0..g_(k-1),
    so Z(N, k) is the same scalar at every degree >= k.
    """
    if degree < params.p:
        raise InputError(f"degree must be >= p = {params.p}, got {degree}")
    backend = params.backend
    Zvals = tuple(weight_series(params, degree).pow(params.N, backend).coeffs)
    J = params.N * Zvals[params.p - 1] / Zvals[params.p]
    return StationaryData(Zvals=Zvals, J=J)


def intensive_quantities(params: ModelParams, J, Delta) -> dict:
    """Per-bond and per-particle cumulants derived from J and Delta."""
    N = params.N
    rho = params.rho
    jN = J / N
    Dj = Delta / (N * N)
    return {"j_N": jN, "v_p": jN / rho, "Delta_j": Dj,
            "Delta_p": Dj / (rho * rho)}


def phi_coefficients(params: ModelParams, J, degree: int) -> TruncSeries:
    """Series coefficients of phi(z) = (J/p) (ln F(z))' - 1 up to degree.

    phi_m = (J/p) (1-q)^{m+1} / (1 - q^{m+1}) - [m = 0]; the same closed
    form covers |q| < 1 and q > 1.
    """
    q = params.q
    if q == 1:
        raise InputError("the phi series is undefined at q = 1; "
                         "use the free-particle values J = Delta = p")
    ratio = J / params.p
    coeffs = []
    for m in range(degree + 1):
        val = ratio * (1 - q) ** (m + 1) / (1 - q ** (m + 1))
        if m == 0:
            val = val - 1
        coeffs.append(val)
    return TruncSeries(coeffs)
