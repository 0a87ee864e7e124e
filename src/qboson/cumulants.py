"""Exact group diffusion coefficient Delta of the q-boson ZRP.

Delta = pJ + (2 N^2 / Z(N,p)^2) (S1 + S2), where with C_a = Z(N, a) the
a-th coefficient of F^N, phi_b the phi-series coefficients, r the geometric
ratio (|r| < 1), and A_k = sum_{a+b=p-1-k} C_a phi_b:

    S1 = sum_{k=0}^{p-1} Z(N, p+k) A_k

    S2 = sum_{k=0}^{p-1} Z(N, p+k) [ sum_{b=0}^{p-1-k} C_{p-1-k-b} phi_b
                                      * r^{k+1+b} / (1 - r^{k+1+b})
                                    + (k >= 1) A_k * r^k / (1 - r^k) ]

S2 is the closed-form geometric resummation of an infinite sum of kernel
contributions indexed by i >= 1; the tests keep the term-by-term i-sum, with
its geometric tail bound, as a reference.  The i-independent k = 0 branch
carries the coefficient A_0, which vanishes identically because

    A_0 = [y^{p-1}] (F^N phi) = (J/N) Z(N,p) - Z(N,p-1) = 0

by the definition of J.  On the rational backend A_0 = 0 is asserted
exactly; on the float backend |A_0| must be negligible against the size of
the cancelling terms, otherwise the computation aborts.

Regime handling: for |q| < 1 the sums enter with a plus sign; for q > 1
the perturbative construction iterates the underlying q-difference
equation in the opposite direction, which flips the sign of the whole
double-integral part (S1 and S2 above are then the negated sums).  The
sign was derived by redoing the second-order construction for q > 1 and
is validated exactly against the spectral oracle.

At q = 1 the process is a sum of p independent Poisson clocks and
J = Delta = p exactly; the series machinery is bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import (Backend, SolverError, TruncSeries, geometric_factor,
                       negligible)
from .stationary import ModelParams, compute_stationary, phi_coefficients


@dataclass(frozen=True)
class DeltaResult:
    """Diffusion coefficient with its additive breakdown.

    Delta = pJ + (2 N^2 / Z^2) (S1 + S2), Z = Z(N, p).
    """

    Delta: object
    J: object
    Z: object
    pJ: object
    S1: object
    S2: object


def _a_coefficients(p: int, C, phi: TruncSeries, backend: Backend) -> list:
    """A_k = sum_{a+b=p-1-k} C_a phi_b for k = 0..p-1."""
    C, phi = backend.vector(C[:p]), backend.vector(phi.coeffs)
    return [backend.dot(C[p - 1 - k::-1], phi[:p - k]) for k in range(p)]


def _check_a0(a0, p: int, C, phi: TruncSeries, backend: Backend):
    """A_0 vanishes identically; enforce before dropping its divergent branch."""
    scale = None if backend.exact else sum(
        abs(C[p - 1 - b] * phi.coeff(b)) for b in range(p))
    if not negligible("A_0", a0, scale, backend):
        raise SolverError(
            f"internal identity violated: A_0 = {a0} != 0 on the "
            "rational backend")


def delta_exact_resummed(params: ModelParams) -> DeltaResult:
    """Exact Delta with the i-sum resummed in closed form per (k, b)."""
    backend = params.backend
    p, N = params.p, params.N
    q = params.q
    if q == 1:
        P, zero = backend.integer(p), backend.integer(0)
        Z = compute_stationary(params, p).Zvals[p]
        return DeltaResult(Delta=P, J=P, Z=Z, pJ=P * P, S1=zero, S2=zero)
    # S1 and S2 read Z(N, 0..2p-1)
    stat = compute_stationary(params, 2 * p - 1)
    Z = stat.Zvals
    phi = phi_coefficients(params, stat.J, p - 1)
    A = _a_coefficients(p, Z, phi, backend)
    _check_a0(A[0], p, Z, phi, backend)
    # gf[a - 1] = r^a / (1 - r^a) for a = 1..p
    r = backend.integer(1) / q if q > 1 else q
    gf = [geometric_factor(r, a) for a in range(1, p + 1)]
    C, phiv, gfv = map(backend.vector, (Z[:p], phi.coeffs, gf))
    inner = [backend.dot(C[p - 1 - k::-1], phiv[:p - k], gfv[k:])
             for k in range(p)]
    # A_0 = 0 carries the divergent i-independent branch; it is dropped
    for k in range(1, p):
        inner[k] = inner[k] + A[k] * gf[k - 1]
    sign = -1 if q > 1 else 1
    S1 = sign * backend.dot(Z[p:2 * p], A)
    S2 = sign * backend.dot(Z[p:2 * p], inner)
    pJ = p * stat.J
    Delta = pJ + 2 * backend.integer(N) ** 2 / Z[p] ** 2 * (S1 + S2)
    return DeltaResult(Delta=Delta, J=stat.J, Z=Z[p], pJ=pJ, S1=S1, S2=S2)
