"""Exact group diffusion coefficient Delta of the q-boson ZRP.

Delta = pJ + (2 N^2 / Z(N,p)^2) (S1 + S2), where with C_a = Z(N, a) the
a-th coefficient of F^N, phi_b the phi-series coefficients, r the geometric
ratio (|r| < 1), and A_k = sum_{a+b=p-1-k} C_a phi_b:

    S1 = sum_{k=0}^{p-1} Z(N, p+k) A_k

    S2 = sum_{k=0}^{p-1} Z(N, p+k) [ sum_{b=0}^{p-1-k} C_{p-1-k-b} phi_b
                                      * r^{k+1+b} / (1 - r^{k+1+b})
                                    + (k >= 1) A_k * r^k / (1 - r^k) ]

S2 is the closed-form geometric resummation of an infinite sum of kernel
contributions indexed by i >= 1; the i-independent k = 0 branch carries the
coefficient A_0, which vanishes identically because

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

from .numerics import (Backend, InputError, REGIME_GREATER_ONE, TruncSeries,
                       geometric_factor, negligible)
from .stationary import (ModelParams, StationaryData, compute_stationary,
                         phi_coefficients)


def _regime_sign(params: ModelParams) -> int:
    return -1 if params.q.regime == REGIME_GREATER_ONE else 1


@dataclass(frozen=True)
class DeltaResult:
    """Diffusion coefficient with its additive breakdown.

    method is "resummed" (exact geometric resummation) or "truncated"
    (partial i-sum up to i_max with a geometric tail bound, in Delta
    units).  Delta = p*J + prefactor*(S1 + S2) with prefactor 2N^2/Z^2,
    Z = Z(N, p).
    """

    Delta: object
    J: object
    Z: object
    pJ: object
    S1: object
    S2: object
    prefactor: object
    method: str
    i_max: int | None = None
    tail_bound: float | None = None


def _a_coefficients(p: int, C, phi: TruncSeries, backend: Backend) -> list:
    """A_k = sum_{a+b=p-1-k} C_a phi_b for k = 0..p-1."""
    C, phi = backend.vector(C[:p]), backend.vector(phi.coeffs)
    return [backend.dot(C[p - 1 - k::-1], phi[:p - k]) for k in range(p)]


def _check_a0(a0, p: int, C, phi: TruncSeries, backend: Backend):
    """A_0 vanishes identically; enforce before dropping its divergent branch."""
    scale = sum(abs(C[p - 1 - b] * phi.coeff(b)) for b in range(p))
    if not negligible("A_0", a0, scale, backend):
        raise ArithmeticError(
            f"internal identity violated: A_0 = {a0} != 0 on the "
            "rational backend")


def _unity_result(params: ModelParams) -> DeltaResult:
    p = params.backend.integer(params.p)
    zero = params.backend.integer(0)
    Z = compute_stationary(params, params.p).Zvals[params.p]
    return DeltaResult(Delta=p, J=p, Z=Z, pJ=p * p, S1=zero, S2=zero,
                       prefactor=zero, method="resummed")


@dataclass(frozen=True)
class _Terms:
    """What both evaluations of the i-sum share: phi, A_k, signed S1."""

    stat: StationaryData
    phi: TruncSeries
    A: list
    sign: int
    S1: object
    prefactor: object  # 2 N^2 / Z(N,p)^2


def _terms(params: ModelParams) -> _Terms:
    """Build F^N, then phi, the checked A_k, S1 and the prefactor."""
    backend = params.backend
    stat = compute_stationary(params, 2 * params.p)
    p, N = params.p, params.N
    Z = stat.Zvals
    phi = phi_coefficients(params, stat.J, p - 1)
    A = _a_coefficients(p, Z, phi, backend)
    _check_a0(A[0], p, Z, phi, backend)
    sign = _regime_sign(params)
    S1 = backend.dot(Z[p:2 * p], A)
    prefactor = 2 * backend.integer(N) ** 2 / Z[p] ** 2
    return _Terms(stat=stat, phi=phi, A=A, sign=sign, S1=sign * S1,
                  prefactor=prefactor)


def _result(params: ModelParams, t: _Terms, S2, method: str,
            **extra) -> DeltaResult:
    """Delta = pJ + prefactor (S1 + S2) from the unsigned i-sum S2."""
    S2 = t.sign * S2
    pJ = params.p * t.stat.J
    Delta = pJ + t.prefactor * (t.S1 + S2)
    return DeltaResult(Delta=Delta, J=t.stat.J, Z=t.stat.Zvals[params.p],
                       pJ=pJ, S1=t.S1, S2=S2, prefactor=t.prefactor,
                       method=method, **extra)


def delta_exact_resummed(params: ModelParams) -> DeltaResult:
    """Exact Delta with the i-sum resummed in closed form per (k, b)."""
    if params.q.is_unity:
        return _unity_result(params)
    backend = params.backend
    t = _terms(params)
    p = params.p
    Z, A = t.stat.Zvals, t.A
    # gf[a - 1] = r^a / (1 - r^a) for a = 1..p
    gf = [geometric_factor(params.q.r, a) for a in range(1, p + 1)]
    C, phi, gfv = map(backend.vector, (Z[:p], t.phi.coeffs, gf))
    inner = [backend.dot(C[p - 1 - k::-1], phi[:p - k], gfv[k:])
             for k in range(p)]
    # A_0 = 0 carries the divergent i-independent branch; it is dropped
    for k in range(1, p):
        inner[k] = inner[k] + A[k] * gf[k - 1]
    S2 = backend.dot(Z[p:2 * p], inner)
    return _result(params, t, S2, "resummed")


def delta_exact_truncated(params: ModelParams, i_max: int) -> DeltaResult:
    """Delta with the i-sum evaluated term by term up to i_max.

    Exists as a cross-check of the resummation; reports the geometric tail
    bound (in Delta units) of the discarded i > i_max terms.
    """
    if i_max < 0:
        raise InputError(f"i_max must be >= 0, got {i_max}")
    if params.q.is_unity:
        return _unity_result(params)
    backend = params.backend
    t = _terms(params)
    p = params.p
    Z, phi = t.stat.Zvals, t.phi.coeffs
    # A_0 = 0 carries the i-independent branch; as in the resummation
    # it is dropped, or its float rounding would add up i_max times
    A = [backend.integer(0)] + t.A[1:]
    r = params.q.r
    # S2 = sum_{i, k} r^(ik) Z(N, p+k) (sum_b C_{p-1-k-b} phi_b r^(i(b+1))
    #                                    + A_k), one dot per i in order
    # of i, so that only the powers of one i are held at a time
    S2 = backend.integer(0)
    for i in range(1, i_max + 1):
        ri = r ** i
        powers = [backend.integer(1)]   # r^(i m) for m = 0..p
        for _ in range(p):
            powers.append(powers[-1] * ri)
        inner = [backend.dot(Z[p - 1 - k::-1], phi[:p - k],
                             powers[1:p - k + 1]) + A[k]
                 for k in range(p)]
        S2 = S2 + backend.dot(powers[:p], Z[p:2 * p], inner)

    # |i-th term| <= |r|^i * B, so the tail is <= B |r|^(i_max+1)/(1-|r|)
    phi_abs = [abs(c) for c in phi]
    C_abs = [abs(c) for c in Z[:p]]
    B = backend.dot(Z[p:2 * p], [
        backend.dot(C_abs[p - 1 - k::-1], phi_abs[:p - k]) + abs(A[k])
        for k in range(p)])
    r_abs = abs(r)
    tail = float(t.prefactor * B * r_abs ** (i_max + 1) / (1 - r_abs))
    return _result(params, t, S2, "truncated", i_max=i_max,
                   tail_bound=tail)


def delta_fss_estimate(params: ModelParams):
    """Finite-size estimate N^2 Z(2N,2p)/Z(N,p)^2 (j_N - j_{2N}).

    Agrees with the exact Delta up to a relative O(1/N) error in the
    thermodynamic regime (fixed density, growing N); returned in Delta
    units.
    """
    params.q.require_series_regime("the finite-size-scaling estimate")
    backend = params.backend
    stat = compute_stationary(params, 2 * params.p)
    p, N = params.p, params.N
    # F^(2N) at degree 2p is just (F^N)^2 at the degree already built
    Fn = TruncSeries(stat.Zvals)
    Z2 = Fn.mul(Fn, backend).coeffs
    jN = stat.Zvals[p - 1] / stat.Zvals[p]
    j2N = Z2[2 * p - 1] / Z2[2 * p]
    return (backend.integer(N) ** 2 * Z2[2 * p] / stat.Zvals[p] ** 2
            * (jN - j2N))
