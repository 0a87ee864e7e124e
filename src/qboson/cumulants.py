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

On the float backend every value carries a bound on its error, formed in
the same run: gamma times its absolute-value shadow, the same expression
with every term in absolute value (see ``error_unit``).

Regime handling: for |q| < 1 the sums enter with a plus sign; for q > 1
the perturbative construction iterates the underlying q-difference
equation in the opposite direction, which flips the sign of the whole
double-integral part (S1 and S2 above are then the negated sums).  The
sign was derived by redoing the second-order construction for q > 1 and
is validated exactly against the spectral oracle.

At q = 1 the process is a sum of p independent Poisson clocks and
J = Delta = p exactly; the series machinery is bypassed.  At p = 1,
phi_0 = J d_1 - 1 = 0 is the only phi coefficient, so S1 = S2 = 0 and
Delta = pJ; only J is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import (Backend, SolverError, TruncSeries, geometric_factor,
                       negligible)
from .stationary import (ModelParams, compute_stationary, partition_error,
                         phi_coefficients, q_amplification)


@dataclass(frozen=True)
class DeltaResult:
    """Diffusion coefficient with its additive breakdown.

    Delta = pJ + (2 N^2 / Z^2) (S1 + S2), Z = Z(N, p).  errors maps each
    of these six names to a bound on the absolute error of its value on
    the float backend; it is None on the rational backend, whose values
    are exact.
    """

    Delta: object
    J: object
    Z: object
    pJ: object
    S1: object
    S2: object
    errors: dict | None = None


def error_unit(params: ModelParams):
    """gamma: each float value of delta_exact_resummed lies within gamma
    times its absolute-value shadow of its value at the q the request
    stands for, and so do J/N, Delta/N^2 and the per-particle values.

    With u = 2^-P, e = params.q_error and kappa = q_amplification (the
    factor by which 1 - q, 1 - q^m and 1 - r^a amplify a relative error of
    q or of r^a), to first order:

    * input errors: q is within e u, and for q > 1 r = 1/q within (e + 1) u.
      They move Z(N, k), k < 2p, by Z_in (``partition_error``), each d_m,
      m <= p, by at most (p + 1) kappa e u, and each
      r^a/(1 - r^a), a <= p, by (a + kappa) times r's error, since
      a/|1 - r^a| <= a + kappa; r^a, rounded within 2u, moves 1 - r^a by
      at most kappa u more.  So
      input = 6 Z_in + (p + 1) kappa e + (p + kappa) (e + [q > 1]) + kappa;
      it is 0 at q = 1, which is exact.
    * roundings along the path, relative to each shadow: Z(N, k) within
      Z_r (``partition_error``), J = N Z(N, p-1)/Z(N, p) within 2 Z_r + 2,
      d_m within 4p, phi_b = (J/p) d_(b+1) - [b = 0] within
      2 Z_r + 4p + 5, r^a/(1 - r^a) within 4 (two roundings with the
      pow's).  A dot adds 2 (FloatBackend.dot), and one more rounding 1:
      A_k within 3 Z_r + 4p + 7, the inner sums within 3 Z_r + 4p + 13,
      S1 and S2 within 4 Z_r + 4p + 15 and Delta within 6 Z_r + 4p + 20;
      J/N and the per-particle values add at most 5 roundings more.  So
      rounding = 6 Z_r + 4p + 25.

    gamma = 2 (input + rounding) u: the factor 2 covers the higher-order
    terms, which are below gamma^2 times a shadow, while a bound that
    certify accepts has gamma <= DEFAULT_VERIFY_RTOL.  Float backend only.
    """
    backend, p, q = params.backend, params.p, params.q
    z_rounding, z_input = partition_error(params, 2 * p - 1)
    rounding = 6 * z_rounding + 4 * p + 25
    if q == 1:
        scale = rounding
    else:
        kappa, e = q_amplification(params), backend.ratio(params.q_error)
        scale = (rounding + 6 * z_input + (p + 1) * kappa * e
                 + (p + kappa) * (e + int(q > 1)) + kappa)
    return 2 * scale * backend.integer(2) ** -backend.prec_bits


def _bounded(params: ModelParams, shadows: dict, **values) -> DeltaResult:
    """values as a DeltaResult, with errors gamma times shadows on the
    float backend."""
    if params.backend.exact:
        return DeltaResult(**values)
    gamma = error_unit(params)
    return DeltaResult(**values, errors={key: gamma * shadow
                                         for key, shadow in shadows.items()})


def _a_coefficients(p: int, C, phi: TruncSeries, backend: Backend) -> tuple:
    """(A, scales): A_k = sum_{a+b=p-1-k} C_a phi_b for k = 0..p-1, and
    the sum of the |C_a phi_b| of each (None on the rational backend)."""
    C, phi = backend.vector(C[:p]), backend.vector(phi.coeffs)
    pairs = [backend.dot(C[p - 1 - k::-1], phi[:p - k], with_abs=True)
             for k in range(p)]
    return [a for a, _ in pairs], [s for _, s in pairs]


def _check_a0(a0, scale, backend: Backend):
    """A_0 vanishes identically; enforce before dropping its divergent
    branch.  scale, A_0's shadow, is read on the float backend only."""
    if not negligible("A_0", a0, scale, backend):
        raise SolverError(
            f"internal identity violated: A_0 = {a0} != 0 on the "
            "rational backend")


def delta_exact_resummed(params: ModelParams) -> DeltaResult:
    """Exact Delta with the i-sum resummed in closed form per (k, b).

    On the float backend the shadows are: Z, J and pJ themselves (sums
    of positive terms); |phi_b| for b >= 1 and (J/p) d_1 + 1 for phi_0;
    for A_k and the inner sums the sums of |products| from their dots,
    with phi_0's shadow in place of |phi_0|; S1 and S2 the dots of Z
    with those; and pJ + (2 N^2 / Z^2) times the sum of S1's and S2's for
    Delta.
    """
    backend = params.backend
    p, N = params.p, params.N
    q = params.q
    if q == 1 or p == 1:
        stat = compute_stationary(params, p)
        J, Z = backend.integer(p) if q == 1 else stat.J, stat.Zvals[p]
        zero = backend.integer(0)
        values = dict(Delta=J, J=J, Z=Z, pJ=p * J, S1=zero, S2=zero)
        return _bounded(params, {key: abs(val)
                                 for key, val in values.items()}, **values)
    # S1 and S2 read Z(N, 0..2p-1)
    stat = compute_stationary(params, 2 * p - 1)
    Z = stat.Zvals
    phi = phi_coefficients(params, stat.J, p - 1)
    A, A_abs = _a_coefficients(p, Z, phi, backend)
    if not backend.exact:
        # phi_0's shadow minus |phi_0|, which the sums of |products| hold
        phi0 = phi.coeff(0)
        excess = abs(phi0 + 1) + 1 - abs(phi0)
        A_abs = [s + abs(c) * excess for s, c in zip(A_abs, Z[p - 1::-1])]
    _check_a0(A[0], A_abs[0], backend)
    # gf[a - 1] = r^a / (1 - r^a) for a = 1..p
    r = backend.integer(1) / q if q > 1 else q
    gf = [geometric_factor(r, a) for a in range(1, p + 1)]
    C, phiv, gfv = map(backend.vector, (Z[:p], phi.coeffs, gf))
    inner, inner_abs = map(list, zip(*[
        backend.dot(C[p - 1 - k::-1], phiv[:p - k], gfv[k:], with_abs=True)
        for k in range(p)]))
    # A_0 = 0 carries the divergent i-independent branch; it is dropped
    for k in range(1, p):
        inner[k] = inner[k] + A[k] * gf[k - 1]
    sign = -1 if q > 1 else 1
    S1 = sign * backend.dot(Z[p:2 * p], A)
    S2 = sign * backend.dot(Z[p:2 * p], inner)
    pJ = p * stat.J
    scale = 2 * backend.integer(N) ** 2 / Z[p] ** 2
    Delta = pJ + scale * (S1 + S2)
    values = dict(Delta=Delta, J=stat.J, Z=Z[p], pJ=pJ, S1=S1, S2=S2)
    if backend.exact:
        return DeltaResult(**values)
    inner_abs = [s + abs(c) * excess * abs(g)
                 for s, c, g in zip(inner_abs, Z[p - 1::-1], gf)]
    for k in range(1, p):
        inner_abs[k] = inner_abs[k] + A_abs[k] * abs(gf[k - 1])
    S1_abs = backend.dot(Z[p:2 * p], A_abs)
    S2_abs = backend.dot(Z[p:2 * p], inner_abs)
    return _bounded(params, dict(
        Delta=pJ + scale * (S1_abs + S2_abs), J=stat.J, Z=Z[p], pJ=pJ,
        S1=S1_abs, S2=S2_abs), **values)
