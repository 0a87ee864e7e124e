"""Exact group diffusion coefficient Delta of the q-boson ZRP.

Delta = pJ + (2 N^2 / Z(N,p)^2) (S1 + S2), where with C_a = Z(N, a) the
a-th coefficient of F^N, phi_b the phi-series coefficients, r the geometric
ratio (|r| < 1), g(a) = r^a / (1 - r^a), m = p-1-k and
A_k = sum_{a+b=m} C_a phi_b:

    S1 = sum_{k=0}^{p-1} Z(N, p+k) A_k

    S2 = sum_{k=0}^{p-1} Z(N, p+k) [ sum_{b=0}^{m} C_{m-b} phi_b g(k+1+b)
                                    + (k >= 1) A_k g(k) ]

S2 is the closed-form geometric resummation of an infinite sum of kernel
contributions indexed by i >= 1; the tests keep the term-by-term i-sum, with
its geometric tail bound, as a reference.

Both sums over b are summed in closed form too, from the product form of
F, so after F^N the resummation costs O(p).  phi_b = (J/p) d_(b+1) - [b = 0]
with d the coefficients of z (ln F)', and for q != 1

    d_(b+1) = s c^(b+1) / (1 - r^(b+1)),

with r = q, c = 1 - q, s = 1 for -1 < q < 1 and r = 1/q, c = r - 1,
s = -1 for q > 1.  Then:

* X_m = sum_b C_{m-b} d_(b+1) = (m + 1) C_(m+1) / N, which is z G' =
  N z (ln F)' G at z^(m+1) for G = F^N; so A_k = (J/p) X_m - C_m.
* With H_m = c H_(m-1) + C_m (H_(-1) = 0) and
  V_k = c (V_(k+1) + C_m g(k+1)) (V_p = 0), for k >= 1

      sum_b C_{m-b} d_(b+1) g(k+1+b) = s g(k) (s X_m - c H_m - V_k),

  by 1/((1 - x)(1 - xy)) = [1/(1 - x) - y/(1 - xy)] / (1 - y) at
  x = r^(b+1), y = r^k.  So the bracket of S2 is, for k >= 1,
  g(k) [(J/p) (X_m - s (c H_m + V_k)) + A_k] - C_m g(k+1).

At k = 0, y = 1 and g(0) diverges, so the bracket of S2 stays one dot of
length p, and so does A_0, which the identity for X would make zero by
construction.  A_0 is kept as a check: the i-independent k = 0 branch
carries it, and it vanishes identically because

    A_0 = [y^{p-1}] (F^N phi) = (J/N) Z(N,p) - Z(N,p-1) = 0

by the definition of J.  For q <= 1, where F^N is built from d
(``stationary.compute_stationary``), the check is a consequence of F^N's
own recurrence; for q > 1, where F^N comes from the q-difference identity,
it checks the product-form d against that Z.  ``numerics.negligible``
tests it: exactly on the rational backend, and on the float backend
against its rounding bound, 2 (3 Z_r + 4p + 7) 2^-P times its
absolute-value shadow (``_a0_unit``), a shortfall raising
PrecisionError.  A_0 = 0 holds at the rounded q too, so no input error
enters that bound.

On the float backend every value carries a bound on its error, formed in
the same run: gamma times its absolute-value shadow, the same expression
with every term in absolute value (see ``error_unit``), which the code
that forms the value computes from absolute inputs.

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

import operator
from dataclasses import dataclass

from .numerics import SolverError, geometric_factor, negligible
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

    With u = 2^-P, e = params.q_error, kappa = q_amplification (the
    factor by which 1 - q, 1 - q^m and 1 - r^a amplify a relative error of
    q or of r^a) and e' = e + [q > 1] (r = 1/q adds one rounding), to
    first order, relative to each shadow and in units of u:

    * input errors: they move Z(N, k), k < 2p, by Z_in
      (``partition_error``), each d_m, m <= p, by at most (p + 1) kappa e,
      c by kappa e' and so each c^j, j < p, by (p - 1) kappa e', and each
      g(a), a <= p, by (a + kappa) e', since a/|1 - r^a| <= a + kappa;
      r^a, rounded within 2u, moves 1 - r^a by at most kappa u more.  A
      k >= 1 bracket of S2 holds c^j and two g's (g(k), and g(k+1..p) in
      V_k); the k = 0 bracket holds d and one g.  So
      input = 6 Z_in + (p + 1) kappa e' + 2 (p + kappa) e' + 2 kappa;
      it is 0 at q = 1, which is exact.
    * roundings along the path: Z(N, k) within Z_r (``partition_error``),
      J = N Z(N, p-1)/Z(N, p) within 2 Z_r + 2, J/p within 2 Z_r + 3,
      X_m within Z_r + 2, A_k (k >= 1) within 3 Z_r + 7, c within 1,
      r^a/(1 - r^a) within 4 (two roundings with the pow's).  Each step
      of H and V adds c's 1 and 2 more (a product and a sum) to its
      terms, and V_k's terms start within Z_r + 5; over at most p - 1
      steps the k >= 1 bracket is within 3 Z_r + 3p + 15.  d_m is within 4p and
      phi_b = (J/p) d_(b+1) - [b = 0] within 2 Z_r + 4p + 5, and a dot
      adds 2 (FloatBackend.dot), so the k = 0 dots put A_0 within
      3 Z_r + 4p + 7 and its bracket within 3 Z_r + 4p + 13, the larger
      bracket for p >= 2.  Then S1 and S2 within 4 Z_r + 4p + 15 and
      Delta within 6 Z_r + 4p + 20; J/N and the per-particle values add
      at most 5 roundings more.  So rounding = 6 Z_r + 4p + 25.

    gamma = 2 (input + rounding) u: the factor 2 covers the higher-order
    terms, which are below gamma^2 times a shadow, while a bound that
    certify accepts has gamma <= DEFAULT_VERIFY_RTOL.  It also covers the
    shadows' own rounding: each is the value code run on absolute values
    (``_sums``), the k = 0 dots among it rounded to nearest, not upwards,
    so a shadow may fall short of its exact sum of absolute values by
    (rounding) u of itself, which adds below gamma^2 to gamma.  Float
    backend only.
    """
    backend, p, q = params.backend, params.p, params.q
    z_rounding, z_input = partition_error(params, 2 * p - 1)
    rounding = 6 * z_rounding + 4 * p + 25
    if q == 1:
        scale = rounding
    else:
        kappa = q_amplification(params)
        e = backend.ratio(params.q_error) + int(q > 1)
        scale = (rounding + 6 * z_input + (p + 1) * kappa * e
                 + 2 * (p + kappa) * e + 2 * kappa)
    return 2 * scale * backend.integer(2) ** -backend.prec_bits


def _a0_unit(params: ModelParams):
    """A_0's rounding part of gamma, 2 (3 Z_r + 4p + 7) 2^-P
    (``error_unit``).  Float backend only."""
    backend, p = params.backend, params.p
    z_rounding = partition_error(params, 2 * p - 1)[0]
    return (2 * (3 * z_rounding + 4 * p + 7)
            * backend.integer(2) ** -backend.prec_bits)


def _bounded(params: ModelParams, shadows: dict, **values) -> DeltaResult:
    """values as a DeltaResult, with errors gamma times shadows on the
    float backend."""
    if params.backend.exact:
        return DeltaResult(**values)
    gamma = error_unit(params)
    return DeltaResult(**values, errors={key: gamma * shadow
                                         for key, shadow in shadows.items()})


def _sums(params: ModelParams, Z, ratio, phi, c, s, g, sign) -> tuple:
    """(A_0, S1, S2) from Z = Z(N, 0..2p-1), ratio = J/p, phi_0..phi_(p-1),
    c, s and g (g[a - 1] = g(a), a = 1..p), with sign = -1.

    A_0 and S2's k = 0 bracket are one dot each, and the k >= 1 terms run
    in the one loop over k = p-1..1 (module docstring): H forward, V
    backward, A_k = (J/p) X_m - C_m and the bracket
    g(k) [(J/p) (X_m - s (c H_m + V_k)) + A_k] - C_m g(k+1).  With sign +1
    and absolute inputs, every minus becomes a plus: the result is then
    the absolute-value shadow of each of the three.
    """
    backend, N, p = params.backend, params.N, params.p
    minus = operator.sub if sign < 0 else operator.add
    # X_m - s (c H_m + V_k) as one subtraction or addition: s = +-1
    minus_s = operator.sub if sign * s < 0 else operator.add
    C, phi = backend.vector(Z[p - 1::-1]), backend.vector(phi)
    A0 = backend.dot(C, phi)
    A, bracket = [A0] * p, [backend.dot(C, phi, g)] * p
    H = V = 0
    for k in range(p - 1, 0, -1):
        m = p - 1 - k
        X, t = (m + 1) * Z[m + 1] / N, Z[m] * g[k]
        H, V = c * H + Z[m], c * (V + t)
        A[k] = minus(ratio * X, Z[m])
        bracket[k] = minus(
            g[k - 1] * (ratio * minus_s(X, c * H + V) + A[k]), t)
    return (A0, s * backend.dot(Z[p:2 * p], A),
            s * backend.dot(Z[p:2 * p], bracket))


def delta_exact_resummed(params: ModelParams) -> DeltaResult:
    """Exact Delta with the i-sum resummed in closed form per (k, b), and
    the sums over b in closed form (module docstring), from F^N to degree
    2p - 1 in O(p) (``_sums``).  A_0 is checked to vanish.

    On the float backend the shadows of Z, J and pJ are those values
    (sums of positive terms); A_0's, S1's and S2's are the same helper on
    absolute inputs, and Delta's is pJ + (2 N^2 / Z^2) times the sum of
    S1's and S2's.
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
    Z, J = stat.Zvals, stat.J
    phi = phi_coefficients(params, J, p - 1)
    # d_(b+1) = s c^(b+1) / (1 - r^(b+1)), |r| < 1
    if q > 1:
        r = backend.integer(1) / q
        c, s = r - 1, -1
    else:
        r, c, s = q, 1 - q, 1
    # gf[a - 1] = g(a) = r^a / (1 - r^a) for a = 1..p
    gf = [geometric_factor(r, a) for a in range(1, p + 1)]
    ratio, pJ = J / p, p * J
    scale = 2 * backend.integer(N) ** 2 / Z[p] ** 2

    def breakdown(S1, S2) -> dict:
        return dict(Delta=pJ + scale * (S1 + S2), J=J, Z=Z[p], pJ=pJ, S1=S1,
                    S2=S2)

    A0, *sums = _sums(params, Z, ratio, phi.coeffs, c, s, gf, -1)
    a0_bound = shadows = None
    if not backend.exact:
        # phi_0 = (J/p) d_1 - 1 enters the shadow as (J/p) |d_1| + 1
        phi_abs = [abs(phi.coeff(0) + 1) + 1, *map(abs, phi.coeffs[1:])]
        a0_shadow, *shadows = _sums(params, Z, ratio, phi_abs, abs(c), 1,
                                    [abs(x) for x in gf], 1)
        a0_bound, shadows = _a0_unit(params) * a0_shadow, breakdown(*shadows)
    # A_0 = 0 carries the divergent i-independent branch, which is dropped
    if not negligible("A_0", A0, a0_bound, backend):
        raise SolverError(f"internal identity violated: A_0 = {A0} != 0 "
                          "on the rational backend")
    return _bounded(params, shadows, **breakdown(*sums))
