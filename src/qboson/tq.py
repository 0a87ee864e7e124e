"""First-order functional-equation verification path.

Solves the first gamma-order of the polynomial relation

    T(x) Q(x) = e^{gamma N} Q(qx) + q^p (1-x)^N Q(x/q),   Q(1) = e^{gamma p},

around Q_0 = x^p, T_0 = q^p + (1-x)^N.  The degree-(p-1) polynomial B_1
is the truncation of -N (1-q)^p F(x/(1-q))^N / Z(N,p); its coefficients
determine Q_1 through b_i = (q^{p-i} - 1) q_i, and

    T_1(x) = N q^p + x^{-p} [ (1-x)^N B_1(x) - B_1(qx) ],

where the bracket is divisible by x^p exactly.  Of the checks, two test
the partition values:

* bracket divisibility is, coefficient by coefficient, the q-difference
  identity of F^N, Z_k (q^k - 1) = sum_{j>=1} C(N, j) (q - 1)^j Z_{k-j}
  for k < p, with Z_k = Z(N, k): G(qz) = (1 + (q - 1) z)^N G(z).  For
  -1 < q < 1, where F^N is built from z (ln F)', that is another
  consequence of F's product form.  For q > 1 F^N is built from this
  identity (``stationary.compute_stationary``), so divisibility only
  re-checks the recurrence's arithmetic, through a second code path;
  Q_1(1) = p, and a test that pins F^N to Miller's power of the weights
  f(m), keep the link to F's weights there;
* Q_1(1) = p ties Z(N, p) to Z(N, 0..p-1).

The residual of the first-order relation, and lambda_1 = q_{p-1} = J,
hold by construction for any B_1 that passes divisibility, so they check
the arithmetic only.  All three gate the verdict.

Each identity is tested by ``numerics.negligible``: exactly on the
rational backend, which builds no bound; on the float backend within
``_rounding_unit`` times its absolute-value shadow, the same sum with
every term in absolute value.  The identities hold exactly at the rounded
q, so only the roundings of the P-bit run enter that unit.

Polynomials are lists of coefficients, constant term first, at their own
length: (1 - x)^N has N + 1, B_1 and Q_1 have p, T_1 has N and the
residual N + p.  Products are full Cauchy products (``numerics.poly_mul``)
and Q_0 = x^p is a shift by p.  The check reads F^N to degree p, and
builds (1 - x)^N once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .numerics import Backend, InputError, SolverError, negligible, poly_mul
from .stationary import (ModelParams, binomial_row, compute_stationary,
                         partition_error, q_amplification)


def one_minus_x_pow(params: ModelParams) -> list:
    """The N + 1 coefficients of (1 - x)^N."""
    backend, N = params.backend, params.N
    return [backend.integer(-binom if k % 2 else binom)
            for k, binom in enumerate(binomial_row(N, N))]


@dataclass(frozen=True)
class TqFirstOrder:
    params: ModelParams
    Q1: list
    T1: list
    onemx: list   # (1 - x)^N
    lambda1: object
    J: object


@dataclass(frozen=True)
class TqVerdict:
    """What verify-tq reports; ok is that the residual is zero, Q1(1) = p
    and lambda1 = J."""

    ok: bool
    residual_zero: bool
    lambda1_equals_J: bool
    max_residual: object
    max_relative_residual: object
    lambda1: object
    J: object
    Q1_at_1: object


def b1_polynomial(params: ModelParams, stat) -> list:
    """b_i = -N (1-q)^{p-i} Z(N,i) / Z(N,p), i = 0..p-1."""
    N, p, q, Z = params.N, params.p, params.q, stat.Zvals
    if q == 1:
        raise InputError("the first-order functional-equation step is "
                         "undefined at q = 1; use the free-particle values "
                         "J = Delta = p")
    return [-N * (1 - q) ** (p - i) * Z[i] / Z[p] for i in range(p)]


def q1_polynomial(b1: list, params: ModelParams) -> list:
    """q_i = b_i / (q^{p-i} - 1); q^k = 1 has no real root besides q = 1
    and q = -1, both rejected upstream."""
    q, p = params.q, params.p
    return [b / (q ** (p - i) - 1) for i, b in enumerate(b1)]


def _powers(q, count: int) -> list:
    """q^0..q^(count-1), each the last times q, from the int 1."""
    return list(accumulate(repeat(q, count - 1), mul, initial=1))


def _abs(coeffs: list) -> list:
    return [abs(c) for c in coeffs]


def _rounding_unit(params: ModelParams):
    """The unit of every identity of the check on the float backend: each
    identity's P-bit value lies within this unit times its absolute-value
    shadow of 0.  None on the rational backend, which reads no bound;
    q != 1.

    The identities hold exactly at the rounded q, so only roundings enter.
    With u = 2^-P, a pow counted as two roundings, kappa =
    q_amplification and Z_r the rounding part of Z(N, k <= p)'s error
    (``stationary.partition_error``), to first order, relative and in
    units of u:

    * inputs: (1 - x)^N's binomials are within 1 (rounded to P bits);
      1 - q within 1, so (1 - q)^(p-i) within (p - i) + 2, and
      b_i = -N (1 - q)^(p-i) Z_i / Z_p within 2 Z_r + p + 5; q^m within 2,
      which q^m - 1 amplifies by at most kappa, so q_i is b_i /
      (q^(p-i) - 1) within 2 kappa + 2; the running powers q^k are within
      k - 1 < p, and J = N Z_(p-1) / Z_p within 2 Z_r + 2.
    * bracket coefficient k < p of T_1: each term within 2 Z_r + 2p + 5,
      the dot (FloatBackend.dot) adds 2 and the subtraction 1:
      2 Z_r + 2p + 8.
    * Q1(1) - p, the shadow sum |q_i| + p: each q_i within
      2 Z_r + p + 2 kappa + 7, the p additions add p: 2 Z_r + 2p +
      2 kappa + 7.
    * lambda1 - J, the shadow |lambda1| + |J| = 2 |J|: (2 Z_r + 2 kappa +
      8 + 2 Z_r + 2) / 2 and the subtraction: 2 Z_r + kappa + 6.
    * residual coefficient k, the shadow its printed scale: in exact
      arithmetic on the P-bit Q_1 and T_1 it is
      (1 - x)^N M(x) - M(qx) - beta(x) + x^p E(x), with
      mu_i = b_i - (q^(p-i) - 1) q_i the coefficients of M, beta the
      exact bracket below x^p of the P-bit b_i (within 2 Z_r + p + 6 of
      its shadow), E T_1's rounding (within 4 of the scale) and
      |mu_i| <= (2 kappa + 2) (|q|^(p-i) + 1) |q_i|.  As
      |b_i| <= (|q|^(p-i) + 1) |q_i|, the terms of M and the bracket's
      shadow are at most the scale plus 2 |q|^p |q_k|, which is only
      nonzero for q < 0, |q| < 1, where it is at most twice the scale's
      term |q|^(p-k) |q_k|: so 3 (2 Z_r + p + 2 kappa + 8) + 4.  The
      residual's own evaluation adds p + 7 (T_0's 1 + q^p 3, the dots 2,
      the running power p, the sums 2): 6 Z_r + 4p + 6 kappa + 35.

    The last is the largest, so unit = 2 (6 Z_r + 4p + 6 kappa + 35) u:
    the factor 2 covers the higher-order terms and the shadows' own
    rounding to nearest, within (p + 7) u of themselves.
    """
    backend, p = params.backend, params.p
    if backend.exact:
        return None
    z_rounding = partition_error(params, p)[0]
    return (2 * (6 * z_rounding + 4 * p + 6 * q_amplification(params) + 35)
            * backend.integer(2) ** -backend.prec_bits)


def _first_nonzero(what: str, value: list, shadows, count: int, unit,
                   backend: Backend) -> int | None:
    """The first k < count whose coefficient of value is not zero, or None.

    Each coefficient is tested by ``numerics.negligible``, on the float
    backend within unit (``_rounding_unit``) times its shadow; shadows()
    gives the list of shadows and is only built there.
    """
    bounds = value if unit is None else [unit * s for s in shadows()]
    for k in range(count):
        if not negligible(f"{what} coefficient of x^{k}", value[k],
                          bounds[k], backend):
            return k
    return None


def t1_polynomial(b1: list, onemx: list, params: ModelParams) -> list:
    """T_1 = N q^p + x^{-p} [ (1-x)^N B_1(x) - B_1(qx) ], onemx = (1-x)^N.

    The bracket coefficients of x^0..x^{p-1} vanish identically; a nonzero
    one means the construction is broken, so it raises SolverError rather
    than truncates.
    """
    backend, N, p, q = params.backend, params.N, params.p, params.q
    bracket = poly_mul(onemx, b1, backend)
    for k, w in enumerate(_powers(q, p)):
        bracket[k] = bracket[k] - b1[k] * w

    def shadows():
        out = poly_mul(_abs(onemx), _abs(b1), backend)
        return [s + abs(b) * w
                for s, b, w in zip(out, b1, _powers(abs(q), p))]

    k = _first_nonzero("bracket", bracket, shadows, p,
                       _rounding_unit(params), backend)
    if k is not None:
        raise SolverError(
            f"bracket coefficient of x^{k} is {bracket[k]}, "
            "expected 0; B_1 construction is inconsistent")
    t1 = bracket[p:]
    t1[0] = t1[0] + N * q ** p
    return t1


def build_first_order(params: ModelParams) -> TqFirstOrder:
    # B_1 reads Z(N, 0..p), and J reads Z(N, p-1) and Z(N, p)
    stat = compute_stationary(params, params.p)
    onemx = one_minus_x_pow(params)
    b1 = b1_polynomial(params, stat)
    q1 = q1_polynomial(b1, params)
    return TqFirstOrder(params=params, Q1=q1,
                        T1=t1_polynomial(b1, onemx, params), onemx=onemx,
                        lambda1=q1[-1], J=stat.J)


def verify_first_order(tq: TqFirstOrder) -> TqVerdict:
    """The verdict on T0 Q1 + T1 Q0 - Q1(qx) - N Q0(qx) - q^p (1-x)^N Q1(x/q),
    Q1(1) = p and lambda1 = J.

    Each is tested by ``numerics.negligible``: exactly on the rational
    backend, and on the float backend within _rounding_unit times its
    shadow, raising PrecisionError where one falls short.  The residual's
    shadow at x^k, scale_k, is the sum of the absolute values of the terms
    of coefficient k; Q1(1)'s is sum |q_i| + p and lambda1's |lambda1| +
    |J|.  max_relative_residual is the largest |residual_k| / scale_k; an
    exactly zero residual has relative 0 without its scales being built.
    """
    params = tq.params
    backend, p = params.backend, params.p
    N = backend.integer(params.N)

    def sides(T0, T1, Q1, onemx, q):
        lhs = poly_mul(T0, Q1, backend)
        for k, t in enumerate(T1, p):
            lhs[k] = lhs[k] + t
        # q^p Q1(x/q) = sum_i q^{p-i} q_i x^i, defined at q = 0 as well
        rhs = poly_mul(onemx, [q ** (p - i) * c for i, c in enumerate(Q1)],
                       backend)
        powers = _powers(q, p + 1)
        for k in range(p):
            rhs[k] = Q1[k] * powers[k] + rhs[k]
        rhs[p] = powers[p] * N + rhs[p]
        return lhs, rhs

    unit = _rounding_unit(params)   # None on the rational backend
    T0 = [tq.onemx[0] + params.q ** p] + tq.onemx[1:]
    lhs, rhs = sides(T0, tq.T1, tq.Q1, tq.onemx, params.q)
    residual = [a - b for a, b in zip(lhs, rhs)]
    relative = backend.integer(0)
    residual_zero = backend.exact and not any(residual)
    if not residual_zero:
        lhs, rhs = sides(*map(_abs, (T0, tq.T1, tq.Q1, tq.onemx)),
                         abs(params.q))
        scales = [a + b for a, b in zip(lhs, rhs)]
        residual_zero = _first_nonzero("residual", residual, lambda: scales,
                                       len(residual), unit, backend) is None
        relative = max((abs(x) / s for x, s in zip(residual, scales) if s),
                       default=relative)
    q1_at_1 = sum(tq.Q1)
    q1_is_p = negligible("Q1(1) - p", q1_at_1 - p,
                         unit and unit * (sum(map(abs, tq.Q1)) + p), backend)
    lambda1_is_J = negligible(
        "lambda1 - J", tq.lambda1 - tq.J,
        unit and unit * (abs(tq.lambda1) + abs(tq.J)), backend)
    return TqVerdict(ok=residual_zero and q1_is_p and lambda1_is_J,
                     residual_zero=residual_zero,
                     lambda1_equals_J=lambda1_is_J,
                     max_residual=max(abs(c) for c in residual),
                     max_relative_residual=relative, lambda1=tq.lambda1,
                     J=tq.J, Q1_at_1=q1_at_1)
