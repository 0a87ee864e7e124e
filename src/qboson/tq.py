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

Polynomials are lists of coefficients, constant term first, at their own
length: (1 - x)^N has N + 1, B_1 and Q_1 have p, T_1 has N and the
residual N + p.  Products are full Cauchy products (``numerics.poly_mul``)
and Q_0 = x^p is a shift by p.  The check reads F^N to degree p, and
builds (1 - x)^N once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .numerics import (Backend, InputError, SolverError, negligible,
                       poly_mul)
from .stationary import ModelParams, compute_stationary


def one_minus_x_pow(params: ModelParams) -> list:
    """The N + 1 coefficients of (1 - x)^N."""
    backend, N = params.backend, params.N
    return [backend.integer((-1) ** k * comb(N, k)) for k in range(N + 1)]


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
    q = params.q
    if q == 1:
        raise InputError("the first-order functional-equation step is "
                         "undefined at q = 1; use the free-particle values "
                         "J = Delta = p")
    N, p = params.N, params.p
    Zp = stat.Zvals[p]
    return [-N * (1 - q) ** (p - i) * stat.Zvals[i] / Zp for i in range(p)]


def q1_polynomial(b1: list, params: ModelParams) -> list:
    """q_i = b_i / (q^{p-i} - 1); q^k = 1 has no real root besides q = 1
    and q = -1, both rejected upstream."""
    q, p = params.q, params.p
    return [b / (q ** (p - i) - 1) for i, b in enumerate(b1)]


def _powers(q, count: int) -> list:
    """q^0..q^(count-1), each the last times q, from the int 1."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(powers[-1] * q)
    return powers


def _abs(coeffs: list) -> list:
    return [abs(c) for c in coeffs]


def _first_nonzero(what: str, value: list, scale, count: int,
                   backend: Backend) -> int | None:
    """The first k < count whose coefficient of value is not zero, or None.

    Each coefficient is tested by ``numerics.negligible``; scale() gives the
    list of their scales and is only built on the float backend, the one
    that reads it.
    """
    scales = value if backend.exact else scale()
    for k in range(count):
        if not negligible(f"{what} coefficient of x^{k}", value[k],
                          scales[k], backend):
            return k
    return None


def t1_polynomial(b1: list, onemx: list, params: ModelParams) -> list:
    """T_1 = N q^p + x^{-p} [ (1-x)^N B_1(x) - B_1(qx) ], onemx = (1-x)^N.

    The bracket coefficients of x^0..x^{p-1} vanish identically; a nonzero
    one means the construction is broken, so it raises SolverError rather
    than truncates.
    """
    backend = params.backend
    q = params.q
    N, p = params.N, params.p
    bracket = poly_mul(onemx, b1, backend)
    for k, w in enumerate(_powers(q, p)):
        bracket[k] = bracket[k] - b1[k] * w

    def scales():
        out = poly_mul(_abs(onemx), _abs(b1), backend)
        return [s + abs(b) * w
                for s, b, w in zip(out, b1, _powers(abs(q), p))]

    k = _first_nonzero("bracket", bracket, scales, p, backend)
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
    backend, to the working precision on the float backend, which raises
    PrecisionError where one falls short.  max_relative_residual is the
    largest |residual_k| / scale_k, scale_k being the sum of the absolute
    values of the terms of coefficient k; an exactly zero residual has
    relative 0 without its scales being built.
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
                                       len(residual), backend) is None
        relative = max((abs(x) / s for x, s in zip(residual, scales) if s),
                       default=relative)
    q1_at_1 = sum(tq.Q1)
    q1_is_p = negligible("Q1(1) - p", q1_at_1 - p,
                         sum(map(abs, tq.Q1)) + p, backend)
    lambda1_is_J = negligible("lambda1 - J", tq.lambda1 - tq.J,
                              abs(tq.lambda1) + abs(tq.J), backend)
    return TqVerdict(ok=residual_zero and q1_is_p and lambda1_is_J,
                     residual_zero=residual_zero,
                     lambda1_equals_J=lambda1_is_J,
                     max_residual=max(abs(c) for c in residual),
                     max_relative_residual=relative, lambda1=tq.lambda1,
                     J=tq.J, Q1_at_1=q1_at_1)
