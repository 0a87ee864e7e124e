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
  for k < p, with Z_k = Z(N, k);
* Q_1(1) = p ties Z(N, p) to Z(N, 0..p-1).

The residual of the first-order relation, and lambda_1 = q_{p-1} = J,
hold by construction for any B_1 that passes divisibility, so they check
the arithmetic only.

Polynomials are ``TruncSeries`` of the common degree N + p - 1: every
product in the first-order relation has degree at most N + p - 1, so the
truncation never drops a term.  That degree is padding: Q_0 = x^p is one
term, Q_1 and B_1 stop at degree p - 1, (1 - x)^N and T_1 at N, and
``TruncSeries.mul`` multiplies over each factor's nonzero span only.  The
check reads F^N to degree p, and builds (1 - x)^N once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .numerics import Backend, InputError, TruncSeries, negligible
from .stationary import ModelParams, compute_stationary


def one_minus_x_pow(params: ModelParams) -> TruncSeries:
    """(1 - x)^N at the common degree N + p - 1."""
    backend, N = params.backend, params.N
    return _series([backend.integer((-1) ** k * comb(N, k))
                    for k in range(N + 1)], params)


def _series(coeffs, params: ModelParams) -> TruncSeries:
    """Zero-pad a coefficient vector to the common degree N + p - 1."""
    zero = params.backend.integer(0)
    return TruncSeries(list(coeffs) +
                       [zero] * (params.N + params.p - len(coeffs)))


@dataclass(frozen=True)
class TqFirstOrder:
    params: ModelParams
    Q0: TruncSeries
    T0: TruncSeries
    Q1: TruncSeries
    T1: TruncSeries
    onemx: TruncSeries   # (1 - x)^N
    lambda1: object
    J: object


def b1_polynomial(params: ModelParams, stat) -> TruncSeries:
    """b_i = -N (1-q)^{p-i} Z(N,i) / Z(N,p), i = 0..p-1."""
    q = params.q
    if q == 1:
        raise InputError("the first-order functional-equation step is "
                         "undefined at q = 1; use the free-particle values "
                         "J = Delta = p")
    N, p = params.N, params.p
    Zp = stat.Zvals[p]
    return _series([-N * (1 - q) ** (p - i) * stat.Zvals[i] / Zp
                    for i in range(p)], params)


def q1_polynomial(b1: TruncSeries, params: ModelParams) -> TruncSeries:
    """q_i = b_i / (q^{p-i} - 1); q^k = 1 has no real root besides q = 1
    and q = -1, both rejected upstream."""
    q = params.q
    p = params.p
    return _series([b1.coeff(i) / (q ** (p - i) - 1) for i in range(p)],
                   params)


def _abs(s: TruncSeries) -> TruncSeries:
    return TruncSeries([abs(c) for c in s.coeffs])


def _first_nonzero(what: str, value: TruncSeries, scale, count: int,
                   backend: Backend) -> int | None:
    """The first k < count whose coefficient of value is not zero, or None.

    Each coefficient is tested by ``numerics.negligible``; scale() gives the
    series of their scales and is only built on the float backend, the one
    that reads it.
    """
    scales = value if backend.exact else scale()
    for k in range(count):
        if not negligible(f"{what} coefficient of x^{k}", value.coeff(k),
                          scales.coeff(k), backend):
            return k
    return None


def t1_polynomial(b1: TruncSeries, onemx: TruncSeries,
                  params: ModelParams) -> TruncSeries:
    """T_1 = N q^p + x^{-p} [ (1-x)^N B_1(x) - B_1(qx) ], onemx = (1-x)^N.

    The bracket coefficients of x^0..x^{p-1} vanish identically; a nonzero
    one means the construction is broken, so it aborts rather than truncates.
    """
    backend = params.backend
    q = params.q
    N, p = params.N, params.p
    bracket = onemx.mul(b1, backend).add(
        b1.scale_arg(q).scale(backend.integer(-1)))
    k = _first_nonzero(
        "bracket", bracket,
        lambda: _abs(onemx).mul(_abs(b1), backend).add(
            _abs(b1).scale_arg(abs(q))),
        p, backend)
    if k is not None:
        raise ArithmeticError(
            f"bracket coefficient of x^{k} is {bracket.coeff(k)}, "
            "expected 0; B_1 construction is inconsistent")
    t1 = list(bracket.coeffs[p:])
    t1[0] = t1[0] + N * q ** p
    return _series(t1, params)


def build_first_order(params: ModelParams) -> TqFirstOrder:
    backend = params.backend
    # B_1 reads Z(N, 0..p), and J reads Z(N, p-1) and Z(N, p)
    stat = compute_stationary(params, params.p)
    N, p = params.N, params.p
    q = params.q
    onemx = one_minus_x_pow(params)
    b1 = b1_polynomial(params, stat)
    q1 = q1_polynomial(b1, params)
    t1 = t1_polynomial(b1, onemx, params)
    Q0 = _series([backend.integer(0)] * p + [backend.integer(1)], params)
    T0 = onemx.add(TruncSeries.constant(q ** p, N + p - 1, backend))
    lambda1 = q1.coeff(p - 1)
    return TqFirstOrder(params=params, Q0=Q0, T0=T0, Q1=q1, T1=t1,
                        onemx=onemx, lambda1=lambda1, J=stat.J)


def verify_first_order(tq: TqFirstOrder) -> tuple[bool, TruncSeries, object]:
    """Residual of T0 Q1 + T1 Q0 - Q1(qx) - N Q0(qx) - q^p (1-x)^N Q1(x/q).

    Returns (success, residual, relative); success means every coefficient
    is zero by ``numerics.negligible``: exactly on the rational backend, to
    the working precision on the float backend, which raises PrecisionError
    where it falls short.  relative is the largest |residual_k| / scale_k,
    scale_k being the sum of the absolute values of the terms of
    coefficient k; an exactly zero residual has relative 0 without its
    scales being built.
    """
    params = tq.params
    backend = params.backend
    N, p = backend.integer(params.N), params.p

    def sides(T0, T1, Q0, Q1, onemx, q):
        lhs = T0.mul(Q1, backend).add(T1.mul(Q0, backend))
        rhs = Q1.scale_arg(q).add(Q0.scale_arg(q).scale(N))
        # q^p Q1(x/q) = sum_i q^{p-i} q_i x^i, defined at q = 0 as well
        third = _series([q ** (p - i) * Q1.coeff(i) for i in range(p)],
                        params)
        return lhs, rhs.add(onemx.mul(third, backend))

    lhs, rhs = sides(tq.T0, tq.T1, tq.Q0, tq.Q1, tq.onemx, params.q)
    residual = lhs.add(rhs.scale(backend.integer(-1)))
    if backend.exact and not any(residual.coeffs):
        return True, residual, backend.integer(0)
    lhs, rhs = sides(*map(_abs, (tq.T0, tq.T1, tq.Q0, tq.Q1, tq.onemx)),
                     abs(params.q))
    scales = lhs.add(rhs)
    ok = _first_nonzero("residual", residual, lambda: scales,
                        residual.degree + 1, backend) is None
    relative = max((abs(x) / s for x, s in
                    zip(residual.coeffs, scales.coeffs) if s),
                   default=backend.integer(0))
    return ok, residual, relative
