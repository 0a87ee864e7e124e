"""Independent second-order route for Delta.

Rebuilds lambda_2 directly from the second gamma-order of the functional
equation, without the geometric resummation used by the production code:

    lambda_2 = pJ/2 + s * (1-q)^{-p} * sum_i [z^{p-1}] F^N(z) phi(z)
                 * f(c_i z) / F(d_i z)^N

with f(x) = Q_1(x) T_1(x) - N Q_1(qx) mod x^p, and the iteration
direction of the underlying difference equation fixing the branch:
|q| < 1: s = +1, c_i = q^i (1-q), d_i = q^{i+1}, i >= 0;
q > 1:   s = -1, c_i = q^{-i} (1-q), d_i = q^{-i+1}, i >= 1.

The i-terms decay geometrically (their limit carries the vanishing
coefficient [z^{p-1}] F^N phi), so a long partial sum pins Delta = 2
lambda_2 to far below the comparison tolerance.  This is the only test
that exercises a third, structurally different evaluation of Delta.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson.numerics import RATIONAL, poly_mul
from qboson.stationary import compute_stationary, model, phi_coefficients
from qboson.tq import build_first_order
from qboson.cumulants import delta_exact_resummed

from test_numerics import miller_power
from test_stationary import one_site_weights


def series_recip(s: list) -> list:
    assert s[0] == 1
    out = [F(1)]
    for k in range(1, len(s)):
        acc = F(0)
        for j in range(1, k + 1):
            acc += s[j] * out[k - j]
        out.append(-acc)
    return out


def mul(a: list, b: list, D: int) -> list:
    """The product of two coefficient lists, truncated at degree D."""
    return poly_mul(a, b, RATIONAL)[:D + 1]


def second_order_f(params):
    tq = build_first_order(params)
    q, p = params.q, params.p
    # Q1 T1 has degree N + p - 2 >= p - 1
    full = mul(tq.Q1, tq.T1, p - 1)
    return [c - params.N * q ** k * q1
            for k, (c, q1) in enumerate(zip(full, tq.Q1))]


def delta_second_order(params, i_terms=300):
    p, N = params.p, params.N
    q = params.q
    stat = compute_stationary(params, p)
    D = p - 1
    # F^N as Miller's power of the weights, not the route under test
    FN = miller_power(one_site_weights(params, D), N)
    phi = phi_coefficients(params, stat.J, D).coeffs
    base = mul(FN, phi, D)
    fpoly = second_order_f(params)

    greater = q > 1
    total = F(0)
    for idx in range(i_terms):
        i = idx + 1 if greater else idx
        c = q ** (-i if greater else i) * (1 - q)
        d = q ** (-i + 1 if greater else i + 1)
        fser = [coef * c ** k for k, coef in enumerate(fpoly)]
        # F(dz)^N has the coefficients d^k [z^k] F^N
        den = series_recip([g * d ** k for k, g in enumerate(FN)])
        total += mul(mul(base, fser, D), den, D)[D]
    sign = -1 if greater else 1
    lam2 = F(p) * stat.J / 2 + sign * total / (1 - q) ** p
    return 2 * lam2


@pytest.mark.parametrize("N,p,q", [
    (1, 2, F(1, 2)), (2, 2, F(1, 2)), (3, 2, F(-1, 2)), (2, 3, F(1, 3)),
    (1, 2, F(2)), (2, 2, F(2)), (3, 2, F(2)), (2, 3, F(2)), (3, 3, F(3)),
    (2, 2, F(5, 2)),
])
def test_matches_resummed(N, p, q):
    m = model(N, p, q)
    direct = delta_second_order(m)
    resummed = delta_exact_resummed(m).Delta
    assert abs(float(direct - resummed)) < 1e-40


def _rationals_in(lo, hi):
    return st.fractions(min_value=lo, max_value=hi,
                        max_denominator=50).filter(lambda q: lo < q < hi)


# q in (-2/3, 0), (0, 2/3) and (3/2, 3): |r| < 2/3, so the 300 i-terms of
# the route pin Delta far below 1e-40, as (2/3)^300 < 1e-52
Q_CONVERGENT = st.one_of(_rationals_in(F(-2, 3), F(0)),
                         _rationals_in(F(0), F(2, 3)),
                         _rationals_in(F(3, 2), F(3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), Q_CONVERGENT)
def test_matches_resummed_on_random_systems(N, p, q):
    # N, p <= 4 keep an example under about 0.4 s
    m = model(N, p, q)
    direct = delta_second_order(m)
    resummed = delta_exact_resummed(m).Delta
    assert abs(float(direct - resummed)) < 1e-40
