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

from qboson.numerics import RATIONAL, TruncSeries
from qboson.stationary import (compute_stationary, model, phi_coefficients,
                               weight_series)
from qboson.tq import build_first_order
from qboson.cumulants import delta_exact_resummed


def series_recip(s: TruncSeries) -> TruncSeries:
    assert s.coeffs[0] == 1
    out = [F(1)]
    for k in range(1, s.degree + 1):
        acc = F(0)
        for j in range(1, k + 1):
            acc += s.coeffs[j] * out[k - j]
        out.append(-acc)
    return TruncSeries(out)


def second_order_f(params):
    tq = build_first_order(params)
    q = params.q.q
    # Q1 T1 has degree N + p - 2, inside the series degree N + p - 1
    full = tq.Q1.mul(tq.T1).add(tq.Q1.scale_arg(q).scale(-params.N))
    return list(full.coeffs[:params.p])


def delta_second_order(params, i_terms=300):
    p, N = params.p, params.N
    q = params.q.q
    stat = compute_stationary(params)
    D = p - 1
    Fser = weight_series(params.q, D)
    FN = Fser.pow(N, RATIONAL)
    phi = phi_coefficients(params, stat.J, D)
    base = FN.mul(phi)
    fpoly = second_order_f(params)

    greater = params.q.regime == "greater_one"
    total = F(0)
    for idx in range(i_terms):
        i = idx + 1 if greater else idx
        c = q ** (-i if greater else i) * (1 - q)
        d = q ** (-i + 1 if greater else i + 1)
        fscaled = [coef * c ** k for k, coef in enumerate(fpoly)]
        fser = TruncSeries(fscaled + [F(0)] * (D + 1 - len(fscaled)))
        den = series_recip(Fser.scale_arg(d).pow(N, RATIONAL))
        total += base.mul(fser).mul(den).coeff(D)
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
