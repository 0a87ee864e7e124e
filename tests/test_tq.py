from fractions import Fraction as F

import pytest

from qboson.numerics import InputError, TruncSeries
from qboson.stationary import compute_stationary, model
from qboson.tq import (b1_polynomial, build_first_order, one_minus_x_pow,
                       q1_polynomial, t1_polynomial, verify_first_order)

Q_GRID = (F(-1, 2), F(1, 3), F(1, 2), F(2), F(3), F(0))


def b1(m):
    return b1_polynomial(m, compute_stationary(m, m.p))


def padded(coeffs, m):
    """The polynomial with these coefficients at the degree N + p - 1."""
    return TruncSeries(list(coeffs) + [F(0)] * (m.N + m.p - len(coeffs)))


class TestB1:
    def test_b0_value(self):
        # b_0 = -N (1-q)^p / Z(N,p)
        m = model(3, 2, F(1, 2))
        stat = compute_stationary(m, m.p)
        b = b1_polynomial(m, stat)
        assert b.coeff(0) == -3 * F(1, 2) ** 2 / stat.Zvals[2]

    def test_single_particle_chain(self):
        # p = 1: B_1 is the constant -N(1-q)/Z(N,1), Q_1 = 1, lambda_1 = 1
        for q in Q_GRID:
            m = model(4, 1, q)
            b = b1(m)
            # Z(N,1) = N cancels the N prefactor
            assert b == padded([-(1 - q)], m)
            q1 = q1_polynomial(b, m)
            assert q1 == padded([F(1)], m)

    def test_b_q_relation(self):
        # b_i = (q^{p-i} - 1) q_i
        m = model(2, 3, F(1, 2))
        b = b1(m)
        q1 = q1_polynomial(b, m)
        q = F(1, 2)
        for i in range(3):
            assert b.coeff(i) == (q ** (3 - i) - 1) * q1.coeff(i)

    def test_unity_rejected(self):
        with pytest.raises(InputError):
            b1(model(2, 2, F(1)))


class TestQ1:
    def test_sums_to_p(self):
        for N, p, q in ((3, 2, F(1, 2)), (2, 4, F(2)), (5, 3, F(-1, 2))):
            m = model(N, p, q)
            q1 = q1_polynomial(b1(m), m)
            assert sum(q1.coeffs) == p

    def test_top_coefficient_is_current(self):
        for N, p, q in ((4, 2, F(1, 3)), (3, 3, F(3)), (2, 5, F(1, 2))):
            m = model(N, p, q)
            q1 = q1_polynomial(b1(m), m)
            assert q1.coeff(p - 1) == compute_stationary(m, p).J


class TestT1:
    def test_constant_term(self):
        # p = 1, N = 2: bracket = (1-x)^2 b0 - b0 = b0 (x^2 - 2x), so
        # T_1 = N q + (b0 x - 2 b0) and T_1(0) = N q - 2 b0
        m = model(2, 1, F(1, 2))
        first = build_first_order(m)
        b0 = b1(m).coeff(0)
        assert first.T1.coeff(0) == 2 * F(1, 2) - 2 * b0
        assert first.T1.coeff(1) == b0

    def test_bracket_divisibility_enforced(self):
        # corrupting B_1 must trip the divisibility check
        m = model(3, 2, F(1, 2))
        b = b1(m).add(TruncSeries.one(m.N + m.p - 1))
        with pytest.raises(ArithmeticError):
            t1_polynomial(b, one_minus_x_pow(m), m)

    def test_degree_bound(self):
        for N, p, q in ((4, 2, F(1, 2)), (3, 3, F(2))):
            first = build_first_order(model(N, p, q))
            assert not any(first.T1.coeffs[N + 1:])


class TestIdentity:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_full_grid(self, q):
        for N in range(1, 7):
            for p in range(1, 7):
                first = build_first_order(model(N, p, q))
                ok, residual, _ = verify_first_order(first)
                assert ok, (N, p, q, residual)
                assert first.lambda1 == first.J
                assert sum(first.Q1.coeffs) == p

    def test_specific_cases(self):
        for N, p, q in ((2, 1, F(1, 2)), (4, 3, F(2)), (3, 2, F(-1, 2))):
            first = build_first_order(model(N, p, q))
            ok, residual, _ = verify_first_order(first)
            assert ok
            assert all(c == 0 for c in residual.coeffs)
