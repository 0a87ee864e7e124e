from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson.numerics import FloatBackend, InputError, SolverError
from qboson.stationary import compute_stationary, model
from qboson.tq import (b1_polynomial, build_first_order, one_minus_x_pow,
                       q1_polynomial, t1_polynomial, verify_first_order)

from test_cumulants import Q_REGIMES, _near_unit

Q_GRID = (F(-1, 2), F(1, 3), F(1, 2), F(2), F(3), F(0))


def b1(m):
    return b1_polynomial(m, compute_stationary(m, m.p))


class TestB1:
    def test_b0_value(self):
        # b_0 = -N (1-q)^p / Z(N,p)
        m = model(3, 2, F(1, 2))
        stat = compute_stationary(m, m.p)
        b = b1_polynomial(m, stat)
        assert b[0] == -3 * F(1, 2) ** 2 / stat.Zvals[2]

    def test_single_particle_chain(self):
        # p = 1: B_1 is the constant -N(1-q)/Z(N,1), Q_1 = 1, lambda_1 = 1
        for q in Q_GRID:
            m = model(4, 1, q)
            b = b1(m)
            # Z(N,1) = N cancels the N prefactor
            assert b == [-(1 - q)]
            q1 = q1_polynomial(b, m)
            assert q1 == [F(1)]

    def test_b_q_relation(self):
        # b_i = (q^{p-i} - 1) q_i
        m = model(2, 3, F(1, 2))
        b = b1(m)
        q1 = q1_polynomial(b, m)
        q = F(1, 2)
        for i in range(3):
            assert b[i] == (q ** (3 - i) - 1) * q1[i]

    def test_unity_rejected(self):
        with pytest.raises(InputError):
            b1(model(2, 2, F(1)))


class TestQ1:
    def test_sums_to_p(self):
        for N, p, q in ((3, 2, F(1, 2)), (2, 4, F(2)), (5, 3, F(-1, 2))):
            m = model(N, p, q)
            q1 = q1_polynomial(b1(m), m)
            assert sum(q1) == p

    def test_top_coefficient_is_current(self):
        for N, p, q in ((4, 2, F(1, 3)), (3, 3, F(3)), (2, 5, F(1, 2))):
            m = model(N, p, q)
            q1 = q1_polynomial(b1(m), m)
            assert q1[p - 1] == compute_stationary(m, p).J


class TestT1:
    def test_constant_term(self):
        # p = 1, N = 2: bracket = (1-x)^2 b0 - b0 = b0 (x^2 - 2x), so
        # T_1 = N q + (b0 x - 2 b0) and T_1(0) = N q - 2 b0
        m = model(2, 1, F(1, 2))
        first = build_first_order(m)
        b0 = b1(m)[0]
        assert first.T1 == [2 * F(1, 2) - 2 * b0, b0]

    def test_bracket_divisibility_enforced(self):
        # corrupting B_1 must trip the divisibility check: b_0 + 1 moves
        # the bracket's x^1 coefficient by -N
        m = model(3, 2, F(1, 2))
        b = b1(m)
        b[0] += 1
        with pytest.raises(SolverError, match="coefficient of x.1 is -3,"):
            t1_polynomial(b, one_minus_x_pow(m), m)

    def test_degree_bound(self):
        # each polynomial at its own length: T_1 has degree N - 1
        for N, p, q in ((4, 2, F(1, 2)), (3, 3, F(2)), (1, 5, F(0))):
            first = build_first_order(model(N, p, q))
            assert len(first.T1) == N
            assert len(first.Q1) == p
            assert len(first.onemx) == N + 1


class TestIdentity:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_full_grid(self, q):
        for N in range(1, 7):
            for p in range(1, 7):
                first = build_first_order(model(N, p, q))
                verdict = verify_first_order(first)
                assert verdict.ok, (N, p, q, verdict)
                assert verdict.residual_zero and verdict.lambda1_equals_J
                assert first.lambda1 == first.J == verdict.J
                assert sum(first.Q1) == verdict.Q1_at_1 == p

    def test_specific_cases(self):
        for N, p, q in ((2, 1, F(1, 2)), (4, 3, F(2)), (3, 2, F(-1, 2))):
            first = build_first_order(model(N, p, q))
            verdict = verify_first_order(first)
            assert verdict.ok
            assert verdict.max_residual == 0
            assert verdict.max_relative_residual == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24),
       Q_REGIMES | st.integers(2 ** 20, 2 ** 40).flatmap(_near_unit)
       | st.just(F(0)),
       st.sampled_from((53, 256)))
def test_float_identities_lie_within_their_rounding_unit(N, p, q, prec):
    # every identity of a correct F^N passes its derived bound: at any
    # system, q within 2^-20 of +-1 included, and at 53 bits as at 256
    first = build_first_order(model(N, p, q, FloatBackend(prec)))
    assert verify_first_order(first).ok
