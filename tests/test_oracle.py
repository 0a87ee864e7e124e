from fractions import Fraction as F
from math import comb

import pytest

from qboson.numerics import FloatBackend, InputError, qvalue
from qboson.stationary import ModelParams, model
from qboson.cumulants import delta_exact_resummed
from qboson.oracle import (build_generator, enumerate_configs,
                           lambda_derivatives, lambda_gamma, lambda_gamma_fd,
                           product_form_vector)


class TestConfigSpace:
    def test_counts(self):
        for N, p in ((2, 2), (3, 2), (4, 4), (5, 3)):
            space = enumerate_configs(N, p)
            assert space.size == comb(N + p - 1, p)

    def test_bijective_index(self):
        space = enumerate_configs(3, 3)
        for i, cfg in enumerate(space.configs):
            assert space.index[cfg] == i
            assert sum(cfg) == 3

    def test_cap(self):
        with pytest.raises(InputError):
            enumerate_configs(30, 30)


class TestGenerator:
    def test_single_state_self_loop(self):
        gen = build_generator(model(1, 2, F(1, 2)))
        assert gen.space.size == 1
        assert gen.R == (F(3, 2),)
        assert gen.jumps == ((0, 0, F(3, 2)),)

    def test_two_site_single_particle(self):
        gen = build_generator(model(2, 1, F(1, 2)))
        assert gen.space.size == 2
        assert sorted((s, d) for s, d, _ in gen.jumps) == [(0, 1), (1, 0)]
        assert all(rate == 1 for _, _, rate in gen.jumps)

    def test_column_sums_zero(self):
        gen = build_generator(model(3, 2, F(1, 2)))
        M = gen.space.size
        colsum = [F(0)] * M
        for src, _, rate in gen.jumps:
            colsum[src] += rate
        for i in range(M):
            assert colsum[i] == gen.R[i]

    def test_rates_nonnegative(self):
        gen = build_generator(model(3, 3, F(-1, 2)))
        assert all(rate > 0 for _, _, rate in gen.jumps)


class TestStationaryVector:
    def test_product_form_solves_generator(self):
        for q in (F(1, 2), F(2), F(-1, 2)):
            m = model(3, 2, q)
            gen = build_generator(m)
            pi = product_form_vector(m, gen)
            # L pi = jump inflow - R pi = 0, componentwise
            out = [-gen.R[i] * pi[i] for i in range(gen.space.size)]
            for src, dst, rate in gen.jumps:
                out[dst] += rate * pi[src]
            assert all(x == 0 for x in out)
            assert sum(pi) == 1

    def test_explicit_weights(self):
        m = model(2, 2, F(1, 2))
        gen = build_generator(m)
        pi = product_form_vector(m, gen)
        # states (0,2), (1,1), (2,0) with weights 2/3, 1, 2/3
        assert pi == [F(2, 7), F(3, 7), F(2, 7)]

    def test_uniform_at_q0(self):
        m = model(3, 2, F(0))
        gen = build_generator(m)
        pi = product_form_vector(m, gen)
        assert all(x == F(1, 6) for x in pi)


class TestLambdaDerivatives:
    def test_single_state(self):
        for q in (F(1, 2), F(2)):
            res = lambda_derivatives(model(1, 2, q))
            assert res.J == 1 + q
            assert res.Delta == 1 + q

    def test_single_particle(self):
        for N in (1, 2, 3, 4):
            res = lambda_derivatives(model(N, 1, F(1, 2)))
            assert res.J == 1 and res.Delta == 1

    def test_unity(self):
        for N, p in ((2, 2), (3, 2), (3, 3)):
            res = lambda_derivatives(model(N, p, F(1)))
            assert res.J == p and res.Delta == p

    def test_matches_formula_midsize(self):
        # a state space in the hundreds, float solve
        be = FloatBackend(64)
        m = ModelParams(N=6, p=5, q=qvalue(0.5, be))
        res = lambda_derivatives(m)
        exact = delta_exact_resummed(model(6, 5, F(1, 2)))
        assert abs(res.J - float(exact.J)) < 1e-10
        assert abs(res.Delta - float(exact.Delta)) < 1e-8

    def test_matches_formula_large(self):
        # 1716 states: the biggest float solve exercised by the suite
        be = FloatBackend(64)
        m = ModelParams(N=8, p=6, q=qvalue(0.5, be))
        res = lambda_derivatives(m)
        exact = delta_exact_resummed(model(8, 6, F(1, 2)))
        assert abs(res.J - float(exact.J)) < 1e-8
        assert abs(res.Delta - float(exact.Delta)) < 1e-8

    @pytest.mark.parametrize("N,p,q", [
        (1, 2, F(1, 2)),    # one state, self-loop cancelling R
        (2, 1, F(1, 2)),
        (3, 3, F(2)),       # q > 1
        (3, 3, F(-1, 2)),   # q < 0
        (4, 4, F(1, 2)),
    ])
    def test_float_matches_rational(self, N, p, q):
        exact = lambda_derivatives(model(N, p, q))
        res = lambda_derivatives(
            ModelParams(N=N, p=p, q=qvalue(float(q), FloatBackend(64))))
        for got, want in ((res.J, exact.J), (res.Delta, exact.Delta),
                          (res.lambda2, exact.lambda2)):
            assert got == pytest.approx(float(want), rel=1e-12, abs=0)

    def test_rational_cap(self):
        # 462 states: above the exact elimination's cap of 300
        with pytest.raises(InputError):
            lambda_derivatives(model(7, 5, F(1, 2)))


class TestLambdaGamma:
    def test_zero_at_gamma_zero(self):
        assert abs(lambda_gamma(model(3, 2, F(1, 2)), 0.0)) < 1e-13

    def test_single_state_exponential(self):
        import math
        m = model(1, 2, F(1, 2))
        for g in (-0.2, 0.1, 0.5):
            assert abs(lambda_gamma(m, g) - 1.5 * (math.exp(g) - 1)) < 1e-12

    def test_convexity(self):
        m = model(3, 2, F(1, 2))
        gs = [-0.2, -0.1, 0.0, 0.1, 0.2]
        vals = [lambda_gamma(m, g) for g in gs]
        second = [vals[i + 1] - 2 * vals[i] + vals[i - 1]
                  for i in range(1, len(vals) - 1)]
        assert all(s >= -1e-12 for s in second)

    def test_fd_matches_perturbation(self):
        m = model(3, 2, F(1, 2))
        fd = lambda_gamma_fd(m, eps=1e-4)
        res = lambda_derivatives(m)
        assert abs(fd["J"] - float(res.J)) < 1e-6
        assert abs(fd["Delta"] - float(res.Delta)) < 1e-6

    def test_fd_single_state(self):
        m = model(1, 2, F(1, 3))
        fd = lambda_gamma_fd(m, eps=1e-4)
        assert abs(fd["J"] - 4 / 3) < 1e-9
        assert abs(fd["Delta"] - 4 / 3) < 1e-6
