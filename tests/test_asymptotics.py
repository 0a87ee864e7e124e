import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson.numerics import FloatBackend, InputError, SolverError
from qboson.stationary import compute_stationary, model
from qboson.asymptotics import (crossover_F, crossover_prediction,
                                kpz_coefficient, log_f_log_derivative,
                                saddle_data, saddle_point)
from test_stationary import occupation_variance

Q_HALF = F(1, 2)
Q_ZERO = F(0)


def lnF_direct(z: float, q, terms: int = 4000) -> float:
    """Evaluate ln F by multiplying product factors; FD oracle helper."""
    import numpy as np
    qf = float(q)
    if q > 1:
        i = np.arange(terms)
        return float(np.sum(np.log1p(z * (1 - 1 / qf) * (1 / qf) ** i)))
    i = np.arange(terms)
    return float(-np.sum(np.log1p(-z * (1 - qf) * qf ** i)))


def scaled_derivative_fd(z: float, q, k: int) -> float:
    """(z d/dz)^k ln F by nested central differences in log z.

    One Richardson step removes the O(h^2) truncation error.
    """
    u0 = math.log(z)

    def diff(h):
        def f(u, order):
            if order == 0:
                return lnF_direct(math.exp(u), q)
            return (f(u + h, order - 1) - f(u - h, order - 1)) / (2 * h)
        return f(u0, k)

    h = 1e-2 if k <= 2 else 2e-2
    return (4 * diff(h / 2) - diff(h)) / 3


class TestLogDerivatives:
    def test_q0_closed_forms(self):
        # F = 1/(1-z): (z d/dz)^k ln F at z = 1/2 gives 1, 2, 6, 26
        for k, expected in ((1, 1.0), (2, 2.0), (3, 6.0), (4, 26.0)):
            assert log_f_log_derivative(0.5, Q_ZERO, k) == \
                pytest.approx(expected, abs=1e-13)

    def test_matches_fd_oracle(self):
        for q in (Q_HALF, F(2), F(-1, 2)):
            z = 1.7 if q > 1 else 0.4
            for k in range(5):
                got = log_f_log_derivative(z, q, k)
                ref = scaled_derivative_fd(z, q, k)
                assert got == pytest.approx(ref, rel=2e-4, abs=2e-4), (q, k)

    def test_g_nu_cross_check(self):
        # z (ln F)' = sum_{i>=1} ((1-q)z)^i / (1 - q^i) inside the disk
        import random
        rng = random.Random(7)
        for _ in range(20):
            qf = rng.uniform(-0.8, 0.9)
            q = F(qf).limit_denominator(10 ** 6)
            zmax = 1 / (1 - float(q))
            z = rng.uniform(0.05, 0.8) * zmax
            w = (1 - float(q)) * z
            gsum, i, term = 0.0, 1, 1.0
            while abs(term := w ** i / (1 - float(q) ** i)) > 1e-18 and i < 4000:
                gsum += term
                i += 1
            got = z * log_f_log_derivative(z, q, 1) / z
            assert got == pytest.approx(gsum, rel=1e-12, abs=1e-12)

    def test_singularity_rejected(self):
        with pytest.raises(InputError):
            log_f_log_derivative(2.0, Q_ZERO, 1)

    def test_unity_rejected(self):
        with pytest.raises(InputError):
            log_f_log_derivative(0.5, F(1), 1)

    @pytest.mark.parametrize("q", [F(-1), F(-3, 2), -2.0, math.nan])
    def test_q_not_above_minus_one_rejected(self, q):
        with pytest.raises(InputError, match="q must be > -1"):
            log_f_log_derivative(0.5, q, 1)
        with pytest.raises(InputError, match="q must be > -1"):
            saddle_data(1.0, q)


class TestSaddlePoint:
    def test_q0_closed_form(self):
        # z/(1-z) = rho  =>  z* = rho/(1+rho)
        for rho in (0.5, 1.0, 2.0, 5.0):
            assert saddle_point(rho, Q_ZERO) == \
                pytest.approx(rho / (1 + rho), abs=1e-12)

    def test_saddle_condition(self):
        for q in (Q_HALF, F(3), F(-1, 2)):
            z = saddle_point(1.5, q)
            assert log_f_log_derivative(z, q, 1) == pytest.approx(1.5, abs=1e-11)

    def test_monotone_in_density(self):
        zs = [saddle_point(rho, Q_HALF) for rho in (0.5, 1.0, 2.0, 4.0)]
        assert zs == sorted(zs)

    def test_crossover_expansion(self):
        # four-order expansion in alpha/sqrt(N) at alpha/sqrt(N) = 1e-3
        rho, eps = 2.0, 1e-3
        q = math.exp(-eps)
        z = saddle_point(rho, q)
        pred = rho - eps * rho ** 2 / 2 + eps ** 2 * rho ** 3 / 6 \
            - eps ** 3 * rho ** 2 * (rho ** 2 - 1) / 24
        assert z == pytest.approx(pred, abs=5e-12)

    @pytest.mark.parametrize("rho,q", [
        (1000.0, "-1/2"), (1000.0, "1/10"), (1e5, "1/2"), (1e5, "99/100"),
        (1.0, "1/2"), (1.0, "2"), (100.0, "3/2"), (1e-20, "1/2"),
    ])
    def test_root_between_adjacent_doubles(self, rho, q):
        # no tolerance: the neighbours of z* bracket the root of L - rho
        q = F(q)
        z = saddle_point(rho, q)
        assert log_f_log_derivative(math.nextafter(z, 0.0), q, 1) <= rho
        assert log_f_log_derivative(math.nextafter(z, math.inf), q, 1) >= rho

    def test_small_density(self):
        # z (ln F)' = z + z^2/3 + O(z^3) at q = 1/2, so the truncation of
        # the product sum must be relative where the sum is far below 1
        rho = 1e-8
        assert abs(saddle_point(rho, Q_HALF) - (rho - rho ** 2 / 3)) <= \
            1e-15 * rho
        assert saddle_point(1e-20, Q_HALF) == pytest.approx(1e-20, rel=1e-15)


class TestSaddleData:
    def test_q0_values(self):
        sd = saddle_data(1.0, Q_ZERO)
        assert sd.zstar == pytest.approx(0.5, abs=1e-13)
        assert sd.h[1] == pytest.approx(0.0, abs=1e-11)
        assert sd.h[2] == pytest.approx(2.0, abs=1e-12)
        assert sd.h[3] == pytest.approx(6.0, abs=1e-12)
        assert sd.lambda_nl == pytest.approx(-0.25, abs=1e-12)
        assert sd.A == pytest.approx(2.0, abs=1e-12)
        assert sd.h[0] == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_fss_consistency(self):
        # lim N (j_N - j_inf) = -A lambda / 2
        for q in (Q_ZERO, Q_HALF, F(2)):
            sd = saddle_data(1.0, q)
            assert sd.current_fss == \
                pytest.approx(-sd.A * sd.lambda_nl / 2, rel=1e-10)

    def test_h2_positive(self):
        for rho in (0.25, 1.0, 3.0):
            for q in (Q_HALF, F(5, 2), F(-2, 3)):
                assert saddle_data(rho, q).h[2] > 0

    def test_occupation_variance_converges_to_h2(self):
        sd = saddle_data(1.0, Q_HALF)
        be = FloatBackend(128)
        gaps = []
        for N in (8, 16, 32):
            var = occupation_variance(model(N, N, F(1, 2), be))
            gaps.append(abs(float(var) - sd.h[2]))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_current_fss_matches_series(self):
        # j_N = j_inf + current_fss / N + O(N^-2); N^2 |gap| is 0.039
        sd = saddle_data(1.0, Q_HALF)
        for N in (8, 16, 32):
            jN = float(compute_stationary(model(N, N, F(1, 2)), N).J) / N
            assert abs(jN - (sd.j_inf + sd.current_fss / N)) < 0.1 / N ** 2


def partition_asymp(N, saddle):
    """Two-term saddle-point estimate of Z(N, rho N) from h_0, h_2..h_4."""
    h0, _, h2, h3, h4 = saddle.h
    correction = 1.0 + (h4 / (4 * h2 ** 2) - 5 * h3 ** 2 / (12 * h2 ** 3)) \
        / (2 * N)
    return math.exp(N * h0) / math.sqrt(2 * math.pi * N * h2) * correction


class TestPartitionAsymp:
    def test_ratio_shrinks_like_N_minus_2(self):
        sd = saddle_data(1.0, Q_HALF)
        devs = []
        for N in (8, 16, 32):
            exact = float(compute_stationary(model(N, N, F(1, 2)), N).Zvals[N])
            devs.append(abs(exact / partition_asymp(N, sd) - 1.0))
        # frozen from the measured 0.0046/N^2 coefficient
        for N, dev in zip((8, 16, 32), devs):
            assert dev < 0.02 / N ** 2
        assert devs[2] < devs[1] < devs[0]

    def test_q0_stirling(self):
        # Z(N,N) = C(2N-1,N); leading asymptotics 4^N / sqrt(4 pi N)
        sd = saddle_data(1.0, Q_ZERO)
        N = 24
        assert partition_asymp(N, sd) == \
            pytest.approx(float(compute_stationary(
                model(N, N, F(0)), N).Zvals[N]), rel=1e-3)

    def test_correction_sign(self):
        # at q = 1/2, rho = 1, N = 8 the two-term estimate undershoots
        sd = saddle_data(1.0, Q_HALF)
        exact = float(compute_stationary(model(8, 8, F(1, 2)), 8).Zvals[8])
        assert partition_asymp(8, sd) < exact


class TestKpzCoefficient:
    def test_q0_value(self):
        sd = saddle_data(1.0, Q_ZERO)
        assert kpz_coefficient(sd) == \
            pytest.approx(math.sqrt(math.pi) / (4 * math.sqrt(2)), rel=1e-12)

    def test_amplitude_identity(self):
        # K = (sqrt(pi)/4) A^{3/2} |lambda| exactly in the h's
        for rho, q in ((1.0, Q_HALF), (2.0, F(3)), (0.5, Q_ZERO)):
            sd = saddle_data(rho, q)
            assert kpz_coefficient(sd) == pytest.approx(
                math.sqrt(math.pi) / 4 * sd.A ** 1.5 * abs(sd.lambda_nl),
                rel=1e-12)

    def test_vanishes_towards_unity(self):
        ks = [kpz_coefficient(saddle_data(1.0, q))
              for q in (F(1, 2), F(3, 4), F(9, 10), F(99, 100))]
        assert ks == sorted(ks, reverse=True)
        assert ks[-1] < 0.01


def crossover_reference(g: float):
    """F(g, infinity) at 200 bits by mpmath's tanh-sinh quadrature, split
    where 1/tanh(c y) bends, at 2^k/c below 1, and along the Gaussian."""
    with mpmath.workprec(200):
        g = mpmath.mpf(g)
        c = mpmath.sqrt(g / 32)
        points = ([0] + [2 ** k / c for k in range(-2, 40) if 2 ** k / c < 1]
                  + [1, 2, 4, 8, 16, mpmath.inf])
        integral = mpmath.quad(
            lambda y: y * y * mpmath.exp(-y * y) / mpmath.tanh(c * y), points)
        return +(mpmath.sqrt(g / 8) * integral)


# F(g) lies within this many units in the last place of the 200-bit value.
# The measured worst, over the listed g and 1000 log-uniform draws in
# [1e-6, 1e6], is 1.73 ulp (at g = 100); the bound leaves a factor of 2.3.
F_ULP_BOUND = 4


def crossover_ulps(g: float) -> float:
    ref = crossover_reference(g)
    with mpmath.workprec(200):
        return float(abs(crossover_F(g) - ref)) / math.ulp(float(ref))


class TestCrossover:
    # 1e8 and 3e8: 1/tanh(c y) bends within 1/c < 6e-4 of 0, and panels
    # with no node that close miss 1e-7 to 4e-7 of F(g) while their halves
    # agree
    @pytest.mark.parametrize("g", [1e-6, 1e-3, 0.1, 1.0, 8.0, 16.0, 100.0,
                                   1e4, 1e6, 1e8, 3e8])
    def test_within_ulps_of_200_bit_reference(self, g):
        assert crossover_ulps(g) <= F_ULP_BOUND

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-6.0, 6.0))
    def test_log_uniform_g_within_ulps(self, log10_g):
        assert crossover_ulps(10.0 ** log10_g) <= F_ULP_BOUND

    def test_error_estimate_above_tolerance_raises(self):
        # at g = 1e14, F is about 5e5 and the panels' rounding alone moves
        # the estimate past the absolute 1e-10
        with pytest.raises(SolverError, match="quadrature error estimate"):
            crossover_F(1e14)

    def test_small_g_limit(self):
        assert crossover_F(1e-6) == pytest.approx(1.0, abs=1e-3)

    def test_large_g_limit(self):
        assert crossover_F(1e6) / 1e3 == \
            pytest.approx(math.sqrt(math.pi) / (8 * math.sqrt(2)), abs=1e-3)

    def test_monotone_and_above_one(self):
        gs = (0.01, 0.1, 1.0, 8.0, 100.0)
        vals = [crossover_F(g) for g in gs]
        assert vals == sorted(vals)
        assert all(v >= 1.0 - 1e-9 for v in vals)

    def test_quadrature_against_coarse_riemann(self):
        # independent midpoint-rule check at moderate g
        g = 8.0
        c = math.sqrt(g) / math.sqrt(32)
        n, upper = 200_000, 12.0
        h = upper / n
        total = sum((x := (i + 0.5) * h) ** 2 * math.exp(-x * x)
                    / math.tanh(c * x) for i in range(n)) * h
        assert crossover_F(g) == \
            pytest.approx(math.sqrt(g) / (2 * math.sqrt(2)) * total, rel=1e-7)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            crossover_F(0.0)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            crossover_F(float("nan"))

    def test_prediction_even_in_alpha(self):
        a = crossover_prediction(1.0, 1.0)
        b = crossover_prediction(1.0, -1.0)
        assert a.prediction == b.prediction
        assert a.g == b.g == 8.0

    def test_alpha_zero_gives_density(self):
        cd = crossover_prediction(2.0, 0.0)
        assert cd.prediction == 2.0
        assert cd.Fg == 1.0

    @pytest.mark.parametrize("alpha,rho", [
        (float("nan"), 1e-10), (float("inf"), 1e-10), (float("-inf"), 1e-10),
        (1.0, float("nan")), (1.0, 0.0), (1.0, -1.0),
    ])
    def test_prediction_rejects_nonfinite_input(self, alpha, rho):
        # each row spoils one of the two inputs, alpha or the density
        with pytest.raises(InputError):
            crossover_prediction(rho, alpha)

    def test_ew_constants(self):
        cd = crossover_prediction(1.5, 1.0)
        assert cd.D_ew == 1.5
        assert cd.nu_ew == 0.5
