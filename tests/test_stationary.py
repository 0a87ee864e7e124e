from dataclasses import replace
from fractions import Fraction as F
from math import comb

import pytest

from qboson.numerics import FloatBackend, InputError, RATIONAL
from qboson.stationary import (ModelParams, binomial_row, compute_stationary,
                               intensive_quantities, model, phi_coefficients,
                               rate_u)


def one_site_weights(params, degree):
    """f(0..degree), f(m) = f(m-1)/u(m), at the backend of params, from the
    closed form u(m) = (1 - q^m)/(1 - q) (u(m) = m at q = 1), so that the
    references below call no library code for them."""
    q = params.q
    f = [params.backend.integer(1)]
    for m in range(1, degree + 1):
        f.append(f[-1] / (m if q == 1 else (1 - q ** m) / (1 - q)))
    return f


def compositions(N, p):
    """All occupation vectors of N sites holding p particles."""
    if N == 1:
        yield (p,)
        return
    for first in range(p + 1):
        for rest in compositions(N - 1, p - first):
            yield (first,) + rest


def brute_force_Z(N, p, q, observable=lambda cfg: 1):
    """Independent enumeration oracle for the partition function, or for
    the unnormalised sum of an observable over all configurations."""
    ftab = one_site_weights(model(1, 1, q), p)
    total = F(0)
    for cfg in compositions(N, p):
        w = F(observable(cfg))
        for n in cfg:
            w *= ftab[n]
        total += w
    return total


def site_marginal(m):
    """P(n_1 = k) = f(k) Z(N-1, p-k) / Z(N, p) for k = 0..p, N >= 2.

    Built from the one-site weights and two compute_stationary calls.
    """
    f = one_site_weights(m, m.p)
    rest = compute_stationary(replace(m, N=m.N - 1), m.p).Zvals
    Z = compute_stationary(m, m.p).Zvals[m.p]
    return [f[k] * rest[m.p - k] / Z for k in range(m.p + 1)]


def occupation_variance(m):
    """Variance of n_1 under site_marginal."""
    P = site_marginal(m)
    return sum(k * k * x for k, x in enumerate(P)) - m.rho * m.rho


class TestModelParams:
    # rates u(n) are positive only for q > -1; NaN fails that comparison
    @pytest.mark.parametrize("q", [F(-1), F(-3, 2), F(-2), float("nan")])
    @pytest.mark.parametrize("be", [RATIONAL, FloatBackend(256)])
    def test_model_rejects_q_not_above_minus_one(self, be, q):
        with pytest.raises(InputError, match="q must be > -1"):
            model(3, 2, q, be)

    def test_record_rejects_q_not_above_minus_one(self):
        be = FloatBackend(256)
        for q, backend in ((F(-1), RATIONAL), (F(-2), RATIONAL),
                           (float("nan"), RATIONAL),
                           (be.ratio(-1), be), (be.ctx.nan, be)):
            with pytest.raises(InputError, match="q must be > -1"):
                ModelParams(N=3, p=2, q=q, backend=backend)


class TestRates:
    def test_u1_is_one(self):
        for q in (F(-1, 2), F(0), F(1, 2), F(1), F(2)):
            assert rate_u(1, model(1, 1, q)) == 1

    def test_u2_half(self):
        assert rate_u(2, model(1, 1, F(1, 2))) == F(3, 2)

    def test_q_zero(self):
        for n in (1, 2, 3, 7):
            assert rate_u(n, model(1, 1, F(0))) == 1
        assert rate_u(0, model(1, 1, F(0))) == 0

    def test_unity_linear(self):
        assert rate_u(5, model(1, 1, F(1))) == 5

    def test_negative_occupation_rejected(self):
        with pytest.raises(InputError):
            rate_u(-1, model(1, 1, F(1, 2)))


class TestWeights:
    """The one-site weights f(m) as the series route builds them: one site
    holds all p particles, so Z(1, m) = f(m)."""

    @staticmethod
    def weights(q, p):
        return compute_stationary(model(1, p, q), p).Zvals

    def test_f0(self):
        assert self.weights(F(1, 2), 1)[0] == 1

    def test_f2_half(self):
        assert self.weights(F(1, 2), 2)[2] == F(2, 3)

    def test_q_zero_all_one(self):
        for f in self.weights(F(0), 5):
            assert f == 1

    def test_unity_factorial(self):
        import math
        for m, f in enumerate(self.weights(F(1), 5)):
            assert f == F(1, math.factorial(m))

    def test_positive_for_negative_q(self):
        for f in self.weights(F(-3, 4), 7):
            assert f > 0


class TestPartition:
    def test_Z_N0_is_one(self):
        for N, p in ((2, 2), (3, 4)):
            assert compute_stationary(model(N, p, F(1, 2)), p).Zvals[0] == 1

    def test_q0_counts_compositions(self):
        for N, p in ((3, 2), (4, 3), (5, 5)):
            Z = compute_stationary(model(N, p, F(0)), p).Zvals
            assert Z[p] == comb(N + p - 1, p)

    def test_Z22_half(self):
        # enumeration over {(2,0),(1,1),(0,2)}: f(2)+f(1)^2+f(2) = 7/3
        assert compute_stationary(model(2, 2, F(1, 2)), 2).Zvals[2] == F(7, 3)

    def test_Z1p_is_weight(self):
        for p in range(1, 6):
            for q in (F(-1, 2), F(1, 2), F(3)):
                assert compute_stationary(model(1, p, q), p).Zvals[p] == \
                    one_site_weights(model(1, 1, q), p)[p]

    @pytest.mark.parametrize("N,p", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3),
                                     (5, 2), (2, 5), (4, 4)])
    @pytest.mark.parametrize("q", [F(-1, 2), F(0), F(1, 3), F(2)])
    def test_matches_enumeration(self, N, p, q):
        assert compute_stationary(model(N, p, q), p).Zvals[p] == \
            brute_force_Z(N, p, q)

    def test_unity_supported(self):
        # F = e^z termwise: Z(N, k) = N^k / k!
        import math
        Z = compute_stationary(model(3, 4, F(1)), 4).Zvals
        for k in range(5):
            assert Z[k] == F(3 ** k, math.factorial(k))


class TestDegree:
    @pytest.mark.parametrize("q", [F(1, 2), F(-1, 2), F(3, 2), F(5)])
    @pytest.mark.parametrize("N,p", [(1, 4), (3, 5), (6, 3), (8, 8)])
    def test_degree_p_is_a_prefix_of_degree_2p(self, N, p, q):
        # g_k reads d_1..d_k and g_0..g_(k-1) only: the same
        # rationals, and the same mpf bits, whatever degree is built
        for be in (RATIONAL, FloatBackend(256)):
            m = model(N, p, q, be)
            short = compute_stationary(m, p)
            full = compute_stationary(m, 2 * p)
            assert len(short.Zvals) == p + 1
            if be.exact:
                assert short.Zvals == full.Zvals[:p + 1]
                assert short.J == full.J
            else:
                assert [z._mpf_ for z in short.Zvals] == \
                    [z._mpf_ for z in full.Zvals[:p + 1]]
                assert short.J._mpf_ == full.J._mpf_

    def test_degree_below_p_rejected(self):
        with pytest.raises(InputError):
            compute_stationary(model(3, 4, F(1, 2)), 3)


class TestCurrent:
    def test_single_particle(self):
        for N in range(1, 7):
            for q in (F(-1, 2), F(0), F(1, 2), F(2)):
                assert compute_stationary(model(N, 1, q), 1).J == 1

    def test_J22_half(self):
        assert compute_stationary(model(2, 2, F(1, 2)), 2).J == F(12, 7)

    def test_J12_closed_form(self):
        for q in (F(-1, 2), F(0), F(1, 2), F(2), F(3)):
            assert compute_stationary(model(1, 2, q), 2).J == 1 + q

    @pytest.mark.parametrize("q", [F(1, 2), F(2), F(-1, 3)])
    def test_two_particle_closed_form(self, q):
        # J(N,2) = 2N / (N + (1-q)/(1+q))
        for N in range(1, 11):
            expected = F(2 * N) / (N + (1 - q) / (1 + q))
            assert compute_stationary(model(N, 2, q), 2).J == expected

    def test_matches_enumeration(self):
        for N, p, q in ((3, 3, F(1, 2)), (4, 2, F(2)), (2, 4, F(-1, 2))):
            assert compute_stationary(model(N, p, q), p).J == \
                N * brute_force_Z(N, p - 1, q) / brute_force_Z(N, p, q)


class TestIntensive:
    def test_bond_current(self):
        out = intensive_quantities(model(2, 2, F(1, 2)), F(12, 7), F(1))
        assert out["j_N"] == F(6, 7)

    def test_velocity_at_unit_density(self):
        out = intensive_quantities(model(4, 4, F(1, 2)), F(4), F(1))
        assert out["v_p"] == 1

    def test_delta_ratios(self):
        out = intensive_quantities(model(1, 2, F(0)), F(1), Delta=F(1))
        assert out["Delta_j"] == 1
        assert out["Delta_p"] == F(1, 4)


class TestSiteMarginal:
    # sum_k f(k) Z(N-1, p-k) = Z(N, p) is F F^(N-1) = F^N read at degree p
    def test_normalization(self):
        for N, p, q in ((3, 4, F(1, 2)), (4, 3, F(2)), (2, 2, F(-1, 2))):
            assert sum(site_marginal(model(N, p, q))) == 1

    def test_symmetric_two_site(self):
        assert site_marginal(model(2, 1, F(0))) == [F(1, 2), F(1, 2)]

    def test_enumerated_values(self):
        assert site_marginal(model(2, 2, F(1, 2))) == [F(2, 7), F(3, 7),
                                                       F(2, 7)]


class TestOccupationMoments:
    def test_mean_is_density(self):
        # z (F^N)' = N z F' F^(N-1), read at degree p
        for N, p in ((2, 2), (3, 5), (4, 2)):
            P = site_marginal(model(N, p, F(1, 2)))
            assert sum(k * x for k, x in enumerate(P)) == F(p, N)

    def test_variance_enumerated(self):
        assert occupation_variance(model(2, 2, F(1, 2))) == F(4, 7)

    def test_variance_from_marginal(self):
        # against the variance of n_1 over every configuration
        N, p, q = 3, 4, F(2)
        second = brute_force_Z(N, p, q, lambda cfg: cfg[0] ** 2)
        var = second / brute_force_Z(N, p, q) - F(p, N) ** 2
        assert occupation_variance(model(N, p, q)) == var


class TestPhiSeries:
    def test_phi0_zero_when_J_equals_p(self):
        m = model(3, 1, F(1, 2))
        phi = phi_coefficients(m, F(1), 0)
        assert phi.coeff(0) == 0

    def test_single_site_two_particles(self):
        for q in (F(1, 2), F(-1, 2), F(2)):
            m = model(1, 2, q)
            phi = phi_coefficients(m, 1 + q, 1)
            assert phi.coeff(0) == (q - 1) / 2
            assert phi.coeff(1) == (1 - q) / 2

    @pytest.mark.parametrize("N,p,q", [(2, 2, F(1, 2)), (3, 2, F(-1, 2)),
                                       (2, 3, F(2)), (4, 3, F(1, 3)),
                                       (3, 4, F(3))])
    def test_anchor_identity(self, N, p, q):
        # [y^(p-1)] (F^N phi) = (J/N) Z(N,p) - Z(N,p-1) = 0 exactly
        m = model(N, p, q)
        stat = compute_stationary(m, p)
        phi = phi_coefficients(m, stat.J, p - 1)
        acc = F(0)
        for b in range(p):
            acc += stat.Zvals[p - 1 - b] * phi.coeff(b)
        assert acc == 0

    def test_unity_rejected(self):
        with pytest.raises(InputError):
            phi_coefficients(model(2, 2, F(1)), F(2), 1)


def test_float_backend_matches_rational():
    be = FloatBackend(192)
    mf = model(5, 4, F(1, 2), be)
    mr = model(5, 4, F(1, 2))
    sf = compute_stationary(mf, 8)
    sr = compute_stationary(mr, 8)
    for k in range(9):
        exact = sr.Zvals[k]
        rel = abs(sf.Zvals[k] - be.ratio(exact.numerator,
                                         exact.denominator))
        assert rel < be.ratio(1, 10 ** 40) * max(1, abs(sf.Zvals[k]))


@pytest.mark.parametrize("N,k", [(1, 1), (7, 3), (40, 40), (300, 299)])
def test_binomial_row_equals_comb(N, k):
    assert binomial_row(N, k) == [comb(N, j) for j in range(k + 1)]
