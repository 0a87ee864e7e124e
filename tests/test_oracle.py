from fractions import Fraction as F
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson.numerics import FloatBackend, InputError, SolverError, qvalue
from qboson.stationary import ModelParams, model
from qboson.cumulants import delta_exact_resummed
from qboson import oracle
from qboson.oracle import (_integer_weights, _solve_fraction,
                           build_generator, enumerate_configs,
                           lambda_derivatives, product_form_vector)
from qboson.tq import build_first_order


class TestConfigSpace:
    def test_counts(self):
        for N, p in ((2, 2), (3, 2), (4, 4), (5, 3)):
            assert len(enumerate_configs(N, p)) == comb(N + p - 1, p)

    def test_increasing_and_sum_to_p(self):
        for N, p in ((1, 3), (3, 3), (4, 2), (5, 1)):
            configs = enumerate_configs(N, p)
            assert all(a < b for a, b in zip(configs, configs[1:]))
            assert all(len(cfg) == N and sum(cfg) == p for cfg in configs)

    def test_cap(self):
        with pytest.raises(InputError):
            build_generator(model(30, 30, F(1, 2)))


class TestGenerator:
    def test_single_state_self_loop(self):
        gen = build_generator(model(1, 2, F(1, 2)))
        assert len(gen.configs) == 1
        assert gen.R == (F(3, 2),)
        assert gen.jumps == ((0, 0, 2),)
        assert gen.rates[2] == F(3, 2)

    def test_two_site_single_particle(self):
        gen = build_generator(model(2, 1, F(1, 2)))
        assert len(gen.configs) == 2
        assert sorted((s, d) for s, d, _ in gen.jumps) == [(0, 1), (1, 0)]
        assert all(gen.rates[n] == 1 for _, _, n in gen.jumps)

    def test_column_sums_zero(self):
        gen = build_generator(model(3, 2, F(1, 2)))
        M = len(gen.configs)
        colsum = [F(0)] * M
        for src, _, n in gen.jumps:
            colsum[src] += gen.rates[n]
        for i in range(M):
            assert colsum[i] == gen.R[i]

    def test_rates_nonnegative(self):
        gen = build_generator(model(3, 3, F(-1, 2)))
        assert all(gen.rates[n] > 0 for _, _, n in gen.jumps)

    def test_float_rates_are_rounded_rational_rates(self):
        # the 256-bit model rounds to the double nearest the exact rate
        be = FloatBackend(256)
        fgen = build_generator(model(3, 3, be.ratio(3, 10), be))
        rgen = build_generator(model(3, 3, F(3, 10)))
        assert fgen.jumps == rgen.jumps
        assert ([float(u) for u in fgen.rates]
                == [float(u) for u in rgen.rates])
        assert [float(r) for r in fgen.R] == [float(r) for r in rgen.R]


class TestStationaryVector:
    def test_product_form_solves_generator(self):
        for q in (F(1, 2), F(2), F(-1, 2)):
            m = model(3, 2, q)
            gen = build_generator(m)
            pi = product_form_vector(m, gen)
            # L pi = jump inflow - R pi = 0, componentwise
            out = [-gen.R[i] * pi[i] for i in range(len(gen.configs))]
            for src, dst, n in gen.jumps:
                out[dst] += gen.rates[n] * pi[src]
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

    @staticmethod
    def _float_error(N, p, q):
        """Relative errors of the float oracle's J and Delta against the
        exact series."""
        res = lambda_derivatives(
            ModelParams(N=N, p=p, q=qvalue(float(q), FloatBackend(64))))
        exact = delta_exact_resummed(model(N, p, q))
        return (abs(res.J / float(exact.J) - 1),
                abs(res.Delta / float(exact.Delta) - 1))

    def test_matches_formula_midsize(self):
        # 252 states
        assert max(self._float_error(6, 5, F(1, 2))) <= 1e-13

    def test_matches_formula_large(self):
        # 1716 states, and 3432: the benchmark's float oracle request
        for N, p in ((8, 6), (8, 7)):
            assert max(self._float_error(N, p, F(1, 2))) <= 1e-13

    def test_pins_the_most_probable_state(self):
        # 3432 states at q = 3, where pi spans many decades: pinning the
        # most probable state leaves Delta within 4.4e-16 of the series;
        # pinning the first, last, middle or least probable state instead
        # leaves 9.8e-15 to 1.4e-14
        assert self._float_error(8, 7, F(3))[1] <= 2e-15

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

    def test_float_cap(self, monkeypatch):
        # 6435 states: above the float cap of 3432, rejected before the
        # space is enumerated
        def enumerate_nothing(N, p):
            raise AssertionError("enumerated a space above the cap")

        monkeypatch.setattr(oracle, "enumerate_configs", enumerate_nothing)
        with pytest.raises(InputError, match="cap 3432"):
            lambda_derivatives(
                ModelParams(N=9, p=7, q=qvalue(0.5, FloatBackend(64))))



# (N, p) with at most 84 states; the 40 examples take about 1 s
SMALL_SYSTEMS = [(N, p) for N in range(1, 9) for p in range(1, 9)
                 if comb(N + p - 1, p) <= 84]


def _rationals_in(lo, hi):
    return st.fractions(min_value=lo, max_value=hi,
                        max_denominator=50).filter(lambda q: lo < q < hi)


Q_VALUES = st.one_of(
    _rationals_in(F(-1), F(0)), _rationals_in(F(0), F(1)),
    _rationals_in(F(1), F(3)),
    # within 1/100 of the Poisson point q = 1, on both sides
    st.builds(lambda sign, d: 1 + sign * F(1, d), st.sampled_from((-1, 1)),
              st.integers(101, 10_000)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), Q_VALUES)
@example((5, 5), F(1, 2))  # 126 states, above the drawn bound
@example((5, 5), F(2))
def test_series_equals_rational_oracle(system, q):
    N, p = system
    m = model(N, p, q)
    series = delta_exact_resummed(m)
    orc = lambda_derivatives(m)
    assert (series.J, series.Delta) == (orc.J, orc.Delta)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), Q_VALUES)
@example((1, 3), F(1, 2))  # one state: the reduced system is empty
def test_float_oracle_equals_rational_oracle(system, q):
    N, p = system
    exact = lambda_derivatives(model(N, p, q))
    res = lambda_derivatives(
        ModelParams(N=N, p=p, q=qvalue(float(q), FloatBackend(64))))
    for got, want in ((res.J, exact.J), (res.Delta, exact.Delta),
                      (res.lambda2, exact.lambda2)):
        assert got == pytest.approx(float(want), rel=1e-12, abs=0)


def _rate(n, q):
    """[n]_q = 1 + q + ... + q^(n-1), written out."""
    return sum((q ** j for j in range(n)), F(0))


def _weight(m, q):
    """f(m) = 1 / ([1]_q [2]_q ... [m]_q), written out."""
    return 1 / prod((_rate(k, q) for k in range(1, m + 1)), start=F(1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS),
       st.one_of(Q_VALUES, st.sampled_from((F(0), F(1)))))
def test_class_values_equal_per_configuration_values(system, q):
    # R, pi and the exact path's integer weights are computed once per
    # occupation class; each must equal its per-configuration value
    N, p = system
    m = model(N, p, q)
    gen = build_generator(m)
    weights = [prod((_weight(n, q) for n in cfg), start=F(1))
               for cfg in gen.configs]
    Z = sum(weights)
    assert gen.R == tuple(sum(_rate(n, q) for n in cfg)
                          for cfg in gen.configs)
    assert product_form_vector(m, gen) == [w / Z for w in weights]
    W = [_integer_weights(gen)[c] for c in gen.classes]
    assert [F(x, sum(W)) for x in W] == [w / Z for w in weights]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), st.one_of(Q_VALUES, st.just(F(0))))
def test_lambda1_equals_tq_current(system, q):
    # the oracle's lambda_1 against the first-order T-Q route's q_(p-1)
    # and its J
    N, p = system
    m = model(N, p, q)
    first = build_first_order(m)
    assert lambda_derivatives(m).lambda1 == first.lambda1 == first.J


@st.composite
def sparse_systems(draw):
    """Row-permuted, strictly diagonally dominant (so nonsingular) sparse
    systems with a known solution x, in _solve_fraction's row format.

    Each row is scaled by its own rational factor, so rows carry different
    denominators, and x may hold entries with denominators of 2^200 and
    more, which the right-hand side then carries."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(-5, 5, max_denominator=9))
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(A):
        off = sum(abs(v) for j, v in enumerate(row) if j != i)
        margin = draw(st.fractions(F(1, 9), 3, max_denominator=9))
        row[i] = draw(st.sampled_from((-1, 1))) * (off + margin)
        scale = draw(st.builds(F, st.integers(1, 10**6),
                               st.integers(1, 10**6)))
        row[:] = [scale * v for v in row]
    x = [draw(st.one_of(
        st.fractions(-10, 10, max_denominator=20),
        st.builds(F, st.integers(-2**210, 2**210),
                  st.integers(2**200, 2**210))))
         for _ in range(n)]
    rows = []
    for i in draw(st.permutations(range(n))):
        row = {j: v for j, v in enumerate(A[i]) if v}
        row[n] = sum(v * xj for v, xj in zip(A[i], x))
        rows.append(row)
    return rows, x


class TestSolveFraction:
    @settings(max_examples=40, deadline=None)
    @given(sparse_systems())
    def test_recovers_known_solution(self, system):
        rows, x = system
        assert _solve_fraction(rows) == x

    def test_zero_leading_entry_needs_row_swap(self):
        # 2 x1 = 4 and 3 x0 + x1 = 5
        rows = [{1: F(2), 2: F(4)}, {0: F(3), 1: F(1), 2: F(5)}]
        assert _solve_fraction(rows) == [F(1), F(2)]

    def test_singular_raises(self):
        # the second row is twice the first in the matrix columns
        rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4), 2: F(1)}]
        with pytest.raises(SolverError):
            _solve_fraction(rows)
