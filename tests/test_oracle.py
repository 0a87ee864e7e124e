from collections import Counter
from fractions import Fraction as F
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson.numerics import FloatBackend, InputError, SolverError
from qboson.stationary import model
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
        # (0, 1) and (1, 0) are one orbit, and each jump stays inside it
        gen = build_generator(model(2, 1, F(1, 2)))
        assert gen.configs == ((0, 1),)
        assert gen.sizes == (2,)
        assert gen.jumps == ((0, 0, 1),)
        assert gen.R == (1,) and gen.rates[1] == 1

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
        # configurations (0,2), (1,1), (2,0) with weights 2/3, 1, 2/3; the
        # orbits are {(0,2), (2,0)} and {(1,1)}
        assert gen.configs == ((0, 2), (1, 1))
        assert pi == [F(4, 7), F(3, 7)]

    def test_uniform_at_q0(self):
        # each of the 6 configurations has weight 1/6, and each of the two
        # orbits holds 3 of them
        m = model(3, 2, F(0))
        gen = build_generator(m)
        pi = product_form_vector(m, gen)
        assert gen.sizes == (3, 3)
        assert pi == [F(1, 2), F(1, 2)]


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
            model(N, p, float(q), FloatBackend(64)))
        exact = delta_exact_resummed(model(N, p, q))
        return (abs(res.J / float(exact.J) - 1),
                abs(res.Delta / float(exact.Delta) - 1))

    def test_matches_formula_midsize(self):
        # 252 configurations
        assert max(self._float_error(6, 5, F(1, 2))) <= 1e-13

    def test_matches_formula_large(self):
        # 1716 configurations, and 3432: the benchmark's float oracle request
        for N, p in ((8, 6), (8, 7)):
            assert max(self._float_error(N, p, F(1, 2))) <= 1e-13

    def test_pins_the_most_probable_state(self):
        # 3432 configurations (429 orbits) at q = 3, where pi spans 11
        # decades: pinning the most probable orbit (here the last) leaves
        # Delta within 6.7e-16 of the series; pinning the middle one
        # instead leaves 1.3e-15, and the first (here the least probable)
        # 4.2e-15
        assert self._float_error(8, 7, F(3))[1] <= 2e-15

    @pytest.mark.parametrize("N,p,q", [
        (8, 7, F(1, 2)), (7, 7, F(-1, 2)), (6, 5, F(1, 2)),
    ])
    def test_float_j_is_the_rounded_series_j(self, N, p, q):
        # J summed in float64 from rounded pi was 4 ulp off at (8, 7, 1/2)
        res = lambda_derivatives(model(N, p, q, FloatBackend()))
        assert res.J == res.lambda1 == float(delta_exact_resummed(
            model(N, p, q)).J)

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
            model(N, p, float(q), FloatBackend(64)))
        for got, want in ((res.J, exact.J), (res.Delta, exact.Delta),
                          (res.lambda2, exact.lambda2)):
            assert got == pytest.approx(float(want), rel=1e-12, abs=0)

    def test_rational_cap(self):
        # 462 configurations: above the exact elimination's cap of 300
        with pytest.raises(InputError):
            lambda_derivatives(model(7, 5, F(1, 2)))

    def test_float_cap(self, monkeypatch):
        # 6435 configurations: above the float cap of 3432, rejected before
        # the space is enumerated
        def enumerate_nothing(N, p):
            raise AssertionError("enumerated a space above the cap")

        monkeypatch.setattr(oracle, "enumerate_configs", enumerate_nothing)
        with pytest.raises(InputError, match="cap 3432"):
            lambda_derivatives(
                model(9, 7, 0.5, FloatBackend(64)))



# (N, p) with at most 300 configurations, the exact oracle's cap
SMALL_SYSTEMS = [(N, p) for N in range(1, 9) for p in range(1, 9)
                 if comb(N + p - 1, p) <= oracle.EXACT_STATE_CAP]


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
@example((6, 5), F(1, 2))  # 252 configurations, the largest drawn
@example((6, 5), F(2))
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
        model(N, p, float(q), FloatBackend(64)))
    for got, want in ((res.J, exact.J), (res.Delta, exact.Delta),
                      (res.lambda2, exact.lambda2)):
        assert got == pytest.approx(float(want), rel=1e-12, abs=0)


def _rate(n, q):
    """[n]_q = 1 + q + ... + q^(n-1), written out."""
    return sum((q ** j for j in range(n)), F(0))


def _weight(m, q):
    """f(m) = 1 / ([1]_q [2]_q ... [m]_q), written out."""
    return 1 / prod((_rate(k, q) for k in range(1, m + 1)), start=F(1))


def _configuration_generator(N, p, q):
    """The generator on single configurations, by brute force.

    Returns the configurations in lexicographic order, their exit rates R,
    their stationary weights prod_i f(n_i) normalized to sum 1, and the
    jumps as (src, dst, rate) triples indexing the configurations: a
    particle leaves site i for site i + 1 (mod N).
    """
    configs = enumerate_configs(N, p)
    index = {c: i for i, c in enumerate(configs)}
    R = [sum((_rate(n, q) for n in cfg), F(0)) for cfg in configs]
    weights = [prod((_weight(n, q) for n in cfg), start=F(1))
               for cfg in configs]
    Z = sum(weights)
    jumps = []
    for src, cfg in enumerate(configs):
        for i, n in enumerate(cfg):
            if n:
                moved = list(cfg)
                moved[i] -= 1
                moved[(i + 1) % N] += 1
                jumps.append((src, index[tuple(moved)], _rate(n, q)))
    return configs, R, [w / Z for w in weights], jumps


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS),
       st.one_of(Q_VALUES, st.sampled_from((F(0), F(1)))))
def test_orbit_values_equal_summed_configuration_values(system, q):
    # the lumped chain against the configuration chain: R per member, jump
    # rates into each orbit per member, and weights summed over members
    N, p = system
    m = model(N, p, q)
    gen = build_generator(m)
    configs, R, pi, jumps = _configuration_generator(N, p, q)
    reps = {c: i for i, c in enumerate(gen.configs)}
    orbit = [reps[min(c[s:] + c[:s] for s in range(N))] for c in configs]
    assert list(gen.sizes) == [orbit.count(i) for i in range(len(reps))]
    assert [gen.R[i] for i in orbit] == R
    lumped = [Counter() for _ in gen.configs]
    for src, dst, n in gen.jumps:
        lumped[src][dst] += gen.rates[n]
    flows = [Counter() for _ in configs]
    for src, dst, rate in jumps:
        flows[src][orbit[dst]] += rate
    assert flows == [lumped[i] for i in orbit]
    summed = [F(0)] * len(gen.configs)
    for i, x in zip(orbit, pi):
        summed[i] += x
    assert product_form_vector(m, gen) == summed
    W = _integer_weights(gen)
    assert [F(w, sum(W)) for w in W] == summed


def _configuration_chain_cumulants(N, p, q):
    """J and Delta from the configuration chain by exact perturbation
    theory, fixing the gauge by 1^T psi = 0 in place of the first row."""
    configs, R, pi, jumps = _configuration_generator(N, p, q)
    n = len(configs)
    lam1 = sum(r * x for r, x in zip(R, pi))
    # rows of L psi = (lambda_1 I - M) pi, column n the right-hand side
    rows = [{i: -R[i], n: lam1 * pi[i]} for i in range(n)]
    for src, dst, rate in jumps:
        rows[dst][src] = rows[dst].get(src, 0) + rate
        rows[dst][n] -= rate * pi[src]
    rows[0] = {i: F(1) for i in range(n)}
    psi = _solve_fraction([{c: v for c, v in row.items() if v}
                           for row in rows])
    lam2 = lam1 / 2 + sum(r * x for r, x in zip(R, psi))
    return lam1, 2 * lam2


@pytest.mark.parametrize("N,p,q", [
    (2, 1, F(1, 2)),    # one orbit: the reduced system is empty
    (3, 3, F(2)),
    (4, 4, F(-1, 2)),
    (5, 3, F(9, 10)),
    (2, 6, F(1, 3)),
])
def test_lumped_oracle_equals_configuration_chain(N, p, q):
    res = lambda_derivatives(model(N, p, q))
    assert (res.J, res.Delta) == _configuration_chain_cumulants(N, p, q)
    assert res.size == comb(N + p - 1, p)


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
