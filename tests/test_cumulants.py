from fractions import Fraction as F
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson import cumulants
from qboson.cli import _certified, _series
from qboson.numerics import (FloatBackend, PrecisionError, RATIONAL,
                             escalate_precision, geometric_factor)
from qboson.stationary import (StationaryData, compute_stationary, model,
                               partition_error, phi_coefficients)
from qboson.cumulants import delta_exact_resummed, error_unit
from qboson.oracle import lambda_derivatives

ALL_Q = (F(-1, 2), F(0), F(1, 3), F(1, 2), F(2), F(3))


def delta_truncated(params, i_max):
    """Delta with the i-sum of S2 summed term by term up to i_max.

    A reference for the resummation in ``cumulants``, built from F^N and
    phi with plain loops.  Term i of S2 is

        sum_k r^(ik) Z(N, p+k) (sum_b C_{p-1-k-b} phi_b r^(i(b+1)) + A_k),

    with A_0 = 0 dropped as in the resummation.  Returns Delta, its
    breakdown and tail_bound, a geometric bound in Delta units on the
    discarded terms i > i_max.  Undefined at q = 1.
    """
    p, N, q = params.p, params.N, params.q
    # |r| < 1 in both regimes
    r = params.backend.integer(1) / q if q > 1 else q
    zero = params.backend.integer(0)
    stat = compute_stationary(params, 2 * p - 1)
    Z = stat.Zvals
    phi = phi_coefficients(params, stat.J, p - 1).coeffs
    # A_k = sum_{a+b=p-1-k} C_a phi_b
    A = [sum((Z[p - 1 - k - b] * phi[b] for b in range(p - k)), zero)
         for k in range(p)]
    A_sum = [zero] + A[1:]
    S2 = zero
    for i in range(1, i_max + 1):
        ri = r ** i
        inner = [sum((Z[p - 1 - k - b] * phi[b] * ri ** (b + 1)
                      for b in range(p - k)), zero) + A_sum[k]
                 for k in range(p)]
        S2 += sum((ri ** k * Z[p + k] * inner[k] for k in range(p)), zero)
    # |term i| <= |r|^i B, so the tail is <= B |r|^(i_max+1) / (1 - |r|)
    B = sum((Z[p + k] * (sum((abs(Z[p - 1 - k - b] * phi[b])
                              for b in range(p - k)), zero) + abs(A_sum[k]))
             for k in range(p)), zero)
    sign = -1 if q > 1 else 1
    S1 = sign * sum((Z[p + k] * A[k] for k in range(p)), zero)
    S2 = sign * S2
    prefactor = 2 * N ** 2 / Z[p] ** 2
    pJ = p * stat.J
    tail = float(prefactor * B * abs(r) ** (i_max + 1) / (1 - abs(r)))
    return SimpleNamespace(Delta=pJ + prefactor * (S1 + S2), Z=Z[p], pJ=pJ,
                           S1=S1, S2=S2, prefactor=prefactor,
                           tail_bound=tail)


def delta_dot_resummation(params):
    """(S1, S2, Delta) with every sum over b taken term by term.

    A reference for the O(p) identities of ``cumulants``: A_k and S2's
    bracket as the module docstring writes them, each a sum of p - k
    products, O(p^2) in all.  Rational backend, q != 1.
    """
    p, N, q = params.p, params.N, params.q
    r = 1 / q if q > 1 else q
    stat = compute_stationary(params, 2 * p - 1)
    Z = stat.Zvals
    phi = phi_coefficients(params, stat.J, p - 1).coeffs
    # g[a] = r^a / (1 - r^a), a = 1..p
    g = [None] + [geometric_factor(r, a) for a in range(1, p + 1)]
    A = [sum(Z[p - 1 - k - b] * phi[b] for b in range(p - k))
         for k in range(p)]
    inner = [sum(Z[p - 1 - k - b] * phi[b] * g[k + 1 + b]
                 for b in range(p - k)) + (A[k] * g[k] if k else 0)
             for k in range(p)]
    sign = -1 if q > 1 else 1
    S1 = sign * sum(Z[p + k] * A[k] for k in range(p))
    S2 = sign * sum(Z[p + k] * inner[k] for k in range(p))
    return S1, S2, p * stat.J + 2 * N ** 2 / Z[p] ** 2 * (S1 + S2)


def delta_fss(params):
    """The finite-size estimate N^2 Z(2N,2p)/Z(N,p)^2 (j_N - j_2N) of Delta.

    Derrida & Appert, J. Stat. Phys. 94, 1 (1999); it agrees with the exact
    Delta up to a relative O(1/N) error at fixed density, growing N.
    F^(2N) = (F^N)^2, so Z(2N, k) is a Cauchy square of Z(N, 0..k).
    """
    p, N = params.p, params.N
    Z = compute_stationary(params, 2 * p).Zvals
    Z2 = [sum(Z[a] * Z[k - a] for a in range(k + 1))
          for k in (2 * p - 1, 2 * p)]
    jN, j2N = Z[p - 1] / Z[p], Z2[0] / Z2[1]
    return N ** 2 * Z2[1] / Z[p] ** 2 * (jN - j2N)


class TestClosedForms:
    def test_single_particle(self):
        for N in range(1, 9):
            for q in ALL_Q:
                res = delta_exact_resummed(model(N, 1, q))
                assert res.Delta == 1
                assert res.J == 1

    def test_single_site_two_particles(self):
        # one configuration; Y_t is Poisson with rate u(2) = 1 + q
        for q in ALL_Q:
            res = delta_exact_resummed(model(1, 2, q))
            assert res.Delta == 1 + q
            assert res.S1 + res.S2 == F(-1, 2) / (1 + q)

    def test_two_particle_q0_closed_form(self):
        # Delta(N,2) at q=0 equals 4N(2N+1)/(3(N+1)^2)
        for N in range(1, 12):
            res = delta_exact_resummed(model(N, 2, F(0)))
            assert res.Delta == F(4 * N * (2 * N + 1), 3 * (N + 1) ** 2)

    @pytest.mark.parametrize("q", [F(1, 2), F(3), F(1)])
    def test_result_carries_partition_function(self, q):
        m = model(4, 3, q)
        Z = compute_stationary(m, 3).Zvals[3]
        assert delta_exact_resummed(m).Z == Z
        if q != 1:   # the reference i-sum is undefined at q = 1
            assert delta_truncated(m, 5).Z == Z

    def test_unity_degeneration(self):
        res = delta_exact_resummed(model(3, 4, F(1)))
        assert res.Delta == 4
        assert res.J == 4


class TestGeometricRatio:
    # every geometric factor of the resummation has ratio r = q for
    # |q| < 1 and r = 1/q for q > 1; q = 1 sums no geometric series
    @pytest.mark.parametrize("be", [RATIONAL, FloatBackend(256)])
    @pytest.mark.parametrize("q,r", [(F(1, 2), F(1, 2)), (F(-3, 4), F(-3, 4)),
                                     (F(0), F(0)), (F(3), F(1, 3)),
                                     (F(5, 2), F(2, 5)), (F(1), None)])
    def test_ratio_of_each_regime(self, monkeypatch, be, q, r):
        seen = []

        def recording(ratio, a):
            seen.append(ratio)
            return geometric_factor(ratio, a)

        monkeypatch.setattr(cumulants, "geometric_factor", recording)
        delta_exact_resummed(model(3, 2, q, be))
        # 1/3 and 2/5 are one correctly rounded division on the float backend
        assert seen == ([] if r is None else [be.ratio(r)] * 2)


class TestOracleEquivalence:
    @pytest.mark.parametrize("N,p", [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3),
                                     (3, 4)])
    @pytest.mark.parametrize("q", ALL_Q)
    def test_exact_match(self, N, p, q):
        m = model(N, p, q)
        res = delta_exact_resummed(m)
        orc = lambda_derivatives(m)
        assert res.J == orc.J
        assert res.Delta == orc.Delta


class TestBreakdown:
    def test_invariant(self):
        for N, p, q in ((3, 3, F(1, 2)), (2, 4, F(2)), (4, 2, F(-1, 2))):
            res = delta_exact_resummed(model(N, p, q))
            prefactor = F(2 * N ** 2) / res.Z ** 2
            assert res.Delta == res.pJ + prefactor * (res.S1 + res.S2)

    def test_positivity(self):
        for N, p in ((2, 2), (3, 3), (5, 2), (2, 5)):
            for q in ALL_Q:
                assert delta_exact_resummed(model(N, p, q)).Delta > 0

    def test_purity(self):
        # the same parameters through fresh model records: identical scalars
        a = delta_exact_resummed(model(4, 3, F(2)))
        b = delta_exact_resummed(model(4, 3, F(2)))
        assert a.Delta == b.Delta and a.S1 == b.S1 and a.S2 == b.S2


class TestTruncated:
    def test_equals_resummed_within_tail(self):
        for N, p, q in ((2, 2, F(1, 2)), (3, 2, F(-1, 2)), (2, 3, F(3))):
            m = model(N, p, q)
            res = delta_exact_resummed(m)
            for i_max in (5, 20, 60):
                tr = delta_truncated(m, i_max)
                assert abs(float(tr.Delta - res.Delta)) <= tr.tail_bound

    def test_long_truncation_high_accuracy(self):
        m = model(1, 2, F(1, 2))
        # true gap at i_max = 40 is 1.07e-12 (dominated by the r^i branch,
        # sum 4.5 * (1/6) * 2^-40), inside the reported bound
        tr = delta_truncated(m, 40)
        assert abs(float(tr.Delta) - 1.5) <= tr.tail_bound
        assert abs(float(delta_truncated(m, 48).Delta) - 1.5) < 1e-12

    def test_i_max_zero_drops_S2(self):
        m = model(2, 2, F(1, 2))
        tr = delta_truncated(m, 0)
        assert tr.S2 == 0
        assert tr.Delta == tr.pJ + tr.prefactor * tr.S1

    def test_exact_equality_at_200(self):
        # geometric tail below any fixed rational gap would still be nonzero,
        # so compare through the reported bound, exactly on rationals
        m = model(3, 2, F(1, 2))
        res = delta_exact_resummed(m)
        tr = delta_truncated(m, 200)
        assert abs(F(tr.Delta - res.Delta)) <= F(tr.tail_bound)


class TestFssEstimate:
    def test_exact_at_q0(self):
        # at q = 0 the estimate reproduces Delta exactly
        for N in (2, 4, 8):
            m = model(N, N, F(0))
            assert delta_fss(m) == delta_exact_resummed(m).Delta

    def test_single_particle_gap(self):
        # estimate = 2/(1+q) - 1; exact Delta = 1
        for N in (2, 4, 8):
            m = model(N, 1, F(1, 2))
            est = delta_fss(m)
            assert est == F(2) / (1 + F(1, 2)) - 1
            gap = N * abs(F(1) - est) / N ** 2
            assert gap <= F(1, N)

    def test_gap_shrinks_at_unit_density(self):
        gaps = []
        for N in (4, 8, 16):
            m = model(N, N, F(1, 2))
            d = delta_exact_resummed(m).Delta
            est = delta_fss(m)
            gaps.append(float(N * abs(d - est) / N ** 2))
        assert gaps[2] < gaps[1] < gaps[0]


class TestFloatBackend:
    def test_matches_rational(self):
        be = FloatBackend(192)
        for (N, p, qnum, qden) in ((3, 3, 1, 2), (2, 3, 5, 2), (4, 2, -1, 2)):
            mf = model(N, p, F(qnum, qden), be)
            mr = model(N, p, F(qnum, qden))
            df = delta_exact_resummed(mf)
            dr = delta_exact_resummed(mr)
            exact = be.ratio(dr.Delta.numerator, dr.Delta.denominator)
            assert abs(df.Delta - exact) < abs(exact) * be.integer(2) ** -150

    def test_fraction_q_is_rounded_into_the_backend(self):
        be = FloatBackend()
        got = delta_exact_resummed(model(4, 3, F(1, 3), be))
        want = delta_exact_resummed(model(4, 3, be.ratio(1, 3), be))
        assert got.Delta == want.Delta

    def test_a0_guard_fires_on_garbage_precision(self, monkeypatch):
        # the guard compares |A_0| against its shadow; a phi series read
        # from an inconsistent J must trip it
        be = FloatBackend(64)
        m = model(3, 3, F(1, 2), be)

        def bad_phi(params, J, degree):
            return phi_coefficients(params, J * (1 + be.ratio(1, 1000)),
                                    degree)

        monkeypatch.setattr(cumulants, "phi_coefficients", bad_phi)
        with pytest.raises(PrecisionError, match="A_0"):
            delta_exact_resummed(m)


    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2)])
    def test_a0_bound_sees_a_perturbed_partition_function(self, q,
                                                          monkeypatch):
        # Z(N, p-3) moved by 2^-150 relative: at 256 bits A_0 then exceeds
        # its rounding bound, 2^-243 (q = 1/2) or 2^-239 (q = 3/2) of its
        # shadow, though 2^-128 would pass it
        be = FloatBackend(256)
        compute = cumulants.compute_stationary

        def perturbed(params, degree):
            stat = compute(params, degree)
            Z = list(stat.Zvals)
            Z[params.p - 3] *= 1 + be.integer(2) ** -150
            return StationaryData(Zvals=tuple(Z), J=stat.J)

        monkeypatch.setattr(cumulants, "compute_stationary", perturbed)
        with pytest.raises(PrecisionError, match="A_0"):
            delta_exact_resummed(model(64, 64, q, be))


def _rationals_in(lo, hi):
    return st.fractions(min_value=lo, max_value=hi,
                        max_denominator=50).filter(lambda q: lo < q < hi)


# q in (-1, 0), (0, 1), (1, 3) and within 1/100 of 1 on both sides
Q_REGIMES = st.one_of(
    _rationals_in(F(-1), F(0)), _rationals_in(F(0), F(1)),
    _rationals_in(F(1), F(3)),
    st.builds(lambda sign, d: 1 + sign * F(1, d), st.sampled_from((-1, 1)),
              st.integers(101, 10_000)))



# (N, p, q) with q in (-1, 0), in [0, 1) and in (1, 4), and p > N in
# about half the examples
LINEAR_CASES = st.tuples(
    st.integers(1, 6), st.integers(1, 12),
    st.one_of(_rationals_in(F(-1), F(0)),
              _rationals_in(F(0), F(1)) | st.just(F(0)),
              _rationals_in(F(1), F(4))))


@settings(max_examples=80, deadline=None)
@given(LINEAR_CASES)
@example((2, 7, F(-3, 7))).via("p > N at q < 0")
@example((3, 5, F(3, 2))).via("p > N at q > 1")
def test_linear_resummation_equals_dot_sums(case):
    # the O(p) identities of cumulants give the O(p^2) sums exactly
    res = delta_exact_resummed(model(*case))
    assert (res.S1, res.S2, res.Delta) == delta_dot_resummation(model(*case))

# exact references rounded to 1024 bits, far past any P-bit error tested
REFERENCE = FloatBackend(1024)


def _fraction(x) -> F:
    """An mpf as the Fraction it represents, with no rounding."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * F(2) ** exp


def _float_and_exact(N, p, q):
    """At the precision P that exact's float run accepts: (value, error
    bound, exact value) by key for each value exact prints, and as a list
    for each Z(N, k), k < 2p, whose bound is twice partition_error's, as
    gamma's is."""
    make = partial(model, N, p, q)
    be, values = escalate_precision(lambda be: _certified(make(be)),
                                    FloatBackend())
    m = make(be)
    got, errors = _series(m)
    assert got == values
    _, exact = escalate_precision(lambda be: _certified(make(be)),
                                  RATIONAL)
    unit = 2 * be.integer(2) ** -be.prec_bits
    power = [(z, unit * sum(partition_error(m, k)) * z, ref)
             for k, (z, ref) in enumerate(zip(
                 compute_stationary(m, 2 * p - 1).Zvals,
                 compute_stationary(make(RATIONAL), 2 * p - 1).Zvals))]
    return {key: (values[key], errors[key], exact[key])
            for key in values}, power


def _near_unit(d):
    """1 - 1/d, 1 + 1/d and -1 + 1/d: within 2^-20 of 1 or -1 for
    d >= 2^20."""
    return st.sampled_from((1 - F(1, d), 1 + F(1, d), F(1, d) - 1))


# (N, p, q): q in (-1, 0), in [0, 1), in (1, 3) with N <= 4, where F^N and
# Delta cancel most, and within 2^-20 of 1 or -1, where 1 - |q| amplifies
# q's rounding.  Near 1 the shadows of S1 and S2 grow like 1/(1 - q) too;
# near -1 Z(N, k) itself grows like (1 + q)^(-k/2), and only the bound's
# input term covers it.  N <= 16 and p <= 12 bound an example's cost
BOUND_CASES = st.one_of(
    st.tuples(st.integers(1, 16), st.integers(1, 12),
              _rationals_in(F(-1), F(0))),
    st.tuples(st.integers(1, 16), st.integers(1, 12),
              _rationals_in(F(0), F(1)) | st.just(F(0))),
    st.tuples(st.integers(1, 4), st.integers(1, 12),
              _rationals_in(F(1), F(3))),
    st.tuples(st.integers(1, 16), st.integers(1, 12),
              st.integers(2 ** 20, 2 ** 24).flatmap(_near_unit)))


@settings(max_examples=60, deadline=None)
@given(BOUND_CASES)
def test_float_series_equals_rational(case):
    # each value's error bound, formed in its one P-bit run, is at least
    # its true error against the exact value at the unrounded q
    printed, power = _float_and_exact(*case)
    for x, bound, ref in [*printed.values(), *power]:
        assert abs(_fraction(x) - ref) <= _fraction(bound), case


def exact_shadows(params) -> dict:
    """The absolute-value shadow of each value of delta_exact_resummed,
    exactly: ``cumulants._sums`` on absolute inputs, |c|, s = 1, |g|, phi
    with (J/p) d_1 + 1 at b = 0 and sign +1, for S1 and S2, and Z, J and
    pJ themselves.  Rational backend, q != 1 and p >= 2."""
    p, N, q = params.p, params.N, params.q
    stat = compute_stationary(params, 2 * p - 1)
    Z, J = stat.Zvals, stat.J
    phi = phi_coefficients(params, J, p - 1).coeffs
    r, c = (1 / q, 1 / q - 1) if q > 1 else (q, 1 - q)
    g = [abs(geometric_factor(r, a)) for a in range(1, p + 1)]
    phi_abs = [abs(phi[0] + 1) + 1, *map(abs, phi[1:])]
    _, S1, S2 = cumulants._sums(params, Z, J / p, phi_abs, abs(c), 1, g, 1)
    return dict(Delta=p * J + 2 * N ** 2 / Z[p] ** 2 * (S1 + S2), J=J,
                Z=Z[p], pJ=p * J, S1=S1, S2=S2)


@settings(max_examples=60, deadline=None)
@given(BOUND_CASES.filter(lambda case: case[1] >= 2))
def test_float_shadows_are_the_exact_shadows(case):
    # each float bound is gamma times a shadow formed in the P-bit run,
    # which is the exact shadow at the unrounded q to within 2^-200: the
    # roundings, q's included, move it far less
    make = partial(model, *case)
    be, res = escalate_precision(lambda be: delta_exact_resummed(make(be)),
                                 FloatBackend())
    want, gamma = exact_shadows(make()), error_unit(make(be))
    for key, ref in want.items():
        got = _fraction(res.errors[key] / gamma)
        assert abs(got - ref) <= ref * F(2) ** -200, (case, key)


def test_power_loses_bits_above_one():
    # F^N from the q-difference identity, and J from it, keep their bits
    # for q > 1 at small N.  Delta, S1 and S2 cancel about 100 bits more
    # in pJ + 2 N^2/Z^2 (S1 + S2) itself; their bounds certify them
    # (test_float_series_equals_rational)
    printed, power = _float_and_exact(1, 12, F(149, 50))
    for x, _, ref in [printed["J"], *power]:
        ref = REFERENCE.ratio(ref)
        assert abs(ref - x) <= abs(ref) * REFERENCE.integer(2) ** -200
