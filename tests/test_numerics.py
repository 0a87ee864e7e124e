import math
from fractions import Fraction as F
from math import comb

import mpmath
import pytest
from mpmath.libmp import from_man_exp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson.numerics import (DEFAULT_VERIFY_RTOL, FloatBackend, FloatVector,
                             InputError, PrecisionError, RATIONAL,
                             TruncSeries, certify, escalate_precision,
                             geometric_factor, negligible, poly_mul)
from qboson.stationary import (compute_stationary, model,
                               partition_error)

from test_cumulants import Q_REGIMES, _rationals_in
from test_stationary import one_site_weights


def S(*coeffs):
    return TruncSeries([F(c) for c in coeffs])


def miller_power(a, n, backend=RATIONAL) -> list:
    """a^n truncated at the degree of the coefficient list a, for n >= 1
    and a_0 != 0, by J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2
    §4.7): a g' = n a' g, read at z^(k-1), is

        k a_0 g_k = sum_{j=1..k} ((n+1) j - k) a_j g_(k-j),  g_0 = a_0^n.

    The reference power of the weight series: it reads the weights f(m),
    where compute_stationary reads the closed-form d_m.
    """
    a0 = a[0]
    av = backend.vector(a)
    g = [a0 ** n]
    gv = backend.vector(g)
    for k in range(1, len(a)):
        # the integer weights (n+1) j - k for j = 1..k
        weights = range(n + 1 - k, n * k + 1, n + 1)
        g.append(backend.dot(av[1:k + 1], gv[k - 1::-1], weights)
                 / (k * a0))
        gv.append(g[-1])
    return g


class TestSeriesMul:
    def test_telescoping(self):
        geom = [F(1)] * 6
        assert poly_mul(geom, [F(1), F(-1)], RATIONAL) == [1] + [0] * 5 + [-1]

    def test_difference_of_squares(self):
        assert poly_mul([F(1), F(1)], [F(1), F(-1)], RATIONAL) == [1, 0, -1]

    def test_identity(self):
        a = [F(2), F(-3), F(5)]
        assert poly_mul(a, [F(1)], RATIONAL) == a
        assert poly_mul([F(1)], a, RATIONAL) == a


def dense_mul(a, b, backend):
    """poly_mul as the dense Cauchy loop: both factors zero-padded to the
    product's length, one dot per coefficient over every index, zeros
    included.  poly_mul must equal it exactly on Fractions and bit for bit
    on floats."""
    n = len(a) + len(b) - 1
    zero = backend.integer(0)
    av = backend.vector(list(a) + [zero] * (n - len(a)))
    bv = backend.vector(list(b) + [zero] * (n - len(b)))
    return [backend.dot(av[:k + 1], bv[k::-1]) for k in range(n)]


@st.composite
def sparse_factors(draw, entries, zero):
    """Two coefficient lists, each of its own degree D <= 10.  Each is all
    zero, a monomial, or a run of entries (zeros among them) that starts
    and ends nonzero, between runs of leading and trailing zeros."""
    factors = []
    for _ in range(2):
        D = draw(st.integers(0, 10))
        coeffs = [zero] * (D + 1)
        shape = draw(st.sampled_from(("zero", "monomial", "run")))
        if shape != "zero":
            lo = draw(st.integers(0, D))
            hi = lo if shape == "monomial" else draw(st.integers(lo, D))
            for k in range(lo, hi + 1):
                if k in (lo, hi) or draw(st.booleans()):
                    coeffs[k] = draw(entries)
        factors.append(coeffs)
    return factors


NONZERO_FRACTIONS = st.fractions(min_value=-50, max_value=50,
                                 max_denominator=30).filter(bool)
# poly_mul scales each rational factor by the lcm of its denominators: mix
# small denominators with ones up to 2^64, some sharing factors (2^32 and
# 2^64, 6^24 and 3^40) and some coprime to all others (the primes 2^61 - 1
# and 2^64 - 59), and plain ints
NONZERO_RATIONALS = st.one_of(
    NONZERO_FRACTIONS,
    st.builds(F, st.integers(-2 ** 70, 2 ** 70).filter(bool),
              st.sampled_from((2 ** 32, 2 ** 64, 6 ** 24, 3 ** 40,
                               2 ** 61 - 1, 2 ** 64 - 59))),
    st.integers(-50, 50).filter(bool))
# mantissas of 1-3 bits, which cancel exactly, and of up to 300 bits
NONZERO_MPF = st.builds(
    lambda man, exp: mpmath.mp.make_mpf(from_man_exp(man, exp)),
    st.one_of(st.integers(-7, 7), st.integers(-2 ** 300, 2 ** 300))
    .filter(bool), st.integers(-400, 400))


class TestSpanBoundedMul:
    """poly_mul dots coefficient k over the span of indices i where a_i
    and b_(k-i) both exist, and only there."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_factors(NONZERO_RATIONALS, F(0)))
    @example([[F(3)], [F(-2)]])                    # degree 0
    @example([[F(0)] * 3, [F(1), F(2), F(3)]])     # an all-zero factor
    @example([[F(0), F(0), F(5)], [F(7)]])         # a monomial times a constant
    # shared and coprime denominators in one factor, ints in the other
    @example([[F(1, 2 ** 64), F(3, 2 ** 61 - 1), F(-5, 6 ** 24),
               F(7, 3 ** 40)], [2, F(0), -3]])
    def test_rational_equals_dense_loop(self, factors):
        a, b = factors
        assert poly_mul(a, b, RATIONAL) == dense_mul(a, b, RATIONAL)

    @settings(max_examples=150, deadline=None)
    @given(sparse_factors(NONZERO_MPF, mpmath.mpf(0)),
           st.sampled_from((53, 256)))
    def test_float_bits_equal_dense_loop(self, factors, prec):
        be = FloatBackend(prec)
        a, b = factors
        got = [c._mpf_ for c in poly_mul(a, b, be)]
        assert got == [c._mpf_ for c in dense_mul(a, b, be)]


class TestSeriesPow:
    """The reference power miller_power."""

    def test_square(self):
        assert miller_power([F(1), F(1), F(0)], 2) == [1, 2, 1]

    def test_power_one(self):
        a = [F(1), F(4), F(9)]
        assert miller_power(a, 1) == a

    def test_stars_and_bars(self):
        # q = 0 weights: F = 1/(1-z); [z^p] F^N = C(N+p-1, p)
        N, D = 7, 6
        FN = miller_power([F(1)] * (D + 1), N)
        assert FN == [comb(N + p - 1, p) for p in range(D + 1)]


class TestSeriesCoeffScale:
    def test_coeff(self):
        assert S(1, 3).coeff(1) == 3

    def test_coeff_out_of_range(self):
        with pytest.raises(InputError):
            S(1, 3).coeff(2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6),
       st.lists(st.integers(-6, 6), min_size=1, max_size=6),
       st.lists(st.integers(-6, 6), min_size=1, max_size=6),
       st.integers(0, 5))
def test_mul_commutative_associative(a, b, c, D):
    a, b, c = ([F(x) for x in v] for v in (a, b, c))
    mul = lambda x, y: poly_mul(x, y, RATIONAL)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    # coefficients 0..D of a product read only coefficients 0..D of each
    # factor, so truncating by slicing commutes with the product
    assert mul(mul(a, b)[:D + 1], c)[:D + 1] == mul(a, mul(b, c))[:D + 1]
    assert mul(a[:D + 1], b[:D + 1])[:D + 1] == mul(a, b)[:D + 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4).filter(bool),
       st.lists(st.integers(-4, 4), max_size=4), st.integers(1, 24))
@example(1, [0, 1, -2, 3], 3)    # inner zeros
@example(-2, [], 5)              # degree 0
def test_pow_is_iterated_mul(a0, rest, n):
    a = [F(a0)] + [F(x) for x in rest]
    expected = a
    for _ in range(n - 1):
        expected = poly_mul(expected, a, RATIONAL)[:len(a)]
    assert miller_power(a, n) == expected


class TestGeometricFactor:
    @pytest.mark.parametrize("r,a,expected", [
        (F(1, 2), 1, F(1)),
        (F(1, 2), 2, F(1, 3)),
        (F(-1, 2), 1, F(-1, 3)),
    ])
    def test_values(self, r, a, expected):
        assert geometric_factor(r, a) == expected

    def test_rejects_a_zero(self):
        with pytest.raises(InputError):
            geometric_factor(F(1, 2), 0)

    def test_rejects_large_r(self):
        with pytest.raises(InputError):
            geometric_factor(F(3, 2), 1)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=F(-9, 10), max_value=F(9, 10)),
           st.integers(1, 5), st.integers(1, 30))
    def test_matches_partial_sums(self, r, a, M):
        if r == 0:
            assert geometric_factor(r, a) == 0
            return
        partial = sum(r ** (i * a) for i in range(1, M + 1))
        tail = abs(r) ** ((M + 1) * a) / (1 - abs(r) ** a)
        assert abs(geometric_factor(r, a) - partial) <= tail


class TestFloatBackend:
    def test_ratio_precision(self):
        be = FloatBackend(256)
        x = be.ratio(1, 3)
        err = abs(x * 3 - 1)
        assert err < be.integer(2) ** -250

    def test_ratio_rounds_every_input_to_nearest(self):
        be = FloatBackend(256)
        third = be.ratio(1, 3)
        assert be.ratio(F(1, 3)) == third
        assert be.ratio(FloatBackend(1024).ratio(1, 3)) == third
        assert be.ratio(0.5) == be.ratio(1, 2)
        assert model(1, 1, F(1, 3), be).q == third

    def test_scalars_ignore_global_precision(self):
        # every operation on a backend scalar rounds at the backend's
        # precision, whatever mpmath's global one is
        be = FloatBackend(256)
        with mpmath.workprec(20):
            third = be.ratio(1, 3)
            err = abs(third * 3 - 1)
            root = be.ctx.sqrt(be.integer(2))
        assert third == FloatBackend(256).ratio(1, 3)
        assert err < be.integer(2) ** -250
        assert abs(root * root - 2) < be.integer(2) ** -250

    def test_rejects_tiny_precision(self):
        with pytest.raises(InputError):
            FloatBackend(16)

    def test_certify_accepts(self):
        be = FloatBackend(64)
        values = {"x": be.ratio(1, 3), "y": be.ratio(-7, 2)}
        errors = {key: abs(x) * be.ratio(DEFAULT_VERIFY_RTOL)
                  for key, x in values.items()}
        assert certify(values, errors, be) is values

    def test_certify_rejects(self):
        be = FloatBackend(64)
        x = be.ratio(1, 3)
        with pytest.raises(PrecisionError, match="'x'.* at 64 bits"):
            certify({"x": x}, {"x": 2 * x * DEFAULT_VERIFY_RTOL}, be)


class TestEscalatePrecision:
    def test_doubles_until_compute_passes(self):
        tried = []

        def compute(b):
            tried.append(b.prec_bits)
            if b.prec_bits < 1024:
                raise PrecisionError("short")
            return "done"

        backend, out = escalate_precision(compute, FloatBackend())
        assert (backend.prec_bits, out) == (1024, "done")
        assert tried == [256, 512, 1024]

    def test_raises_at_the_cap_naming_it(self):
        tried = []

        def compute(b):
            tried.append(b.prec_bits)
            raise PrecisionError(f"short at {b.prec_bits} bits")

        with pytest.raises(PrecisionError, match="up to 4096 bits passed: "
                                                 "short at 4096 bits"):
            escalate_precision(compute, FloatBackend())
        assert tried == [256, 512, 1024, 2048, 4096]

    def test_rational_runs_once(self):
        tried = []

        def compute(b):
            tried.append(b)
            return "done"

        assert escalate_precision(compute, RATIONAL) == (RATIONAL, "done")
        assert tried == [RATIONAL]


def exact(x) -> F:
    """An int or mpf as the Fraction it represents, with no rounding."""
    if type(x) is int:
        return F(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * F(2) ** exp


# mpf entries with up to 600-bit mantissas and exponents spread over 3000
# bits, far wider than any precision drawn, and ints
FLOAT_ENTRIES = st.one_of(
    st.builds(lambda man, exp: mpmath.mp.make_mpf(from_man_exp(man, exp)),
              st.integers(-2 ** 600, 2 ** 600), st.integers(-1500, 1500)),
    st.integers(-10 ** 6, 10 ** 6),
    st.just(0), st.just(mpmath.mpf(0)))


@st.composite
def dot_vectors(draw):
    width = draw(st.integers(1, 3))
    length = draw(st.integers(0, 12))
    return [draw(st.lists(FLOAT_ENTRIES, min_size=length, max_size=length))
            for _ in range(width)]


def per_entry_dot(backend, *vectors):
    """FloatBackend.dot as one loop over the entries, decoding every _mpf_
    in every call: the reference that the decoded kernel must match bit
    for bit."""
    mans, exps = [], []
    for entries in zip(*vectors):
        man, exp = 1, 0
        for x in entries:
            if type(x) is int:
                man *= x
                continue
            sign, m, e, bc = x._mpf_
            assert bc >= 0
            man *= -m if sign else m
            exp += e
        if man:
            mans.append(man)
            exps.append(exp)
    if not mans:
        return backend.ctx.zero
    top = max([m.bit_length() + e for m, e in zip(mans, exps)])
    floor = top - backend.prec_bits - 32 - len(mans).bit_length()
    total = sum([m << (e - floor) if e >= floor else m >> (floor - e)
                 for m, e in zip(mans, exps)])
    return backend.ctx.make_mpf(
        from_man_exp(total, floor, backend.prec_bits, "n"))


# the ways a vector reaches FloatBackend.dot
FORMS = ("list", "vector", "reversed", "strided", "appended")


def as_form(entries, form):
    """entries as the given form: a plain list, a FloatVector, a reversed
    or strided slice of one, or one built by append."""
    if form == "list":
        return list(entries)
    if form == "vector":
        return FloatVector(entries)
    if form == "reversed":
        return FloatVector(entries[::-1])[::-1]
    if form == "strided":
        # every other entry is a stray one that the slice must skip
        return FloatVector([y for x in entries for y in (x, 7)])[::2]
    v = FloatVector()
    for x in entries:
        v.append(x)
    return v


@st.composite
def kernel_cases(draw):
    """Vectors of mpf and ints (zeros, both signs, mantissas of 1-4 bits
    and of up to 600, exponents spread over 3000 bits), the form of each,
    and optionally (start, step) of range weights."""
    width = draw(st.integers(1, 3))
    length = draw(st.integers(0, 12))
    entries = st.one_of(FLOAT_ENTRIES, st.builds(
        lambda man, exp: mpmath.mp.make_mpf(from_man_exp(man, exp)),
        st.integers(-15, 15), st.integers(-1500, 1500)))
    vectors = [draw(st.lists(entries, min_size=length, max_size=length))
               for _ in range(width)]
    forms = draw(st.lists(st.sampled_from(FORMS), min_size=width,
                          max_size=width))
    weights = draw(st.none() | st.tuples(st.integers(-20, 20),
                                         st.integers(-9, 9).filter(bool)))
    return vectors, weights, forms


class TestFloatDot:
    @settings(max_examples=80, deadline=None)
    @given(dot_vectors(), st.sampled_from((53, 256, 512)))
    def test_one_rounding_bound(self, vectors, prec):
        got = FloatBackend(prec).dot(*vectors)
        terms = [math.prod(map(exact, entries)) for entries in zip(*vectors)]
        want = sum(terms, F(0))
        bound = sum(map(abs, terms), F(0)) / F(2) ** (prec - 1)
        assert abs(exact(got) - want) <= bound
        assert got._mpf_[3] <= prec

    def test_zero_and_empty_vectors(self):
        be = FloatBackend(256)
        zeros = [mpmath.mpf(0), mpmath.mpf(0), 0]
        assert be.dot(zeros, [mpmath.mpf(3), 5, mpmath.mpf(-7)]) == 0
        assert be.dot([], []) == 0
        assert be.dot([]) == 0

    @pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
    def test_nonfinite_entry_raises(self, bad):
        with pytest.raises(PrecisionError):
            FloatBackend(256).dot([mpmath.mpf(1), bad], [2, 0])

    @pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
    def test_nonfinite_append_raises(self, bad):
        v = FloatVector([mpmath.mpf(1)])
        with pytest.raises(PrecisionError):
            v.append(bad)

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.sampled_from((53, 256, 512)))
    @example(([[mpmath.mpf(2) ** 1000, mpmath.mpf(1) / 3]], None,
              ("list",)), 53)   # the top product lies above the floor
    @example(([[mpmath.mpf(0), 5], [mpmath.mpf(2) ** 900, mpmath.mpf(-3)]],
              (0, 1), ("vector", "reversed")), 256)  # a zero product
    # 1 + 2^-53 + 2^-86 lies above the 53-bit tie by less than the floor
    # keeps; counting the zero product would keep one bit more, round up
    @example(([[mpmath.mp.make_mpf(from_man_exp(2 ** 86 + 2 ** 33 + 1, -86)),
                mpmath.mpf(1)], [1, 0]], None, ("list", "vector")), 53)
    def test_kernel_matches_per_entry_loop(self, case, prec):
        vectors, weights, forms = case
        be = FloatBackend(prec)
        args = [as_form(v, form) for v, form in zip(vectors, forms)]
        if weights is not None:
            start, step = weights
            length = len(vectors[0])
            weights = range(start, start + step * length, step)
            args.append(weights)
            vectors = vectors + [weights]
        got = be.dot(*args)
        assert got._mpf_ == per_entry_dot(be, *vectors)._mpf_

    def test_ignores_global_precision(self):
        be = FloatBackend(256)
        with mpmath.workprec(600):
            a = [mpmath.mpf(1) / k for k in range(1, 30)]
            b = [mpmath.mpf(-1) ** k / (k + 1) for k in range(29)]
        with mpmath.workprec(53):
            low = be.dot(a, b, range(29))
        with mpmath.workprec(1024):
            high = be.dot(a, b, range(29))
        assert low._mpf_ == high._mpf_
        assert low._mpf_[3] > 53


def test_rational_dot_is_the_written_out_sum():
    a = [F(1, 3), F(-2, 5), F(7)]
    b = [F(3, 2), 4, F(-1, 9)]
    assert RATIONAL.dot(a, b, [1, 2, 3]) == F(1, 2) - F(16, 5) - F(7, 3)
    assert RATIONAL.dot([], []) == 0


class TestNegligible:
    def test_rational_means_exactly_zero(self):
        # the bound is not read on the rational backend
        assert negligible("x", F(0), None, RATIONAL)
        assert not negligible("x", F(1, 10 ** 100), F(10 ** 100), RATIONAL)

    def test_float_tolerance_scales_with_terms(self):
        # the tolerance is the caller's bound, a unit times the scale of the
        # terms: |x| up to it passes and the next float above fails, and
        # 2^-33 of the scale, inside half the mantissa, fails 2^-56 of it
        be = FloatBackend(64)
        big = be.integer(2) ** 100
        bound = big * be.integer(2) ** -56
        assert negligible("x", bound, bound, be)
        assert negligible("x", -bound, bound, be)
        with pytest.raises(PrecisionError,
                           match="x = .* exceeds its rounding bound .* at 64"):
            negligible("x", bound * (1 + be.integer(2) ** -63), bound, be)
        with pytest.raises(PrecisionError):
            negligible("x", big * be.integer(2) ** -33, bound, be)
        with pytest.raises(PrecisionError):
            negligible("x", big * be.integer(2) ** -200, be.integer(0), be)


class TestCertify:
    def test_tiny_values_compared_relatively(self):
        # near 1e-20, a bound in the 13th digit passes and one in the 12th
        # does not
        be = FloatBackend(128)
        x = be.ratio(F("1e-20"))
        certify({"x": x}, {"x": x * be.ratio(F("1e-13"))}, be)
        with pytest.raises(PrecisionError):
            certify({"x": x}, {"x": x * be.ratio(F("1e-11"))}, be)

    def test_zero_with_zero_bound_passes(self):
        be = FloatBackend(64)
        certify({"x": be.integer(0)}, {"x": be.integer(0)}, be)

    def test_zero_with_nonzero_bound_fails(self):
        be = FloatBackend(64)
        with pytest.raises(PrecisionError, match="'x'"):
            certify({"x": be.integer(0)}, {"x": be.ratio(F("1e-300"))}, be)

    @pytest.mark.parametrize("exp", [-300, -20, 0, 20, 300])
    def test_rejects_bound_past_rtol_at_any_magnitude(self, exp):
        be = FloatBackend(128)
        x = be.ratio(F(10) ** exp) / 3
        rtol = be.ratio(DEFAULT_VERIFY_RTOL)
        certify({"x": x}, {"x": x * rtol * (1 - be.ratio(1, 10 ** 6))}, be)
        with pytest.raises(PrecisionError):
            certify({"x": x}, {"x": x * rtol * (1 + be.ratio(1, 10 ** 6))},
                    be)


def test_float_series_roundtrip_matches_rational():
    # F^N at 128 bits for a small system, and at N = p = 64 and 256 bits,
    # where the recurrence sums terms of both signs for q > 1
    for (N, p), prec, rtol in (((5, 3), 128, 1e-30), ((64, 64), 256, 1e-60)):
        be = FloatBackend(prec)
        for q in (F(1, 2), F(-1, 2), F(3, 2)):
            want = compute_stationary(model(N, p, q), p).Zvals
            got = compute_stationary(model(N, p, q, be), p).Zvals
            for k in range(p + 1):
                ref = be.ratio(want[k])
                assert abs(got[k] - ref) <= rtol * ref


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 12), st.integers(0, 12),
       st.one_of(Q_REGIMES, st.just(F(0)), st.just(F(1))))
def test_power_equals_miller_power_of_weights(N, p, extra, q):
    # F^N from the closed-form d_m equals Miller's power of the weights
    # f(m) = 1/(u(1)...u(m)) exactly: the property that keeps the series
    # route tied to the rates.  Degree <= 24 bounds an example's cost.
    degree = min(p + extra, 24)
    m = model(N, p, q)
    want = miller_power(one_site_weights(m, degree), N)
    assert list(compute_stationary(m, degree).Zvals) == want


# references at 1024 bits, by Miller's power of the one-site weights, lie far
# inside the 8 (k + 1) 2^-P bounds tested at P <= 256
FINE = FloatBackend(1024)


def worst_error_ratio(N, p, q, prec):
    """The largest |Z - Z_ref| / (Z_ref (k + 1) 2^-prec) over the prec-bit
    Z(N, k), k < 2p; Z_ref is at the same, rounded q."""
    m = model(N, p, q, FloatBackend(prec))
    Z = compute_stationary(m, 2 * p - 1).Zvals
    fine = model(N, p, m.q, FINE)
    ref = miller_power(one_site_weights(fine, 2 * p - 1), N, FINE)
    return max(abs(FINE.ratio(z) - r) / (r * (k + 1))
               for k, (z, r) in enumerate(zip(Z, ref))) * 2 ** prec


# log_derivative_coefficients derives |Z - Z_ref| <= 8 (k + 1) 2^-P Z_ref
# for -1 < q < 1
ERROR_CONSTANT = 8


@pytest.mark.parametrize("N,p,q", [
    (64, 64, F(1, 2)), (64, 64, F(-1, 2)), (32, 32, F(-9, 10)),
    (16, 16, F(-99, 100)), (24, 24, F(1, 3)), (8, 30, F(-3, 4)),
    # 1 - q^2 = 1.9999e-4: 1 - q^m from the running product q^m read 720
    (8, 20, F(-9999, 10000))])
def test_float_power_error_bound(N, p, q):
    assert worst_error_ratio(N, p, q, 256) <= ERROR_CONSTANT


# q in (-1, 1), within 1/100 of -1 and of 1 too, and q = 0
Q_BELOW_ONE = st.one_of(
    _rationals_in(F(-1), F(1)), st.just(F(0)),
    st.builds(lambda sign, d: sign * (1 - F(1, d)), st.sampled_from((-1, 1)),
              st.integers(101, 10_000)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 12), Q_BELOW_ONE,
       st.sampled_from((53, 256)))
def test_float_power_error_bound_on_random_systems(N, p, q, prec):
    # degree 2p - 1 <= 23 bounds an example's cost
    assert worst_error_ratio(N, p, q, prec) <= ERROR_CONSTANT


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(1, 12), _rationals_in(F(1), F(4)),
       st.sampled_from((53, 256)))
def test_float_power_error_bound_above_one(N, p, q, prec):
    # for q > 1, F^N from the q-difference identity is within
    # (k^2 + 4k) 2^-P of F^N at the same, rounded q, computed exactly;
    # degree 2p - 1 <= 23 bounds an example's cost
    m = model(N, p, q, FloatBackend(prec))
    got = compute_stationary(m, 2 * p - 1).Zvals
    want = compute_stationary(model(N, p, exact(m.q)), 2 * p - 1).Zvals
    for k, (z, ref) in enumerate(zip(got, want)):
        rounding, _ = partition_error(m, k)
        assert abs(exact(z) - ref) <= rounding * ref / F(2) ** prec


@pytest.mark.parametrize("q", [F(1, 2), F(-1, 2), F(3, 2), F(99, 100)])
@pytest.mark.parametrize("N,p", [(1, 3), (5, 4), (12, 9), (32, 28)])
def test_power_satisfies_q_difference_identity(q, N, p):
    # F(qz) = (1 - (1-q) z) F(z), so G = F^N has G(qz) = (1 - (1-q) z)^N G(z);
    # the binomial side is built without the series power under test
    G = compute_stationary(model(N, p, q), 2 * p).Zvals
    binom = [comb(N, k) * (q - 1) ** k for k in range(len(G))]
    assert [g * q ** k for k, g in enumerate(G)] == \
        poly_mul(binom, G, RATIONAL)[:len(G)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10), Q_BELOW_ONE)
def test_power_coefficients_satisfy_q_difference_recurrence(N, p, q):
    # coefficient k of G(qz) = (1 + (q-1) z)^N G(z) reads
    # g_k (q^k - 1) = sum_{j=1..min(N,k)} C(N, j) (q-1)^j g_{k-j}; for
    # -1 < q < 1 F^N is built from z (ln F)', so this is a second route.
    # For q > 1 F^N is built from this identity, which would then be
    # tested against itself
    g = compute_stationary(model(N, p, q), 2 * p).Zvals
    assert g[0] == 1
    for k in range(1, len(g)):
        assert g[k] * (q ** k - 1) == sum(
            comb(N, j) * (q - 1) ** j * g[k - j]
            for j in range(1, min(N, k) + 1))
