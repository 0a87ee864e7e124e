"""Scalar backends, truncated power series and polynomial products.

Every coefficient extraction in this package is a read from a truncated
formal power series; there are no numerical contour integrals anywhere.
Two interchangeable scalar backends are provided:

* rational -- ``fractions.Fraction``; arithmetic is exact and equality is
  decidable.  Default for small and moderate systems.
* float    -- ``mpmath.mpf`` at a mantissa precision of P bits.  Used for
  large-N scaling sweeps.  Each scalar belongs to an mpmath context of its
  backend's precision and rounds every operation to P bits, whatever
  mpmath's global precision is; nothing opens a precision scope.  A result
  computed on this backend carries a first-order bound on its error,
  formed in the same P-bit run (a running error bound, Higham, *Accuracy
  and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, §3.3), and
  is accepted only when the bound is at most ``DEFAULT_VERIFY_RTOL``
  relative for every value (see ``certify``).  P is not an input: it
  starts at 256 bits and doubles until the computation passes, up to
  ``MAX_PREC_BITS`` (see ``escalate_precision``).  A sum whose terms
  cancel identically, such as the series' A_0 or an identity of the
  first-order functional-equation check, counts as zero when it lies
  within a rounding bound that its caller derives (``negligible``); a
  larger one fails that precision the same way.

``TruncSeries`` holds the phi series; the oracle and the Monte Carlo form
the weights f(m) of F from their own rates.  ``poly_mul`` is the full
product of two coefficient lists, which the first-order
functional-equation check multiplies at their own degrees; on the
rational backend it is an integer convolution over one denominator per
factor.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import mpmath


class InputError(ValueError):
    """Invalid model parameters or malformed request (CLI exit code 2)."""


class PrecisionError(ArithmeticError):
    """Float-backend result whose error bound is too wide, or a cancelling
    identity beyond its derived rounding bound (exit code 3)."""


class SolverError(RuntimeError):
    """A solver failed to converge, or an identity that holds by
    construction failed on the rational backend (exit code 4)."""


DEFAULT_PREC_BITS = 256
DEFAULT_VERIFY_RTOL = 1e-12
# the precision escalate_precision gives up at: twice the least that
# passes `exact --n 1 --p 40 --q 3` (2048 bits; Delta = pJ + 2 N^2/Z^2
# (S1 + S2) cancels 1233 bits there).  A request failing at every level
# runs once at each precision: 10.8 s at N = p = 256 on a 2-CPU host,
# 7.3 s of it at 4096 bits
MAX_PREC_BITS = 4096


# ---------------------------------------------------------------------------
# Scalar backends
# ---------------------------------------------------------------------------

class RationalBackend:
    """Exact scalars: arbitrary-size ``fractions.Fraction``."""

    exact = True

    def ratio(self, num, den=1) -> Fraction:
        return Fraction(num, den)

    def integer(self, n: int) -> Fraction:
        return Fraction(n)

    def vector(self, entries) -> list:
        """entries as a new list; Fractions need no decoding."""
        return list(entries)

    def dot(self, *vectors) -> Fraction:
        """sum_i prod_v vectors[v][i] over vectors of equal length.

        Each product is taken left to right and the sum runs in index
        order from zero, so the Fraction operations are those of the
        written-out loop.
        """
        terms = vectors[0]
        for v in vectors[1:]:
            terms = map(operator.mul, terms, v)
        return sum(terms, Fraction(0))

    def __repr__(self):
        return "RationalBackend()"


@functools.cache
def _context(prec_bits: int) -> mpmath.MPContext:
    """The mpmath context of every FloatBackend at prec_bits.

    mpmath is imported here, so that only the float backend loads it.
    """
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = prec_bits
    return ctx


class FloatVector:
    """A sequence of mpf and ints, decoded once for FloatBackend.dot.

    Entry i is mans[i] * 2^exps[i], the sign carried by the mantissa (an
    int entry has exponent 0).  Slicing, reversed and strided slices
    included, gives a new FloatVector; append decodes one more entry.  An
    infinite or NaN entry raises PrecisionError when it is decoded.
    """

    __slots__ = ("mans", "exps")

    def __init__(self, entries=()):
        self.mans, self.exps = [], []
        for x in entries:
            self.append(x)

    def append(self, x):
        if type(x) is int:
            self.mans.append(x)
            self.exps.append(0)
            return
        sign, man, exp, bc = x._mpf_
        if bc < 0:   # mpmath's inf and nan carry bc = -2, -1
            raise PrecisionError(f"non-finite entry {x} in a dot product")
        # an int whatever integer type mpmath's backend uses
        self.mans.append(-int(man) if sign else int(man))
        self.exps.append(exp)

    def __getitem__(self, index: slice) -> "FloatVector":
        out = FloatVector.__new__(FloatVector)
        out.mans, out.exps = self.mans[index], self.exps[index]
        return out


class FloatBackend:
    """Arbitrary-precision binary floats via mpmath.

    The scalars carry their precision: they belong to ``ctx``, an mpmath
    context at ``prec_bits`` (one per precision, built with the first
    backend of that precision), and every operation on them rounds to
    ``prec_bits`` whatever mpmath's global precision is.  mpmath computes
    in the context of the left operand, so a constant or function that
    meets these scalars comes from the backend (``integer``, ``ratio``,
    ``ctx.exp``), never from the module-level ``mpmath`` namespace.
    """

    exact = False

    def __init__(self, prec_bits: int = DEFAULT_PREC_BITS):
        if prec_bits < 53:
            raise InputError(f"prec_bits must be >= 53, got {prec_bits}")
        self.prec_bits = prec_bits
        self.ctx = _context(prec_bits)
        # bound once per backend, so that dot pays no import per call
        from mpmath.libmp import from_man_exp
        self._from_man_exp = from_man_exp

    def ratio(self, num, den=1) -> mpmath.mpf:
        """num / den rounded to nearest at prec_bits, den an int; num may
        be an int, a Fraction, a float or an mpf of any precision."""
        if isinstance(num, Fraction):
            # ctx.convert would round a Fraction towards zero
            num, den = num.numerator, num.denominator * den
        return self.ctx.convert(num) / den

    def integer(self, n: int) -> mpmath.mpf:
        return self.ctx.mpf(n)

    def vector(self, entries) -> "FloatVector":
        """entries, decoded once for dot."""
        return FloatVector(entries)

    def dot(self, *vectors) -> mpmath.mpf:
        """sum_i prod_v vectors[v][i], rounded once to prec_bits.

        Each vector is a FloatVector, or a sequence of mpf and ints, which
        is decoded here; the vectors have equal length.
        Pass a FloatVector where the same entries meet many dots, so that
        they are decoded once.  The mantissas of each product are
        multiplied exactly as Python ints.  Zero products are dropped; every
        other product is floored to one exponent, 32 + log2(their number)
        bits more than prec_bits below the top bit of the largest product
        (a product whose exponent lies above it is shifted left exactly),
        and the sum of those ints is rounded to nearest once.  Flooring
        costs at most 2^-(prec_bits+31) of the largest product, so the
        result is within 2^-(prec_bits-1) of the sum of |products|, which
        a caller forms as the dot of the entries' absolute values.  An
        infinite or NaN entry raises PrecisionError.  mpmath's global
        precision is not read.
        """
        # each product's mantissa and exponent
        mans = exps = None
        for v in vectors:
            if type(v) is not FloatVector:
                v = FloatVector(v)
            if mans is None:
                mans, exps = v.mans, v.exps
            else:
                mans = map(operator.mul, mans, v.mans)
                exps = map(operator.add, exps, v.exps)
        mans = list(mans)
        exps = list(compress(exps, mans))
        mans = list(filter(None, mans))
        if not mans:
            return self.ctx.zero
        top = max(map(operator.add, map(int.bit_length, mans), exps))
        floor = top - self.prec_bits - 32 - len(mans).bit_length()
        terms = [m << (e - floor) if e >= floor else m >> (floor - e)
                 for m, e in zip(mans, exps)]
        return self.ctx.make_mpf(
            self._from_man_exp(sum(terms), floor, self.prec_bits, "n"))

    def __repr__(self):
        return f"FloatBackend(prec_bits={self.prec_bits})"


RATIONAL = RationalBackend()

Backend = RationalBackend | FloatBackend


def require_positive(name: str, value: float) -> float:
    """value, if it is finite and > 0; InputError otherwise (NaN included)."""
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be finite and positive, got {value}")
    return value


def negligible(what: str, x, bound, backend: Backend) -> bool:
    """Whether x, a sum of terms that cancel identically, is zero.

    On the rational backend x must be exactly zero and bound is not read.
    On the float backend x counts as zero when |x| <= bound, the caller's
    bound on the rounding error of x: a unit derived from the roundings
    along x's path, times x's absolute-value shadow (the sum of the
    absolute values of the terms summed into x).  A larger |x| means the
    working precision fell short, so it raises PrecisionError.
    """
    if backend.exact:
        return x == 0
    if abs(x) <= bound:
        return True
    raise PrecisionError(
        f"{what} = {backend.ctx.nstr(x, 10)} exceeds its rounding bound "
        f"{backend.ctx.nstr(bound, 10)} at {backend.prec_bits} bits")


def certify(values: dict, errors: dict, backend: FloatBackend) -> dict:
    """values, if each one's error bound is at most DEFAULT_VERIFY_RTOL
    times its magnitude; PrecisionError naming the first that is not.

    errors maps each key of values to a bound on the absolute error of
    that value, formed in the same run.  A value of 0 passes only with a
    bound of 0.
    """
    for key, val in values.items():
        if not errors[key] <= DEFAULT_VERIFY_RTOL * abs(val):
            nstr = backend.ctx.nstr
            raise PrecisionError(
                f"value {key!r} = {nstr(val, 20)} has an error bound of "
                f"{nstr(errors[key], 10)} at {backend.prec_bits} bits "
                f"(rtol={DEFAULT_VERIFY_RTOL})")
    return values


def escalate_precision(compute: Callable, backend: Backend) -> tuple:
    """(backend, compute(backend)) at the least precision that passes.

    On the rational backend compute runs once.  On the float backend,
    whatever the given backend's precision, it runs on a FloatBackend of
    DEFAULT_PREC_BITS bits, and again at twice the bits each time it
    raises PrecisionError (a value's error bound too wide, or an identity
    beyond its rounding bound).  compute builds its model from the backend
    it is given, so a q like exp(-alpha/sqrt(N)) is recomputed at each P.
    At MAX_PREC_BITS the PrecisionError propagates, its message naming
    that precision.
    """
    if backend.exact:
        return backend, compute(backend)
    prec = DEFAULT_PREC_BITS
    while True:
        backend = FloatBackend(prec)
        try:
            return backend, compute(backend)
        except PrecisionError as exc:
            if prec >= MAX_PREC_BITS:
                raise PrecisionError(
                    f"no precision up to {prec} bits passed: {exc}") from None
        prec *= 2


# ---------------------------------------------------------------------------
# Truncated power series and polynomial products
# ---------------------------------------------------------------------------

class TruncSeries:
    """A formal power series truncated at a fixed degree D.

    Coefficients are backend scalars, index 0..D: the phi series.
    Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(coeffs)

    def coeff(self, k: int):
        if not 0 <= k < len(self.coeffs):
            raise InputError(f"coefficient index {k} out of range "
                             f"0..{len(self.coeffs) - 1}")
        return self.coeffs[k]


def poly_mul(a: Sequence, b: Sequence, backend: Backend) -> list:
    """The Cauchy product of the coefficient lists a and b, constant terms
    first: all len(a) + len(b) - 1 coefficients.

    Coefficient k is one dot of the a_i and b_(k-i) that both exist.  On
    the float backend a is decoded once (backend.vector), b once,
    reversed, and each dot is backend.dot.  On the rational backend each
    factor is scaled once to integers by the lcm of its denominators, so
    each dot is an integer convolution over that span, and coefficient k
    is one Fraction of it over the product of the two lcms: one gcd per
    coefficient, not one per product.
    """
    m = len(b)
    if backend.exact:
        da, db = (math.lcm(*(x.denominator for x in f)) for f in (a, b))
        av = [x.numerator * (da // x.denominator) for x in a]
        rb = [x.numerator * (db // x.denominator) for x in reversed(b)]
        scale = da * db

        def dot(x, y):
            return Fraction(sum(map(operator.mul, x, y)), scale)
    else:
        av, rb = backend.vector(a), backend.vector(b[::-1])
        dot = backend.dot
    out = []
    for k in range(len(a) + m - 1):
        # entry j of rb is b_(m-1-j), so b_(k-i) is rb[i + m - 1 - k]
        lo, hi, shift = max(0, k - m + 1), min(len(a), k + 1), m - 1 - k
        out.append(dot(av[lo:hi], rb[lo + shift:hi + shift]))
    return out


def geometric_factor(r, a: int):
    """Closed form of sum_{i>=1} r^(i*a)  =  r^a / (1 - r^a), |r| < 1."""
    if a < 1:
        raise InputError("geometric_factor needs a >= 1 (a = 0 diverges)")
    if not abs(r) < 1:
        raise InputError(f"geometric_factor needs |r| < 1, got r = {r}")
    ra = r ** a
    return ra / (1 - ra)
