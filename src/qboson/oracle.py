"""Ground-truth J and Delta for small systems by exact perturbation theory.

Ring rotations commute with the generator and with the particle
displacement counter Y, so the top eigenvector of the deformed generator is
rotation invariant, and the chain lumped onto rotation orbits has the same
top eigenvalue lambda(gamma).  The oracle works on that chain: one state
per orbit, represented by its least rotation in lexicographic order.  A
jump goes to the orbit of the moved configuration; a jump into its own
orbit is a self-loop, which still increments Y.

The deformed generator is L_gamma = L + (e^gamma - 1) M, where M is the
jump matrix (column a holds the rates out of orbit a, self-loops included)
and L = M - diag(R) with R the total exit rates.  With pi the stationary
vector and 1^T the left null vector of L (so 1^T M = R^T):

    lambda_1 = 1^T M pi = J
    lambda_2 = J/2 + R . psi,   L psi = (lambda_1 I - M) pi,  1^T psi = 0
    Delta    = 2 lambda_2

pi(a) is proportional to the orbit's size times prod_i f(n_i), and
R(a) = sum_i u(n_i).  Both depend only on the sorted occupations, so
R and the product weight are formed once per class of orbits with equal
sorted occupations (``_class_values``), in that sorted order: 15 classes
for the 429 orbits at (N, p) = (8, 7).

Both backends fix the gauge of the singular solve the same way: pin
psi_k = 0 at k = argmax pi, drop row and column k of L, solve the reduced
system L_r, and project psi <- psi - (1^T psi) pi, which restores
1^T psi = 0 because L pi = 0 and 1^T pi = 1.  The dropped row holds by
itself, since the columns of L and the right-hand side both sum to zero.
Pinning the most probable orbit keeps the multiple of pi that the
projection removes, -psi_k / pi_k, small, and so the float rounding.
The rational backend works with integer weights W = Z pi, built without
a gcd (``_integer_weights``), and divides by Z only in lambda_1 and
lambda_2; as M pi = R pi for the stationary pi, its right-hand side is
(lambda_1 - R) pi.  It builds the reduced rows straight from the jumps,
clears each row's denominators once, and solves by fraction-free Gaussian
elimination on sparse {column: int} rows, dividing each updated row by the
gcd of its entries; the right-hand side stays a column of Fractions beside
them (``_solve_fraction``).  The float backend builds L once as a
scipy.sparse matrix (``_generator_matrix``) and factors L_r by sparse LU
without pivoting.  That is stable here: -L_r is a nonsingular M-matrix
whose columns are diagonally dominant.  Its off-diagonal entries are minus
jump rates; a self-loop cancels against R on the diagonal, so the columns
of L still sum to zero; and the chain is irreducible.  Any symmetric
ordering keeps that, and Gaussian elimination on such a matrix grows its
entries by at most a factor of 2.  The float solve's residual is checked
against the full L, dropped row included.  Both backends cap the number of
configurations, not orbits, before any is enumerated, and report it as the
result's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd, lcm, prod
from operator import truediv

from .numerics import InputError, SolverError
from .stationary import ModelParams, rate_u

# C(14, 7), the (N, p) = (8, 7) space of the largest float request in the
# tests and the benchmark: 429 orbits, whose reduced LU holds 31 000
# entries, and `oracle --backend float` peaks at 67 MB; C(16, 8) = 12 870
# configurations (1430 orbits) fill 325 000 entries and peak at 77 MB
STATE_SPACE_CAP = 3432
# the exact oracle's cost is fill and big-integer growth, not the
# configuration count alone: at q = 1/2 one request takes 0.002 s at 84
# configurations (N = 4, p = 6), 0.007 s at 252 (6, 5), 0.03 s at 286
# (4, 10) and 0.7 s at 300 (2, 299, 150 orbits), whose integer weights have
# about 27 000 digits; at 300 configurations (3, 23; 100 orbits) it takes
# 0.16 s at q = 1/2, 0.8 s at q = 9/10, 2.6 s at q = 99/101 and 9 s at
# q = 9999/10001, as the rates' numerators and denominators grow (a warm
# process on a 2-CPU host)
EXACT_STATE_CAP = 300
# the float solve's largest residual against the full L, relative to the
# right-hand side's largest entry (at least 1)
_RESIDUAL_TOL = 1e-10


def enumerate_configs(N: int, p: int) -> tuple:
    """All occupation vectors (n_1..n_N) with sum p, in lexicographic order:
    the gaps left by N - 1 bars among N + p - 1 slots (stars and bars),
    taking the bar positions in lexicographic order."""
    configs = []
    for bars in combinations(range(N + p - 1), N - 1):
        cfg, prev = [], -1
        for b in bars:
            cfg.append(b - prev - 1)
            prev = b
        cfg.append(N + p - 2 - prev)
        configs.append(tuple(cfg))
    return tuple(configs)


def _class_values(configs, value) -> list:
    """value(occ) for each configuration, occ its occupations sorted.

    Configurations with the same sorted occupations (one class) share
    their exit rate and product weight, so value is formed once per class,
    on the sorted tuple.
    """
    keys = [tuple(sorted(cfg)) for cfg in configs]
    values = {key: value(key) for key in dict.fromkeys(keys)}
    return [values[key] for key in keys]


@dataclass(frozen=True)
class GeneratorPair:
    """Rotation orbits, exit rates R and jump transitions of the lumped
    generator.

    configs[i] is the least rotation of orbit i and sizes[i] the number of
    configurations in the orbit.  rates[n] = u(n) is the rate out of a site
    holding n particles, and jumps is a tuple of (src, dst, n) triples
    indexing configs: a particle leaves a site of configs[src] holding n
    particles, at rate rates[n], for the next site (mod N), which lands in
    orbit dst (a self-loop when dst == src) and increments the particle
    displacement counter Y by 1.
    """

    configs: tuple
    sizes: tuple
    R: tuple
    rates: tuple
    jumps: tuple


def build_generator(params: ModelParams) -> GeneratorPair:
    """Rates and jumps at the backend's working precision, once the
    configuration count is within the cap of the backend's solve."""
    N, p = params.N, params.p
    backend = params.backend
    cap = EXACT_STATE_CAP if backend.exact else STATE_SPACE_CAP
    size = comb(N + p - 1, p)
    if size > cap:
        solve = ("exact rational solve; use the float backend"
                 if backend.exact else "float solve")
        raise InputError(f"configuration space C({N + p - 1},{p}) = {size} "
                         f"exceeds the cap {cap} of the {solve}")
    # in lexicographic order the first member met of each orbit is its
    # least rotation
    orbit, reps, sizes = {}, [], []
    for cfg in enumerate_configs(N, p):
        if cfg not in orbit:
            turns = {cfg[s:] + cfg[:s] for s in range(N)}
            orbit.update(dict.fromkeys(turns, len(reps)))
            reps.append(cfg)
            sizes.append(len(turns))
    rates = tuple(rate_u(n, params) for n in range(p + 1))
    zero = backend.integer(0)
    totals = _class_values(
        reps, lambda occ: sum((rates[n] for n in occ if n), zero))
    jumps = []
    for src, cfg in enumerate(reps):
        for i, n in enumerate(cfg):
            if n == 0:
                continue
            moved = list(cfg)
            moved[i] -= 1
            moved[(i + 1) % N] += 1
            jumps.append((src, orbit[tuple(moved)], n))
    return GeneratorPair(configs=tuple(reps), sizes=tuple(sizes),
                         R=tuple(totals), rates=rates, jumps=tuple(jumps))


def _generator_matrix(gen: GeneratorPair, R):
    """The generator L = M - diag(R) in float64, as a scipy.sparse CSC
    matrix, from the float64 exit rates R.

    Duplicate entries are summed, so a self-loop cancels against R on the
    diagonal.
    """
    import numpy as np
    from scipy import sparse

    size = len(R)
    src, dst, n = np.array(gen.jumps).T
    u = np.array([float(r) for r in gen.rates])
    diag = np.arange(size)
    return sparse.coo_matrix((np.concatenate((u[n], -R)),
                              (np.concatenate((dst, diag)),
                               np.concatenate((src, diag)))),
                             shape=(size, size)).tocsc()


def product_form_vector(params: ModelParams, gen: GeneratorPair) -> list:
    """pi(orbit) proportional to size * prod_i f(n_i), normalized, at the
    backend's working precision, with f(m) = f(m-1)/u(m) from gen.rates."""
    backend = params.backend
    one = backend.integer(1)
    ftab = list(accumulate(gen.rates[1:], truediv, initial=one))
    weights = _class_values(
        gen.configs, lambda occ: prod((ftab[n] for n in occ), start=one))
    Z = backend.dot(gen.sizes, weights)
    return [s * w / Z for s, w in zip(gen.sizes, weights)]


def _integer_weights(gen: GeneratorPair) -> list:
    """Integers proportional to size * prod_i f(n_i), one per orbit.

    With the rational rates u(k) = P_k / Q_k in lowest terms,
    f(m) = prod_{k<=m} Q_k / P_k = h(m) / prod_{k<=p} P_k, where
    h(m) = prod_{k<=m} Q_k prod_{m<k<=p} P_k, so the configuration weight
    times (prod_k P_k)^N is the integer prod_i h(n_i).  No gcd is taken.
    """
    p = len(gen.rates) - 1
    h = [1] * (p + 1)
    acc = 1
    for m in range(1, p + 1):
        acc *= gen.rates[m].denominator
        h[m] = acc
    acc = 1
    for m in range(p - 1, -1, -1):
        acc *= gen.rates[m + 1].numerator
        h[m] *= acc
    weights = _class_values(gen.configs,
                            lambda occ: prod(h[n] for n in occ))
    return [s * w for s, w in zip(gen.sizes, weights)]


# ---------------------------------------------------------------------------
# Exact rational linear algebra (small systems only)
# ---------------------------------------------------------------------------

def _solve_fraction(rows: list) -> list:
    """Solve n sparse rational equations exactly; row i is {column: value}.

    Columns 0..n-1 hold the matrix's nonzero entries and column n the
    right-hand side; absent entries are zero.  Each row is scaled once by
    the lcm of its matrix entries' denominators to integers, and the
    right-hand side by the same factor, as a separate column of Fractions.
    Fraction-free Gaussian elimination then pivots on the first row with a
    nonzero entry in the column and touches only the pivot row's stored
    entries; it replaces a row by an integer combination of itself and the
    pivot row, and divides the result by the gcd of its entries.  Back
    substitution gives x.  The rows are consumed.
    """
    n = len(rows)
    matrix, rhs = [], []
    for row in rows:
        b = row.pop(n, 0)
        scale = lcm(*(v.denominator for v in row.values()))
        matrix.append({c: v.numerator * (scale // v.denominator)
                       for c, v in row.items()})
        rhs.append(Fraction(b) * scale)
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in matrix[r]), None)
        if pivot is None:
            raise SolverError("singular matrix in exact solve")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        prow, pb = matrix[col], rhs[col]
        d = prow[col]
        for r in range(col + 1, n):
            row = matrix[r]
            if col not in row:
                continue
            a = row.pop(col)
            g = gcd(d, a)
            dm, am = d // g, a // g
            # row <- dm * row - am * prow, with the pivot column gone
            row = {c: dm * v for c, v in row.items()}
            for c, y in prow.items():
                if c != col:
                    x = row.get(c, 0) - am * y
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
            b = dm * rhs[r] - am * pb
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
                b /= g
            matrix[r], rhs[r] = row, b
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = matrix[i]
        acc = rhs[i]
        for c, y in row.items():
            if c > i:
                acc -= y * x[c]
        x[i] = acc / row[i]
    return x


@dataclass(frozen=True)
class OracleResult:
    J: object
    Delta: object
    lambda1: object
    lambda2: object
    size: int
    residual: float


def lambda_derivatives(params: ModelParams) -> OracleResult:
    """First two scaled cumulants from Rayleigh-Schroedinger perturbation."""
    gen = build_generator(params)
    M = len(gen.configs)
    size = sum(gen.sizes)

    backend = params.backend
    if backend.exact:
        # integer weights W = Z pi, so that only the two quotients below
        # divide by Z; S = Z lambda_1
        W = _integer_weights(gen)
        Z = sum(W)
        S = backend.dot(gen.R, W)
        lam1 = S / Z
        k = max(range(M), key=W.__getitem__)
        # reduced rows [L_r | Z^2 rhs]; M pi = R pi as pi is stationary, so
        # Z^2 (lambda_1 I - M) pi = (S - Z R) W.  Orbit i sits in column
        # col[i], the pinned orbit in column None, rhs in column n
        n = M - 1
        col = list(range(k)) + [None] + list(range(k, n))
        rows = [{col[i]: -r, n: (S - Z * r) * w}
                for i, (r, w) in enumerate(zip(gen.R, W))]
        for src, dst, occ in gen.jumps:
            row = rows[dst]
            row[col[src]] = row.get(col[src], 0) + gen.rates[occ]
        del rows[k]
        sol = _solve_fraction([{c: v for c, v in row.items()
                                if v and c is not None} for row in rows])
        # psi is sol / Z^2 with psi_k = 0, less (1^T sol / Z^2) pi; as
        # R . pi = lambda_1, that projection enters lambda_2 as one exact
        # term
        R = gen.R[:k] + gen.R[k + 1:]
        lam2 = lam1 / 2 + (backend.dot(R, sol) - lam1 * sum(sol)) / Z ** 2
        return OracleResult(J=lam1, Delta=2 * lam2, lambda1=lam1,
                            lambda2=lam2, size=size, residual=0.0)

    import numpy as np
    from scipy.sparse.linalg import splu

    pi = product_form_vector(params, gen)
    piv = np.array([float(x) for x in pi])
    R = np.array([float(r) for r in gen.R])
    # each rate u(n), n <= p, is a term of some R, so a finite R bounds them
    if not np.isfinite(R).all():
        raise InputError(
            f"the exit rates at q = {params.q} exceed float64's largest "
            "value, 1.8e308, in which the float oracle solves; use the "
            "rational backend, with q as an integer or a fraction")
    L = _generator_matrix(gen, R)
    # at working precision: R @ piv sums float64 roundings, several ulp off
    lam1 = float(backend.dot(gen.R, pi))
    rhs = (lam1 - R) * piv - L @ piv  # (lambda_1 I - M) pi, M = L + diag(R)
    k = int(np.argmax(piv))
    keep = np.delete(np.arange(M), k)
    lu = splu(L[keep][:, keep], permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0, options={"SymmetricMode": True})
    psi = np.zeros(M)
    psi[keep] = lu.solve(rhs[keep])
    psi -= psi.sum() * piv
    residual = float(np.max(np.abs(L @ psi - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if residual > _RESIDUAL_TOL * scale:
        raise SolverError(f"perturbation solve residual {residual} above "
                          f"{_RESIDUAL_TOL} * {scale}")
    lam2 = lam1 / 2 + float(R @ psi)
    return OracleResult(J=lam1, Delta=2 * lam2, lambda1=lam1, lambda2=lam2,
                        size=size, residual=residual)
