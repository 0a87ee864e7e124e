"""Ground-truth J and Delta for small systems by exact perturbation theory.

The deformed generator is L_gamma = L + (e^gamma - 1) M, where M is the
off-diagonal jump matrix (column n' holds the rates out of configuration n',
self-transitions of the N = 1 ring stored explicitly) and
L = M - diag(R) with R the total exit rates.  With pi the stationary vector
and 1^T the left null vector of L (so 1^T M = R^T):

    lambda_1 = 1^T M pi = J
    lambda_2 = J/2 + R . psi,   L psi = (lambda_1 I - M) pi,  1^T psi = 0
    Delta    = 2 lambda_2

Both backends fix the gauge of the singular solve the same way: pin
psi_k = 0 at k = argmax pi, drop row and column k of L, solve the reduced
system L_r, and project psi <- psi - (1^T psi) pi, which restores
1^T psi = 0 because L pi = 0 and 1^T pi = 1.  The dropped row holds by
itself, since the columns of L and the right-hand side both sum to zero.
Pinning the most probable state keeps the multiple of pi that the
projection removes, -psi_k / pi_k, small, and so the float rounding.
The rational backend builds the reduced rows straight from the jumps as
sparse {column: Fraction} dicts and solves them by exact Gaussian
elimination and back substitution (``_solve_fraction``), capped at
EXACT_STATE_CAP states.  The float backend builds L once as a scipy.sparse
matrix (``_generator_matrix``) and factors L_r by sparse LU without
pivoting, capped at STATE_SPACE_CAP states; the LU's fill grows about as
the square of the state count, and at the cap its L and U hold 1.14 M
entries and ``oracle --backend float`` peaks at 83 MB.  Elimination
without pivoting is stable here: -L_r is a nonsingular M-matrix whose
columns are diagonally dominant (the columns of L sum to zero, the chain
is irreducible, and for N >= 2 there are no self-loops), any symmetric
ordering keeps that, and Gaussian elimination on such a matrix grows its
entries by at most a factor of 2.  The float solve's residual is checked
against the full L, dropped row included.  Ring translation symmetry is
deliberately not exploited; the oracle stays simple and independently
trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .numerics import InputError, SolverError
from .stationary import ModelParams, rate_u, weight_series

# C(14, 7), the (N, p) = (8, 7) space of the largest float request in the
# tests and the benchmark (fill 1.14 M, 83 MB peak); 12 870 states took
# 16.6 M and 338 MB
STATE_SPACE_CAP = 3432
# the exact oracle's cost is fill and big-integer growth, not the state
# count alone: 0.1 s at 84 states, 2.6 s at 252 (N = 6, p = 5),
# 6.6 s at 286 (4, 10) and 13 s at 300 (2, 299), whose stationary weights
# carry denominators of about 6700 digits (q = 1/2, `oracle` end to end,
# 2-CPU host)
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


@dataclass(frozen=True)
class GeneratorPair:
    """Configurations, exit rates R and jump transitions of the generator.

    jumps is a tuple of (src, dst, rate) triples indexing configs; every
    jump moves one particle from site i to site i+1 (mod N) and increments
    the particle displacement counter Y by 1.
    """

    configs: tuple
    R: tuple
    jumps: tuple


def build_generator(params: ModelParams) -> GeneratorPair:
    """Rates and jumps at the backend's working precision, once the state
    count is within the cap of the backend's solve."""
    N, p = params.N, params.p
    backend = params.backend
    cap = EXACT_STATE_CAP if backend.exact else STATE_SPACE_CAP
    size = comb(N + p - 1, p)
    if size > cap:
        solve = ("exact rational solve; use the float backend"
                 if backend.exact else "float solve")
        raise InputError(f"configuration space C({N + p - 1},{p}) = {size} "
                         f"exceeds the cap {cap} of the {solve}")
    configs = enumerate_configs(N, p)
    index = {c: i for i, c in enumerate(configs)}
    R, jumps = [], []
    with backend.workprec():
        utab = [rate_u(n, params.q) for n in range(p + 1)]
        zero = backend.integer(0)
        for src, cfg in enumerate(configs):
            total = zero
            for i, n in enumerate(cfg):
                if n == 0:
                    continue
                rate = utab[n]
                total += rate
                moved = list(cfg)
                moved[i] -= 1
                moved[(i + 1) % N] += 1
                jumps.append((src, index[tuple(moved)], rate))
            R.append(total)
    return GeneratorPair(configs=configs, R=tuple(R), jumps=tuple(jumps))


def _generator_matrix(gen: GeneratorPair):
    """The generator L = M - diag(R) in float64, as a scipy.sparse CSC matrix.

    Duplicate entries are summed, so the N = 1 self-loop cancels against R
    on the diagonal.
    """
    from scipy import sparse

    size = len(gen.R)
    rows = [dst for _, dst, _ in gen.jumps] + list(range(size))
    cols = [src for src, _, _ in gen.jumps] + list(range(size))
    vals = ([float(rate) for _, _, rate in gen.jumps]
            + [-float(r) for r in gen.R])
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(size, size)).tocsc()


def product_form_vector(params: ModelParams, gen: GeneratorPair) -> list:
    """pi(n) proportional to prod_i f(n_i), normalized, at the backend's
    working precision."""
    backend = params.backend
    with backend.workprec():
        ftab = weight_series(params.q, params.p).coeffs
        one = backend.integer(1)
        weights = []
        for cfg in gen.configs:
            w = one
            for n in cfg:
                w = w * ftab[n]
            weights.append(w)
        Z = sum(weights)
        return [w / Z for w in weights]


# ---------------------------------------------------------------------------
# Exact rational linear algebra (small systems only)
# ---------------------------------------------------------------------------

def _solve_fraction(rows: list) -> list:
    """Solve n sparse rational equations exactly; row i is {column: value}.

    Columns 0..n-1 hold the matrix's nonzero entries and column n the
    right-hand side; absent entries are zero.  Gaussian elimination pivots on
    the first row with a nonzero entry in the column and touches only the
    pivot row's stored entries, then back substitution gives x.  The rows
    are consumed.
    """
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in rows[r]), None)
        if pivot is None:
            raise SolverError("singular matrix in exact solve")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        inv = 1 / prow[col]
        for r in range(col + 1, n):
            row = rows[r]
            if col not in row:
                continue
            factor = row.pop(col) * inv
            for c, y in prow.items():
                if c != col:
                    x = row.get(c, 0) - factor * y
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row.get(n, Fraction(0))
        for c, y in row.items():
            if i < c < n:
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
    pi = product_form_vector(params, gen)

    if params.backend.exact:
        lam1 = sum(r * w for r, w in zip(gen.R, pi))
        k = max(range(M), key=pi.__getitem__)
        # reduced rows [L_r | rhs], rhs = (lambda_1 I - M) pi; state i sits
        # in column col[i], the pinned state in column None, rhs in column n
        n = M - 1
        col = list(range(k)) + [None] + list(range(k, n))
        rows = [{col[i]: -r, n: lam1 * w}
                for i, (r, w) in enumerate(zip(gen.R, pi))]
        for src, dst, rate in gen.jumps:
            row = rows[dst]
            row[col[src]] = row.get(col[src], 0) + rate
            row[n] -= rate * pi[src]
        del rows[k]
        sol = _solve_fraction([{c: v for c, v in row.items()
                                if v and c is not None} for row in rows])
        # psi is sol with psi_k = 0, less (1^T sol) pi; as R . pi = lambda_1,
        # that projection enters lambda_2 as one exact term
        R = gen.R[:k] + gen.R[k + 1:]
        lam2 = (lam1 / 2 + sum(r * x for r, x in zip(R, sol))
                - lam1 * sum(sol))
        return OracleResult(J=lam1, Delta=2 * lam2, lambda1=lam1,
                            lambda2=lam2, size=M, residual=0.0)

    import numpy as np
    from scipy.sparse.linalg import splu

    L = _generator_matrix(gen)
    R = np.array([float(r) for r in gen.R])
    piv = np.array([float(w) for w in pi])
    lam1 = float(R @ piv)
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
                        size=M, residual=residual)
