"""Ground-truth J and Delta for small systems by exact perturbation theory.

The deformed generator is L_gamma = L + (e^gamma - 1) M, where M is the
off-diagonal jump matrix (column n' holds the rates out of configuration n',
self-transitions of the N = 1 ring stored explicitly) and
L = M - diag(R) with R the total exit rates.  With pi the stationary vector
and 1^T the left null vector of L (so 1^T M = R^T):

    lambda_1 = 1^T M pi = J
    lambda_2 = J/2 + R . psi,   L psi = (lambda_1 I - M) pi,  1^T psi = 0
    Delta    = 2 lambda_2

The singular solve is regularized by bordering L with the constraint row,
[[L, 1], [1^T, 0]].  The rational backend solves it by exact Gaussian
elimination on dense Fraction rows, capped at EXACT_STATE_CAP states.  The
float backend builds L once as a scipy.sparse matrix (``_generator_matrix``)
and solves the bordered system with ``spsolve``; its cap is
STATE_SPACE_CAP.  Ring translation symmetry is deliberately not
exploited; the oracle stays simple and independently trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .numerics import Backend, InputError, SolverError
from .stationary import ModelParams, rate_u, weight_f

STATE_SPACE_CAP = 20_000
EXACT_STATE_CAP = 300  # dense Fraction elimination is O(states^3) big-int work


@dataclass(frozen=True)
class ConfigSpace:
    """All occupation vectors (n_1..n_N) with sum p, lexicographic order."""

    N: int
    p: int
    configs: tuple
    index: dict

    @property
    def size(self) -> int:
        return len(self.configs)


def _check_size(N: int, p: int, cap: int, hint: str = "") -> int:
    total = comb(N + p - 1, p)
    if total > cap:
        raise InputError(
            f"configuration space C({N + p - 1},{p}) = {total} exceeds the "
            f"cap {cap}{hint}")
    return total


def enumerate_configs(N: int, p: int) -> ConfigSpace:
    total = _check_size(N, p, STATE_SPACE_CAP)
    configs = []

    def fill(prefix, remaining, sites_left):
        if sites_left == 1:
            configs.append(tuple(prefix) + (remaining,))
            return
        for n in range(remaining + 1):
            fill(prefix + [n], remaining - n, sites_left - 1)

    fill([], p, N)
    configs.sort()
    index = {c: i for i, c in enumerate(configs)}
    assert len(configs) == total
    return ConfigSpace(N=N, p=p, configs=tuple(configs), index=index)


@dataclass(frozen=True)
class GeneratorPair:
    """Exit rates R and jump transitions of the generator.

    jumps is a tuple of (src, dst, rate) triples; every jump moves one
    particle from site i to site i+1 (mod N) and increments the particle
    displacement counter Y by 1.
    """

    space: ConfigSpace
    R: tuple
    jumps: tuple
    backend: Backend


def build_generator(params: ModelParams) -> GeneratorPair:
    space = enumerate_configs(params.N, params.p)
    backend = params.backend
    utab = [rate_u(n, params.q) for n in range(params.p + 1)]
    R = []
    jumps = []
    for src, cfg in enumerate(space.configs):
        total = backend.integer(0)
        for i, n in enumerate(cfg):
            if n == 0:
                continue
            rate = utab[n]
            total += rate
            j = (i + 1) % params.N
            moved = list(cfg)
            moved[i] -= 1
            moved[j] += 1
            jumps.append((src, space.index[tuple(moved)], rate))
        R.append(total)
    return GeneratorPair(space=space, R=tuple(R), jumps=tuple(jumps),
                         backend=backend)


def _generator_matrix(gen: GeneratorPair):
    """The generator L = M - diag(R) in float64, as a scipy.sparse CSC matrix.

    Duplicate entries are summed, so the N = 1 self-loop cancels against R
    on the diagonal.
    """
    from scipy import sparse

    size = gen.space.size
    rows = [dst for _, dst, _ in gen.jumps] + list(range(size))
    cols = [src for src, _, _ in gen.jumps] + list(range(size))
    vals = ([float(rate) for _, _, rate in gen.jumps]
            + [-float(r) for r in gen.R])
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(size, size)).tocsc()


def product_form_vector(params: ModelParams, gen: GeneratorPair) -> list:
    """pi(n) proportional to prod_i f(n_i), normalized."""
    backend = gen.backend
    ftab = [weight_f(m, params.q) for m in range(params.p + 1)]
    weights = []
    for cfg in gen.space.configs:
        w = backend.integer(1)
        for n in cfg:
            w = w * ftab[n]
        weights.append(w)
    Z = sum(weights)
    return [w / Z for w in weights]


# ---------------------------------------------------------------------------
# Exact rational linear algebra (small systems only)
# ---------------------------------------------------------------------------

def _solve_fraction(A: list, b: list) -> list:
    """Gaussian elimination with partial (first nonzero) pivoting."""
    n = len(b)
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise SolverError("singular matrix in exact solve")
        M[col], M[pivot] = M[pivot], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _generator_dense_fraction(gen: GeneratorPair) -> list:
    M = gen.space.size
    L = [[Fraction(0)] * M for _ in range(M)]
    for src, dst, rate in gen.jumps:
        L[dst][src] += Fraction(rate)
    for i in range(M):
        L[i][i] -= Fraction(gen.R[i])
    return L


@dataclass(frozen=True)
class OracleResult:
    J: object
    Delta: object
    lambda1: object
    lambda2: object
    size: int
    residual: float


def lambda_derivatives(params: ModelParams,
                       gen: GeneratorPair | None = None,
                       tol: float = 1e-10) -> OracleResult:
    """First two scaled cumulants from Rayleigh-Schroedinger perturbation."""
    if params.backend.exact:
        _check_size(params.N, params.p, EXACT_STATE_CAP,
                    " of the exact rational solve; use the float backend")
    if gen is None:
        gen = build_generator(params)
    M = gen.space.size
    pi = product_form_vector(params, gen)

    if gen.backend.exact:
        L = _generator_dense_fraction(gen)
        lam1 = sum(r * w for r, w in zip(gen.R, pi))
        # rhs = (lambda_1 I - M) pi
        rhs = [lam1 * pi[i] for i in range(M)]
        for src, dst, rate in gen.jumps:
            rhs[dst] -= Fraction(rate) * pi[src]
        A = [row[:] + [Fraction(1)] for row in L]
        A.append([Fraction(1)] * M + [Fraction(0)])
        sol = _solve_fraction(A, rhs + [Fraction(0)])
        psi = sol[:M]
        lam2 = lam1 / 2 + sum(r * x for r, x in zip(gen.R, psi))
        return OracleResult(J=lam1, Delta=2 * lam2, lambda1=lam1,
                            lambda2=lam2, size=M, residual=0.0)

    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    L = _generator_matrix(gen)
    R = np.array([float(r) for r in gen.R])
    piv = np.array([float(w) for w in pi])
    lam1 = float(R @ piv)
    rhs = (lam1 - R) * piv - L @ piv  # (lambda_1 I - M) pi, M = L + diag(R)
    ones = sparse.csc_matrix(np.ones((M, 1)))
    A = sparse.bmat([[L, ones], [ones.T, None]], format="csc")
    # minimum degree on A^T + A: the 3432-state ring factors in 0.6 s,
    # against 1.1 s with the default COLAMD (2-CPU host)
    sol = spsolve(A, np.append(rhs, 0.0), permc_spec="MMD_AT_PLUS_A")
    psi = sol[:M]
    residual = float(np.max(np.abs(L @ psi - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if residual > tol * scale:
        raise SolverError(f"perturbation solve residual {residual} above "
                          f"{tol} * {scale}")
    lam2 = lam1 / 2 + float(R @ psi)
    return OracleResult(J=lam1, Delta=2 * lam2, lambda1=lam1, lambda2=lam2,
                        size=M, residual=residual)

