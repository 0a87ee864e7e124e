"""Continuous-time Monte Carlo estimation of J and Delta.

Event-driven dynamics: the total rate is R = sum_i u(n_i), waiting times
are exponential with mean 1/R, the jumping site is chosen with probability
u(n_i)/R, one particle hops i -> i+1 (mod N) and the displacement counter
Y increases by 1.

The event loop is the only hot kernel in the package: one plain-Python
loop over list state that draws its uniforms from its replica's own
``np.random.Generator`` in fixed blocks.  The ``monte-carlo`` workload of
perfbench/ measures the kernel's events per second.

Every replica starts from an exact draw of the stationary measure: i.i.d.
site occupations at the saddle-point fugacity, redrawn until they hold
exactly p particles.

Estimation uses independent replicas: W_r = Y(t_burn + t_measure) -
Y(t_burn), J_hat = mean(W)/t_measure, Delta_hat = var(W)/t_measure, with
standard errors from the replica jackknife.  Each replica spawns two PCG64
streams, one for its initial configuration and one for its kernel, from
SeedSequence([seed, rep_index]), whose spawning contract guarantees
stream independence; numpy's global random state is never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .numerics import InputError, SolverError, require_positive
from .stationary import ModelParams, rate_u, weight_series
from . import asymptotics

if TYPE_CHECKING:
    import numpy as np

_RESYNC_EVERY = 1 << 20
_DRAW_BLOCK = 1024   # events per block of uniforms drawn from the stream


def _gillespie(n, ut, t_burn, t_end, rng, hist):
    """Run one trajectory to t_end; the lists n and hist are modified in place.

    Returns (Y_burn, Y_end, events, max_drift).  Every event moves one
    particle one site forward, so the displacement Y equals the event
    count.  hist accumulates the time-weighted occupation of site 0 over
    [t_burn, t_end).  max_drift is the largest deviation between the
    incrementally maintained total rate and its from-scratch recomputation
    (the rate is resynced each time).  Each event takes two uniforms from
    rng, drawn _DRAW_BLOCK events at a time.
    """
    N = len(n)
    rates = [ut[m] for m in n]
    R = sum(rates)
    log = math.log
    t = 0.0
    Y_burn = 0
    events = 0
    max_drift = 0.0
    draws = []
    k = 0
    while True:
        if k == len(draws):
            draws = rng.random(2 * _DRAW_BLOCK).tolist()
            k = 0
        tn = t - log(1.0 - draws[k]) / R
        lo = t if t > t_burn else t_burn
        hi = tn if tn < t_end else t_end
        if hi > lo:
            hist[n[0]] += hi - lo
        if t < t_burn <= tn:
            Y_burn = events
        if tn >= t_end:
            return Y_burn, events, events, max_drift
        t = tn
        u = draws[k + 1] * R
        k += 2
        acc = 0.0
        site = N - 1
        for i in range(N):
            acc += rates[i]
            if acc >= u:
                site = i
                break
        j = site + 1
        if j == N:
            j = 0
        if j != site:
            n[site] -= 1
            n[j] += 1
            R += ut[n[site]] - rates[site] + ut[n[j]] - rates[j]
            rates[site] = ut[n[site]]
            rates[j] = ut[n[j]]
        events += 1
        if events % _RESYNC_EVERY == 0:
            resynced = sum(rates)
            max_drift = max(max_drift, abs(R - resynced))
            R = resynced


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    t_measure: float
    reps: int
    seed: int
    t_burn: float | None = None

    def __post_init__(self):
        require_positive("t_measure", self.t_measure)
        if self.t_burn is not None:
            require_positive("t_burn", self.t_burn)
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.reps < 3:
            raise InputError(
                "need reps >= 3: the jackknife error of the variance leaves "
                "one replica out, and a variance needs two that remain")

    @property
    def burn_time(self) -> float:
        # 10 N^2 covers both the diffusive and the KPZ relaxation scales
        if self.t_burn is not None:
            return self.t_burn
        return 10.0 * self.params.N ** 2


@dataclass(frozen=True)
class TrajectoryResult:
    Y_burn: int
    Y_end: int
    events: int
    max_rate_drift: float
    hist: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SimEstimate:
    J_hat: float
    se_J: float
    Delta_hat: float
    se_D: float
    reps: int
    total_events: int


def _rate_table(params: ModelParams) -> list:
    return [float(rate_u(m, params.q)) for m in range(params.p + 1)]


# every replica of a run starts from the same product measure, so the
# saddle point is found once per model rather than once per replica
@lru_cache(maxsize=32)
def _stationary_fugacity(params: ModelParams) -> float:
    if params.q.is_unity:
        return float(params.rho)
    return asymptotics.saddle_point(float(params.rho), params.q)


def initial_config(params: ModelParams,
                   rng: np.random.Generator) -> np.ndarray:
    import numpy as np

    N, p = params.N, params.p
    # product-measure rejection: i.i.d. site occupations with weights
    # f(m) z^m (truncated at p), accepted when the total is exactly p
    z = _stationary_fugacity(params)
    w = np.array([float(f) * z ** m for m, f in
                  enumerate(weight_series(params.q, p).coeffs)],
                 dtype=np.float64)
    w /= w.sum()
    for _ in range(1_000_000):
        sample = rng.choice(p + 1, size=N, p=w)
        if sample.sum() == p:
            return sample.astype(np.int64)
    raise SolverError("product-measure rejection sampler failed to accept")


def run_trajectory(cfg: SimConfig, rep_index: int) -> TrajectoryResult:
    import numpy as np

    params = cfg.params
    init_rng, kernel_rng = (
        np.random.default_rng(s) for s in
        np.random.SeedSequence([int(cfg.seed), int(rep_index)]).spawn(2))
    n = initial_config(params, init_rng).tolist()
    hist = [0.0] * (params.p + 1)
    t_end = cfg.burn_time + cfg.t_measure
    Y_burn, Y_end, events, drift = _gillespie(n, _rate_table(params),
                                              cfg.burn_time, t_end,
                                              kernel_rng, hist)
    return TrajectoryResult(Y_burn=Y_burn, Y_end=Y_end, events=events,
                            max_rate_drift=drift, hist=np.array(hist))


def _jackknife_se(values: list, statistic) -> float:
    n = len(values)
    thetas = []
    for i in range(n):
        rest = values[:i] + values[i + 1:]
        thetas.append(statistic(rest))
    mean_t = math.fsum(thetas) / n
    var = (n - 1) / n * math.fsum((t - mean_t) ** 2 for t in thetas)
    return math.sqrt(var)


def estimate_cumulants(cfg: SimConfig) -> SimEstimate:
    t = cfg.t_measure
    windows = []
    total_events = 0
    for rep in range(cfg.reps):
        traj = run_trajectory(cfg, rep)
        windows.append(float(traj.Y_end - traj.Y_burn))
        total_events += traj.events

    def mean_stat(vals):
        return math.fsum(vals) / len(vals)

    def var_stat(vals):
        m = math.fsum(vals) / len(vals)
        return math.fsum((v - m) ** 2 for v in vals) / (len(vals) - 1)

    J_hat = mean_stat(windows) / t
    Delta_hat = var_stat(windows) / t
    se_J = _jackknife_se(windows, mean_stat) / t
    se_D = _jackknife_se(windows, var_stat) / t
    return SimEstimate(J_hat=J_hat, se_J=se_J, Delta_hat=Delta_hat,
                       se_D=se_D, reps=cfg.reps, total_events=total_events)
