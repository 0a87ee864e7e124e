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
site occupations with weights f(m) z^m at the saddle-point fugacity z,
redrawn until they hold exactly p particles.  ``SimConfig`` builds the
float64 rates and these weights once per request, before any worker forks.

Estimation uses independent replicas: W_r = Y(t_burn + t_measure) -
Y(t_burn), J_hat = mean(W)/t_measure, Delta_hat = var(W)/t_measure, with
standard errors from the replica jackknife.  Each replica spawns two PCG64
streams, one for its initial configuration and one for its kernel, from
SeedSequence([seed, rep_index]), whose spawning contract guarantees
stream independence; numpy's global random state is never touched.

Replicas are independent, so ``estimate_cumulants`` runs them in
min(reps, usable CPUs) processes: the caller runs the first contiguous
share of the replicas and forked workers the others, each returning its
windows through a pipe.  The windows are put back in replica order, so the
estimate is the serial one, byte for byte.  The workers are forked rather
than spawned because a fresh interpreter's imports cost about as much as a
share of the benchmark's replicas.  The fork is safe because the program
starts no Python threads, and the workers call no BLAS routine, whose
threads a fork would leave behind.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

from .numerics import InputError, SolverError, require_positive
from .stationary import ModelParams, rate_u
from . import asymptotics

if TYPE_CHECKING:
    import numpy as np

_RESYNC_EVERY = 1 << 20
_DRAW_BLOCK = 1024   # events per block of uniforms drawn from the stream
_LEAST_POSITIVE = 5e-324   # the least positive double
_RECOMPUTE_BELOW = 1e-6   # f of _gillespie


def _gillespie(n, ut, t_burn, t_end, rng, hist):
    """Run one trajectory to t_end; the lists n and hist are modified in place.

    Returns (Y_burn, events, max_drift).  Every event moves one particle
    one site forward, so the displacement equals the event count: Y_burn
    is the count at t_burn, and events the count, and the displacement, at
    t_end.  hist accumulates the time-weighted occupation of site 0 over
    [t_burn, t_end).  max_drift is the largest deviation between the
    incrementally maintained total rate and its from-scratch recomputation
    (the rate is resynced each time, after every _RESYNC_EVERY events).
    Each event takes two uniforms from rng, drawn _DRAW_BLOCK events at a
    time: the first sets the waiting time, the second picks the first site
    whose cumulative rate reaches it times R.  The site picked always has
    a positive rate.

    R += ra - rates[site] + rb - rates[j] rounds four times, each by at
    most u = 2^-53 times a sum no larger than R + R' (R' the new total),
    so it errs by at most 8u max(R, R'): 8u/f of R' while R' >= f R, with
    R's earlier relative error grown by at most 1/f.  An R' below f R is
    summed afresh from the rates.  f = _RECOMPUTE_BELOW = 1e-6 keeps each
    update within 8u/f < 1e-9 of R', and needs rates a millionfold apart
    to fire: at q = 1e17 a particle leaving a pair takes R from 1e17 to
    about p, which the running sum would round to nothing.  At q = 1/2, 2
    and 3/2 with p <= 24 it never fires.
    """
    N = len(n)
    rates = [ut[m] for m in n]
    R = sum(rates)
    log = math.log
    below = _RECOMPUTE_BELOW
    following = [*range(1, N), 0]   # site i's particles hop to i + 1
    t = 0.0
    Y_burn = 0
    events = 0
    max_drift = 0.0
    while True:
        draws = rng.random(2 * _DRAW_BLOCK).tolist()
        for w, v in zip([log(1.0 - d) for d in draws[0::2]], draws[1::2]):
            tn = t - w / R
            lo = t if t > t_burn else t_burn
            hi = tn if tn < t_end else t_end
            if hi > lo:
                hist[n[0]] += hi - lo
            if t < t_burn <= tn:
                Y_burn = events
            if tn >= t_end:
                return Y_burn, events, max_drift
            t = tn
            # a zero uniform would pick site 0 even when it is empty
            u = v * R or _LEAST_POSITIVE
            acc = 0.0
            for site, r in enumerate(rates):
                acc += r
                if acc >= u:
                    break
            else:   # rounding left the sum below u: the last occupied site
                site = max(i for i, r in enumerate(rates) if r)
            j = following[site]
            if j != site:
                a = n[site] - 1
                b = n[j] + 1
                n[site] = a
                n[j] = b
                ra = ut[a]
                rb = ut[b]
                low = below * R
                R += ra - rates[site] + rb - rates[j]
                rates[site] = ra
                rates[j] = rb
                if R < low:   # the update cancelled
                    R = sum(rates)
            events += 1
        # blocks hold _DRAW_BLOCK events, which divides _RESYNC_EVERY
        if events % _RESYNC_EVERY == 0:
            resynced = sum(rates)
            max_drift = max(max_drift, abs(R - resynced))
            R = resynced


@dataclass(frozen=True)
class SimConfig:
    """A request, and the float64 set-up its replicas share: rates[n] =
    u(n) and start_weights[m] = f(m) z^m / sum_k f(k) z^k for n, m <= p,
    with f(m) = 1/(u(1)...u(m)), formed in log space so that neither
    factor overflows."""

    params: ModelParams
    t_measure: float
    reps: int
    seed: int
    t_burn: float | None = None
    rates: tuple = field(init=False, repr=False, compare=False)
    start_weights: tuple = field(init=False, repr=False, compare=False)

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
        params = self.params
        try:
            rates = tuple(float(rate_u(m, params))
                          for m in range(params.p + 1))
        except OverflowError:
            raise InputError(
                f"the rates at q = {params.q} exceed float64's largest "
                "value, 1.8e308, in which simulate runs") from None
        z = (float(params.rho) if params.q == 1 else
             asymptotics.saddle_point(float(params.rho), params.q))
        log_z = math.log(z)
        log_w = list(accumulate((log_z - math.log(u) for u in rates[1:]),
                                initial=0.0))
        top = max(log_w)
        w = [math.exp(x - top) for x in log_w]
        total = math.fsum(w)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "start_weights",
                           tuple(x / total for x in w))

    @property
    def burn_time(self) -> float:
        # 10 N^2 covers both the diffusive and the KPZ relaxation scales
        if self.t_burn is not None:
            return self.t_burn
        return 10.0 * self.params.N ** 2


@dataclass(frozen=True)
class TrajectoryResult:
    Y_burn: int
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


def initial_config(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    import numpy as np

    N, p = cfg.params.N, cfg.params.p
    # product-measure rejection: i.i.d. site occupations with the start
    # weights (truncated at p), accepted when the total is exactly p
    w = np.array(cfg.start_weights)
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
    n = initial_config(cfg, init_rng).tolist()
    hist = [0.0] * (params.p + 1)
    t_end = cfg.burn_time + cfg.t_measure
    Y_burn, events, drift = _gillespie(n, cfg.rates, cfg.burn_time, t_end,
                                       kernel_rng, hist)
    return TrajectoryResult(Y_burn=Y_burn, events=events,
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return os.cpu_count() or 1


def _replica_windows(cfg: SimConfig, reps: range) -> list:
    """(events - Y_burn, events) of each replica in reps, in order: the
    displacement over the measuring window, and the event count."""
    out = []
    for rep in reps:
        traj = run_trajectory(cfg, rep)
        out.append((traj.events - traj.Y_burn, traj.events))
    return out


def _fork_share(cfg: SimConfig, share: range) -> tuple:
    """Fork a worker that runs share and writes its windows, or the
    exception it raised, pickled to a pipe.  Returns (pid, read end).

    A bare fork and pipe, not multiprocessing: importing multiprocessing
    and concurrent.futures adds about 2 MB to the caller's peak memory.
    """
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:   # the worker never returns to the caller's stack
        os.close(read)
        try:
            result = _replica_windows(cfg, share)
        except BaseException as exc:   # re-raised by _worker_result
            result = exc
        data = pickle.dumps(result)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _worker_result(pid: int, read: int) -> list:
    """Read a worker's pipe to its end; re-raise what the worker raised."""
    import pickle

    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    if not chunks:
        raise SolverError(f"replica worker {pid} exited without a result")
    result = pickle.loads(b"".join(chunks))
    if isinstance(result, BaseException):
        raise result
    return result


def estimate_cumulants(cfg: SimConfig) -> SimEstimate:
    # contiguous shares of the replicas, one per usable CPU; the caller
    # runs the first and forked workers the rest, in replica order, so the
    # result is the serial one
    procs = min(cfg.reps, _usable_cpus()) if hasattr(os, "fork") else 1
    bounds = [cfg.reps * w // procs for w in range(procs + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    workers = []
    try:
        for share in shares[1:]:
            workers.append(_fork_share(cfg, share))
        results = _replica_windows(cfg, shares[0])
        for worker in workers:
            results += _worker_result(*worker)
    finally:
        import signal

        # a worker whose pipe was read to its end is exiting; after a
        # failure the others are stopped rather than waited for
        for pid, read in workers:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    t = cfg.t_measure
    windows = [float(w) for w, _ in results]
    total_events = sum(events for _, events in results)

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
