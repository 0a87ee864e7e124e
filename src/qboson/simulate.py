"""Continuous-time Monte Carlo estimation of J and Delta.

Event-driven dynamics: the total rate is R = sum_i u(n_i), waiting times
are exponential with mean 1/R, the jumping site is chosen with probability
u(n_i)/R, one particle hops i -> i+1 (mod N) and the displacement counter
Y increases by 1.

The event loop is the only hot kernel in the package: one plain-Python
loop over list state that draws its uniforms from its replica's own
``np.random.Generator`` in fixed blocks.  A replica's burn-in and
measuring window are two runs of it on one stream, the second restarting
the clock at 0 in the state the first left: exact, as the waiting times
are memoryless.  One CPU of a 2-CPU Intel Xeon host runs about 1.0e6
events/s at N = p = 16 and 5.6e5 at N = p = 64 (q = 1/2, CPython 3.11),
as the ``monte-carlo`` workload of perfbench/ measures.  A request asks
for about reps (t_burn + t_measure) J events, and each replica draws at
least one block of uniforms in each of its two kernel calls, however
short its windows; ``SimConfig`` refuses a request whose bound on that
work, reps ((t_burn + t_measure) J + 2 _DRAW_BLOCK), exceeds EVENT_BUDGET
before any replica runs.

Every replica starts from an exact draw of the stationary measure: i.i.d.
site occupations with weights f(m) z^m at the saddle-point fugacity z,
redrawn until they hold exactly p particles.  ``SimConfig`` builds the
float64 rates and these weights once per request, before any worker forks.

Estimation uses independent replicas: W_r = Y(t_burn + t_measure) -
Y(t_burn), J_hat = mean(W)/t_measure, Delta_hat = var(W)/t_measure, with
standard errors from the replica jackknife, which for these two
statistics has a closed form in the central moments of W (see
``estimate_cumulants``).  So a replica contributes only the powers W^0 to
W^4 and its event count to six integer sums, and the estimate needs
fixed memory and O(reps) time.  Each replica spawns two PCG64 streams,
one for its initial configuration and one for its kernel, from
SeedSequence([seed, rep_index]), whose spawning contract guarantees
stream independence; numpy's global random state is never touched.

``estimate_cumulants`` runs the replicas in min(reps, usable CPUs)
processes: the caller runs the first contiguous share and forked workers
the others, each returning its six sums through a pipe.  Integer sums are
exact in any order, so the estimate is the serial one, byte for byte, on
any number of CPUs.  Forking is cheaper than a fresh interpreter's
imports, and safe: the program starts no Python threads, and the workers
call no BLAS routine.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .numerics import InputError, SolverError, require_positive
from .stationary import ModelParams, float64_current, rate_u
from . import asymptotics

if TYPE_CHECKING:
    import numpy as np

_DRAW_BLOCK = 1024   # events per block of uniforms drawn from the stream
# the most events a request may ask for: about an hour of one CPU at
# N = 64 (5.6e5 events/s), half an hour at N = 16 (1.0e6 events/s)
EVENT_BUDGET = 2 * 10 ** 9
_RECOMPUTE_BELOW = 1e-6   # f of _gillespie


def _gillespie(n, ut, duration, rng, hist):
    """Run one window of length duration from t = 0, modifying the lists n
    and hist in place; hist[m] gains the time site 0 held m particles.
    Returns the event count, also the displacement, as every event moves
    one particle one site forward.

    Each event takes two uniforms from rng, drawn _DRAW_BLOCK events at a
    time: the first sets the waiting time, the second picks the first site
    whose cumulative rate exceeds it times R.  The site picked always has
    a positive rate.

    R is summed afresh at the top of each block and updated by
    R += ra - rates[site] + rb - rates[j] within it.  The sum errs by at
    most N u of itself (u = 2^-53), and an update, four roundings of sums
    below R + R' (R' the new total), by 8u max(R, R'), so R stays within
    (N + 8 _DRAW_BLOCK) u of the block's largest total.  An update that
    takes R below f = _RECOMPUTE_BELOW of its previous value, where that
    total would dwarf R, sums R afresh: at q = 1e17 a particle leaving a
    pair takes R from 1e17 to about p, which the running sum would round
    to nothing.
    """
    N = len(n)
    rates = [ut[m] for m in n]
    log = math.log
    below = _RECOMPUTE_BELOW
    following = [*range(1, N), 0]   # site i's particles hop to i + 1
    t = 0.0
    events = 0
    while True:
        R = sum(rates)
        draws = rng.random(2 * _DRAW_BLOCK).tolist()
        for w, v in zip([log(1.0 - d) for d in draws[0::2]], draws[1::2]):
            tn = t - w / R
            if tn >= duration:
                hist[n[0]] += duration - t
                return events
            hist[n[0]] += tn - t
            t = tn
            u = v * R
            acc = 0.0
            for site, r in enumerate(rates):
                acc += r
                if acc > u:
                    break
            else:   # rounding left the sum at or below u: last occupied
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


def _event_rate(params: ModelParams, rates: tuple) -> float:
    """A bound on J, a stationary replica's events per unit time: p at
    q = 1; min(N, p) occupied sites at the largest rate for q < 1; for
    q > 1, where that overshoots by the rates' growth, J itself."""
    N, p, q = params.N, params.p, params.q
    if q == 1:
        return p
    if q < 1:
        return min(N, p) * max(rates)
    return float64_current(params)


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
        # a replica draws at least one block in each of its two windows
        work = self.reps * ((self.burn_time + self.t_measure)
                            * _event_rate(params, rates) + 2 * _DRAW_BLOCK)
        if work > EVENT_BUDGET:
            raise InputError(
                f"the request asks for about {work:.2g} events, each replica "
                f"{2 * _DRAW_BLOCK} plus (t_burn + t_measure) times a rate "
                f"bound, above simulate's budget of {EVENT_BUDGET:.0e}")
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

    init_rng, kernel_rng = (
        np.random.default_rng(s) for s in
        np.random.SeedSequence([int(cfg.seed), int(rep_index)]).spawn(2))
    n = initial_config(cfg, init_rng).tolist()
    Y_burn = _gillespie(n, cfg.rates, cfg.burn_time, kernel_rng,
                        [0.0] * len(cfg.rates))
    hist = [0.0] * len(cfg.rates)   # one slot per occupation 0..p
    events = Y_burn + _gillespie(n, cfg.rates, cfg.t_measure, kernel_rng,
                                 hist)
    return TrajectoryResult(Y_burn=Y_burn, events=events, hist=np.array(hist))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return os.cpu_count() or 1


def _replica_sums(cfg: SimConfig, reps: range) -> tuple:
    """(count, sum W, sum W^2, sum W^3, sum W^4, sum of events) over the
    replicas in reps, as ints, with W = events - Y_burn a replica's
    displacement over its measuring window."""
    sums = [0] * 6
    for rep in reps:
        traj = run_trajectory(cfg, rep)
        w = traj.events - traj.Y_burn
        terms = (1, w, w * w, w ** 3, w ** 4, traj.events)
        sums = [a + b for a, b in zip(sums, terms)]
    return tuple(sums)


def _fork_share(cfg: SimConfig, share: range) -> tuple:
    """Fork a worker that runs share and writes its sums, or the
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
            result = _replica_sums(cfg, share)
        except BaseException as exc:   # re-raised by _worker_result
            result = exc
        data = pickle.dumps(result)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _worker_result(pid: int, read: int) -> tuple:
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
    """J_hat and Delta_hat with their replica-jackknife standard errors,
    from the replicas' integer power sums.

    With R replicas, mean m and d_i = W_i - m, the central moments
    M2 = sum d_i^2 = S2 - m S1 and
    M4 = sum d_i^4 = S4 - 4 m S3 + 6 m^2 S2 - 3 m^3 S1, with Sk = sum W^k,
    are formed exactly as Fractions.
    Leaving replica i out gives the mean m - d_i/(R - 1), and (expanding
    the square about m, as sum d_j = 0) the unbiased variance
    s_i = (M2 - R d_i^2/(R - 1))/(R - 2).  The jackknife variance of a
    statistic is (R - 1)/R sum (theta_i - mean theta)^2, so:

    - the mean's deviations are -d_i/(R - 1), and its se^2 is
      M2 / (R (R - 1));
    - the variance's leave-one-out values average M2/(R - 1), the full
      estimate, and deviate by -R (d_i^2 - M2/R) / ((R - 1)(R - 2)), so
      its se^2 is (R M4 - M2^2) / ((R - 1)(R - 2)^2).

    Both, and Delta_hat = M2/(R - 1), are divided by t_measure (t^2 for
    the squares).  Each quotient of moments is exact until one rounding
    to float64; the square root and the division by t_measure add one
    rounding each.  J_hat = float(m)/t_measure.
    """
    # one contiguous share of the replicas per process (module docstring)
    procs = min(cfg.reps, _usable_cpus()) if hasattr(os, "fork") else 1
    bounds = [cfg.reps * w // procs for w in range(procs + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    workers = []
    try:
        for share in shares[1:]:
            workers.append(_fork_share(cfg, share))
        sums = [_replica_sums(cfg, shares[0])]
        sums += [_worker_result(*worker) for worker in workers]
    finally:
        import signal

        # a worker whose pipe was read to its end is exiting; after a
        # failure the others are stopped rather than waited for
        for pid, read in workers:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    R, s1, s2, s3, s4, total_events = map(sum, zip(*sums))
    t = cfg.t_measure
    mean = Fraction(s1, R)
    m2 = s2 - mean * s1
    m4 = s4 - mean * (4 * s3 - mean * (6 * s2 - 3 * mean * s1))
    return SimEstimate(
        J_hat=float(mean) / t,
        se_J=math.sqrt(m2 / (R * (R - 1))) / t,
        Delta_hat=float(m2 / (R - 1)) / t,
        se_D=math.sqrt((R * m4 - m2 ** 2) / ((R - 1) * (R - 2) ** 2)) / t,
        reps=cfg.reps, total_events=total_events)
