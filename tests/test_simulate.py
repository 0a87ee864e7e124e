import math
import os
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import asymptotics, simulate
from qboson.cli import main
from qboson.numerics import InputError, SolverError
from qboson.stationary import compute_stationary, model
from qboson.cumulants import delta_exact_resummed
from qboson.simulate import (SimConfig, TrajectoryResult, _gillespie,
                             estimate_cumulants, initial_config,
                             run_trajectory)
from test_stationary import one_site_weights, site_marginal


def request(N, p, q, **window):
    """A SimConfig of the model (N, p, q), whose set-up tests read."""
    return SimConfig(params=model(N, p, q), **({"t_measure": 1.0, "reps": 3,
                                                "seed": 1} | window))


def mean_stat(vals):
    return math.fsum(vals) / len(vals)


def var_stat(vals):
    m = math.fsum(vals) / len(vals)
    return math.fsum((v - m) ** 2 for v in vals) / (len(vals) - 1)


def jackknife_se(values, statistic):
    """The replica jackknife by its definition: statistic on each of the
    len(values) leave-one-out copies, O(R^2) work."""
    n = len(values)
    thetas = [statistic(values[:i] + values[i + 1:]) for i in range(n)]
    mean_t = math.fsum(thetas) / n
    var = (n - 1) / n * math.fsum((t - mean_t) ** 2 for t in thetas)
    return math.sqrt(var)


class TestConfigValidation:
    def test_rejects_bad_windows(self):
        m = model(2, 2, F(1, 2))
        with pytest.raises(Exception):
            SimConfig(params=m, t_measure=0.0, reps=4, seed=1)
        with pytest.raises(Exception):
            SimConfig(params=m, t_measure=1.0, reps=1, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError):
            SimConfig(params=model(2, 2, F(1, 2)), t_measure=1.0, reps=3,
                      seed=-1)

    @pytest.mark.parametrize("window", [
        {"t_measure": float("nan")}, {"t_measure": float("inf")},
        {"t_measure": 1.0, "t_burn": float("nan")},
        {"t_measure": 1.0, "t_burn": float("inf")},
        {"t_measure": 1.0, "t_burn": 0.0},
    ])
    def test_rejects_nonfinite_windows(self, window):
        # a NaN window never ends: the kernel would run forever
        with pytest.raises(InputError):
            SimConfig(params=model(2, 2, F(1, 2)), reps=3, seed=1, **window)

    @pytest.mark.parametrize("q", [F(1, 2), F(-1, 2), F(1), F(2), F(7),
                                   F(10001, 10000), F(10 ** 17)])
    def test_event_rate_bounds_j(self, q):
        # an upper bound on J below q = 1 and at it; J itself above
        m = model(6, 9, q)
        J = float(compute_stationary(m, 9).J)
        rates = [float(simulate.rate_u(k, m)) for k in range(10)]
        rate = simulate._event_rate(m, rates)
        assert rate == pytest.approx(J, rel=1e-12) if q > 1 else rate >= J

    def test_default_burn_in(self):
        m = model(6, 3, F(1, 2))
        cfg = SimConfig(params=m, t_measure=10.0, reps=3, seed=1)
        assert cfg.burn_time == 360.0


class TestInitialConfig:
    @pytest.mark.parametrize("q", ["1/2", "1", "2", "-1/2"])
    def test_stationary_start_conserves_particles(self, q):
        n = initial_config(request(5, 7, F(q)), np.random.default_rng(3))
        assert n.sum() == 7
        assert (n >= 0).all()

    @pytest.mark.parametrize("q", ["1/2", "1", "2", "-1/2"])
    def test_start_weights_are_the_product_measure(self, q):
        # f(m) z^m / sum_k f(k) z^k in Fraction, at the float z
        m = model(5, 7, F(q))
        z = F(1.4 if m.q == 1 else asymptotics.saddle_point(1.4, m.q))
        exact = [f * z ** k for k, f in enumerate(one_site_weights(m, 7))]
        got = request(5, 7, F(q)).start_weights
        assert len(got) == 8
        for w, e in zip(got, exact):
            assert abs(F(w) / (e / sum(exact)) - 1) < 1e-12

    def test_set_up_once_per_request(self, monkeypatch):
        # the rate table is built once, not once per replica
        calls = []
        rate_u = simulate.rate_u

        def counted(n, params):
            calls.append(n)
            return rate_u(n, params)

        monkeypatch.setattr(simulate, "rate_u", counted)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        estimate_cumulants(request(4, 6, F(1, 2), t_measure=2.0, reps=8))
        assert sorted(calls) == list(range(7))


class TestTrajectories:
    def test_determinism(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=50.0, reps=3, seed=9)
        a = run_trajectory(cfg, 0)
        b = run_trajectory(cfg, 0)
        assert (a.Y_burn, a.events) == (b.Y_burn, b.events)
        assert np.array_equal(a.hist, b.hist)

    def test_replicas_differ(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=50.0, reps=3, seed=9)
        assert run_trajectory(cfg, 0).events != run_trajectory(cfg, 1).events

    def test_counters_monotone(self):
        m = model(3, 2, F(1, 2))
        cfg = SimConfig(params=m, t_measure=40.0, reps=3, seed=2)
        traj = run_trajectory(cfg, 0)
        assert 0 <= traj.Y_burn <= traj.events

    def test_histogram_matches_marginal(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=50_000.0, reps=3, seed=11,
                        t_burn=200.0)
        traj = run_trajectory(cfg, 0)
        hist = traj.hist / traj.hist.sum()
        exact = np.array([float(x) for x in site_marginal(m)])
        chi2 = float(np.sum((hist - exact) ** 2 / exact))
        assert chi2 < 5e-4
        assert np.max(np.abs(hist - exact)) < 0.01


class SiteUniforms:
    """A stand-in for np.random.Generator whose site uniforms all equal
    one value; 0.0 and 1 - 2^-53 are the ends of rng.random's range."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        draws = np.full(size, 0.5)
        draws[1::2] = self.value
        return draws


class TestKernel:
    def test_zero_uniform_moves_from_an_occupied_site(self):
        # R = u(2) + u(1) = 5/2 and each wait is log(2)/R = 0.277, so a
        # window of 0.4 allows one event; site 0 is empty throughout
        n = [0, 2, 1]
        hist = [0.0] * 4
        events = _gillespie(n, request(3, 3, F(1, 2)).rates, 0.4,
                            SiteUniforms(0.0), hist)
        assert events == 1
        assert n == [0, 1, 2]
        assert hist == [0.4, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("value,n,q", [
        (0.0, [0, 0, 3, 0, 1], F(2)),
        # the incrementally kept R can drift above the summed rates, so
        # u = v R can exceed every cumulative rate; the site picked then
        # must be an occupied one, not the last site, which may be empty
        (1 - 2.0 ** -53, [2, 2, 2, 0], F(3, 10)),
    ])
    def test_extreme_uniforms_keep_occupations_nonnegative(self, value, n,
                                                           q):
        p = sum(n)
        _gillespie(n, request(len(n), p, q).rates, 300.0,
                   SiteUniforms(value), [0.0] * (p + 1))
        assert sum(n) == p and min(n) >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(
               lambda n: 1 <= sum(n) <= 8),
           st.sampled_from([F(1, 2), F(-1, 2), F(2), F(1)]),
           st.floats(0.01, 5.0), st.integers(0, 2 ** 32 - 1))
    def test_window_keeps_particles_and_time(self, n, q, duration, seed):
        # site 0's histogram covers the window: it sums to the duration
        p = sum(n)
        hist = [0.0] * (p + 1)
        _gillespie(n, request(len(n), p, q).rates, duration,
                   np.random.default_rng(seed), hist)
        assert sum(n) == p and min(n) >= 0
        assert abs(math.fsum(hist) - duration) <= 1e-12 * duration


class TestReplicaPool:
    # three usable CPUs on any host: two forked workers and the caller
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)

    @pytest.mark.parametrize("q", [F(1, 2), F(2), F(-1, 2)])
    def test_equals_serial_loop(self, q, monkeypatch):
        cfg = SimConfig(params=model(5, 6, q), t_measure=30.0, reps=8,
                        seed=13, t_burn=2.0)
        est = estimate_cumulants(cfg)
        trajs = [run_trajectory(cfg, rep) for rep in range(cfg.reps)]
        windows = [float(tr.events - tr.Y_burn) for tr in trajs]
        assert est.total_events == sum(tr.events for tr in trajs)
        assert est.J_hat == math.fsum(windows) / cfg.reps / cfg.t_measure
        assert est.se_J == pytest.approx(
            jackknife_se(windows, mean_stat) / cfg.t_measure, rel=1e-12)
        assert est.se_D == pytest.approx(
            jackknife_se(windows, var_stat) / cfg.t_measure, rel=1e-12)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        assert est == estimate_cumulants(cfg)

    @pytest.mark.parametrize("reps,cpus,forks", [
        (8, 3, 2), (3, 5, 2), (4, 2, 1), (4, 1, 0),
    ])
    def test_worker_count(self, reps, cpus, forks, monkeypatch):
        made = []
        fork = os.fork

        def counted():
            made.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        estimate_cumulants(SimConfig(params=model(3, 3, F(1, 2)),
                                     t_measure=5.0, reps=reps, seed=1))
        assert len(made) == forks

    @staticmethod
    def assert_no_child_process():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_process_remains(self):
        estimate_cumulants(SimConfig(params=model(4, 4, F(1, 2)),
                                     t_measure=10.0, reps=6, seed=2))
        self.assert_no_child_process()

    def test_worker_error_surfaces(self, monkeypatch):
        caller = os.getpid()

        def fails_in_workers(cfg, rng):
            if os.getpid() != caller:
                raise SolverError("initialiser failed in a worker")
            return initial_config(cfg, rng)

        monkeypatch.setattr(simulate, "initial_config", fails_in_workers)
        cfg = SimConfig(params=model(4, 4, F(1, 2)), t_measure=10.0, reps=6,
                        seed=3)
        with pytest.raises(SolverError, match="in a worker"):
            estimate_cumulants(cfg)
        assert main(["simulate", "--n", "4", "--p", "4", "--q", "1/2",
                     "--reps", "6", "--t-measure", "10"]) == 4
        self.assert_no_child_process()

    def test_local_closure_as_run_trajectory(self, monkeypatch):
        # as perfbench's tracer wraps it: a closure cannot be pickled
        cfg = SimConfig(params=model(4, 4, F(1, 2)), t_measure=10.0, reps=6,
                        seed=4)
        expected = estimate_cumulants(cfg)
        calls = []

        def wrapper(*args):
            calls.append(args[1])
            return run_trajectory(*args)

        monkeypatch.setattr(simulate, "run_trajectory", wrapper)
        assert estimate_cumulants(cfg) == expected
        assert calls == [0, 1]   # the caller's share


WINDOW = st.integers(0, 2 ** 40)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           st.lists(WINDOW, min_size=3, max_size=60),
           # all equal, and all equal but one outlier
           st.tuples(WINDOW, st.integers(3, 60)).map(lambda c: [c[0]] * c[1]),
           st.tuples(WINDOW, WINDOW, st.integers(2, 59)).map(
               lambda c: [c[0]] * c[2] + [c[1]])),
       st.floats(0.01, 1000.0))
def test_closed_forms_equal_the_leave_one_out_jackknife(windows, t):
    # replicas with the given windows stand in for the kernel
    def trajectory(cfg, rep):
        return TrajectoryResult(Y_burn=0, events=windows[rep], hist=None)

    cfg = SimConfig(params=model(2, 2, F(1, 2)), t_measure=t,
                    reps=len(windows), seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "run_trajectory", trajectory)
        mp.setattr(simulate, "_usable_cpus", lambda: 1)
        est = estimate_cumulants(cfg)
    assert est.J_hat == math.fsum(windows) / len(windows) / t
    assert est.total_events == sum(windows)
    # both statistics' jackknife is blind to a common shift of W; the
    # reference gets the windows above their least, as it rounds each
    # leave-one-out mean at the windows' own magnitude.  Where every d_i^2
    # is about equal the variance's se is near 0, and the reference's
    # rounding of each leave-one-out value, near 2^-52 Delta_hat, is all
    # that remains
    low = min(windows)
    shifted = [float(w - low) for w in windows]
    assert est.Delta_hat == pytest.approx(var_stat(shifted) / t, rel=1e-12)
    assert est.se_J == pytest.approx(jackknife_se(shifted, mean_stat) / t,
                                     rel=1e-12)
    assert est.se_D == pytest.approx(jackknife_se(shifted, var_stat) / t,
                                     rel=1e-12, abs=1e-12 * est.Delta_hat)


class TestEstimates:
    def test_single_free_particle_poisson(self):
        # p = 1: Y_t is Poisson(t) regardless of N and q
        m = model(5, 1, F(1, 2))
        cfg = SimConfig(params=m, t_measure=400.0, reps=60, seed=21)
        est = estimate_cumulants(cfg)
        assert abs(est.J_hat - 1.0) < 4 * est.se_J
        assert abs(est.Delta_hat - 1.0) < 4 * est.se_D

    def test_unity_poisson(self):
        # q = 1: Y_t is Poisson(p t)
        m = model(3, 3, F(1))
        cfg = SimConfig(params=m, t_measure=300.0, reps=60, seed=22)
        est = estimate_cumulants(cfg)
        assert abs(est.J_hat - 3.0) < 4 * est.se_J
        assert abs(est.Delta_hat - 3.0) < 4 * est.se_D

    def test_single_site_poisson(self):
        # N = 1, p = 2: constant rate u(2) = 3/2
        m = model(1, 2, F(1, 2))
        cfg = SimConfig(params=m, t_measure=300.0, reps=60, seed=23,
                        t_burn=1.0)
        est = estimate_cumulants(cfg)
        assert abs(est.J_hat - 1.5) < 4 * est.se_J
        assert abs(est.Delta_hat - 1.5) < 4 * est.se_D

    def test_interacting_case_matches_exact(self):
        m = model(8, 8, F(1, 2))
        cfg = SimConfig(params=m, t_measure=2000.0, reps=100, seed=42)
        est = estimate_cumulants(cfg)
        ex = delta_exact_resummed(m)
        assert abs(est.J_hat - float(ex.J)) < 4 * est.se_J
        assert abs(est.Delta_hat - float(ex.Delta)) < 4 * est.se_D

    def test_estimate_determinism(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=100.0, reps=8, seed=5)
        assert estimate_cumulants(cfg) == estimate_cumulants(cfg)

    def test_global_rng_untouched(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=20.0, reps=3, seed=6)
        before = np.random.get_state()
        estimate_cumulants(cfg)
        after = np.random.get_state()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_saddle_point_once_per_estimate(self, monkeypatch):
        calls = []
        saddle_point = asymptotics.saddle_point

        def counted(*args, **kwargs):
            calls.append(args)
            return saddle_point(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "saddle_point", counted)
        m = model(5, 4, F(1, 3))
        cfg = SimConfig(params=m, t_measure=5.0, reps=8, seed=7, t_burn=1.0)
        estimate_cumulants(cfg)
        assert len(calls) <= 1
