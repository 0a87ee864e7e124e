from fractions import Fraction as F

import numpy as np
import pytest

from qboson import asymptotics
from qboson.numerics import InputError
from qboson.stationary import model
from qboson.cumulants import delta_exact_resummed
from qboson.simulate import (SimConfig, estimate_cumulants, initial_config,
                             run_trajectory)
from test_stationary import site_marginal


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

    def test_default_burn_in(self):
        m = model(6, 3, F(1, 2))
        cfg = SimConfig(params=m, t_measure=10.0, reps=3, seed=1)
        assert cfg.burn_time == 360.0


class TestInitialConfig:
    @pytest.mark.parametrize("q", ["1/2", "1", "2", "-1/2"])
    def test_stationary_start_conserves_particles(self, q):
        n = initial_config(model(5, 7, F(q)), np.random.default_rng(3))
        assert n.sum() == 7
        assert (n >= 0).all()


class TestTrajectories:
    def test_determinism(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=50.0, reps=3, seed=9)
        a = run_trajectory(cfg, 0)
        b = run_trajectory(cfg, 0)
        assert (a.Y_burn, a.Y_end, a.events) == (b.Y_burn, b.Y_end, b.events)
        assert np.array_equal(a.hist, b.hist)

    def test_replicas_differ(self):
        m = model(4, 4, F(1, 2))
        cfg = SimConfig(params=m, t_measure=50.0, reps=3, seed=9)
        assert run_trajectory(cfg, 0).Y_end != run_trajectory(cfg, 1).Y_end

    def test_counters_monotone(self):
        m = model(3, 2, F(1, 2))
        cfg = SimConfig(params=m, t_measure=40.0, reps=3, seed=2)
        traj = run_trajectory(cfg, 0)
        assert 0 <= traj.Y_burn <= traj.Y_end == traj.events

    def test_rate_bookkeeping_drift(self):
        # long enough to cross the resync threshold at least once
        m = model(8, 8, F(1, 2))
        cfg = SimConfig(params=m, t_measure=220_000.0, reps=3, seed=4,
                        t_burn=10.0)
        traj = run_trajectory(cfg, 0)
        assert traj.events > (1 << 20)
        assert traj.max_rate_drift <= 1e-9

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
