"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
reports.  Every tolerance below is fixed here, not tuned at runtime.
"""

import json
import math
import time
from fractions import Fraction as F

import mpmath
import numpy as np

from qboson.numerics import FloatBackend, qvalue
from qboson.stationary import ModelParams, model
from qboson.cumulants import (delta_exact_resummed, delta_exact_truncated,
                              delta_fss_estimate)
from qboson.oracle import lambda_derivatives
from qboson.asymptotics import (crossover_F, crossover_prediction,
                                kpz_coefficient, saddle_data)
from qboson.simulate import SimConfig, estimate_cumulants
from qboson.tq import build_first_order, verify_first_order
from qboson.cli import main as cli_main


def report(num: int, detail: str):
    print(f"[criterion {num:2d}] PASS  {detail}")


def test_criterion_01_closed_form_anchors():
    t0 = time.perf_counter()
    for N in range(1, 9):
        for q in (F(-1, 2), F(0), F(1, 3), F(1, 2), F(2), F(3)):
            res = delta_exact_resummed(model(N, 1, q))
            assert res.J == 1 and res.Delta == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"J(N,1)=Delta(N,1)=1 exactly on 8x6 grid ({elapsed:.2f}s)")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4))
    for N, p in pairs:
        for q in (F(-1, 2), F(0), F(1, 2), F(2)):
            m = model(N, p, q)
            res = delta_exact_resummed(m)
            orc = lambda_derivatives(m)
            assert res.J - orc.J == 0
            assert res.Delta - orc.Delta == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"formula == spectral oracle exactly on {len(pairs)}x4 grid "
              f"({elapsed:.2f}s)")


def test_criterion_03_two_particle_current():
    for q in (F(1, 2), F(2)):
        for N in range(1, 11):
            expected = F(2 * N) / (N + (1 - q) / (1 + q))
            assert delta_exact_resummed(model(N, 2, q)).J == expected
    report(3, "J(N,2) closed form exact for N=1..10, q in {1/2, 2}")


def test_criterion_04_two_particle_limit():
    t0 = time.perf_counter()
    be = FloatBackend(256)
    targets = {(1, 2): 2 + 2 / 27, (0, 1): 8 / 3}
    for (num, den), target in targets.items():
        q = qvalue(be.ratio(num, den), be)
        xs, ys = [], []
        for N in (50, 100, 200):
            d = delta_exact_resummed(ModelParams(N=N, p=2, q=q))
            xs.append(1.0 / N)
            ys.append(float(d.Delta))
        extrapolated = float(np.polyfit(xs, ys, 2)[-1])
        assert abs(extrapolated - target) / target < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"Delta(inf,2) extrapolation within 1% at q=1/2 and q=0 "
              f"({elapsed:.2f}s)")


def test_criterion_05_unity_degeneration():
    for N, p in ((2, 2), (3, 2), (3, 3)):
        orc = lambda_derivatives(model(N, p, F(1)))
        assert abs(orc.J - p) <= 1e-10
        assert abs(orc.Delta - p) <= 1e-10
    report(5, "oracle gives J=Delta=p at q=1 to 1e-10")


def test_criterion_06_kpz_scaling():
    t0 = time.perf_counter()
    be = FloatBackend(256)
    q = qvalue(be.ratio(1, 2), be)
    sd = saddle_data(1.0, qvalue(F(1, 2)))
    K = kpz_coefficient(sd)
    devs = []
    for N in (16, 32, 64):
        d = delta_exact_resummed(ModelParams(N=N, p=N, q=q))
        devs.append(abs(float(d.Delta) / N ** 1.5 - K) / K)
    assert devs[1] < devs[0] and devs[2] < devs[1]
    assert devs[2] <= 0.15
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(6, f"Delta/N^1.5 -> K={K:.5f}, deviations {devs[0]:.3f} > "
              f"{devs[1]:.3f} > {devs[2]:.3f} <= 0.15 ({elapsed:.1f}s)")


def test_criterion_07_crossover():
    t0 = time.perf_counter()
    be = FloatBackend(256)
    prediction = crossover_prediction(1.0, 1.0).prediction
    final_devs = {}
    for alpha in (1.0, -1.0):
        devs = []
        for N in (16, 36, 64, 100):
            with be.workprec():
                qs = mpmath.exp(-be.integer(1) * alpha / mpmath.sqrt(N))
            d = delta_exact_resummed(ModelParams(N=N, p=N,
                                                 q=qvalue(qs, be)))
            devs.append(abs(float(d.Delta) / N - prediction) / prediction)
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)), devs
        assert devs[-1] <= 0.10
        final_devs[alpha] = devs[-1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, f"Delta/N -> rho*F(8)={prediction:.5f}; final deviations "
              f"{final_devs[1.0]:.3f} (q<1) and {final_devs[-1.0]:.3f} (q>1) "
              f"<= 0.10, strictly decreasing ({elapsed:.1f}s)")


def test_criterion_08_crossover_limits():
    small = crossover_F(1e-6)
    large = crossover_F(1e6) / 1e3
    assert abs(small - 1.0) <= 1e-3
    assert abs(large - math.sqrt(math.pi) / (8 * math.sqrt(2))) <= 1e-3
    report(8, f"F(1e-6)={small:.6f} (=1 +- 1e-3), F(1e6)/1e3={large:.6f} "
              f"(= sqrt(pi)/(8 sqrt(2)) +- 1e-3)")


def test_criterion_09_fss_estimate():
    payload = {}
    for q in (F(0), F(1, 2)):
        gaps = []
        for N in (8, 16, 32):
            m = model(N, N, q)
            d = delta_exact_resummed(m).Delta
            est = delta_fss_estimate(m)
            gaps.append(float(N * abs(d - est) / N ** 2))
        assert all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1)), gaps
        assert max(gaps) < 10.0
        payload[q] = gaps
    report(9, f"N*|Delta - fss|/N^2 non-increasing: q=0 {payload[F(0)]}, "
              f"q=1/2 {[f'{g:.4f}' for g in payload[F(1, 2)]]}")


def test_criterion_10_tq_verification():
    t0 = time.perf_counter()
    for q in (F(-1, 2), F(1, 3), F(1, 2), F(2), F(3)):
        for N in range(1, 7):
            for p in range(1, 7):
                first = build_first_order(model(N, p, q))
                ok, _ = verify_first_order(first)
                assert ok
                assert first.lambda1 == first.J
                assert sum(first.Q1.coeffs) == p
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, f"first-order identity residual 0, lambda1=J, Q1(1)=p on "
               f"6x6x5 grid ({elapsed:.2f}s)")


def test_criterion_11_monte_carlo(capsys):
    t0 = time.perf_counter()
    m = model(8, 8, F(1, 2))
    cfg = SimConfig(params=m, t_measure=2000.0, reps=200, seed=20260810)
    est = estimate_cumulants(cfg)
    exact = delta_exact_resummed(m)
    zJ = abs(est.J_hat - float(exact.J)) / est.se_J
    zD = abs(est.Delta_hat - float(exact.Delta)) / est.se_D
    assert zJ <= 3.0
    assert zD <= 3.0

    args = ["simulate", "--n", "8", "--p", "8", "--q", "1/2", "--seed",
            "20260810", "--reps", "10", "--t-measure", "100"]
    assert cli_main(args) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and json.loads(out1)["result"]["seed"] == 20260810
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(11, f"J_hat within {zJ:.2f} se, Delta_hat within {zD:.2f} se "
                   f"of exact; rerun byte-identical ({elapsed:.1f}s)")


def test_criterion_12_resummation_vs_truncation():
    # exact equality up to the geometric tail cannot hold literally at
    # finite i_max; at i_max = 200 the bound is below any representable
    # discrepancy of interest and the rational gap must sit inside it
    for N, p, q in ((2, 2, F(1, 2)), (3, 2, F(2)), (2, 3, F(-1, 2))):
        m = model(N, p, q)
        res = delta_exact_resummed(m)
        tr = delta_exact_truncated(m, 200)
        gap = abs(F(tr.Delta - res.Delta))
        assert gap <= F(tr.tail_bound)
        assert float(gap) <= 1e-12
    be = FloatBackend(256)
    mf = ModelParams(N=3, p=3, q=qvalue(be.ratio(1, 2), be))
    rf = delta_exact_resummed(mf)
    tf = delta_exact_truncated(mf, 200)
    with be.workprec():
        assert abs(float(tf.Delta - rf.Delta)) <= 1e-12
    report(12, "resummed == truncated(200) within geometric tail (rational) "
               "and to 1e-12 (256-bit float)")
