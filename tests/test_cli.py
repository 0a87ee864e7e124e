import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qboson
from qboson import cumulants, numerics, stationary, tq
from qboson.cli import FLAGS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def stdout_of(argv):
    """The stdout of one request that exits 0, without a pytest fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's int/str conversion digit limit where it exists."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


class TestExact:
    def test_rational_output(self, capsys):
        doc = run_json(capsys, "exact", "--n", "4", "--p", "2", "--q", "1/2")
        assert doc["schema"] == 1
        assert doc["backend"] == {"kind": "rational"}
        assert doc["result"]["J"] == "24/13"
        assert doc["result"]["Z"] == "26/3"
        assert doc["request"]["command"] == "exact"

    def test_single_particle_anchor(self, capsys):
        doc = run_json(capsys, "exact", "--n", "1", "--p", "1", "--q", "1/3")
        assert doc["result"]["J"] == "1/1"
        assert doc["result"]["Delta"] == "1/1"

    def test_unity(self, capsys):
        doc = run_json(capsys, "exact", "--n", "3", "--p", "2", "--q", "1")
        assert doc["result"]["J"] == "2/1"
        assert doc["result"]["Delta"] == "2/1"

    def test_rho_alternative(self, capsys):
        doc = run_json(capsys, "exact", "--n", "4", "--rho", "1/2",
                       "--q", "1/2")
        assert doc["result"]["p"] == 2
        assert doc["result"]["N"] == 4

    def test_decimal_q_forces_float(self, capsys):
        doc = run_json(capsys, "exact", "--n", "2", "--p", "2", "--q", "0.5")
        assert doc["backend"]["kind"] == "float"
        assert float(doc["result"]["Delta"]) == pytest.approx(
            1.749271137026239, rel=1e-12)

    def test_float_matches_rational(self, capsys):
        r = run_json(capsys, "exact", "--n", "3", "--p", "3", "--q", "1/2")
        f = run_json(capsys, "exact", "--n", "3", "--p", "3", "--q", "1/2",
                     "--backend", "float")
        exact = F(r["result"]["Delta"])
        assert float(f["result"]["Delta"]) == pytest.approx(
            float(exact), rel=1e-30)

    def test_rational_output_of_any_size(self, capsys):
        # S1 and S2 have about 7700 digits above and below the line, past
        # CPython's default 4300-digit limit; the limit is left as it was
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        doc = run_json(capsys, "exact", "--n", "3", "--p", "24",
                       "--q", "999983/1000003")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        want = cumulants.delta_exact_resummed(
            stationary.model(3, 24, F(999983, 1000003)))
        assert want.S1.denominator > 10 ** 4300
        keys = ("Z", "J", "Delta", "pJ", "S1", "S2")
        with unlimited_int_digits():
            got = {key: F(doc["result"][key]) for key in keys}
        assert got == {key: getattr(want, key) for key in keys}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 30), st.integers(2, 60),
           st.data())
    def test_float_above_one_matches_rational(self, N, p, den, data):
        # small N, high density and q > 1 is where the F^N recurrence
        # cancels most; the float run must find a precision that passes
        q = F(data.draw(st.integers(den + 1, 3 * den - 1)), den)
        argv = ["exact", "--n", str(N), "--p", str(p), "--q", str(q)]
        got, want = (json.loads(stdout_of(argv + extra))["result"]
                     for extra in (["--backend", "float"], []))
        for key in ("J", "Delta"):
            assert float(got[key]) == pytest.approx(float(F(want[key])),
                                                    rel=1e-12)

    def test_byte_identical_rerun(self, capsys):
        _, out1 = run_cli(capsys, "exact", "--n", "5", "--p", "3",
                          "--q", "2/3")
        _, out2 = run_cli(capsys, "exact", "--n", "5", "--p", "3",
                          "--q", "2/3")
        assert out1 == out2

    def test_bad_q_exits_2(self, capsys):
        code, _ = run_cli(capsys, "exact", "--n", "2", "--p", "2",
                          "--q=-3/2")
        assert code == 2

    def test_negative_q_accepted(self, capsys):
        doc = run_json(capsys, "exact", "--n", "3", "--p", "2", "--q=-1/2")
        assert doc["result"]["Delta"] == "5/3"

    def test_negative_q_as_separate_token(self, capsys):
        _, joined = run_cli(capsys, "exact", "--n", "3", "--p", "3",
                            "--q=-1/2")
        code, split = run_cli(capsys, "exact", "--n", "3", "--p", "3",
                              "--q", "-1/2")
        assert code == 0
        assert split == joined

    @pytest.mark.parametrize("q", ["-1e-3", "-1E-2", "-0.5"])
    def test_negative_decimal_q_as_separate_token(self, capsys, q):
        # argparse alone takes '-1e-3' for an option name and exits 2
        _, joined = run_cli(capsys, "exact", "--n", "2", "--p", "2",
                            f"--q={q}")
        code, split = run_cli(capsys, "exact", "--n", "2", "--p", "2",
                              "--q", q)
        assert code == 0
        assert split == joined

    def test_float_printed_at_computed_precision(self, capsys):
        doc = run_json(capsys, "exact", "--n", "2", "--p", "2", "--q", "1/2",
                       "--backend", "float")
        J = F(doc["result"]["J"])
        assert abs(J - F(12, 7)) <= F(12, 7) * F(1, 10 ** 70)

    @pytest.mark.parametrize("extra,builds", [
        (("--q", "1/2"), 1), (("--q", "1"), 1),
        (("--q", "1/2", "--backend", "float"), 1),
        (("--q", "1", "--backend", "float"), 1),
    ])
    def test_one_stationary_build_per_evaluation(self, capsys, monkeypatch,
                                                 extra, builds):
        # a float run accepted at 256 bits evaluates once, its error bound
        # formed in the same run; each build reads F^N to the degree it
        # needs: 2p - 1 = 5 for the series, p = 3 at q = 1
        degree = 3 if extra[1] == "1" else 5
        calls = []
        original = stationary.compute_stationary

        def counting(params, degree):
            calls.append(degree)
            return original(params, degree)

        for name, module in list(sys.modules.items()):
            if (name == "qboson" or name.startswith("qboson.")) and \
                    getattr(module, "compute_stationary", None) is original:
                monkeypatch.setattr(module, "compute_stationary", counting)
        run_json(capsys, "exact", "--n", "4", "--p", "3", *extra)
        assert calls == [degree] * builds

    def test_both_p_and_rho_rejected(self, capsys):
        code, _ = run_cli(capsys, "exact", "--n", "2", "--p", "2",
                          "--rho", "1", "--q", "1/2")
        assert code == 2

    def test_writes_file(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code, _ = run_cli(capsys, "exact", "--n", "2", "--p", "2",
                          "--q", "1/2", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["result"]["J"] == "12/7"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "res.json"
        code = main(["exact", "--n", "2", "--p", "2", "--q", "1/2",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot write --out "
                                       f"{str(out)!r}")

    def test_precision_failure_exits_3(self, capsys, monkeypatch):
        # passes at 512 bits only, so a cap of 256 bits must trip the
        # acceptance check and name the cap
        monkeypatch.setattr(numerics, "MAX_PREC_BITS", 256)
        code = main(["exact", "--n", "1", "--p", "24", "--q", "149/50",
                     "--backend", "float"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("precision failure: no precision up "
                                       "to 256 bits passed")

    @pytest.mark.parametrize("n,p,q,bits", [("1", "24", "149/50", 512),
                                            ("1", "40", "3", 2048)])
    def test_precision_escalates(self, capsys, monkeypatch, n, p, q, bits):
        # pJ + 2 N^2/Z^2 (S1 + S2) cancels about 430 and 1230 bits at
        # q > 1 and N = 1: each request's error bound is too wide at 256
        # bits, and narrow enough once the precision has doubled
        want = run_json(capsys, "exact", "--n", n, "--p", p, "--q", q)
        precisions = []
        compute = cumulants.compute_stationary

        def counted(params, degree):
            precisions.append(params.backend.prec_bits)
            return compute(params, degree)

        monkeypatch.setattr(cumulants, "compute_stationary", counted)
        got = run_json(capsys, "exact", "--n", n, "--p", p, "--q", q,
                       "--backend", "float")
        assert got["backend"] == {"kind": "float", "prec_bits": bits}
        # one series run per precision, up to the accepted one
        assert precisions == [2 ** k for k in range(8, bits.bit_length())]
        for key in ("J", "Delta"):
            assert float(got["result"][key]) == pytest.approx(
                float(F(want["result"][key])), rel=1e-12)

    def test_single_particle_float(self, capsys):
        # at p = 1 the series returns before it forms A_0, S1 or S2: it
        # reports S1 = S2 = 0 and Delta = pJ = J, with J = N Z(N, 0) /
        # Z(N, 1) = 1 up to the float rounding at this q
        doc = run_json(capsys, "exact", "--n", "3", "--p", "1",
                       "--q=-2/39", "--backend", "float")
        res = doc["result"]
        assert doc["backend"] == {"kind": "float", "prec_bits": 256}
        assert (res["S1"], res["S2"]) == ("0.0", "0.0")
        assert res["Delta"] == res["J"] == res["pJ"]
        assert abs(F(res["J"]) - 1) < F(1, 10 ** 70)

    def test_nonzero_a0_exits_4(self, capsys, monkeypatch):
        # A_0 = 0 is an identity; a rational A_0 off by 1 is a failed
        # construction, reported as exit 4 and not as a traceback
        sums = cumulants._sums

        def corrupted(*args):
            a0, *rest = sums(*args)
            # the last argument is sign: -1 for the values
            return (a0 + 1 if args[-1] == -1 else a0), *rest

        monkeypatch.setattr(cumulants, "_sums", corrupted)
        code = main(["exact", "--n", "4", "--p", "3", "--q", "1/2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("solver failure: internal identity "
                                       "violated: A_0 = 1 != 0")


class TestOracle:
    def test_matches_exact(self, capsys):
        a = run_json(capsys, "oracle", "--n", "3", "--p", "2", "--q", "1/2")
        b = run_json(capsys, "exact", "--n", "3", "--p", "2", "--q", "1/2")
        assert a["result"]["Delta"] == b["result"]["Delta"]

    def test_cap_guard(self, capsys):
        code, _ = run_cli(capsys, "oracle", "--n", "12", "--p", "12",
                          "--q", "1/2")
        assert code == 2
        # 6435 states: above the float oracle's cap of 3432
        assert main(["oracle", "--n", "9", "--p", "7", "--q", "1/2",
                     "--backend", "float"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "cap 3432" in captured.err

    def test_float_reports_float64(self, capsys):
        doc = run_json(capsys, "oracle", "--n", "3", "--p", "3", "--q", "1/2",
                       "--backend", "float")
        assert doc["backend"] == {"kind": "float64"}
        J = doc["result"]["J"]
        assert repr(float(J)) == J
        exact = run_json(capsys, "exact", "--n", "3", "--p", "3",
                         "--q", "1/2")
        assert float(J) == pytest.approx(float(F(exact["result"]["J"])),
                                         rel=1e-12)

    @pytest.mark.parametrize("q", ["1e200", "1e300", "1e308"])
    def test_float_rates_overflow_exits_2(self, capsys, q):
        # u(4) = 1 + q + q^2 + q^3 is infinite in float64, and so is R
        code = main(["oracle", "--n", "4", "--p", "4", "--q", q,
                     "--backend", "float"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "float64's largest value" in captured.err
        assert "rational backend" in captured.err


class TestSimulate:
    def test_runs_and_embeds_seed(self, capsys):
        doc = run_json(capsys, "simulate", "--n", "3", "--p", "3",
                       "--q", "1/2", "--seed", "5", "--reps", "8",
                       "--t-measure", "50", "--t-burn", "20")
        res = doc["result"]
        assert res["seed"] == 5
        assert res["reps"] == 8
        assert res["total_events"] > 0

    def test_byte_identical_rerun(self, capsys):
        args = ("simulate", "--n", "3", "--p", "2", "--q", "1/2", "--seed",
                "7", "--reps", "4", "--t-measure", "30", "--t-burn", "10")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_two_replicas_exit_2(self, capsys):
        # the jackknife error of the variance needs three replicas
        code = main(["simulate", "--n", "3", "--p", "3", "--q", "1/2",
                     "--reps", "2", "--t-measure", "10", "--t-burn", "5",
                     "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_high_density_above_one(self, capsys):
        # f(m) z^m spans beyond float64 here, and z^m alone overflows
        doc = run_json(capsys, "simulate", "--n", "2", "--p", "50", "--q",
                       "2", "--reps", "8", "--t-burn", "0.001",
                       "--t-measure", "0.002")
        res = doc["result"]
        J = stationary.compute_stationary(
            stationary.model(2, 50, F(2)), 50).J
        assert abs(res["J_hat"] - float(J)) < 3 * res["se_J"]

    def test_cancelling_total_rate_is_recomputed(self, capsys):
        # a pair's rate 1 + q = 1e17 leaves R at about p, below the spacing
        # of doubles near 1e17: the running total cancels to 0.0 unless the
        # kernel sums it afresh
        doc = run_json(capsys, "simulate", "--n", "4", "--p", "4", "--q",
                       "1e17", "--reps", "16", "--t-burn", "1",
                       "--t-measure", "100")
        res = doc["result"]
        J = stationary.compute_stationary(
            stationary.model(4, 4, F(10 ** 17)), 4).J
        assert abs(res["J_hat"] - float(J)) < 3 * res["se_J"]

    def test_rates_beyond_float64_exit_2(self, capsys):
        # u(1100) = 2^1100 - 1 has no float64; the set-up says so rather
        # than die with an OverflowError, as the float oracle does
        code = main(["simulate", "--n", "2", "--p", "1100", "--q", "2",
                     "--reps", "3", "--t-burn", "1e-300",
                     "--t-measure", "1e-300"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the rates at q = 2 exceed "
                                       "float64")

    def test_work_above_budget_exits_2(self, capsys):
        # J is about 4e12 here: 16 replicas of 0.002 ask for 1.3e11 events,
        # refused before any replica runs
        t0 = time.perf_counter()
        code = main(["simulate", "--n", "2", "--p", "6", "--q", "1e6",
                     "--reps", "16", "--t-burn", "0.001",
                     "--t-measure", "0.001"])
        captured = capsys.readouterr()
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the request asks for about "
                                       "1.3e+11 events")

    def test_replica_count_above_budget_exits_2(self, capsys):
        # windows of 1e-9 hold almost no events, but each replica draws a
        # block of 1024 event pairs in each of its two windows
        t0 = time.perf_counter()
        code = main(["simulate", "--n", "4", "--p", "4", "--q", "1/2",
                     "--reps", "10000000", "--t-burn", "1e-9",
                     "--t-measure", "1e-9"])
        captured = capsys.readouterr()
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the request asks for about "
                                       "2e+10 events")

    def test_negative_seed_exits_2(self, capsys):
        # numpy's SeedSequence takes no negative entropy
        code = main(["simulate", "--n", "3", "--p", "3", "--q", "1/2",
                     "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: seed")


class TestAsymptotic:
    def test_q0_reference_values(self, capsys):
        doc = run_json(capsys, "asymptotic", "--rho", "1", "--q", "0")
        res = doc["result"]
        assert res["zstar"] == pytest.approx(0.5, abs=1e-12)
        assert res["h2"] == pytest.approx(2.0, abs=1e-12)
        assert res["h3"] == pytest.approx(6.0, abs=1e-12)
        assert res["lambda"] == pytest.approx(-0.25, abs=1e-12)
        assert res["A"] == pytest.approx(2.0, abs=1e-12)
        assert res["kpz_coefficient"] == pytest.approx(0.31333, abs=1e-5)

    def test_result_keys(self, capsys):
        doc = run_json(capsys, "asymptotic", "--rho", "1", "--q", "1/2")
        assert doc["schema"] == 1
        assert set(doc["result"]) == {
            "zstar", "h0", "h1", "h2", "h3", "h4", "free_energy", "j_inf",
            "lambda", "A", "current_fss", "kpz_coefficient"}

    def test_unity_rejected(self, capsys):
        code, _ = run_cli(capsys, "asymptotic", "--rho", "1", "--q", "1")
        assert code == 2

    @pytest.mark.parametrize("rho,q", [("1000", "-1/2"), ("1000", "1/10"),
                                       ("1e5", "1/2"), ("1e5", "99/100")])
    def test_high_density(self, capsys, rho, q):
        res = run_json(capsys, "asymptotic", "--rho", rho, "--q", q)["result"]
        assert res["h2"] > 0 and res["kpz_coefficient"] > 0

    def test_overflow_exits_4(self, capsys):
        # z* = 3.0e176 here, and (1 + z*/3)^2 overflows in the terms of h_2
        code = main(["asymptotic", "--rho", "1000", "--q", "3/2"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("solver failure: ") and "z* = 3.02" in err

    @pytest.mark.parametrize("rho,q", [("1e-200", "1/2"), ("1e-320", "2")])
    def test_underflow_exits_4(self, capsys, rho, q):
        # h_2 is about rho, and lambda divides by h_2^2, which is 0.0
        code = main(["asymptotic", "--rho", rho, "--q", q])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("solver failure: ") and "underflows" in err


class TestCrossover:
    def test_g_and_prediction(self, capsys):
        doc = run_json(capsys, "crossover", "--rho", "1", "--alpha", "1")
        assert doc["result"]["g"] == 8.0
        assert doc["result"]["prediction"] == pytest.approx(1.08074, abs=1e-4)

    def test_missing_alpha_exits_2(self, capsys):
        code, _ = run_cli(capsys, "crossover", "--rho", "1")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "4", "--rho", "abc", "--q", "1/2"],
    ["crossover", "--rho", "x", "--alpha", "1"],
    ["asymptotic", "--rho", "x", "--q", "1/2"],
])
def test_unparsable_rho_exits_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


class TestVerifyTq:
    def test_zero_residual(self, capsys):
        doc = run_json(capsys, "verify-tq", "--n", "4", "--p", "3",
                       "--q", "2")
        res = doc["result"]
        assert res["residual_zero"] is True
        assert res["max_residual"] == "0/1"
        assert res["lambda1_equals_J"] is True
        assert res["Q1_at_1"] == "3/1"

    @staticmethod
    def doubled_partition_function(monkeypatch):
        """Make verify-tq read 2 Z(N, p) in place of Z(N, p), with J
        computed from it."""
        compute = tq.compute_stationary

        def corrupted(params, degree):
            Z = list(compute(params, degree).Zvals)
            Z[params.p] *= 2
            return stationary.StationaryData(
                Zvals=tuple(Z), J=params.N * Z[params.p - 1] / Z[params.p])

        monkeypatch.setattr(tq, "compute_stationary", corrupted)

    def test_q1_at_1_must_equal_p(self, capsys, monkeypatch):
        # B_1 scales with 1/Z(N, p): the bracket stays divisible, the
        # residual zero and lambda1 = J, and only Q1(1) = p sees the change
        self.doubled_partition_function(monkeypatch)
        code, out = run_cli(capsys, "verify-tq", "--n", "4", "--p", "3",
                            "--q", "1/2")
        res = json.loads(out)["result"]
        assert code == 4
        assert res["Q1_at_1"] == "3/2"
        assert res["residual_zero"] is True
        assert res["lambda1_equals_J"] is True

    def test_q1_at_1_checked_on_float_backend(self, capsys, monkeypatch):
        # a float Q1(1) - p that is not negligible is a precision shortfall
        self.doubled_partition_function(monkeypatch)
        monkeypatch.setattr(numerics, "MAX_PREC_BITS", 256)
        code = main(["verify-tq", "--n", "4", "--p", "3", "--q", "1/2",
                     "--backend", "float"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "Q1(1) - p" in captured.err

    def test_lambda1_must_equal_J(self, capsys, monkeypatch):
        # a doubled J leaves B_1, Q_1 and the residual alone; only
        # lambda1 = J sees it, and it gates the verdict as Q1(1) = p does
        compute = tq.compute_stationary

        def doubled_j(params, degree):
            stat = compute(params, degree)
            return stationary.StationaryData(Zvals=stat.Zvals, J=2 * stat.J)

        monkeypatch.setattr(tq, "compute_stationary", doubled_j)
        code, out = run_cli(capsys, "verify-tq", "--n", "4", "--p", "3",
                            "--q", "1/2")
        res = json.loads(out)["result"]
        assert code == 4
        assert res["lambda1_equals_J"] is False
        assert res["residual_zero"] is True
        assert res["Q1_at_1"] == "3/1"

    def test_indivisible_bracket_exits_4(self, capsys, monkeypatch):
        # b_0 + 1 leaves the bracket's x^0 coefficient at 0 but moves its
        # x^1 coefficient by -N
        b1_polynomial = tq.b1_polynomial

        def corrupted(params, stat):
            b1 = b1_polynomial(params, stat)
            return [b1[0] + 1] + b1[1:]

        monkeypatch.setattr(tq, "b1_polynomial", corrupted)
        code = main(["verify-tq", "--n", "4", "--p", "3", "--q", "1/2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("solver failure: bracket coefficient "
                                       "of x^1 is -4, expected 0")

    def test_q_zero(self, capsys):
        # q^p Q_1(x/q) is a polynomial in q, so q = 0 needs no division
        doc = run_json(capsys, "verify-tq", "--n", "5", "--p", "4",
                       "--q", "0")
        res = doc["result"]
        assert res["max_residual"] == "0/1"
        assert res["lambda1"] == res["J"] == "5/2"
        assert res["Q1_at_1"] == "4/1"


class TestSweep:
    HEADER = "N,p,q,J,Delta,Delta_over_N32,Delta_over_N,prediction,gap"

    def test_kpz_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "--rho", "1", "--q", "1/2",
                            "--n", "4,8", "--backend", "float")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == self.HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "4"

    def test_crossover_sweep_prediction_column(self, capsys):
        code, out = run_cli(capsys, "sweep", "--rho", "1", "--alpha", "1",
                            "--n", "9,16")
        assert code == 0
        lines = out.strip().split("\n")
        pred = [float(line.split(",")[7]) for line in lines[1:]]
        assert pred[0] == pred[1] == pytest.approx(1.08074, abs=1e-4)

    def test_single_row_matches_exact(self, capsys):
        code, out = run_cli(capsys, "sweep", "--rho", "1", "--q", "1/2",
                            "--n", "4")
        doc = run_json(capsys, "exact", "--n", "4", "--p", "4", "--q", "1/2")
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(float(F(doc["result"]["J"])),
                                              rel=1e-12)
        assert float(row[4]) == pytest.approx(
            float(F(doc["result"]["Delta"])), rel=1e-12)

    @pytest.mark.parametrize("sizes", ["8,abc", "0", "4,0"])
    def test_bad_ring_sizes_exit_2(self, capsys, sizes):
        code = main(["sweep", "--rho", "1", "--q", "1/2", "--n", sizes])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_both_p_and_rho_rejected(self, capsys):
        # the same check and message as exact
        code = main(["sweep", "--rho", "1", "--p", "2", "--q", "1/2",
                     "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: give exactly one of --p and --rho\n"

    @pytest.mark.parametrize("extra", [["--q", "1/2"], ["--alpha", "1"]])
    def test_rho_must_give_whole_particles_at_every_n(self, capsys, extra):
        code, out = run_cli(capsys, "sweep", "--rho", "1/2", "--n", "4,5",
                            *extra)
        assert code == 2 and out == ""

    def test_needs_q_or_alpha(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--rho", "1", "--n", "4,8")
        assert code == 2

    def test_alpha_zero_degenerates_to_unity(self, capsys):
        code, out = run_cli(capsys, "sweep", "--rho", "1", "--alpha", "0",
                            "--n", "8,16")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            row = line.split(",")
            assert float(row[6]) == 1.0   # Delta/N = rho at q = 1
            assert float(row[8]) == 0.0   # gap exactly zero


def test_import_loads_no_scipy():
    # numpy and scipy are imported inside the functions that use them; a
    # module-level import would add its load time and memory to every CLI
    # start, including the series commands that never touch them
    code = ("import sys, qboson, qboson.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    src = os.path.dirname(os.path.dirname(qboson.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_rational_requests_load_no_mpmath():
    # mpmath is imported with the first float backend; importing the CLI,
    # or one rational exact, oracle or verify-tq request, does not load it
    code = ("import contextlib, io, sys\n"
            "import qboson.cli\n"
            "loaded = ['mpmath' in sys.modules]\n"
            "for argv in (['exact', '--n', '3', '--p', '2', '--q', '1/2'],\n"
            "             ['oracle', '--n', '3', '--p', '2', '--q', '1/2'],\n"
            "             ['verify-tq', '--n', '3', '--p', '2', '--q', "
            "'-1/2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qboson.cli.main(argv) == 0\n"
            "    loaded.append('mpmath' in sys.modules)\n"
            "print(loaded)")
    src = os.path.dirname(os.path.dirname(qboson.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == str([False] * 4)


def test_each_request_loads_only_the_libraries_it_uses():
    # one fresh process runs the requests in turn and records, after each,
    # which of numpy, scipy and mpmath are loaded: the crossover quadrature
    # needs none of them, the series and asymptotic requests only mpmath,
    # simulate adds numpy, and only the float oracle loads scipy
    code = ("import contextlib, io, sys\n"
            "import qboson.cli\n"
            "for line in sys.stdin:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qboson.cli.main(line.split()) == 0, line\n"
            "    print(' '.join(m for m in ('numpy', 'scipy', 'mpmath')\n"
            "                   if m in sys.modules))\n")
    requests = {
        "crossover --rho 1 --alpha 1": "",
        "sweep --rho 1 --alpha 1 --n 4,9": "mpmath",
        "exact --n 3 --p 2 --q 1/2 --backend float": "mpmath",
        "sweep --rho 1 --q 1/2 --n 4,8": "mpmath",
        "asymptotic --rho 1 --q 1/2": "mpmath",
        "simulate --n 2 --p 2 --q 1/2 --seed 3 --reps 3 --t-burn 2 "
        "--t-measure 5": "numpy mpmath",
        "oracle --n 3 --p 2 --q 1/2 --backend float": "numpy scipy mpmath",
    }
    src = os.path.dirname(os.path.dirname(qboson.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         input="\n".join(requests), capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split("\n")[:-1] == list(requests.values())


# one request per subcommand, each setting most of the flags it declares
ONE_REQUEST = {
    "exact": ["--n", "3", "--p", "2", "--q", "1/2", "--backend", "float"],
    "oracle": ["--n", "3", "--p", "2", "--q", "1/2", "--backend", "float"],
    "simulate": ["--n", "2", "--p", "2", "--q", "1/2", "--seed", "3",
                 "--reps", "3", "--t-burn", "2", "--t-measure", "5"],
    "asymptotic": ["--rho", "1", "--q", "1/2"],
    "crossover": ["--rho", "1", "--alpha", "1"],
    "verify-tq": ["--n", "3", "--p", "2", "--q", "1/2", "--backend", "float"],
    "sweep": ["--n", "2,3", "--p", "2", "--q", "1/2", "--backend", "float"],
}

# flags these subcommands do not read: a value would be ignored, or would
# only set the precision of inputs that are rounded to float64, or a
# precision and tolerance the float backend now finds itself, or select
# the term-by-term i-sum, which only the tests keep as a reference
DELETED_FLAGS = [
    ("oracle", "--tol", "1e-10"), ("simulate", "--tol", "1e-10"),
    ("verify-tq", "--tol", "1e-10"), ("asymptotic", "--tol", "1e-12"),
    ("crossover", "--tol", "1e-9"), ("simulate", "--init", "all-equal"),
    ("asymptotic", "--n", "4"), ("asymptotic", "--p", "4"),
    ("asymptotic", "--backend", "float"), ("asymptotic", "--prec", "64"),
    ("crossover", "--n", "4"), ("crossover", "--p", "4"),
    ("crossover", "--q", "1/2"), ("crossover", "--backend", "float"),
    ("crossover", "--prec", "64"),
    ("oracle", "--prec", "64"), ("simulate", "--backend", "float"),
    ("simulate", "--prec", "64"),
    ("exact", "--prec", "64"), ("exact", "--tol", "1e-10"),
    ("exact", "--tol", "nan"), ("exact", "--tol", "-1"),
    ("exact", "--imax", "20"),
    ("verify-tq", "--prec", "64"),
    ("sweep", "--prec", "64"), ("sweep", "--tol", "1e-10"),
]


def declared_flags(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


class TestDeclaredFlags:
    def test_flag_table_holds_only_declared_flags(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = set().union(*map(declared_flags, sub.choices))
        assert {flag.replace("-", "_") for flag in FLAGS} == declared

    @pytest.mark.parametrize("command", sorted(ONE_REQUEST))
    def test_request_echoes_only_declared_flags(self, capsys, command):
        code, out = run_cli(capsys, command, *ONE_REQUEST[command])
        assert code == 0
        if command == "sweep":
            assert out.startswith(TestSweep.HEADER + "\n")
            return
        request = json.loads(out)["request"]
        assert request["command"] == command
        assert set(request) <= declared_flags(command) | {"command"}

    def test_readme_flag_table_lists_declared_flags(self):
        # each row of README's "| command | flags |" table, --out aside
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| command | flags |") + 2
        rows = {}
        for line in itertools.takewhile(lambda row: row.startswith("|"),
                                        lines[start:]):
            command, flags = line.strip("|").split("|")
            rows[command.strip().strip("`")] = {
                flag.replace("-", "_")
                for flag in re.findall(r"`--([a-z-]+)`", flags)}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert rows == {command: declared_flags(command) - {"out"}
                        for command in sub.choices}

    @pytest.mark.parametrize("command,flag,value", DELETED_FLAGS)
    def test_deleted_flag_exits_2(self, capsys, command, flag, value):
        assert flag.lstrip("-") not in declared_flags(command)
        with pytest.raises(SystemExit) as exc:
            main([command, *ONE_REQUEST[command], flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["crossover", "--rho", "1", "--alpha", "nan"],
    ["crossover", "--rho", "1", "--alpha", "inf"],
    ["simulate", "--n", "3", "--p", "3", "--q", "1/2", "--t-measure", "nan"],
    ["simulate", "--n", "3", "--p", "3", "--q", "1/2", "--t-burn", "-1"],
    ["simulate", "--n", "3", "--p", "3", "--q", "1/2", "--t-measure", "0"],
    ["sweep", "--rho", "1", "--alpha", "inf", "--n", "4"],
    ["sweep", "--rho", "1", "--alpha", "nan", "--n", "4"],
])
def test_nonfinite_or_nonpositive_float_flag_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


# rates are positive only for q > -1: every command that reads --q rejects
# q <= -1 on each backend it has, before it computes anything
Q_REQUESTS = {
    "exact": ["--n", "3", "--p", "2"], "oracle": ["--n", "3", "--p", "2"],
    "verify-tq": ["--n", "3", "--p", "2"], "sweep": ["--n", "3", "--p", "2"],
    "simulate": ["--n", "3", "--p", "2"], "asymptotic": ["--rho", "1"],
}


@pytest.mark.parametrize("argv", [
    [command, *flags, "--q", q, *backend]
    for command, flags in sorted(Q_REQUESTS.items())
    for q in ("-1", "-3/2")
    for backend in ([], ["--backend", "float"])
    if not backend or "backend" in declared_flags(command)
] + [
    # crossover sweeps run on the float backend only
    ["sweep", "--rho", "1", "--alpha", "1", "--n", "4", "--backend",
     "rational"],
])
def test_invalid_request_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_exact_at_unity_prints_partition_function(capsys):
    # Z(3, 2) at q = 1 is 3^2/2!
    doc = run_json(capsys, "exact", "--n", "3", "--p", "2", "--q", "1")
    assert doc["result"]["Z"] == "9/2"


class TestVerifyTqFloat:
    def test_lambda1_equals_J(self, capsys):
        doc = run_json(capsys, "verify-tq", "--n", "7", "--p", "5",
                       "--q", "3/10", "--backend", "float")
        assert doc["result"]["lambda1_equals_J"] is True
        assert doc["result"]["residual_zero"] is True

    @pytest.mark.parametrize("n,p,q", [("16", "64", "3"), ("12", "48", "4")])
    def test_large_coefficients_pass_relative_check(self, capsys, n, p, q):
        doc = run_json(capsys, "verify-tq", "--n", n, "--p", p, "--q", q,
                       "--backend", "float")
        assert doc["result"]["residual_zero"] is True
        assert doc["result"]["lambda1_equals_J"] is True

    def test_relative_residual_is_reported(self, capsys):
        doc = run_json(capsys, "verify-tq", "--n", "16", "--p", "64",
                       "--q", "3", "--backend", "float")
        rel = mpmath.mpf(doc["result"]["max_relative_residual"])
        assert 0 <= rel <= mpmath.mpf(2) ** -128
        doc = run_json(capsys, "verify-tq", "--n", "5", "--p", "4",
                       "--q", "1/2")
        assert doc["result"]["max_relative_residual"] == "0/1"

    @staticmethod
    def partition_function_losing_bits(monkeypatch, bits):
        """Make verify-tq read each Z(N, k) moved by k 2^-(P - bits)
        relative: an F^N recurrence that loses that many bits at every
        precision P, as z (ln F)' did for q > 1 at small N."""
        compute = tq.compute_stationary

        def lossy(params, degree):
            be = params.backend
            eps = be.integer(2) ** (bits - be.prec_bits)
            Z = [z * (1 + k * eps)
                 for k, z in enumerate(compute(params, degree).Zvals)]
            return stationary.StationaryData(
                Zvals=tuple(Z), J=params.N * Z[params.p - 1] / Z[params.p])

        monkeypatch.setattr(tq, "compute_stationary", lossy)

    def test_precision_shortfall_exits_3(self, capsys, monkeypatch):
        # 140 bits lost at every precision P leave Q1(1) - p and the bracket
        # of T_1 near 2^-(P - 140) of their shadows, far above the derived
        # rounding unit, 2^-(P - 16): no precision passes, and the request
        # exits 3 naming the last one tried
        self.partition_function_losing_bits(monkeypatch, 140)
        code = main(["verify-tq", "--n", "8", "--p", "40", "--q", "5",
                     "--backend", "float"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("precision failure: no precision up "
                                       "to 4096 bits passed")
        assert "at 4096 bits" in captured.err

    def test_escalation_builds_f_n_to_degree_p(self, capsys, monkeypatch):
        # F^N is built to degree p at each precision tried, from 256 bits
        # to MAX_PREC_BITS, as test_precision_shortfall_exits_3 fails at
        # every one
        self.partition_function_losing_bits(monkeypatch, 140)
        builds = []
        lossy = tq.compute_stationary

        def counted(params, degree):
            builds.append((params.backend.prec_bits, degree))
            return lossy(params, degree)

        monkeypatch.setattr(tq, "compute_stationary", counted)
        code = main(["verify-tq", "--n", "8", "--p", "40", "--q", "5",
                     "--backend", "float"])
        capsys.readouterr()
        assert code == 3
        assert builds == [(256, 40), (512, 40), (1024, 40), (2048, 40),
                          (4096, 40)]

    @pytest.mark.parametrize("q", ["1/2", "3/2"])
    def test_identities_see_a_perturbed_partition_function(self, capsys,
                                                           monkeypatch, q):
        # Z(N, p-3) moved by 2^-150 relative at every precision: at 256 bits
        # the rounding unit is 2^-243 (q = 1/2) or 2^-240 (q = 3/2) of each
        # shadow, which sees the move, though 2^-128 would pass it
        compute = tq.compute_stationary

        def perturbed(params, degree):
            stat = compute(params, degree)
            Z = list(stat.Zvals)
            Z[params.p - 3] *= 1 + params.backend.integer(2) ** -150
            return stationary.StationaryData(Zvals=tuple(Z), J=stat.J)

        monkeypatch.setattr(tq, "compute_stationary", perturbed)
        code = main(["verify-tq", "--n", "64", "--p", "64", "--q", q,
                     "--backend", "float"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("precision failure: no precision up "
                                       "to 4096 bits passed")


# The stdout corpus: each request's argv and exit code on a "$" line, then
# its stdout byte for byte.  The first line records the numpy and scipy
# versions, since simulate's bytes depend on numpy's random streams and the
# float oracle's on scipy's sparse LU; an upgrade of either shows as a diff
# of the corpus like any other output change.  After a deliberate change,
# rewrite the corpus with
#     PYTHONPATH=src python tests/test_cli.py
CORPUS = Path(__file__).with_name("stdout.corpus")


def corpus_entry(argv: list) -> str:
    """One request's "$" line and stdout, as the corpus holds them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"$ {' '.join(argv)} # exit {code}\n{out.getvalue()}"


def corpus_text(requests: list) -> str:
    import numpy
    import scipy

    header = f"numpy {numpy.__version__} scipy {scipy.__version__}\n"
    return header + "".join(corpus_entry(argv) for argv in requests)


def corpus_requests(text: str) -> list:
    return [line[2:].rsplit(" # exit ", 1)[0].split()
            for line in text.splitlines() if line.startswith("$ ")]


def test_stdout_corpus_is_pinned():
    pinned = CORPUS.read_bytes().decode()
    assert corpus_text(corpus_requests(pinned)) == pinned


def is_float_request(argv: list) -> bool:
    """Whether the request computes with mpmath floats: sweep, or a request
    that cli._backend puts on the float backend."""
    q = argv[argv.index("--q") + 1] if "--q" in argv else ""
    return (argv[0] == "sweep" or "float" in argv
            or "." in q or "e" in q.lower())


def test_float_outputs_ignore_mpmath_global_precision():
    """Every float request of the corpus prints its pinned bytes with
    mpmath's global precision at 20 bits: float results carry their own
    precision, and none of them reads the global one."""
    entries = re.split(r"(?m)^(?=\$ )", CORPUS.read_bytes().decode())[1:]
    floats = [(argv, entry) for argv, entry
              in zip(corpus_requests("".join(entries)), entries)
              if is_float_request(argv)]
    assert len(floats) >= 20
    with mpmath.workprec(20):
        for argv, entry in floats:
            assert corpus_entry(argv) == entry, argv


def corpus_entries(text: str) -> dict:
    """Each request's stdout by its "$" line."""
    return dict(entry.split("\n", 1)
                for entry in re.split(r"(?m)^(?=\$ )", text)[1:])


def moved_keys(old: str, new: str) -> list:
    """What differs between two stdouts of one request: the dotted keys of
    a JSON document whose values differ, or else the 1-based numbers of
    the lines that differ (a sweep's CSV rows, header line 1)."""
    try:
        docs = json.loads(old), json.loads(new)
    except ValueError:
        lines = [text.splitlines() for text in (old, new)]
        return [f"line {i}" for i, pair in enumerate(
            itertools.zip_longest(*lines), 1) if pair[0] != pair[1]]

    def flat(doc, prefix=""):
        if not isinstance(doc, dict):
            return {prefix[:-1]: doc}
        return {key: val for name, sub in doc.items()
                for key, val in flat(sub, f"{prefix}{name}.").items()}

    old_flat, new_flat = map(flat, docs)
    return sorted(key for key in old_flat.keys() | new_flat.keys()
                  if old_flat.get(key) != new_flat.get(key))


if __name__ == "__main__":
    # rewrite the corpus, and print each request whose stdout moved with
    # what moved in it
    before = CORPUS.read_bytes().decode()
    after = corpus_text(corpus_requests(before))
    CORPUS.write_bytes(after.encode())
    old = corpus_entries(before)
    for line, out in corpus_entries(after).items():
        if line not in old:
            print(f"{line}\n    new request")
        elif out != old[line]:
            print(f"{line}\n    {', '.join(moved_keys(old[line], out))}")
