import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import qboson
from qboson import stationary
from qboson.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


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

    def test_truncated_method(self, capsys):
        doc = run_json(capsys, "exact", "--n", "2", "--p", "2", "--q", "1/2",
                       "--imax", "50")
        assert doc["result"]["method"] == "truncated"
        assert doc["result"]["i_max"] == 50
        assert doc["result"]["tail_bound"] < 1e-12

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

    def test_float_printed_at_computed_precision(self, capsys):
        doc = run_json(capsys, "exact", "--n", "2", "--p", "2", "--q", "1/2",
                       "--backend", "float")
        J = F(doc["result"]["J"])
        assert abs(J - F(12, 7)) <= F(12, 7) * F(1, 10 ** 70)

    @pytest.mark.parametrize("extra,builds", [
        ((), 1), (("--imax", "20"), 1),
        (("--backend", "float"), 2), (("--backend", "float", "--imax", "20"), 2),
    ])
    def test_one_stationary_build_per_evaluation(self, capsys, monkeypatch,
                                                 extra, builds):
        # a float run evaluates once at P and once at 2P bits
        calls = []
        original = stationary.compute_stationary

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "qboson" or name.startswith("qboson.")) and \
                    getattr(module, "compute_stationary", None) is original:
                monkeypatch.setattr(module, "compute_stationary", counting)
        run_json(capsys, "exact", "--n", "4", "--p", "3", "--q", "1/2",
                 *extra)
        assert len(calls) == builds

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

    def test_precision_failure_exits_3(self, capsys):
        # a tolerance below the doubled-precision agreement level must
        # trip the acceptance check (relative rounding gap ~ 2^-256)
        code, _ = run_cli(capsys, "exact", "--n", "3", "--p", "3",
                          "--q", "3/10", "--backend", "float",
                          "--tol", "1e-100")
        assert code == 3


class TestOracle:
    def test_matches_exact(self, capsys):
        a = run_json(capsys, "oracle", "--n", "3", "--p", "2", "--q", "1/2")
        b = run_json(capsys, "exact", "--n", "3", "--p", "2", "--q", "1/2")
        assert a["result"]["Delta"] == b["result"]["Delta"]

    def test_cap_guard(self, capsys):
        code, _ = run_cli(capsys, "oracle", "--n", "12", "--p", "12",
                          "--q", "1/2")
        assert code == 2

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


class TestCrossover:
    def test_g_and_prediction(self, capsys):
        doc = run_json(capsys, "crossover", "--rho", "1", "--alpha", "1")
        assert doc["result"]["g"] == 8.0
        assert doc["result"]["prediction"] == pytest.approx(1.08074, abs=1e-4)

    def test_missing_alpha_exits_2(self, capsys):
        code, _ = run_cli(capsys, "crossover", "--rho", "1")
        assert code == 2


class TestVerifyTq:
    def test_zero_residual(self, capsys):
        doc = run_json(capsys, "verify-tq", "--n", "4", "--p", "3",
                       "--q", "2")
        res = doc["result"]
        assert res["residual_zero"] is True
        assert res["max_residual"] == "0/1"
        assert res["lambda1_equals_J"] is True
        assert res["Q1_at_1"] == "3/1"


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
