"""Command-line interface: parsing, config merging, CSV contracts,
deterministic output."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import slipstab
from slipstab import (EffectiveMedium, RateState, SlipStabError, __version__,
                      critical_mode, make_bimaterial, simulate)
from slipstab.cli import _build_parser, main
from slipstab.verification import VerifyResult, _gate


def friction_flags(q=1.0, b_over_a=1.2, a=0.01, sigma_o=1e6, L=1e-4,
                   mu=30e9, c1=3000.0):
    b = a * b_over_a
    v_o = q * 2.0 * math.sqrt(a * (b - a)) * sigma_o * c1 / mu
    return ["--a", repr(a), "--b", repr(b), "--L", repr(L),
            "--sigma-o", repr(sigma_o), "--v-o", repr(v_o)]


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# slipstab ")
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1][len("# config: "):])
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return config, header, rows


class TestKcr:
    def test_nondimensional_golden(self, capsys):
        assert main(["kcr", "--q", "1", "--b-over-a", "1.2",
                     "--speed-ratio", "1.2"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["status"] == "critical-mode"
        assert kv["branch"] == "subsonic"
        assert float(kv["c_over_c1"]) == pytest.approx(0.732350989067, rel=1e-10)
        assert float(kv["k_hat"]) == pytest.approx(1.365465487080149, rel=1e-10)

    # printed by the release before the critical path went subsonic-only
    # (speed ratio, modulus ratio, q, c_over_c1, k_hat) at b/a = 1.2
    PRESET_LINES = [
        (1.2, 1.0, 0.1, "0.09957897529241197", "1.0042280482034658"),
        (1.2, 1.0, 1.0, "0.732350989067", "1.365465487080149"),
        (1.2, 1.0, 10.0, "0.9984938972276369", "10.015083745394387"),
        (5.0, 1.0, 0.1, "0.09974015234413357", "1.0026052462299224"),
        (5.0, 1.0, 1.0, "0.7728244264170888", "1.293954960295608"),
        (5.0, 1.0, 10.0, "0.9986150449703748", "10.013868757902264"),
        (5.0, 10.0, 0.1, "0.17913043942956422", "1.0150043867316836"),
        (5.0, 10.0, 1.0, "0.8859206745723053", "2.052307695674423"),
        (5.0, 10.0, 10.0, "0.9987395480441529", "18.204764412727943"),
        (5.0, 0.1, 0.1, "0.018181435649592355", "1.000021039715081"),
        (5.0, 0.1, 1.0, "0.181431133227381", "1.0021333085668145"),
        (5.0, 0.1, 10.0, "0.9948841619672858", "1.8275311716557456"),
    ]

    @pytest.mark.parametrize("speed_ratio,mu_ratio,q,c_over_c1,k_hat",
                             PRESET_LINES)
    def test_nondimensional_preset_lines_unchanged(
            self, capsys, speed_ratio, mu_ratio, q, c_over_c1, k_hat):
        assert main(["kcr", "--q", repr(q), "--b-over-a", "1.2",
                     "--speed-ratio", repr(speed_ratio),
                     "--mu-ratio", repr(mu_ratio)]) == 0
        assert capsys.readouterr().out == (
            "status = critical-mode\nbranch = subsonic\n"
            f"c_over_c1 = {c_over_c1}\nk_hat = {k_hat}\n")

    def test_q_beyond_the_intersonic_range_solves(self, capsys):
        # the sweep refuses this q (TestSweep), but the critical mode is
        # subsonic and needs no intersonic solve
        assert main(["kcr", "--q", "1e150", "--b-over-a", "1.2",
                     "--speed-ratio", "1.2"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["status"] == "critical-mode"
        assert kv["branch"] == "subsonic"

    def test_nondimensional_always_stable(self, capsys):
        assert main(["kcr", "--q", "1", "--b-over-a", "0.9"]) == 0
        assert capsys.readouterr().out.strip() == "always-stable"

    def test_dimensional(self, capsys):
        argv = (["kcr"] + friction_flags()
                + ["--mu", "30e9", "--c1", "3000",
                   "--mu-2", "30e9", "--c1-2", "3600"])
        assert main(argv) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["branch"] == "subsonic"
        assert float(kv["k_mag"]) > 0.0
        assert float(kv["omega"]) == pytest.approx(
            float(kv["k_mag"]) * float(kv["c"]), rel=1e-12)
        assert float(kv["c"]) == pytest.approx(
            3000.0 * float(kv["c_over_c1"]), rel=1e-12)

    def test_readme_dimensional_example_lines(self, capsys):
        assert main(["kcr", "--a", "0.01", "--b", "0.012", "--L", "1e-4",
                     "--sigma-o", "1e6", "--v-o", "8.94e-4", "--mu", "30e9",
                     "--c1", "3000", "--mu-2", "30e9", "--c1-2", "3600"]) == 0
        assert capsys.readouterr().out == (
            "status = critical-mode\nbranch = subsonic\n"
            "c_over_c1 = 0.7321664786195814\nk_hat = 1.365157262904052\n"
            "k_mag = 0.0018202096838720696\nc = 2196.499435858744\n"
            "omega = 3.9980895437696238\n")

    def test_dimensional_always_stable(self, capsys):
        argv = ["kcr", "--a", "0.01", "--b", "0.008", "--L", "1e-4",
                "--sigma-o", "1e6", "--v-o", "1e-3", "--mu", "30e9",
                "--c1", "3000"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "always-stable"

    def test_rejects_mixed_styles(self, capsys):
        argv = ["kcr", "--q", "1", "--b-over-a", "1.2"] + friction_flags()
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["kcr"]) == 2
        assert "missing input" in capsys.readouterr().err

    def test_rejects_q_with_materials(self, capsys):
        argv = ["kcr", "--q", "1", "--b-over-a", "1.2", "--mu", "30e9",
                "--c1", "3000", "--mu-2", "60e9", "--c1-2", "15000"]
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--speed-ratio", "--mu-ratio",
                                      "--b-over-a"])
    def test_rejects_ratios_with_dimensional_input(self, capsys, flag):
        argv = (["kcr"] + friction_flags()
                + ["--mu", "30e9", "--c1", "3000", flag, "1.2"])
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    def test_invalid_friction_reports_input_error(self, capsys):
        argv = ["kcr", "--a", "-0.01", "--b", "0.012", "--L", "1e-4",
                "--sigma-o", "1e6", "--v-o", "1e-3", "--mu", "30e9",
                "--c1", "3000"]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    BASE = ["sweep", "--q-min", "0.5", "--q-max", "2.0", "--q-points", "5",
            "--b-over-a", "1.2", "--speed-ratio", "1.2"]

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(self.BASE + ["--out", str(out)]) == 0
        config, header, rows = read_csv(out)
        assert header == ["q", "branch", "c_over_c1", "k_hat"]
        assert config["mode"] == "sweep"
        assert config["q_points"] == 5
        assert config["speed_ratio"] == 1.2
        qs = sorted({row[0] for row in rows}, key=float)
        assert len(qs) == 5
        assert {row[1] for row in rows} == {"subsonic", "intersonic"}
        subsonic = [row for row in rows if row[1] == "subsonic"]
        assert len(subsonic) == 5
        # repr round-trip: every float column reparses exactly
        for row in rows:
            assert repr(float(row[2])) == row[2]
            assert repr(float(row[3])) == row[3]

    def test_stdout_output(self, capsys):
        assert main(self.BASE + ["--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# slipstab ")
        assert "q,branch,c_over_c1,k_hat" in out

    def test_bit_identical_reruns(self, tmp_path):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(self.BASE + ["--out", str(one)]) == 0
        assert main(self.BASE + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "q_min": 0.5, "q_max": 2.0, "q_points": 5, "b_over_a": 1.2,
            "speed_ratio": 1.2, "out": str(tmp_path / "cfg.csv")}))
        assert main(["sweep", "--config", str(cfg), "--q-points", "7"]) == 0
        config, _, rows = read_csv(tmp_path / "cfg.csv")
        assert config["q_points"] == 7
        assert len([r for r in rows if r[1] == "subsonic"]) == 7

    def test_unknown_config_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"q_minimum": 0.5}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "q_minimum" in capsys.readouterr().err

    def test_integral_float_q_points_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"q_min": 0.5, "q_max": 2.0,
                                   "q_points": 5.0, "b_over_a": 1.2,
                                   "out": "-"}))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert '"q_points": 5,' in capsys.readouterr().out

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(self.BASE + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")

    def test_q_beyond_the_intersonic_range_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--q-min", "1", "--q-max", "1e150", "--q-points", "5",
                "--b-over-a", "1.2", "--speed-ratio", "1.2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: q = 1e+150 is beyond the intersonic solve's range\n")
        assert not out.exists()

    def test_closed_pipe_exits_zero(self):
        # the reader stops after one line of a CSV larger than a pipe buffer
        with subprocess.Popen(
                [sys.executable, "-m", "slipstab.cli", "sweep", "--q-min",
                 "0.5", "--q-max", "2", "--q-points", "5000", "--b-over-a",
                 "1.2", "--out", "-"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ,
                     "PYTHONPATH": str(Path(slipstab.__file__).parents[1])}
        ) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""

    def test_broken_stdout_exits_zero(self, tmp_path, monkeypatch):
        """A stdout write that raises BrokenPipeError exits 0 with the
        descriptor pointed at os.devnull, so the interpreter's closing
        flush cannot raise again, and closes the descriptor it opened for
        that, so repeated library calls leak none."""
        class BrokenStdout:
            def __init__(self, fd):
                self.fd = fd

            def write(self, _text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        opened = []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        real_open = os.open
        monkeypatch.setattr(os, "open", recording_open)
        with open(tmp_path / "stdout", "w") as target:
            monkeypatch.setattr(sys, "stdout", BrokenStdout(target.fileno()))
            for _ in range(3):
                assert main(self.BASE + ["--out", "-"]) == 0
                assert os.path.samestat(os.fstat(target.fileno()),
                                        os.stat(os.devnull))
        assert len(opened) == 3
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_grid_validation(self, tmp_path, capsys):
        argv = ["sweep", "--q-min", "2.0", "--q-max", "0.5", "--q-points",
                "5", "--b-over-a", "1.2", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert "q_min" in capsys.readouterr().err


class TestMedium:
    def test_single_side(self, capsys):
        assert main(["medium", "--c44", "30e9", "--c55", "30e9",
                     "--rho", "3000"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["mu"]) == pytest.approx(30e9, rel=1e-15)
        assert float(kv["c1"]) == pytest.approx(math.sqrt(1e7), rel=1e-15)

    def test_pair_reports_ratios(self, capsys):
        assert main(["medium", "--c44", "30e9", "--c55", "30e9",
                     "--rho", "3000", "--c44-2", "40e9", "--c55-2", "40e9",
                     "--c45-2", "1e9", "--rho-2", "2500"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        mu2 = math.sqrt(40e9 * 40e9 - 1e18)
        c1_2 = mu2 / math.sqrt(40e9 * 2500.0)
        assert float(kv["mu_2"]) == pytest.approx(mu2, rel=1e-15)
        assert float(kv["speed_ratio"]) == pytest.approx(
            c1_2 / math.sqrt(1e7), rel=1e-12)
        assert kv["swapped"] == "False"

    def test_slower_second_side_is_swapped(self, capsys):
        assert main(["medium", "--c44", "30e9", "--c55", "30e9", "--rho", "3000",
                     "--c44-2", "30e9", "--c55-2", "30e9", "--rho-2", "4000"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["swapped"] == "True"
        assert float(kv["speed_ratio"]) == pytest.approx(
            math.sqrt(4000.0 / 3000.0), rel=1e-15)

    def test_rejects_indefinite_stiffness(self, capsys):
        assert main(["medium", "--c44", "1e9", "--c45", "31e9",
                     "--c55", "30e9", "--rho", "3000"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRoots:
    def test_counts_flip_at_critical(self, capsys):
        a, b, sigma_o, L = 0.01, 0.012, 1e6, 1e-4
        v_o = 2.0 * math.sqrt(a * (b - a)) * sigma_o * 3000.0 / 30e9
        fr = RateState(a=a, b=b, L=L, sigma_o=sigma_o, v_o=v_o)
        bm = make_bimaterial(EffectiveMedium(mu=30e9, c1=3000.0),
                             EffectiveMedium(mu=30e9, c1=3600.0))
        k_cr = critical_mode(fr, bm).mode.k_mag
        base = (["roots"] + friction_flags()
                + ["--mu", "30e9", "--c1", "3000",
                   "--mu-2", "30e9", "--c1-2", "3600"])
        assert main(base + ["--k", repr(0.95 * k_cr)]) == 0
        below = parse_kv(capsys.readouterr().out)
        assert below["n_unstable"] == "2"
        assert int(below["samples"]) >= 4096
        assert main(base + ["--k", repr(1.05 * k_cr)]) == 0
        above = parse_kv(capsys.readouterr().out)
        assert above["n_unstable"] == "0"

    README = ["roots", "--k", "0.0017", "--a", "0.01", "--b", "0.012",
              "--L", "1e-4", "--sigma-o", "1e6", "--v-o", "8.94e-4",
              "--mu", "30e9", "--c1", "3000", "--mu-2", "30e9", "--c1-2", "3600"]

    def test_readme_example_walks_half_contour(self, capsys):
        """The count walks only the upper half of the rectangle: 2049
        samples doubled once to confirm, no local refinement.  A counter
        that walks the whole boundary needs about twice as many."""
        assert main(self.README) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["n_unstable"] == "2"
        assert 4096 <= int(kv["samples"]) <= 4200

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan", "1e300", "1e-300"])
    def test_unresolvable_k_is_input_error(self, capsys, k):
        argv = ["roots", f"--k={k}"] + self.README[3:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("k", ["1e50", "1e100"])
    def test_segment_too_short_to_halve_exits_three(self, capsys, k):
        """A contour segment whose midpoint rounds onto an end ends the
        attempt at once; it used to be split for minutes."""
        assert main(["roots", f"--k={k}"] + self.README[3:]) == 3
        assert capsys.readouterr().err == (
            "solver error: a characteristic root stayed on the counting "
            "contour through 5 dilations; the last attempt ended on a segment "
            "too short to halve\n")

    def test_requires_friction(self, capsys):
        assert main(["roots", "--k", "1.0", "--mu", "30e9",
                     "--c1", "3000"]) == 2
        assert "friction" in capsys.readouterr().err


class TestSimulate:
    FRICTION = ["--a", "0.01", "--b", "0.015", "--L", "1e-5",
                "--sigma-o", "1e6", "--v-o", "1e-3"]

    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        argv = (["simulate", "--stiffness", "1e9", "--perturb", "1e-3",
                 "--duration", "0.2", "--out", str(out)] + self.FRICTION)
        assert main(argv) == 0
        config, header, rows = read_csv(out)
        assert header == ["t", "V", "theta", "tau"]
        assert config["law"] == "ageing"
        assert config["blew_up"] is False
        ts = [float(row[0]) for row in rows]
        assert ts == sorted(ts)
        assert all(float(row[1]) > 0.0 for row in rows)

    def test_blow_up_recorded_in_header(self, tmp_path):
        out = tmp_path / "runaway.csv"
        argv = (["simulate", "--stiffness", "1e8", "--perturb", "1e-3",
                 "--out", str(out)] + self.FRICTION)
        assert main(argv) == 0
        config, _, _ = read_csv(out)
        assert config["blew_up"] is True

    @pytest.mark.parametrize("perturb", ["999999", "1e6", "1e7"])
    def test_start_at_the_runaway_threshold_is_input_error(
            self, tmp_path, capsys, perturb):
        # V0 >= RUNAWAY_FACTOR*v_o leaves no sample before the crossing: this
        # used to end in an IndexError traceback (999999) or exit 3 (above)
        out = tmp_path / "x.csv"
        argv = (["simulate", "--stiffness", "5e8", "--perturb", perturb,
                 "--out", str(out)] + self.FRICTION)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial V = ")
        assert "runaway threshold" in err and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_trial_steps_are_rejected(self, tmp_path):
        # a light block: trial steps overflow exp(u) from the first steps on
        # (112 of them over this duration), which used to end the run with
        # exit 3; each is now rejected and retried shorter
        out = tmp_path / "x.csv"
        argv = (["simulate", "--stiffness", "5e8", "--mass", "0.05",
                 "--law", "slip", "--perturb", "1e-3", "--duration", "1e-4",
                 "--out", str(out)] + self.FRICTION)
        assert main(argv) == 0
        config, _, rows = read_csv(out)
        assert config["blew_up"] is False and config["duration"] == 1e-4
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_evaluation_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        # a light block makes the inertial equation stiff for the explicit
        # integrator: at the full budget this run stops after about 1M
        # evaluations instead of crawling through about 24M
        monkeypatch.setattr(simulate, "MAX_EVALUATIONS", 20_000)
        argv = (["simulate", "--stiffness", "5e8", "--mass", "5", "--perturb",
                 "1e-2", "--law", "slip", "--out", str(tmp_path / "x.csv")]
                + self.FRICTION)
        assert main(argv) == 3
        assert "evaluation budget 20000 spent" in capsys.readouterr().err

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        argv = (["simulate", "--stiffness", "1e9", "--duration", "0.01",
                 "--out", str(out)] + self.FRICTION)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")

    def test_law_choices_enforced_by_parser(self, capsys):
        argv = (["simulate", "--stiffness", "1e9", "--law", "aging"]
                + self.FRICTION)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestFigures:
    def test_eight_files(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        assert main(["figures", "--out", str(outdir)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 8
        names = sorted(p.name for p in outdir.iterdir())
        assert names == sorted(f"fig{i}.csv" for i in range(1, 9))
        config, header, rows = read_csv(outdir / "fig1.csv")
        assert header == ["q", "branch", "k_hat"]
        assert config["column"] == "k_hat"
        assert len([r for r in rows if r[1] == "subsonic"]) == 200
        config2, header2, _ = read_csv(outdir / "fig2.csv")
        assert header2 == ["q", "branch", "c_over_c1"]
        assert config2["column"] == "c_over_c1"

    def test_out_under_a_file_is_input_error(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert main(["figures", "--out", str(blocker / "figs")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {blocker / 'figs'}: Not a directory\n")


class TestBytePins:
    """SHA-256 digests of CSV outputs, recorded before the columnar sweep
    writer replaced csv.writer rows: the bytes, `#` header lines included,
    must stay the same (a new version string would change them too)."""

    FIGURES = {
        "fig1.csv": "1f34928015e13f7fe3e4d49d58223b76a90d935491446b6b882fdbb78142b2be",
        "fig2.csv": "57cfa06a4d4885b7949b7672aa98a8e693ce86a44865bd631b11a90c87c9ab0b",
        "fig3.csv": "91d25bc18e94cda6b692859bd6899597a605531471aef24b46e4f1eca87db672",
        "fig4.csv": "9d6657933c4168fe9e6fa2eb1007bb994a0b8eed624a765a600b92317bcc725f",
        "fig5.csv": "2631c44c4e0c36ee12ebac432c36e787209376a68d756f835cf5723c88863f35",
        "fig6.csv": "31262cce734942709bf71436d44a4a7490792c02785cfdeb036f3a13dee201d3",
        "fig7.csv": "4ea6b0515faabab07a0d714c666ad85556a2833a8cab3ae8a7be8e2249d39900",
        "fig8.csv": "f96d4c85c200fd46200c97695a9128ee83b3806de5eb4279e420b6b22541f512",
    }
    # the (5, 0.1) preset over 200 log-spaced q, and the README simulate run
    OUTPUTS = [
        (["sweep", "--q-min", "0.01", "--q-max", "10", "--q-points", "200",
          "--log", "--b-over-a", "1.2", "--speed-ratio", "5", "--mu-ratio", "0.1"],
         "b4846ec54410d2428c6117f695ae30a796802afdb930600f7f7b8bd6e7ed9386"),
        (["simulate", "--stiffness", "5e8", "--perturb", "1e-3"]
         + TestSimulate.FRICTION,
         "d833dd595b0fbccfb9156b7efb27aeba15d17f98f9e918e6fe6246079fc86004"),
    ]

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_figures(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        assert {name: self.digest(tmp_path / name)
                for name in self.FIGURES} == self.FIGURES

    @pytest.mark.parametrize("argv,sha256", OUTPUTS, ids=["sweep", "simulate"])
    def test_output(self, tmp_path, argv, sha256):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert self.digest(out) == sha256


class TestVerify:
    def test_failure_exits_three(self, capsys, monkeypatch):
        import slipstab.cli as cli

        fake = [VerifyResult(name="good", ok=True, detail="fine", elapsed=0.1),
                VerifyResult(name="bad", ok=False, detail="broke", elapsed=0.2)]
        monkeypatch.setattr(cli, "run_all", lambda: fake)
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert "PASS good" in out and "FAIL bad" in out

    def test_success_exits_zero(self, capsys, monkeypatch):
        import slipstab.cli as cli

        fake = [VerifyResult(name="good", ok=True, detail="fine", elapsed=0.1)]
        monkeypatch.setattr(cli, "run_all", lambda: fake)
        assert main(["verify"]) == 0

    def test_gate_over_its_budget_fails_and_says_so(self):
        result = _gate("x", budget=0.0)(lambda: (True, "fine"))()
        assert not result.ok
        assert result.line().startswith("FAIL x: fine; over its 0 s budget [")
        assert _gate("x")(lambda: (True, "fine"))().line().startswith(
            "PASS x: fine [")


FRICTION_CFG = {"a": 0.01, "b": 0.012, "L": 1e-4, "sigma_o": 1e6,
                "v_o": 8.94e-4}
SWEEP_CFG = {"q_min": 0.5, "q_max": 2.0, "q_points": 5, "b_over_a": 1.2,
             "out": "-"}


@pytest.mark.parametrize("command,config,field", [
    ("kcr", {"q": "1", "b_over_a": 1.2}, "q"),
    ("kcr", {**FRICTION_CFG, "a": "0.01", "mu": 30e9, "c1": 3000.0}, "a"),
    ("roots", {**FRICTION_CFG, "k": "1", "mu": 30e9, "c1": 3000.0}, "k"),
    ("sweep", {**SWEEP_CFG, "b_over_a": None}, "b_over_a"),
    ("sweep", {**SWEEP_CFG, "mu_ratio": "2"}, "mu_ratio"),
    ("sweep", {**SWEEP_CFG, "q_points": True}, "q_points"),
    ("simulate", {**FRICTION_CFG, "stiffness": "1e9", "out": "-"},
     "stiffness"),
    ("medium", {"c44": "30e9", "c55": 30e9, "rho": 3000.0}, "c44"),
])
def test_mistyped_config_value_is_input_error(tmp_path, capsys, command,
                                              config, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {field} must be a ")


def test_unknown_config_law_is_input_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"law": "bogus"}))
    argv = (["simulate", "--config", str(path), "--stiffness", "1e9",
             "--out", "-"] + TestSimulate.FRICTION)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        'error: config: law must be one of ageing, slip, got "bogus"\n')


@pytest.mark.parametrize("argv,message", [
    (["kcr", "--q", "1", "--b-over-a", "1.2", "--mu-ratio", "-1"],
     "mu_ratio must be positive, got -1.0"),
    (["kcr", "--q", "1", "--b-over-a", "1.2", "--speed-ratio", "0.5"],
     "speed_ratio must be >= 1 (slow side first), got 0.5"),
    (TestSweep.BASE[:-1] + ["0.5", "--out", "-"],
     "speed_ratio must be >= 1 (slow side first), got 0.5"),
    (["simulate", "--stiffness", "1e9", "--duration", "0", "--out", "-"]
     + TestSimulate.FRICTION, "duration must be positive, got 0.0"),
    (["simulate", "--stiffness", "1e9", "--tol", "0", "--out", "-"]
     + TestSimulate.FRICTION, "tol must be positive, got 0.0"),
    (["simulate", "--stiffness", "1e9", "--duration", "5e-324", "--out", "-"]
     + TestSimulate.FRICTION,
     "duration = 5e-324 s gives an output spacing that underflows to 0"),
    (["simulate", "--stiffness", "1e9", "--duration", "1e9", "--out", "-"]
     + TestSimulate.FRICTION,
     "duration = 1000000000.0 s at an output spacing of 0.0013884009181744897 "
     "s needs more than MAX_SAMPLES = 1000000 samples"),
    (["simulate", "--stiffness", "1e9", "--duration", "1e300", "--out", "-"]
     + TestSimulate.FRICTION,
     "duration = 1e+300 s at an output spacing of 0.0013884009181744897 s "
     "needs more than MAX_SAMPLES = 1000000 samples"),
    (["sweep", "--q-min", "0.01", "--q-max", "10", "--q-points", "10000000000",
      "--b-over-a", "1.2", "--out", "-"],
     "q_points must be an integer from 2 to 1000000, got 10000000000"),
    (["roots", "--k=5e-324"] + TestRoots.README[3:],
     "k = 5e-324 is too small: L*|k|*c1 underflows to 0"),
    (["medium", "--c44", "30e9", "--c55", "30e9", "--c45", "1e300",
      "--rho", "3000"], "c44*c55 - c45^2 = -inf is not positive"),
    ("kcr --a=5e-324 --b=0.012 --L=1e-4 --sigma-o=1e6 --v-o=8.94e-4 --mu=30e9 "
     "--c1=3000".split(),
     "q is undefined: 2*sqrt(a*(b-a))*sigma_o*c1 underflows to 0 (a = 5e-324, "
     "b = 0.012, sigma_o = 1000000.0, c1 = 3000.0)"),
    ("roots --k=0.0017 --a=0.01 --b=0.012 --L=1e-4 --sigma-o=5e-324 "
     "--v-o=8.94e-4 --mu=30e9 --c1=3000".split(),
     "2*a*sigma_o underflows to 0 (a = 0.01, sigma_o = 5e-324)"),
    ("roots --k=1e10 --a=0.01 --b=0.012 --L=1e300 --sigma-o=1e6 "
     "--v-o=8.94e-314 --mu=30e9 --c1=3000 --mu-2=30e9 --c1-2=3600".split(),
     "v_o/L underflows to 0 (v_o = 8.94e-314, L = 1e+300)"),
    ("roots --k=1e300 --a=0.01 --b=0.012 --L=1e-4 --sigma-o=1e6 --v-o=1.7e308 "
     "--mu=1e-150 --c1=3000 --mu-2=30e9 --c1-2=3600".split(),
     "k = 1e+300 with v_o/L = inf puts the counting contour beyond the float "
     "range"),
    ("kcr --a=1e-152 --b=0.012 --L=1e-300 --sigma-o=1e6 --v-o=8.94e-4 "
     "--mu=30e9 --c1=3000 --mu-2=30e9 --c1-2=3600".split(),
     "the critical mode's omega = inf rad/s and |k| = inf 1/m must be "
     "positive and finite"),
    ("kcr --a=0.01 --b=0.012 --L=5e-324 --sigma-o=1e6 --v-o=8.94e-4 --mu=30e9 "
     "--c1=3000 --mu-2=30e9 --c1-2=1e150".split(),
     "the critical mode's omega = inf rad/s and |k| = inf 1/m must be "
     "positive and finite"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1e-5 "
     "--sigma-o 5e-324 --v-o 1e-3 --out -".split(),
     "a*sigma_o underflows to 0 (a = 0.01, sigma_o = 5e-324)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1e-5 "
     "--sigma-o 1e6 --mass 5e-324 --v-o 1e-3 --out -".split(),
     "mass*v_o underflows to 0 (mass = 5e-324, v_o = 0.001)"),
    ("kcr --a=0.01 --b=0.012 --L=1e-4 --sigma-o=1e6 --v-o=8.94e-4 --mu=3e160 "
     "--c1=3000 --mu-2=1e-310 --c1-2=3600".split(),
     "mu_ratio must be positive and finite, got 0.0"),
    # simulate scales that leave the float range: these used to escape as a
    # ZeroDivisionError or a RuntimeWarning, print inf or nan with exit 0, or
    # exit 2 naming a later symptom (theta = 0, duration = inf)
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1e300 "
     "--sigma-o 1e6 --v-o 5e-324 --out -".split(),
     "v_o/L underflows to 0 (v_o = 5e-324, L = 1e+300)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1e-5 "
     "--sigma-o 1e300 --f 1e300 --v-o 1e-3 --out -".split(),
     "f*sigma_o overflows to inf (f = 1e+300, sigma_o = 1e+300)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 1e300 --b 0.015 --L 1e-5 "
     "--sigma-o 1.7e308 --v-o 1e-3 --out -".split(),
     "a*sigma_o overflows to inf (a = 1e+300, sigma_o = 1.7e+308)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 1.7e306 --b 2e306 --L 1e-5 "
     "--sigma-o 1e6 --v-o 1e-3 --out -".split(),
     "a*sigma_o overflows to inf (a = 1.7e+306, sigma_o = 1000000.0)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1e-300 "
     "--sigma-o 1e6 --v-o 1e300 --out -".split(),
     "v_o/L overflows to inf (v_o = 1e+300, L = 1e-300)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1 "
     "--sigma-o 1e6 --v-o 1e-310 --out -".split(),
     "L/v_o overflows to inf (L = 1.0, v_o = 1e-310)"),
    ("simulate --stiffness 5e8 --perturb 1e-3 --a 0.01 --b 0.015 --L 1 "
     "--sigma-o 1e6 --v-o 1e-306 --out -".split(),
     "the default duration 200*L/v_o overflows to inf (L = 1.0, v_o = 1e-306)"),
    # q leaving the float range: kcr used to blame "q = inf" or "q must be
    # positive, got 0.0" instead of the product
    ("kcr --a=0.01 --b=0.015 --L=1e-4 --sigma-o=1e-300 --v-o=1e10 --mu=1e300 "
     "--c1=1".split(),
     "q = mu*v_o/(2*sqrt(a*(b-a))*sigma_o*c1) overflows to inf (mu = 1e+300, "
     "v_o = 10000000000.0, a = 0.01, b = 0.015, sigma_o = 1e-300, c1 = 1.0)"),
    ("kcr --a=0.01 --b=0.015 --L=1e-4 --sigma-o=1e300 --v-o=1e-300 --mu=1e-300 "
     "--c1=1e300".split(),
     "q is undefined: 2*sqrt(a*(b-a))*sigma_o*c1 overflows to inf (a = 0.01, "
     "b = 0.015, sigma_o = 1e+300, c1 = 1e+300)"),
])
def test_out_of_range_value_is_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text,message", [
    (None, "config: [Errno 2] No such file or directory: '{path}'"),
    ("{not json", "config: invalid JSON (Expecting property name enclosed in "
                  "double quotes: line 1 column 2 (char 1))"),
    ("[1, 2]", "config: top level must be a JSON object"),
])
def test_unreadable_config_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["kcr", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path=path)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["roots", *TestSimulate.FRICTION, "--mu", "30e9", "--c1", "3000"],
     "missing required field k"),
    (["kcr", *TestSimulate.FRICTION, "--mu", "30e9"],
     "missing material field c1"),
    (["kcr", *TestSimulate.FRICTION, "--mu", "30e9", "--c1", "3000",
      "--c44", "30e9", "--c55", "30e9", "--rho", "3000"],
     "give stiffness components or mu/c1 values, not both"),
    (["kcr", *TestSimulate.FRICTION],
     "missing material input (c44/c45/c55/rho or mu/c1, with _2 suffix for "
     "the second side)"),
    (["simulate", "--stiffness", "1e9", "--perturb", "-1", "--out", "-",
      *TestSimulate.FRICTION], "perturb must exceed -1, got -1.0"),
])
def test_incomplete_input_is_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


README_KCR = ["kcr"] + TestRoots.README[3:]

_FUZZ_EXTREMES = (5e-324, 1e-310, 1e-300, 1e-150, 1e150, 1e300, 1.7e308)

# the simulate fields the fuzz varies, at the values of TestSimulate's runs
_SIMULATE_FIELDS = {"--stiffness": 5e8, "--perturb": 1e-3, "--a": 0.01,
                    "--b": 0.015, "--L": 1e-5, "--sigma-o": 1e6, "--v-o": 1e-3,
                    "--f": 0.6, "--mass": 0.0}


def _fuzz_fields(rng, values):
    """--flag=value arguments for values with one or two fields replaced by
    an extreme, half the time times the field's value, and half the time
    b = a times 1.2, 0.8 or 1 + 1e-15."""
    values = dict(values)
    for flag in rng.choice(list(values), rng.integers(1, 3), replace=False):
        extreme = float(rng.choice(_FUZZ_EXTREMES))
        values[flag] = extreme * values[flag] if rng.random() < 0.5 else extreme
    if rng.random() < 0.5:
        values["--b"] = values["--a"] * float(rng.choice([1.2, 0.8, 1.0 + 1e-15]))
    return [f"{flag}={value!r}" for flag, value in values.items()]


def _fuzz_argv(rng):
    """A kcr or roots argv: the nine README fields through _fuzz_fields."""
    argv = _fuzz_fields(rng, zip(README_KCR[1::2], map(float, README_KCR[2::2])))
    if rng.random() < 0.5:
        return ["kcr"] + argv
    k = float(rng.choice([1.7e-3, 1e-10, 1e10, 5e-324, 1e300]))
    return ["roots", f"--k={k!r}"] + argv


def _fuzz_simulate_argv(rng):
    """A simulate argv writing to stdout: _SIMULATE_FIELDS through
    _fuzz_fields (a mass of 0 times an extreme stays 0)."""
    return ["simulate", *_fuzz_fields(rng, _SIMULATE_FIELDS), "--out", "-"]


def _fuzz_faults(capsys, argvs):
    """(argv, outcome, stdout) of each argv whose main call escapes (a
    traceback, or a numpy warning), exits other than 0, 2 or 3, or exits 0
    printing inf or nan."""
    faults = []
    for argv in argvs:
        try:
            code = main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        out = capsys.readouterr().out
        if code not in (0, 2, 3) or (code == 0 and re.search(r"\b(inf|nan)\b", out)):
            faults.append((" ".join(argv), code, out))
    return faults


def test_extreme_fields_exit_cleanly(capsys):
    """1,000 seeded kcr and roots calls with extreme friction and material
    values: each exits 0, 2 or 3, and none that succeeds prints inf or nan."""
    rng = np.random.default_rng(2024)
    assert _fuzz_faults(capsys, (_fuzz_argv(rng) for _ in range(1000))) == []


def test_extreme_simulate_fields_exit_cleanly(capsys, monkeypatch):
    """300 seeded simulate calls with extreme spring, mass, perturbation and
    friction values: each exits 0, 2 or 3, and no CSV it writes holds inf
    or nan."""
    # the stiff inertial draws spend the whole budget (about 2 s each at
    # 1M evaluations) and exit 3 either way; a successful draw takes < 40k
    monkeypatch.setattr(simulate, "MAX_EVALUATIONS", 100_000)
    rng = np.random.default_rng(2024)
    assert _fuzz_faults(capsys, (_fuzz_simulate_argv(rng) for _ in range(300))) == []


def _with(argv, flag, value):
    """argv with the value after flag replaced."""
    i = argv.index(flag)
    return argv[:i + 1] + [value] + argv[i + 2:]


@pytest.mark.parametrize("argv,field", [
    (_with(README_KCR, "--L", "inf"), "L"),
    (_with(README_KCR, "--sigma-o", "inf"), "sigma_o"),
    (_with(README_KCR, "--b", "inf"), "b"),
    (_with(README_KCR, "--mu-2", "inf"), "mu=inf"),
    (_with(README_KCR, "--c1-2", "inf"), "c1=inf"),
    (["kcr", "--q", "1", "--b-over-a", "1.2", "--mu-ratio", "inf"], "mu_ratio"),
    (["kcr", "--q", "1", "--b-over-a", "1.2", "--speed-ratio", "inf"],
     "speed_ratio"),
    (["simulate", "--stiffness", "inf", "--out", "-"] + TestSimulate.FRICTION,
     "stiffness"),
    (["kcr", "--q", "inf", "--b-over-a", "1.2"], "q"),
    (["kcr", "--q", "1", "--b-over-a", "inf"], "b/a"),
    (_with(TestSweep.BASE, "--b-over-a", "inf") + ["--out", "-"], "b/a"),
    (_with(TestSweep.BASE, "--q-min", "inf") + ["--out", "-"], "q_min"),
    (_with(TestSweep.BASE, "--q-max", "inf") + ["--out", "-"], "q_max"),
])
def test_infinite_input_is_input_error(capsys, argv, field):
    """An infinite input is rejected where it is read, naming the field,
    with no solver warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err and "finite" in captured.err


def test_nan_mass_is_input_error(capsys):
    argv = (["simulate", "--stiffness", "1e8", "--mass", "nan", "--out", "-"]
            + TestSimulate.FRICTION)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mass must be nonnegative and finite, got nan\n"


@pytest.mark.parametrize("b_over_a", ["nan", "0", "-1"])
def test_nonpositive_b_over_a_is_input_error(capsys, b_over_a):
    assert main(["kcr", "--q", "1", "--b-over-a", b_over_a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: b/a must be positive")


def test_sweep_nan_b_over_a_is_input_error(capsys):
    assert main(TestSweep.BASE[:8] + ["nan", "--out", "-"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: sweep requires a finite b/a > 1 and at most 1e+100, got nan")


def test_sweep_b_over_a_above_the_bound_is_input_error(capsys):
    # b/a = 1e300 overflowed a term of the intersonic window, and the sweep
    # wrote modes computed without it
    argv = ["sweep", "--q-min", "0.5", "--q-max", "2", "--q-points", "3",
            "--b-over-a", "1e300", "--speed-ratio", "1.2", "--out", "-"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "b/a" in captured.err


@pytest.mark.parametrize("argv", [
    ["kcr", "--q", "1e200", "--b-over-a", "1.2"],
    _with(TestSweep.BASE, "--q-max", "1e300") + ["--log", "--out", "-"],
    ["kcr", "--a", "0.01", "--b", "0.012", "--L", "1e-4", "--sigma-o", "1e-50",
     "--v-o", "1e10", "--mu", "1e200", "--c1", "1"],
])
def test_q_beyond_the_solver_range_is_input_error(capsys, argv):
    """kcr and sweep report a q the subsonic solve cannot resolve alike:
    exit 2, one error line, no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: q = ") and captured.err.count("\n") == 1
    assert "outside the range" in captured.err


def test_small_mu_ratio_range_error_names_it(capsys):
    """A moderate q whose 2*mu_ratio*q/(1 + mu_ratio) is below the subsonic
    solve's range: the error names mu_ratio and the condition."""
    assert main(["kcr", "--q", "0.5", "--b-over-a", "1.2",
                 "--mu-ratio", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: q = 0.5 with mu_ratio = 1e-300 ")
    assert "2*mu_ratio*q/(1 + mu_ratio) >= 1e-154" in captured.err


def test_sweep_solver_failure_exits_three(capsys, monkeypatch):
    """Only a rejected value is an input error; other solver failures of a
    sweep still exit 3."""
    import slipstab.cli as cli

    def failing(*args):
        raise SlipStabError("neutral-mode root search did not converge")
    monkeypatch.setattr(cli, "sweep_q", failing)
    assert main(TestSweep.BASE + ["--out", "-"]) == 3
    assert capsys.readouterr().err == (
        "solver error: neutral-mode root search did not converge\n")


def test_sweep_q_called_once_per_sweep_through_the_module(tmp_path, monkeypatch,
                                                          capsys):
    """sweep and figures call cli.sweep_q, the name the benchmark's tracer
    rebinds, once per sweep: one for `sweep`, one per preset for `figures`."""
    import slipstab.cli as cli

    calls = []
    original = cli.sweep_q

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(cli, "sweep_q", counting)
    assert main(TestSweep.BASE + ["--out", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 1
    assert main(["figures", "--out", str(tmp_path / "figs")]) == 0
    assert len(calls) == 1 + 4


def test_verify_takes_no_config():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", "x"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "slipstab" in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Runs cli.main on each argv of a JSON list in one fresh process and prints,
# per call, [exit code, stdout, stderr, whether any scipy module is loaded].
_CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from slipstab.cli import main
records = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    scipy = any(name.startswith("scipy") for name in sys.modules)
    records.append([code, out.getvalue(), err.getvalue(), scipy])
print(json.dumps(records))
"""


def calls_in_one_process(calls, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", _CALLS_IN_ONE_PROCESS, json.dumps(calls)],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(slipstab.__file__).parents[1])})
    return json.loads(proc.stdout)


def test_scipy_loads_only_for_the_oracle(tmp_path):
    """No command imports scipy, the oracle included: the neutral-mode and
    counting commands use numpy alone, and the spring-block integrator runs
    on Python floats."""
    calls = [["kcr", "--q", "1", "--b-over-a", "1.2", "--speed-ratio", "1.2"],
             TestSweep.BASE + ["--out", "sweep.csv"],
             TestRoots.README,
             ["medium", "--c44", "30e9", "--c55", "30e9", "--rho", "3000"],
             ["simulate", "--stiffness", "5e8", "--perturb", "1e-3",
              "--duration", "0.02", "--out", "-"] + TestSimulate.FRICTION]
    records = calls_in_one_process(calls, tmp_path)
    assert [code for code, *_ in records] == [0] * 5
    assert [scipy for *_, scipy in records] == [False] * 5


def test_parser_reuse_leaves_each_call_unchanged(tmp_path):
    """One process that runs rejected calls first, then valid ones, gives
    every call the exit code, output and CSV bytes it has when run alone."""
    calls = [["kcr", "--q", "1", "--c44", "1"],
             ["verify", "--config", "x"],
             ["kcr", "--q", "1", "--b-over-a", "1.2", "--speed-ratio", "1.2"],
             TestSweep.BASE + ["--out", "one.csv"],
             TestSweep.BASE + ["--out", "two.csv"]]
    (tmp_path / "together").mkdir()
    together = calls_in_one_process(calls, tmp_path / "together")
    alone = []
    for i, argv in enumerate(calls):
        (tmp_path / f"alone{i}").mkdir()
        alone += calls_in_one_process([argv], tmp_path / f"alone{i}")
    assert together == alone
    assert [code for code, *_ in together] == [2, 2, 0, 0, 0]
    assert "not both" in together[0][2]
    csv = (tmp_path / "together" / "one.csv").read_bytes()
    assert (tmp_path / "together" / "two.csv").read_bytes() == csv
    assert (tmp_path / "alone3" / "one.csv").read_bytes() == csv
    assert (tmp_path / "alone4" / "two.csv").read_bytes() == csv


class TestContract:
    """The command-line surface and provenance headers, pinned literally."""

    # per subcommand: flag[:type], float by default; "flag" marks a switch
    # and a|b lists choices; dest is the flag in snake_case
    FRICTION = "a b L sigma-o v-o f "
    MATERIAL = "c44 c45 c55 rho c44-2 c45-2 c55-2 rho-2 "
    SURFACE = {
        "medium": MATERIAL + "config:str",
        "kcr": ("q b-over-a mu-ratio speed-ratio " + FRICTION + MATERIAL
                + "mu c1 mu-2 c1-2 config:str"),
        "sweep": ("q-min q-max q-points:int log:flag mu-ratio speed-ratio "
                  "b-over-a out:str config:str"),
        "figures": "out:str config:str",
        "roots": "k " + FRICTION + MATERIAL + "mu c1 mu-2 c1-2 config:str",
        "simulate": ("stiffness mass law:ageing|slip duration tol perturb "
                     "out:str " + FRICTION + "config:str"),
        "verify": "",   # takes no inputs, so no --config
    }

    @staticmethod
    def surface(sub):
        # a type of None parses as str
        return {(tuple(a.option_strings), a.dest, (a.type or str).__name__,
                 tuple(a.choices) if a.choices else None, a.nargs)
                for a in sub._actions}

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flag_surface(self, command):
        expected = {(("-h", "--help"), "help", "str", None, 0)}
        for token in self.SURFACE[command].split():
            flag, _, kind = token.partition(":")
            dest = flag.replace("-", "_")
            if kind == "flag":
                row = ("str", None, 0)
            elif "|" in kind:
                row = ("str", tuple(kind.split("|")), None)
            else:
                row = (kind or "float", None, None)
            expected.add(((f"--{flag}",), dest) + row)
        subs = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(self.SURFACE)
        assert self.surface(subs.choices[command]) == expected

    def test_sweep_header(self, capsys):
        assert main(["sweep", "--q-min", "0.01", "--q-max", "10",
                     "--q-points", "200", "--log", "--b-over-a", "1.2",
                     "--speed-ratio", "1.2", "--out", "-"]) == 0
        head = capsys.readouterr().out.splitlines()[:3]
        assert head == [
            f"# slipstab {__version__}",
            '# config: {"b_over_a": 1.2, "log": true, "mode": "sweep", '
            '"mu_ratio": 1.0, "q_max": 10.0, "q_min": 0.01, '
            '"q_points": 200, "speed_ratio": 1.2}',
            "q,branch,c_over_c1,k_hat"]

    def test_figures_header(self, tmp_path):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        head = (tmp_path / "fig1.csv").read_text().splitlines()[:3]
        assert head == [
            f"# slipstab {__version__}",
            '# config: {"b_over_a": 1.2, "column": "k_hat", "log": true, '
            '"mode": "figures", "mu_ratio": 1.0, "q_max": 10.0, '
            '"q_min": 0.01, "q_points": 200, "speed_ratio": 1.2}',
            "q,branch,k_hat"]

    def test_simulate_header(self, capsys):
        assert main(["simulate", "--stiffness", "5e8", "--perturb", "1e-3",
                     "--duration", "0.2", "--out", "-"]
                    + TestSimulate.FRICTION) == 0
        head = capsys.readouterr().out.splitlines()[:3]
        assert head == [
            f"# slipstab {__version__}",
            '# config: {"L": 1e-05, "a": 0.01, "b": 0.015, "blew_up": false, '
            '"duration": 0.2, "law": "ageing", "mass": 0.0, '
            '"mode": "simulate", "perturb": 0.001, "sigma_o": 1000000.0, '
            '"stiffness": 500000000.0, "tol": 1e-10, "v_o": 0.001}',
            "t,V,theta,tau"]
