"""Config parsing, command orchestration, artifact determinism, exit codes."""

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_tracer import CONFIG as TINY_LINEARIZED_VERIFY

import dumbbell_averager.cli as cli
from dumbbell_averager import averaging, dynamics, reports, shooting, zeros
from dumbbell_averager.cli import ConfigError, RunConfig, load_config
from dumbbell_averager.dynamics import Mode
from dumbbell_averager.reference import BUNDLED_CASES
from dumbbell_averager.torques import MAX_NESTING, LinearizedTorque
from dumbbell_averager.zeros import DEFAULT_NEWTON_TOL, MAX_SEEDS, ZeroSearchDomain

SQRT3 = math.sqrt(3.0)

MINIMAL = """
F1star = sin(theta)
F2star = sin(phi)
mode = T1
"""

REFERENCE1 = """
F1star = sin(theta)*theta_dot^4 + sin(phi)*sin(theta)*(1 - phi_dot^2)
F2star = cos(theta) - sin(sqrt3*t)*sin(theta)*theta_dot - sin(theta)*theta_dot^2 - cos(phi)*(1 - phi_dot^2)
mode = T1
field_source = printed-reference
case = corollary1
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal_gets_defaults(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        assert config.mode is Mode.NUTATION_T1
        assert config.p == 1 and config.q == 1
        assert config.r1 == 0.05 and config.r2 == 5.0
        assert config.quad_tol == 1e-12
        assert config.shooting_tol == 1e-10
        assert config.field_source == "pipeline"
        assert config.epsilon_list == (1e-2, 1e-3, 1e-4)
        # each default is the owning module's
        assert config.domain == ZeroSearchDomain()
        assert config.quad_tol == averaging.DEFAULT_QUAD_TOL
        assert config.newton_tol == DEFAULT_NEWTON_TOL
        assert config.shooting_tol == shooting.DEFAULT_SHOOTING_TOL
        assert config.integrator_tol == shooting.DEFAULT_INTEGRATOR_TOL

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# leading comment\n\nF1star = sin(theta) # trailing\nF2star = sin(phi)\nmode = T2\n"
        config = load_config(write(tmp_path, text))
        assert config.mode is Mode.PRECESSION_T2
        assert config.f1star == "sin(theta)"

    def test_annulus_validation_names_the_key(self, tmp_path):
        text = MINIMAL + "r1 = 3.0\nr2 = 1.0\n"
        with pytest.raises(ConfigError, match="r1"):
            load_config(write(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        text = MINIMAL + "wibble = 3\n"
        with pytest.raises(ConfigError, match="wibble"):
            load_config(write(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="F2star"):
            load_config(write(tmp_path, "F1star = sin(theta)\nmode = T1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        text = MINIMAL + "p = 1\np = 2\n"
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, text))

    def test_bad_number_names_the_key(self, tmp_path):
        text = MINIMAL + "quad_tol = banana\n"
        with pytest.raises(ConfigError, match="quad_tol"):
            load_config(write(tmp_path, text))

    def test_bundled_corollary2(self):
        with cli.resources.as_file(cli.bundled_config_path("corollary2")) as p:
            config = load_config(p)
        assert config.mode is Mode.PRECESSION_T2
        assert config.p == 1 and config.q == 1
        assert "sin(phi)" in config.f1star
        assert config.f2star.startswith("sin(phi)")
        assert config.case == "corollary2"

    def test_printed_reference_requires_case(self, tmp_path):
        text = MINIMAL + "field_source = printed-reference\n"
        with pytest.raises(ConfigError, match="case"):
            load_config(write(tmp_path, text))

    def test_gcd_validation(self, tmp_path):
        text = MINIMAL + "p = 2\nq = 4\n"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("name", sorted(BUNDLED_CASES))
    def test_bundled_config_matches_bundled_case(self, name):
        case = BUNDLED_CASES[name]
        with cli.resources.as_file(cli.bundled_config_path(name)) as p:
            config = load_config(p)
        assert config.f1star == case.f1star_text
        assert config.f2star == case.f2star_text
        assert config.spec == case.spec
        assert config.case == name


class TestEvalCommand:
    def test_affine_field_grid(self, tmp_path):
        # f1 extracted from sin(theta) is identically 1, so the averaged
        # field is (Y/6, X/2) on every grid node
        text = MINIMAL + "eval_n = 3\neval_lo = -1\neval_hi = 1\n"
        config = load_config(write(tmp_path, text))
        out = tmp_path / "out"
        path = cli.cmd_eval(config, out)
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if line and not line.startswith(("#", "alpha"))
        ]
        assert len(rows) == 9
        for a1, a2, v1, v2 in ((float(c) for c in row) for row in rows):
            assert v1 == pytest.approx(a2 / 6.0, abs=1e-12)
            assert v2 == pytest.approx(a1 / 2.0, abs=1e-12)

    def test_csv_has_comment_and_header(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL + "eval_n = 2\n"))
        path = cli.cmd_eval(config, tmp_path / "out")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert "quad_tol" in lines[0]
        assert lines[1] == "alpha1,alpha2,value1,value2"


class TestSolveCommand:
    def test_reference_case1(self, tmp_path):
        config = load_config(write(tmp_path, REFERENCE1))
        zeros, groups, path = cli.cmd_solve(config, tmp_path / "out")
        assert len(zeros) == 1 and len(groups) == 1
        assert zeros[0].location[0] == pytest.approx(SQRT3 / 3, abs=1e-9)
        assert zeros[0].location[1] == pytest.approx(0.0, abs=1e-9)
        assert zeros[0].jacobian_det == pytest.approx(1 / 384, abs=1e-9)
        body = path.read_text().splitlines()
        assert body[1] == "alpha1,alpha2,residual,det,classification,orbit_class"
        assert body[2].endswith("Simple,0")

    def test_determinism_byte_identical(self, tmp_path):
        config = load_config(write(tmp_path, REFERENCE1))
        p1 = cli.cmd_solve(config, tmp_path / "a")[2]
        p2 = cli.cmd_solve(config, tmp_path / "b")[2]
        assert p1.read_bytes() == p2.read_bytes()


class TestMainEntry:
    def test_exit_codes_for_config_errors(self, tmp_path, capsys):
        bad = write(tmp_path, MINIMAL + "r1 = 9\n")
        assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert cli.main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert cli.main(["eval"]) == 1  # --config required

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(MINIMAL.encode() + b"# \xff\n")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        cfg = write(tmp_path, REFERENCE1)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", str(cfg), "--out", out]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--out", out]) == 1
        assert "--force" in capsys.readouterr().err
        assert cli.main(["solve", "--config", str(cfg), "--out", out, "--force"]) == 0

    @pytest.mark.parametrize("command", ["verify", "reproduce"])
    def test_refused_rerun_changes_nothing(self, tmp_path, monkeypatch, capsys, command):
        # every artifact path is checked before the first stage: a run whose
        # first artifact was deleted is refused, does no work and writes nothing
        text = TINY_LINEARIZED_VERIFY
        if command == "reproduce":
            text = text.replace("verify_system = linearized\n", "")
        cfg = write(tmp_path, text)
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv) == 0
        names = list(cli._ARTIFACTS[command].values())
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        (out / names[0]).unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        def refused(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "multistart_zeros", refused)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "artifact error" in err and "--force" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_unwritable_out_is_an_artifact_error(self, tmp_path, capsys, out):
        # a regular file where the output directory, or its parent, should be
        cfg = write(tmp_path, REFERENCE1)
        (tmp_path / "taken").write_text("", encoding="utf-8")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert "artifact error" in err and "Traceback" not in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # unreachable quadrature tolerance forces NoConvergence in eval;
        # the rational time dependence keeps the trapezoid rule from ever
        # landing two bit-identical refinements
        text = (
            "F1star = sin(theta)/(2 + cos(t))\nF2star = sin(phi)\nmode = T1\n"
            "quad_tol = 1e-30\neval_n = 1\n"
        )
        cfg = write(tmp_path, text)
        code = cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_a_field_that_holds_at_no_seed_is_a_numerical_failure(self, tmp_path, capsys):
        # tan(0.5*t) has its pole at the end of the T2 window, so every
        # seed's quadrature reaches the node cap; the search cannot say
        # "no zeros"
        text = (
            "F1star = sin(theta)\nF2star = sin(phi)*tan(0.5*t)*phi_dot\nmode = T2\n"
            "n_r = 2\nn_angle = 4\n"
        )
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure in stage 'solve': trapezoid rule still moving")
        assert not (out / "zeros.csv").exists()

    def test_a_field_that_is_no_polynomial_is_searched_by_the_multistart(
        self, tmp_path, monkeypatch, capsys
    ):
        # cos(theta_dot) in the active coefficient: the field holds Bessel
        # functions, so it stays on quadrature and the seeds search it.  On
        # the axis F2 is proportional to a(J1(z)/z + z/8), z = sqrt3 * a
        special, optimize = pytest.importorskip("scipy.special"), pytest.importorskip("scipy.optimize")
        text = (
            "F1star = sin(theta)*(cos(theta_dot) - sin(sqrt3*t)*theta_dot)\nF2star = sin(phi)\n"
            "mode = T1\nn_r = 4\nn_angle = 8\n"
        )
        cfg = write(tmp_path, text)
        config = load_config(cfg)
        assert type(cli._build_field(config, "pipeline", None)[0]) is averaging.AveragedField

        def refused(*args):
            raise AssertionError("a field without terms was subdivided")

        monkeypatch.setattr(zeros, "_subdivide", refused)
        out = tmp_path / "o"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "pipeline zero search: not proved complete: multistart from 32 seeds\n"
        assert captured.out.endswith("(1 zero(s), 1 orbit class(es))\n")
        row = (out / "zeros.csv").read_text(encoding="utf-8").splitlines()[2].split(",")
        z = optimize.brentq(lambda z: special.j1(z) / z + z / 8, -3.0, -1.0, xtol=1e-15)
        assert float(row[0]) == pytest.approx(z / SQRT3, abs=1e-9)
        assert abs(float(row[1])) < 1e-9 and row[4] == "Simple"

    def test_verify_writes_reports(self, tmp_path):
        # linearized verification of the bundled T2 case, small ladder
        text = (
            REFERENCE1.replace("corollary1", "corollary2")
            .replace("mode = T1", "mode = T2")
            .replace(
                "F1star = sin(theta)*theta_dot^4 + sin(phi)*sin(theta)*(1 - phi_dot^2)",
                "F1star = sin(phi)*sin(theta)*phi_dot + sin(phi) + sin(2*t)*sin(phi)*(1 - phi_dot)*phi_dot",
            )
            .replace(
                "F2star = cos(theta) - sin(sqrt3*t)*sin(theta)*theta_dot - sin(theta)*theta_dot^2 - cos(phi)*(1 - phi_dot^2)",
                "F2star = sin(phi) - sin(2*t)*sin(phi)*phi_dot - sin(phi)*phi_dot^2",
            )
            + "verify_system = linearized\nepsilon_list = 1e-2, 1e-3\n"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        csv = (out / "continuation.csv").read_text().splitlines()
        assert csv[1].startswith("orbit_class,epsilon,predicted_theta")
        assert (out / "verify_report.txt").exists()
        assert (out / "zeros.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [["frobnicate"], ["reproduce", "nosuch"], ["verify", "--bogus"], [], ["eval", "--config"]],
        ids=["unknown-command", "unknown-case", "unknown-option", "no-command", "option-value"],
    )
    def test_usage_errors_are_config_errors(self, capsys, argv):
        # argparse's own exit code, 2, is that of a numerical failure
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_reproduce_needs_case(self, capsys):
        assert cli.main(["reproduce"]) == 1
        assert "case" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, edit",
        [
            # the T2 reference zero would be shot on the T1 window
            (
                ["verify"],
                lambda text: text.replace("mode = T2", "mode = T1")
                + "field_source = printed-reference\nverify_system = linearized\n",
            ),
            # corollary1's T1 reference zero would be shot on the T2 plane
            (["reproduce", "corollary1"], lambda text: text),
        ],
        ids=["verify-T1-config", "reproduce-corollary1-on-T2-config"],
    )
    def test_case_on_another_plane_is_a_config_error(self, tmp_path, capsys, argv, edit):
        with cli.resources.as_file(cli.bundled_config_path("corollary2")) as p:
            cfg = write(tmp_path, edit(p.read_text(encoding="utf-8")))
        out = tmp_path / "o"
        assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "case corollary" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_reproduce_parses_each_torque_once(self, tmp_path, monkeypatch, capsys):
        parsed = []
        parse = cli.parse_torque
        monkeypatch.setattr(cli, "parse_torque", lambda text: parsed.append(text) or parse(text))
        with cli.resources.as_file(cli.bundled_config_path("corollary1")) as p:
            text = p.read_text(encoding="utf-8")
        small = {"n_r = 16": "n_r = 2", "n_angle = 32": "n_angle = 8",
                 "epsilon_list = 1e-2, 1e-3, 1e-4": "epsilon_list = 1e-2"}
        for old, new in small.items():
            assert old in text
            text = text.replace(old, new)
        cfg = write(tmp_path, text)
        assert cli.main(["reproduce", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "case corollary1" in capsys.readouterr().out
        assert len(parsed) == 2

    @pytest.mark.parametrize(
        "argv, extra",
        [(["reproduce"], ""), (["verify"], "verify_system = linearized\n")],
        ids=["reproduce", "verify-linearized"],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_run_extracts_the_linearized_torque_once(
        self, tmp_path, monkeypatch, argv, extra, cpus
    ):
        # the pipeline field and every linearized ladder, in every process,
        # share one extraction, counted by a line in a file
        log = tmp_path / "extractions"
        extract = cli.extract_linearized

        def counted(f1, f2):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return extract(f1, f2)

        monkeypatch.setattr(cli, "extract_linearized", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        cfg = write(tmp_path, small_corollary2() + extra)
        assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert log.read_text(encoding="utf-8") == f"{os.getpid()}\n"

    @pytest.mark.parametrize(
        "command, line",
        [
            ("eval", "quad_tol = nan"),
            ("solve", "r2 = inf"),
            ("verify", "epsilon_list = 1e-2, nan"),
            ("verify", "epsilon_list = 1e-3, 1e-2"),
            # one seed or grid side over its cap; a value just below it would
            # allocate the arrays, so none is run here
            ("solve", "n_r = 99999999999999999999"),
            ("solve", f"n_r = {MAX_SEEDS + 1}\nn_angle = 1"),
            ("eval", f"n_angle = {MAX_SEEDS + 1}\nn_r = 1"),
            ("eval", f"eval_n = {cli.MAX_EVAL_N + 1}"),
        ],
    )
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys, command, line):
        cfg = write(tmp_path, MINIMAL + line + "\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and line.split()[0] in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_torque_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # (1e10*theta_dot)^40 leaves the floats once |theta_dot| passes 5e-3
        # on the full-system shot from corollary1's reference zero
        text = (
            REFERENCE1.replace(
                "F1star = sin(theta)*theta_dot^4 + sin(phi)*sin(theta)*(1 - phi_dot^2)",
                "F1star = sin(theta)*(10000000000*theta_dot)^40",
            )
            .replace(
                "F2star = cos(theta) - sin(sqrt3*t)*sin(theta)*theta_dot - sin(theta)*theta_dot^2 - cos(phi)*(1 - phi_dot^2)",
                "F2star = sin(phi)",
            )
            + "epsilon_list = 1e-2\n"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure in stage 'verify'" in err
        assert "Traceback" not in err
        assert "OverflowError" in (out / "verify_report.txt").read_text()

    def test_torque_overflow_at_the_origin_is_a_numerical_failure(self, tmp_path, capsys):
        # the origin check of the linearization overflows in Python's **
        cfg = write(tmp_path, "F1star = sin(theta) + (t + 1e200)^2\nF2star = sin(phi)\nmode = T1\n")
        out = tmp_path / "o"
        with np.errstate(over="ignore"):
            assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure in stage 'solve': OverflowError" in err
        assert "Traceback" not in err

    def test_linearized_verify_takes_the_generated_rhs(self, tmp_path, monkeypatch):
        def refused(*args):
            raise AssertionError("first_order_rhs called")

        monkeypatch.setattr(dynamics, "first_order_rhs", refused)
        cfg = write(tmp_path, TINY_LINEARIZED_VERIFY)
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        # coefficients without partial trees still go through first_order_rhs
        hand_built = LinearizedTorque(*(lambda t, v1, v2: 0.0,) * 4)
        with pytest.raises(AssertionError, match="first_order_rhs called"):
            dynamics.linearized_system(hand_built)(1e-2)(0.0, (1.0, 0.0, 0.0, 0.0))

    def test_python_m_runs_the_command_line(self, tmp_path):
        cfg = write(tmp_path, REFERENCE1)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-m", "dumbbell_averager", "solve", "--config", str(cfg),
             "--out", str(tmp_path / "m")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert (proc.returncode, code) == (0, 0), proc.stderr
        assert (tmp_path / "m" / "zeros.csv").read_bytes() == (tmp_path / "c" / "zeros.csv").read_bytes()

    def test_solve_and_verify_import_nothing_lazily(self, tmp_path):
        # a module first imported inside a command is paid by every run of
        # it: np.median's numpy.ma, or the signal module of the ladder fork
        with cli.resources.as_file(cli.bundled_config_path("corollary2")) as p:
            text = p.read_text(encoding="utf-8")
        text += "field_source = printed-reference\nverify_system = linearized\n"
        cfg = write(tmp_path, text)
        src, out = str(Path(cli.__file__).resolve().parents[1]), str(tmp_path / "o")
        script = (
            f"import sys; sys.path.insert(0, {src!r}); import dumbbell_averager.cli as cli\n"
            f"codes = [cli.main([c, '--config', {str(cfg)!r}, '--out', {out!r} + c])\n"
            "         for c in ('solve', 'verify')]\n"
            "print(codes, [m for m in ('numpy.ma', 'signal') if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] []"

    def test_torque_nested_past_the_bound_is_a_config_error(self, tmp_path, capsys):
        # each parenthesis of sin(theta)*(1+phi_dot*(...)) nests two levels
        def solve(n):
            text = "sin(theta)*" + "(1+phi_dot*" * n + "1" + ")" * n
            cfg = write(tmp_path, f"F1star = {text}\nF2star = sin(phi)\nmode = T2\n")
            return cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / str(n))])

        deepest = (MAX_NESTING - 2) // 2
        assert solve(deepest) == 0
        capsys.readouterr()
        assert solve(deepest + 1) == 1
        err = capsys.readouterr().err
        assert f"config error: F1star: syntax error at offset 0: expected at most {MAX_NESTING}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize(
        "line", ["F1star = sin(theta", "F2star = sin(phi) + wibble", "F1star = theta^\u00b2",
                 "F1star = 1e999*theta",
                 pytest.param("F1star = theta^" + "1" * 400, id="F1star = theta^1...1 (400 ones)")]
    )
    def test_malformed_torque_is_a_config_error(self, tmp_path, capsys, command, line):
        # the printed-reference field never needs the torques, so only the
        # up-front parse can catch the text before zeros.csv is written
        key = line.split()[0]
        kept = [text for text in REFERENCE1.splitlines() if not text.startswith(key)]
        cfg = write(tmp_path, "\n".join(kept + [line]) + "\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the ladders run forked")
@pytest.mark.parametrize(
    "command, case",
    [("reproduce", "corollary2"), ("verify", "corollary2"), ("reproduce", "corollary1")],
    ids=["reproduce", "verify", "reproduce-c1"],
)
def test_output_does_not_depend_on_the_usable_cpus(tmp_path, monkeypatch, capsys, command, case):
    # reproduce corollary2 runs 2 searches and 6 ladders, the linearized
    # verify of its reference field 1 search and 3 ladders, and reproduce
    # corollary1 2 searches and 2 ladders, whose shots end at the origin;
    # with P usable CPUs, P - 1 forked children share each pool run with the
    # caller: reproduce makes two runs, searches then ladders, and verify
    # one, since a single search forks nothing
    with cli.resources.as_file(cli.bundled_config_path(case)) as p:
        text = p.read_text(encoding="utf-8")
    if command == "verify":
        text += "field_source = printed-reference\nverify_system = linearized\n"
    cfg = write(tmp_path, text)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / f"cpus{cpus}"
        del forks[:]
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert len(forks) == (cpus - 1) * (2 if command == "reproduce" else 1)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        captured = capsys.readouterr()
        assert captured.err == ""  # every bundled search proves its zero set complete
        runs.append((files, captured.out.replace(str(out), "<out>")))
    assert sorted(runs[0][0]) == sorted(cli._ARTIFACTS[command].values())
    assert runs[0] == runs[1] == runs[2]


def small_corollary2():
    """corollary2's config with 16 seeds and a one-rung ladder."""
    with cli.resources.as_file(cli.bundled_config_path("corollary2")) as p:
        text = p.read_text(encoding="utf-8")
    small = {"n_r = 16": "n_r = 2", "n_angle = 32": "n_angle = 8",
             "epsilon_list = 1e-2, 1e-3, 1e-4": "epsilon_list = 1e-2"}
    for old, new in small.items():
        assert old in text
        text = text.replace(old, new)
    return text


def runs_on_one_and_two_cpus(monkeypatch, capsys, argv, out):
    """(exit code, files written, stderr) of ``cli.main(argv + --out)`` with
    one usable CPU and with two."""
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        where = out / f"cpus{cpus}"
        code = cli.main(argv + ["--out", str(where)])
        files = {p.name: p.read_bytes() for p in where.iterdir()} if where.exists() else {}
        runs.append((code, files, capsys.readouterr().err.replace(str(where), "<out>")))
    return runs


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the searches and ladders run forked")
@pytest.mark.parametrize(
    "failing, error, written",
    [
        ({"pipeline", "reference", "ladders"}, "pipeline search", []),
        ({"reference", "ladders"}, "reference search", ["zeros_pipeline.csv"]),
        ({"reference"}, "reference search", ["zeros_pipeline.csv"]),
        ({"ladders"}, None, ["zeros_pipeline.csv", "zeros_reference.csv"]),
    ],
    ids=["both-searches", "reference-search-and-ladders", "reference-search", "ladders"],
)
def test_failures_leave_in_the_serial_order(tmp_path, monkeypatch, capsys, failing, error, written):
    # a search failure outranks every ladder failure, and the pipeline
    # search's the reference search's; of the ladders, the first in the
    # serial order fails first: the pipeline field's first simple orbit
    # class in the first system.  The files on disk are those the serial
    # order leaves, with one usable CPU or two
    cfg = write(tmp_path, small_corollary2())
    if error is None:
        config = cli.load_config(cfg)
        _, groups, _ = cli._search(config, *cli._build_field(config, "pipeline", None))
        first = next(group[0].location for group in groups if group[0].is_simple)
        error = f"{cli._VERIFY_SYSTEMS[0]} ladder from {tuple(float(v) for v in first)}"
    search = cli.multistart_zeros

    def searched(fld, *args, **kwargs):
        source = "reference" if fld is BUNDLED_CASES["corollary2"].reference_field else "pipeline"
        if source in failing:
            raise cli.DumbbellError(f"{source} search")
        return search(fld, *args, **kwargs)

    def shot(**job):  # each system's rhs factory is its name here
        raise cli.DumbbellError(f"{job['rhs_for_eps']} ladder from {job['averaged_zero']}")

    monkeypatch.setattr(cli, "multistart_zeros", searched)
    if "ladders" in failing:
        monkeypatch.setattr(cli, "_rhs_factory", lambda config, system: system)
        monkeypatch.setattr(cli, "epsilon_continuation", shot)
    runs = runs_on_one_and_two_cpus(
        monkeypatch, capsys, ["reproduce", "--config", str(cfg)], tmp_path
    )
    code, files, err = runs[0]
    assert (code, sorted(files)) == (2, written)
    assert err.endswith(f"numerical failure in stage 'reproduce': {error}\n")
    assert runs[1] == runs[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the ladders run forked")
def test_a_child_that_dies_in_a_ladder_fails_after_both_zeros_files(
    tmp_path, monkeypatch, capsys
):
    # the caller's ladders wait until a child has begun one, which kills
    # its own process; the death is that ladder's outcome, raised by the
    # serial order after both searches wrote their zeros, and the caller
    # runs the other ladders without forking another child.  Each fork
    # records whether both zeros files exist, so only the ladders' count
    cfg = write(tmp_path, small_corollary2())
    caller, marker, shoot = os.getpid(), tmp_path / "child-started", cli.epsilon_continuation
    out, fork, forks = tmp_path / "o", os.fork, []
    zeros = lambda: len(list(out.glob("zeros_*.csv"))) == 2
    monkeypatch.setattr(os, "fork", lambda: forks.append(zeros()) or fork())

    def shot(**job):
        if os.getpid() == caller:
            deadline = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return shoot(**job)
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "epsilon_continuation", shot)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    assert cli.main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 2
    assert forks.count(True) == 1
    assert sorted(p.name for p in out.iterdir()) == ["zeros_pipeline.csv", "zeros_reference.csv"]
    assert re.search(
        rf"'reproduce': task process \d+ was killed by signal {signal.SIGKILL:d} without a result\n$",
        capsys.readouterr().err,
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the searches and ladders run forked")
def test_reproduce_forks_its_ladder_child_after_both_zeros_files(tmp_path, monkeypatch):
    # with two usable CPUs each pool run forks one child: the searches'
    # before any file exists, the ladders' once both zeros files are written
    cfg = write(tmp_path, small_corollary2())
    out, fork, forks = tmp_path / "o", os.fork, []
    written = lambda: sorted(p.name for p in out.iterdir()) if out.exists() else []
    monkeypatch.setattr(os, "fork", lambda: forks.append(written()) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    assert cli.main(["reproduce", "--config", str(cfg), "--out", str(out)]) == 0
    assert forks == [[], ["zeros_pipeline.csv", "zeros_reference.csv"]]


def test_a_torque_that_fails_to_linearize_fails_after_the_zeros_file(tmp_path, monkeypatch, capsys):
    # the printed-reference field needs no linearization, so the serial
    # order writes zeros.csv before the linearized ladders' extraction fails
    f1 = next(line for line in REFERENCE1.splitlines() if line.startswith("F1star"))
    text = REFERENCE1.replace(f1, "F1star = sin(theta) + (t + 1e200)^2")
    cfg = write(tmp_path, text + "verify_system = linearized\n")
    runs = runs_on_one_and_two_cpus(monkeypatch, capsys, ["verify", "--config", str(cfg)], tmp_path)
    code, files, err = runs[0]
    assert (code, sorted(files)) == (2, ["zeros.csv"])
    assert "numerical failure in stage 'verify': OverflowError" in err
    assert runs[1] == runs[0]


def test_a_reference_class_at_a_pipeline_zero_reads_the_pipeline_shots(tmp_path, monkeypatch):
    # corollary2's reference classes at (1.2808, 0) and (-0.7808, 0) lie
    # within newton_tol of the pipeline's; each reads the pipeline ladder's
    # certificates against its own zero, and only class 1 is shot
    with cli.resources.as_file(cli.bundled_config_path("corollary2")) as p:
        config = cli.load_config(p)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    searches = {"pipeline": ("pipeline", tmp_path / "p.csv"),
                "reference": ("printed-reference", tmp_path / "r.csv")}
    groups, ladders = cli._solve_and_shoot(config, searches, "corollary2", cli._VERIFY_SYSTEMS)
    zeros = {label: [tuple(float(v) for v in group[0].location) for group in groups[label]]
             for label in groups}
    for system in cli._VERIFY_SYSTEMS:
        shared = []
        for idx, report in ladders["reference", system].items():
            zero = zeros["reference"][idx]
            twin = [j for j, z in enumerate(zeros["pipeline"])
                    if math.dist(z, zero) <= config.newton_tol]
            assert report.prediction == dynamics.SatelliteState.from_sequence(
                dynamics.plane_embed(zero, config.mode))
            if not twin:
                continue
            shot = ladders["pipeline", system][twin[0]]
            assert report.certificates is shot.certificates
            assert repr(report) == repr(shooting.continuation_report(
                zero, config.spec, shot.eps_list, shot.certificates, shot.failure))
            shared.append(idx)
        assert shared == [0, 2]


def test_zeros_apart_by_more_than_newton_tol_are_shot_apart():
    tol = DEFAULT_NEWTON_TOL
    first = ("pipeline", "full", 0, (1.0, 0.0))
    apart = ("reference", "full", 0, (1.0 + 10 * tol, 0.0))
    within = ("reference", "full", 1, (1.0, 0.5 * tol))
    near_apart = ("reference", "full", 2, (1.0 + 10.5 * tol, 0.0))
    other_system = ("reference", "linearized", 0, (1.0, 0.0))
    assert cli._shared_shots([first, apart, within, near_apart, other_system], tol) == {
        first: first, apart: apart, within: first, near_apart: apart, other_system: other_system
    }


@pytest.mark.parametrize("failing", ["pipeline", "reference"])
def test_a_failed_search_plans_no_ladder(tmp_path, monkeypatch, capsys, failing):
    cfg = write(tmp_path, small_corollary2())
    search, shot = cli.multistart_zeros, []

    def searched(fld, *args, **kwargs):
        if (fld is BUNDLED_CASES["corollary2"].reference_field) == (failing == "reference"):
            raise cli.DumbbellError(f"{failing} search")
        return search(fld, *args, **kwargs)

    monkeypatch.setattr(cli, "multistart_zeros", searched)
    monkeypatch.setattr(cli, "epsilon_continuation", lambda **job: shot.append(job))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.main(["reproduce", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.endswith(
        f"numerical failure in stage 'reproduce': {failing} search\n")
    assert shot == []


@pytest.mark.parametrize(
    "argv, extra, points, quadrature, integrations, builds, ladders",
    [
        (["reproduce", "corollary1"], "", 1_025, 32, 36, 6, 2),
        (["reproduce", "corollary2"], "", 1_030, 36, 86, 12, 6),
        (["verify"], "field_source = printed-reference\nverify_system = linearized\n", 516, 0, 30, 3, 3),
    ],
    ids=["reproduce-c1", "reproduce-c2", "verify-lin-c2"],
)
def test_the_benchmark_workloads_keep_their_shooting_cost(
    tmp_path, monkeypatch, argv, extra, points, quadrature, integrations, builds, ladders
):
    # the benchmark workloads, counted in one process on one CPU: at most
    # these field points (rows of a quadrature field or of a polynomial,
    # pipeline or printed), points integrated by quadrature,
    # integrations and Jacobian builds, and these ladders (reproduce-c2 took
    # 160 integrations, 22 builds and 10 ladders when each field shot its
    # own; verify-lin-c2 took 124 and 23 when every Newton step built one,
    # and 74 and 9 when a shot stopped only once ||P|| grew tenfold;
    # reproduce-c1 189 and 36 when its ladders chased the origin step by
    # step); a field built or searched twice would show in the points (the
    # Newton multistart took 52,720 and 23,844 on the pipeline fields), and
    # a field integrated at every point in the quadrature, which recovers
    # each pipeline polynomial in one batch
    case = "corollary1" if "corollary1" in argv else "corollary2"
    with cli.resources.as_file(cli.bundled_config_path(case)) as p:
        text = p.read_text(encoding="utf-8")
    cfg = write(tmp_path, text + extra)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    counts = {"integrate": 0, "displacement_jacobian": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(shooting, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(shooting, name, counted)
    evaluate, evaluated = averaging.AveragedField.evaluate, []

    def evaluate_counted(fld, alpha):
        evaluated.append(np.atleast_2d(np.asarray(alpha)).shape[0])
        return evaluate(fld, alpha)

    monkeypatch.setattr(averaging.AveragedField, "evaluate", evaluate_counted)
    call = averaging.Polynomial.__call__

    def call_counted(fld, alpha):
        evaluated.append(np.atleast_2d(np.asarray(alpha)).shape[0])
        return call(fld, alpha)

    monkeypatch.setattr(averaging.Polynomial, "__call__", call_counted)
    quadrature_rows, integrated = averaging._quadrature_rows, []

    def quadrature_counted(f, period, tol, count):
        integrated.append(count)
        return quadrature_rows(f, period, tol, count)

    monkeypatch.setattr(averaging, "_quadrature_rows", quadrature_counted)
    shoot, shot = cli.epsilon_continuation, []
    monkeypatch.setattr(cli, "epsilon_continuation", lambda **job: shot.append(1) or shoot(**job))
    assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert sum(evaluated) <= points
    assert sum(integrated) <= quadrature
    assert counts["integrate"] <= integrations
    assert counts["displacement_jacobian"] <= builds
    assert len(shot) == ladders


def zero_group(location, det, classification):
    """One orbit class, with the fields of its first CertifiedZero that the table reads."""
    return [SimpleNamespace(location=location, jacobian_det=det, classification=classification)]


def ladder(status, *distances):
    """A ContinuationReport stand-in with the fields that the table reads."""
    return SimpleNamespace(status=status, distances=distances)


NO_LADDERS = {"full": {}, "linearized": {}}


class TestComparisonTable:
    # one field's orbit classes and ladder reports, as cmd_reproduce passes them
    FIELD = (
        [
            zero_group((-0.780776406, -4.56546936e-16), -0.1570934, "Simple"),
            zero_group((1.28077641, 0.0), 0.4227184, "Degenerate"),
        ],
        {
            "full": {0: ladder("COLLAPSED-TO-EQUILIBRIUM", 0.7808), 1: ladder("FAILED-AT(0.01)")},
            "linearized": {0: ladder("PASS", 1.083e-4)},
        },
    )
    # FIELD's second orbit class alone
    TAIL = ([FIELD[0][1]], {"full": {0: FIELD[1]["full"][1]}, "linearized": {}})
    # the zero, class, full and linearized cells, and the det, of FIELD's rows
    ROWS = [
        (
            ["(-0.780776406, -4.56546936e-16)", "Simple",
             "COLLAPSED-TO-EQUILIBRIUM d=7.808e-01", "PASS d=1.083e-04"],
            "-1.570934e-01",
        ),
        (["(1.28077641, 0)", "Degenerate", "FAILED-AT(0.01)", "-"], "4.227184e-01"),
    ]

    def test_columns_line_up_with_the_header(self):
        # long status cells must widen their column, not shift the next one
        lines = reports.comparison_table("case", self.FIELD, self.TAIL)
        headers = [i for i, text in enumerate(lines) if text.startswith("    zero ")]
        assert len(headers) == 2 and lines[headers[0]] == lines[headers[1]]
        header = lines[headers[0]]
        labels = ("zero", "class", "shoot(full)", "shoot(linearized)")
        starts = [header.index(label) for label in labels]
        det_end = header.index("det") + len("det")
        body = lines[headers[0] + 1 : headers[0] + 3] + lines[headers[1] + 1 : headers[1] + 2]
        for text, (cells, det) in zip(body, self.ROWS + self.ROWS[1:], strict=True):
            for start, cell in zip(starts, cells):
                assert text[start - 1 : start + len(cell)] == " " + cell
            assert text[det_end - len(det) - 1 : det_end] == " " + det

    def test_closes_with_the_note(self):
        lines = reports.comparison_table("case", self.FIELD, self.TAIL)
        assert lines[0] == "case case: pipeline-derived vs bundled reference field"
        assert lines[-3:] == [
            "  note: the two fields are evaluated from the same torque text; their",
            "  zero sets are compared side by side and shooting on the full and",
            "  linearized equations decides which predictions continue to orbits.",
        ]

    def test_field_without_zeros(self):
        lines = reports.comparison_table("case", ([], NO_LADDERS), self.TAIL)
        assert lines[1:4] == [
            "  pipeline field: 0 orbit class(es)",
            lines[5],
            "    (no zeros in the search annulus)",
        ]
        assert lines[4] == "  reference field: 1 orbit class(es)"
        assert lines[5].split() == ["zero", "det", "class", "shoot(full)", "shoot(linearized)"]

    def test_class_without_a_ladder_shows_a_dash(self):
        field = ([zero_group((1.0, 2.0), 0.5, "Simple")], NO_LADDERS)
        lines = reports.comparison_table("case", field, ([], NO_LADDERS))
        assert lines[3] == "    (1, 2)   5.000000e-01 Simple     -           -"


def test_verify_report_is_the_header_then_each_ladders_block():
    spec = dynamics.ResonanceSpec(Mode.PRECESSION_T2)
    ladders = {
        idx: shooting.ContinuationReport(
            prediction=dynamics.SatelliteState(0.0, 0.0, location, 0.0),
            spec=spec,
            eps_list=(1e-2, 1e-3),
            certificates=(),
            distances=(),
            pair_orders=(),
            empirical_order=math.nan,
            status="FAILED-AT(0.01)",
            failure="NoConvergenceError: stand-in",
        )
        for idx, location in ((0, 1.28), (2, -0.78))
    }
    lines = reports.verify_report("linearized", ladders)
    assert lines == [
        "verification on the linearized system",
        *reports.continuation_text(0, ladders[0]),
        *reports.continuation_text(2, ladders[2]),
    ]
    assert [text for text in lines if text.startswith("orbit class")] == [
        "orbit class 0: prediction (0, 0, 1.28, 0), period 3.14159265",
        "orbit class 2: prediction (0, 0, -0.78, 0), period 3.14159265",
    ]


def test_reproduce_prints_the_comparison_table_it_writes(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["reproduce", "corollary1", "--out", str(out)]) == 0
    table = (out / "comparison.txt").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == table + f"wrote comparison table under {out}\n"


#: runs the ``cli.main`` argument lists {runs!r} in one fresh interpreter and
#: prints [exit code, stdout, stderr] of each
WARNINGS_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import dumbbell_averager.cli as cli
results = []
for argv in {runs!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_no_warning_escapes_a_run(tmp_path):
    # the benchmark workloads and four runs whose field or its norm
    # overflows, on the pipeline's polynomial and the printed one, with
    # every warning an error (``python -W error``) and without: a warning in
    # a forked task becomes that task's error there, so it changes the outcome
    configs = Path(cli.__file__).parent / "configs"
    overflow = REFERENCE1.replace("field_source = printed-reference\n", "")
    runs = {
        "reproduce-c1": ["reproduce", "corollary1", "--config", str(configs / "corollary1.cfg")],
        "reproduce-c2": ["reproduce", "corollary2", "--config", str(configs / "corollary2.cfg")],
        "verify-lin-c2": ["verify", "--config", str(write(
            tmp_path, (configs / "corollary2.cfg").read_text(encoding="utf-8")
            + "field_source = printed-reference\nverify_system = linearized\n", "lin.cfg"))],
        "eval-overflow": ["eval", "--config", str(write(
            tmp_path, overflow + "eval_lo = -1e80\neval_hi = 1e80\neval_n = 3\n", "eval.cfg"))],
        "solve-overflow": ["solve", "--config", str(write(
            tmp_path, overflow + "r1 = 1e60\nr2 = 1e80\nn_r = 2\nn_angle = 4\n", "solve.cfg"))],
        "printed-eval-overflow": ["eval", "--config", str(write(
            tmp_path, REFERENCE1 + "eval_lo = -1e120\neval_hi = 1e120\neval_n = 3\n", "p-eval.cfg"))],
        "printed-solve-overflow": ["solve", "--config", str(write(
            tmp_path, REFERENCE1 + "r1 = 1e60\nr2 = 1e80\nn_r = 2\nn_angle = 4\n", "p-solve.cfg"))],
    }
    argvs = [argv + ["--out", f"o/{name}"] for name, argv in runs.items()]
    script = WARNINGS_SCRIPT.format(src=str(Path(cli.__file__).resolve().parents[1]), runs=argvs)
    seen = {}
    for flags in (["-W", "error"], []):
        cwd = tmp_path / ("strict" if flags else "plain")
        cwd.mkdir()
        proc = subprocess.run([sys.executable, *flags, "-c", script], cwd=cwd,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        results = json.loads(proc.stdout)
        assert [code for code, _, _ in results] == [0, 0, 0, 2, 2, 2, 2]
        assert [err for _, _, err in results[:3]] == ["", "", ""]
        for (_, _, err), command in zip(results[3:], ("eval", "solve", "eval", "solve")):
            assert re.fullmatch(f"numerical failure in stage '{command}': [^\n]*\n", err), err
        assert [err for _, _, err in results[5:]] == [
            f"numerical failure in stage '{command}': OverflowError: result outside the floats\n"
            for command in ("eval", "solve")]
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*.*"))}
        seen[bool(flags)] = results, files
    assert len(seen[True][1]) == 17
    assert seen[True] == seen[False]
