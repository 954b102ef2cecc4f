"""The benchmark's tracer still installs on the package and reads a run,
traced runs write what untraced runs write, and the benchmark's self-test
passes.

``perfbench/tracer.py`` wraps package functions by name, so renaming or
deleting one of them breaks only traced benchmark runs; these tests make
such runs in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
F1star = sin(phi)*sin(theta)*phi_dot + sin(phi) + sin(2*t)*sin(phi)*(1 - phi_dot)*phi_dot
F2star = sin(phi) - sin(2*t)*sin(phi)*phi_dot - sin(phi)*phi_dot^2
mode = T2
case = corollary2
field_source = printed-reference
verify_system = linearized
epsilon_list = 1e-2
r1 = 1.2
r2 = 1.4
n_r = 2
n_angle = 8
"""

SCRIPT = """
import json, os, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
# two usable CPUs; a traced run keeps every task in the process whose spans
# are read, so there a fork fails
os.sched_getaffinity = lambda pid: {{0, 1}}
os.sched_setaffinity = lambda pid, cpus: None
import dumbbell_averager
import dumbbell_averager.cli
import tracer

main, metrics = dumbbell_averager.cli.main, None
if {trace!r}:
    os.fork = None
    t = tracer.Tracer(0)
    tracer.install(t, dumbbell_averager)
    main = t.span("cli.main", main)
codes = [main(argv) for argv in {runs!r}]
if {trace!r}:
    metrics = t.layer_metrics(report_bytes=0)
print(json.dumps([codes, metrics]))
"""


def run_cli(runs, trace):
    """[exit codes, layer metrics or None] of the ``cli.main`` argument
    lists ``runs`` run in one fresh interpreter, traced when ``trace``."""
    script = SCRIPT.format(
        perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"), runs=runs, trace=trace
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def traced_run(tmp_path, command):
    """The layer metrics of a traced ``command`` run of CONFIG."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    codes, metrics = run_cli([argv], trace=True)
    assert codes == [0]
    return metrics


def test_traced_verify_run(tmp_path):
    metrics = traced_run(tmp_path, "verify")
    for counter in (
        "torques.coeff_calls_scalar",
        "dynamics.rhs_lin_calls",
        "shooting.integrate_calls",
        "shooting.ladders",
        "trace.spans",
    ):
        assert metrics[counter] > 0, counter


def test_traced_reproduce_run(tmp_path):
    # two searches and their ladders, which would fork without the tracer
    metrics = traced_run(tmp_path, "reproduce")
    assert metrics["zeros.multistart_s"] > 0
    assert metrics["shooting.ladders"] > 0


def test_traced_runs_write_what_untraced_runs_write(tmp_path):
    # traced, every task runs in the caller, its rhs the closure over the
    # tracer's coefficients; untraced, two processes run generated rhs code
    configs = ROOT / "src" / "dumbbell_averager" / "configs"
    verify_cfg = tmp_path / "verify-lin-c2.cfg"
    verify_cfg.write_text(
        (configs / "corollary2.cfg").read_text(encoding="utf-8")
        + "field_source = printed-reference\nverify_system = linearized\n",
        encoding="utf-8",
    )
    commands = {
        "reproduce-c1": ["reproduce", "corollary1", "--config", str(configs / "corollary1.cfg")],
        "reproduce-c2": ["reproduce", "corollary2", "--config", str(configs / "corollary2.cfg")],
        "verify-lin-c2": ["verify", "--config", str(verify_cfg)],
    }
    written = {}
    for trace in (True, False):
        out = tmp_path / ("traced" if trace else "untraced")
        runs = [argv + ["--out", str(out / name)] for name, argv in commands.items()]
        assert run_cli(runs, trace)[0] == [0, 0, 0]
        written[trace] = {
            str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*.*"))
        }
    assert len(written[True]) == 17
    assert written[True] == written[False]


def test_perfbench_selftest():
    # checks the benchmark's output checker and that traced counters repeat;
    # it writes only under the checkout's .perfbench_out/
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
