"""Pipeline benchmark for dumbbell-averager.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  One parent process starts one
fresh single-threaded child interpreter per iteration (closed loop: the
next child starts when the previous one has exited), so set-up and memory
are what a user of the command line pays.  The child drives the package
only through ``cli.main`` and, when traced, through wrappers around its
public layer functions (see tracer.py).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics.  Every iteration's artifacts go through checks.py.
The last line of standard output is the JSON result; the line before it
records the environment.  A summary with ``failed_frac`` goes to standard
error, or to standard output for ``--workload all``.  Scratch files go to
``.perfbench_out/<workload>/trace<0|1>/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "dumbbell_averager"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_out"

#: pinned in every child: the machine has 2 cores and the pipeline is serial
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: set-up-only children per untraced run, after one discarded warm-up child
#: that fills the bytecode and file caches
SETUP_PROBES = 5
#: untraced iterations a run makes even past --seconds; a traced run makes
#: at least one (untraced, traced) pair
MIN_ROUNDS = 2
#: no child may run past this many seconds after the run started
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (bundled case, cli.main arguments, lines added to the config)
WORKLOADS = {
    # zero-search heavy: 52k field evaluations, most Newton solves singular
    "reproduce-c1": ("corollary1", ["reproduce", "corollary1"], ""),
    # shooting heavy: full-system ladders that fail after long integrations
    "reproduce-c2": ("corollary2", ["reproduce", "corollary2"], ""),
    # polynomial reference field and converging linearized ladders
    "verify-lin-c2": (
        "corollary2",
        ["verify"],
        "field_source = printed-reference\nverify_system = linearized\n",
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, broken set-up)."""


def write_config(workload: str, seed: int, path: Path) -> None:
    """Write the workload's bundled config to ``path``; seeds other than 0
    jitter the search annulus, r1 in [0.04, 0.06] and r2 in [4.8, 5.2]."""
    case, _, extra = WORKLOADS[workload]
    text = (PACKAGE / "configs" / f"{case}.cfg").read_text(encoding="utf-8")
    if seed != 0:
        rng = random.Random(seed)
        for key, lo, hi in (("r1", 0.04, 0.06), ("r2", 4.8, 5.2)):
            text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {rng.uniform(lo, hi)!r}", text)
            if n != 1:
                raise BenchError(f"{case}.cfg: expected one {key!r} line, found {n}")
    path.write_text(text + extra, encoding="utf-8")


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    """Hash of the package sources, which identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, numpy_version: Optional[str], loadavg: List[float]) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "seed": seed,
        "threads": THREAD_ENV,
    }


def tail_percentile(values: List[float]) -> Optional[tuple]:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None while that percentile is not above the
    median (fewer than 21 samples)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    pct = 100.0 * (k + 1) / len(ordered) if ordered else 0.0
    return (pct, ordered[k]) if pct > 50.0 else None


class Run:
    """One benchmark run of one workload: children, samples and checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = WORK / workload / f"trace{int(trace)}"
        self.started = time.monotonic()
        self.records: List[dict] = []
        self.setup_samples: List[float] = []
        self.env = dict(os.environ, **THREAD_ENV)
        self.env.pop("PYTHONPATH", None)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, index: int, traced: bool, setup_only: bool) -> dict:
        """Run one child; the record holds its result and any problems."""
        out = self.work / f"out-{index}"
        result_path = self.work / f"result-{index}.json"
        spec = {
            "src": str(SRC),
            "config": str(self.config),
            "argv": WORKLOADS[self.workload][1] + ["--config", str(self.config), "--out", str(out)],
            "out": str(out),
            "result": str(result_path),
            "iteration": index,
            "trace": str(self.work / f"spans-{index}.jsonl") if traced else None,
            "setup_only": setup_only,
        }
        record = {
            "index": index,
            "traced": traced,
            "setup_only": setup_only,
            "started_unix": time.time(),
            "problems": [],
        }
        began = time.monotonic()
        with open(self.work / f"child-{index}.log", "w", encoding="utf-8") as log:
            spec["t_spawn"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, "-s", str(CHILD), json.dumps(spec)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=str(ROOT),
            )
            try:
                rc = proc.wait(timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        record["span_s"] = time.monotonic() - began
        record["exit"] = rc
        if rc is None:
            record["problems"].append("killed at the run's time limit")
        elif rc != 0:
            record["problems"].append(f"exit code {rc}")
        if result_path.is_file():
            record.update(json.loads(result_path.read_text(encoding="utf-8")))
        elif rc == 0:
            record["problems"].append("no result file")
        if not setup_only and rc == 0:
            record["problems"] += checks.check_outputs(self.workload, out)
            shutil.rmtree(out, ignore_errors=True)
        if record["problems"]:
            tail = (self.work / f"child-{index}.log").read_text(errors="replace")[-2000:]
            record["log_tail"] = tail
        return record

    def prepare(self) -> None:
        """Fresh scratch directory and config, then one warm-up child."""
        if not (PACKAGE / "cli.py").is_file():
            raise BenchError(f"no package source at {PACKAGE}; run from a checkout root")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / f"{self.workload}-seed{self.seed}.cfg"
        write_config(self.workload, self.seed, self.config)
        warm = self.child(0, traced=False, setup_only=True)
        if warm["problems"]:
            raise BenchError(f"set-up failed: {warm['problems']}\n{warm.get('log_tail', '')}")
        self.numpy_version = warm.get("numpy")

    def execute(self) -> None:
        self.prepare()
        index = 1
        if not self.trace:
            for _ in range(SETUP_PROBES):
                probe = self.child(index, traced=False, setup_only=True)
                index += 1
                if probe["problems"]:
                    raise BenchError(f"set-up failed: {probe['problems']}")
                self.setup_samples.append(probe["setup_s"])

        kinds = (False, True) if self.trace else (False,)
        round_times: List[float] = []
        while True:
            began = time.monotonic()
            for traced in kinds:
                self.records.append(self.child(index, traced=traced, setup_only=False))
                index += 1
            round_times.append(time.monotonic() - began)
            if any(r["exit"] is None for r in self.records):
                break
            projected = self.elapsed() + statistics.median(round_times)
            min_rounds = 1 if self.trace else MIN_ROUNDS
            if len(round_times) >= min_rounds and projected > self.seconds:
                break
            if projected > HARD_LIMIT_S:
                break

    def result(self) -> dict:
        attempted = len(self.records)
        failed = sum(1 for r in self.records if r["problems"])
        timed = [r for r in self.records if "wall_s" in r]
        untraced = [r for r in timed if not r["traced"]]
        if not untraced:
            raise BenchError("no iteration produced a result")
        problems = [p for r in self.records for p in r["problems"]]
        wall = min(r["wall_s"] for r in untraced)
        if not self.trace:
            metrics = {
                "wall_s": wall,
                "setup_s": min(self.setup_samples + [r["setup_s"] for r in untraced]),
                "peak_rss_mb": statistics.median(r["maxrss_kb"] * 1024 / 1e6 for r in untraced),
            }
            units = END_TO_END
        else:
            traced = [r for r in timed if r["traced"] and "layers" in r]
            if not traced:
                raise BenchError("no traced iteration produced a result")
            layers = [r["layers"] for r in traced]
            for later in layers[1:]:
                moved = [c for c in tracer.COUNTERS if later[c] != layers[0][c]]
                if moved:
                    problems.append(f"counters differ between traced runs: {moved}")
            metrics = tracer.merge(layers)
            metrics["trace.overhead_s"] = min(r["wall_s"] for r in traced) - wall
            units = tracer.LAYER_METRICS
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": u} for name, u in units.items()},
            "_problems": problems,
        }

    def summary(self, res: dict) -> str:
        walls = [r["wall_s"] for r in self.records if "wall_s" in r and not r["traced"]]
        setups = self.setup_samples + [
            r["setup_s"] for r in self.records if "wall_s" in r and not r["traced"]
        ]
        tail = tail_percentile(walls)
        tail_text = (
            f"p{tail[0]:.1f}={tail[1]:.4f} s"
            if tail
            else "no percentile above the median has 10 samples beyond it"
        )
        m = res["metrics"]
        head = f"{self.workload} seed={self.seed} trace={int(self.trace)}:"
        frac = res["failed"] / res["attempted"]
        fail = f"failed_frac={frac:g} ({res['failed']}/{res['attempted']} iterations)"
        if self.trace:
            wall = m["trace.wall_s"]["value"]
            stages = ", ".join(
                f"{label} {m[name]['value'] / wall:.0%}"
                for label, name in (
                    ("zero search", "zeros.multistart_s"),
                    ("eps ladders", "shooting.ladders_s"),
                    ("reports", "reports.write_s"),
                )
            )
            layers = ", ".join(
                f"{layer} {m[f'{layer}.self_s']['value']:.3f} s" for layer in tracer.LAYERS
            )
            return (
                f"{head} traced wall_s={wall:.4f} s; share of it: {stages}; "
                f"self time by layer: {layers}; {fail}"
            )
        return (
            f"{head} wall_s={m['wall_s']['value']:.4f} s (minimum; median "
            f"{statistics.median(walls):.4f} s; {tail_text}; n={len(walls)}) "
            f"setup_s={m['setup_s']['value']:.4f} s (minimum; median "
            f"{statistics.median(setups):.4f} s; n={len(setups)}) "
            f"peak_rss_mb={m['peak_rss_mb']['value']:.2f} MB (median) {fail}"
        )


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    run = Run(workload, seed, seconds, trace)
    load = list(os.getloadavg())
    run.execute()
    res = run.result()
    env = environment(seed, run.numpy_version, load)
    problems = res.pop("_problems")
    record = {"env": env, "result": res, "problems": problems, "records": run.records}
    (run.work / "run.json").write_text(json.dumps(record, indent=1))
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    return env, res, run.summary(res)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            ok = True
            for name in WORKLOADS:
                _, res, summary = run_one(name, args.seed, args.seconds, bool(args.trace))
                print(summary, flush=True)
                ok = ok and res["correct"]
            return 0 if ok else 1
        env, res, summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(summary, file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
