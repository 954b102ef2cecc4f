"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Writes one set of ``verify-lin-c2`` artifacts (seed 0), checks that the
   output checker accepts it, also with rows reordered and with a +-1e-16
   second coordinate, and rejects each corrupted copy.
2. Makes one traced run of ``verify-lin-c2`` (two traced iterations) and
   checks that the two iterations give identical counters.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from typing import Callable, Dict, List

import checks
import run

WORKLOAD = "verify-lin-c2"


def _edit_rows(path: Path, edit: Callable[[List[List[str]]], None]) -> None:
    """Apply ``edit`` to the data rows (split on commas) of a CSV artifact."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit(rows)
    path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def _set(col: int, value: Callable[[str], str], row: int = 0):
    def edit(rows: List[List[str]]) -> None:
        rows[row][col] = value(rows[row][col])

    return edit


def _axis_rows(rows: List[List[str]]) -> List[List[str]]:
    """Continuation rows of the first ladder predicted at an axis zero."""
    label = next(r[0] for r in rows if abs(float(r[5])) < 1e-9)
    return [r for r in rows if r[0] == label]


def _flatten_distances(rows: List[List[str]]) -> None:
    for r in _axis_rows(rows):
        r[11] = "0.5"


def _fail_rung(rows: List[List[str]]) -> None:
    _axis_rows(rows)[-1][13] = "FAILED-AT(0.0001)"


ACCEPTED: Dict[str, tuple] = {
    "rows reversed": ("zeros.csv", lambda rows: rows.reverse()),
    "axis zero at +1e-16": ("zeros.csv", _set(1, lambda _: "1e-16")),
}

REJECTED: Dict[str, tuple] = {
    "zero moved by 1e-6": ("zeros.csv", _set(0, lambda v: repr(float(v) + 1e-6))),
    "zero dropped": ("zeros.csv", lambda rows: rows.pop()),
    "zero duplicated": ("zeros.csv", lambda rows: rows.append(list(rows[0]))),
    "det moved by 1e-6": ("zeros.csv", _set(3, lambda v: repr(float(v) + 1e-6))),
    "zero not simple": ("zeros.csv", _set(4, lambda _: "Degenerate")),
    "ladder order 0": ("continuation.csv", _flatten_distances),
    "ladder rung failed": ("continuation.csv", _fail_rung),
    "report missing": ("verify_report.txt", None),
}


def check_checker(base: Path) -> List[str]:
    """Problems with the checker's verdicts on pristine and edited artifacts."""
    problems = []
    pristine = base / "pristine"
    config = base / "selftest.cfg"
    run.write_config(WORKLOAD, 0, config)
    sys.path.insert(0, str(run.SRC))
    from dumbbell_averager import cli

    argv = run.WORKLOADS[WORKLOAD][1] + ["--config", str(config), "--out", str(pristine)]
    if cli.main(argv) != 0:
        return ["verify-lin-c2 did not exit 0"]
    found = checks.check_outputs(WORKLOAD, pristine)
    if found:
        problems.append(f"pristine artifacts rejected: {found}")
    for cases, want_rejected in ((ACCEPTED, False), (REJECTED, True)):
        for name, (target, edit) in cases.items():
            copy = base / "edited"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(pristine, copy)
            if edit is None:
                (copy / target).unlink()
            else:
                _edit_rows(copy / target, edit)
            found = checks.check_outputs(WORKLOAD, copy)
            if bool(found) != want_rejected:
                verdict = "accepted" if not found else f"rejected ({found})"
                problems.append(f"{name}: checker {verdict}")
            else:
                print(f"ok: {name}: {'rejected' if found else 'accepted'}")
    if not checks.check_zeros(pristine / "zeros.csv", checks.C1_PIPELINE):
        problems.append("a non-empty zero set passed as the empty corollary1 pipeline set")
    return problems


def check_counters() -> List[str]:
    """Two traced iterations of verify-lin-c2 give identical counters."""
    bench = run.Run(WORKLOAD, seed=0, seconds=1, trace=True)
    bench.prepare()
    records = [bench.child(i, traced=True, setup_only=False) for i in (1, 2)]
    problems = [p for r in records for p in r["problems"]]
    if problems:
        return problems
    first, second = (r["layers"] for r in records)
    moved = {c: (first[c], second[c]) for c in run.tracer.COUNTERS if first[c] != second[c]}
    if moved:
        problems.append(f"counters differ between traced runs: {moved}")
    else:
        print(f"ok: {len(run.tracer.COUNTERS)} counters repeat across two traced runs")
    return problems


def main() -> int:
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    problems = check_checker(base) + check_counters()
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
