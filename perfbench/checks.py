"""Output checks for the benchmark workloads.

Each check reads the artifacts one iteration wrote and returns a list of
problems; an empty list means the outputs are correct.  Zeros are compared
as sets within ``TOL``, never by row order or byte hash: the polar-angle
sort of the zero search can swap two zeros whose second coordinate is
+-1e-16.  Full-system ladder statuses are deliberately not checked; they
are what acceptance criterion 5 measures.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

TOL = 1e-9
ORDER_BAND = (0.5, 1.5)

SQRT3 = math.sqrt(3.0)
SQRT17 = math.sqrt(17.0)

# Closed forms: location -> |Jacobian determinant| (None: not checked).
C1_REFERENCE = {(SQRT3 / 3.0, 0.0): 1.0 / 384.0}
C1_PIPELINE: Dict[Tuple[float, float], None] = {}
C2_AXIS = (((1.0 + SQRT17) / 4.0, 0.0), ((1.0 - SQRT17) / 4.0, 0.0))
C2_REFERENCE = {
    C2_AXIS[0]: (7.0 * SQRT17 - 17.0) / 512.0,
    C2_AXIS[1]: (7.0 * SQRT17 + 17.0) / 512.0,
    (1.0, 2.0 * SQRT3 / 3.0): 1.0 / 32.0,
    (1.0, -2.0 * SQRT3 / 3.0): 1.0 / 32.0,
}
C2_PIPELINE = {z: None for z in C2_AXIS}


def _data_rows(path: Path) -> List[dict]:
    """CSV rows after the leading ``#`` metadata line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path.name}: missing metadata line")
    return list(csv.DictReader(lines[1:]))


def _close(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(abs(x - y) <= TOL for x, y in zip(a, b))


def check_zeros(path: Path, expected: Dict[Tuple[float, float], object]) -> List[str]:
    """The zero set in ``path`` equals ``expected`` within TOL, all Simple."""
    try:
        rows = _data_rows(path)
        found = [
            ((float(r["alpha1"]), float(r["alpha2"])), abs(float(r["det"])), r["classification"])
            for r in rows
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    if len(found) != len(expected):
        problems.append(f"{path.name}: {len(found)} zeros, expected {len(expected)}")
    unmatched = list(found)
    for loc, det in expected.items():
        match = next((f for f in unmatched if _close(f[0], loc)), None)
        if match is None:
            problems.append(f"{path.name}: no zero at {loc}")
            continue
        unmatched.remove(match)
        if det is not None and abs(match[1] - det) > TOL:
            problems.append(f"{path.name}: |det| {match[1]!r} at {loc}, expected {det!r}")
        if match[2] != "Simple":
            problems.append(f"{path.name}: zero at {loc} classified {match[2]}")
    for loc, _, _ in unmatched:
        problems.append(f"{path.name}: unexpected zero at {loc}")
    return problems


def _ladder_order(rungs: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(distance) against log(epsilon)."""
    xs = [math.log(e) for e, _ in rungs]
    ys = [math.log(d) for _, d in rungs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_ladders_pass(path: Path, at: Sequence[Tuple[float, float]]) -> List[str]:
    """The T2-plane ladders predicted at ``at`` converge on every rung with
    an empirical order inside ORDER_BAND, recomputed from the CSV."""
    try:
        ladders: Dict[str, dict] = {}
        for r in _data_rows(path):
            lad = ladders.setdefault(
                r["orbit_class"],
                {"at": (float(r["predicted_phi"]), float(r["predicted_phi_dot"])), "rungs": []},
            )
            lad["rungs"].append((float(r["epsilon"]), float(r["distance"]), r["status"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    for loc in at:
        matches = [lad for lad in ladders.values() if _close(lad["at"], loc)]
        if len(matches) != 1:
            problems.append(f"{path.name}: {len(matches)} ladders at {loc}, expected 1")
            continue
        rungs = matches[0]["rungs"]
        statuses = {s for _, _, s in rungs}
        if statuses != {"converged"} or len(rungs) < 2:
            problems.append(f"{path.name}: ladder at {loc} has rungs {sorted(statuses)}")
            continue
        if any(not (d > 0.0 and e > 0.0) for e, d, _ in rungs):
            problems.append(f"{path.name}: ladder at {loc} has a nonpositive distance")
            continue
        order = _ladder_order([(e, d) for e, d, _ in rungs])
        if not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
            problems.append(f"{path.name}: ladder at {loc} has order {order:.4f}")
    return problems


def _exists(out: Path, names: Sequence[str]) -> List[str]:
    return [f"{name}: missing" for name in names if not (out / name).is_file()]


_REPRODUCE_FILES = (
    "comparison.txt",
    "continuation_pipeline_full.csv",
    "continuation_pipeline_linearized.csv",
    "continuation_reference_full.csv",
    "continuation_reference_linearized.csv",
)


def check_outputs(workload: str, out: Path) -> List[str]:
    """All problems with the artifacts one iteration of ``workload`` wrote."""
    if workload == "reproduce-c1":
        return (
            _exists(out, _REPRODUCE_FILES)
            + check_zeros(out / "zeros_reference.csv", C1_REFERENCE)
            + check_zeros(out / "zeros_pipeline.csv", C1_PIPELINE)
        )
    if workload == "reproduce-c2":
        return (
            _exists(out, _REPRODUCE_FILES)
            + check_zeros(out / "zeros_reference.csv", C2_REFERENCE)
            + check_zeros(out / "zeros_pipeline.csv", C2_PIPELINE)
            + check_ladders_pass(out / "continuation_pipeline_linearized.csv", C2_AXIS)
            + check_ladders_pass(out / "continuation_reference_linearized.csv", C2_AXIS)
        )
    if workload == "verify-lin-c2":
        return (
            _exists(out, ("verify_report.txt",))
            + check_zeros(out / "zeros.csv", C2_REFERENCE)
            + check_ladders_pass(out / "continuation.csv", C2_AXIS)
        )
    raise ValueError(f"unknown workload {workload!r}")
