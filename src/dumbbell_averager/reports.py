"""CSV and plain-text artifact emitters.

Every CSV starts with one ``#`` comment line recording the tolerances and
node counts behind the numbers, then a header row.  Floats are serialized
with 17 significant digits so artifacts round-trip exactly and identical
configurations produce byte-identical files.  The writers overwrite what
is there; the command line refuses existing artifacts before any stage.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .shooting import ContinuationReport
from .zeros import CertifiedZero


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    """Write ``lines``, each ending in a newline, creating the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(
    path: Path, meta: Dict[str, object], header: str, rows: Iterable[Sequence[object]]
) -> None:
    """The ``#`` metadata line, the header, then one line per row: strings
    as they are, numbers through fmt17."""
    lines = ["# " + "; ".join(f"{k}={v}" for k, v in meta.items()), header]
    lines += (",".join(v if isinstance(v, str) else fmt17(v) for v in row) for row in rows)
    _write_lines(path, lines)


def write_field_csv(
    path: Path, points: np.ndarray, values: np.ndarray, meta: Dict[str, object]
) -> None:
    """Grid evaluation of a 2D field: rows (alpha1, alpha2, value1, value2)."""
    rows = ((*point, *value) for point, value in zip(points, values))
    _write_csv(path, meta, "alpha1,alpha2,value1,value2", rows)


def write_zeros_csv(
    path: Path,
    zeros: Sequence[CertifiedZero],
    groups: Sequence[Sequence[CertifiedZero]],
    meta: Dict[str, object],
) -> None:
    """Certified zeros with their orbit-class grouping."""
    class_of = {id(z): str(idx) for idx, group in enumerate(groups) for z in group}
    rows = (
        (*z.location, z.residual_norm, z.jacobian_det, z.classification, class_of[id(z)])
        for z in zeros
    )
    _write_csv(path, meta, "alpha1,alpha2,residual,det,classification,orbit_class", rows)


def write_continuation_csv(
    path: Path, reports: Sequence[tuple], meta: Dict[str, object]
) -> None:
    """Continuation ladders: one row per epsilon rung per orbit class.

    ``reports`` holds (label, ContinuationReport) pairs; failed rungs get a
    row with nan corrected entries and the failure status.
    """
    header = (
        "orbit_class,epsilon,"
        "predicted_theta,predicted_theta_dot,predicted_phi,predicted_phi_dot,"
        "corrected_theta,corrected_theta_dot,corrected_phi,corrected_phi_dot,"
        "displacement,distance,empirical_order,status"
    )
    rows = []
    for label, rep in reports:
        pred = rep.prediction.as_array()
        for i, eps in enumerate(rep.eps_list):
            if i < len(rep.certificates):
                cert = rep.certificates[i]
                order = rep.pair_orders[i - 1] if i >= 1 else math.nan
                rest = (*cert.corrected_ic.as_array(), cert.displacement_norm,
                        rep.distances[i], order, "converged")
            else:
                rest = (*[math.nan] * 7, rep.status)
            rows.append((label, eps, *pred, *rest))
    _write_csv(path, meta, header, rows)


def continuation_text(label: str, rep: ContinuationReport) -> List[str]:
    """Human-readable block for one continuation ladder."""
    pred = rep.prediction.as_array()
    lines = [
        f"orbit class {label}: prediction ({', '.join(f'{v:.9g}' for v in pred)}), "
        f"period {rep.spec.window:.9g}",
        f"  status {rep.status}"
        + (f"  [{rep.failure}]" if rep.failure else "")
        + (
            f", empirical order {rep.empirical_order:.4f}"
            if math.isfinite(rep.empirical_order)
            else ""
        ),
    ]
    for i, eps in enumerate(rep.eps_list):
        if i < len(rep.certificates):
            cert = rep.certificates[i]
            lines.append(
                f"    eps={eps:<8g} displacement={cert.displacement_norm:.3e} "
                f"distance={rep.distances[i]:.6e} newton_iters={cert.newton_iters}"
            )
        else:
            lines.append(f"    eps={eps:<8g} (no certificate)")
    return lines


def write_text_report(path: Path, lines: Sequence[str]) -> None:
    _write_lines(path, lines)


def comparison_table(
    case_name: str,
    pipeline_rows: Sequence[dict],
    reference_rows: Sequence[dict],
) -> List[str]:
    """Fixed-width comparison of pipeline vs reference zero sets.

    Each row dict carries: zero (2-tuple), det, classification, and per
    verification system a (status, final_distance) pair keyed
    ``full``/``linearized`` (missing entries render as ``-``).  The zero
    and shooting columns are as wide as their longest cell in the table.
    """

    def cells(row: dict) -> List[str]:
        z = row["zero"]
        out = [f"({z[0]:.9g}, {z[1]:.9g})"]
        for system in ("full", "linearized"):
            ver = row.get(system)
            if ver is None:
                out.append("-")
            else:
                status, dist = ver
                out.append(f"{status} d={dist:.3e}" if dist is not None else status)
        return out

    labels = ("zero", "shoot(full)", "shoot(linearized)")
    rendered = [cells(row) for row in (*pipeline_rows, *reference_rows)]
    width = [max(len(c) for c in column) for column in zip(labels, *rendered)]

    def line(zero: str, det: str, classification: str, full: str, linearized: str) -> str:
        return (
            f"    {zero:<{width[0]}} {det:>14} {classification:<10} "
            f"{full:<{width[1]}} {linearized:<{width[2]}}"
        ).rstrip()

    def render(rows: Sequence[dict], source: str) -> List[str]:
        out = [f"  {source} field: {len(rows)} orbit class(es)"]
        out.append(line("zero", "det", "class", "shoot(full)", "shoot(linearized)"))
        for row in rows:
            zero, full, linearized = cells(row)
            out.append(
                line(zero, f"{row['det']:.6e}", row["classification"], full, linearized)
            )
        if not rows:
            out.append("    (no zeros in the search annulus)")
        return out

    lines = [f"case {case_name}: pipeline-derived vs bundled reference field"]
    lines += render(pipeline_rows, "pipeline")
    lines += render(reference_rows, "reference")
    return lines
