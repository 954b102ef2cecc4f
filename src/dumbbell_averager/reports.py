"""CSV and plain-text artifact emitters.

Every CSV starts with one ``#`` comment line recording the tolerances and
node counts behind the numbers, then a header row.  Floats are serialized
with 17 significant digits so artifacts round-trip exactly and identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .shooting import ContinuationReport
from .zeros import CertifiedZero


class ArtifactExistsError(Exception):
    """Refusing to overwrite an existing artifact without --force."""


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def refuse_existing(paths: Sequence[Path], force: bool) -> None:
    """Raise ArtifactExistsError at the first of ``paths`` that exists,
    unless ``force``."""
    for path in paths:
        if path.exists() and not force:
            raise ArtifactExistsError(f"{path} exists; pass --force to overwrite")


def _open_new(path: Path, force: bool):
    refuse_existing((path,), force)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _meta_line(meta: Dict[str, object]) -> str:
    return "# " + "; ".join(f"{k}={v}" for k, v in meta.items())


def write_field_csv(
    path: Path,
    points: np.ndarray,
    values: np.ndarray,
    meta: Dict[str, object],
    force: bool = False,
) -> None:
    """Grid evaluation of a 2D field: rows (alpha1, alpha2, value1, value2)."""
    with _open_new(path, force) as fh:
        fh.write(_meta_line(meta) + "\n")
        fh.write("alpha1,alpha2,value1,value2\n")
        for (a1, a2), (v1, v2) in zip(points, values):
            fh.write(f"{fmt17(a1)},{fmt17(a2)},{fmt17(v1)},{fmt17(v2)}\n")


def write_zeros_csv(
    path: Path,
    zeros: Sequence[CertifiedZero],
    groups: Sequence[Sequence[CertifiedZero]],
    meta: Dict[str, object],
    force: bool = False,
) -> None:
    """Certified zeros with their orbit-class grouping."""
    class_of = {}
    for idx, group in enumerate(groups):
        for z in group:
            class_of[id(z)] = idx
    with _open_new(path, force) as fh:
        fh.write(_meta_line(meta) + "\n")
        fh.write("alpha1,alpha2,residual,det,classification,orbit_class\n")
        for z in zeros:
            fh.write(
                f"{fmt17(z.location[0])},{fmt17(z.location[1])},"
                f"{fmt17(z.residual_norm)},{fmt17(z.jacobian_det)},"
                f"{z.classification},{class_of[id(z)]}\n"
            )


def write_continuation_csv(
    path: Path,
    reports: Sequence[tuple],
    meta: Dict[str, object],
    force: bool = False,
) -> None:
    """Continuation ladders: one row per epsilon rung per orbit class.

    ``reports`` holds (label, ContinuationReport) pairs; failed rungs get a
    row with nan corrected entries and the failure status.
    """
    cols = (
        "orbit_class,epsilon,"
        "predicted_theta,predicted_theta_dot,predicted_phi,predicted_phi_dot,"
        "corrected_theta,corrected_theta_dot,corrected_phi,corrected_phi_dot,"
        "displacement,distance,empirical_order,status"
    )
    with _open_new(path, force) as fh:
        fh.write(_meta_line(meta) + "\n")
        fh.write(cols + "\n")
        for label, rep in reports:
            pred = rep.prediction.as_array()
            for i, eps in enumerate(rep.eps_list):
                if i < len(rep.certificates):
                    cert = rep.certificates[i]
                    corr = cert.corrected_ic.as_array()
                    disp = fmt17(cert.displacement_norm)
                    dist = fmt17(rep.distances[i])
                    order = fmt17(rep.pair_orders[i - 1]) if i >= 1 else "nan"
                    status = "converged"
                else:
                    corr = [math.nan] * 4
                    disp = dist = order = "nan"
                    status = rep.status
                fh.write(
                    f"{label},{fmt17(eps)},"
                    + ",".join(fmt17(v) for v in pred)
                    + ","
                    + ",".join(fmt17(v) for v in corr)
                    + f",{disp},{dist},{order},{status}\n"
                )


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


def write_text_report(path: Path, lines: Sequence[str], force: bool = False) -> None:
    with _open_new(path, force) as fh:
        fh.write("\n".join(lines) + "\n")


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
