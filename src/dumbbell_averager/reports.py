"""The layout of every CSV and plain-text artifact, and the one function that writes them.

Every CSV starts with one ``#`` comment line recording the tolerances and
node counts behind the numbers, then a header row.  Floats are serialized
with 17 significant digits so artifacts round-trip exactly and identical
configurations produce byte-identical files.  The writers overwrite what
is there; the command line refuses existing artifacts before any stage.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    path: Path, ladders: Dict[int, ContinuationReport], meta: Dict[str, object]
) -> None:
    """Continuation ladders, keyed by orbit-class index: one row per epsilon
    rung per ladder.  In a ladder that failed, the failing rung and every
    rung after it get a row with nan corrected entries and the ladder's
    status.
    """
    header = (
        "orbit_class,epsilon,"
        "predicted_theta,predicted_theta_dot,predicted_phi,predicted_phi_dot,"
        "corrected_theta,corrected_theta_dot,corrected_phi,corrected_phi_dot,"
        "displacement,distance,empirical_order,status"
    )
    rows = []
    for idx, rep in ladders.items():
        pred = rep.prediction.as_array()
        for i, eps in enumerate(rep.eps_list):
            if i < len(rep.certificates):
                cert = rep.certificates[i]
                order = rep.pair_orders[i - 1] if i >= 1 else math.nan
                rest = (*cert.corrected_ic.as_array(), cert.displacement_norm,
                        rep.distances[i], order, "converged")
            else:
                rest = (*[math.nan] * 7, rep.status)
            rows.append((str(idx), eps, *pred, *rest))
    _write_csv(path, meta, header, rows)


def continuation_text(idx: int, rep: ContinuationReport) -> List[str]:
    """Human-readable block for the ladder of orbit class ``idx``."""
    pred = rep.prediction.as_array()
    lines = [
        f"orbit class {idx}: prediction ({', '.join(f'{v:.9g}' for v in pred)}), "
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
                f"distance={rep.distances[i]:.6e} newton_iters={cert.newton_iters} "
                f"jacobians={cert.jacobian_builds}"
            )
        else:
            lines.append(f"    eps={eps:<8g} (no certificate)")
    return lines


def verify_report(system: str, ladders: Dict[int, ContinuationReport]) -> List[str]:
    """``verify``'s report: a header line, then one continuation_text block
    per ladder, keyed by orbit-class index."""
    blocks = (line for idx, rep in ladders.items() for line in continuation_text(idx, rep))
    return [f"verification on the {system} system", *blocks]


def write_text_report(path: Path, lines: Sequence[str]) -> None:
    _write_lines(path, lines)


#: one field's orbit classes and its ladder reports, by system (``full``,
#: ``linearized``) and then by orbit-class index
FieldResults = Tuple[Sequence[Sequence[CertifiedZero]], Dict[str, Dict[int, ContinuationReport]]]


def comparison_table(case_name: str, pipeline: FieldResults, reference: FieldResults) -> List[str]:
    """Fixed-width comparison of the pipeline's and the reference's zero
    sets, one row per orbit class, closed by a note.

    A class without a ladder on a system shows ``-``, a ladder without
    distances its status alone, any other ladder its status and final
    distance.  The zero and shooting columns are as wide as their longest
    cell in the table.
    """

    def cell(rep: Optional[ContinuationReport]) -> str:
        if rep is None:
            return "-"
        return f"{rep.status} d={rep.distances[-1]:.3e}" if rep.distances else rep.status

    def rows(field: FieldResults) -> List[Tuple[str, ...]]:
        groups, ladders = field
        return [
            (f"({z.location[0]:.9g}, {z.location[1]:.9g})", f"{z.jacobian_det:.6e}",
             z.classification, cell(ladders["full"].get(idx)),
             cell(ladders["linearized"].get(idx)))
            for idx, z in enumerate(group[0] for group in groups)
        ]

    header = ("zero", "det", "class", "shoot(full)", "shoot(linearized)")
    tables = {"pipeline": rows(pipeline), "reference": rows(reference)}
    every = [header, *tables["pipeline"], *tables["reference"]]
    zero_w, full_w, linearized_w = (max(len(row[i]) for row in every) for i in (0, 3, 4))

    def line(zero: str, det: str, classification: str, full: str, linearized: str) -> str:
        return (
            f"    {zero:<{zero_w}} {det:>14} {classification:<10} "
            f"{full:<{full_w}} {linearized:<{linearized_w}}"
        ).rstrip()

    lines = [f"case {case_name}: pipeline-derived vs bundled reference field"]
    for source, body in tables.items():
        lines.append(f"  {source} field: {len(body)} orbit class(es)")
        lines += (line(*row) for row in (header, *body))
        if not body:
            lines.append("    (no zeros in the search annulus)")
    return lines + [
        "  note: the two fields are evaluated from the same torque text; their",
        "  zero sets are compared side by side and shooting on the full and",
        "  linearized equations decides which predictions continue to orbits.",
    ]
