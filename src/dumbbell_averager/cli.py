"""Command-line front end.

    dumbbell-averager <eval|solve|verify|reproduce> --config <path>
                      [--out <dir>] [--force]

``eval`` writes the averaged field on a grid, ``solve`` writes certified
zeros, ``verify`` runs the epsilon-continuation ladder on every simple
orbit class, and ``reproduce <case>`` runs a bundled configuration
end-to-end, comparing the pipeline-derived field against the bundled
closed-form reference field and letting direct shooting arbitrate.

Exit codes: 0 success, 1 configuration/artifact error, 2 numerical failure
(the failing stage is named on stderr).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import reports
from .averaging import AveragedField, averaged_field
from .dynamics import Mode, PerturbSetup, ResonanceSpec, make_first_order_rhs, make_full_rhs
from .errors import DumbbellError
from .reference import BUNDLED_CASES
from .reports import ArtifactExistsError
from .shooting import ContinuationReport, epsilon_continuation
from .torques import extract_linearized, parse_torque, validate_equilibrium
from .zeros import CertifiedZero, ZeroSearchDomain, group_orbit_classes, multistart_zeros


class ConfigError(Exception):
    """Bad configuration file or command usage."""


_MODES = {"T1": Mode.NUTATION_T1, "T2": Mode.PRECESSION_T2}
_FIELD_SOURCES = ("pipeline", "printed-reference")
_VERIFY_SYSTEMS = ("full", "linearized")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (see load_config for the file grammar)."""

    f1star: str
    f2star: str
    mode: Mode
    p: int = 1
    q: int = 1
    epsilon_list: Tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    r1: float = 0.05
    r2: float = 5.0
    n_r: int = 16
    n_angle: int = 32
    eval_n: int = 11
    eval_lo: float = -1.0
    eval_hi: float = 1.0
    quad_tol: float = 1e-12
    newton_tol: float = 1e-12
    shooting_tol: float = 1e-10
    integrator_tol: float = 1e-11
    field_source: str = "pipeline"
    case: Optional[str] = None
    verify_system: str = "full"

    def __post_init__(self) -> None:
        for key in sorted(_FLOAT_KEYS):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if not all(math.isfinite(e) for e in self.epsilon_list):
            raise ConfigError(f"epsilon_list entries must be finite, got {self.epsilon_list}")
        for key in ("quad_tol", "newton_tol", "shooting_tol", "integrator_tol"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be positive")
        if self.p < 1 or self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise ConfigError("p and q must be positive and relatively prime")
        if not (0.0 < self.r1 < self.r2):
            raise ConfigError(f"r1 must satisfy 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        if self.n_r < 1 or self.n_angle < 1:
            raise ConfigError("n_r and n_angle must be positive")
        if self.eval_n < 1:
            raise ConfigError("eval_n must be positive")
        if self.eval_lo >= self.eval_hi:
            raise ConfigError("eval_lo must be below eval_hi")
        if not self.epsilon_list or any(e < 0.0 for e in self.epsilon_list):
            raise ConfigError("epsilon_list must be nonempty and nonnegative")
        if self.field_source not in _FIELD_SOURCES:
            raise ConfigError(f"field_source must be one of {_FIELD_SOURCES}")
        if self.field_source == "printed-reference" and self.case not in BUNDLED_CASES:
            raise ConfigError(
                f"field_source=printed-reference requires case in {sorted(BUNDLED_CASES)}"
            )
        if self.case is not None and self.case not in BUNDLED_CASES:
            raise ConfigError(f"case must be one of {sorted(BUNDLED_CASES)}")
        if self.verify_system not in _VERIFY_SYSTEMS:
            raise ConfigError(f"verify_system must be one of {_VERIFY_SYSTEMS}")

    @property
    def spec(self) -> ResonanceSpec:
        return ResonanceSpec(mode=self.mode, p=self.p, q=self.q)

    @property
    def domain(self) -> ZeroSearchDomain:
        return ZeroSearchDomain(r1=self.r1, r2=self.r2, n_r=self.n_r, n_angle=self.n_angle)


_INT_KEYS = {"p", "q", "n_r", "n_angle", "eval_n"}
_FLOAT_KEYS = {
    "r1",
    "r2",
    "eval_lo",
    "eval_hi",
    "quad_tol",
    "newton_tol",
    "shooting_tol",
    "integrator_tol",
}
_STR_KEYS = {"F1star", "F2star", "field_source", "case", "verify_system"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"mode", "epsilon_list"}


def load_config(path) -> RunConfig:
    """Parse a plain-text ``key = value`` configuration file.

    ``#`` starts a comment, blank lines are skipped, keys may appear once.
    Unknown keys are errors; all tolerances and grid sizes have defaults.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        raw[key] = value

    for required in ("F1star", "F2star", "mode"):
        if required not in raw:
            raise ConfigError(f"{path}: missing required key {required!r}")

    kwargs: Dict[str, object] = {"f1star": raw.pop("F1star"), "f2star": raw.pop("F2star")}
    mode_text = raw.pop("mode")
    if mode_text not in _MODES:
        raise ConfigError(f"mode must be T1 or T2, got {mode_text!r}")
    kwargs["mode"] = _MODES[mode_text]

    if "epsilon_list" in raw:
        try:
            kwargs["epsilon_list"] = tuple(
                float(v) for v in raw.pop("epsilon_list").split(",") if v.strip()
            )
        except ValueError as exc:
            raise ConfigError(f"epsilon_list: {exc}") from None
    for key, value in raw.items():
        dest = key.lower()
        try:
            if key in _INT_KEYS:
                kwargs[dest] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[dest] = float(value)
            else:
                kwargs[dest] = value
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from None

    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def bundled_config_path(case: str):
    """Path to a bundled configuration file shipped with the package."""
    if case not in BUNDLED_CASES:
        raise ConfigError(f"unknown bundled case {case!r}; choose from {sorted(BUNDLED_CASES)}")
    return resources.files("dumbbell_averager").joinpath("configs", f"{case}.cfg")


# --- pipeline stages ---


def _build_field(config: RunConfig):
    """Return (field callable, meta dict) for the configured field source."""
    meta: Dict[str, object] = {
        "field_source": config.field_source,
        "mode": config.mode.value,
        "p": config.p,
        "q": config.q,
    }
    if config.field_source == "printed-reference":
        meta["case"] = config.case
        return BUNDLED_CASES[config.case].reference_field, meta
    f1 = parse_torque(config.f1star)
    f2 = parse_torque(config.f2star)
    report = validate_equilibrium(f1, f2)
    lin = extract_linearized(f1, f2)
    fld = averaged_field(config.spec, lin, quad_tolerance=config.quad_tol)
    meta["quad_tol"] = config.quad_tol
    meta["equilibrium_check"] = report.status
    return fld, meta


def _eval_points(config: RunConfig) -> np.ndarray:
    grid = np.linspace(config.eval_lo, config.eval_hi, config.eval_n)
    a1, a2 = np.meshgrid(grid, grid, indexing="ij")
    return np.column_stack([a1.ravel(), a2.ravel()])


def cmd_eval(config: RunConfig, outdir: Path, force: bool) -> Path:
    fld, meta = _build_field(config)
    points = _eval_points(config)
    values = fld(points)
    if isinstance(fld, AveragedField):
        meta["quad_nodes_max"] = fld.max_nodes_used
    path = outdir / "field.csv"
    reports.write_field_csv(path, points, values, meta, force=force)
    return path


def _solve(config: RunConfig):
    fld, meta = _build_field(config)
    zeros = multistart_zeros(fld, config.domain, tol=config.newton_tol)
    groups = group_orbit_classes(zeros)
    meta.update(
        {
            "newton_tol": config.newton_tol,
            "r1": config.r1,
            "r2": config.r2,
            "n_r": config.n_r,
            "n_angle": config.n_angle,
        }
    )
    if isinstance(fld, AveragedField):
        meta["quad_nodes_max"] = fld.max_nodes_used
    return zeros, groups, meta


def cmd_solve(config: RunConfig, outdir: Path, force: bool, filename: str = "zeros.csv"):
    zeros, groups, meta = _solve(config)
    path = outdir / filename
    reports.write_zeros_csv(path, zeros, groups, meta, force=force)
    return zeros, groups, path


def _rhs_factory(config: RunConfig, system: str):
    f1 = parse_torque(config.f1star)
    f2 = parse_torque(config.f2star)
    if system == "full":
        return lambda eps: make_full_rhs(PerturbSetup(f1, f2, epsilon=eps))
    lin = extract_linearized(f1, f2)
    return lambda eps: make_first_order_rhs(eps, lin)


def _run_continuations(
    config: RunConfig, groups: Sequence[Sequence[CertifiedZero]], system: str
) -> List[Tuple[str, ContinuationReport]]:
    factory = _rhs_factory(config, system)
    out: List[Tuple[str, ContinuationReport]] = []
    for idx, group in enumerate(groups):
        representative = group[0]
        if not representative.is_simple:
            continue
        rep = epsilon_continuation(
            factory,
            representative.location,
            config.spec,
            config.epsilon_list,
            shooting_tol=config.shooting_tol,
            integrator_tol=config.integrator_tol,
        )
        out.append((str(idx), rep))
    return out


def cmd_verify(config: RunConfig, outdir: Path, force: bool) -> int:
    zeros, groups, _ = cmd_solve(config, outdir, force)
    simple_groups = [g for g in groups if g[0].is_simple]
    if not simple_groups:
        raise DumbbellError("verify: no simple zeros found in the search annulus")
    ladders = _run_continuations(config, groups, config.verify_system)
    meta = {
        "system": config.verify_system,
        "shooting_tol": config.shooting_tol,
        "integrator_tol": config.integrator_tol,
        "epsilon_list": "/".join(f"{e:g}" for e in config.epsilon_list),
    }
    reports.write_continuation_csv(outdir / "continuation.csv", ladders, meta, force=force)
    lines = [f"verification on the {config.verify_system} system"]
    for label, rep in ladders:
        lines += reports.continuation_text(label, rep)
    reports.write_text_report(outdir / "verify_report.txt", lines, force=force)
    if all(not rep.certificates for _, rep in ladders):
        raise DumbbellError("verify: shooting failed on every orbit class")
    return 0


def _comparison_rows(
    groups: Sequence[Sequence[CertifiedZero]],
    ladders_by_system: Dict[str, List[Tuple[str, ContinuationReport]]],
) -> List[dict]:
    rows = []
    for idx, group in enumerate(groups):
        z = group[0]
        row = {
            "zero": (float(z.location[0]), float(z.location[1])),
            "det": z.jacobian_det,
            "classification": z.classification,
        }
        for system, ladders in ladders_by_system.items():
            for label, rep in ladders:
                if label == str(idx):
                    dist = rep.distances[-1] if rep.distances else None
                    row[system] = (rep.status, dist)
        rows.append(row)
    return rows


def cmd_reproduce(config: RunConfig, case: str, outdir: Path, force: bool) -> int:
    pipeline = replace(config, field_source="pipeline")
    reference = replace(config, field_source="printed-reference", case=case)

    _, pipe_groups, _ = cmd_solve(pipeline, outdir, force, filename="zeros_pipeline.csv")
    _, ref_groups, _ = cmd_solve(reference, outdir, force, filename="zeros_reference.csv")

    ladders: Dict[str, Dict[str, List[Tuple[str, ContinuationReport]]]] = {}
    for source, groups in (("pipeline", pipe_groups), ("reference", ref_groups)):
        ladders[source] = {}
        for system in _VERIFY_SYSTEMS:
            runs = _run_continuations(config, groups, system)
            ladders[source][system] = runs
            meta = {
                "case": case,
                "source": source,
                "system": system,
                "shooting_tol": config.shooting_tol,
                "integrator_tol": config.integrator_tol,
            }
            reports.write_continuation_csv(
                outdir / f"continuation_{source}_{system}.csv", runs, meta, force=force
            )

    lines = comparison_lines(case, pipe_groups, ref_groups, ladders)
    reports.write_text_report(outdir / "comparison.txt", lines, force=force)
    print("\n".join(lines))
    return 0


def comparison_lines(case, pipe_groups, ref_groups, ladders) -> List[str]:
    pipe_rows = _comparison_rows(pipe_groups, ladders["pipeline"])
    ref_rows = _comparison_rows(ref_groups, ladders["reference"])
    lines = reports.comparison_table(case, pipe_rows, ref_rows)
    lines.append(
        "  note: the two fields are evaluated from the same torque text; their"
    )
    lines.append(
        "  zero sets are compared side by side and shooting on the full and"
    )
    lines.append(
        "  linearized equations decides which predictions continue to orbits."
    )
    return lines


# --- entry point ---


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="dumbbell-averager",
        description="averaged bifurcation fields, certified zeros, and "
        "shooting-verified periodic orbits for the dumbbell satellite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eval", "write the averaged field on a grid"),
        ("solve", "write certified zeros of the averaged field"),
        ("verify", "run the epsilon-continuation ladder on each orbit class"),
        ("reproduce", "run a bundled case end-to-end and write the comparison table"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "reproduce":
            p.add_argument("case", nargs="?", choices=sorted(BUNDLED_CASES), help="bundled case name")
        p.add_argument("--config", type=Path, help="path to a key=value config file")
        p.add_argument("--out", type=Path, default=Path("artifacts"), help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        if args.command == "reproduce":
            if args.config is not None:
                config = load_config(args.config)
                case = args.case or config.case
            elif args.case is not None:
                with resources.as_file(bundled_config_path(args.case)) as p:
                    config = load_config(p)
                case = args.case
            else:
                raise ConfigError("reproduce needs a bundled case name or --config")
            if case not in BUNDLED_CASES:
                raise ConfigError(f"reproduce needs a case in {sorted(BUNDLED_CASES)}")
        else:
            if args.config is None:
                raise ConfigError(f"{args.command} requires --config")
            config = load_config(args.config)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "eval":
            path = cmd_eval(config, args.out, args.force)
            print(f"wrote {path}")
        elif args.command == "solve":
            zeros, groups, path = cmd_solve(config, args.out, args.force)
            print(f"wrote {path} ({len(zeros)} zero(s), {len(groups)} orbit class(es))")
        elif args.command == "verify":
            cmd_verify(config, args.out, args.force)
            print(f"wrote {args.out / 'continuation.csv'} and verify_report.txt")
        else:
            cmd_reproduce(config, case, args.out, args.force)
            print(f"wrote comparison table under {args.out}")
    except ArtifactExistsError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 1
    except DumbbellError as exc:
        print(f"numerical failure in stage {args.command!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
