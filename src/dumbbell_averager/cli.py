"""Command-line front end.

    dumbbell-averager <eval|solve|verify|reproduce> [case] --config <path>
                      [--out <dir>] [--force]

``eval`` writes the averaged field on a grid, ``solve`` writes certified
zeros, ``verify`` runs the epsilon-continuation ladder on every simple
orbit class, and ``reproduce`` runs a bundled case end-to-end, comparing
the pipeline-derived field against the bundled closed-form reference field
and letting direct shooting arbitrate.  ``reproduce`` takes a bundled case
name, ``--config``, or both; the others need ``--config``.

``verify`` and ``reproduce`` run their zero searches, then the ladders
planned from them, as two pool runs over the usable CPUs
(``_solve_and_shoot``); a ladder whose zero lies within ``newton_tol`` of a
ladder already planned in the same system reads that one's shots.  Nothing
they write, print or raise depends on the number of CPUs.  A zero search
whose verdict is not "complete" says so in one stderr line.

Exit codes: 0 success, 1 configuration, usage or artifact error, 2 numerical
failure (the failing stage is named on stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import averaging, reports, shooting, torques
from .averaging import AveragedField
from .dynamics import Mode, ResonanceSpec, full_system, linearized_system
from .errors import DumbbellError
from .reference import BUNDLED_CASES
from .pool import run_tasks, settled
from .shooting import continuation_report, epsilon_continuation, epsilon_ladder
from .torques import TorqueExpression, extract_linearized, parse_torque, validate_equilibrium
from .zeros import DEFAULT_NEWTON_TOL, ZeroSearchDomain, group_orbit_classes, multistart_zeros


class ConfigError(Exception):
    """Bad configuration file or command usage."""


class ArtifactExistsError(Exception):
    """Refusing to overwrite an existing artifact without --force."""


_FIELD_SOURCES = ("pipeline", "printed-reference")
_VERIFY_SYSTEMS = ("full", "linearized")
#: per command, the file of each artifact it writes under --out, by role:
#: the commands take their file names from here, and main refuses them all
#: up front without --force
_ARTIFACTS = {
    "eval": {"field": "field.csv"},
    "solve": {"zeros": "zeros.csv"},
    "verify": {"zeros": "zeros.csv", "continuation": "continuation.csv",
               "report": "verify_report.txt"},
    "reproduce": {
        "pipeline": "zeros_pipeline.csv",
        "reference": "zeros_reference.csv",
        **{(source, system): f"continuation_{source}_{system}.csv"
           for source in ("pipeline", "reference") for system in _VERIFY_SYSTEMS},
        "comparison": "comparison.txt",
    },
}
#: the largest eval grid side; cmd_eval sends all eval_n**2 points to the field at once
MAX_EVAL_N = 1024


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, and the schema of the config file: each
    field is a key (F1star and F2star capitalized), read as its type hint
    says (see load_config)."""

    f1star: str = field(metadata={"key": "F1star"})
    f2star: str = field(metadata={"key": "F2star"})
    mode: Mode
    p: int = 1
    #: checked coprime with p and written to CSV metadata; it enters no
    #: computation, since every window is p*T_mode
    q: int = 1
    epsilon_list: Tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    r1: float = ZeroSearchDomain.r1
    r2: float = ZeroSearchDomain.r2
    n_r: int = ZeroSearchDomain.n_r
    n_angle: int = ZeroSearchDomain.n_angle
    eval_n: int = 11
    eval_lo: float = -1.0
    eval_hi: float = 1.0
    quad_tol: float = averaging.DEFAULT_QUAD_TOL
    newton_tol: float = DEFAULT_NEWTON_TOL
    shooting_tol: float = shooting.DEFAULT_SHOOTING_TOL
    integrator_tol: float = shooting.DEFAULT_INTEGRATOR_TOL
    field_source: str = "pipeline"
    case: Optional[str] = None
    verify_system: str = "full"
    #: F1star and F2star parsed once, for every stage
    torques: Tuple[TorqueExpression, ...] = field(init=False, repr=False, compare=False)
    spec: ResonanceSpec = field(init=False, repr=False, compare=False)
    domain: ZeroSearchDomain = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key, hint in _HINTS.items():
            if hint is float and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        # each rule lives in the type that owns it; its ValueError names the keys here
        for name, keys, build in (
            ("spec", ("mode", "p", "q"), ResonanceSpec),
            ("domain", ("r1", "r2", "n_r", "n_angle"), ZeroSearchDomain),
            ("epsilon_list", ("epsilon_list",), epsilon_ladder),
        ):
            try:
                object.__setattr__(self, name, build(*(getattr(self, k) for k in keys)))
            except ValueError as exc:
                raise ConfigError(f"{', '.join(keys)}: {exc}") from None
        for key in ("quad_tol", "newton_tol", "shooting_tol", "integrator_tol"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be positive")
        if not 1 <= self.eval_n <= MAX_EVAL_N:
            raise ConfigError(f"eval_n must be between 1 and {MAX_EVAL_N}")
        if self.eval_lo >= self.eval_hi:
            raise ConfigError("eval_lo must be below eval_hi")
        if self.field_source not in _FIELD_SOURCES:
            raise ConfigError(f"field_source must be one of {_FIELD_SOURCES}")
        if self.case is not None or self.field_source == "printed-reference":
            _check_case(self.case, self.spec)
        if self.verify_system not in _VERIFY_SYSTEMS:
            raise ConfigError(f"verify_system must be one of {_VERIFY_SYSTEMS}")
        trees = []
        for key, text in (("F1star", self.f1star), ("F2star", self.f2star)):
            try:
                trees.append(parse_torque(text))
            except DumbbellError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        object.__setattr__(self, "torques", tuple(trees))

    @functools.cached_property
    def linearized(self):
        """The torques' angle-linearized coefficients, extracted on first use
        and kept for every later stage."""
        return extract_linearized(*self.torques)


def _check_case(case: str, spec: ResonanceSpec) -> None:
    """Refuse an unknown case, or one whose reference field lives on another plane."""
    if case not in BUNDLED_CASES:
        raise ConfigError(f"case must be one of {sorted(BUNDLED_CASES)}, got {case!r}")
    bundled = BUNDLED_CASES[case].spec
    if bundled != spec:
        raise ConfigError(f"case {case} needs mode={bundled.mode.value}, p={bundled.p}, q={bundled.q}")


#: the file grammar, read off RunConfig once: its type hints, and each key's field
_HINTS = get_type_hints(RunConfig)
_FIELDS = {f.metadata.get("key", f.name): f for f in fields(RunConfig) if f.init}
#: how a value of each field type is read; Mode by its value, T1 or T2
_PARSERS = {
    int: int,
    float: float,
    str: str,
    Optional[str]: str,
    Mode: Mode,
    Tuple[float, ...]: lambda text: tuple(float(v) for v in text.split(",") if v.strip()),
}


def load_config(path) -> RunConfig:
    """Parse a plain-text ``key = value`` configuration file.

    ``#`` starts a comment, blank lines are skipped, keys may appear once.
    The keys, their value types and their defaults are RunConfig's fields;
    unknown keys are errors.
    """
    text = Path(path).read_text(encoding="utf-8")
    kwargs: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = _FIELDS[key].name
        if name in kwargs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            kwargs[name] = _PARSERS[_HINTS[name]](value)
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from None

    for key, f in _FIELDS.items():
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return RunConfig(**kwargs)


def bundled_config_path(case: str):
    """Path to a bundled configuration file shipped with the package."""
    if case not in BUNDLED_CASES:
        raise ConfigError(f"unknown bundled case {case!r}; choose from {sorted(BUNDLED_CASES)}")
    return resources.files("dumbbell_averager").joinpath("configs", f"{case}.cfg")


# --- pipeline stages ---


def _build_field(config: RunConfig, source: str, case: Optional[str]):
    """Return (field callable, meta dict) for ``source``: the printed reference
    of ``case``, or the pipeline's field, the ``Polynomial`` its quadrature
    ``AveragedField`` recovers where the torque's degrees allow and the fit
    holds, else that ``AveragedField``."""
    meta: Dict[str, object] = {
        "field_source": source,
        "mode": config.mode.value,
        "p": config.p,
        "q": config.q,
    }
    if source == "printed-reference":
        meta["case"] = case
        return BUNDLED_CASES[case].reference_field, meta
    report = validate_equilibrium(*config.torques)
    # read off the torque: coefficients built from plain callables carry no trees
    t1 = config.spec.mode is Mode.NUTATION_T1
    degrees = torques.velocity_degrees(config.torques[not t1], "theta_dot" if t1 else "phi_dot")
    averaged = AveragedField(config.spec, config.linearized, config.quad_tol)
    polynomial = averaged.polynomial(degrees) if degrees else None
    meta["quad_tol"] = config.quad_tol
    meta["equilibrium_check"] = report.status
    meta["quad_nodes_max"] = averaged.max_nodes_used
    return (averaged if polynomial is None else polynomial), meta


def _eval_points(config: RunConfig) -> np.ndarray:
    grid = np.linspace(config.eval_lo, config.eval_hi, config.eval_n)
    a1, a2 = np.meshgrid(grid, grid, indexing="ij")
    return np.column_stack([a1.ravel(), a2.ravel()])


def cmd_eval(config: RunConfig, outdir: Path) -> Path:
    fld, meta = _build_field(config, config.field_source, config.case)
    points = _eval_points(config)
    values = fld(points)
    if isinstance(fld, AveragedField):
        meta["quad_nodes_max"] = fld.max_nodes_used
    path = outdir / _ARTIFACTS["eval"]["field"]
    reports.write_field_csv(path, points, values, meta)
    return path


def _search(config: RunConfig, fld, meta: dict) -> tuple:
    """The certified zeros of ``fld``, their orbit classes and the metadata
    of their CSV, ``meta`` first."""
    zeros = multistart_zeros(fld, config.domain, tol=config.newton_tol)
    meta = dict(meta, newton_tol=config.newton_tol, **asdict(config.domain))
    if "quad_nodes_max" in meta:  # last, and read again off a quadrature field
        nodes = meta.pop("quad_nodes_max")
        meta["quad_nodes_max"] = fld.max_nodes_used if isinstance(fld, AveragedField) else nodes
    return zeros, group_orbit_classes(zeros), meta


def _note_verdict(label: str, zeros) -> None:
    """One stderr line for a zero search that did not prove its zero set complete."""
    if zeros.verdict != "complete":
        print(f"{label} zero search: {zeros.verdict}", file=sys.stderr)


def cmd_solve(config: RunConfig, outdir: Path):
    zeros, groups, meta = _search(config, *_build_field(config, config.field_source, config.case))
    _note_verdict(config.field_source, zeros)
    path = outdir / _ARTIFACTS["solve"]["zeros"]
    reports.write_zeros_csv(path, zeros, groups, meta)
    return zeros, groups, path


def _rhs_factory(config: RunConfig, system: str):
    return full_system(*config.torques) if system == "full" else linearized_system(config.linearized)


def _tolerances(config: RunConfig) -> Dict[str, float]:
    """The shooting and integrator tolerances, as ``epsilon_continuation``
    arguments and as continuation-CSV metadata."""
    return {"shooting_tol": config.shooting_tol, "integrator_tol": config.integrator_tol}


def _shared_shots(tasks: Sequence[tuple], tol: float) -> Dict[tuple, tuple]:
    """Map each ladder task, (label, system, class index, averaged zero), to
    the task whose shots it reads: the first earlier one that is shot, in
    the same system, with a zero within ``tol`` of its own, else itself."""
    shots: Dict[tuple, tuple] = {}
    for task in tasks:
        shots[task] = next((shot for shot in shots.values() if shot[1] == task[1]
                            and math.dist(shot[3], task[3]) <= tol), task)
    return shots


def _solve_and_shoot(config: RunConfig, searches: Dict[str, Tuple[str, Path]],
                     case: Optional[str], systems: Sequence[str]) -> tuple:
    """Search the field of each ``searches`` entry, label: (field source,
    zeros CSV), and shoot its simple orbit classes in each of ``systems``,
    in two ``run_tasks`` calls.  The first runs the searches, each of which
    builds its field too (a fit then runs beside the other search); their
    zeros CSVs are written in order, and the first failure is raised.  The
    second runs each ladder task (label, system, class index, zero
    location) that ``_shared_shots`` maps to itself; the others read the
    shots it maps them to, and the first failure in the serial order is
    raised.  Returns each label's orbit classes and each (label, system)'s
    ladders, keyed by class index."""
    def search(label):
        return _search(config, *_build_field(config, searches[label][0], case))

    def ladder(task):
        return epsilon_continuation(
            rhs_for_eps=factories[task[1]], averaged_zero=task[3], spec=config.spec,
            eps_list=config.epsilon_list, **_tolerances(config),
        )

    # a wrapped layer function (``__wrapped__``, as a tracer's spans) sees
    # only the calls made in its own process, so then no task leaves it
    fork = not any(hasattr(f, "__wrapped__") for f in (multistart_zeros, epsilon_continuation))
    groups = {}
    for (label, (_, path)), found in zip(searches.items(), run_tasks(searches, search, fork)):
        zeros, groups[label], meta = settled(found)
        _note_verdict(label, zeros)
        reports.write_zeros_csv(path, zeros, groups[label], meta)
    factories = {system: _rhs_factory(config, system) for system in systems}
    shots = _shared_shots([
        (label, system, idx, tuple(float(v) for v in group[0].location))
        for label in searches for system in systems
        for idx, group in enumerate(groups[label]) if group[0].is_simple
    ], config.newton_tol)
    shooting.dopri_loop(4)  # the ladders' step loop, compiled before the fork for every child
    planned = [task for task, twin in shots.items() if task == twin]
    outcomes = dict(zip(planned, run_tasks(planned, ladder, fork)))
    ladders = {(label, system): {} for label in searches for system in systems}
    for task, twin in shots.items():
        report = settled(outcomes[twin])
        ladders[task[:2]][task[2]] = report if task == twin else continuation_report(
            task[3], config.spec, report.eps_list, report.certificates, report.failure)
    return groups, ladders


def cmd_verify(config: RunConfig, outdir: Path) -> int:
    names = _ARTIFACTS["verify"]
    source, system = config.field_source, config.verify_system
    searches = {source: (source, outdir / names["zeros"])}
    _, ladders = _solve_and_shoot(config, searches, config.case, (system,))
    ladders = ladders[source, system]
    if not ladders:
        raise DumbbellError("verify: no simple zeros found in the search annulus")
    meta = {
        "system": system,
        **_tolerances(config),
        "epsilon_list": "/".join(f"{e:g}" for e in config.epsilon_list),
    }
    reports.write_continuation_csv(outdir / names["continuation"], ladders, meta)
    reports.write_text_report(outdir / names["report"], reports.verify_report(system, ladders))
    if all(not rep.certificates for rep in ladders.values()):
        raise DumbbellError("verify: shooting failed on every orbit class")
    return 0


def cmd_reproduce(config: RunConfig, case: str, outdir: Path) -> int:
    names = _ARTIFACTS["reproduce"]
    searches = {"pipeline": ("pipeline", outdir / names["pipeline"]),
                "reference": ("printed-reference", outdir / names["reference"])}
    groups, ladders = _solve_and_shoot(config, searches, case, _VERIFY_SYSTEMS)
    for (source, system), ladders_of_set in ladders.items():
        meta = {"case": case, "source": source, "system": system, **_tolerances(config)}
        reports.write_continuation_csv(outdir / names[source, system], ladders_of_set, meta)

    lines = reports.comparison_table(
        case,
        *((groups[source], {system: ladders[source, system] for system in _VERIFY_SYSTEMS})
          for source in groups),
    )
    reports.write_text_report(outdir / names["comparison"], lines)
    print("\n".join(lines))
    return 0


# --- entry point ---


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError (exit 1); argparse's own exits 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = _Parser(
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
    try:
        args = _parse_args(argv)
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
            _check_case(case, config.spec)
        else:
            if args.config is None:
                raise ConfigError(f"{args.command} requires --config")
            config = load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        for path in (args.out / name for name in _ARTIFACTS[args.command].values()):
            if path.exists() and not args.force:
                raise ArtifactExistsError(f"{path} exists; pass --force to overwrite")
        if args.command == "eval":
            path = cmd_eval(config, args.out)
            print(f"wrote {path}")
        elif args.command == "solve":
            zeros, groups, path = cmd_solve(config, args.out)
            print(f"wrote {path} ({len(zeros)} zero(s), {len(groups)} orbit class(es))")
        elif args.command == "verify":
            cmd_verify(config, args.out)
            names = _ARTIFACTS["verify"]
            print(f"wrote {args.out / names['continuation']} and {names['report']}")
        else:
            cmd_reproduce(config, case, args.out)
            print(f"wrote comparison table under {args.out}")
    except (ArtifactExistsError, OSError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 1
    except DumbbellError as exc:
        print(f"numerical failure in stage {args.command!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
