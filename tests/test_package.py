"""The package's public surface, and what importing it costs."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import dumbbell_averager as da

PUBLIC_NAMES = [
    "AveragedField",
    "BUNDLED_CASES",
    "DegenerateMonodromyError",
    "DomainError",
    "DumbbellError",
    "LinearizedTorque",
    "Mode",
    "NoConvergenceError",
    "ResonanceSpec",
    "SatelliteState",
    "SingularJacobianError",
    "StepSizeUnderflowError",
    "T1",
    "T2",
    "TorqueExpression",
    "TorqueSyntaxError",
    "UnknownIdentifierError",
    "ZeroSearchDomain",
    "closed_form_solution",
    "epsilon_continuation",
    "eval_dual",
    "extract_linearized",
    "first_order_rhs",
    "full_rhs",
    "full_system",
    "fundamental_matrix",
    "group_orbit_classes",
    "integrate",
    "jacobian2d",
    "linearized_perturbation",
    "linearized_system",
    "malkin_average",
    "monodromy_gap",
    "multistart_zeros",
    "newton2d",
    "parse_torque",
    "plane_embed",
    "shoot_periodic",
    "unperturbed_rhs",
    "validate_equilibrium",
]


def test_public_names_are_pinned_and_resolve():
    # a new export is a deliberate edit of this list
    assert sorted(da.__all__) == PUBLIC_NAMES
    for name in da.__all__:
        getattr(da, name)


def test_import_brings_in_no_process_pool():
    # the package's own pool forks by hand; multiprocessing or
    # concurrent.futures would add tens of milliseconds to every command's
    # start-up
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(da.__file__).resolve().parents[1])!r})\n"
        "import dumbbell_averager, dumbbell_averager.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_another_modules_private_names():
    # a module's underscore names are its own; tests may still reach them
    package = Path(da.__file__).resolve().parent
    imported = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []


def test_no_module_imports_a_name_it_never_uses():
    # pyflakes' rule, by an ast walk; a word of a string that is not a
    # docstring counts as a use, for __all__ and for the source templates
    # that generated code runs from
    package = Path(da.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
            word
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            for word in re.findall(r"\w+", node.value)
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_exception_class_is_raised_somewhere():
    # an error that nothing constructs is a name without meaning; the text is
    # searched, since generated code raises from inside source templates
    package = Path(da.__file__).resolve().parent
    modules = [importlib.import_module(f"dumbbell_averager.{p.stem}") for p in package.glob("*.py")]
    defined = {
        cls.__name__
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, BaseException)
        and cls.__module__ == module.__name__
    }
    text = "".join(p.read_text(encoding="utf-8") for p in package.glob("*.py"))
    unraised = [name for name in sorted(defined) if not re.search(rf"(?<!class )\b{name}\(", text)]
    assert defined and unraised == []
