"""Property tests: torque DSL text round trips and path agreement, and the
CLI exit-code contract on random configs."""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

import dumbbell_averager as da
import dumbbell_averager.cli as cli
from dumbbell_averager.torques import VARIABLES, BinOp, Call, Const, Neg, Num, Pow, Var, diff

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=150)

#: literals on a 1e-3 grid over [0, 9], exact zero included
literals = st.integers(0, 9000).map(lambda k: Num(k / 1000))
leaves = st.one_of(
    literals, st.sampled_from([Const(c) for c in ("pi", "sqrt3")] + [Var(v) for v in VARIABLES])
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "tan"]), sub),
        st.builds(Pow, sub, st.integers(-4, 4)),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), sub, sub),
    ),
    max_leaves=10,
)
#: bindings away from the overflow range of the scalar path, exact zero
#: included so that zero divisors are drawn
coordinates = st.one_of(st.just(0.0), st.floats(1e-3, 1.3), st.floats(-1.3, -1e-3))
bindings = st.tuples(*[coordinates] * 5)


def round_trips(tree) -> bool:
    return da.parse_torque(da.TorqueExpression(tree).pretty()).root == tree


@SETTINGS
@hypothesis.given(trees)
def test_pretty_round_trip(tree):
    assert round_trips(tree)


@SETTINGS
@hypothesis.given(trees, st.sampled_from(VARIABLES))
def test_pretty_round_trip_of_derivatives(tree, var):
    d = diff(tree, var)
    assert d is None or round_trips(d)


def outcome(fn, args):
    try:
        result = fn(*args)
    except da.DomainError as exc:
        return str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return [float(np.reshape(x, -1)[0]) for x in parts]


@SETTINGS
@hypothesis.given(trees, bindings, st.sampled_from((None,) + VARIABLES))
def test_scalar_and_array_paths_agree(tree, b, seed):
    expr = da.TorqueExpression(tree)
    arrays = [np.array([x]) for x in b]
    with np.errstate(all="ignore"):
        if seed is None:
            scalar, array = outcome(expr.compile(), b), outcome(expr.evaluate, arrays)
        else:
            scalar = outcome(expr.compile_dual(seed), b)
            array = outcome(lambda *a: da.eval_dual(expr, a, seed), arrays)
    if isinstance(scalar, str) or isinstance(array, str):
        assert scalar == array
    else:
        assert scalar == pytest.approx(array, rel=1e-12, abs=1e-12)


#: as ``bindings``, with coordinates in the overflow range of both paths
wide_bindings = st.tuples(
    *[st.one_of(coordinates, st.sampled_from([1e-170, -1e-170, 1e200, -1e200]))] * 5
)


@SETTINGS
@hypothesis.given(trees, wide_bindings, st.sampled_from((None,) + VARIABLES))
def test_scalar_and_array_paths_agree_past_the_floats(tree, b, seed):
    # both raise DomainError or both give a value; the message may differ,
    # since the math path raises at the result where numpy raises at the
    # operation that overflowed
    expr = da.TorqueExpression(tree)
    arrays = [np.array([x]) for x in b]
    if seed is None:
        scalar, array = outcome(expr.compile(), b), outcome(expr.evaluate, arrays)
    else:
        scalar = outcome(expr.compile_dual(seed), b)
        array = outcome(lambda *a: da.eval_dual(expr, a, seed), arrays)
    assert isinstance(scalar, str) == isinstance(array, str), (scalar, array)
    if not isinstance(scalar, str):
        assert scalar == pytest.approx(array, rel=1e-12, abs=1e-12)


def float_bits(result):
    return result if isinstance(result, str) else [struct.pack("d", x) for x in result]


@SETTINGS
@hypothesis.given(trees, trees, bindings, st.floats(-1.0, 1.0))
# a signed zero: d(theta^2)/d theta at theta = 0 times X = 0, plus 0.0 * (Z = -1)
@hypothesis.example(Pow(Var("theta"), 2), Num(0.0), (0.0, 0.0, 0.0, -1.0, 0.0), 1.0)
# f1 divides by zero and f4 meets a tan pole: the f1 error comes first
@hypothesis.example(
    BinOp("*", Var("theta"), BinOp("/", Num(1.0), BinOp("-", Var("phi_dot"), Num(1.0)))),
    BinOp("*", Var("phi"), Call("tan", BinOp("*", Var("theta_dot"), Const("pi")))),
    (0.0, 1.0, 0.5, 1.0, 1.0),
    1e-2,
)
def test_generated_linearized_rhs_is_first_order_rhs(tree1, tree2, b, eps):
    """The generated rhs returns the floats of ``first_order_rhs`` over the
    coefficient closures bit for bit, signed zeros included, or raises the
    same DomainError."""
    with np.errstate(all="ignore"):
        try:
            lin = da.extract_linearized(da.TorqueExpression(tree1), da.TorqueExpression(tree2))
        except da.DomainError:  # the torque's value at the origin
            hypothesis.reject()
    t, s = b[0], b[1:]
    generated = outcome(da.make_first_order_rhs(eps, lin), (t, s))
    assert float_bits(generated) == float_bits(outcome(da.first_order_rhs, (s, t, eps, lin)))


#: a valid config with tiny grids; every drawn key replaces its line here
BASE_CONFIG = {
    "F1star": "sin(theta)",
    "F2star": "sin(phi)",
    "mode": "T1",
    "n_r": "2",
    "n_angle": "2",
    "eval_n": "3",
    "epsilon_list": "1e-2",
}
#: per key, values the config accepts and values it refuses; None drops the
#: key, a key drawn twice is a duplicate, and "2\nq = 4" sets p and q to a
#: pair that is not coprime
CONFIG_VALUES = {
    "F1star": ["sin(theta)", "sin(theta)/theta_dot", "sin(theta", None],
    "F2star": ["sin(phi)", "sin(phi)*phi_dot", "sin(phi) + wibble", None],
    "mode": ["T1", "T2", "T3", None],
    "p": ["1", "3", "0", "-1", "1.5", "2\nq = 4"],
    "q": ["1", "2", "0"],
    "r1": ["0.05", "0.5", "0", "-1", "nan", "6"],
    "r2": ["5", "2", "inf", "0.01"],
    "n_r": ["1", "2", "0", "-1"],
    "n_angle": ["1", "2", "0"],
    "eval_n": ["1", "3", "0"],
    "eval_lo": ["-1", "0.5", "nan", "2"],
    "eval_hi": ["1", "2", "-inf", "-2"],
    "quad_tol": ["1e-10", "0", "nan"],
    "newton_tol": ["1e-12", "-1e-12", "inf"],
    "shooting_tol": ["1e-8", "0"],
    "integrator_tol": ["1e-9", "nan"],
    "epsilon_list": ["1e-2", "1e-2, 1e-3", "0", "1e-3, 1e-2", "1e-2, 1e-2", ",", "1e-2, nan",
                     "inf", "-1e-2"],
    "field_source": ["pipeline", "printed-reference", "nope"],
    "case": ["corollary1", "corollary2", "nope"],
    "verify_system": ["full", "linearized", "half"],
    "wibble": ["3"],
}
overrides = st.lists(
    st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(CONFIG_VALUES[key]))
    ),
    max_size=4,
)


def config_text(drawn) -> str:
    keys = {key for key, _ in drawn}
    lines = [f"{key} = {value}" for key, value in BASE_CONFIG.items() if key not in keys]
    lines += [f"{key} = {value}" for key, value in drawn if value is not None]
    return "\n".join(lines) + "\n"


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(overrides, st.sampled_from(["eval", "solve"]))
@hypothesis.example([("F1star", "sin(theta)/theta_dot")], "solve")  # exit 2: zero divisor
@hypothesis.example([("F1star", "sin(theta) + (t + 1e200)^2")], "solve")  # exit 2: overflow
def test_any_config_exits_by_the_contract(drawn, command):
    """Exit 0 writes the artifact, 1 writes nothing, 2 names the stage;
    never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(config_text(drawn), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert (out / ("field.csv" if command == "eval" else "zeros.csv")).exists()
        elif code == 1:
            assert "config error" in err.getvalue() and not out.exists()
        else:
            assert f"numerical failure in stage {command!r}" in err.getvalue()
