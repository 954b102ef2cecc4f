"""Property tests: torque DSL text round trips and path agreement, and the
CLI exit-code contract on random configs."""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_torques import scalar_dual
from test_zeros import pairwise_dedup

import dumbbell_averager as da
import dumbbell_averager.cli as cli
from dumbbell_averager import torques
from dumbbell_averager.torques import VARIABLES, BinOp, Call, Const, Neg, Num, Pow, Var, diff
from dumbbell_averager.averaging import Polynomial
from dumbbell_averager.zeros import DEDUP_DISTANCE, _enclosure, _first_apart, _median_norm

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


#: pieces of torque text: the DSL's tokens, stray characters and words, and
#: runs of ASCII and Unicode digits
text_pieces = st.one_of(
    st.sampled_from(
        ["+", "-", "*", "/", "^", "(", ")", " ", ".", "e", "E", "e-", "1e999", "x", "sinh", "_",
         "@", "\t", "\u00e9", "#", *VARIABLES, *torques.CONSTANTS, *torques.FUNCTIONS]
    ),
    st.text("0123456789\u0663", min_size=1, max_size=25),
)


@hypothesis.settings(SETTINGS, max_examples=500)
@hypothesis.given(st.lists(text_pieces, max_size=30).map("".join))
@hypothesis.example("(" * 40 + "t" + ")" * 40)
@hypothesis.example("(" * 41 + "t" + ")" * 41)  # past MAX_NESTING
@hypothesis.example("-" * 41 + "t")
def test_any_text_parses_to_a_round_trip_or_is_refused_at_an_offset(text):
    try:
        expr = da.parse_torque(text)
    except (da.TorqueSyntaxError, da.UnknownIdentifierError) as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert da.parse_torque(expr.pretty()).root == expr.root


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
            scalar = outcome(scalar_dual(expr, seed), b)
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
        scalar = outcome(scalar_dual(expr, seed), b)
        array = outcome(lambda *a: da.eval_dual(expr, a, seed), arrays)
    assert isinstance(scalar, str) == isinstance(array, str), (scalar, array)
    if not isinstance(scalar, str):
        assert scalar == pytest.approx(array, rel=1e-12, abs=1e-12)


def float_bits(result):
    return result if isinstance(result, str) else [struct.pack("d", x) for x in result]


def full_outcome(fn, args):
    try:
        return fn(*args)
    except da.DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


THETA, THETA_DOT, PHI, PHI_DOT = (Var(v) for v in ("theta", "theta_dot", "phi", "phi_dot"))


@SETTINGS
@hypothesis.given(trees, trees, bindings, st.floats(-1.0, 1.0))
@hypothesis.example(Call("tan", THETA), THETA, (0.0, 1.5707963267948966, 0.2, 0.1, 0.3), 1e-2)
@hypothesis.example(Num(1.0), BinOp("/", Num(1.0), THETA), (0.3, 0.0, 0.2, 0.1, 0.3), 1e-2)
@hypothesis.example(Pow(PHI_DOT, -1), Num(0.0), (0.3, 0.1, 0.2, 0.1, 0.0), 1e-2)
# at the pole, F1*'s own tan(phi) raises before F2* divides by zero
@hypothesis.example(
    Call("tan", PHI), BinOp("/", Num(1.0), THETA), (0.0, 0.0, 0.0, 1.5707963267948966, 0.0), 1.0
)
# F2* divides by zero before the attitude terms' tan(phi) meets the pole
@hypothesis.example(
    Num(1.0), BinOp("/", Num(1.0), THETA), (0.0, 0.0, 0.0, 1.5707963267948966, 0.0), 1.0
)
@hypothesis.example(Num(0.0), THETA_DOT, (0.0, 0.1, 1e200, 0.2, 0.3), 1e-2)
@hypothesis.example(Num(0.0), Call("sin", THETA), (0.0, 0.1, 1e200, 0.2, 0.3), 1e-2)
# sin(phi_dot * phi_dot), shared with F2*, is computed where F1* computes
# it: after the overflow of theta_dot^4, so that overflow is the error
@hypothesis.example(
    BinOp("+", Pow(THETA_DOT, 4), Call("sin", BinOp("*", PHI_DOT, PHI_DOT))),
    Call("sin", BinOp("*", PHI_DOT, PHI_DOT)),
    (0.0, 0.1, 1e100, 0.2, 1e200),
    1e-2,
)
# F2* reads F1*'s product by name, then divides by it
@hypothesis.example(
    BinOp("*", Call("sin", THETA), PHI_DOT),
    Pow(BinOp("*", Call("sin", THETA), PHI_DOT), -1),
    (0.0, 0.1, 0.2, 0.3, 0.0),
    1e-2,
)
# F1*'s cos(theta), which the attitude term reads too, is named in F1*'s
# expression; tan(theta)'s pole guard must not read it before that runs
@hypothesis.example(
    BinOp("*", Call("cos", THETA), Call("tan", THETA)), Num(0.0), (0.0, 0.1, 0.2, 0.3, 0.4), 1e-2
)
def test_generated_full_rhs_is_full_rhs(tree1, tree2, b, eps):
    """The generated full rhs returns the floats of ``full_rhs`` bit for bit,
    signed zeros included, or raises the same DomainError with the same
    text, the torques' own errors before the attitude terms' tan(phi) pole."""
    f1, f2 = da.TorqueExpression(tree1), da.TorqueExpression(tree2)
    t, s = b[0], b[1:]
    generated = full_outcome(da.full_system(f1, f2)(eps), (t, s))
    assert float_bits(generated) == float_bits(full_outcome(da.full_rhs, (s, t, eps, f1, f2)))


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
# zero angles are folded exactly: a zero divisor stays one, and 0.0 * x
# keeps the sign of zero and a NaN
@hypothesis.example(BinOp("/", Num(1.0), THETA), Num(0.0), (0.0, 1.0, 0.5, 1.0, 1.0), 1e-2)
@hypothesis.example(Pow(Call("cos", THETA), -2), Num(0.0), (0.0, 1.0, 0.5, 1.0, 1.0), 1e-2)
@hypothesis.example(BinOp("*", THETA, PHI_DOT), Num(0.0), (0.0, 0.0, 0.5, -1.0, -1.0), 1.0)
@hypothesis.example(BinOp("*", THETA, PHI_DOT), Num(0.0), (0.0, 1.0, 0.5, -1.0, math.inf), 1.0)
@hypothesis.example(BinOp("*", THETA, PHI_DOT), Num(0.0), (0.0, 1.0, 0.5, -1.0, -math.inf), 1.0)
@hypothesis.example(BinOp("*", THETA, PHI_DOT), Num(0.0), (0.0, 1.0, 0.5, math.inf, -1.0), 1.0)
# f1's cos(phi_dot), named for f3, then its tan(phi_dot): the pole guard
# must not read the name before f1's expression assigns it
@hypothesis.example(
    BinOp("*", BinOp("*", THETA, Call("cos", PHI_DOT)), Call("tan", PHI_DOT)),
    BinOp("*", BinOp("*", THETA, PHI_DOT), Call("cos", PHI_DOT)),
    (0.0, 0.1, 0.2, 0.3, 0.4),
    1e-2,
)
def test_generated_linearized_rhs_is_first_order_rhs(tree1, tree2, b, eps):
    """The generated rhs returns the floats of ``first_order_rhs`` over the
    coefficient closures bit for bit, signed zeros and NaNs included, or
    raises the same DomainError."""
    # the pipeline's coefficients without extract_linearized's check of the
    # torques' values at the origin, so that a torque such as 1/theta has them
    lin = torques._linearize(da.TorqueExpression(tree1), da.TorqueExpression(tree2))
    t, s = b[0], b[1:]
    generated = outcome(da.linearized_system(lin)(eps), (t, s))
    assert float_bits(generated) == float_bits(outcome(da.first_order_rhs, (s, t, eps, lin)))


#: (t, active rate) sample pairs for the linearized coefficients
rate_samples = st.lists(st.tuples(st.floats(-7.0, 7.0), coordinates), min_size=1, max_size=8)


def broadcast_outcome(fn, args, shape):
    try:
        result = fn(*args)
    except da.DomainError as exc:
        return str(exc)
    return np.broadcast_to(np.asarray(result, dtype=float), shape).tobytes()


@SETTINGS
@hypothesis.given(trees, trees, rate_samples)
# Python's ** on 2.759 and on 0.051 differs from numpy's on an array
@hypothesis.example(
    BinOp("*", Var("theta"), Pow(BinOp("+", Var("phi_dot"), Num(2.759)), 2)),
    BinOp("*", Var("phi"), Pow(BinOp("+", Var("theta_dot"), Num(0.051)), 3)),
    [(0.5, -0.0), (1.0, 0.7)],
)
def test_coefficients_take_a_scalar_zero_rate(tree1, tree2, samples):
    """A coefficient called with the scalar 0.0 for one rate returns the
    floats, signed zeros included, of the call with a zeros array, or raises
    the same DomainError."""
    with np.errstate(all="ignore"):
        try:
            lin = da.extract_linearized(da.TorqueExpression(tree1), da.TorqueExpression(tree2))
        except da.DomainError:  # the torque's value at the origin
            hypothesis.reject()
    t, v = (np.array(column) for column in zip(*samples))
    zeros = np.zeros_like(v)
    for coefficient in (lin.f1, lin.f2, lin.f3, lin.f4):
        for scalar, array in (((t, v, 0.0), (t, v, zeros)), ((t, 0.0, v), (t, zeros, v))):
            assert broadcast_outcome(coefficient, scalar, v.shape) == broadcast_outcome(
                coefficient, array, v.shape
            )


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
@hypothesis.example([("F1star", "1e999*theta")], "solve")  # exit 1: the literal overflows
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


def numpy_median_norm(values) -> float:
    """The field scale with np.median, as ``_median_norm`` was written."""
    med = float(np.median(np.linalg.norm(values, axis=1))) if len(values) else 0.0
    return med if med > 0.0 else 1.0


#: field rows of any length, odd and even, with zeros, ties, infs and NaNs;
#: the finite entries stay small enough that no norm overflows
entries = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
)
field_rows = st.lists(st.tuples(entries, entries), max_size=12).map(
    lambda rows: np.array(rows, dtype=float).reshape(-1, 2)
)


@SETTINGS
@hypothesis.given(field_rows)
@hypothesis.example(np.zeros((0, 2)))
@hypothesis.example(np.zeros((5, 2)))
@hypothesis.example(np.zeros((4, 2)))
@hypothesis.example(np.array([[3.0, 4.0], [math.inf, 0.0], [1.0, 0.0]]))
@hypothesis.example(np.array([[3.0, 4.0], [math.inf, 0.0], [math.inf, 1.0], [1.0, 0.0]]))
@hypothesis.example(np.array([[3.0, 4.0], [math.nan, 0.0], [1.0, 0.0]]))
@hypothesis.example(np.array([[0.1, 0.2], [0.3, 0.4]]))  # a mean that rounds
def test_median_norm_is_numpys_median(values):
    got, want = _median_norm(values), numpy_median_norm(values)
    assert struct.pack("<d", got) == struct.pack("<d", want)


#: points on a grid a fraction of DEDUP_DISTANCE apart, so that chains and
#: near-ties are common
dedup_points = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=24
).map(lambda cells: 1.0 + np.array(cells, dtype=float).reshape(-1, 2) * (DEDUP_DISTANCE / 3))


@SETTINGS
@hypothesis.given(dedup_points)
def test_dedup_keeps_what_the_pairwise_loop_keeps(points):
    assert _first_apart(points) == pairwise_dedup(points)


#: polynomial terms: distinct exponents of degree 1 to 6 and coefficients
#: (m, 2) spanning several orders of magnitude, exact zero included
coefficient = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3))
polynomial_terms = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: 0 < sum(e) <= 6),
    min_size=1, max_size=8, unique=True,
).flatmap(lambda exponents: st.tuples(
    st.just(exponents),
    st.lists(st.tuples(coefficient, coefficient), min_size=len(exponents), max_size=len(exponents)),
))
#: a box (x, y, width, height), its sides from 0 (a point) to 4
box_sides = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-6, 4.0))
boxes = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), box_sides, box_sides)
fractions = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6)


@SETTINGS
@hypothesis.given(polynomial_terms, boxes, fractions, st.booleans())
def test_the_widened_enclosure_holds_the_polynomial_on_its_box(terms, box, fractions, jacobian):
    """The enclosure over a box, widened by its rounding bound, holds the
    polynomial's value at every point of the box, and so does the enclosure
    of the polynomial with its Jacobian, which has a constant term."""
    field = Polynomial(*terms)
    field = field.with_jacobian() if jacobian else field
    x, y, width, height = box
    lo, hi = np.array([[x, y]]), np.array([[x + width, y + height]])
    points = np.clip(lo + np.array(fractions) * (hi - lo), lo, hi)
    points = np.vstack([points, lo, hi, [[x, y + height], [x + width, y]]])
    low, high = _enclosure(lo, hi, field.terms)
    values = field(points)
    assert (low <= values).all() and (values <= high).all()
