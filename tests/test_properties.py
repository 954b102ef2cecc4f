"""Property tests of the torque DSL: text round trips and path agreement."""

import numpy as np
import pytest

import dumbbell_averager as da
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
