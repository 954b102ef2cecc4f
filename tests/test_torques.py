"""Torque DSL: parsing, evaluation and derivatives, linearization, validation."""

import math
import pickle
import random

import numpy as np
import pytest

import dumbbell_averager as da
from dumbbell_averager import dynamics, torques
from dumbbell_averager.torques import (
    EQUILIBRIUM_N_T,
    EQUILIBRIUM_N_V,
    MAX_NESTING,
    VARIABLES,
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Pow,
    Var,
    diff,
)

SQRT3 = math.sqrt(3.0)


def scalar_dual(expr, seed):
    """(value, d/d_seed) over the math module: ``compile()``, then the
    partial's ``compile()``, 0.0 where the tree does not depend on ``seed``."""
    value, deriv = expr.compile(), expr.partial(seed)
    return lambda *b: (value(*b), 0.0 if deriv is None else deriv.compile()(*b))


#: the four evaluation entry points, each as run(expr, bindings, seed)
ENTRY_POINTS = {
    "evaluate": lambda expr, b, seed: expr.evaluate(*b),
    "eval_dual": lambda expr, b, seed: da.eval_dual(expr, b, seed),
    "compile": lambda expr, b, seed: expr.compile()(*b),
    "partial.compile": lambda expr, b, seed: scalar_dual(expr, seed)(*b),
}


def random_expression(rng: random.Random, depth: int, low_exponent: int = 0):
    """Random well-formed tree down to the given depth; powers have integer
    exponents from ``low_exponent`` to 4."""
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return Num(round(rng.uniform(0.0, 9.0), 3))
        if kind == 1:
            return Const(rng.choice(["pi", "sqrt3"]))
        return Var(rng.choice(["t", "theta", "theta_dot", "phi", "phi_dot"]))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_expression(rng, depth - 1, low_exponent))
    if kind == 1:
        return Call(rng.choice(["sin", "cos", "tan"]), random_expression(rng, depth - 1, low_exponent))
    if kind == 2:
        return Pow(random_expression(rng, depth - 1, low_exponent), rng.randrange(low_exponent, 5))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(
        op,
        random_expression(rng, depth - 1, low_exponent),
        random_expression(rng, depth - 1, low_exponent),
    )


class TestParser:
    def test_product_of_sine_and_power(self):
        expr = da.parse_torque("sin(theta)*theta_dot^4")
        assert expr.root == BinOp("*", Call("sin", Var("theta")), Pow(Var("theta_dot"), 4))

    def test_unterminated_call_reports_offset(self):
        with pytest.raises(da.TorqueSyntaxError) as err:
            da.parse_torque("sin(")
        assert err.value.offset == 4
        assert err.value.expected

    def test_empty_input(self):
        with pytest.raises(da.TorqueSyntaxError):
            da.parse_torque("   ")

    def test_unknown_identifier(self):
        with pytest.raises(da.UnknownIdentifierError) as err:
            da.parse_torque("sin(thetta)")
        assert err.value.name == "thetta"
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(da.TorqueSyntaxError):
            da.parse_torque("theta )")

    def test_precedence(self):
        expr = da.parse_torque("1 + 2*theta^2")
        assert expr.root == BinOp(
            "+", Num(1.0), BinOp("*", Num(2.0), Pow(Var("theta"), 2))
        )

    def test_unary_minus_binds_below_power(self):
        assert da.parse_torque("-theta^2").root == Neg(Pow(Var("theta"), 2))

    def test_negative_exponent(self):
        assert da.parse_torque("theta^-2").root == Pow(Var("theta"), -2)

    def test_whitespace_insensitive(self):
        a = da.parse_torque("sin( theta ) *  theta_dot ^ 4")
        b = da.parse_torque("sin(theta)*theta_dot^4")
        assert a.root == b.root

    def test_round_trip_of_reference_expression(self):
        text = "cos(theta) - sin(sqrt3*t)*sin(theta)*theta_dot"
        expr = da.parse_torque(text)
        assert da.parse_torque(expr.pretty()).root == expr.root

    def test_round_trip_random_trees(self):
        rng = random.Random(20240901)
        for _ in range(500):
            tree = random_expression(rng, rng.randrange(1, 7))
            expr = da.TorqueExpression(tree)
            reparsed = da.parse_torque(expr.pretty())
            assert reparsed.root == tree, expr.pretty()

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(da.TorqueSyntaxError):
            da.parse_torque("theta^2.5")

    @pytest.mark.parametrize("text, offset, expected", [
        ("1e999*theta", 0, "finite number"),
        ("sin(theta) + 2e308", 13, "finite number"),
        ("theta*" + "9" * 400, 6, "finite number"),
        # int() converts at most 4300 digits
        ("theta^" + "1" * 4400, 6, "integer exponent of at most 4300 digits"),
        # diff writes the exponent as a float
        ("theta^" + "1" * 400, 6, "integer exponent within the finite floats"),
    ], ids=["1e999", "2e308", "400-digit-literal", "4400-digit-exponent", "400-digit-exponent"])
    def test_unrepresentable_literal_refused_at_its_offset(self, text, offset, expected):
        with pytest.raises(da.TorqueSyntaxError) as err:
            da.parse_torque(text)
        assert (err.value.offset, err.value.expected) == (offset, (expected,))

    #: torque texts k levels deep, and the offset at which k = MAX_NESTING + 1 is refused
    NESTED = [
        # the tree is k levels deep: refused as a whole
        (lambda k: "theta" + "*phi" * (k - 1), 0),
        (lambda k: "-" * (k - 1) + "theta", 0),
        (lambda k: "sin(" * (k - 1) + "theta" + ")" * (k - 1), 0),
        # k parentheses or signs open around one level: refused at the first
        # token inside the one past the bound
        (lambda k: "(" * k + "theta" + ")" * k, MAX_NESTING + 1),
        (lambda k: "+" * k + "theta", MAX_NESTING + 1),
    ]

    @pytest.mark.parametrize(
        "nested, offset", NESTED, ids=["products", "minus-signs", "calls", "parentheses", "plus-signs"]
    )
    def test_nesting_past_the_bound_refused(self, nested, offset):
        da.parse_torque(nested(MAX_NESTING))
        with pytest.raises(da.TorqueSyntaxError) as err:
            da.parse_torque(nested(MAX_NESTING + 1))
        assert err.value.offset == offset
        assert err.value.expected == (f"at most {MAX_NESTING} nested levels",)
        # far past the bound: no RecursionError on the way to the refusal
        with pytest.raises(da.TorqueSyntaxError):
            da.parse_torque(nested(5000))

    def test_deepest_torque_and_its_partials_compile(self):
        # a quotient rule nests the partial of its left operand three levels
        # deeper: the phi partial of this chain has about 3 * MAX_NESTING
        # nested parentheses, the most per level of the torque.  The leaves
        # of the first divisor are the deepest, at MAX_NESTING levels.
        expr = da.parse_torque("phi" + "/(phi + 2)" * (MAX_NESTING - 2))
        with pytest.raises(da.TorqueSyntaxError):
            da.parse_torque("phi" + "/(phi + 2)" * (MAX_NESTING - 1))
        b = (0.5, 0.25, 1.5, 0.75, 1.25)
        assert scalar_dual(expr, "phi")(*b) == pytest.approx(da.eval_dual(expr, b, "phi"))
        # both generated right-hand sides, bit for bit against their oracles
        state = (0.25, 1.5, 0.75, 1.25)
        full = dynamics.full_system(expr, expr)(0.01)
        assert full(0.5, state) == dynamics.full_rhs(state, 0.5, 0.01, expr, expr)
        lin = da.extract_linearized(expr, expr)
        assert dynamics.linearized_system(lin)(0.01)(0.5, state) == dynamics.first_order_rhs(
            state, 0.5, 0.01, lin
        )

    def test_a_kept_hash_stays_out_of_the_pickle(self):
        root = da.parse_torque("sin(phi)*theta/(phi_dot + 2)^2 - tan(t)").root
        before = pickle.dumps(root)
        assert hash(root) == hash(pickle.loads(before))
        assert pickle.dumps(root) == before
        assert pickle.loads(before) == root

    def test_nested_tans_are_walked_once_each(self, monkeypatch):
        # tan(a) computes a, and the cos(a) of its pole guard computes a
        # again: walked as a tree, each nested tan would double the walk
        walked = []
        operands = torques._operands
        monkeypatch.setattr(torques, "_operands", lambda node: walked.append(node) or operands(node))
        da.parse_torque("tan(" * 16 + "theta" + ")" * 16).compile()
        assert len(walked) == 66  # 33 subtrees: counted once, and walked once

    def test_tree_validation(self):
        with pytest.raises(ValueError):
            da.TorqueExpression(Var("bogus"))
        with pytest.raises(ValueError):
            da.TorqueExpression(Call("exp", Var("t")))

    @pytest.mark.parametrize("value", [-2.0, -0.0])
    def test_signed_literal_rejected(self, value):
        # the parser writes -2 as Neg(Num(2.0)); "theta - -2.0" would not
        # parse back to a tree holding Num(-2.0)
        with pytest.raises(ValueError, match="unsigned"):
            da.TorqueExpression(BinOp("-", Var("theta"), Num(value)))


class TestEvalDual:
    def test_sine_times_power(self):
        expr = da.parse_torque("sin(theta)*theta_dot^4")
        value, deriv = da.eval_dual(expr, (0.0, math.pi / 2, 2.0, 0.0, 0.0), "theta")
        assert value == pytest.approx(16.0, abs=1e-12)
        assert deriv == pytest.approx(0.0, abs=1e-12)

    def test_bundled_case2_torque_value(self):
        expr = da.parse_torque(da.BUNDLED_CASES["corollary2"].f2star_text)
        value, _ = da.eval_dual(expr, (math.pi / 4, 0.0, 0.0, math.pi / 2, 1.0), "phi")
        assert value == pytest.approx(-1.0, abs=1e-15)

    def test_constant_has_zero_derivative(self):
        expr = da.parse_torque("3.5")
        for seed in ("t", "theta", "phi_dot"):
            assert da.eval_dual(expr, (0.1, 0.2, 0.3, 0.4, 0.5), seed) == (3.5, 0.0)

    def test_matches_central_differences(self):
        texts = [
            "sin(theta)*cos(phi) + t*theta_dot",
            "theta^3 - phi*phi_dot^2 + sin(sqrt3*t)",
            "cos(theta)*cos(phi_dot) - theta_dot/(2 + phi^2)",
            "tan(theta)*phi + t^2",
        ]
        rng = np.random.default_rng(11)
        h = 1e-6
        checked = 0
        for text in texts:
            expr = da.parse_torque(text)
            for _ in range(30):
                b = rng.uniform(-1.2, 1.2, 5)
                seed_idx = int(rng.integers(0, 5))
                seed = ("t", "theta", "theta_dot", "phi", "phi_dot")[seed_idx]
                _, deriv = da.eval_dual(expr, tuple(b), seed)
                bp, bm = b.copy(), b.copy()
                bp[seed_idx] += h
                bm[seed_idx] -= h
                fd = (
                    expr.evaluate(*bp) - expr.evaluate(*bm)
                ) / (2 * h)
                assert deriv == pytest.approx(fd, rel=1e-6, abs=1e-6)
                checked += 1
        assert checked >= 100

    def test_array_bindings(self):
        expr = da.parse_torque("sin(theta)*theta_dot^2")
        theta = np.linspace(-1, 1, 7)
        v, d = da.eval_dual(expr, (0.0, theta, 2.0, 0.0, 0.0), "theta")
        assert np.allclose(v, np.sin(theta) * 4)
        assert np.allclose(d, np.cos(theta) * 4)

    def test_tan_pole_raises(self):
        for text, bindings in (
            ("tan(theta)", (0.0, math.pi / 2, 0.0, 0.0, 0.0)),
            ("tan(phi)", (0.0, 0.0, 0.0, math.pi / 2, 0.0)),
        ):
            expr = da.parse_torque(text)
            for entry, run in ENTRY_POINTS.items():
                for seed in ("theta", "phi"):
                    with pytest.raises(da.DomainError):
                        run(expr, bindings, seed)
                        pytest.fail(f"{entry} returned for {text}")

    def test_division_by_zero_raises(self):
        zero = (0.0, 0.0, 0.0, 0.0, 0.0)
        for text in ("1/theta", "theta^-1"):
            expr = da.parse_torque(text)
            for entry, run in ENTRY_POINTS.items():
                for seed in ("theta", "phi"):
                    with pytest.raises(da.DomainError):
                        run(expr, zero, seed)
                        pytest.fail(f"{entry} returned for {text}")
        assert issubclass(da.DomainError, da.DumbbellError)
        # at theta = 1e-170 the value 1e170 is finite, but the derivative's
        # divisor theta^2 underflows to zero
        tiny = (0, 1e-170, 0, 0, 0)
        expr = da.parse_torque("1/theta")
        for entry, run in ENTRY_POINTS.items():
            if entry in ("evaluate", "compile"):
                assert float(np.reshape(run(expr, tiny, "theta"), -1)[0]) == 1 / 1e-170
                continue
            with pytest.raises(da.DomainError):
                run(expr, tiny, "theta")
                pytest.fail(f"{entry} returned for 1/theta at theta = 1e-170")
        # a zero base is fine for a zero exponent
        expr = da.parse_torque("theta^0")
        assert scalar_dual(expr, "theta")(*zero) == (1, 0)
        assert da.eval_dual(expr, zero, "theta") == (1, 0)
        assert expr.compile()(*zero) == 1
        assert expr.evaluate(*zero) == 1

    def test_dual_raises_what_the_value_raises(self):
        # (sqrt3/theta)^2 overflows at theta = 1e-170, but the value function
        # meets the zero divisor phi^-2 first; a derivative that shares the
        # square must not compute it ahead of that guard
        expr = da.parse_torque("(sqrt3/theta)^2 / (t + phi^-2)^3")
        bindings = (0.5, 1e-170, 0.3, 0.0, 0.2)
        arrays = tuple(np.array([x]) for x in bindings)
        for value, dual, args in (
            (expr.compile(), lambda seed: scalar_dual(expr, seed), bindings),
            (expr.evaluate, lambda seed: lambda *a: da.eval_dual(expr, a, seed), arrays),
        ):
            with pytest.raises(da.DomainError, match="^division by zero$"):
                value(*args)
            for seed in VARIABLES:
                with pytest.raises(da.DomainError, match="^division by zero$"):
                    dual(seed)(*args)

    LEAVING_THE_FLOATS = [
        # the derivative's theta^-2 overflows
        ("theta^-1", "theta", (0, 1e-170, 0, 0, 0)),
        # phi/theta = 1e170 is finite, its cube overflows
        ("(phi/theta)^3", None, (0, 1e-170, 0, 1, 0)),
        # the product overflows to inf, and math.sin(inf) is a domain error
        ("sin(theta^-1*theta^-1)", None, (0, 1e-170, 0, 0, 0)),
        # the product overflows to inf, which Python's float * returns
        ("phi*phi", None, (0, 0, 0, 1e200, 0)),
    ]

    @pytest.mark.parametrize("text, seed, bindings", LEAVING_THE_FLOATS)
    def test_scalar_path_leaving_the_floats_raises_domain_error(self, text, seed, bindings):
        expr = da.parse_torque(text)
        fn = expr.compile() if seed is None else scalar_dual(expr, seed)
        with pytest.raises(da.DomainError, match="OverflowError|ValueError"):
            fn(*bindings)

    @pytest.mark.parametrize("text, seed, bindings", LEAVING_THE_FLOATS)
    def test_array_path_leaving_the_floats_raises_domain_error(self, text, seed, bindings):
        # numpy's overflow and invalid value are worded as the math module's
        expr = da.parse_torque(text)
        arrays = [np.array([x, 0.5]) for x in bindings]
        with pytest.raises(da.DomainError, match="^(OverflowError|ValueError): "):
            if seed is None:
                expr.evaluate(*arrays)
            else:
                da.eval_dual(expr, arrays, seed)

    def test_numpy_path_on_plain_floats_raises_domain_error_on_overflow(self):
        # numpy's square of a plain Python float raises under errstate
        expr = da.parse_torque("sin(theta) + (t + 1e200)^2")
        zero = (0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(da.DomainError, match="^OverflowError"):
            expr.evaluate(*zero)
        with pytest.raises(da.DomainError, match="^OverflowError"):
            da.eval_dual(expr, zero, "theta")
        with pytest.raises(da.DomainError, match="^OverflowError"):
            da.extract_linearized(expr, da.parse_torque("sin(phi)"))

    def test_scalar_and_array_paths_agree(self):
        texts = [
            da.BUNDLED_CASES["corollary1"].f1star_text,
            da.BUNDLED_CASES["corollary1"].f2star_text,
            da.BUNDLED_CASES["corollary2"].f1star_text,
            da.BUNDLED_CASES["corollary2"].f2star_text,
        ]
        rng = np.random.default_rng(5)
        for text in texts:
            expr = da.parse_torque(text)
            for seed in ("theta", "phi"):
                fast = scalar_dual(expr, seed)
                for _ in range(10):
                    b = tuple(rng.uniform(-1.3, 1.3, 5))
                    v1, d1 = da.eval_dual(expr, b, seed)
                    v2, d2 = fast(*b)
                    assert v2 == pytest.approx(float(v1), rel=1e-14, abs=1e-14)
                    assert d2 == pytest.approx(float(d1), rel=1e-14, abs=1e-14)

        # random trees: the math-module functions against the numpy ones on
        # one-element arrays, value and every derivative, domain errors too
        def outcome(fn, bindings):
            try:
                return fn(*bindings)
            except da.DomainError:
                return da.DomainError

        def flat(result):
            parts = result if isinstance(result, tuple) else (result,)
            return [float(np.reshape(x, -1)[0]) for x in parts]

        def agree(expr, b):
            arrays = [np.array([x]) for x in b]
            for seed in (None,) + VARIABLES:
                if seed is None:
                    scalar = outcome(expr.compile(), b)
                    array = outcome(expr.evaluate, arrays)
                else:
                    scalar = outcome(scalar_dual(expr, seed), b)
                    array = outcome(lambda *a: da.eval_dual(expr, a, seed), arrays)
                where = f"{expr.pretty()} at {b}, seed {seed}"
                if scalar is da.DomainError or array is da.DomainError:
                    assert scalar is array, where
                else:
                    assert flat(scalar) == pytest.approx(flat(array), rel=1e-12, abs=1e-12), where

        tree_rng = random.Random(8128)
        # one more point per tree with a coordinate in the overflow range
        wide_rng = random.Random(8129)
        for _ in range(200):
            expr = da.TorqueExpression(random_expression(tree_rng, tree_rng.randint(1, 3)))
            for k in range(6):
                b = [tree_rng.uniform(-1.3, 1.3) for _ in range(5)]
                if k % 2:
                    b[1] = b[3] = 0.0
                agree(expr, b)
            b = [wide_rng.uniform(-1.3, 1.3) for _ in range(5)]
            b[wide_rng.randrange(5)] = wide_rng.choice([1e-170, -1e-170, 1e200, -1e200])
            agree(expr, b)


def variables(node) -> set:
    """The names of the variables that ``node`` reads."""
    if isinstance(node, Var):
        return {node.name}
    return set().union(*map(variables, torques._children(node)))


def bits(value, shape) -> np.ndarray:
    """The float64 bit patterns of ``value`` broadcast to ``shape``."""
    value = np.broadcast_to(np.asarray(value, dtype=float), shape)
    return np.ascontiguousarray(value).view(np.uint64)


class TestNumpyPowers:
    """The numpy path raises to an integer power as Python's float ** does:
    the power of |x|, with the sign of x for an odd exponent."""

    RATES = np.concatenate([[-0.0, 0.0], np.random.default_rng(12).uniform(-1.5, 1.5, 8190)])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, -3, -4])
    def test_power_of_minus_x_is_plus_or_minus_power_of_x(self, n):
        x = self.RATES if n > 0 else self.RATES[2:]
        expr = da.parse_torque(f"theta_dot^{n}")
        at_x, at_minus_x = (expr.evaluate(0.0, 0.0, v, 0.0, 0.0) for v in (x, -x))
        expected = at_x if n % 2 == 0 else -at_x
        assert np.array_equal(bits(at_minus_x, x.shape), bits(expected, x.shape))

    def test_square_is_the_product(self):
        x = self.RATES
        value = da.parse_torque("theta_dot^2").evaluate(0.0, 0.0, x, 0.0, 0.0)
        assert np.array_equal(bits(value, x.shape), bits(x * x, x.shape))

    def test_int_base_is_raised_as_a_float(self):
        # numpy refuses an int to a negative power, and wraps an int64 power
        ints = np.array([3, -2, 2**40])
        for n in (2, 3, -2, -3):
            value = da.parse_torque(f"theta_dot^{n}").evaluate(0.0, 0.0, ints, 0.0, 0.0)
            expected = [float(x) ** n for x in ints.tolist()]
            assert value.tolist() == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text, rate, message", [
        ("theta_dot^2", 1e200, "OverflowError: result outside the floats"),
        ("theta_dot^4", 1e100, "OverflowError: result outside the floats"),
        ("theta_dot^5", -1e100, "OverflowError: result outside the floats"),
        ("theta_dot^-3", -1e-170, "OverflowError: result outside the floats"),
        ("theta_dot^-4", 1e-170, "OverflowError: result outside the floats"),
        ("theta_dot^-3", -0.0, "division by zero"),
        ("theta_dot^-4", 0.0, "division by zero"),
    ])
    def test_domain_error_texts(self, text, rate, message):
        x = np.array([0.5, rate, -0.25])
        with pytest.raises(da.DomainError, match=f"^{message}$"):
            da.parse_torque(text).evaluate(0.0, 0.0, x, 0.0, 0.0)


@pytest.mark.parametrize("rate", [1e5, -1e5])
def test_an_overflow_has_one_text_on_every_path(rate):
    # Python's float ** raises OverflowError(34, ...), numpy's power
    # "overflow encountered in power"; both read as the finite guard does
    expr = da.parse_torque("theta_dot^200 + 1")
    for evaluate in (
        lambda: expr.compile()(0.0, 0.0, rate, 0.0, 0.0),
        lambda: expr.evaluate(0.0, 0.0, rate, 0.0, 0.0),
        lambda: expr.evaluate(0.0, 0.0, np.array([0.5, rate]), 0.0, 0.0),
    ):
        with pytest.raises(da.DomainError) as info:
            evaluate()
        assert str(info.value) == "OverflowError: result outside the floats"


def to_sympy(node, sympy):
    """The same expression as a sympy tree, for an independent derivative."""
    if isinstance(node, Num):
        return sympy.Float(node.value)
    if isinstance(node, Const):
        return sympy.pi if node.name == "pi" else sympy.sqrt(3)
    if isinstance(node, Var):
        return sympy.Symbol(node.name)
    if isinstance(node, Neg):
        return -to_sympy(node.arg, sympy)
    if isinstance(node, Call):
        return getattr(sympy, node.fn)(to_sympy(node.arg, sympy))
    if isinstance(node, Pow):
        return to_sympy(node.base, sympy) ** node.exponent
    left, right = to_sympy(node.left, sympy), to_sympy(node.right, sympy)
    return {"+": left + right, "-": left - right, "*": left * right, "/": left / right}[node.op]


class TestDiff:
    #: what either side may raise at a point outside the expression's domain
    FAILURES = (da.DumbbellError, ZeroDivisionError, OverflowError, ValueError)

    def test_bundled_torques_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(VARIABLES)
        rng = random.Random(271)
        for case in da.BUNDLED_CASES.values():
            for text in (case.f1star_text, case.f2star_text):
                expr = da.parse_torque(text)
                tree = to_sympy(expr.root, sympy)
                oracle = sympy.lambdify(symbols, [sympy.diff(tree, s) for s in symbols], "math")
                for _ in range(10):
                    b = [rng.uniform(-1.3, 1.3) for _ in range(5)]
                    got = [scalar_dual(expr, var)(*b)[1] for var in VARIABLES]
                    assert got == pytest.approx(oracle(*b), rel=1e-12, abs=1e-12), text

    def test_random_trees_match_sympy(self):
        # both derivatives are evaluated at 30 digits: in double precision a
        # one-ulp difference in, say, the argument of cos(x + 1043.1) already
        # moves the derivative by 1e-12, which says nothing about the rules
        sympy = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        symbols = sympy.symbols(VARIABLES)
        rng = random.Random(314)
        checked = 0
        for _ in range(200):
            tree = random_expression(rng, rng.randint(1, 4), low_exponent=-3)
            points = [[rng.uniform(-1.3, 1.3) for _ in range(5)] for _ in range(3)]
            # a constant zero divisor: sympy raises or folds it to zoo/nan
            # while building the tree, and the torque raises DomainError
            try:
                want = [sympy.diff(to_sympy(tree, sympy), s) for s in symbols]
                ours = [diff(tree, v) for v in VARIABLES]
                got = [0 if d is None else to_sympy(d, sympy) for d in ours]
            except ZeroDivisionError:
                continue
            if any(sympy.sympify(e).has(sympy.zoo, sympy.nan) for e in want + got):
                continue
            evaluate = sympy.lambdify(symbols, want + got, "mpmath")
            for b in points:
                with mpmath.workdps(30):
                    try:
                        values = [float(v) for v in evaluate(*b)]
                    except self.FAILURES:
                        continue
                where = f"{da.TorqueExpression(tree).pretty()} at {b}"
                assert values[5:] == pytest.approx(values[:5], rel=1e-12, abs=1e-12), where
                checked += 1
        assert checked >= 400

    def test_partial_is_a_cached_expression(self):
        expr = da.parse_torque("sin(theta)*t")
        first = expr.partial("theta")
        assert isinstance(first, da.TorqueExpression)
        assert first.root == diff(expr.root, "theta")
        assert expr.partial("theta") is first
        assert expr.partial("phi") is None and expr.partial("phi") is None
        with pytest.raises(ValueError):
            expr.partial("psi")

    def test_mixed_partials_of_bundled_torques(self):
        for case in da.BUNDLED_CASES.values():
            for text in (case.f1star_text, case.f2star_text):
                expr = da.parse_torque(text)
                for angle in ("theta", "phi"):
                    first = expr.partial(angle)
                    if first is None:
                        assert diff(expr.root, angle) is None
                        continue
                    for rate in ("theta_dot", "phi_dot"):
                        want = diff(diff(expr.root, angle), rate)
                        got = first.partial(rate)
                        assert (got is None and want is None) or got.root == want, text

    def test_seed_free_subtree_gives_none(self):
        tree = da.parse_torque("sin(theta)*t").root
        assert diff(tree, "phi") is None
        assert diff(Num(2.0), "t") is None and diff(Const("pi"), "t") is None

    def test_rules_are_the_dual_number_arithmetic(self):
        x = Var("theta")
        assert diff(da.parse_torque("1/theta").root, "theta") == BinOp(
            "/", BinOp("*", Neg(Num(1.0)), Num(1.0)), Pow(x, 2)
        )
        assert diff(Pow(x, -2), "theta") == BinOp(
            "*", BinOp("*", Neg(Num(2.0)), Pow(x, -3)), Num(1.0)
        )
        assert diff(Pow(x, 0), "theta") == BinOp("*", Num(1.0), Num(0.0))
        with pytest.raises(ValueError):
            diff(x, "psi")


class TestVelocityDegrees:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("sin(theta)*sin(theta_dot)", None),  # under a call
            ("theta_dot^2/(1 + theta_dot)", None),  # in a divisor
            ("theta_dot^-2 + 1", None),  # under a negative power
            ("theta_dot^17", None),  # past MAX_VELOCITY_DEGREE
            ("(1 + theta_dot)^99999999999", None),
            ("sin(theta) + cos(t)*pi", {0}),
            ("theta_dot^0 + sin(theta_dot^0)", {0}),
            ("sin(t)*(theta_dot^2 - phi_dot)/cos(phi_dot) + tan(theta)*theta_dot/t", {0, 1, 2}),
            ("(theta_dot + t)^3/sqrt3", {0, 1, 2, 3}),
            ("-(theta_dot*phi_dot^-1)^2*theta_dot^14", {16}),
        ],
    )
    def test_degrees(self, text, want):
        assert torques.velocity_degrees(da.parse_torque(text), "theta_dot") == want

    def test_bundled_torques_and_their_coefficients(self):
        trees = {
            name: (da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text))
            for name, case in da.BUNDLED_CASES.items()
        }
        c1, c2 = trees["corollary1"], trees["corollary2"]
        assert torques.velocity_degrees(c1[0], "theta_dot") == {0, 4}
        assert torques.velocity_degrees(c2[1], "phi_dot") == {0, 1, 2}
        f1 = torques.extract_linearized(*c1).partials[0]
        f4 = torques.extract_linearized(*c2).partials[3]
        assert torques.velocity_degrees(f1, "theta_dot") in ({4}, {0, 4})
        assert torques.velocity_degrees(f4, "phi_dot") == {0, 1, 2}

    def test_random_trees_expand_to_the_degrees_named(self):
        # sympy expands each tree the walk calls a polynomial in theta_dot;
        # its monomials must hold no other degree
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("theta_dot")
        rng = random.Random(32)
        checked = 0
        for _ in range(400):
            tree = random_expression(rng, rng.randint(1, 4), low_exponent=-2)
            degrees = torques.velocity_degrees(da.TorqueExpression(tree), "theta_dot")
            if degrees is None:
                continue
            try:
                expr = sympy.expand(to_sympy(tree, sympy))
            except ZeroDivisionError:
                continue
            if expr.has(sympy.zoo, sympy.nan):
                continue
            assert {m for (m,) in sympy.Poly(expr, x).monoms()} <= degrees
            checked += degrees != {0}
        assert checked >= 25


class TestExtraction:
    def test_case1_coefficients(self):
        case = da.BUNDLED_CASES["corollary1"]
        lin = da.extract_linearized(
            da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        )
        rng = np.random.default_rng(2)
        for _ in range(20):
            t, v1, v2 = rng.uniform(-2, 2, 3)
            assert abs(lin.f1(t, v1, v2) - v1**4) < 1e-14
            assert abs(lin.f2(t, v1, v2)) < 1e-14

    def test_case2_coefficients(self):
        case = da.BUNDLED_CASES["corollary2"]
        lin = da.extract_linearized(
            da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        )
        rng = np.random.default_rng(4)
        for _ in range(20):
            t, v1, v2 = rng.uniform(-2, 2, 3)
            assert abs(lin.f3(t, v1, v2)) < 1e-14
            expected = 1 - math.sin(2 * t) * v2 - v2**2
            assert abs(lin.f4(t, v1, v2) - expected) < 1e-14
        # F2* has no theta, so f3 is the constant 0.0 on scalars and arrays
        v = np.linspace(-1.0, 1.0, 4)
        for args in ((0.3, 0.2, -0.1), (np.linspace(0.0, 3.0, 4), v, v), (0.3, np.zeros(4), v)):
            f3 = lin.f3(*args)
            assert type(f3) is float and f3 == 0.0

    def test_scalar_functions_are_generated_on_first_scalar_call(self, monkeypatch):
        generated = []
        generate = torques._generate
        monkeypatch.setattr(
            torques, "_generate", lambda root, ns: generated.append(ns) or generate(root, ns)
        )
        case = da.BUNDLED_CASES["corollary2"]
        lin = da.extract_linearized(
            da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        )
        v = np.linspace(-1.0, 1.0, 4)
        for coefficient in (lin.f1, lin.f2, lin.f3, lin.f4):
            coefficient(v, v, v)
        assert "math" not in generated
        lin.f4(0.3, 0.2, -0.1)
        lin.f4(0.4, 0.1, 0.2)
        assert generated.count("math") == 1

    def test_plain_sine_gives_unit_coefficient(self):
        lin = da.extract_linearized(da.parse_torque("sin(theta)"), da.parse_torque("0"))
        assert lin.f1(0.7, 1.1, -0.4) == pytest.approx(1.0, abs=1e-15)
        assert lin.f2(0.7, 1.1, -0.4) == 0.0

    def test_angle_linear_factor_recovered_exactly(self):
        # F = theta * g(t, rates) must give f1 = g bit-for-bit
        expr = da.parse_torque("theta*(cos(t) + theta_dot*phi_dot^2)")
        lin = da.extract_linearized(expr, da.parse_torque("0"))
        rng = np.random.default_rng(9)
        for _ in range(20):
            t, v1, v2 = rng.uniform(-2, 2, 3)
            g = math.cos(t) + v1 * v2**2
            assert abs(lin.f1(t, v1, v2) - g) < 1e-14

    #: torques whose partials raise a sum of a constant and a rate to a
    #: power; Python's ** on 2.759 or 0.051 differs from numpy's on an array
    SCALAR_ZERO_PAIRS = [
        (da.BUNDLED_CASES["corollary1"].f1star_text, da.BUNDLED_CASES["corollary1"].f2star_text),
        (da.BUNDLED_CASES["corollary2"].f1star_text, da.BUNDLED_CASES["corollary2"].f2star_text),
        ("theta*(phi_dot + 2.759)^2 + phi*(theta_dot + 0.051)^3",
         "theta*(phi_dot - 0.05)^-3 + phi*cos(t)*sin(theta_dot + 0.051)^4"),
    ]

    @pytest.mark.parametrize("f1star, f2star", SCALAR_ZERO_PAIRS)
    def test_coefficient_trees_are_the_partials_at_zero_angles(self, f1star, f2star):
        # the trees hold no angle and a seed-free one is the literal 0.0; each
        # coefficient gives the bits of its partial at theta = phi = 0.0, on
        # arrays by the numpy function, on scalars by the math function
        e1, e2 = da.parse_torque(f1star), da.parse_torque(f2star)
        lin = da.extract_linearized(e1, e2)
        t, v1, v2 = np.random.default_rng(5).uniform(-2.0, 2.0, (3, 16))
        seeded = ((e1, "theta"), (e1, "phi"), (e2, "theta"), (e2, "phi"))
        coefficients = (lin.f1, lin.f2, lin.f3, lin.f4)
        for coefficient, tree, (expr, seed) in zip(coefficients, lin.partials, seeded):
            assert isinstance(tree, da.TorqueExpression)
            assert not {"theta", "phi"} & variables(tree.root)
            deriv = expr.partial(seed)
            if deriv is None:
                assert tree.root == Num(0.0)
                array = scalar = lambda *b: 0.0
            else:
                array, scalar = deriv.evaluate, deriv.compile()
            assert np.array_equal(bits(coefficient(t, v1, v2), t.shape),
                                  bits(array(t, 0.0, v1, 0.0, v2), t.shape))
            for b in zip(t, v1, v2):
                assert bits(coefficient(*b), ()) == bits(scalar(b[0], 0.0, b[1], 0.0, b[2]), ())

    def test_zero_angles_fold_trig_and_keep_arithmetic(self):
        text = "sin(theta) * t + cos(phi) - tan(theta) + sin(-phi) + theta * phi_dot"
        folded = torques._at_zero_angles(da.parse_torque(text).root)
        # sin(-0.0) is -0.0, so a negated angle is not folded
        assert da.TorqueExpression(folded).pretty() == (
            "0.0 * t + 1.0 - 0.0 + sin(-0.0) + 0.0 * phi_dot"
        )

    @pytest.mark.parametrize("f1star, f2star", SCALAR_ZERO_PAIRS)
    def test_a_scalar_zero_rate_is_a_zeros_array(self, f1star, f2star):
        lin = da.extract_linearized(da.parse_torque(f1star), da.parse_torque(f2star))
        t = np.linspace(0.0, 2.0 * math.pi, 9)
        v = np.array([-1.3, -0.8, -0.0, 0.0, 0.2, 0.7, 1.1, 1.4, 2.0])
        zeros = np.zeros_like(v)
        for coefficient in (lin.f1, lin.f2, lin.f3, lin.f4):
            for scalar, array in (((t, v, 0.0), (t, v, zeros)), ((t, 0.0, v), (t, zeros, v))):
                assert np.array_equal(bits(coefficient(*scalar), v.shape),
                                      bits(coefficient(*array), v.shape))


class TestEquilibriumValidation:
    def test_zero_torques_pass(self):
        zero = da.parse_torque("0")
        report = da.validate_equilibrium(zero, zero)
        assert report.status == "PASS"
        assert report.max_residual == 0.0

    def test_case2_passes(self):
        case = da.BUNDLED_CASES["corollary2"]
        report = da.validate_equilibrium(
            da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        )
        assert report.status == "PASS"
        assert report.max_residual < 1e-12

    def test_case1_warns_with_rate_squared_residual(self):
        case = da.BUNDLED_CASES["corollary1"]
        report = da.validate_equilibrium(
            da.parse_torque(case.f1star_text), da.parse_torque(case.f2star_text)
        )
        assert report.status == "WARN"
        assert report.max_residual == pytest.approx(4.0, abs=1e-12)
        worst = max(report.residuals, key=lambda r: r.max_residual)
        assert worst.name == "F2star"
        assert abs(worst.at_v2) == pytest.approx(2.0)

    @pytest.mark.parametrize("f1star, f2star", TestExtraction.SCALAR_ZERO_PAIRS + [
        # a scalar result: no term depends on t or a rate
        ("(theta + 2.759)^2*cos(phi)", "sin(phi + 0.051)^3 + 1"),
    ])
    def test_report_is_that_of_zero_angle_arrays(self, f1star, f2star):
        tg, v1g, v2g = np.meshgrid(
            np.linspace(0.0, 2 * math.pi, EQUILIBRIUM_N_T),
            np.linspace(-2.0, 2.0, EQUILIBRIUM_N_V),
            np.linspace(-2.0, 2.0, EQUILIBRIUM_N_V),
            indexing="ij",
        )
        zeros = np.zeros_like(tg)
        exprs = (da.parse_torque(f1star), da.parse_torque(f2star))
        report = da.validate_equilibrium(*exprs)
        for residual, expr in zip(report.residuals, exprs):
            vals = np.abs(np.broadcast_to(expr.evaluate(tg, zeros, v1g, zeros, v2g), tg.shape))
            idx = np.unravel_index(np.argmax(vals), vals.shape)
            assert (residual.max_residual, residual.at_t, residual.at_v1, residual.at_v2) == (
                vals[idx], tg[idx], v1g[idx], v2g[idx])

    def test_evaluation_total_on_default_grid(self):
        for case in da.BUNDLED_CASES.values():
            for text in (case.f1star_text, case.f2star_text):
                expr = da.parse_torque(text)
                t = np.linspace(0, 2 * math.pi, EQUILIBRIUM_N_T)
                v = np.linspace(-2.0, 2.0, EQUILIBRIUM_N_V)
                tg, v1g, v2g = np.meshgrid(t, v, v, indexing="ij")
                vals = expr.evaluate(tg, np.zeros_like(tg), v1g, np.zeros_like(tg), v2g)
                assert np.all(np.isfinite(vals))
