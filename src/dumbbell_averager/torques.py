"""Perturbation-torque expression DSL.

Torques are entered as text over the variables (t, theta, theta_dot, phi,
phi_dot) with the constants ``pi`` and ``sqrt3``, the functions sin/cos/tan,
and the operators ``+ - * / ^`` (integer exponents only).  Parsed trees are
immutable.  A derivative is an expression too: ``partial`` wraps the tree
``diff`` writes for one variable.  One code generator with shared
subexpressions turns each tree into straight-line python statements and
wraps them in a function, over the math module for scalars or over numpy
for arrays, which raises DomainError at a zero divisor or a tan pole, and
also where the result leaves the finite floats (on the numpy path, at the
operation that overflows or makes an invalid value; on the math path, also
where it leaves the math module's domain).  On the numpy path x^n for n
other than 0 and 1 is numpy's square for n = 2, and otherwise the power of
|x|, with the sign of x for odd n, as Python's float ** computes it: numpy's
pow is slow on a negative base.  Both are ufuncs over floats, so a scalar
(or int) base gets the bits of a float array lane, and a scalar 0.0 for a
variable gives the value of a zeros array.  (value, derivative) is the value's
function and then the partial's.  The linearized torque coefficients
f1..f4 are the partials of the torques in the nutation or precession angle
at zero angles, with the angular rates kept exact.  The same generator
emits a sequence of trees through one shared subexpression table:
``dynamics`` builds the straight-line right-hand sides of both the full
and the linearized system with it.
"""
from __future__ import annotations

import collections
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DumbbellError, SingularityError

SQRT3 = math.sqrt(3.0)

VARIABLES = ("t", "theta", "theta_dot", "phi", "phi_dot")
CONSTANTS = {"pi": math.pi, "sqrt3": SQRT3}
FUNCTIONS = ("sin", "cos", "tan")

#: tan arguments closer than this to an odd multiple of pi/2 are rejected.
TAN_POLE_FLOOR = 1e-12


class TorqueSyntaxError(DumbbellError):
    """Malformed torque text; carries the byte offset and expected tokens."""

    def __init__(self, offset: int, expected: Tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {' or '.join(expected)}, found {found}"
        )


class UnknownIdentifierError(DumbbellError):
    """Identifier is not a variable, constant, or function of the DSL."""

    def __init__(self, offset: int, name: str):
        self.offset = offset
        self.name = name
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class DomainError(DumbbellError):
    """Evaluation left the expression's domain (tan pole, zero divisor, or a
    result outside the finite floats)."""


# --- Expression tree ---


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Num, Const, Var, Neg, Call, BinOp, Pow]

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _children(node: Node) -> Tuple[Node, ...]:
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _validate(node: Node) -> None:
    if isinstance(node, Num):
        # the parser writes -2 as Neg(Num(2.0)); a signed literal would not
        # survive the round trip through pretty()
        if not math.isfinite(node.value) or math.copysign(1.0, node.value) < 0:
            raise ValueError(f"numeric literal must be finite and unsigned, got {node.value!r}")
    elif isinstance(node, Const):
        if node.name not in CONSTANTS:
            raise ValueError(f"unknown constant {node.name!r}")
    elif isinstance(node, Var):
        if node.name not in VARIABLES:
            raise ValueError(f"unknown variable {node.name!r}")
    elif isinstance(node, Call):
        if node.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {node.fn!r}")
    elif isinstance(node, BinOp):
        if node.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown operator {node.op!r}")
    elif isinstance(node, Pow):
        if not isinstance(node.exponent, int):
            raise ValueError("exponent must be an integer")
    elif not isinstance(node, Neg):
        raise TypeError(f"not an expression node: {node!r}")
    for child in _children(node):
        _validate(child)


def _pretty(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Const, Var)):
        return node.name
    if isinstance(node, Neg):
        inner = _pretty(node.arg)
        if _precedence(node.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({_pretty(node.arg)})"
    if isinstance(node, Pow):
        base = _pretty(node.base)
        # a nested power must keep parentheses: exponents are integer
        # literals, so x^2^3 does not parse
        if _precedence(node.base) <= _PREC_POW:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    own = _precedence(node)
    left = _pretty(node.left)
    if _precedence(node.left) < own:
        left = f"({left})"
    right = _pretty(node.right)
    # the parser is left-associative, so a same-precedence right child must
    # keep its parentheses for the tree to survive a round trip
    if _precedence(node.right) <= own:
        right = f"({right})"
    return f"{left} {node.op} {right}"


# --- Derivatives as trees ---


def diff(node: Node, var: str) -> Optional[Node]:
    """The partial derivative of ``node`` in ``var`` as a tree, or None where
    ``node`` does not depend on ``var``.  Each rule writes the arithmetic of
    forward-mode dual numbers; a negative coefficient is Neg(Num(k)), so the
    result is a valid tree that survives a round trip through its text."""
    if var not in VARIABLES:
        raise ValueError(f"seed must be one of {VARIABLES}, got {var!r}")

    def d(node: Node) -> Optional[Node]:
        if isinstance(node, (Num, Const, Var)):
            return Num(1.0) if node == Var(var) else None
        if not isinstance(node, BinOp):
            (a,) = _children(node)
            da = d(a)
            if da is None:
                return None
            if isinstance(node, Neg):
                return Neg(da)
            if isinstance(node, Pow):
                n = node.exponent
                if n == 0:
                    return BinOp("*", da, Num(0.0))
                k = Num(float(abs(n)))
                return BinOp("*", BinOp("*", k if n > 0 else Neg(k), Pow(a, n - 1)), da)
            if node.fn == "sin":
                return BinOp("*", Call("cos", a), da)
            if node.fn == "cos":
                return BinOp("*", Neg(Call("sin", a)), da)
            return BinOp("/", da, Pow(Call("cos", a), 2))
        left, right = node.left, node.right
        dl, dr = d(left), d(right)
        if dl is None and dr is None:
            return None
        if node.op in "+-":
            if dl is None:
                return dr if node.op == "+" else Neg(dr)
            return dl if dr is None else BinOp(node.op, dl, dr)
        if node.op == "*":
            if dr is None:
                return BinOp("*", dl, right)
            if dl is None:
                return BinOp("*", left, dr)
            return BinOp("+", BinOp("*", dl, right), BinOp("*", left, dr))
        if dr is None:
            return BinOp("/", dl, right)
        if dl is None:
            return BinOp("/", BinOp("*", Neg(left), dr), Pow(right, 2))
        return BinOp("/", BinOp("-", BinOp("*", dl, right), BinOp("*", left, dr)), Pow(right, 2))

    return d(node)


# --- Code generation ---

#: per namespace: the functions the emitted code calls, the guard tests on a
#: divisor, on cos(tan argument) and on the result, and the exceptions by
#: which an operation leaves the floats (Python's float ``**``, the math
#: functions, and numpy's under ``errstate(over="raise", invalid="raise")``;
#: Python's other float operations overflow to inf, which the result test
#: catches)
_NAMESPACES = {
    "math": ({"sin": math.sin, "cos": math.cos, "tan": math.tan, "isfinite": math.isfinite},
             "{} == 0", "abs({}) < TAN_POLE_FLOOR", "not isfinite({})",
             "OverflowError, ValueError"),
    "numpy": ({"sin": np.sin, "cos": np.cos, "tan": np.tan, "abs": np.abs, "any": np.any,
               "all": np.all, "isfinite": np.isfinite, "errstate": np.errstate,
               "square": np.square, "power": np.power, "copysign": np.copysign},
              "any({} == 0)", "any(abs({}) < TAN_POLE_FLOOR)", "not all(isfinite({}))",
              "OverflowError, FloatingPointError"),
}


def _operands(node: Node) -> Tuple[Node, ...]:
    """The subtrees the emitted code computes for ``node``: its children,
    and for tan(a) also the cos(a) of its pole guard."""
    if isinstance(node, Call) and node.fn == "tan":
        return (node.arg, Call("cos", node.arg))
    return _children(node)


def _uses(root: Node) -> collections.Counter:
    """Occurrences of each subtree that the code for ``root`` computes; a
    repeated subtree's own operands are counted once."""
    uses, pending = collections.Counter(), [root]
    while pending:
        node = pending.pop()
        uses[node] += 1
        if uses[node] == 1:
            pending += _operands(node)
    return uses


def _emit(
    roots: Sequence[Tuple[Node, bool]], namespace: str, names: Optional[dict] = None,
    lines: Optional[dict] = None,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Straight-line statements, and an expression per root, for the values
    of ``roots``: (tree, finite) pairs, emitted in order through one table of
    shared subexpressions, with locals v0, v1, ...

    Each root's section evaluates in the order of that root's own function,
    so the same error comes first.  A non-atomic subtree that occurs more
    than once in the root (found by hashing the frozen tree; tan(a) holds
    the cos(a) of its pole guard) is computed once into a local; one that a
    later root uses too is named inside the expression that first computes
    it, ``(vn := ...)``; a later root reads either by its name.  Zero
    divisors, zero bases of negative powers and tan poles raise DomainError,
    and so does a result outside the finite floats where ``finite`` is set
    and the root is not a literal.  A guard
    is written once per condition, where it is first needed.  ``names`` and
    ``lines`` seed the table and the statements: the values a prologue
    computed, and its lines, a guard keyed by its condition.
    """
    _, zero_test, pole_test, finite_test, _ = _NAMESPACES[namespace]
    names, lines = dict(names or {}), dict(lines or {})
    counts = [_uses(root) for root, _ in roots]
    needed, seen = set(), set()  # the subtrees a root reads from an earlier one
    for (root, _), root_uses in zip(roots, counts):
        pending = [root]
        while pending:
            node = pending.pop()
            if node in seen:
                needed.add(node)
            else:
                pending += _operands(node)
        seen.update(root_uses)
    local = (f"v{n}" for n in itertools.count())

    def guard(test: str, operand: str, message: str) -> None:
        condition = test.format(operand)
        lines.setdefault(condition, f"if {condition}: raise DomainError({message!r})")

    def emit(node: Node, bind: bool = False) -> str:
        if node in names:
            return names[node]
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, (Const, Var)):
            return node.name
        if isinstance(node, Neg):
            expr = f"(-{emit(node.arg)})"
        elif isinstance(node, Call) and node.fn == "tan":
            a = emit(node.arg, bind=True)
            c = emit(Call("cos", node.arg), bind=True)
            guard(pole_test, c, "tan argument within 1e-12 of an odd multiple of pi/2")
            expr = f"tan({a})"
        elif isinstance(node, Call):
            expr = f"{node.fn}({emit(node.arg)})"
        elif isinstance(node, BinOp):
            left = emit(node.left)
            right = emit(node.right, bind=node.op == "/")
            if node.op == "/":
                guard(zero_test, right, "division by zero")
            expr = f"({left} {node.op} {right})"
        else:
            n = node.exponent
            # numpy's pow is slow on a negative base: its square, or the power
            # of |base| with base's sign for odd n.  As ufuncs over floats,
            # they give a scalar or int base the bits of a float array lane.
            ufunc = namespace == "numpy" and n not in (0, 1)
            signed = ufunc and n % 2
            base = emit(node.base, bind=n < 0 or signed)
            if n < 0:
                guard(zero_test, base, "division by zero")
            if not ufunc:
                expr = f"({base})**({n})"
            elif n == 2:
                expr = f"square({base}, dtype=float)"
            else:
                expr = f"power(abs({base}), {n}, dtype=float)"
                if signed:
                    expr = f"copysign({expr}, {base})"
        if bind or uses[node] > 1:
            name = names[node] = next(local)
            lines[f"{name} = {expr}"] = f"{name} = {expr}"
            return name
        if node in needed:
            name = names[node] = next(local)
            return f"({name} := {expr})"
        return expr

    results = []
    for (root, finite), uses in zip(roots, counts):  # emit reads this root's uses
        results.append(emit(root, bind=True))
        if finite and not isinstance(root, (Num, Const)):
            guard(finite_test, results[-1], "OverflowError: result outside the floats")
    return tuple(lines.values()), tuple(results)


def _guarded(body: Sequence[str], namespace: str, indent: int) -> str:
    """``body`` in a try that turns the namespace's float errors into
    DomainError, as source lines at ``indent`` spaces; numpy's overflow is
    worded as the math module's ``OverflowError``."""
    pad = " " * indent
    if namespace == "numpy":
        body = ['with errstate(over="raise", invalid="raise"):', *(f"    {line}" for line in body)]
    return (
        f"{pad}try:\n" + "".join(f"{pad}    {line}\n" for line in body)
        + f"{pad}except ({_NAMESPACES[namespace][4]}) as exc:\n"
        + f"{pad}    raise DomainError(_worded(exc)) from None\n"
    )


def _worded(exc: Exception) -> str:
    """The DomainError text of a float error: its type and message, with
    numpy's named as the math module's (an overflow ``OverflowError``, an
    invalid value ``ValueError``)."""
    name = type(exc).__name__
    if isinstance(exc, FloatingPointError):
        name = "OverflowError" if str(exc).startswith("overflow") else "ValueError"
    return f"{name}: {exc}"


def _exec(src: str, namespace: str, name: str) -> Callable:
    """Run generated source over the namespace's functions; return ``name``."""
    env = dict(_NAMESPACES[namespace][0], **CONSTANTS, TAN_POLE_FLOOR=TAN_POLE_FLOOR,
               DomainError=DomainError, SingularityError=SingularityError, _worded=_worded)
    exec(src, env)
    return env[name]


def _generate(root: Node, namespace: str) -> Callable:
    """Emit and compile one straight-line function of the five variables
    that returns the value of ``root``; on the math path overflow and math
    domain errors raise DomainError too."""
    lines, (result,) = _emit(((root, True),), namespace)
    head = f"def torque({', '.join(VARIABLES)}):\n"
    return _exec(head + _guarded(lines + (f"return {result}",), namespace, 4), namespace, "torque")


def _value_and_partial(expr: TorqueExpression, seed: str, namespace: str) -> Callable:
    """(value, d/d_seed): the value's generated function, then the partial's."""
    value, deriv = expr._function(namespace), expr.partial(seed)
    if deriv is not None:
        deriv = deriv._function(namespace)
        return lambda *bindings: (value(*bindings), deriv(*bindings))

    def with_zero(*bindings):
        v = value(*bindings)
        return v, (np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0)

    return with_zero


@dataclass(frozen=True)
class TorqueExpression:
    """Immutable, validated expression tree over the five torque variables."""

    root: Node
    #: generated functions by namespace ("math", "numpy"), partials by variable
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate(self.root)

    def _function(self, namespace: str) -> Callable:
        if namespace not in self._cache:
            self._cache[namespace] = _generate(self.root, namespace)
        return self._cache[namespace]

    def partial(self, var: str) -> Optional[TorqueExpression]:
        """The partial derivative in ``var`` as an expression, ``diff(root,
        var)``, built once; None where the tree does not depend on ``var``."""
        if var not in self._cache:
            deriv = diff(self.root, var)
            self._cache[var] = None if deriv is None else TorqueExpression(deriv)
        return self._cache[var]

    def evaluate(self, t, theta, theta_dot, phi, phi_dot):
        """Evaluate on scalars or broadcastable numpy arrays."""
        return self._function("numpy")(t, theta, theta_dot, phi, phi_dot)

    def compile(self) -> Callable[[float, float, float, float, float], float]:
        """Scalar fast path: generated python function over the math module."""
        return self._function("math")

    def compile_dual(self, seed: str) -> Callable:
        """Scalar fast path for (value, d/d_seed): ``compile()`` and then the
        partial's; the ``eval_dual`` contract over the math module."""
        return _value_and_partial(self, seed, "math")

    def pretty(self) -> str:
        """Canonical text form; parsing it back yields an equal tree."""
        return _pretty(self.root)

    def __str__(self) -> str:
        return self.pretty()


# --- Parser ---


#: digits with at most one dot, then an exponent only when digits follow it
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
#: str.isspace() runs, and str.isalnum() or "_" runs
_SPACE, _WORD = re.compile(r"\s*"), re.compile(r"\w+")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def next(self) -> Tuple[str, str, int]:
        """Return (kind, lexeme, offset); kind EOF at end of input."""
        start = self.pos = _SPACE.match(self.text, self.pos).end()
        if start == len(self.text):
            return ("EOF", "", start)
        ch = self.text[start]
        kind, match = "NUMBER", _NUMBER.match(self.text, start)
        if not match and (ch.isalpha() or ch == "_"):
            kind, match = "IDENT", _WORD.match(self.text, start)
        if match:
            self.pos = match.end()
            return (kind, match.group(), start)
        if ch in "+-*/^()":
            self.pos += 1
            return (ch, ch, start)
        raise TorqueSyntaxError(start, ("number", "identifier", "operator"), repr(ch))


class _Parser:
    def __init__(self, text: str):
        self._tok = _Tokenizer(text)
        self.kind, self.lexeme, self.offset = self._tok.next()

    def _advance(self) -> None:
        self.kind, self.lexeme, self.offset = self._tok.next()

    def _fail(self, *expected: str):
        found = "end of input" if self.kind == "EOF" else repr(self.lexeme)
        raise TorqueSyntaxError(self.offset, expected, found)

    def _expect(self, kind: str) -> None:
        if self.kind != kind:
            self._fail(repr(kind))
        self._advance()

    def parse(self) -> Node:
        node = self._expr()
        if self.kind != "EOF":
            self._fail("operator", "end of input")
        return node

    def _expr(self) -> Node:
        node = self._term()
        while self.kind in ("+", "-"):
            op = self.kind
            self._advance()
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Node:
        node = self._factor()
        while self.kind in ("*", "/"):
            op = self.kind
            self._advance()
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Node:
        if self.kind == "-":
            self._advance()
            return Neg(self._factor())
        if self.kind == "+":
            self._advance()
            return self._factor()
        return self._power()

    def _power(self) -> Node:
        node = self._atom()
        if self.kind == "^":
            self._advance()
            node = Pow(node, self._exponent())
        return node

    def _exponent(self) -> int:
        sign = 1
        if self.kind == "-":
            sign = -1
            self._advance()
        if self.kind != "NUMBER" or any(c in self.lexeme for c in ".eE"):
            self._fail("integer exponent")
        value = int(self.lexeme)
        self._advance()
        return sign * value

    def _atom(self) -> Node:
        if self.kind == "NUMBER":
            value = float(self.lexeme)
            self._advance()
            return Num(value)
        if self.kind == "(":
            self._advance()
            node = self._expr()
            self._expect(")")
            return node
        if self.kind == "IDENT":
            name = self.lexeme
            offset = self.offset
            self._advance()
            if name in FUNCTIONS:
                self._expect("(")
                node = self._expr()
                self._expect(")")
                return Call(name, node)
            if name in CONSTANTS:
                return Const(name)
            if name in VARIABLES:
                return Var(name)
            raise UnknownIdentifierError(offset, name)
        self._fail("number", "identifier", "'('", "'-'")


def parse_torque(text: str) -> TorqueExpression:
    """Parse torque text into an immutable expression tree.

    Raises TorqueSyntaxError (with byte offset and expected-token set) on
    malformed input and UnknownIdentifierError for stray names.
    """
    if not text or not text.strip():
        raise TorqueSyntaxError(0, ("expression",), "empty input")
    return TorqueExpression(_Parser(text).parse())


# --- Derivatives and linearization ---


def eval_dual(
    expr: TorqueExpression,
    bindings: Tuple[float, float, float, float, float],
    seed: str,
) -> Tuple[float, float]:
    """Value and exact first derivative with respect to the seeded variable:
    ``evaluate``, so the value raises exactly what it raises, then the
    partial's.  ``bindings`` are (t, theta, theta_dot, phi, phi_dot); ``seed``
    names one of them.  Scalars and numpy arrays both work; a seed-free
    derivative is 0.0, or zeros shaped like an array value.
    """
    return _value_and_partial(expr, seed, "numpy")(*bindings)


@dataclass(frozen=True)
class LinearizedTorque:
    """Coefficients f1..f4 of the angle-linearized torques.

    Each is a callable of (t, x_velocity, y_velocity): f1/f3 are the theta
    partials and f2/f4 the phi partials of the two torques at zero angles.
    A coefficient evaluates the partial alone (a seed-free one is 0.0).
    Only terms linear in the angles survive this extraction; products of
    two or more angle factors are dropped by construction.

    ``partials`` holds the four partial expressions (None where seed-free)
    when ``extract_linearized`` built the coefficients; from them
    ``dynamics.make_first_order_rhs`` generates one straight-line function
    of the linearized system, equal bit for bit to
    ``dynamics.first_order_rhs`` over f1..f4.  Built from plain callables,
    ``partials`` is None and ``first_order_rhs`` is the only route.
    """

    f1: Callable[[float, float, float], float]
    f2: Callable[[float, float, float], float]
    f3: Callable[[float, float, float], float]
    f4: Callable[[float, float, float], float]
    partials: Optional[Tuple[Optional[TorqueExpression], ...]] = field(
        default=None, compare=False, repr=False
    )


def _angle_partial(expr: TorqueExpression, seed: str) -> Callable[[float, float, float], float]:
    deriv = expr.partial(seed)
    if deriv is None:
        return lambda t, v1, v2: 0.0
    fast = deriv.compile()

    def coefficient(t, v1, v2):
        if isinstance(t, np.ndarray) or isinstance(v1, np.ndarray) or isinstance(v2, np.ndarray):
            return deriv.evaluate(t, 0.0, v1, 0.0, v2)
        return fast(t, 0.0, v1, 0.0, v2)

    return coefficient


def _linearize(f1star: TorqueExpression, f2star: TorqueExpression) -> LinearizedTorque:
    """The coefficients f1..f4 and their partial trees, without evaluating
    the torques."""
    pairs = ((f1star, "theta"), (f1star, "phi"), (f2star, "theta"), (f2star, "phi"))
    return LinearizedTorque(
        *(_angle_partial(expr, seed) for expr, seed in pairs),
        partials=tuple(expr.partial(seed) for expr, seed in pairs),
    )


def extract_linearized(f1star: TorqueExpression, f2star: TorqueExpression) -> LinearizedTorque:
    """Differentiate the torques in the angles at theta = phi = 0.

    The derivative trees give the exact partials; no finite-difference
    step enters.  The coefficients never evaluate the torques' values; those
    are checked here at the origin, and over a grid by validate_equilibrium.
    """
    for expr in (f1star, f2star):
        expr.evaluate(0.0, 0.0, 0.0, 0.0, 0.0)
    return _linearize(f1star, f2star)


# --- Equilibrium validation ---


#: points per axis of the grid [0, 2 pi] x [-2, 2]^2 over (t, v1, v2) that
#: probes the zero-angle torque residuals
EQUILIBRIUM_N_T = 16
EQUILIBRIUM_N_V = 9


@dataclass(frozen=True)
class TorqueResidual:
    name: str
    max_residual: float
    at_t: float
    at_v1: float
    at_v2: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of sampling |F*(t, 0, v1, 0, v2)| over the equilibrium grid."""

    status: str  # "PASS" or "WARN"
    max_residual: float
    residuals: Tuple[TorqueResidual, TorqueResidual]

    PASS_THRESHOLD = 1e-12


def validate_equilibrium(f1star: TorqueExpression, f2star: TorqueExpression) -> EquilibriumReport:
    """Check that both torques vanish at zero angles for all rates.

    A nonzero residual yields WARN rather than an error: the averaged fields
    are integrals over one invariant plane and can remain meaningful even
    when a torque fails the vanishing condition off that plane.
    """
    t = np.linspace(0.0, 2.0 * math.pi, EQUILIBRIUM_N_T)
    v = np.linspace(-2.0, 2.0, EQUILIBRIUM_N_V)
    tg, v1g, v2g = np.meshgrid(t, v, v, indexing="ij")

    residuals = []
    for name, expr in (("F1star", f1star), ("F2star", f2star)):
        vals = np.abs(np.broadcast_to(
            np.asarray(expr.evaluate(tg, 0.0, v1g, 0.0, v2g), dtype=float), tg.shape
        ))
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        residuals.append(
            TorqueResidual(
                name=name,
                max_residual=float(vals[idx]),
                at_t=float(tg[idx]),
                at_v1=float(v1g[idx]),
                at_v2=float(v2g[idx]),
            )
        )

    worst = max(r.max_residual for r in residuals)
    status = "PASS" if worst < EquilibriumReport.PASS_THRESHOLD else "WARN"
    return EquilibriumReport(status=status, max_residual=worst, residuals=tuple(residuals))
