"""Perturbation-torque expression DSL.

Torques are entered as text over the variables (t, theta, theta_dot, phi,
phi_dot) with the constants ``pi`` and ``sqrt3``, the functions sin/cos/tan,
and the operators ``+ - * / ^`` (integer exponents only).  Parsed trees are
immutable.  One code generator turns a tree into a straight-line python
function, over the math module for scalars or over numpy for arrays, that
returns the value alone or the value and the derivative in one seeded
variable (forward-mode differentiation by source transformation).  Every
variant raises DomainError at a zero divisor or a tan pole.  The
linearized torque coefficients f1..f4 are such derivatives: fi is the
partial of the corresponding torque with respect to the nutation or
precession angle, taken at zero angles with the angular rates kept exact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import DumbbellError

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
    """Evaluation left the expression's domain (tan pole, zero divisor)."""


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


def _validate(node: Node) -> None:
    if isinstance(node, Num):
        if not math.isfinite(node.value):
            raise ValueError("numeric literal must be finite")
    elif isinstance(node, Const):
        if node.name not in CONSTANTS:
            raise ValueError(f"unknown constant {node.name!r}")
    elif isinstance(node, Var):
        if node.name not in VARIABLES:
            raise ValueError(f"unknown variable {node.name!r}")
    elif isinstance(node, Neg):
        _validate(node.arg)
    elif isinstance(node, Call):
        if node.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {node.fn!r}")
        _validate(node.arg)
    elif isinstance(node, BinOp):
        if node.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown operator {node.op!r}")
        _validate(node.left)
        _validate(node.right)
    elif isinstance(node, Pow):
        if not isinstance(node.exponent, int):
            raise ValueError("exponent must be an integer")
        _validate(node.base)
    else:
        raise TypeError(f"not an expression node: {node!r}")


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


# --- Code generation (forward-mode source transformation) ---

def _zero_deriv(value):
    return np.zeros_like(value) if isinstance(value, np.ndarray) else 0.0


#: per namespace: the functions the emitted code calls, the guard tests on a
#: divisor and on cos(tan argument), and the derivative of an expression
#: that does not depend on the seed
_NAMESPACES = {
    "math": (
        {"sin": math.sin, "cos": math.cos, "tan": math.tan},
        "{} == 0",
        "abs({}) < TAN_POLE_FLOOR",
        "0.0",
    ),
    "numpy": (
        {"sin": np.sin, "cos": np.cos, "tan": np.tan, "abs": np.abs, "any": np.any,
         "zero_deriv": _zero_deriv},
        "any({} == 0)",
        "any(abs({}) < TAN_POLE_FLOOR)",
        "zero_deriv({})",
    ),
}


def _check_seed(seed: str) -> str:
    if seed not in VARIABLES:
        raise ValueError(f"seed must be one of {VARIABLES}, got {seed!r}")
    return seed


def _generate(root: Node, seed: Optional[str], namespace: str) -> Callable:
    """Emit and compile one straight-line function of the five variables.

    It returns the value for ``seed=None`` and (value, d/d_seed) otherwise.
    A subtree free of the seed carries no derivative, so each node does the
    arithmetic of forward-mode dual numbers with a constant operand.  A
    value is bound to a local only when it is used twice or guarded; the
    rest stays one nested expression.  Zero divisors, zero bases of negative
    powers and tan poles raise DomainError.
    """
    functions, zero_test, pole_test, no_deriv = _NAMESPACES[namespace]
    lines = []
    names = itertools.count()

    def temp(expr: str) -> str:
        if expr.isidentifier() or expr[0].isdigit():
            return expr
        name = f"v{next(names)}"
        lines.append(f"{name} = {expr}")
        return name

    def guard(test: str, operand: str, message: str) -> None:
        lines.append(f"if {test.format(operand)}: raise DomainError({message!r})")

    def emit(node: Node) -> Tuple[str, Optional[str]]:
        """(value expression, derivative expression or None)"""
        if isinstance(node, Num):
            text = repr(node.value)
            return (f"({text})" if text[0] == "-" else text), None
        if isinstance(node, Const):
            return ("PI" if node.name == "pi" else "SQRT3"), None
        if isinstance(node, Var):
            return node.name, ("1.0" if node.name == seed else None)
        if isinstance(node, Neg):
            a, da = emit(node.arg)
            return f"(-{a})", da and f"(-{da})"
        if isinstance(node, Call):
            a, da = emit(node.arg)
            if node.fn == "tan":
                a = temp(a)
                c = temp(f"cos({a})")
                guard(pole_test, c, "tan argument within 1e-12 of an odd multiple of pi/2")
                return f"tan({a})", da and f"({da} / {c}**2)"
            if da is None:
                return f"{node.fn}({a})", None
            a = temp(a)
            if node.fn == "sin":
                return f"sin({a})", f"(cos({a}) * {da})"
            return f"cos({a})", f"(-sin({a}) * {da})"
        if isinstance(node, BinOp):
            left, dl = emit(node.left)
            right, dr = emit(node.right)
            op = node.op
            if op == "/":
                right = temp(right)
                guard(zero_test, right, "division by zero")
            if dl is None and dr is None:
                return f"({left} {op} {right})", None
            if op in "+-":
                if dr is None:
                    d = dl
                elif dl is None:
                    d = dr if op == "+" else f"(-{dr})"
                else:
                    d = f"({dl} {op} {dr})"
                return f"({left} {op} {right})", d
            if dl is not None:
                right = temp(right)
            if dr is not None:
                left = temp(left)
            if op == "*":
                terms = ([f"{dl} * {right}"] if dl else []) + ([f"{left} * {dr}"] if dr else [])
                d = f"({' + '.join(terms)})"
            elif dr is None:
                d = f"({dl} / {right})"
            elif dl is None:
                d = f"(-{left} * {dr} / {right}**2)"
            else:
                d = f"(({dl} * {right} - {left} * {dr}) / {right}**2)"
            return f"({left} {op} {right})", d
        base, db = emit(node.base)
        n = node.exponent
        if n < 0:
            base = temp(base)
            guard(zero_test, base, "division by zero")
        if db is None:
            return f"({base})**({n})", None
        base = temp(base)
        d = f"({db} * 0.0)" if n == 0 else f"({n} * {base}**({n - 1}) * {db})"
        return f"({base})**({n})", d

    value, deriv = emit(root)
    if seed is None:
        result = value
    elif deriv is None:
        value = temp(value)
        result = f"{value}, {no_deriv.format(value)}"
    else:
        result = f"{value}, {deriv}"
    body = "".join(f"    {line}\n" for line in lines)
    src = f"def torque({', '.join(VARIABLES)}):\n{body}    return {result}\n"
    env = dict(functions, PI=math.pi, SQRT3=SQRT3, TAN_POLE_FLOOR=TAN_POLE_FLOOR,
               DomainError=DomainError)
    exec(src, env)
    return env["torque"]


@dataclass(frozen=True)
class TorqueExpression:
    """Immutable, validated expression tree over the five torque variables."""

    root: Node
    #: generated functions by (seed, namespace)
    _functions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate(self.root)

    def _function(self, seed: Optional[str], namespace: str) -> Callable:
        key = (seed, namespace)
        fn = self._functions.get(key)
        if fn is None:
            fn = self._functions[key] = _generate(self.root, *key)
        return fn

    def evaluate(self, t, theta, theta_dot, phi, phi_dot):
        """Evaluate on scalars or broadcastable numpy arrays."""
        return self._function(None, "numpy")(t, theta, theta_dot, phi, phi_dot)

    def compile(self) -> Callable[[float, float, float, float, float], float]:
        """Scalar fast path: generated python function over the math module."""
        return self._function(None, "math")

    def compile_dual(self, seed: str) -> Callable:
        """Scalar fast path for (value, d/d_seed); the ``eval_dual``
        arithmetic over the math module."""
        return self._function(_check_seed(seed), "math")

    def pretty(self) -> str:
        """Canonical text form; parsing it back yields an equal tree."""
        return _pretty(self.root)

    def __str__(self) -> str:
        return self.pretty()


# --- Parser ---


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next(self) -> Tuple[str, str, int]:
        """Return (kind, lexeme, offset); kind EOF at end of input."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("EOF", "", self.pos)
        start = self.pos
        ch = self.text[start]
        if ch.isdigit() or (ch == "." and start + 1 < len(self.text) and self.text[start + 1].isdigit()):
            i = start
            seen_dot = False
            while i < len(self.text) and (self.text[i].isdigit() or (self.text[i] == "." and not seen_dot)):
                if self.text[i] == ".":
                    seen_dot = True
                i += 1
            if i < len(self.text) and self.text[i] in "eE":
                j = i + 1
                if j < len(self.text) and self.text[j] in "+-":
                    j += 1
                if j < len(self.text) and self.text[j].isdigit():
                    i = j
                    while i < len(self.text) and self.text[i].isdigit():
                        i += 1
            self.pos = i
            return ("NUMBER", self.text[start:i], start)
        if ch.isalpha() or ch == "_":
            i = start
            while i < len(self.text) and (self.text[i].isalnum() or self.text[i] == "_"):
                i += 1
            self.pos = i
            return ("IDENT", self.text[start:i], start)
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
    """Value and exact first derivative with respect to the seeded variable.

    ``bindings`` are (t, theta, theta_dot, phi, phi_dot); ``seed`` names one
    of them.  Scalars and numpy arrays both work.
    """
    return expr._function(_check_seed(seed), "numpy")(*bindings)


@dataclass(frozen=True)
class LinearizedTorque:
    """Coefficients f1..f4 of the angle-linearized torques.

    Each is a callable of (t, x_velocity, y_velocity): f1/f3 are the theta
    partials and f2/f4 the phi partials of the two torques at zero angles.
    Only terms linear in the angles survive this extraction; products of two
    or more angle factors are dropped by construction.
    """

    f1: Callable[[float, float, float], float]
    f2: Callable[[float, float, float], float]
    f3: Callable[[float, float, float], float]
    f4: Callable[[float, float, float], float]


def _angle_partial(expr: TorqueExpression, seed: str) -> Callable[[float, float, float], float]:
    fast = expr.compile_dual(seed)

    def coefficient(t, v1, v2):
        if isinstance(t, np.ndarray) or isinstance(v1, np.ndarray) or isinstance(v2, np.ndarray):
            return eval_dual(expr, (t, 0.0, v1, 0.0, v2), seed)[1]
        return fast(t, 0.0, v1, 0.0, v2)[1]

    return coefficient


def extract_linearized(f1star: TorqueExpression, f2star: TorqueExpression) -> LinearizedTorque:
    """Differentiate the torques in the angles at theta = phi = 0.

    Forward-mode differentiation gives the exact partials; no
    finite-difference step enters.
    """
    for expr in (f1star, f2star):
        expr.evaluate(0.0, 0.0, 0.0, 0.0, 0.0)
    return LinearizedTorque(
        f1=_angle_partial(f1star, "theta"),
        f2=_angle_partial(f1star, "phi"),
        f3=_angle_partial(f2star, "theta"),
        f4=_angle_partial(f2star, "phi"),
    )


# --- Equilibrium validation ---


@dataclass(frozen=True)
class SamplingPlan:
    """Grid over (t, v1, v2) used to probe the zero-angle torque residuals."""

    n_t: int = 16
    n_v1: int = 9
    n_v2: int = 9
    t_max: float = 2.0 * math.pi
    v_max: float = 2.0


@dataclass(frozen=True)
class TorqueResidual:
    name: str
    max_residual: float
    at_t: float
    at_v1: float
    at_v2: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of sampling |F*(t, 0, v1, 0, v2)| over the plan grid."""

    status: str  # "PASS" or "WARN"
    max_residual: float
    residuals: Tuple[TorqueResidual, TorqueResidual]
    note: str = (
        "linearization keeps only terms linear in the angles; products of "
        "two or more angle factors are discarded by the extraction"
    )

    PASS_THRESHOLD = 1e-12


def validate_equilibrium(
    f1star: TorqueExpression,
    f2star: TorqueExpression,
    samples: Optional[SamplingPlan] = None,
) -> EquilibriumReport:
    """Check that both torques vanish at zero angles for all rates.

    A nonzero residual yields WARN rather than an error: the averaged fields
    are integrals over one invariant plane and can remain meaningful even
    when a torque fails the vanishing condition off that plane.
    """
    plan = samples or SamplingPlan()
    t = np.linspace(0.0, plan.t_max, plan.n_t)
    v1 = np.linspace(-plan.v_max, plan.v_max, plan.n_v1)
    v2 = np.linspace(-plan.v_max, plan.v_max, plan.n_v2)
    tg, v1g, v2g = np.meshgrid(t, v1, v2, indexing="ij")
    zero = np.zeros_like(tg)

    residuals = []
    for name, expr in (("F1star", f1star), ("F2star", f2star)):
        vals = np.abs(np.broadcast_to(
            np.asarray(expr.evaluate(tg, zero, v1g, zero, v2g), dtype=float), tg.shape
        ))
        flat = int(np.argmax(vals))
        idx = np.unravel_index(flat, vals.shape)
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
