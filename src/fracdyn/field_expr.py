"""Recursive-descent parser, exact derivatives and compiled evaluation for
vector-field expressions.

Grammar (|^| binds tightest and is right-associative, then unary minus,
then * /, then + -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers resolve to coordinates (x1..xd, with x/y/z aliases for d <= 3),
declared parameters, or the function names exp, sin, cos, tanh, abs.
Implicit multiplication is rejected on purpose: "2x" is a syntax error.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParseError",
    "UnknownIdentifierError",
    "FieldEvalError",
    "Num",
    "Var",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "FieldDef",
    "parse_expr",
    "diff",
    "eval_points",
]

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "abs": abs,
}
# Derivatives (see diff) also call log and sign; the grammar accepts neither.  A
# power that reads a coordinate calls power (see _codegen).
POINT_FUNCTIONS = {**FUNCTIONS, "log": math.log, "sign": lambda v: float((v > 0) - (v < 0)),
                   "power": operator.pow}
NP_FUNCTIONS = {name: getattr(np, name) for name in POINT_FUNCTIONS}


class ParseError(ValueError):
    """Syntax error carrying the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class FieldEvalError(ArithmeticError):
    """Non-finite value produced while evaluating a field component."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


# ---------------------------------------------------------------------------
# AST nodes (immutable, comparable by value)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based coordinate index


@dataclass(frozen=True)
class Param:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN_OPS = set("+-*/^()")


def _tokenize(src):
    tokens = []  # (kind, text_or_value, offset)
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


_ALIASES = {"x": 0, "y": 1, "z": 2}


class _Parser:
    def __init__(self, tokens, dimension, params):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.params = list(params)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", off)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token '{text}'", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            return self.resolve_ident(text, off)
        raise ParseError(f"unexpected token '{text}'" if text else "unexpected end of input", off)

    def resolve_ident(self, name, off):
        if name in FUNCTIONS:
            kind, text, foff = self.peek()
            if kind != "op" or text != "(":
                raise ParseError(f"function '{name}' requires parenthesized argument", foff)
            self.advance()
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        if self.dimension <= 3 and name in _ALIASES:
            idx = _ALIASES[name]
            if idx < self.dimension:
                return Var(idx)
        if len(name) >= 2 and name[0] == "x" and name[1:].isdigit():
            idx = int(name[1:]) - 1
            if 0 <= idx < self.dimension:
                return Var(idx)
            raise UnknownIdentifierError(name, off)
        if name in self.params:
            return Param(self.params.index(name), name)
        raise UnknownIdentifierError(name, off)


def parse_expr(src: str, dimension: int, params=()) -> object:
    """Parse a scalar expression over the given coordinates and parameters."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return _Parser(_tokenize(src), dimension, params).parse()


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse_expr)


def to_source(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.lhs)} {node.op} {to_source(node.rhs)})"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Derivatives


def _is_num(node, value):
    return isinstance(node, Num) and node.value == value


def _neg(a):
    return Num(-a.value) if isinstance(a, Num) else Neg(a)


def _op(op, a, b):
    """BinOp(op, a, b) with a 0 or 1 operand folded away where it can be."""
    if op in "+-" and _is_num(b, 0.0) or op in "*/^" and _is_num(b, 1.0):
        return a
    if _is_num(a, 0.0) and op in "+-":
        return b if op == "+" else _neg(b)
    if _is_num(a, 0.0) and op in "*/" or op == "*" and _is_num(b, 0.0):
        return Num(0.0)
    if op == "*" and _is_num(a, 1.0):
        return b
    return Num(1.0) if op == "^" and _is_num(b, 0.0) else BinOp(op, a, b)


def diff(node, i):
    """The AST of d(node)/dx_i, with additions of 0 and products with 0 or 1
    folded away (0*exp(x) would turn nan where exp overflows).

    An exponent b free of x_i (a number, a parameter) gives b*a^(b-1)*a', so
    x^3 becomes 3*x^2 and keeps its product form; any other exponent gives
    a^b*(b'*log(a) + b*a'/a).  abs' is sign, which is 0 at the kink x = 0.
    """
    if isinstance(node, (Num, Param)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.index == i else 0.0)
    if isinstance(node, Neg):
        return _neg(diff(node.arg, i))
    if isinstance(node, Call):
        a = node.arg
        outer = {"exp": node, "sin": Call("cos", a), "cos": _neg(Call("sin", a)),
                 "tanh": _op("-", Num(1.0), _op("*", node, node)),
                 "abs": Call("sign", a)}[node.fn]
        return _op("*", outer, diff(a, i))
    if not isinstance(node, BinOp):
        raise TypeError(f"not an AST node: {node!r}")
    a, b = node.lhs, node.rhs
    da, db = diff(a, i), diff(b, i)
    if node.op in "+-":
        return _op(node.op, da, db)
    if node.op == "*":
        return _op("+", _op("*", da, b), _op("*", a, db))
    if node.op == "/":  # (a' - (a/b)*b') / b
        return _op("/", _op("-", da, _op("*", _op("/", a, b), db)), b)
    if _is_num(db, 0.0):
        b1 = Num(b.value - 1.0) if isinstance(b, Num) else BinOp("-", b, Num(1.0))
        return _op("*", _op("*", b, _op("^", a, b1)), da)
    return _op("*", node, _op("+", _op("*", db, Call("log", a)), _op("*", b, _op("/", da, a))))


# ---------------------------------------------------------------------------
# Evaluation


def _small_power(node):
    """k when node is a Var or Param raised to a literal k in 2..4, else None.

    Such powers are evaluated as the product x*x*...*x, left to right: numpy's
    pow is tens of times slower than a product on arrays with negative entries.
    """
    if (isinstance(node, BinOp) and node.op == "^" and isinstance(node.lhs, (Var, Param))
            and isinstance(node.rhs, Num) and node.rhs.value in (2.0, 3.0, 4.0)):
        return int(node.rhs.value)
    return None


def _codegen(node):
    # Python source of one component: the only code that makes an AST callable.
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"s[{node.index}]"
    if isinstance(node, Param):
        return f"p[{node.index}]"
    if isinstance(node, Neg):
        return f"(-{_codegen(node.arg)})"
    if isinstance(node, BinOp):
        if k := _small_power(node):
            return "(" + " * ".join([_codegen(node.lhs)] * k) + ")"
        # A power that reads a coordinate calls power: np.power rounds a float
        # as it rounds an array, where ** on floats is libm's pow, so a
        # compiled_arrays() component called on floats gives eval_points' value.
        # Powers of constants and parameters alone keep **, as a scan's grid
        # takes them on a parameter row's floats too.
        if node.op == "^" and any(isinstance(leaf, Var) for leaf in _leaves(node)):
            return f"power({_codegen(node.lhs)}, {_codegen(node.rhs)})"
        op = "**" if node.op == "^" else node.op
        return f"({_codegen(node.lhs)} {op} {_codegen(node.rhs)})"
    if isinstance(node, Call):
        return f"{node.fn}({_codegen(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def _leaves(node):
    """The Var and Param nodes that node reads, in order."""
    if isinstance(node, (Var, Param)):
        yield node
    elif isinstance(node, (Neg, Call)):
        yield from _leaves(node.arg)
    elif isinstance(node, BinOp):
        yield from _leaves(node.lhs)
        yield from _leaves(node.rhs)


def _lambda(ast, functions):
    """Compile one component's _codegen source against a function table."""
    return eval(compile(f"lambda s, p: {_codegen(ast)}", "<field>", "eval"), dict(functions))


@dataclass(frozen=True)
class FieldDef:
    """A parsed, evaluable vector field with named parameters."""

    dimension: int
    components: tuple
    params: tuple = ()
    _kept: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.components) != self.dimension:
            raise ValueError(
                f"{len(self.components)} components for dimension {self.dimension}"
            )
        for k, comp in enumerate(self.components):
            for leaf in _leaves(comp):
                if isinstance(leaf, Var) and leaf.index >= self.dimension:
                    raise ValueError(f"component {k + 1} reads x{leaf.index + 1}, "
                                     f"outside dimension {self.dimension}")
                if isinstance(leaf, Param) and not (
                        0 <= leaf.index < len(self.params)
                        and self.params[leaf.index] == leaf.name):
                    raise ValueError(f"component {k + 1} reads parameter {leaf.name!r} "
                                     f"as params[{leaf.index}], but params are {self.params}")

    @classmethod
    def parse(cls, sources, params=()):
        """Build a field from a list of component source strings, one per coordinate."""
        if isinstance(sources, str):  # else each character would be a component
            raise TypeError(f"FieldDef.parse takes a list of components, got {sources!r}")
        d = len(sources)
        return cls(d, tuple(parse_expr(src, d, params) for src in sources), tuple(params))

    def _keep(self, key, build):
        """build(), on the first call for key only; the result is kept."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def compiled(self):
        """Per-point lambdas fn(s, p), one per component, built once."""
        return self._keep("points", lambda: [_lambda(a, POINT_FUNCTIONS) for a in self.components])

    def compiled_arrays(self):
        """The same bound to numpy ufuncs: s[i] is coordinate i of every point."""
        return self._keep("arrays", lambda: [_lambda(a, NP_FUNCTIONS) for a in self.components])

    def derivative(self, i):
        """The field of partial derivatives d g_k / d x_i (see diff), built
        once and kept; it compiles and evaluates like any FieldDef."""
        if not 0 <= i < self.dimension:
            raise ValueError(f"coordinate {i} is outside 0..{self.dimension - 1}")
        return self._keep(i, lambda: FieldDef(
            self.dimension, tuple(diff(a, i) for a in self.components), self.params))


def eval_points(f, points, params=()):
    """Evaluate a FieldDef at every row of an (n, d) array: an (n, d) result.

    params holds one value per declared parameter.  A value may also be an
    (n,) array, whose entry i is the parameter at point i; a tuple of such
    arrays evaluates n points of n parameter sets in one call.

    Raises FieldEvalError(component=i) when component i is complex or
    non-finite at any point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] != f.dimension:
        raise ValueError(f"state length {pts.shape[1]} != dimension {f.dimension}")
    if len(params) != len(f.params):
        raise ValueError(f"expected {len(f.params)} parameters, got {len(params)}")
    fns = f.compiled_arrays()
    cols = np.ascontiguousarray(pts.T)
    p = np.asarray(params, dtype=float)
    out = np.empty((pts.shape[0], len(fns)))
    with np.errstate(all="ignore"):
        for i, fn in enumerate(fns):
            try:
                v = fn(cols, p)
                ok = not np.iscomplexobj(v) and np.isfinite(v).all()
            except ArithmeticError:  # constant subexpressions use Python floats
                ok = False
            if not ok:
                raise FieldEvalError(f"complex or non-finite value in component {i}",
                                     component=i)
            out[:, i] = v
    return out
