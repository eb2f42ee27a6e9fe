"""Recursive-descent parser and evaluator for vector-field expressions.

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
from dataclasses import dataclass, field
from functools import lru_cache

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
    "eval_ast",
    "eval_field",
    "eval_points",
    "numeric_derivative",
]

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "abs": abs,
}
NP_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}


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


def eval_ast(node, state, params):
    """Reference tree-walking evaluator; raises on non-finite results."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return state[node.index]
    if isinstance(node, Param):
        return params[node.index]
    if isinstance(node, Neg):
        return -eval_ast(node.arg, state, params)
    if isinstance(node, BinOp):
        a = eval_ast(node.lhs, state, params)
        b = eval_ast(node.rhs, state, params)
        try:
            if node.op == "+":
                v = a + b
            elif node.op == "-":
                v = a - b
            elif node.op == "*":
                v = a * b
            elif node.op == "/":
                v = a / b
            elif k := _small_power(node):
                v = math.prod([a] * k)  # 1 * a * a ..., as _codegen's a * a ...
            else:
                v = a**b
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise FieldEvalError(f"non-finite result in '{node.op}': {exc}") from exc
        if isinstance(v, complex) or not math.isfinite(v):
            raise FieldEvalError(f"non-finite result in '{node.op}'")
        return v
    if isinstance(node, Call):
        a = eval_ast(node.arg, state, params)
        try:
            v = FUNCTIONS[node.fn](a)
        except (OverflowError, ValueError) as exc:
            raise FieldEvalError(f"non-finite result in {node.fn}(): {exc}") from exc
        if not math.isfinite(v):
            raise FieldEvalError(f"non-finite result in {node.fn}()")
        return v
    raise TypeError(f"not an AST node: {node!r}")


def _codegen(node):
    # Python source for a fast compiled evaluator; mirrors eval_ast exactly.
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
        op = "**" if node.op == "^" else node.op
        return f"({_codegen(node.lhs)} {op} {_codegen(node.rhs)})"
    if isinstance(node, Call):
        return f"{node.fn}({_codegen(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def _lambda(ast, functions):
    """Compile one component's _codegen source against a function table."""
    return eval(compile(f"lambda s, p: {_codegen(ast)}", "<field>", "eval"), dict(functions))


@dataclass(frozen=True)
class FieldDef:
    """A parsed, evaluable vector field with named parameters."""

    dimension: int
    components: tuple
    params: tuple = ()
    _compiled: list = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self):
        if len(self.components) != self.dimension:
            raise ValueError(
                f"{len(self.components)} components for dimension {self.dimension}"
            )

    @classmethod
    def parse(cls, sources, params=(), dimension=None):
        """Build a field from component source strings."""
        if isinstance(sources, str):
            sources = [sources]
        d = dimension if dimension is not None else len(sources)
        comps = tuple(parse_expr(src, d, params) for src in sources)
        return cls(d, comps, tuple(params))

    def compiled(self):
        if not self._compiled:
            self._compiled.extend(_lambda(ast, FUNCTIONS) for ast in self.components)
        return self._compiled


@lru_cache(maxsize=256)
def _array_fn(ast):
    # Bound to numpy ufuncs, s[i] is coordinate i of every point at once.
    return _lambda(ast, NP_FUNCTIONS)


def eval_points(f, points, params=()):
    """Evaluate a FieldDef, or one component AST, at every row of an (n, d)
    array: an (n, d) result for a field, (n,) for a single AST.

    params holds one value per declared parameter.  A value may also be an
    (n,) array, whose entry i is the parameter at point i; a tuple of such
    arrays evaluates n points of n parameter sets in one call.

    Raises FieldEvalError(component=i) when component i is complex or
    non-finite at any point.
    """
    pts = np.asarray(points, dtype=float)
    if isinstance(f, FieldDef):
        if pts.shape[1] != f.dimension:
            raise ValueError(f"state length {pts.shape[1]} != dimension {f.dimension}")
        if len(params) != len(f.params):
            raise ValueError(f"expected {len(f.params)} parameters, got {len(params)}")
        comps = f.components
    else:
        comps = (f,)
    cols = np.ascontiguousarray(pts.T)
    p = np.asarray(params, dtype=float)
    out = np.empty((pts.shape[0], len(comps)))
    with np.errstate(all="ignore"):
        for i, ast in enumerate(comps):
            try:
                v = _array_fn(ast)(cols, p)
                ok = not np.iscomplexobj(v) and np.isfinite(v).all()
            except ArithmeticError:  # constant subexpressions use Python floats
                ok = False
            if not ok:
                raise FieldEvalError(f"complex or non-finite value in component {i}",
                                     component=i)
            out[:, i] = v
    return out if isinstance(f, FieldDef) else out[:, 0]


def eval_field(f: FieldDef, state, params=()):
    """Evaluate every component at the given state; deterministic and pure."""
    return eval_points(f, [state], params)[0].tolist()


def numeric_derivative(f: FieldDef, component: int, state, coordinate: int, params=()):
    """Central-difference partial derivative of one component, at one state
    or at every row of an (n, d) stack of states; params may be per-row
    arrays, as in eval_points."""
    x = np.asarray(state, dtype=float)
    pts = np.atleast_2d(x)
    h = np.maximum(1e-6, 1e-6 * np.abs(pts[:, coordinate]))
    step = np.zeros_like(pts)
    step[:, coordinate] = h
    params = tuple(np.concatenate([v, v]) if getattr(v, "ndim", 0) else v for v in params)
    vals = eval_points(f, np.concatenate([pts + step, pts - step]), params)[:, component]
    d = (vals[: len(pts)] - vals[len(pts) :]) / (2.0 * h)
    return float(d[0]) if x.ndim == 1 else d
