"""Closed-form immersion definitions: AST, parser, printer, builders.

An expression is a tree of three node forms: `Variable(name)`,
`Constant(value)` and `Apply(op, args)`, where `op` is "neg", one of the
binary operators + - * / ^, or a function name. One table of the binary
operators drives evaluation, printing, validation and substitution.

An immersion file holds one or more blocks of the form

    immersion h2 { vars: s; components: (0.5*exp(s), 0.5*exp(-s)); }

Expressions use +, -, *, / and ^ (constant exponent only), the functions
exp, log, sqrt, sin, cos, sinh, cosh, and '#' line comments. Printing is
canonical (fully parenthesized, floats in shortest round-trip form), so
print -> parse is the identity on parser-produced trees.

A comment of the form `#@product(kind=pair, n2=1, n3=1, axis=t,
factors=a|b)` immediately before a block is provenance metadata attached
by the Calabi product constructors; it survives a print/parse round
trip. All other comments are ignored.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple

from . import jets as _jets


class ImmersionSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ImmersionValidationError(ValueError):
    pass


# --- AST ---------------------------------------------------------------


class Expr:
    """The base of the node forms, each a named tuple of its fields."""

    __slots__ = ()


class Variable(namedtuple("Variable", "name"), Expr):
    __slots__ = ()


class Constant(namedtuple("Constant", "value"), Expr):
    __slots__ = ()


class Apply(namedtuple("Apply", "op args"), Expr):
    __slots__ = ()


FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh")
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class Provenance(namedtuple("Provenance", "kind n2 n3 axis factors")):
    """Construction metadata carried by Calabi products: kind "point" or
    "pair", the block dimensions n2 and n3, the axis variable and the
    tuple of factor names."""

    __slots__ = ()

    def comment(self) -> str:
        facs = "|".join(self.factors)
        return (
            f"#@product(kind={self.kind}, n2={self.n2}, n3={self.n3}, "
            f"axis={self.axis}, factors={facs})"
        )


class ImmersionDef:
    """A validated definition: a name, its variables, one expression per
    component and the provenance of a Calabi product, or None. Read-only,
    equal over those four fields, and hashed once, as it keys the frame
    cache."""

    __slots__ = ("name", "vars", "components", "provenance", "_hash")

    def __init__(self, name: str, vars: tuple[str, ...],
                 components: tuple[Expr, ...],
                 provenance: Provenance | None = None):
        if not vars:
            raise ImmersionValidationError("immersion needs at least one variable")
        if len(set(vars)) != len(vars):
            raise ImmersionValidationError("duplicate variable names")
        for v in vars:
            if not _IDENT.fullmatch(v):
                raise ImmersionValidationError(f"invalid variable name {v!r}")
        if not components:
            raise ImmersionValidationError("immersion needs at least one component")
        declared = set(vars)
        for comp in components:
            _validate_expr(comp)
            for free in _free_vars(comp):
                if free not in declared:
                    raise ImmersionValidationError(
                        f"undeclared variable {free!r} in immersion {name!r}"
                    )
        for slot, value in zip(self.__slots__, (name, vars, components,
                                                provenance, None)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ImmersionDef is read-only: cannot set {name!r}")

    def _key(self) -> tuple:
        return self.name, self.vars, self.components, self.provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __reduce__(self):
        return ImmersionDef, self._key()

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def ncomponents(self) -> int:
        return len(self.components)


def _free_vars(e: Expr) -> set[str]:
    if isinstance(e, Variable):
        return {e.name}
    if isinstance(e, Constant):
        return set()
    return set().union(*map(_free_vars, e.args))


def _validate_expr(e: Expr) -> None:
    if isinstance(e, Constant):
        _fmt_number(e.value)   # refuses a non-finite constant, as printing does
    if isinstance(e, (Variable, Constant)):
        return
    if not isinstance(e, Apply):
        raise TypeError(f"not an expression node: {e!r}")
    unary = e.op == "neg" or e.op in FUNCTIONS
    if len(e.args) != (2 if e.op in BINARY else 1 if unary else None):
        raise ImmersionValidationError(
            f"unknown operator {e.op!r} on {len(e.args)} operands")
    if e.op == "^" and not isinstance(e.args[1], Constant):
        raise ImmersionValidationError("exponent must be a constant")
    for arg in e.args:
        _validate_expr(arg)


# --- builders ------------------------------------------------------------


def var(name: str) -> Variable:
    return Variable(name)


def const(value: float) -> Constant:
    return Constant(float(value))


def neg(e: Expr) -> Expr:
    if isinstance(e, Constant):
        return Constant(-e.value)
    return Apply("neg", (e,))


def add(a: Expr, b: Expr) -> Apply:
    return Apply("+", (a, b))


def mul(a: Expr, b: Expr) -> Apply:
    return Apply("*", (a, b))


def call(fn: str, arg: Expr) -> Apply:
    return Apply(fn, (arg,))


# --- evaluation ----------------------------------------------------------


def eval_expr(e: Expr, env: dict):
    """Evaluate an expression over the values in `env`: floats or jets.
    Function applications are kept in `env` under their node, so one
    that several components share, such as exp(t), is evaluated once."""
    if isinstance(e, Variable):
        try:
            return env[e.name]
        except KeyError:
            raise ImmersionValidationError(f"undeclared variable {e.name!r}") from None
    if isinstance(e, Constant):
        return e.value
    if e.op in BINARY:
        lhs, rhs = e.args
        return BINARY[e.op](eval_expr(lhs, env), eval_expr(rhs, env))
    if e.op == "neg":
        return -eval_expr(e.args[0], env)
    value = env.get(e)
    if value is None:
        arg = eval_expr(e.args[0], env)
        value = env[e] = (_jets.jet_elementary(arg, e.op) if isinstance(
            arg, _jets.Jet) else getattr(math, e.op)(arg))
    return value


def eval_components(defn: ImmersionDef, point) -> list[float]:
    """Plain float evaluation of all components at a parameter point."""
    env = dict(zip(defn.vars, map(float, point)))
    return [eval_expr(c, env) for c in defn.components]


# --- printer -------------------------------------------------------------


def _fmt_number(v: float) -> str:
    if not math.isfinite(v):
        raise ImmersionValidationError(f"non-finite constant {v!r}")
    return repr(float(v))


def _print_expr(e: Expr) -> str:
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Constant):
        if e.value < 0 or (e.value == 0 and math.copysign(1.0, e.value) < 0):
            return f"(-{_fmt_number(-e.value)})"
        return _fmt_number(e.value)
    if e.op == "neg":
        return f"(-{_print_expr(e.args[0])})"
    if e.op == "^":
        return f"({_print_expr(e.args[0])}^{_fmt_number(e.args[1].value)})"
    if e.op in BINARY:
        return f"({_print_expr(e.args[0])}{e.op}{_print_expr(e.args[1])})"
    return f"{e.op}({_print_expr(e.args[0])})"


def print_immersion(defn: ImmersionDef) -> str:
    """Canonical single-block text. Reparsing yields an identical tree."""
    body = ", ".join(_print_expr(c) for c in defn.components)
    line = (
        f"immersion {defn.name} {{ vars: {', '.join(defn.vars)}; "
        f"components: ({body}); }}"
    )
    if defn.provenance is not None:
        return defn.provenance.comment() + "\n" + line
    return line


# --- tokenizer / parser --------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<sym>[{}();:,+\-*/^])
    """,
    re.VERBOSE,
)

_PROV = re.compile(
    r"#@product\(\s*kind=(?P<kind>\w+)\s*,\s*n2=(?P<n2>\d+)\s*,\s*n3=(?P<n3>\d+)"
    r"\s*,\s*axis=(?P<axis>\w+)\s*,\s*factors=(?P<factors>[^)]*)\)\s*$"
)


_Token = namedtuple("_Token", "kind text line col")


def _tokenize(source: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ImmersionSyntaxError(
                f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "comment":
            if _PROV.match(text):
                tokens.append(_Token("provenance", text, line, col))
        elif kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ImmersionSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.next()

    # expression grammar: expr ((+|-) term)*, term ((*|/) factor)*,
    # factor = base (^ number)?, base = number | ident | ( expr )
    #        | fn ( expr ) | - factor

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.next().text
            node = Apply(op, (node, self.parse_term()))
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.next().text
            node = Apply(op, (node, self.parse_factor()))
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.peek().kind == "sym" and self.peek().text == "^":
            self.next()
            sign = 1.0
            if self.peek().kind == "sym" and self.peek().text == "-":
                self.next()
                sign = -1.0
            tok = self.expect("number")
            node = Apply("^", (node, Constant(sign * float(tok.text))))
        return node

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Constant(float(tok.text))
        if tok.kind == "ident":
            self.next()
            if tok.text in FUNCTIONS:
                self.expect("sym", "(")
                arg = self.parse_expr()
                self.expect("sym", ")")
                return Apply(tok.text, (arg,))
            return Variable(tok.text)
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect("sym", ")")
            return node
        if tok.kind == "sym" and tok.text == "-":
            self.next()
            return neg(self.parse_factor())
        raise ImmersionSyntaxError(
            f"expected expression, found {tok.text or 'end of input'!r}",
            tok.line, tok.col)

    def parse_immersion_block(self) -> ImmersionDef:
        prov = None
        if self.peek().kind == "provenance":
            prov = _parse_provenance(self.next().text)
        kw = self.expect("ident", "immersion")
        name = self.expect("ident").text
        self.expect("sym", "{")
        self.expect("ident", "vars")
        self.expect("sym", ":")
        names = [self.expect("ident").text]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            names.append(self.expect("ident").text)
        self.expect("sym", ";")
        self.expect("ident", "components")
        self.expect("sym", ":")
        self.expect("sym", "(")
        comps = [self.parse_expr()]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            comps.append(self.parse_expr())
        self.expect("sym", ")")
        self.expect("sym", ";")
        self.expect("sym", "}")
        try:
            return ImmersionDef(name, tuple(names), tuple(comps), prov)
        except ImmersionValidationError as exc:
            raise ImmersionValidationError(f"{exc} (near line {kw.line})") from None

    def parse_program(self) -> list[ImmersionDef]:
        defs = []
        while self.peek().kind != "eof":
            defs.append(self.parse_immersion_block())
        if not defs:
            tok = self.peek()
            raise ImmersionSyntaxError("empty immersion source", tok.line, tok.col)
        return defs


def _parse_provenance(text: str) -> Provenance:
    m = _PROV.match(text)
    factors = tuple(f for f in m["factors"].split("|") if f)
    return Provenance(m["kind"], int(m["n2"]), int(m["n3"]), m["axis"],
                      factors)


def parse_program(source: str) -> list[ImmersionDef]:
    """Parse a file that may contain several immersion blocks."""
    return _Parser(_tokenize(source)).parse_program()


def parse_immersion(source: str) -> ImmersionDef:
    """Parse a source holding exactly one immersion block."""
    defs = parse_program(source)
    if len(defs) != 1:
        raise ImmersionValidationError(
            f"expected exactly one immersion, found {len(defs)}"
        )
    return defs[0]


# --- structured assembly -------------------------------------------------


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by expressions."""
    if isinstance(e, Variable):
        return mapping.get(e.name, e)
    if isinstance(e, Constant):
        return e
    return Apply(e.op, tuple(substitute(arg, mapping) for arg in e.args))


def fresh_name(name: str, taken) -> str:
    """`name`, or the first of name_1, name_2, ... that is not taken."""
    candidate, k = name, 0
    while candidate in taken:
        k += 1
        candidate = f"{name}_{k}"
    return candidate


def build_scaled_embedding(
    defs,
    weights,
    axis_var: str,
    name: str = "anon",
    provenance: Provenance | None = None,
) -> ImmersionDef:
    """Concatenate exponentially weighted blocks into one immersion.

    Each entry of `defs` is an ImmersionDef or a plain sequence of floats
    (a constant block). Entry k contributes the components

        coefficient_k * exp(rate_k * axis_var) * component

    with (coefficient_k, rate_k) = weights[k]. Identity weights are
    folded away: a coefficient of 1 adds no factor, a rate of 0 adds no
    exponential. Variable names are taken from the factors, renamed by
    `fresh_name` when they collide with the axis variable or with each
    other. Output variables are (axis_var, then factor variables in
    order).
    """
    if len(weights) != len(defs):
        raise ImmersionValidationError(
            f"{len(defs)} blocks but {len(weights)} weight pairs"
        )
    if not _IDENT.fullmatch(axis_var):
        raise ImmersionValidationError(f"invalid axis variable {axis_var!r}")

    out_vars = [axis_var]
    components: list[Expr] = []
    for d, (coefficient, rate) in zip(defs, weights):
        if isinstance(d, ImmersionDef):
            mapping = {}
            for v in d.vars:
                out_vars.append(fresh_name(v, out_vars))
                mapping[v] = Variable(out_vars[-1])
            block = [substitute(c, mapping) for c in d.components]
        else:
            block = [const(v) for v in d]
            if not block:
                raise ImmersionValidationError("constant block must be nonempty")
        for e in block:
            if rate != 0.0:
                e = mul(call("exp", mul(const(rate), var(axis_var))), e)
            if coefficient != 1.0:
                e = mul(const(coefficient), e)
            components.append(e)

    return ImmersionDef(name, tuple(out_vars), tuple(components), provenance)
