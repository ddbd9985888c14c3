"""Symbolic expressions in the plane coordinates x and y.

Provides a small closed expression language — rational literals, x, y, the
four ring operations, integer powers, unary minus, and the elementary
functions exp/log/sin/cos/sqrt — together with a parser, a canonical printer
(`parse_expr(to_string(t)) == t`), exact symbolic differentiation, and three
independent evaluators: `eval_jet` (truncated Taylor arithmetic),
`eval_scalar` (plain floating/rational point evaluation) and `compile_float`
(straight-line float code for many points).  The three share one operator
table and one set of domain rules, those of `jets`.  `+ - * /` on trees
build trees, so a formula written once also runs on jets and numbers, and
`.diff` builds a `Diff` node, a derivative left unevaluated for tapes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import jets
from .jets import (_FLOAT_FUNCS, Jet, SingularEvaluationError, _OutOfDomain,
                   to_scalar)

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")

# factors (parentheses, calls, signs, exponents) nested in one another
MAX_NESTING = 100

# the one meaning of each binary operator, on jets and on scalars
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


class ExprError(ValueError):
    """Problem with an input expression; `offset` points into the source."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (at offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class NonIntegerExponentError(ExprError):
    pass


class ExactModeError(ExprError):
    """Exact evaluation was requested for a tree containing a
    transcendental function."""

    def __init__(self, message):
        super().__init__(message, None)


# ---------------- syntax trees ----------------


def _operator(build):
    """A tree method: build(self, other), with an int or Fraction operand
    lifted by `num`.  Any other operand, a bool or float included, gives
    NotImplemented, so Python raises TypeError."""

    def method(self, other):
        if type(other) in (int, Fraction):
            other = num(other)
        elif not isinstance(other, _Node):
            return NotImplemented
        return build(self, other)

    return method


class _Node:
    """`+ - * /` on trees build trees through the smart constructors, so
    a formula written once runs on trees, jets and floats alike."""

    __add__ = _operator(lambda a, b: add(a, b))
    __radd__ = _operator(lambda a, b: add(b, a))
    __sub__ = _operator(lambda a, b: sub(a, b))
    __rsub__ = _operator(lambda a, b: sub(b, a))
    __mul__ = _operator(lambda a, b: mul(a, b))
    __rmul__ = _operator(lambda a, b: mul(b, a))
    __truediv__ = _operator(lambda a, b: div(a, b))
    __rtruediv__ = _operator(lambda a, b: div(b, a))

    def __neg__(self):
        return neg(self)

    def diff(self, var):
        """The formal derivative along "x" or "y", as a `Diff` node, which
        is what a formula that differentiates its operands records."""
        if var not in ("x", "y"):
            raise ValueError("differentiation variable must be 'x' or 'y'")
        return Diff(var, self)


@dataclass(frozen=True)
class Num(_Node):
    value: Fraction


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow(_Node):
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg(_Node):
    arg: object


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: object


class Diff(_Node):
    """The partial derivative of the field `arg` stands for, along `var`,
    left unevaluated: `Var("g").diff("x")` is dg/dx, where `differentiate`
    gives 0.  Only tapes read it (`invariants._read_tape`).  A plain class,
    since a dataclass costs a cold run about 0.5 ms to create."""

    def __init__(self, var, arg):
        self.var = var
        self.arg = arg


# ---------------- tokenizer / parser ----------------


def _tokenize(src):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (src[i].isdigit() or (src[i] == "." and not seen_dot)):
                if src[i] == ".":
                    seen_dot = True
                i += 1
            toks.append(("num", src[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            toks.append(("name", src[start:i], start))
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent over:

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := '-' factor | power
        power  := atom ('^' exponent)?
        atom   := NUMBER | 'x' | 'y' | FUNC '(' expr ')' | '(' expr ')'

    An exponent must reduce to an integer literal (so "x^-2" and "x^(6/3)"
    are fine but "x^y" and "x^(1/2)" are rejected).  Every nesting passes
    through `factor`, which refuses to open more than MAX_NESTING levels.
    """

    def __init__(self, src):
        self.toks = _tokenize(src)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError("expected %r" % kind, tok[2])
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("unexpected trailing input", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = _fold_binop(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            e = _fold_binop(op, e, self.factor())
        return e

    def factor(self):
        if self.nesting == MAX_NESTING:
            raise ExprSyntaxError("expression nested deeper than %d levels"
                                  % MAX_NESTING, self.peek()[2])
        self.nesting += 1
        if self.peek()[0] == "-":
            self.take()
            e = _fold_neg(self.factor())
        else:
            e = self.power()
        self.nesting -= 1
        return e

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            caret = self.take()
            e = self.factor()
            if isinstance(e, Num) and e.value.denominator == 1:
                return Pow(base, int(e.value))
            raise NonIntegerExponentError(
                "exponent must be an integer literal", caret[2]
            )
        return base

    def atom(self):
        kind, text, off = self.peek()
        if kind == "num":
            self.take()
            return Num(Fraction(text))
        if kind == "name":
            self.take()
            if text in ("x", "y"):
                return Var(text)
            if text in FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Call(text, arg)
            raise UnknownIdentifierError("unknown identifier %r" % text, off)
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        raise ExprSyntaxError(
            "expected a number, x, y, a function call, or '('", off
        )


def _fold_neg(e):
    if isinstance(e, Num):
        return Num(-e.value)
    return Neg(e)


def _fold_binop(op, a, b):
    # Fold literal quotients so "2/3" parses to the exact rational it denotes.
    if (
        op == "/"
        and isinstance(a, Num)
        and isinstance(b, Num)
        and b.value != 0
    ):
        return Num(a.value / b.value)
    return BinOp(op, a, b)


def parse_expr(src):
    return _Parser(src).parse()


def as_expr(obj):
    """Accept either source text or an already-built tree."""
    if isinstance(obj, str):
        return parse_expr(obj)
    if isinstance(obj, (Num, Var, BinOp, Pow, Neg, Call)):
        return obj
    if isinstance(obj, (int, Fraction)):
        return Num(Fraction(obj))
    raise TypeError("cannot interpret %r as an expression" % (obj,))


# ---------------- printer ----------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_ATOM = 9  # the precedence of a node that never needs parentheses


def to_string(e):
    """Canonical rendering; `parse_expr` inverts it."""
    return _render(e)[0]


def _render(e):
    """(text, precedence) of a tree, in one pass over it."""
    if isinstance(e, Num):
        # "p/q" reparses as a quotient and "-p" as a negation, so such
        # literals must be parenthesised exactly where those forms would be
        v = e.value
        return str(v), _ATOM if v >= 0 and v.denominator == 1 else 2
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, Call):
        return "%s(%s)" % (e.func, _render(e.arg)[0]), _ATOM
    if isinstance(e, Neg):
        return "-" + _wrapped(e.arg, 3), 2
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        return _wrapped(e.left, p) + e.op + _wrapped(e.right, p + 1), p
    if isinstance(e, Pow):
        bs = _wrapped(e.base, _ATOM)
        if e.exponent < 0:
            return "%s^(%d)" % (bs, e.exponent), 3
        return "%s^%d" % (bs, e.exponent), 3
    raise TypeError("not an expression: %r" % (e,))


def _wrapped(e, least):
    """The text of e, parenthesised when its precedence is below `least`."""
    text, p = _render(e)
    return text if p >= least else "(%s)" % text


# ---------------- smart constructors ----------------

ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def num(v):
    return Num(v if type(v) is Fraction else Fraction(v))


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0


def add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return ZERO
    if isinstance(a, Num):
        if a.value == 1:
            return b
        if a.value == -1:
            return neg(b)
        if isinstance(b, Num):
            return Num(a.value * b.value)
    if isinstance(b, Num):
        if b.value == 1:
            return a
        if b.value == -1:
            return neg(a)
    return BinOp("*", a, b)


def div(a, b):
    if isinstance(b, Num) and b.value == 1:
        return a
    if _is_zero(a) and not _is_zero(b):
        return ZERO
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def powi(a, k):
    if k == 0:
        return ONE
    if k == 1:
        return a
    if isinstance(a, Num) and (a.value != 0 or k > 0):
        return Num(a.value**k)
    return Pow(a, k)


# ---------------- differentiation ----------------


def differentiate(e, var, memo=None):
    """Exact partial derivative of a tree with respect to 'x' or 'y'.

    Each node's derivative is built once per call, looked up by the node's
    identity, so a subtree that the tree shares is differentiated once and
    its derivative is shared too.  Calls along one variable may share a
    dict `memo`, so that a node one of them has differentiated is not
    differentiated again.  The memo keeps every node it has seen alive, so
    an id cannot come to name another node while it lives."""
    if var not in ("x", "y"):
        raise ValueError("differentiation variable must be 'x' or 'y'")
    if memo is None:
        memo = {}

    def d(t):
        seen = memo.get(id(t))
        if seen is None:
            seen = memo[id(t)] = (t, _derivative(t, var, d))
        return seen[1]

    return d(e)


def _derivative(e, var, d):
    """The derivative of the node e, with `d` giving its children's."""
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(d(e.arg))
    if isinstance(e, BinOp):
        da = d(e.left)
        db = d(e.right)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        # quotient rule, kept as two terms to avoid inflating numerators
        return sub(div(da, e.right), div(mul(e.left, db), powi(e.right, 2)))
    if isinstance(e, Pow):
        du = d(e.base)
        return mul(mul(num(e.exponent), powi(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        u = e.arg
        du = d(u)
        if e.func == "exp":
            return mul(Call("exp", u), du)
        if e.func == "log":
            return div(du, u)
        if e.func == "sin":
            return mul(Call("cos", u), du)
        if e.func == "cos":
            return neg(mul(Call("sin", u), du))
        if e.func == "sqrt":
            return div(du, mul(num(2), Call("sqrt", u)))
    raise TypeError("not an expression: %r" % (e,))


# ---------------- evaluation ----------------


def _parts(t):
    """(own fields, children) of a node."""
    if isinstance(t, BinOp):
        return t.op, (t.left, t.right)
    if isinstance(t, Num):
        # the two ints key a value alike, and hash much faster than it
        return (t.value.numerator, t.value.denominator), ()
    if isinstance(t, Var):
        return t.name, ()
    if isinstance(t, Pow):
        return t.exponent, (t.base,)
    if isinstance(t, Neg):
        return None, (t.arg,)
    if isinstance(t, Call):
        return t.func, (t.arg,)
    raise TypeError("not an expression: %r" % (t,))


def has_transcendental(e):
    return isinstance(e, Call) or any(map(has_transcendental, _parts(e)[1]))


_JET_FUNCS = {name: getattr(jets, name) for name in FUNCTIONS}


def _shared(t, build, memo):
    """The value `build(node, child_values)` gives tree t, with each
    distinct subtree built once.  A node is looked up by identity, then by
    its kind, its own fields and the identities of its children's values,
    so `build` must read only the node's own fields, never its children.
    `memo` keeps every node it has seen alive, so an id cannot come to name
    another node while it lives."""
    seen = memo.get(id(t))
    if seen is not None:
        return seen[1]
    own, children = _parts(t)
    args = [_shared(c, build, memo) for c in children]
    key = (type(t), own, *map(id, args))
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(t, args)
    memo[id(t)] = (t, value)
    return value


def choose_arithmetic(trees, point, mode):
    """"rational" or "float": the one arithmetic of the jets of `trees` at
    `point` under `mode`.  "auto" is "rational" when no tree is
    transcendental and the point is rational, else "float"; "rational"
    refuses those two cases with ExactModeError."""
    if mode not in ("auto", "rational", "float"):
        raise ValueError("mode must be 'auto', 'rational', or 'float'")
    if mode == "float":
        return "float"
    if any(map(has_transcendental, trees)):
        if mode == "rational":
            raise ExactModeError("exact evaluation requested for a tree "
                                 "with transcendental calls")
        return "float"
    if all(isinstance(to_scalar(c), Fraction) for c in point):
        return "rational"
    if mode == "rational":
        raise ExactModeError("exact evaluation requested at the float "
                             "point (%s, %s)" % tuple(point))
    return "float"


def eval_jet(e, base, order, mode="auto", memo=None):
    """Evaluate a tree to a Jet at `base`, in the arithmetic that
    `choose_arithmetic` picks for the tree alone: "float" converts every
    constant and coordinate to float up front, "rational" stays exact.

    Each distinct subtree is evaluated once (`_shared`).  Trees at one
    base and order, in one arithmetic, may share a dict `memo`; one filled
    at another raises ValueError.
    """
    kind = choose_arithmetic((e,), base, mode)
    want_float = kind == "float"
    point = tuple(map(to_scalar, base))
    context = (point, tuple(map(type, point)), order, kind)
    if memo is None:
        memo = {}
    if memo.setdefault(None, context) != context:
        raise ValueError("memo was filled at another base, order or mode")

    def build(t, args):
        if isinstance(t, BinOp):
            return _BINARY[t.op](*args)
        if isinstance(t, (Num, Var)):
            jet = (Jet.constant(t.value, base, order) if isinstance(t, Num)
                   else Jet.variable(t.name, base, order))
            return jet.to_float() if want_float else jet
        if isinstance(t, Pow):
            return args[0] ** t.exponent
        if isinstance(t, Neg):
            return -args[0]
        return _JET_FUNCS[t.func](args[0])

    return _shared(e, build, memo)


def eval_scalar(e, x, y):
    """Plain point evaluation, independent of the jet machinery.

    Rational inputs and a transcendental-free tree give an exact Fraction;
    otherwise the result is a float.  Outside the domain it raises as
    `compile_float` does.  A variable other than x and y raises TypeError.
    """
    xv = to_scalar(x)
    yv = to_scalar(y)

    def rec(t):
        if isinstance(t, BinOp):
            return _BINARY[t.op](rec(t.left), rec(t.right))
        if isinstance(t, Num):
            return t.value
        if isinstance(t, Var) and t.name in ("x", "y"):
            return xv if t.name == "x" else yv
        if isinstance(t, Pow):
            v, k = rec(t.base), t.exponent
            return v**k if k >= 0 else _negative_power(v, k)
        if isinstance(t, Neg):
            return -rec(t.arg)
        if isinstance(t, Call):
            return _FLOAT_FUNCS[t.func][1](float(rec(t.arg)))
        raise TypeError("not an expression: %r" % (t,))

    return _at_point(lambda *_: rec(e), xv, yv)


# ---------------- compiled float evaluation ----------------
#
# A transport evaluates the same derivative trees at thousands of points, so
# they are compiled once into straight-line Python: one assignment per
# distinct subtree (hash-consed, so common subexpressions are shared), each
# line a single operation on names.  The source holds nothing but `repr`'d
# float literals, the parameters (x and y unless a caller names others, each
# an identifier that can name no temporary and no helper), temporaries,
# + - * / ** with integer exponents and the helpers of _FLOAT_FUNCS; no text
# of the input reaches `exec`.


def _negative_power(v, k):
    if v == 0:
        raise _OutOfDomain("zero raised to a negative power")
    return v**k


def _float_source(trees, params=("x", "y")):
    """Source of `_evaluate(*params)`, which returns the trees' float
    values: one line per distinct subtree (`_shared`), named by its line.
    A parameter that is not an identifier, or that could name a temporary
    (t<digits>) or a helper (_...), raises ValueError; a variable that is
    not a parameter raises TypeError."""
    for p in params:
        if (not p.isidentifier() or p.startswith("_")
                or p[0] == "t" and p[1:].isdigit()):
            raise ValueError("%r cannot name a parameter" % (p,))
    lines = []

    def build(t, args):
        if isinstance(t, Var):
            if t.name not in params:
                raise TypeError("not an expression: %r" % (t,))
            return t.name
        if isinstance(t, Num):
            try:
                text = repr(float(t.value))
            except OverflowError:
                raise ExprError(
                    "literal %s is out of float range" % t.value) from None
        elif isinstance(t, Neg):
            text = "-" + args[0]
        elif isinstance(t, BinOp) and t.op in _BINARY:
            text = "%s %s %s" % (args[0], t.op, args[1])
        elif isinstance(t, Pow):
            k = int(t.exponent)
            text = ("%s ** %d" % (args[0], k) if k >= 0
                    else "_negative_power(%s, %d)" % (args[0], k))
        elif isinstance(t, Call) and t.func in _FLOAT_FUNCS:
            text = "%s(%s)" % (_FLOAT_FUNCS[t.func][0], args[0])
        else:
            raise TypeError("not an expression: %r" % (t,))
        out = "t%d" % len(lines)
        lines.append("    %s = %s" % (out, text))
        return out

    memo = {}
    results = [_shared(t, build, memo) for t in trees]
    return "\n".join(
        ["def _evaluate(%s):" % ", ".join(params)] + lines
        + ["    return (%s)" % "".join(r + ", " for r in results)]
    ) + "\n"


def _compiled(trees, params=("x", "y")):
    """The function of `_float_source(trees, params)`, whose ways out of
    the domain raise as Python raises them."""
    namespace = {"__builtins__": {}, "_negative_power": _negative_power}
    namespace.update(_FLOAT_FUNCS.values())
    exec(compile(_float_source(trees, params), "<compiled trees>", "exec"),
         namespace)
    return namespace["_evaluate"]


def compile_float(trees):
    """One float function (x, y) -> tuple of the trees' values.

    Outside the domain (division by zero, log or sqrt of a value <= 0, zero
    to a negative power, sin or cos of a non-finite value, overflow in `**`
    or an elementary function) it raises SingularEvaluationError naming the
    point.  `+`, `-`, `*` and `/` overflow to inf or nan without raising."""
    return partial(_at_point, _compiled(trees))


def _at_point(evaluate, x, y):
    """evaluate(x, y), with each way out of the domain raised as
    SingularEvaluationError naming the point."""
    try:
        return evaluate(x, y)
    except _OutOfDomain as err:
        raise SingularEvaluationError(str(err), (x, y)) from None
    except ZeroDivisionError:
        raise SingularEvaluationError("division by zero", (x, y)) from None
    except OverflowError:
        raise SingularEvaluationError(
            "value out of float range", (x, y)) from None


def compile_derivatives(trees, words, letters=None):
    """Differentiate each tree once along every word (letters applied left
    to right, "" is the tree) and compile them all with `compile_float`.
    `words[k]` are the words of tree k.  The returned function gives the
    values tree-major: every word of the first tree, then every word of the
    second, and so on.  All words share one `differentiate` memo per
    letter: a second derivative embeds subtrees of the tree that the first
    derivatives have already derived, and the trees of one structure share
    subtrees too.  `letters`, {"x": memo, "y": memo}, lets calls on the same
    trees share those memos, so a word that two calls read is derived
    once."""
    derived = []
    if letters is None:
        letters = {"x": {}, "y": {}}
    for t, tree_words in zip(trees, words):
        memo = {"": t}

        def along(word):
            if word not in memo:
                var = word[-1]
                memo[word] = differentiate(along(word[:-1]), var,
                                           letters.get(var))
            return memo[word]

        derived.extend(along(w) for w in tree_words)
    return compile_float(derived)
