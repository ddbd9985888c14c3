"""Metrisability obstructions of a projective structure at a point.

Everything here works on truncated Taylor jets of the four ODE coefficients
at a chosen base point.  The central objects:

  * the two fifth-order scalars L1, L2 (coefficients of the first
    point invariant, which is -6(L1 + L2 p) linear in the slope p);
  * the obstruction row vector V built from L1, L2 and their first
    derivatives;
  * the pair of 6x6 connection matrices O1, O2 of the prolonged
    metrisability system, against which V is differentiated covariantly
    (D_a V = dV/da - V O_a);
  * determinant/rank conditions on stacks of covariant derivatives of V
    (the 6x6 matrix M, its 21x6 saturation, the order-6 pair E1/E2, and
    rank-stratified order-7/order-8 determinants);
  * a dimension count for the space of solutions by rank stabilisation.

L, V and the connection are each one formula (`liouville_formula`,
`vector_formula`, `connection_formula`) over operands of any arithmetic.
Each is run once, on first use, on symbols, as expression trees
(`formula_trees`), and a tape is read off them (`formula_tape`, exact and
in floats): one entry per distinct operation on distinct operands, with
constants folded.  `tractor.stack_tape` is read by the same reader.  A point replays the tapes on its raw jet tables
(`jets.run_tape`), L and the connection from one extraction of the
coefficients' 24 derivative tables; the recover transport compiles the
connection's trees per axis.  The covariant derivative rows of V are
raw tables, an exact row over one unreduced denominator (`cov_deriv`),
and read each connection matrix's tables truncated once per order.

`decide_metrisability` combines these into a verdict over a sample of
points.  All derivative bookkeeping truncates uniformly, so a jet of order
N supports L at order N-2, V at order N-3, and k-fold derivatives of V at
order N-3-k; the full verdict needs N >= 8.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul

from . import linalg
from .jets import (_BARE_DERIVATIVE, InsufficientOrderError, Jet, JetError,
                   SingularEvaluationError, _derivative_plan, _mul_sub,
                   _scaled, _truncation_plan, run_tape, tape_tables,
                   word_tables)
from .expressions import (ZERO, BinOp, Diff, Num, Var, choose_arithmetic,
                          eval_jet)

F13 = Fraction(1, 3)
F23 = Fraction(2, 3)
F43 = Fraction(4, 3)
F89 = Fraction(8, 9)
F169 = Fraction(16, 9)
F49 = Fraction(4, 9)
F29 = Fraction(2, 9)
F83 = Fraction(8, 3)
F203 = Fraction(20, 3)

VERDICT_FLAT = "MetrisableFlat"
VERDICT_METRISABLE = "Metrisable"
VERDICT_NOT = "NotMetrisable"
VERDICT_DEGENERATE = "DegenerateKernel"
VERDICT_INCONCLUSIVE = "Inconclusive"


class JetStructure:
    """Coefficient jets of one structure at one point, with caches for the
    derived invariants so repeated queries don't recompute them."""

    def __init__(self, a_jets):
        a0, a1, a2, a3 = a_jets
        for a in (a1, a2, a3):
            if a.base != a0.base or a.order != a0.order:
                raise ValueError("coefficient jets must share base and order")
            if a.exact != a0.exact:
                raise ValueError("coefficient jets must share one arithmetic")
        self.a = (a0, a1, a2, a3)
        self._words = None
        self._L = None
        self._conn = None
        self._columns = None
        self._rows = {}

    @classmethod
    def at(cls, structure, point, order, mode="auto"):
        """The coefficients' jets at `point`, all in the one arithmetic
        that `mode` gives the four trees there."""
        kind = choose_arithmetic(structure.coefficients, point, mode)
        memo = {}
        return cls(tuple(
            eval_jet(c, point, order, kind, memo)
            for c in structure.coefficients
        ))

    @property
    def order(self):
        return self.a[0].order

    @property
    def base(self):
        return self.a[0].base

    @property
    def exact(self):
        return self.a[0].exact

    def _zero(self, order):
        return 0 * self.a[0].truncated(order)

    def coefficient_tables(self):
        """A0..A3 along CONNECTION_WORDS at order N-2, coefficient-major, as
        the raw tables (`jets.word_tables`) that L and the connection read:
        one extraction for both."""
        if self._words is None:
            self._words = word_tables(self.a, CONNECTION_WORDS,
                                      self.order - 2)
        return self._words

    def liouville(self):
        if self._L is None:
            self._L = _liouville_L(self)
        return self._L

    def connection(self):
        """(O1, O2) at order max(N-4, 0), the highest order a covariant
        derivative of V reads; each reads it truncated to its own."""
        if self._conn is None:
            self._conn = _connection_matrices(self, max(self.order - 4, 0))
        return self._conn

    def columns(self, var):
        """O_x or O_y as `Columns`."""
        if self._columns is None:
            self._columns = dict(zip("xy", map(Columns.of,
                                               self.connection())))
        return self._columns[var]

    def levels(self, depth):
        """Covariant derivative rows of V up to `depth`: level k holds the
        words x^(k-j) y^j by increasing j."""
        if depth > self.order - 3:
            raise InsufficientOrderError(depth + 3, self.order)
        return [[self.row(w) for w in level_words(k)]
                for k in range(depth + 1)]

    def row(self, word):
        """Covariant derivative row D_word V, letters applied left to right
        ("" is V itself), memoised by word: each word extends its prefix by
        one covariant derivative.  A row is raw, (order, den, tables): its
        six entries' tables at order N-3 minus the word's length, exact
        ones as integer numerators over one unreduced denominator den > 0,
        float ones with den None, and at order 0 each its one cell, bare."""
        if word not in self._rows:
            if word:
                ch = word[-1]
                self._rows[word] = cov_deriv(self.row(word[:-1]),
                                             self.columns(ch), ch)
            else:
                self._rows[word] = _vector_V(self)
        return self._rows[word]


def level_words(k):
    """The derivative words of level k: x^(k-j) y^j by increasing j."""
    return ["x" * (k - j) + "y" * j for j in range(k + 1)]


# ---------------- the formulas of L, V and the connection ----------------
#
# Each formula is written once, over operands of any arithmetic: jets,
# floats, or expression trees, off which its tapes are read (below).


# Derivative words of the coefficients that L and the connection formulas
# read, letters applied left to right.
CONNECTION_WORDS = ("", "x", "y", "xx", "xy", "yy")

# The rational constants of the formulas, and their floats: a Fraction
# times a float is the same float product, but much slower.  L, V and the
# tractor's trace-free symbols read the first three too.
CONNECTION_RATIONALS = (F13, F23, F43, F89, F169, F49, F29, F83, F203)
CONNECTION_FLOATS = tuple(float(c) for c in CONNECTION_RATIONALS)


def liouville_formula(derivs, rationals=CONNECTION_RATIONALS):
    """Liouville's scalars (L1, L2) from the coefficients' derivatives:
    `derivs[k]` holds A_k along CONNECTION_WORDS, in the arithmetic of the
    constants `rationals` (as `connection_formula` takes them)."""
    F13, F23 = rationals[:2]
    ((a0t, a0x, a0y, _, _, a0yy),
     (a1t, a1x, a1y, _, a1xy, a1yy),
     (a2t, a2x, a2y, a2xx, a2xy, _),
     (a3t, a3x, a3y, a3xx, _, _)) = derivs
    l1 = (
        F23 * a1xy - F13 * a2xx - a0yy
        + a0t * a2y + a2t * a0y
        - a3t * a0x - 2 * a0t * a3x
        - F23 * a1t * a1y + F13 * a1t * a2x
    )
    l2 = (
        F23 * a2xy - F13 * a1yy - a3xx
        - a3t * a1x - a1t * a3x
        + a0t * a3y + 2 * a3t * a0y
        + F23 * a2t * a2x - F13 * a2t * a1y
    )
    return (l1, l2)


def vector_formula(operands, z, rationals=CONNECTION_RATIONALS):
    """The obstruction row V from `operands`, (L1, L1_x, L1_y, L2, L2_x,
    L2_y, A0, A1, A2, A3); `z` is the zero of their arithmetic, whose
    constants `rationals` are."""
    l1, l1x, l1y, l2, l2x, l2y, a0, a1, a2, a3 = operands
    F43 = rationals[2]
    return (
        2 * l2y + 4 * a2 * l2 + 8 * a3 * l1,
        -2 * l1y - 2 * l2x - F43 * a1 * l2 + F43 * a2 * l1,
        2 * l1x - 8 * a0 * l2 - 4 * a1 * l1,
        -5 * l2,
        -5 * l1,
        z,
    )


def connection_formula(derivs, z, rationals=CONNECTION_RATIONALS):
    """(O1, O2) from the coefficients' derivatives: `derivs[k]` holds A_k
    along CONNECTION_WORDS, and `z` is the zero of their arithmetic, whose
    constants `rationals` are: CONNECTION_RATIONALS for exact jets,
    CONNECTION_FLOATS for float jets and floats.  Truncated jets give the
    connection as jets, floats its value at a point."""
    F13, F23, F43, F89, F169, F49, F29, F83, F203 = rationals
    one = z + 1
    ((a0t, a0x, a0y, a0xx, a0xy, a0yy),
     (a1t, a1x, a1y, a1xx, a1xy, a1yy),
     (a2t, a2x, a2y, a2xx, a2xy, a2yy),
     (a3t, a3x, a3y, a3xx, a3xy, a3yy)) = derivs
    half = one / 2

    o141 = -F43 * a2x + 4 * a0t * a3t + F23 * a1y
    o142 = -2 * a0y + F23 * a1x + 4 * a2t * a0t - F49 * a1t * a1t
    o143 = 2 * a0x - 4 * a0t * a1t
    o161 = (
        -F43 * a2xy - F203 * a0t * a2t * a3t
        + F23 * a1yy + 4 * a3t * a0y - 2 * a0t * a3y
        - F169 * a2t * a2x + F89 * a2t * a1y
    )
    o162 = (
        F23 * a1xy - F43 * a1t * a1y + 2 * a0t * a2y
        - 2 * a0yy + 4 * a2t * a0y + 4 * a3t * a0x
        + 6 * a0t * a3x + F89 * a1t * a2x
        + F43 * a0t * a1t * a3t - F43 * a0t * a2t * a2t
    )
    o163 = (
        2 * a0xy + F23 * a0t * a2x - F43 * a2t * a0x
        - 4 * a1t * a0y - F43 * a0t * a1y
        + F83 * a0t * a1t * a2t + 4 * a3t * a0t * a0t
    )
    o164 = F43 * a2x - a1y + 5 * a0t * a3t
    o165 = F13 * a1x - 4 * a0y + 3 * a2t * a0t - F29 * a1t * a1t

    omega1 = (
        (-F23 * a1t, 2 * a0t, z, z, z, z),
        (z, z, z, -half, z, z),
        (-2 * a3t, -F23 * a2t, F43 * a1t, z, one, z),
        (o141, o142, o143, -F13 * a1t, -3 * a0t, z),
        (z, z, z, z, z, -one),
        (o161, o162, o163, o164, o165, -F13 * a1t),
    )

    o251 = -2 * a3y - 4 * a3t * a2t
    o252 = 2 * a3x - F23 * a2y + 4 * a1t * a3t - F49 * a2t * a2t
    o253 = F43 * a1y - F23 * a2x + 4 * a0t * a3t
    o261 = (
        -2 * a3xy - 4 * a2t * a3x - F43 * a3t * a2x
        + F23 * a3t * a1y - F43 * a1t * a3y
        - 4 * a0t * a3t * a3t - F83 * a1t * a2t * a3t
    )
    o262 = (
        2 * a3xx - F43 * a2t * a2x - F43 * a0t * a2t * a3t
        - F23 * a2xy + 4 * a1t * a3x + 4 * a0t * a3y
        + 6 * a3t * a0y + F43 * a3t * a1t * a1t + 2 * a3t * a1x
        + F89 * a2t * a1y
    )
    o263 = (
        -F23 * a2xx + F89 * a1t * a2x + 4 * a0t * a3x
        - 2 * a3t * a0x - F169 * a1t * a1y + F43 * a1xy
        + F203 * a0t * a1t * a3t
    )
    o264 = 4 * a3x - F13 * a2y + 3 * a1t * a3t - F29 * a2t * a2t
    o265 = a2x - F43 * a1y + 5 * a0t * a3t

    omega2 = (
        (-F43 * a2t, F23 * a1t, 2 * a0t, one, z, z),
        (z, z, z, z, -half, z),
        (z, -2 * a3t, F23 * a2t, z, z, z),
        (z, z, z, z, z, -one),
        (o251, o252, o253, 3 * a3t, F13 * a2t, z),
        (o261, o262, o263, o264, o265, F13 * a2t),
    )
    return (omega1, omega2)


# ---------------- the formulas as trees, and their tapes ----------------


def _formula(name, operands, z, rationals):
    """The outputs of formula `name` ("liouville", "vector" or
    "connection") on its operands in order, flat: for L and the connection
    the 24 of A0..A3 along CONNECTION_WORDS, coefficient-major."""
    if name == "vector":
        return vector_formula(operands, z, rationals)
    derivs = [operands[6 * k:6 * k + 6] for k in range(4)]
    if name == "liouville":
        return liouville_formula(derivs, rationals)
    if name != "connection":
        raise ValueError("no formula %r" % (name,))
    return [e for m in connection_formula(derivs, z, rationals)
            for row in m for e in row]


@functools.cache
def formula_trees(name):
    """(symbols, trees): formula `name` run once, on first use, on `Var`
    leaves named for its operands (a0t, a0x, ..., a3yy: A0..A3 along
    CONNECTION_WORDS, t the value), with CONNECTION_RATIONALS and ZERO, so
    that the trees' `+ - * /` record it with its constants folded."""
    if name == "vector":
        symbols = tuple("l1 l1x l1y l2 l2x l2y a0t a1t a2t a3t".split())
    else:
        symbols = tuple("a%d%s" % (k, w or "t") for k in range(4)
                        for w in CONNECTION_WORDS)
    return symbols, tuple(_formula(name, tuple(map(Var, symbols)), ZERO,
                                   CONNECTION_RATIONALS))


_TAPE_OPS = {"+": "add", "-": "sub", "*": "mul"}


def _read_tape(trees, symbols):
    """(ops, outputs, ups), the exact tape of `trees` over the inputs
    `symbols`: one op per distinct op and operands, so one per distinct
    subtree.  A product of two symbols is "mul", of a number and a symbol
    "scale" by the number, + and - are "add" and "sub", and a `Diff` node
    "dx" or "dy"; a symbol negated, divided, or meeting a number other than
    by a product raises TypeError.  A constant tree's output is its `Num`.
    Each op then runs as low as its readers allow (`_lowered`)."""
    slots = {s: i for i, s in enumerate(symbols)}  # and each op's slot
    ops = []
    # each node read once, by identity: `trees` keeps every node alive, so
    # an id names one node while this runs
    memo = {}

    def record(op):
        slot = slots.get(op)
        if slot is None:
            slot = slots[op] = len(symbols) + len(ops)
            ops.append(op)
        return slot

    def read(t):
        slot = memo.get(id(t))
        if slot is None:
            slot = memo[id(t)] = build(t)
        return slot

    def build(t):
        kind = type(t)
        if kind is BinOp and t.op in "+-*":
            x, y = read(t.left), read(t.right)
            if type(x) is int and type(y) is int:
                return record((_TAPE_OPS[t.op], x, y))
            if t.op == "*" and int in (type(x), type(y)):
                c, x = (x, y) if type(y) is int else (y, x)
                return record(("scale", x, c.value))
        elif kind is Var:
            return slots[t.name]
        elif kind is Num:
            return t
        elif kind is Diff:
            x = read(t.arg)
            if type(x) is int:
                return record(("d" + t.var, x, None))
        raise TypeError("a tape meets a symbol only with symbols, and with "
                        "numbers by multiplication")

    return _lowered(ops, [read(t) for t in trees], len(symbols))


def _lowered(ops, outputs, k):
    """(ops, outputs, ups) with every slot at the lowest order its readers
    need: `ups[i]` is slot i's order above the outputs', which are at 0,
    and a derivative reads its operand one order higher.  A reader that
    needs a slot lower than that reads it through a ("trunc", x, up) op,
    where up is slot x's own; one per slot and order.  Without derivatives
    every up is 0 and the ops are as recorded."""
    need = [0] * (k + len(ops))
    for i in range(len(ops) - 1, -1, -1):
        kind, x, y = ops[i]
        up = need[k + i] + (kind[0] == "d")
        if up > need[x]:
            need[x] = up
        if type(y) is int and up > need[y]:  # y is a slot
            need[y] = up
    new, ups, where, truncs = [], need[:k], list(range(k)), {}

    def read(x, up):  # the new slot of old slot x at order up
        x = where[x]
        if ups[x] == up:
            return x
        t = truncs.get((x, up))
        if t is None:
            t = truncs[x, up] = len(ups)
            new.append(("trunc", x, ups[x]))
            ups.append(up)
        return t

    for (kind, x, y), up in zip(ops, need[k:]):
        if type(y) is int:
            op = (kind, read(x, up), read(y, up))
        else:
            op = (kind, read(x, up + (kind[0] == "d")), y)
        where.append(len(ups))
        new.append(op)
        ups.append(up)
    outputs = tuple(read(o, 0) if type(o) is int else o for o in outputs)
    return tuple(new), outputs, tuple(ups)


def float_ops(ops):
    """The ops of an exact tape in float arithmetic: each scaling by its
    number's float."""
    return tuple((op, x, float(y)) if op == "scale" else (op, x, y)
                 for op, x, y in ops)


@functools.cache
def formula_tape(name, exact):
    """The tape of formula `name` in exact or float arithmetic, read on
    first use, never at import, off its trees (`formula_trees`), whose
    symbols are its inputs in order; the float tape is the exact one in
    floats.  Each distinct op is recorded once: the connection's 220 jet
    operations are 183 ops, 56 products, 63 scalings and 64 sums or
    differences.  A constant output is its number, in a float tape with
    the tail that the formula gives it on order-1 zero jets, so that -1/2
    and -1 keep their negative zeros."""
    if exact:
        symbols, trees = formula_trees(name)
        ops, outputs, ups = _read_tape(trees, symbols)
        return ops, tuple(o if type(o) is int else (
            o.value.numerator, 0, o.value.denominator) for o in outputs), ups
    ops, outputs, ups = formula_tape(name, True)
    if all(type(o) is int for o in outputs):  # no constant to fold
        return float_ops(ops), outputs, ups
    zero = Jet.constant(0.0, (0, 0), 1)
    symbols, _ = formula_trees(name)
    tables = _formula(name, (zero,) * len(symbols), zero, CONNECTION_FLOATS)
    return float_ops(ops), tuple(o if type(o) is int else (
        jet.coeffs[0][0], jet.coeffs[1][0], None)
        for o, jet in zip(outputs, tables)), ups


def _liouville_L(js):
    """(L1, L2) as jets of order N-2, by the "liouville" tape."""
    n = js.order
    return tuple(run_tape(formula_tape("liouville", js.exact),
                          js.coefficient_tables(), n - 2, js.base, n - 2))


def nu5(js):
    """Fifth-order relative invariant whose vanishing (on top of a rank-3
    degeneracy) signals the Liouville-type branch."""
    if js.order < 3:
        raise InsufficientOrderError(3, js.order)
    l1j, l2j = js.liouville()
    l1, l2 = l1j.value, l2j.value
    l1x, l1y = l1j.partial(1, 0), l1j.partial(0, 1)
    l2x, l2y = l2j.partial(1, 0), l2j.partial(0, 1)
    a0, a1, a2, a3 = (j.value for j in js.a)
    try:
        return (
            l2 * (l1 * l2x - l2 * l1x)
            + l1 * (l2 * l1y - l1 * l2y)
            + a3 * l1**3 - a2 * l1**2 * l2 + a1 * l1 * l2**2 - a0 * l2**3
        )
    except OverflowError:
        # a float ** overflows where a product would give inf
        raise SingularEvaluationError("value out of float range",
                                      js.base) from None


# ---------------- the obstruction vector and its connection ----------------


def _vector_V(js):
    """V as the raw row (`JetStructure.row`) of order N-3, by the "vector"
    tape."""
    n = js.order
    if n < 3:
        raise InsufficientOrderError(3, n)
    m = n - 3
    tables = (word_tables(js.liouville(), ("", "x", "y"), m)
              + word_tables(js.a, ("",), m))
    tables, den = _over_one_denominator(
        tape_tables(formula_tape("vector", js.exact), tables, m, m))
    return m, den, tuple(t if m else t[0] for t in tables)


def _over_one_denominator(tables):
    """(cells, d): raw tables (cells, den) of one arithmetic, exact ones as
    numerators over their common denominator d, float ones with d None."""
    d = None if tables and tables[0][1] is None else math.lcm(
        *(den for _, den in tables))
    return [cells if d is None else _scaled(cells, d // den)
            for cells, den in tables], d


def _connection_matrices(js, m):
    """The pair (O1, O2) of 6x6 connection matrices of the prolonged
    system, as jets of order m <= N-2, by the "connection" tape on the
    coefficients' word tables truncated to m.  That gives the order-(N-2)
    pair truncated to m bit for bit: a product's cell sums the same terms
    in the same order at every truncation."""
    n = js.order
    if n < m + 2:
        raise InsufficientOrderError(m + 2, n)
    e = run_tape(formula_tape("connection", js.exact),
                 js.coefficient_tables(), n - 2, js.base, m)
    return tuple(tuple(tuple(e[36 * k + 6 * i:36 * k + 6 * i + 6])
                       for i in range(6)) for k in range(2))


def cov_deriv(row, omega, var):
    """D_a V = dV/da - V . O_a of a raw row (`JetStructure.row`) of order
    n >= 1 along O_a's `Columns`, as the raw row of order n - 1.  Column j
    is one `jets._mul_sub` of entry j's derivative and the products of the
    truncated entries i and O_a[i][j], in the order of i: the jet chain's
    floats bit for bit.  An exact row over den gives one over den * d,
    where d is O_a's common denominator.  At order 0 a link subtracts
    zero + a*b where a and b are nonzero, `_mul_sub`'s one cell."""
    n, den, tables = row
    if n < 1:
        raise InsufficientOrderError(1, 0)
    entries, d = omega.at(n - 1)
    if entries and (den is None) is not (d is None):
        raise JetError("cov_deriv takes a row and a connection of one "
                       "arithmetic")
    zero, den = (0.0, None) if den is None else (0, den * d)
    if n > 1:
        take, mults = _derivative_plan(n, var)
        if den is not None and d != 1:
            mults = [k * d for k in mults]
        cut = _truncation_plan(n, n - 1)
        heads = [tuple(map(mul, mults, take(t))) for t in tables]
        cuts = [cut(t) for t in tables]
        return n - 1, den, tuple([
            _mul_sub(heads[j], [(cuts[i], entries[k]) for i, k in column],
                     n - 1, zero)
            for j, column in enumerate(omega.pattern)])
    at = _BARE_DERIVATIVE["d" + var]
    out = []
    for t, column in zip(tables, omega.pattern):
        c = t[at] if den is None else t[at] * d
        for i, k in column:
            a, b = tables[i][0], entries[k]
            if a and b:
                c = c - (zero + a * b)
        out.append(c)
    return 0, den, tuple(out)


class Columns:
    """O_a, a 6x6 connection matrix of jets of one order, as `cov_deriv`
    reads it.  `pattern` gives column j as the pairs (i, k) of its entries
    O_a[i][j] that are not zero, in the order of i, k numbering them column
    after column, and `at(m)` gives their raw tables truncated to m."""

    @classmethod
    def of(cls, omega):
        columns = cls()
        nonzero = [[(i, omega[i][j]) for i in range(6)
                    if not omega[i][j].is_zero()] for j in range(6)]
        entries = [e for column in nonzero for _, e in column]
        if len({e.order for e in entries}) > 1:
            raise JetError("the entries of a connection share one order")
        index = iter(range(len(entries)))
        columns.pattern = tuple(tuple((i, next(index)) for i, _ in column)
                                for column in nonzero)
        columns.order = entries[0].order if entries else 0
        columns._top = _over_one_denominator(
            word_tables(entries, ("",), columns.order) if entries else [])
        columns._tables = {}
        return columns

    def at(self, order):
        """(tables, d): the entries' raw tables truncated to `order`, once
        per order: exact ones numerators over their common denominator d,
        float ones with d None, and at order 0 each its one cell, bare."""
        if order not in self._tables:
            tables, d = self._top
            if tables and order > self.order:
                raise InsufficientOrderError(order, self.order)
            cut = (itemgetter(0) if order == 0
                   else _truncation_plan(self.order, order))
            self._tables[order] = [cut(cells) for cells in tables], d
        return self._tables[order]


# ---------------- determinant/rank stacks ----------------


def _row_values(row):
    """The values of a raw row's entries: reduced Fractions, or floats."""
    n, den, tables = row
    cells = tables if n == 0 else [t[0] for t in tables]
    return list(cells) if den is None else [Fraction(c, den) for c in cells]


def _level_rows(js, depth):
    """Values of the derivative rows of V through `depth`, level by level:
    the rows through level k are the first (k+1)(k+2)/2."""
    return [_row_values(row) for level in js.levels(depth) for row in level]


# The jet order matrix_M needs: levels(2) reads derivative level 2 of V, and
# V costs three orders.  nu5 needs 3 and L1, L2 need 2.
MATRIX_M_ORDER = 5


def matrix_M(js):
    """The 6x6 stack (V, D_xV, D_yV, D_(xx)V, D_(xy)V, D_(yy)V) of values."""
    return _level_rows(js, 2)


def matrix_Mmax(js):
    """All derivative rows of V through order five: 21 x 6."""
    return _level_rows(js, 5)


# The order-6 pair's standard rows (rows 0, 1, 2, 3, 5 of the stack through
# level 3) and its two tops (rows 6 and 9).
E_BASE_WORDS = ("", "x", "y", "xx", "yy")
E_TOP_WORDS = ("xxx", "yyy")


def sixth_order_E(js, tol=1e-9):
    """The order-6 determinant pair.

    Returns (e1, e2, fallback).  The standard choice fixes the five rows
    (V, x, y, xx, yy) and tops them with xxx (E1) or yyy (E2).  If those
    five are dependent, fall back to a greedy scan of all rows through
    order three in graded order, take the first five independent ones, and
    use the next two rows in the scan as the alternative tops; fallback is
    True.  Both are None when no five independent rows exist (the rank has
    dropped; the stratified stacks apply instead).
    The standard choice builds only its seven rows; the scan builds all
    ten rows through level 3.  The scan feeds exact rows to one
    `linalg.ExactElimination`, which tells whether each row raises the
    rank; float prefixes are ranked one at a time by `linalg.rank_kernel`.
    """
    base = [_row_values(js.row(w)) for w in E_BASE_WORDS]
    if linalg.rank_kernel(base, tol).rank == 5:
        e1, e2 = (linalg.det(base + [_row_values(js.row(w))])
                  for w in E_TOP_WORDS)
        return e1, e2, False
    rows = _level_rows(js, 3)
    chosen = []
    if js.exact:
        independent = linalg.ExactElimination(6).add
    else:
        def independent(row):
            rank = linalg.rank_kernel(chosen + [row], tol).rank
            return rank == len(chosen) + 1

    for i, row in enumerate(rows):
        if len(chosen) == 5:
            break
        if independent(row):
            chosen.append(row)
    else:
        return None, None, True
    tops = rows[i:i + 2]
    if len(tops) < 2:
        return None, None, True
    return (linalg.det(chosen + [tops[0]]), linalg.det(chosen + [tops[1]]),
            True)


def stratified_obstruction(js, rank_case, tol=1e-9):
    """Single determinant adapted to a degenerate rank of M.

    rank 3 -> order-8 stack (V, Vx, Vxx, ..., Vxxxxx), valid when
    (V, Vx, Vxx) are independent; rank 4 -> order-7 stack
    (V, Vx, Vxy, Vxx, Vxxx, Vxxxx), valid when (V, Vx, Vy, Vxx) are
    independent.  Each falls back to the x<->y swap.  Returns (det, words),
    the determinant and the stack's derivative words, or None when neither
    frame is independent (the pencil is closed at lower rank).
    """
    if rank_case not in (3, 4):
        raise ValueError("stratified stacks exist for rank 3 or 4 only")

    def build(words, guard_words):
        guard = [_row_values(js.row(w)) for w in guard_words]
        if linalg.rank_kernel(guard, tol).rank != len(guard):
            return None
        rows = [_row_values(js.row(w)) for w in words]
        return linalg.det(rows), tuple(words)

    if rank_case == 3:
        words = ("", "x", "xx", "xxx", "xxxx", "xxxxx")
        guards = ("", "x", "xx")
    else:
        words = ("", "x", "xy", "xx", "xxx", "xxxx")
        guards = ("", "x", "y", "xx")

    swap = str.maketrans("xy", "yx")
    return build(words, guards) or build(
        tuple(w.translate(swap) for w in words),
        tuple(g.translate(swap) for g in guards))


# ---------------- solution space dimension ----------------


@dataclass
class CartanResult:
    ranks: list             # rank of the stack through each level
    marginal: bool          # a float rank decision was marginal
    det_m: object           # det of the level-2 stack, M (None below it)
    kernel: list            # kernel of the level-5 stack ([] below it)
    stabilized_at: object
    s_dim: object
    koenigs_ok: object


def cartan_stabilize(js, tol=1e-9):
    """Dimension of the solution space by rank stabilisation.

    Stack the derivative rows of V level by level; as soon as the rank of
    the stack through level K equals the rank through level K+1, it has
    stabilised and the solution space has dimension S = 6 - rank.  S = 5
    never occurs for these pencils, so it is flagged.  The stacks through
    levels 2 and 5 are M and its saturation, so their rank decisions, det M
    and the saturation's kernel are the ones `analyze_point` reports.

    Exact rows are fed level by level to one `linalg.ExactElimination`,
    which reads the rank after each level.  An exact rank of 6 can neither
    grow nor drop, so once it is reached every later stack has rank 6 and
    an empty kernel, and no further row is built.  Float stacks are ranked
    one prefix at a time by `linalg.rank_kernel`, each with its own
    threshold.
    """
    k_cap = js.order - 4
    if k_cap < 0:
        raise InsufficientOrderError(4, js.order)

    depth = k_cap + 1
    det_m, kernel, marginal = None, [], False
    if js.exact:
        e = linalg.ExactElimination(6)
        ranks = []
        for k in range(depth + 1):
            for w in level_words(k):
                if e.rank == 6:
                    break
                e.add(_row_values(js.row(w)))
            ranks.append(e.rank)
            if k == 2:
                det_m = e.det()
            elif k == 5:
                kernel = e.kernel()
    else:
        rows = _level_rows(js, depth)
        stacks = [linalg.rank_kernel(rows[:(k + 1) * (k + 2) // 2], tol)
                  for k in range(depth + 1)]
        ranks = [res.rank for res in stacks]
        marginal = any(res.marginal for res in stacks)
        if depth >= 2:
            det_m = stacks[2].det
        if depth >= 5:
            kernel = stacks[5].kernel
    for k in range(depth):
        if ranks[k] == ranks[k + 1]:
            s = 6 - ranks[k]
            return CartanResult(ranks, marginal, det_m, kernel, k, s, s != 5)
    return CartanResult(ranks, marginal, det_m, kernel, None, None, None)


# ---------------- degenerate-branch scalar obstruction ----------------


def degenerate_obstruction(ja):
    """Sixth-order obstruction for the special family y'' = -A(x,y) (only
    the zeroth slope coefficient present, with A the connection component).

    Takes the jet of A itself and needs order >= 6.
    """
    p = ja.partial
    dy2, dy3, dy4, dy5 = p(0, 2), p(0, 3), p(0, 4), p(0, 5)
    dxy2, dxy3, dxy4 = p(1, 2), p(1, 3), p(1, 4)
    return (
        7 * dy3 * dy4 * dxy3
        - 5 * dxy3 * dy5 * dy2
        - 6 * dxy4 * dy3**2
        + 6 * dy5 * dxy2 * dy3
        - 7 * dy4**2 * dxy2
        + 5 * dxy4 * dy4 * dy2
    )


# ---------------- kernel inspection and verdicts ----------------


def genericity_P(w):
    """W1 W3 - W2^2, the one discriminant of a symmetric form, for trees,
    jets and floats: P(W) of a kernel vector, Delta of a section and EG -
    F^2 of a metric.  Zero means a degenerate candidate metric."""
    return w[0] * w[2] - w[1] * w[1]


def kernel_has_nondegenerate(basis, tol=1e-9):
    """Search the kernel basis and all pairwise sums for a vector with
    P != 0.  Returns (witness, marginal)."""
    if not basis:
        return None, False
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cands.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    exact = all(
        isinstance(v, Fraction) for w in cands for v in w
    )
    best = None
    best_q = None
    for w in cands:
        q = genericity_P(w)
        if best_q is None or abs(q) > abs(best_q):
            best, best_q = w, q
    if exact:
        if best_q != 0:
            return best, False
        return None, False
    scale = max(1.0, max(abs(float(v)) for w in cands for v in w))
    thr = tol * scale * scale
    aq = abs(float(best_q))
    if aq > 10.0 * thr:
        return best, False
    if aq > thr:
        return best, True
    return None, aq > thr / 10.0


@dataclass
class PointReport:
    point: tuple
    mode: str
    verdict: str
    flat: bool
    marginal: bool
    l1: object
    l2: object
    i1_coeffs: tuple
    nu5: object
    v_row: tuple
    det_m: object
    rank_m: int
    e1: object = None
    e2: object = None
    e_fallback: bool = False
    order7: object = None
    order8: object = None
    stratified_rows: tuple = ()
    rank_mmax: object = None
    kernel: list = field(default_factory=list)
    witness: object = None
    p_value: object = None
    s_dim: object = None
    cartan_ranks: list = field(default_factory=list)
    koenigs_ok: object = None
    notes: list = field(default_factory=list)


@dataclass
class ObstructionReport:
    verdict: str
    points: list
    order: int
    tolerance: float
    mode: str
    notes: list = field(default_factory=list)


def analyze_point(structure, point, order=10, tol=1e-9, mode="auto"):
    """The `PointReport` of one sample point at jet order `order` (>= 5).

    The verdict is the first rule that applies:
      1. a marginal float rank decision or witness -> Inconclusive;
      2. rank M = 6, or rank 6 of the saturated stack -> NotMetrisable;
      3. order below 8 (no saturated stack) -> Inconclusive;
      4. a kernel vector with P(W) != 0 (a witness) -> Metrisable;
      5. otherwise -> DegenerateKernel.
    The order-6 pair E1/E2 and the order-7 and order-8 determinants are
    reported but do not decide the verdict.
    """
    if order < 5:
        raise InsufficientOrderError(5, order)
    js = JetStructure.at(structure, point, order, mode)
    notes = []

    l1j, l2j = js.liouville()
    flat = l1j.is_zero() and l2j.is_zero()
    nu = nu5(js)

    cres = cartan_stabilize(js, tol)
    marginal = cres.marginal
    # M is the level-2 stack, so its rank decision also gives det M
    rank_m, det_m = cres.ranks[2], cres.det_m
    v_row = tuple(_row_values(js.row("")))

    e1 = e2 = None
    e_fallback = False
    if js.order >= 6:
        e1, e2, e_fallback = sixth_order_E(js, tol)
        if e_fallback:
            notes.append("order-6 pair used fallback rows")

    order7 = order8 = None
    strat_rows = ()
    if rank_m in (3, 4) and js.order >= 11 - rank_m:
        sres = stratified_obstruction(js, rank_m, tol)
        if sres is None:
            notes.append("rank-%d stack closed at lower rank" % rank_m)
        elif rank_m == 4:
            order7, strat_rows = sres
        else:
            order8, strat_rows = sres

    rank_mmax = None
    kernel = []
    witness = None
    p_value = None
    if js.order >= 8:
        rank_mmax = cres.ranks[5]
        kernel = cres.kernel
        witness, wit_marginal = kernel_has_nondegenerate(kernel, tol)
        marginal = marginal or wit_marginal
        if witness is not None:
            p_value = genericity_P(witness)
        elif kernel:
            p_value = 0

    if cres.stabilized_at is None:
        notes.append("derivative ranks did not stabilise "
                     "within the available order")

    # an exact rank decision is never marginal
    if marginal:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("rank decisions were numerically marginal")
    elif rank_m == 6:
        verdict = VERDICT_NOT
    elif rank_mmax == 6:
        verdict = VERDICT_NOT
    elif rank_mmax is None:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("jet order below 8: saturated stack unavailable")
    elif witness is not None:
        verdict = VERDICT_METRISABLE
    else:
        verdict = VERDICT_DEGENERATE

    return PointReport(
        point=tuple(point),
        mode="exact" if js.exact else "float",
        verdict=verdict,
        flat=flat,
        marginal=marginal,
        l1=l1j.value,
        l2=l2j.value,
        i1_coeffs=(-6 * l1j.value, -6 * l2j.value),
        nu5=nu,
        v_row=v_row,
        det_m=det_m,
        rank_m=rank_m,
        e1=e1,
        e2=e2,
        e_fallback=e_fallback,
        order7=order7,
        order8=order8,
        stratified_rows=strat_rows,
        rank_mmax=rank_mmax,
        kernel=kernel,
        witness=witness,
        p_value=p_value,
        s_dim=cres.s_dim,
        cartan_ranks=cres.ranks,
        koenigs_ok=cres.koenigs_ok,
        notes=notes,
    )


def decide_metrisability(structure, points, order=10, tol=1e-9, mode="auto"):
    """Verdict over a sample of points.

    All points flat (both scalar invariants vanish to the working order)
    gives MetrisableFlat.  Otherwise each point is classified on its own
    and a unanimous classification is returned; disagreement between points
    or any marginal numerics gives Inconclusive.
    """
    if not points:
        raise ValueError("at least one sample point is required")
    reports = [
        analyze_point(structure, p, order, tol, mode) for p in points
    ]
    notes = []
    modes = {r.mode for r in reports}
    mode_tag = modes.pop() if len(modes) == 1 else "mixed"

    if all(r.flat for r in reports):
        return ObstructionReport(VERDICT_FLAT, reports, order, tol, mode_tag,
                                 ["flat to the working order at every "
                                  "sample point"])
    verdicts = {r.verdict for r in reports}
    if len(verdicts) == 1:
        verdict = verdicts.pop()
    else:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("sample points disagree: " + ", ".join(
            sorted("%s at (%s, %s)" % (r.verdict, r.point[0], r.point[1])
                   for r in reports)
        ))
    return ObstructionReport(verdict, reports, order, tol, mode_tag, notes)
