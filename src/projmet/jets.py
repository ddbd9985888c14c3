"""Truncated bivariate Taylor arithmetic.

A Jet holds the scaled Taylor table of a scalar field f at a base point:

    coeffs[i][j] = (1 / (i! j!)) * d^(i+j) f / dx^i dy^j,   i + j <= order.

Storing coefficients already divided by the factorials makes products plain
Cauchy convolutions.  Jets are immutable; every operation returns a new jet
and demands that both operands share the base point and the truncation order.

Coefficients live in a two-member scalar tower: exact `Fraction` or `float`.
An exact jet stores a table of integer numerators over one positive common
denominator, reduced after every operation so that the denominator and the
numerators share no factor.  Its ring operations are integer multiply-adds
with one gcd per result, and division runs the quotient recurrence on
integers scaled by a power of the divisor's constant numerator.  `coeffs`,
`value` and `partial` therefore read the same reduced Fractions however the
jet was built.  A float jet stores its float table.

Either table is one flat tuple in row-major order, the order in which
`coeffs` lists it: cell (i, j) of an order-n table sits at offset
i(n + 1) - i(i - 1)/2 + j.  So each operation is one call over the tuple.
Sums, differences, negation and scaling are one `map` or comprehension, a
reduction is one `gcd(den, *cells)`, and truncation and differentiation
read the table through an `itemgetter` plan and integer multipliers that
are built once per order (and variable) on first use, never at import.

A jet carries its arithmetic, and a number that meets it joins it: in a
float jet an int or a Fraction becomes its correctly rounded float, and an
exact jet refuses a float.  Jets of two arithmetics never meet: every
operation on them raises JetError.  exp, log, sin, cos and sqrt give float
jets; integer powers keep the arithmetic.
This module owns their domain rules (`_FLOAT_FUNCS`), which `expressions`
also reads, so a jet, a scalar and compiled code refuse an argument alike.

Performance.  Products are the innermost loop of every command, since each
covariant derivative is a sum of them.  A product with a zero operand is
the zero table at once.  Of the others, the first 31 at a truncation order
run a nested loop that skips zero factors; the 32nd (KERNEL_AT) compiles
straight-line code for that order, one expression per output cell with the
terms in the loop's order, and every later product at that order runs it,
six to ten times faster than the loop.  The results are the loop's bit
for bit.  Where the kernel meets inf * 0, a product the loop skips, its
table holds a nan, and a float product with a non-finite cell is
recomputed by the loop.  Compiling costs about 5 us per term (about 1 ms
at order 5 and 3 ms at order 8) and happens once per order and process,
never at import: a one-shot run that multiplies a few jets pays nothing,
and a process that runs many jobs pays it once.

A covariant derivative subtracts products from a derivative, and
`_mul_sub(c, links, n, zero)` computes c - a1*b1 - a2*b2 - ... on raw
order-n tables, without the chain's intermediate tables.  Links with a
zero operand are dropped.  The rest follow the same KERNEL_AT rule and
count as products: until an order has had 31, they are multiplied and
subtracted one by one; after that, one compiled kernel per order runs
them all.  It keeps each output cell in a local and subtracts from it each
link's product cell, summed from 0 exactly as the product kernel sums it,
so float cells are the chain's bit for bit, and a non-finite table is
recomputed link by link.  Exact tables are integer numerators, which the
caller keeps over one denominator (`invariants.cov_deriv`).

Fixed formulas run on raw tables.  `word_tables` reads jets differentiated
along words and truncated, as unreduced (cells, den) pairs; `run_tape`
replays a formula recorded once as a tape (`invariants.formula_tape`,
`tractor.stack_tape`) on them, each op through the primitive that the jet
operation itself runs, at the lowest order that the op's readers need,
and `tape_tables` gives its outputs as raw tables.  Float results are the
jet formula's bit for bit; exact tables stay unreduced until each result
is reduced once, which gives the same canonical table.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import gcd
from operator import add, floordiv, itemgetter, mul, neg, sub, truediv


class JetError(ValueError):
    """Base class for jet arithmetic errors."""


class SingularEvaluationError(JetError):
    """Division by a locally-zero quantity, or an elementary function
    evaluated outside its domain."""

    def __init__(self, message, base=None):
        if base is not None:
            message = "%s (base point %s)" % (message, _fmt_point(base))
        super().__init__(message)
        self.base = base


class InsufficientOrderError(JetError):
    """A derivative beyond the truncation order was requested."""

    def __init__(self, required, available):
        super().__init__(
            "derivative order %d requested but only order %d is available"
            % (required, available)
        )
        self.required = required
        self.available = available


def _fmt_point(base):
    return "(%s, %s)" % (base[0], base[1])


def to_scalar(value):
    """Coerce a number (int, Fraction, float, or a string like "2/3" or
    "0.25") into the scalar tower.  Integers become exact rationals."""
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("cannot interpret %r as a scalar" % (value,))


class Jet:
    """Truncated Taylor expansion at a fixed base point.

    Use the `constant` / `variable` constructors.  The raw __init__ takes a
    triangular table of scalars: ints and Fractions only make an exact jet,
    any float makes a float jet.
    """

    # `_cells` is the table as one flat tuple in row-major order, cell (i, j)
    # at `_at(order, i, j)`: integer numerators over the denominator `_den`
    # in an exact jet, and floats in a float jet, whose `_den` is None.
    __slots__ = ("base", "order", "exact", "_cells", "_den")

    def __init__(self, base, order, coeffs):
        if order < 0:
            raise JetError("jet order must be non-negative")
        rows = [list(row) for row in coeffs]
        if len(rows) != order + 1 or any(
            len(rows[i]) != order - i + 1 for i in range(order + 1)
        ):
            raise JetError("malformed coefficient table")
        cells = [c for row in rows for c in row]
        if not all(isinstance(c, (int, Fraction, float)) for c in cells):
            raise TypeError("jet coefficients must be numbers")
        self.base = (to_scalar(base[0]), to_scalar(base[1]))
        self.order = order
        if any(isinstance(c, float) for c in cells):
            cells = tuple(map(float, cells))
            den = None
        else:
            # over the lcm of reduced denominators the numerators are coprime
            den = math.lcm(*(c.denominator for c in cells))
            cells = tuple([c.numerator * (den // c.denominator)
                           for c in cells])
        self._cells = cells
        self._den = den
        self.exact = den is not None

    # ---------------- constructors ----------------

    @staticmethod
    def constant(value, base, order):
        return _constant(to_scalar(value),
                         (to_scalar(base[0]), to_scalar(base[1])), order)

    @staticmethod
    def variable(name, base, order):
        """The coordinate function x or y as a jet: value plus unit slope."""
        if name not in ("x", "y"):
            raise JetError("variable must be 'x' or 'y', got %r" % (name,))
        b = (to_scalar(base[0]), to_scalar(base[1]))
        jet = _constant(b[0] if name == "x" else b[1], b, order)
        if order >= 1:
            one = 1.0 if jet._den is None else jet._den
            k = _at(order, 1, 0) if name == "x" else _at(order, 0, 1)
            jet._cells = jet._cells[:k] + (one,) + jet._cells[k + 1:]
        return jet

    # ---------------- inspection ----------------

    def _coeff(self, i, j):
        c = self._cells[_at(self.order, i, j)]
        return c if self._den is None else Fraction(c, self._den)

    @property
    def coeffs(self):
        """The table as a tuple of tuples of Fractions or floats."""
        n, cells, den = self.order, self._cells, self._den
        if den is not None:
            cells = [Fraction(c, den) for c in cells]
        return tuple(tuple(cells[_at(n, i, 0):_at(n, i + 1, 0)])
                     for i in range(n + 1))

    @property
    def value(self):
        return self._coeff(0, 0)

    def partial(self, i, j):
        """The raw partial derivative d^i_x d^j_y f at the base point."""
        if i < 0 or j < 0:
            raise JetError("derivative indices must be non-negative")
        if i + j > self.order:
            raise InsufficientOrderError(i + j, self.order)
        return math.factorial(i) * math.factorial(j) * self._coeff(i, j)

    def is_zero(self):
        return not any(self._cells)

    def to_float(self):
        if self._den is None:
            return self
        cells = tuple([c / self._den for c in self._cells])
        return _jet(self.base, self.order, cells, None)

    def truncated(self, order):
        if order > self.order:
            raise InsufficientOrderError(order, self.order)
        if order == self.order:
            return self
        cells = _truncation_plan(self.order, order)(self._cells)
        return _result(self.base, order, cells, self._den)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.base == other.base and self.order == other.order
                and self._den == other._den and self._cells == other._cells)

    __hash__ = None

    def __repr__(self):
        return "Jet(base=%s, order=%d, value=%s)" % (
            _fmt_point(self.base),
            self.order,
            self.value,
        )

    # ---------------- arithmetic ----------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.base != self.base or other.order != self.order:
                raise JetError(
                    "jet operands must share base point and order "
                    "(got %s/%d and %s/%d)"
                    % (_fmt_point(self.base), self.order,
                       _fmt_point(other.base), other.order)
                )
            if other.exact is not self.exact:
                raise JetError("jet operands must share one arithmetic")
            return other
        return _constant(self._join(other), self.base, self.order)

    def _join(self, c):
        """The number c in self's arithmetic; an exact jet refuses a float."""
        c = to_scalar(c)
        if self._den is None:
            return float(c)
        if isinstance(c, float):
            raise JetError("an exact jet refuses the float %r" % (c,))
        return c

    def _termwise(self, other, op):
        """Coefficientwise `op` (add or sub) of self and other."""
        other = self._coerce(other)
        a, da, b, db = self._cells, self._den, other._cells, other._den
        if da != db:  # exact, over the lcm of the denominators
            g = gcd(da, db)
            a = _scaled(a, db // g)
            b = _scaled(b, da // g)
            da = da // g * db
        return _result(self.base, self.order, tuple(map(op, a, b)), da)

    def __add__(self, other):
        return self._termwise(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __rsub__(self, other):
        return self._coerce(other)._termwise(self, sub)

    def __neg__(self):
        cells = tuple(map(neg, self._cells))
        return _jet(self.base, self.order, cells, self._den)

    def _scale(self, c):
        """self times c, an int or a number joined to self's arithmetic, as
        the product with the constant jet c: exact, or 0.0 + a * c and 0.0
        where a or c is zero.  An int is its own numerator over 1."""
        if self._den is not None:
            return _reduced(self.base, self.order,
                            _scaled(self._cells, c.numerator),
                            self._den * c.denominator)
        c = float(c)
        if c == 0:
            cells = _zero_cells(self.order, 0.0)
        else:
            cells = tuple([0.0 + a * c if a else 0.0 for a in self._cells])
        return _jet(self.base, self.order, cells, None)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # an int scales as itself, without to_scalar's Fraction
            return self._scale(other if type(other) is int
                               else self._join(other))
        other = self._coerce(other)
        n = self.order
        a, da, b, db = self._cells, self._den, other._cells, other._den
        if da is None:
            return _jet(self.base, n, _convolve(a, b, n, 0.0), None)
        return _reduced(self.base, n, _convolve(a, b, n, 0), da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._den is not None and not isinstance(other, Jet):
            c = self._join(other)
            if c != 0:
                return self._scale(1 / c)
        other = self._coerce(other)
        if other._cells[0] == 0:
            raise SingularEvaluationError("division by zero", self.base)
        n = self.order
        a, da, b, db = self._cells, self._den, other._cells, other._den
        if da is None:
            return _jet(self.base, n, _quotient(a, b, n, 1, truediv), None)
        # a / b = (db / da) * (A / B) over the numerator tables A, B; the
        # recurrence yields A / B times b0^(n+1), b0 = B's constant term.
        scale = b[0] ** (n + 1)
        cells = _quotient(a, b, n, scale, floordiv)
        num, den = db, da * scale
        if den < 0:
            num, den = -num, -den
        return _reduced(self.base, n, _scaled(cells, num), den)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise JetError("jet exponents must be integers")
        if k < 0:
            if self._cells[0] == 0:
                raise SingularEvaluationError(
                    "zero raised to a negative power", self.base)
            return (1 / self) ** (-k)
        result = self._coerce(1)
        square = self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    def diff(self, var):
        """Partial derivative jet; the order drops by one."""
        if var not in ("x", "y"):
            raise JetError("differentiation variable must be 'x' or 'y'")
        if self.order == 0:
            raise InsufficientOrderError(1, 0)
        take, mults = _derivative_plan(self.order, var)
        cells = tuple(map(mul, mults, take(self._cells)))
        return _result(self.base, self.order - 1, cells, self._den)


# ---------------- the flat layout and its plans ----------------
#
# Row i of an order-n table holds its n - i + 1 cells (i, 0), ..., (i, n - i)
# after the n + 1, n, ..., n - i + 2 cells of rows 0 to i - 1.  The plans
# are cached by order alone and hold no job data.


def _at(n, i, j):
    """The offset of cell (i, j) in an order-n table."""
    return i * (n + 1) - i * (i - 1) // 2 + j


def _size(n):
    return (n + 1) * (n + 2) // 2


def _getter(offsets):
    """itemgetter(*offsets), which gives a tuple for one offset too."""
    if len(offsets) == 1:
        return itemgetter(slice(offsets[0], offsets[0] + 1))
    return itemgetter(*offsets)


@functools.cache
def _truncation_plan(n, m):
    """The getter of the order-m table, m <= n, out of an order-n one."""
    return _getter([_at(n, i, j) for i in range(m + 1)
                    for j in range(m - i + 1)])


@functools.cache
def _derivative_plan(n, var):
    """(take, mults) for d/dx or d/dy of an order-n table: the derivative's
    cells are map(mul, mults, take(cells)), cell (i, j) being (i + 1) times
    cell (i + 1, j) for x and (j + 1) times cell (i, j + 1) for y."""
    cells = [(i, j) for i in range(n) for j in range(n - i)]
    if var == "x":
        return (_getter([_at(n, i + 1, j) for i, j in cells]),
                tuple(i + 1 for i, j in cells))
    return (_getter([_at(n, i, j + 1) for i, j in cells]),
            tuple(j + 1 for i, j in cells))


# ---------------- trusted construction and table loops ----------------
#
# Results are built without __init__: the operations make well-formed
# tables, and exact ones are reduced here, once per result.

_new_jet = object.__new__


def _jet(base, order, cells, den):
    jet = _new_jet(Jet)
    jet.base = base
    jet.order = order
    jet.exact = den is not None
    jet._cells = cells
    jet._den = den
    return jet


def _reduced(base, order, cells, den):
    """The exact jet cells / den, den > 0, divided through by the gcd of the
    denominator and all numerators."""
    g = gcd(den, *cells)
    if g == 1:
        return _jet(base, order, cells, den)
    return _jet(base, order, tuple([c // g for c in cells]), den // g)


def _result(base, order, cells, den):
    if den is None:
        return _jet(base, order, cells, None)
    return _reduced(base, order, cells, den)


def _zero_cells(order, zero):
    return (zero,) * _size(order)


def _constant(v, base, order):
    """The constant jet v at an already converted `base`: exact for a
    Fraction, float for a float."""
    rest = _size(order) - 1
    if isinstance(v, Fraction):
        return _jet(base, order, (v.numerator,) + (0,) * rest, v.denominator)
    return _jet(base, order, (v,) + (0.0,) * rest, None)


def _scaled(cells, m):
    if m == 1:
        return cells
    return tuple([c * m for c in cells])


# The product, counted per truncation order, that compiles the order's
# kernel; the ones before it run the loop.  Compiling costs about 5 us per
# term (3 ms at order 8), which a job that multiplies a handful of jets
# would not earn back.
KERNEL_AT = 32

_loop_products = {}  # order -> products the loop has multiplied


def _convolve(a, b, n, zero):
    """The truncated Cauchy product of two tables, accumulated into `zero`.

    A zero operand gives the zero table, as the loop would, without
    multiplying; in exact structures such as Painleve I most products have
    one.  Of the others, the first KERNEL_AT - 1 at an order run
    `_loop_convolve`; the next one compiles that order's `_product_kernel`,
    which serves all later ones.  Both give the same table, bit for bit,
    when the kernel's is finite.  Otherwise the kernel may have met
    inf * 0, which the loop skips, so a float product with a non-finite
    cell runs the loop again (a finite table whose sum overflows does too,
    harmlessly)."""
    # a nonzero constant term settles most tables without scanning them
    if not ((a[0] or any(a)) and (b[0] or any(b))):
        return _zero_cells(n, zero)
    count = _loop_products.get(n, 0) + 1
    if count < KERNEL_AT:
        _loop_products[n] = count
        return _loop_convolve(a, b, n, zero)
    cells = _product_kernel(n)(a, b, zero)
    if isinstance(zero, float) and not math.isfinite(sum(cells)):
        return _loop_convolve(a, b, n, zero)
    return cells


def _mul_sub(c, links, n, zero):
    """c - a1*b1 - a2*b2 - ... over tables of one kind, accumulated into
    `zero`.  Links with a zero operand, which subtract the zero table, are
    dropped.  Until `_convolve` has counted KERNEL_AT - 1 products at the
    order, the rest run as a chain of `_convolve` products and differences;
    from then on they run the order's accumulating `_product_kernel`, and a
    float table it leaves non-finite runs the chain again."""
    links = [(a, b) for a, b in links
             if (a[0] or any(a)) and (b[0] or any(b))]
    if links and _loop_products.get(n, 0) + 1 >= KERNEL_AT:
        cells = _product_kernel(n, True)(c, links, zero)
        if not isinstance(zero, float) or math.isfinite(sum(cells)):
            return cells
    for a, b in links:
        c = tuple(map(sub, c, _convolve(a, b, n, zero)))
    return c


@functools.cache
def _product_kernel(n, accumulate=False):
    """`product(a, b, zero)`: the order-n Cauchy product as straight-line
    code.  It unpacks both tables into locals and returns each cell (p, q)
    as zero + a0_0*b{p}_{q} + a0_1*b{p}_{q-1} + ..., the terms in the
    lexicographic (i, j) order in which `_loop_convolve` accumulates them.
    The loop skips a zero factor; the kernel adds its product, +-0.0 for a
    finite float, to an accumulator that starts at +0.0 and so never
    becomes -0.0, which leaves every finite cell unchanged.  Integer
    tables are exact either way.

    With `accumulate`, `mul_sub(c, links, zero)`: c - a1*b1 - a2*b2 - ...
    for the pairs (a, b) of `links`, as one loop over the links whose body
    is that straight-line code.  Each cell of c is a local, and each link
    takes the product's cell from it, c{p}_{q} = c{p}_{q} - (zero + ...),
    which is the chain of products and differences link by link."""
    cells = [(i, j) for i in range(n + 1) for j in range(n - i + 1)]

    def table(t):  # "t0_0, t0_1, ..., " in the flat order
        return "".join("%s%d_%d, " % (t, i, j) for i, j in cells)

    def cell(p, q):
        return " + ".join(["zero"] + [
            "a%d_%d*b%d_%d" % (i, j, p - i, q - j)
            for i in range(p + 1) for j in range(q + 1)])

    if accumulate:
        name = "mul_sub"
        source = "def mul_sub(c, links, zero):\n    %s= c\n" \
            "    for a, b in links:\n        %s= a\n        %s= b\n" % (
                table("c"), table("a"), table("b"))
        source += "".join(
            "        c%d_%d = c%d_%d - (%s)\n" % (p, q, p, q, cell(p, q))
            for p, q in cells)
        source += "    return (%s)\n" % table("c")
    else:
        name = "product"
        source = "def product(a, b, zero):\n    %s= a\n    %s= b\n" \
            "    return (%s)\n" % (table("a"), table("b"), "".join(
                "%s, " % cell(p, q) for p, q in cells))
    namespace = {"__builtins__": {}}
    exec(compile(source, "<%s kernel %d>" % (name, n), "exec"), namespace)
    return namespace[name]


# ---------------- tapes ----------------
#
# A tape is a fixed formula recorded once, `(ops, outputs, ups)`, read off
# its expression trees by `invariants._read_tape`.  Its slots are the input
# tables, then one per op, in order, and slot i's table is at order n +
# ups[i], where n is the outputs' order: each op runs at the lowest order
# that its readers need.  An op is ("mul", x, y), the product of slots x
# and y; ("scale", x, c), slot x times the nonzero number c of the tape's
# arithmetic (a Fraction or a float); ("add", x, y) or ("sub", x, y);
# ("dx", x, None) or ("dy", x, None), the derivative of slot x, which is
# one order higher; or ("trunc", x, up), slot x, at order n + up,
# truncated.  The operands of the other ops are at the op's own order.  An
# output is a slot at order n, or a constant (c0, tail, den): the table
# whose constant term is c0 and whose other cells are all tail, over den
# (None in a float tape).


def word_tables(jets, words, m):
    """The raw tables (cells, den) of each of `jets`, which share one order,
    differentiated along each of `words` (a tuple; letters applied left to
    right, "" is the jet) and truncated to order m, jet-major: unreduced,
    integer numerators over the jet's denominator, or floats with den None.
    Each cell is the one `diff` and `truncated` give, and a word's prefix
    is differentiated once."""
    steps, outputs = _word_plan(jets[0].order, words, m)
    if not steps:  # the jets themselves, truncated
        ((_, truncate),) = outputs
        if truncate is None:
            return [(jet._cells, jet._den) for jet in jets]
        return [(truncate(jet._cells), jet._den) for jet in jets]
    tables = []
    for jet in jets:
        derived = [jet._cells]
        for source, take, mults in steps:
            derived.append(tuple(map(mul, mults, take(derived[source]))))
        den = jet._den
        tables += [(derived[i] if truncate is None else truncate(derived[i]),
                    den) for i, truncate in outputs]
    return tables


@functools.cache
def _word_plan(n, words, m):
    """(steps, outputs) of `word_tables` on an order-n jet.  Step k makes
    table k + 1 (table 0 is the jet's) as a derivative of table `source`;
    output i reads table i through its truncation getter, or as it is."""
    deepest = max(map(len, words))
    if m < 0 or n < m + deepest:
        raise InsufficientOrderError(max(m, 0) + deepest, n)
    index, steps, outputs = {"": 0}, [], []

    def derive(word):
        if word not in index:
            source = derive(word[:-1])
            steps.append((source,) + _derivative_plan(n - len(word) + 1,
                                                      word[-1]))
            index[word] = len(steps)
        return index[word]

    for word in words:
        k = n - len(word)
        outputs.append((derive(word),
                        _truncation_plan(k, m) if k > m else None))
    return tuple(steps), tuple(outputs)


def run_tape(tape, tables, k, base, n):
    """The outputs of `tape` as order-n jets at `base`, from the order-k
    raw tables `tables` (`word_tables`), each read truncated to its slot's
    order, which k must reach.

    Each op is the jet operation it records, on raw tables.  Float tables
    go through what `Jet` itself runs: `_convolve` for a product, 0.0 +
    a*c (0.0 for a zero cell) for a scaling, `map(add|sub)`, and a
    derivative's or truncation's plan, so every bit is the jet formula's,
    signed zeros included, whatever order an op runs at: a cell of a
    product, sum or derivative does not depend on the truncation.  Exact
    tables stay unreduced, integer numerators over the product of the
    operands' denominators, or their lcm for a sum, and each output is
    reduced once: the canonical table that the jet formula reduced after
    every op.  A slot at order 0 runs as its one cell, bare, by the same
    rules."""
    make = _jet if tables[0][1] is None else _reduced
    return [make(base, n, cells, den)
            for cells, den in tape_tables(tape, tables, k, n)]


def tape_tables(tape, tables, k, n):
    """The outputs of `tape`, run as `run_tape` runs it, as raw order-n
    tables (cells, den), exact ones unreduced."""
    ops, outputs, ups = tape
    tables = [(cells[0] if n + up == 0 else cells if k == n + up
               else _truncation_plan(k, n + up)(cells), den)
              for (cells, den), up in zip(tables, ups)]
    exact = tables[0][1] is not None
    slots = (_run_exact(ops, ups, tables, n) if exact
             else _run_float(ops, ups, [cells for cells, _ in tables], n))
    rest = _size(n) - 1
    out = []
    for o in outputs:
        if type(o) is not int:
            c0, tail, den = o
            out.append(((c0,) + (tail,) * rest, den))
        else:
            cells, den = slots[o] if exact else (slots[o], None)
            out.append((cells if n else (cells,), den))
    return out


# The cell of an order-1 table that its derivative along x or y, at order
# 0, is: 1 times it, which is the cell itself.
_BARE_DERIVATIVE = {"dx": _at(1, 1, 0), "dy": _at(1, 0, 1)}


def _run_float(ops, ups, slots, n):
    """The float tables of every slot of a tape, inputs first; a slot at
    order 0 is its cell.  A bare product is _convolve's one cell."""
    for (op, x, y), up in zip(ops, ups[len(slots):]):
        a = slots[x]
        if n + up == 0:
            if op == "mul":
                b = slots[y]
                slots.append(0.0 + a * b if a and b else 0.0)
            elif op == "sub":
                slots.append(a - slots[y])
            elif op == "add":
                slots.append(a + slots[y])
            elif op == "scale":
                slots.append(0.0 + a * y if a else 0.0)
            elif op == "trunc":
                slots.append(a[0])
            else:
                slots.append(a[_BARE_DERIVATIVE[op]])
        elif op == "mul":
            slots.append(_convolve(a, slots[y], n + up, 0.0))
        elif op == "add" or op == "sub":
            slots.append(tuple(map(add if op == "add" else sub, a,
                                   slots[y])))
        elif op == "scale":
            slots.append(tuple([0.0 + v * y if v else 0.0 for v in a]))
        elif op == "trunc":
            slots.append(_truncation_plan(n + y, n + up)(a))
        else:
            take, mults = _derivative_plan(n + up + 1, op[1])
            slots.append(tuple(map(mul, mults, take(a))))
    return slots


def _run_exact(ops, ups, slots, n):
    """The unreduced exact tables (cells, den) of every slot of a tape; a
    slot at order 0 has its numerator for cells."""
    for (op, x, y), up in zip(ops, ups[len(slots):]):
        a, da = slots[x]
        bare = n + up == 0
        if op == "mul":
            b, db = slots[y]
            slots.append((a * b if bare else _convolve(a, b, n + up, 0),
                          da * db))
        elif op == "add" or op == "sub":
            b, db = slots[y]
            if da != db:
                g = gcd(da, db)
                if bare:
                    a, b = a * (db // g), b * (da // g)
                else:
                    a, b = _scaled(a, db // g), _scaled(b, da // g)
                da = da // g * db
            if bare:
                slots.append((a + b if op == "add" else a - b, da))
            else:
                slots.append((tuple(map(add if op == "add" else sub, a, b)),
                              da))
        elif op == "scale":
            slots.append((a * y.numerator if bare
                          else _scaled(a, y.numerator), da * y.denominator))
        elif op == "trunc":
            slots.append((a[0] if bare
                          else _truncation_plan(n + y, n + up)(a), da))
        elif bare:
            slots.append((a[_BARE_DERIVATIVE[op]], da))
        else:
            take, mults = _derivative_plan(n + up + 1, op[1])
            slots.append((tuple(map(mul, mults, take(a))), da))
    return slots


def _loop_convolve(a, b, n, zero):
    """The truncated Cauchy product of two tables, accumulated into `zero`
    in a fixed order and skipping zero factors."""
    start = [_at(n, i, 0) for i in range(n + 1)]
    out = [zero] * len(a)
    for i in range(n + 1):
        for j in range(n - i + 1):
            x = a[start[i] + j]
            if not x:
                continue
            kmax = n - i - j
            for k in range(kmax + 1):
                bk, ok = start[k], start[i + k] + j
                for l in range(kmax - k + 1):
                    y = b[bk + l]
                    if y:
                        out[ok + l] += x * y
    return tuple(out)


def _quotient(a, b, n, scale, divide):
    """The table q with q * b = a * scale, by the recurrence
    q[i][j] = (a[i][j] * scale - sum of earlier q[k][l] b[i-k][j-l]) / b0,
    with `divide` truediv for floats (scale 1) or an exact floordiv."""
    start = [_at(n, i, 0) for i in range(n + 1)]
    b0 = b[0]
    q = [None] * len(a)
    for d in range(n + 1):
        for i in range(d + 1):
            j = d - i
            acc = a[start[i] + j] * scale
            for k in range(i + 1):
                qk, bk = start[k], start[i - k] + j
                for l in range(j + 1 if k < i else j):
                    c = q[qk + l]
                    if c:
                        acc = acc - c * b[bk - l]
            q[start[i] + j] = divide(acc, b0)
    return tuple(q)


# ---------------- elementary functions ----------------
#
# The domain rules of exp, log, sin, cos and sqrt, stated once for jets,
# scalars and compiled code: _FLOAT_FUNCS maps each name to its helper's
# name in compiled code and its checked float function.  A jet's function
# is its univariate Taylor tower at the constant term c0, composed with
# (jet - c0) via Horner steps, in float coefficients.


class _OutOfDomain(Exception):
    pass


def _checked(f, refuses, what):
    """f, raising _OutOfDomain("<f> of a <what> value") where `refuses`."""
    def checked(v):
        if refuses(v):
            raise _OutOfDomain("%s of a %s value" % (f.__name__, what))
        return f(v)
    return checked


_NON_POSITIVE = (lambda v: v <= 0, "non-positive")
_NON_FINITE = (lambda v: not math.isfinite(v), "non-finite")
_FLOAT_FUNCS = {
    "exp": ("_exp", math.exp),
    "log": ("_log", _checked(math.log, *_NON_POSITIVE)),
    "sin": ("_sin", _checked(math.sin, *_NON_FINITE)),
    "cos": ("_cos", _checked(math.cos, *_NON_FINITE)),
    "sqrt": ("_sqrt", _checked(math.sqrt, *_NON_POSITIVE)),
}


def _elementary(name, a, terms):
    """`name` of the jet a: its Taylor tower `terms(c0, f0, n)` at a's
    constant term c0, where f0 is the checked value at c0, composed with
    a - c0.  A c0 outside the domain, and a tower that leaves the float
    range, are singular evaluations."""
    a = a.to_float()
    n, c0 = a.order, a.value
    try:
        tower = terms(c0, _FLOAT_FUNCS[name][1](c0), n)
    except _OutOfDomain as err:
        raise SingularEvaluationError(str(err), a.base) from None
    except (OverflowError, ZeroDivisionError, ValueError):
        raise SingularEvaluationError(
            "the Taylor tower of %s leaves the float range" % name, a.base
        ) from None
    u = a - c0
    result = Jet.constant(tower[n], a.base, n)
    for k in range(n - 1, -1, -1):
        result = result * u + tower[k]
    return result


def exp(a):
    return _elementary("exp", a, lambda c0, f0, n: [
        f0 / math.factorial(k) for k in range(n + 1)])


def log(a):
    return _elementary("log", a, lambda c0, f0, n: [f0] + [
        (-1.0) ** (k + 1) / (k * c0**k) for k in range(1, n + 1)])


# k = 0 gives sin(c0 + 0.0), not f0: 0.0 at c0 = -0.0, as at every order
def sin(a):
    return _elementary("sin", a, lambda c0, f0, n: [
        math.sin(c0 + k * math.pi / 2) / math.factorial(k)
        for k in range(n + 1)])


def cos(a):
    return _elementary("cos", a, lambda c0, f0, n: [
        math.cos(c0 + k * math.pi / 2) / math.factorial(k)
        for k in range(n + 1)])


def sqrt(a):
    def terms(c0, f0, n):
        tower = [f0]
        for k in range(1, n + 1):
            tower.append(tower[-1] * (0.5 - (k - 1)) / (k * c0))
        return tower
    return _elementary("sqrt", a, terms)
