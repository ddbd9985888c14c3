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

Mixed arithmetic promotes to float and never back: an exact coefficient
becomes the correctly rounded integer division numerator / denominator,
which is its Fraction's float().  The elementary transcendental functions
(exp, log, sin, cos, sqrt) always force float.  Integer powers of exact jets
stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from operator import add, floordiv, neg, sub, truediv


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


def is_exact(value):
    return isinstance(value, Fraction)


class Jet:
    """Truncated Taylor expansion at a fixed base point.

    Use the `constant` / `variable` constructors.  The raw __init__ takes a
    triangular table of scalars: ints and Fractions only make an exact jet,
    any float makes a float jet.
    """

    # `_rows` holds integer numerators over the denominator `_den` in an
    # exact jet, and floats in a float jet, whose `_den` is None.
    __slots__ = ("base", "order", "exact", "_rows", "_den")

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
            rows = [tuple(map(float, row)) for row in rows]
            den = None
        else:
            # over the lcm of reduced denominators the numerators are coprime
            den = math.lcm(*(c.denominator for c in cells))
            rows = [tuple(c.numerator * (den // c.denominator) for c in row)
                    for row in rows]
        self._rows = rows
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
            rows = jet._rows
            if name == "x":
                rows[1] = (one,) + rows[1][1:]
            else:
                rows[0] = rows[0][:1] + (one,) + rows[0][2:]
        return jet

    # ---------------- inspection ----------------

    def _coeff(self, i, j):
        c = self._rows[i][j]
        return c if self._den is None else Fraction(c, self._den)

    @property
    def coeffs(self):
        """The table as a tuple of tuples of Fractions or floats."""
        den = self._den
        if den is None:
            return tuple(self._rows)
        return tuple(tuple(Fraction(c, den) for c in row)
                     for row in self._rows)

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
        return not any(map(any, self._rows))

    def to_float(self):
        if self._den is None:
            return self
        return _jet(self.base, self.order, _float_rows(self), None)

    def truncated(self, order):
        if order > self.order:
            raise InsufficientOrderError(order, self.order)
        if order == self.order:
            return self
        rows = [self._rows[i][: order - i + 1] for i in range(order + 1)]
        return _result(self.base, order, rows, self._den)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if self.base != other.base or self.order != other.order:
            return False
        if self.exact == other.exact:
            return self._den == other._den and self._rows == other._rows
        return self.coeffs == other.coeffs

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
            return other
        return _constant(to_scalar(other), self.base, self.order)

    def _termwise(self, other, op):
        """Coefficientwise `op` (add or sub) of self and other."""
        other = self._coerce(other)
        da, db = self._den, other._den
        if da is None or db is None:
            rows = [tuple(map(op, ra, rb)) for ra, rb
                    in zip(_float_rows(self), _float_rows(other))]
            return _jet(self.base, self.order, rows, None)
        a, b = self._rows, other._rows
        if da != db:
            g = gcd(da, db)
            a = _scaled(a, db // g)
            b = _scaled(b, da // g)
            da = da // g * db
        rows = [tuple(map(op, ra, rb)) for ra, rb in zip(a, b)]
        return _reduced(self.base, self.order, rows, da)

    def __add__(self, other):
        return self._termwise(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __rsub__(self, other):
        return self._coerce(other)._termwise(self, sub)

    def __neg__(self):
        rows = [tuple(map(neg, row)) for row in self._rows]
        return _jet(self.base, self.order, rows, self._den)

    def _scale(self, c):
        """self times the scalar c, computed as the product with the constant
        jet c would be: 0.0 + a * c, and 0.0 where a or c is zero."""
        if self._den is not None and isinstance(c, Fraction):
            return _reduced(self.base, self.order,
                            _scaled(self._rows, c.numerator),
                            self._den * c.denominator)
        c = float(c)
        if c == 0:
            rows = _zero_rows(self.order, 0.0)
        else:
            rows = [tuple([0.0 + a * c if a else 0.0 for a in row])
                    for row in _float_rows(self)]
        return _jet(self.base, self.order, rows, None)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(to_scalar(other))
        other = self._coerce(other)
        n = self.order
        if self._den is None or other._den is None:
            rows = _convolve(_float_rows(self), _float_rows(other), n, 0.0)
            return _jet(self.base, n, rows, None)
        rows = _convolve(self._rows, other._rows, n, 0)
        return _reduced(self.base, n, rows, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._den is not None and not isinstance(other, Jet):
            c = to_scalar(other)
            if isinstance(c, Fraction) and c != 0:
                return self._scale(1 / c)
        other = self._coerce(other)
        if other._rows[0][0] == 0:
            raise SingularEvaluationError(
                "division by a jet with zero constant term", self.base
            )
        n = self.order
        if self._den is None or other._den is None:
            rows = _quotient(_float_rows(self), _float_rows(other), n, 1,
                             truediv)
            return _jet(self.base, n, rows, None)
        # a / b = (db / da) * (A / B) over the numerator tables A, B; the
        # recurrence yields A / B times b0^(n+1), b0 = B's constant term.
        scale = other._rows[0][0] ** (n + 1)
        rows = _quotient(self._rows, other._rows, n, scale, floordiv)
        num, den = other._den, self._den * scale
        if den < 0:
            num, den = -num, -den
        return _reduced(self.base, n, _scaled(rows, num), den)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise JetError("jet exponents must be integers")
        if k < 0:
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
        c = self._rows
        if var == "x":
            rows = [tuple([i * v for v in c[i]]) for i in range(1, len(c))]
        else:
            rows = [tuple([j * v for j, v in enumerate(row[1:], 1)])
                    for row in c[:-1]]
        return _result(self.base, self.order - 1, rows, self._den)


# ---------------- trusted construction and table loops ----------------
#
# Results are built without __init__: the operations make well-formed
# tables, and exact ones are reduced here, once per result.

_new_jet = object.__new__


def _jet(base, order, rows, den):
    jet = _new_jet(Jet)
    jet.base = base
    jet.order = order
    jet.exact = den is not None
    jet._rows = rows
    jet._den = den
    return jet


def _reduced(base, order, rows, den):
    """The exact jet rows / den, den > 0, divided through by the gcd of the
    denominator and all numerators."""
    g = den
    for row in rows:
        g = gcd(g, *row)
        if g == 1:
            return _jet(base, order, rows, den)
    return _jet(base, order, [tuple([c // g for c in row]) for row in rows],
                den // g)


def _result(base, order, rows, den):
    if den is None:
        return _jet(base, order, rows, None)
    return _reduced(base, order, rows, den)


def _zeros(order, zero):
    return [[zero] * (order - i + 1) for i in range(order + 1)]


def _zero_rows(order, zero):
    return [(zero,) * (order - i + 1) for i in range(order + 1)]


def _constant(v, base, order):
    """The constant jet v (a Fraction or a float) at an already converted
    `base`."""
    if isinstance(v, Fraction):
        rows = _zero_rows(order, 0)
        rows[0] = (v.numerator,) + rows[0][1:]
        return _jet(base, order, rows, v.denominator)
    rows = _zero_rows(order, 0.0)
    rows[0] = (v,) + rows[0][1:]
    return _jet(base, order, rows, None)


def _float_rows(jet):
    den = jet._den
    if den is None:
        return jet._rows
    return [tuple([c / den for c in row]) for row in jet._rows]


def _scaled(rows, m):
    if m == 1:
        return rows
    return [tuple([c * m for c in row]) for row in rows]


def _convolve(a, b, n, zero):
    """The truncated Cauchy product of two tables, accumulated into `zero`
    in a fixed order and skipping zero factors."""
    rows = _zeros(n, zero)
    for i, ra in enumerate(a):
        for j, x in enumerate(ra):
            if not x:
                continue
            kmax = n - i - j
            for k in range(kmax + 1):
                rb = b[k]
                row = rows[i + k]
                for l in range(kmax - k + 1):
                    y = rb[l]
                    if y:
                        row[j + l] += x * y
    return list(map(tuple, rows))


def _quotient(a, b, n, scale, divide):
    """The table q with q * b = a * scale, by the recurrence
    q[i][j] = (a[i][j] * scale - sum of earlier q[k][l] b[i-k][j-l]) / b0,
    with `divide` truediv for floats (scale 1) or an exact floordiv."""
    b0 = b[0][0]
    q = _zeros(n, None)
    for d in range(n + 1):
        for i in range(d + 1):
            j = d - i
            acc = a[i][j] * scale
            for k in range(i + 1):
                qk = q[k]
                bk = b[i - k]
                for l in range(j + 1 if k < i else j):
                    c = qk[l]
                    if c:
                        acc = acc - c * bk[j - l]
            q[i][j] = divide(acc, b0)
    return list(map(tuple, q))


# ---------------- elementary functions ----------------
#
# Each is computed by composing the univariate Taylor tower of the function
# at the jet's constant term with (jet - constant term), via Horner steps.
# All of them force float coefficients; exact arithmetic is preserved only
# by the ring operations and integer powers.


def _compose(a, tower):
    n = a.order
    u = a - a.value
    result = Jet.constant(tower[n], a.base, n)
    for k in range(n - 1, -1, -1):
        result = result * u + tower[k]
    return result


def _tower(name, a, terms):
    """The float Taylor tower `terms(c0)` of `name` at a's constant term; a
    tower that leaves the float range is a singular evaluation."""
    try:
        return terms(a.value)
    except (OverflowError, ZeroDivisionError, ValueError):
        raise SingularEvaluationError(
            "the Taylor tower of %s leaves the float range" % name, a.base
        ) from None


def exp(a):
    a = a.to_float()

    def terms(c0):
        e0 = math.exp(c0)
        return [e0 / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, _tower("exp", a, terms))


def log(a):
    if a.value <= 0:
        raise SingularEvaluationError(
            "log of a non-positive constant term", a.base
        )
    a = a.to_float()

    def terms(c0):
        tower = [math.log(c0)]
        for k in range(1, a.order + 1):
            tower.append((-1.0) ** (k + 1) / (k * c0**k))
        return tower
    return _compose(a, _tower("log", a, terms))


def sin(a):
    a = a.to_float()

    def terms(c0):
        return [math.sin(c0 + k * math.pi / 2) / math.factorial(k)
                for k in range(a.order + 1)]
    return _compose(a, _tower("sin", a, terms))


def cos(a):
    a = a.to_float()

    def terms(c0):
        return [math.cos(c0 + k * math.pi / 2) / math.factorial(k)
                for k in range(a.order + 1)]
    return _compose(a, _tower("cos", a, terms))


def sqrt(a):
    if a.value <= 0:
        raise SingularEvaluationError(
            "sqrt of a non-positive constant term", a.base
        )
    a = a.to_float()

    def terms(c0):
        tower = [math.sqrt(c0)]
        for k in range(1, a.order + 1):
            tower.append(tower[-1] * (0.5 - (k - 1)) / (k * c0))
        return tower
    return _compose(a, _tower("sqrt", a, terms))
