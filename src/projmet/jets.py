"""Truncated bivariate Taylor arithmetic.

A Jet holds the scaled Taylor table of a scalar field f at a base point:

    coeffs[i][j] = (1 / (i! j!)) * d^(i+j) f / dx^i dy^j,   i + j <= order.

Storing coefficients already divided by the factorials makes products plain
Cauchy convolutions.  Jets are immutable; every operation returns a new jet
and demands that both operands share the base point and the truncation order.

Coefficients live in a two-member scalar tower: exact `Fraction` or `float`.
Mixed arithmetic promotes to float and never back; the elementary
transcendental functions (exp, log, sin, cos, sqrt) always force float.
Integer powers of exact jets stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction | float


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

    Use the `constant` / `variable` constructors; the raw __init__ trusts its
    caller to pass a well-formed triangular table of scalars.
    """

    __slots__ = ("base", "order", "coeffs", "exact")

    def __init__(self, base, order, coeffs):
        if order < 0:
            raise JetError("jet order must be non-negative")
        self.base = (to_scalar(base[0]), to_scalar(base[1]))
        self.order = order
        rows = tuple(tuple(row) for row in coeffs)
        if len(rows) != order + 1 or any(
            len(rows[i]) != order - i + 1 for i in range(order + 1)
        ):
            raise JetError("malformed coefficient table")
        self.coeffs = rows
        self.exact = all(isinstance(c, Fraction) for row in rows for c in row)

    # ---------------- constructors ----------------

    @staticmethod
    def constant(value, base, order):
        v = to_scalar(value)
        zero = Fraction(0) if isinstance(v, Fraction) else 0.0
        rows = [[zero] * (order - i + 1) for i in range(order + 1)]
        rows[0][0] = v
        return Jet(base, order, rows)

    @staticmethod
    def variable(name, base, order):
        """The coordinate function x or y as a jet: value plus unit slope."""
        if name not in ("x", "y"):
            raise JetError("variable must be 'x' or 'y', got %r" % (name,))
        b = (to_scalar(base[0]), to_scalar(base[1]))
        v = b[0] if name == "x" else b[1]
        zero = Fraction(0) if isinstance(v, Fraction) else 0.0
        one = Fraction(1) if isinstance(v, Fraction) else 1.0
        rows = [[zero] * (order - i + 1) for i in range(order + 1)]
        rows[0][0] = v
        if order >= 1:
            if name == "x":
                rows[1][0] = one
            else:
                rows[0][1] = one
        return Jet(base, order, rows)

    # ---------------- inspection ----------------

    @property
    def value(self):
        return self.coeffs[0][0]

    def partial(self, i, j):
        """The raw partial derivative d^i_x d^j_y f at the base point."""
        if i < 0 or j < 0:
            raise JetError("derivative indices must be non-negative")
        if i + j > self.order:
            raise InsufficientOrderError(i + j, self.order)
        return math.factorial(i) * math.factorial(j) * self.coeffs[i][j]

    def is_zero(self):
        return all(c == 0 for row in self.coeffs for c in row)

    def to_float(self):
        rows = [[float(c) for c in row] for row in self.coeffs]
        return Jet(self.base, self.order, rows)

    def truncated(self, order):
        if order > self.order:
            raise InsufficientOrderError(order, self.order)
        if order == self.order:
            return self
        rows = [list(self.coeffs[i][: order - i + 1]) for i in range(order + 1)]
        return Jet(self.base, order, rows)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.base == other.base
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return "Jet(base=%s, order=%d, value=%s)" % (
            _fmt_point(self.base),
            self.order,
            self.value,
        )

    # ---------------- arithmetic ----------------

    def _lift(self, value):
        return Jet.constant(value, self.base, self.order)

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
        return self._lift(other)

    def __add__(self, other):
        other = self._coerce(other)
        rows = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.coeffs, other.coeffs)
        ]
        return Jet(self.base, self.order, rows)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        rows = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.coeffs, other.coeffs)
        ]
        return Jet(self.base, self.order, rows)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        rows = [[-c for c in row] for row in self.coeffs]
        return Jet(self.base, self.order, rows)

    def __mul__(self, other):
        other = self._coerce(other)
        n = self.order
        zero = Fraction(0) if (self.exact and other.exact) else 0.0
        rows = [[zero] * (n - i + 1) for i in range(n + 1)]
        bco = other.coeffs
        for i, ra in enumerate(self.coeffs):
            for j, a in enumerate(ra):
                if a == 0:
                    continue
                kmax = n - i - j
                for k in range(kmax + 1):
                    rb = bco[k]
                    ik = i + k
                    row = rows[ik]
                    for l in range(kmax - k + 1):
                        b = rb[l]
                        if b == 0:
                            continue
                        row[j + l] += a * b
        return Jet(self.base, self.order, rows)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        b00 = other.value
        if b00 == 0:
            raise SingularEvaluationError(
                "division by a jet with zero constant term", self.base
            )
        n = self.order
        a, b = self.coeffs, other.coeffs
        q = [[None] * (n - i + 1) for i in range(n + 1)]
        for d in range(n + 1):
            for i in range(d + 1):
                j = d - i
                acc = a[i][j]
                for k in range(i + 1):
                    for l in range(j + 1):
                        if k == i and l == j:
                            continue
                        qkl = q[k][l]
                        if qkl == 0:
                            continue
                        acc = acc - qkl * b[i - k][j - l]
                q[i][j] = acc / b00
        return Jet(self.base, self.order, q)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise JetError("jet exponents must be integers")
        if k < 0:
            return (self._lift(1) / self) ** (-k)
        result = self._lift(1)
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
        n = self.order - 1
        c = self.coeffs
        if var == "x":
            rows = [
                [(i + 1) * c[i + 1][j] for j in range(n - i + 1)]
                for i in range(n + 1)
            ]
        else:
            rows = [
                [(j + 1) * c[i][j + 1] for j in range(n - i + 1)]
                for i in range(n + 1)
            ]
        return Jet(self.base, n, rows)


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


def exp(a):
    a = a.to_float()
    e0 = math.exp(a.value)
    tower = [e0 / math.factorial(k) for k in range(a.order + 1)]
    return _compose(a, tower)


def log(a):
    if a.value <= 0:
        raise SingularEvaluationError(
            "log of a non-positive constant term", a.base
        )
    a = a.to_float()
    c0 = a.value
    tower = [math.log(c0)]
    for k in range(1, a.order + 1):
        tower.append((-1.0) ** (k + 1) / (k * c0**k))
    return _compose(a, tower)


def sin(a):
    a = a.to_float()
    c0 = a.value
    tower = [
        math.sin(c0 + k * math.pi / 2) / math.factorial(k)
        for k in range(a.order + 1)
    ]
    return _compose(a, tower)


def cos(a):
    a = a.to_float()
    c0 = a.value
    tower = [
        math.cos(c0 + k * math.pi / 2) / math.factorial(k)
        for k in range(a.order + 1)
    ]
    return _compose(a, tower)


def sqrt(a):
    if a.value <= 0:
        raise SingularEvaluationError(
            "sqrt of a non-positive constant term", a.base
        )
    a = a.to_float()
    c0 = a.value
    tower = [math.sqrt(c0)]
    for k in range(1, a.order + 1):
        tower.append(tower[-1] * (0.5 - (k - 1)) / (k * c0))
    return _compose(a, tower)

