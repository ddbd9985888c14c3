"""Formulas evaluated on `Jet` objects, which the tests take as reference
for what the package computes on raw tables.  Not a test module: the test
files import it.

- `curvature(js)`: the curvature of the prolonged connection,
  F = dO2/dx - dO1/dy + O1 O2 - O2 O1.
- `chain_cov_deriv(row, omega, var)`: a covariant derivative
  D_a V = dV/da - V . O_a of a row of six jets, as the chain of jet
  derivatives, products and differences.
- `row_jets`, `raw_row` and `covariant`: the package keeps derivative
  rows raw (`JetStructure.row`); these convert them to jets and back, and
  run `invariants.cov_deriv` on jets.
- `fused(head, pairs)`: head - a1*b1 - a2*b2 - ... on jets through
  `jets._mul_sub` on their raw tables.
- `Lowering`: a jet whose binary operations run at the lower order of
  their operands, so that the tractor stack's formulas, written once for
  trees and jets, run on jets of a connection.
"""

import math

from projmet import jets
from projmet.invariants import Columns, _connection_matrices, cov_deriv
from projmet.jets import InsufficientOrderError, JetError


def curvature(js):
    """F = dO2/dx - dO1/dy + O1 O2 - O2 O1.  Its first five rows vanish
    identically and its sixth row equals V."""
    n = js.order
    if n < 3:
        raise InsufficientOrderError(3, n)
    m = n - 3
    o1, o2 = _connection_matrices(js, n - 2)
    o1t = [[e.truncated(m) for e in row] for row in o1]
    o2t = [[e.truncated(m) for e in row] for row in o2]
    out = []
    for i in range(6):
        row = []
        for j in range(6):
            acc = o2[i][j].diff("x") - o1[i][j].diff("y")
            for k in range(6):
                acc = acc + o1t[i][k] * o2t[k][j] - o2t[i][k] * o1t[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def chain_cov_deriv(row, omega, var):
    """D_a row = d row/da - row . O_a for a row of six jets and O_a a 6x6
    matrix of jets, one order below the row: entry j is the derivative of
    row[j] minus the products of row[i] and O_a[i][j], both truncated to
    that order, one by one in the order of i."""
    m = row[0].order - 1
    out = []
    for j in range(6):
        acc = row[j].diff(var)
        for i in range(6):
            acc = acc - row[i].truncated(m) * omega[i][j].truncated(m)
        out.append(acc)
    return tuple(out)


def row_jets(row, base):
    """The raw row (order, den, tables) as its six jets at `base`, exact
    ones reduced."""
    n, den, tables = row
    make = jets._jet if den is None else jets._reduced
    return tuple(make(base, n, t if n else (t,), den) for t in tables)


def raw_row(row):
    """Six jets of one order and arithmetic as a raw row, exact ones over
    the lcm of their denominators."""
    n = row[0].order
    if row[0].exact:
        den = math.lcm(*(e._den for e in row))
        tables = [tuple(c * (den // e._den) for c in e._cells) for e in row]
    else:
        den, tables = None, [e._cells for e in row]
    return n, den, tuple(t[0] for t in tables) if n == 0 else tuple(tables)


def covariant(row, omega, var):
    """`invariants.cov_deriv` of a row of six jets along O_a, a 6x6 matrix
    of jets, through the raw row: the derivative's six jets."""
    return row_jets(cov_deriv(raw_row(row), Columns.of(omega), var),
                    row[0].base)


def fused(head, pairs):
    """head - a1*b1 - a2*b2 - ... for the pairs (a, b) of jets, read
    truncated to head's order, through `jets._mul_sub` on their raw
    tables: exact ones over one common denominator, reduced once.  Jets of
    two arithmetics raise JetError."""
    n, exact = head.order, head.exact
    if any(e.exact is not exact for pair in pairs for e in pair):
        raise JetError("fused takes jets of one arithmetic")
    links = [(a.truncated(n), b.truncated(n)) for a, b in pairs]
    if not exact:
        cells = jets._mul_sub(head._cells, [(a._cells, b._cells)
                                            for a, b in links], n, 0.0)
        return jets._jet(head.base, n, cells, None)
    den = math.lcm(head._den, *(a._den * b._den for a, b in links))
    cells = jets._mul_sub(
        jets._scaled(head._cells, den // head._den),
        [(jets._scaled(a._cells, den // (a._den * b._den)), b._cells)
         for a, b in links], n, 0)
    return jets._reduced(head.base, n, cells, den)


class Lowering:
    """A jet (`.jet`) whose + - * with another `Lowering` truncate the
    higher-order operand to the other's order, keeping the operands in
    their order; a number meets it as it meets the jet.  Jets themselves
    refuse operands of two orders."""

    __slots__ = ("jet",)

    def __init__(self, jet):
        self.jet = jet

    def _pair(self, other):
        if not isinstance(other, Lowering):
            return self.jet, other
        m = min(self.jet.order, other.jet.order)
        return self.jet.truncated(m), other.jet.truncated(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Lowering(a + b)

    def __sub__(self, other):
        a, b = self._pair(other)
        return Lowering(a - b)

    def __mul__(self, other):
        a, b = self._pair(other)
        return Lowering(a * b)

    def __radd__(self, number):
        return Lowering(number + self.jet)

    def __rsub__(self, number):
        return Lowering(number - self.jet)

    def __rmul__(self, number):
        return Lowering(number * self.jet)

    def diff(self, var):
        return Lowering(self.jet.diff(var))


def lowered(t):
    """A jet, or nested lists or tuples of jets, as `Lowering`s."""
    if isinstance(t, (list, tuple)):
        return [lowered(e) for e in t]
    return Lowering(t)


def lifted(t):
    """The jets of a `Lowering`, or of nested lists of them."""
    if isinstance(t, list):
        return [lifted(e) for e in t]
    return t.jet
