"""Formulas evaluated on `Jet` objects, which the tests take as reference
for what the package computes on raw tables.  Not a test module: the test
files import it.

- `curvature(js)`: the curvature of the prolonged connection,
  F = dO2/dx - dO1/dy + O1 O2 - O2 O1.
- `Lowering`: a jet whose binary operations run at the lower order of
  their operands, so that the tractor stack's formulas, written once for
  trees and jets, run on jets of a connection.
"""

from projmet.invariants import _connection_matrices
from projmet.jets import InsufficientOrderError


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
