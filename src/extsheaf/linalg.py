"""Exact sparse linear algebra over Q used by the engine.

Vectors are dicts mapping hashable column keys to nonzero exact
rationals: an int until a division forces a Fraction, and a Fraction
only from a pivot other than +-1; the integral entries of a row scaled
by such a pivot, and of a back-substituted row, stay ints.  Never a
float.  There is one elimination kernel: `Eliminator` keeps its rows in
row-echelon form and never rewrites a stored row, and `kernel_basis`
back-substitutes once, where it needs the reduced form.  The oracle
module carries its own independent dense elimination (see oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


class Tag:
    """Bookkeeping column key that sorts after every real column key."""

    __slots__ = ("idx",)

    def __init__(self, idx):
        self.idx = idx

    def __lt__(self, other):
        return isinstance(other, Tag) and self.idx < other.idx

    def __gt__(self, other):
        return not isinstance(other, Tag) or self.idx > other.idx

    def __eq__(self, other):
        return isinstance(other, Tag) and self.idx == other.idx

    def __hash__(self):
        return hash(("linalg.Tag", self.idx))

    def __repr__(self):
        return f"Tag({self.idx})"


def _subtract(row, pivot_row, c):
    """row -= c * pivot_row in place, dropping zeros."""
    for k, a in pivot_row.items():
        b = row.get(k, 0) - c * a
        if b:
            row[k] = b
        else:
            row.pop(k, None)


def exact(q):
    """A Fraction as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Eliminator:
    """Incremental row echelon store over Q with sparse rows.

    Each kept row owns one pivot column, its least column key, with
    coefficient 1 there, so the rows are in row-echelon form and the
    rank and the span do not depend on insertion order.  A row is stored
    as reduce leaves it and never rewritten: adding a row reads no other
    stored row than those its own reduction meets.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> echelon row (dict), coefficient 1 at its least column

    def reduce(self, row, coeffs=None):
        """Fully reduce a copy of row against current pivots; returns the residual.

        The row's pivot-column entries are cleared in increasing column
        order, kept in a heap: subtracting the row of pivot c adds entries
        only past c, so a cleared column never comes back, and the
        residual has no entry at any pivot column.  The multiples used,
        coefficients of the stored echelon rows, are recorded in coeffs
        when given.
        """
        row = dict(row)
        pivots = self.pivots
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            v = row.get(c)
            if v is None:
                continue        # pushed again after it cancelled, and cleared already
            if coeffs is not None:
                coeffs[c] = v
            for k, a in pivots[c].items():
                b = row.get(k, 0) - v * a
                if b:
                    if k not in row and k in pivots:
                        heappush(todo, k)
                    row[k] = b
                else:
                    del row[k]
        return row

    def add(self, row):
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        p = row[col]
        if p == -1:
            row = {k: -a for k, a in row.items()}
        elif p != 1:
            inv = Fraction(1) / p
            row = {k: exact(a * inv) for k, a in row.items()}
        self.pivots[col] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def coordinates(self, row):
        """Express row as a combination of the stored echelon rows.

        Returns (coeffs keyed by pivot column, residual).  No engine code
        calls this (ExtAlgebra.express reads coordinates at the basis
        pivots); it is kept because perfbench/spans.py traces it by name.
        """
        coeffs = {}
        return coeffs, self.reduce(row, coeffs)


def rank(rows):
    """Exact rank of a list of sparse rows."""
    e = Eliminator()
    for r in rows:
        e.add(r)
    return e.rank


def _back_substitute(pivots):
    """The reduced echelon form of echelon rows {pivot: row}, by pivot, with exact entries.

    From the greatest pivot down, each row is cleared at the pivots past
    its own with rows already reduced, which carry no entry at another
    pivot, so one pass over the row's entries does it.
    """
    done = {}
    for p in sorted(pivots, reverse=True):
        row = dict(pivots[p])
        for c in [c for c in row if c in done]:
            _subtract(row, done[c], row[c])
        done[p] = {k: exact(a) for k, a in row.items()}
    return {p: done[p] for p in reversed(done)}


def kernel_basis(rows, cols):
    """Exact kernel basis of the system {row . x = 0 for each row}.

    cols is the ordered list of column keys.  The result is the reduced
    echelon basis of the kernel (one pivot column with coefficient 1 per
    vector, pivots mutually eliminated), sorted by pivot column, so the
    output is canonical.  Each of the two eliminations (the rows, then
    the raw kernel vectors) stays in echelon form while it runs and is
    back-substituted once, at its end.
    """
    e = Eliminator()
    for r in rows:
        e.add(r)
    reduced = _back_substitute(e.pivots)
    raw = {c: {c: 1} for c in cols if c not in reduced}
    for p, row in reduced.items():
        # the pivot row reads x_p + sum(row[f] * x_f over free f) = 0
        for f, c in row.items():
            if f != p:
                raw[f][p] = -c
    e2 = Eliminator()
    for v in raw.values():
        e2.add(v)
    return list(_back_substitute(e2.pivots).values())


def abs_det(rows):
    """|det| of a square matrix given as sparse rows.

    Each row is reduced against the rows before it, which leaves the
    determinant unchanged; the residuals are triangular in pivot order,
    so |det| is the product of their pivot entries.
    """
    e = Eliminator()
    det = Fraction(1)
    for r in rows:
        r = e.reduce(r)
        if not r:
            return Fraction(0)
        det *= r[min(r)]
        e.add(r)
    return abs(det)


def solve_in_span(basis, target):
    """Write target as a combination of basis vectors if possible.

    Returns the coefficient list (aligned with basis) or None.  Each
    basis vector is eliminated with a Tag column of its own; reducing
    target against the real pivots leaves minus its coefficients in the
    Tag columns.
    """
    basis = list(basis)
    e = Eliminator()
    for i, b in enumerate(basis):
        e.add({**b, Tag(i): 1})
    res = e.reduce(target)
    out = [0] * len(basis)
    for k, a in res.items():
        if not isinstance(k, Tag):
            return None
        out[k.idx] = -a
    return out
