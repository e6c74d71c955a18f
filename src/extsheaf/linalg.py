"""Exact sparse linear algebra over Q used by the engine.

Vectors are dicts mapping hashable column keys to nonzero exact
rationals: an int until a division forces a Fraction, and a Fraction
only from a pivot other than +-1; the integral entries of a row scaled
by such a pivot stay ints.  Never a float.  The oracle module
carries its own independent dense elimination (see oracles.py).
"""

from __future__ import annotations

from fractions import Fraction


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

    Each kept row owns one pivot column, its least column key, so results
    do not depend on insertion order.  Stored rows are updated in place.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> reduced row (dict), coefficient 1 at pivot

    def reduce(self, row, coeffs=None):
        """Fully reduce a copy of row against current pivots; returns the residual.

        Stored pivot rows carry no entries at other pivot columns, so a
        single pass over the row's pivot-column entries suffices.  The
        multiples used are recorded in coeffs when given.
        """
        row = dict(row)
        pivots = self.pivots
        for c in [c for c in row if c in pivots]:
            v = row[c]
            if coeffs is not None:
                coeffs[c] = v
            _subtract(row, pivots[c], v)
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
        # keep stored rows fully reduced against each other
        for other in self.pivots.values():
            c = other.get(col)
            if c:
                _subtract(other, row, c)
        self.pivots[col] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def coordinates(self, row):
        """Express row as a combination of pivot rows.

        Returns (coeffs keyed by pivot column, residual).
        """
        coeffs = {}
        return coeffs, self.reduce(row, coeffs)


def rank(rows):
    """Exact rank of a list of sparse rows."""
    e = Eliminator()
    for r in rows:
        e.add(r)
    return e.rank


def kernel_basis(rows, cols):
    """Exact kernel basis of the system {row . x = 0 for each row}.

    cols is the ordered list of column keys.  The result is the reduced
    echelon basis of the kernel (one pivot column with coefficient 1 per
    vector, pivots mutually eliminated), sorted by pivot column, so the
    output is canonical.
    """
    e = Eliminator()
    for r in rows:
        e.add(r)
    free = [c for c in cols if c not in e.pivots]
    raw = []
    for f in free:
        # each pivot row reads x_p + sum(row[c] * x_c over free c) = 0
        v = {f: 1}
        for p, row in e.pivots.items():
            c = row.get(f)
            if c:
                v[p] = -c
        raw.append({k: a for k, a in v.items() if a})
    e2 = Eliminator()
    for v in raw:
        e2.add(v)
    return [e2.pivots[c] for c in sorted(e2.pivots)]


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
