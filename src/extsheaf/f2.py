"""Linear algebra over F2 on bit rows: the one home of F2 arithmetic.

A bit row is a tuple of 0/1 ints; it stands for a group element or a
character of an elementary abelian 2-group.  A matrix M is a tuple of
rows and stands for the group map sending basis vector i to M[i].
Rows stay tuples rather than int bitmasks because labels, sign rows and
K-datum maps are tuples wherever they enter or leave the program.
"""

from __future__ import annotations


def bits(row):
    """A row of 0/1 entries (ints or digit strings) as a bit row."""
    return tuple(int(b) % 2 for b in row)


def add(a, b):
    return tuple((x + y) % 2 for x, y in zip(a, b))


def dot(a, b):
    """The F2 pairing; a character chi takes the sign (-1)^dot(chi, g) on g."""
    return sum(x * y for x, y in zip(a, b)) % 2


def image(row, matrix):
    """Image of a group element under the map sending basis i to matrix[i]."""
    out = (0,) * (len(matrix[0]) if matrix else 0)
    for bit, mrow in zip(row, matrix):
        if bit:
            out = add(out, mrow)
    return out


def pullback(chi, matrix):
    """The character chi composed with the map sending basis i to matrix[i]."""
    return tuple(dot(mrow, chi) for mrow in matrix)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def reduce(echelon_rows, vec):
    """Reduce vec against reduced echelon rows: (coordinates, residual)."""
    coords = []
    for r in echelon_rows:
        c = vec[r.index(1)]
        coords.append(c)
        if c:
            vec = add(vec, r)
    return tuple(coords), vec


def echelon(rows):
    """The reduced row echelon basis of the span of rows, sorted by pivot."""
    out = []
    for row in rows:
        _, row = reduce(out, bits(row))
        if any(row):
            p = row.index(1)
            out = [add(r, row) if r[p] else r for r in out]
            out.append(row)
            out.sort(key=lambda r: r.index(1))
    return tuple(out)


def coordinates(echelon_rows, vec):
    """Coordinates of vec over reduced echelon rows, or None off their span."""
    coords, rest = reduce(echelon_rows, bits(vec))
    return None if any(rest) else coords
