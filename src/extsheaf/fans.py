"""Smooth complete fans in an overlattice with 2-torsion quotient.

The ambient lattice N is Z^n in standard coordinates; the overlattice is
N' = N + sum of Z * (g/2) over integer generator rows g, so N'/N is
elementary abelian of exponent 2.  Everything is computed through the
doubled lattice M = 2N' = <2 Z^n, g_1, ..., g_r>, a sublattice of Z^n
containing 2 Z^n, with N'/N identified with the image of M in (Z/2)^n.

Rays are primitive integer vectors of N; cones are sets of ray indices.
The lattice basis comes from a Hermite-style row sweep; every solve over
Q goes through linalg.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import f2
from .isotropy import DatumError, IsotropyFamily
from .linalg import abs_det, kernel_basis, solve_in_span


# ---------------------------------------------------------------------------
# integer matrix utilities


def _row_hnf(rows):
    """Triangular basis of the integer row lattice (Hermite-style column
    sweep with gcd reduction; no divisibility normalization needed)."""
    rows = [list(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    basis = []
    for col in range(n):
        work = [r for r in rows if r[col] != 0]
        zero = [r for r in rows if r[col] == 0]
        while len(work) > 1:
            work.sort(key=lambda r: abs(r[col]))
            a = work[0]
            nxt = [a]
            for r in work[1:]:
                q = r[col] // a[col]
                r2 = [x - q * y for x, y in zip(r, a)]
                (nxt if r2[col] != 0 else zero).append(r2)
            work = nxt
        if work:
            basis.append(work[0])
        rows = [r for r in zero if any(r)]
    return basis


def lattice_basis(gens, n):
    """Basis (list of integer rows) of the lattice generated by gens in Z^n."""
    rows = [list(map(int, g)) for g in gens]
    basis = _row_hnf(rows)
    if len(basis) != n:
        raise DatumError("generators do not span a full-rank lattice")
    return basis


def coords_in_lattice(basis, v):
    """Integer coordinates of v in the row basis, or None."""
    sol = solve_in_span([_sparse(b) for b in basis], _sparse(v))
    if sol is None or any(s.denominator != 1 for s in sol):
        return None
    return [int(s) for s in sol]


def _sparse(v):
    """An integer vector as a sparse row over Q, keyed by position."""
    return {i: Fraction(x) for i, x in enumerate(v) if x}


def _content(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


# ---------------------------------------------------------------------------
# fans


@dataclass
class Fan:
    """Smooth complete fan data; validated on construction."""

    rank: int
    overlattice_gens: tuple
    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        n = self.rank
        if n < 1:
            raise DatumError("lattice rank must be at least 1")
        rays = []
        for r in self.rays:
            r = tuple(int(x) for x in r)
            if len(r) != n:
                raise DatumError("ray length does not match the lattice rank")
            if _content(r) != 1:
                raise DatumError(f"ray {r} must be a primitive integer vector")
            rays.append(r)
        if len(set(rays)) != len(rays):
            raise DatumError("duplicate rays")
        self.rays = tuple(rays)
        cones = []
        for c in self.max_cones:
            c = tuple(sorted(set(int(i) for i in c)))
            if any(i < 0 or i >= len(rays) for i in c):
                raise DatumError("cone refers to an unknown ray")
            cones.append(c)
        if len(set(cones)) != len(cones):
            raise DatumError("duplicate maximal cones")
        self.max_cones = tuple(sorted(cones))
        used = {i for c in self.max_cones for i in c}
        if used != set(range(len(rays))):
            raise DatumError("every ray must occur in some maximal cone")
        gens = tuple(tuple(int(x) for x in g) for g in self.overlattice_gens)
        if any(len(g) != n for g in gens):
            raise DatumError("overlattice generator length does not match the rank")
        self.overlattice_gens = gens
        # doubled lattice M = <2 Z^n, gens>
        self.doubled_basis = lattice_basis(
            [tuple(2 if i == j else 0 for i in range(n)) for j in range(n)] + list(gens), n)
        self._validate_smooth()
        self._validate_complete()

    # -- N'-scale helpers (everything doubled: 2*primitive-in-N' is an M vector)

    def doubled_primitive(self, ray_index):
        r = self.rays[ray_index]
        return r if coords_in_lattice(self.doubled_basis, r) is not None else tuple(2 * x for x in r)

    def ray_class_mod2(self, ray_index):
        """Class of the N'-primitive ray generator in N'/N as a bit row in (Z/2)^n."""
        return f2.bits(self.doubled_primitive(ray_index))

    def _cone_matrix(self, cone):
        rows = []
        for i in cone:
            coords = coords_in_lattice(self.doubled_basis, self.doubled_primitive(i))
            if coords is None:
                raise DatumError("internal: primitive ray not in the doubled lattice")
            rows.append(coords)
        return rows

    def _validate_smooth(self):
        for cone in self.max_cones:
            rows = self._cone_matrix(cone)
            k = len(rows)
            minors = [int(abs_det([_sparse([row[j] for j in js]) for row in rows]))
                      for js in itertools.combinations(range(self.rank), k)]
            g = 0
            for mnr in minors:
                g = gcd(g, mnr)
            if g != 1:
                raise DatumError(f"cone {cone} is not smooth in the overlattice")

    def _validate_complete(self):
        n = self.rank
        if not self.max_cones:
            raise DatumError("non-complete fan: no maximal cones")
        if any(len(c) != n for c in self.max_cones):
            raise DatumError("non-complete fan: a maximal cone is not full-dimensional")
        ridge_owners = {}
        for ci, cone in enumerate(self.max_cones):
            for ridge in itertools.combinations(cone, n - 1):
                ridge_owners.setdefault(ridge, []).append(ci)
        adj = {i: set() for i in range(len(self.max_cones))}
        for ridge, owners in ridge_owners.items():
            if len(owners) != 2:
                raise DatumError("non-complete fan: a facet is not shared by exactly two cones")
            a, b = owners
            adj[a].add(b)
            adj[b].add(a)
            if not self._opposite_sides(ridge, a, b):
                raise DatumError("non-complete fan: cones on the same side of a shared facet")
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(self.max_cones):
            raise DatumError("non-complete fan: support is disconnected")

    def _opposite_sides(self, ridge, a, b):
        normal = self._ridge_normal(ridge)
        ra = next(i for i in self.max_cones[a] if i not in ridge)
        rb = next(i for i in self.max_cones[b] if i not in ridge)
        sa = sum(Fraction(x) * y for x, y in zip(normal, self.rays[ra]))
        sb = sum(Fraction(x) * y for x, y in zip(normal, self.rays[rb]))
        return sa * sb < 0

    def _ridge_normal(self, ridge):
        if not ridge:
            return (Fraction(1),)  # n = 1: the ridge is {0}, any nonzero functional
        kernel = kernel_basis([_sparse(self.rays[i]) for i in ridge], range(self.rank))
        if len(kernel) != 1:
            raise DatumError("internal: ridge span is not a hyperplane")
        return tuple(kernel[0].get(i, Fraction(0)) for i in range(self.rank))

    # -- combinatorics

    def ray_names(self):
        return tuple(f"r{i}" for i in range(len(self.rays)))

    def orbit_sets(self):
        """All cones as sorted tuples of ray names (subsets of maximal cones)."""
        names = self.ray_names()
        out = set()
        for cone in self.max_cones:
            for k in range(len(cone) + 1):
                for sub in itertools.combinations(cone, k):
                    out.add(tuple(sorted(names[i] for i in sub)))
        return sorted(out)


def toric_datum(fan: Fan):
    """Orbit-mode combinatorial datum of a fan: l = 0, one face per cone.

    Returns (datum, D-basis rows); the basis coordinatizes N'/N inside
    (Z/2)^n and is what label character bits refer to.
    """
    from .faces import KData, SymmetricDatum

    fam, dbasis = toric_isotropy(fan)
    S = fan.orbit_sets()
    datum = SymmetricDatum(
        V=fan.ray_names(), S=S, l=0, Jmap={s: () for s in S},
        isotropy=fam, kdata=KData(m=fam.m, l=0))
    return datum, dbasis


def toric_isotropy(fan: Fan):
    """IsotropyFamily of a smooth complete fan in the overlattice.

    D = N'/N with its canonical reduced-echelon basis; for a cone σ the
    subspace D_σ is spanned by the classes of the N'-primitive ray
    generators (the lattice points of span σ form a direct summand of N'
    by smoothness).  Returns (family, D-basis rows in (Z/2)^n).
    """
    dbasis = f2.echelon(fan.overlattice_gens)
    m = len(dbasis)
    names = fan.ray_names()
    ray_coords = {}
    for i in range(len(fan.rays)):
        cls = fan.ray_class_mod2(i)
        coords = f2.coordinates(dbasis, cls)
        if coords is None:
            raise DatumError("internal: ray class escapes N'/N")
        ray_coords[names[i]] = coords
    subspaces = {}
    for orbit in fan.orbit_sets():
        subspaces[orbit] = f2.echelon(ray_coords[v] for v in orbit)
    fam = IsotropyFamily(m=m, subspaces=subspaces, mode="toric")
    return fam, dbasis
