"""Finite T0 spaces as posets, graded sheaves on them, sections and cohomology.

A finite T0 space is encoded by its specialization order: ``i <= j``
means the point i lies in the closure of {j}, so the minimal open set
around i is U_i = {j : i <= j}.  A set O is open iff U_i is contained in
O for every i in O.  Sheaves of graded Q-vector spaces are given by
their stalks (= sections over minimal opens) and restriction maps along
the order; sections over any open are compatible families, and
cohomology over an open comes from its chain complex (cech_cohomology).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .linalg import Eliminator, kernel_basis, rank as sparse_rank


class SpaceError(ValueError):
    """Raised for malformed finite-space data or non-open query sets."""


# ---------------------------------------------------------------------------
# finite spaces


class FiniteSpace:
    """Finite poset viewed as a T0 topological space.

    points: iterable of hashable, mutually comparable point ids.
    leq: iterable of pairs (i, j) with i in closure({j}).  Reflexivity is
    added automatically; transitivity and antisymmetry are required.
    """

    def __init__(self, points, leq):
        self.points = tuple(sorted(points))
        pset = set(self.points)
        if len(pset) != len(self.points):
            raise SpaceError("duplicate point ids")
        up = {p: {p} for p in self.points}
        for i, j in leq:
            if i not in pset or j not in pset:
                raise SpaceError(f"leq pair ({i!r}, {j!r}) uses unknown points")
            up[i].add(j)
        for i in self.points:
            for k in up[i]:
                if not up[k] <= up[i]:
                    raise SpaceError(f"leq is not transitive at ({i!r}, {k!r})")
        for i in self.points:
            for j in up[i]:
                if i != j and i in up[j]:
                    raise SpaceError(f"antisymmetry fails on ({i!r}, {j!r})")
        self._up = {p: frozenset(s) for p, s in up.items()}
        self._bit = {p: 1 << k for k, p in enumerate(self.points)}
        self._hasse = None

    def leq(self, i, j):
        return j in self._up[i]

    def minimal_open(self, i):
        """The smallest open set containing i, as a sorted tuple."""
        if i not in self._up:
            raise SpaceError(f"unknown point id {i!r}")
        return tuple(sorted(self._up[i]))

    def mask(self, pts):
        """A set of distinct points as an int: bit k for the k-th point in sorted order."""
        bit = self._bit
        return sum(bit[p] for p in pts)

    def is_open(self, pts):
        s = set(pts)
        if not s <= set(self.points):
            raise SpaceError("set contains unknown points")
        return all(self._up[i] <= s for i in s)

    def comparable_pairs(self, within=None):
        """All strict pairs (i, j) with i <= j, optionally inside a subset."""
        dom = sorted(self.points if within is None else within)
        dset = set(dom)
        return [(i, j) for i in dom for j in sorted(self._up[i]) if j != i and j in dset]

    def covering_pairs(self, within=None):
        """Hasse edges (i, j): i < j with nothing strictly between, as a sorted tuple.

        Computed once per space.  within, if given, must be open (up-closed),
        so its Hasse edges are the edges with both ends inside it.
        """
        if self._hasse is None:
            self._hasse = tuple(
                (i, j) for i in self.points
                for j in sorted(self._up[i] - {i})
                if not any(k != i and k != j and self.leq(k, j) for k in self._up[i]))
        if within is None:
            return self._hasse
        dom = set(within)
        if not self.is_open(dom):
            raise SpaceError("covering_pairs needs an open set")
        return tuple(e for e in self._hasse if e[0] in dom and e[1] in dom)


@dataclass
class IntersectionReport:
    ok: bool
    violations: list = field(default_factory=list)
    empty_pairs: int = 0


def validate_intersection_axiom(space: FiniteSpace) -> IntersectionReport:
    """Check that U_i ∩ U_j is empty or equals U_k for a unique point k."""
    rep = IntersectionReport(ok=True)
    opens = {p: set(space.minimal_open(p)) for p in space.points}
    for i, j in itertools.combinations(space.points, 2):
        inter = opens[i] & opens[j]
        if not inter:
            rep.empty_pairs += 1
            continue
        hits = [k for k in inter if opens[k] == inter]
        if len(hits) != 1:
            rep.ok = False
            rep.violations.append({"pair": [i, j], "intersection": sorted(inter), "minima": sorted(hits)})
    return rep


# ---------------------------------------------------------------------------
# graded spaces and sheaves


class GradedSpace:
    """Finite-dimensional space per integer degree, with optional basis labels,
    kept sorted in each degree; a based space maps each label to its degree
    in degree_of."""

    def __init__(self, dims=None, basis=None):
        if basis is not None:
            self.basis = {d: tuple(sorted(b)) for d, b in basis.items() if b}
            dims = {d: len(b) for d, b in self.basis.items()}
            self.degree_of = {lab: d for d, labs in self.basis.items() for lab in labs}
        else:
            self.basis = None
        dims = {d: n for d, n in (dims or {}).items() if n}
        if any(n < 0 for n in dims.values()):
            raise ValueError("negative dimension")
        self.dims = dims

    def dim(self, d):
        return self.dims.get(d, 0)

    def hilbert(self, cutoff):
        return [self.dim(d) for d in range(cutoff + 1)]

    def total_dim(self):
        return sum(self.dims.values())

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class GradedSheaf:
    """Sheaf of graded vector spaces on a FiniteSpace.

    stalks: point -> GradedSpace with basis labels (hashable, unique per
    stalk).  restrictions: (i, j) -> {source_label: ((target_label,
    coefficient), ...)} for i < j; at least the covering pairs out of every
    point with a nonzero stalk must be present, the rest are composed.
    Every given entry must preserve degree (so the composed ones do too),
    and is kept merged (_merged), so apply, global_sections and
    cech_cohomology read one normal form.
    """

    def __init__(self, space: FiniteSpace, stalks, restrictions):
        self.space = space
        self.stalks = dict(stalks)
        empty = GradedSpace(basis={})      # read-only, so one serves every missing point
        for p in space.points:
            self.stalks.setdefault(p, empty)
        if any(st.basis is None for st in self.stalks.values()):
            raise SpaceError("sheaf stalks need explicit bases")
        self._rest = {}
        for (i, j), m in restrictions.items():
            if i == j or not space.leq(i, j):
                raise SpaceError(f"restriction on non-comparable pair ({i!r}, {j!r})")
            source, target = self.stalks[i].degree_of, self.stalks[j].degree_of
            rest = self._rest[(i, j)] = {}
            try:
                for s, terms in m.items():
                    d = source[s]
                    for t, _ in terms:
                        if target[t] != d:
                            raise SpaceError("restriction map is not degree-preserving")
                    # one term with a nonzero coefficient is merged already
                    rest[s] = _merged(terms) if len(terms) > 1 or terms and not terms[0][1] else tuple(terms)
            except KeyError as exc:
                raise SpaceError(f"{exc.args[0]!r} is not a basis label") from None
        # sheaves are read-only once built, so the lowest occupied degree is fixed
        self._min_degree = min((d for st in self.stalks.values() for d in st.dims), default=None)

    def min_degree(self):
        return self._min_degree

    def restriction(self, i, j):
        """Restriction map stalk(i) -> stalk(j) for i <= j, as a label map."""
        if i == j:
            return {lab: ((lab, 1),) for labs in self.stalks[i].basis.values() for lab in labs}
        key = (i, j)
        if key in self._rest:
            return self._rest[key]
        if not self.space.leq(i, j):
            raise SpaceError(f"({i!r}, {j!r}) not comparable")
        if self.stalks[i].total_dim() == 0 or self.stalks[j].total_dim() == 0:
            self._rest[key] = {}
            return {}
        for k in self.space.minimal_open(i):
            if k not in (i, j) and self.space.leq(k, j) and (i, k) in self._rest:
                comp = _compose(self._rest[(i, k)], self.restriction(k, j))
                self._rest[key] = comp
                return comp
        raise SpaceError(f"no restriction data from {i!r} towards {j!r}")

    def apply(self, i, j, vec):
        """Apply restriction to a sparse stalk vector {label: coeff}."""
        m = self.restriction(i, j)
        out = {}
        for s, c in vec.items():
            for t, c2 in m.get(s, ()):
                v = out.get(t, 0) + c * c2
                if v:
                    out[t] = v
                else:
                    del out[t]
        return out

    def validate_functoriality(self):
        """Check the chain-composition law on all comparable pairs; returns problems."""
        problems = []
        for i, j in self.space.comparable_pairs():
            direct = self.restriction(i, j)
            srcs = [lab for labs in self.stalks[i].basis.values() for lab in labs]
            for k in self.space.minimal_open(i):
                if k in (i, j) or not self.space.leq(k, j):
                    continue
                via = _compose(self.restriction(i, k), self.restriction(k, j))
                for s in srcs:
                    left = {t: c for t, c in via.get(s, ()) if c}
                    right = {t: c for t, c in direct.get(s, ()) if c}
                    if left != right:
                        problems.append((i, k, j, s))
        return problems


def _compose(first, second):
    return {s: _merged((t, c * c2) for mid, c in terms for t, c2 in second.get(mid, ()))
            for s, terms in first.items()}


def _merged(terms):
    """Restriction terms (label, coefficient) in normal form: each label once, in
    the order it first comes, and no zero coefficient."""
    acc = {}
    for t, c in terms:
        acc[t] = acc.get(t, 0) + c
    return tuple((t, c) for t, c in acc.items() if c)


# ---------------------------------------------------------------------------
# sections


class SectionSpace(GradedSpace):
    """Sections over an open set: dimensions by rank, basis vectors on demand.

    columns[d] is the sorted list of the degree-d columns, one per (point,
    label), and rows[d] is the echelon form of the degree-d constraints
    over positions into columns[d], so every key the elimination hashes
    is an int and the least position is the least column.  vectors[d],
    the canonical kernel basis over the (point, label) keys, is built the
    first time vectors is read.
    """

    def __init__(self, rows_by_degree, columns_by_degree):
        self.rows = rows_by_degree
        self.columns = columns_by_degree
        self._vectors = None
        super().__init__(dims={d: len(cols) - len(rows_by_degree[d])
                               for d, cols in columns_by_degree.items()})

    @property
    def vectors(self):
        if self._vectors is None:
            self._vectors = {}
            for d in sorted(self.columns):
                cols = self.columns[d]
                vs = kernel_basis(self.rows[d], range(len(cols)))
                if vs:
                    self._vectors[d] = tuple({cols[n]: a for n, a in v.items()} for v in vs)
        return self._vectors

    def contains(self, degree, vector):
        """Whether a sparse vector over (point, label) columns is a section of the given degree."""
        at = {k: n for n, k in enumerate(self.columns.get(degree, ()))}
        if any(k not in at for k in vector):
            return False
        vector = {at[k]: a for k, a in vector.items()}
        return all(sum(c * vector.get(n, 0) for n, c in row.items()) == 0
                   for row in self.rows.get(degree, ()))


def _stalk_labels(U, sheaf, cutoff):
    """Point of U -> its labels of degree at most cutoff, by degree; a cutoff under them all raises."""
    lo = sheaf.min_degree()
    if lo is not None and cutoff < lo:
        raise SpaceError(f"cutoff {cutoff} below minimal occupied degree {lo}")
    return {p: {d: labs for d, labs in sheaf.stalks[p].basis.items() if d <= cutoff} for p in U}


def _section_columns(cells, labels):
    """The sorted (cell, label) columns of each degree, and cell -> label -> position there.

    A cell is a strict chain p_0 < ... < p_r, read at its last point:
    its labels are labels[p_r].  A cell of one point is named by the
    point, so the columns of points are (point, label).  Only the cells
    whose last point carries labels get columns.  The cells come sorted
    and a stalk keeps the labels of each degree sorted, so the columns
    come out sorted cell by cell.
    """
    cols, at = {}, {}
    for cell in cells:
        if labels[cell[-1]]:
            name = cell if len(cell) > 1 else cell[0]
            at[cell] = here = {}
            for d, labs in labels[cell[-1]].items():
                keys = cols.setdefault(d, [])
                for lab in labs:
                    here[lab] = len(keys)
                    keys.append((name, lab))
    return cols, at


def global_sections(space: FiniteSpace, U, sheaf: GradedSheaf, cutoff) -> SectionSpace:
    """Compatible families (s_i) with restriction(i,j)(s_i) = s_j, degreewise.

    One pass over the covering pairs of U imposes the constraints of
    every degree (functoriality makes the other comparable pairs
    redundant), one row per label at j; the kernel basis is canonical
    whatever the row order.  Only ranks are taken, so dimensions cost
    no kernel basis.
    """
    U = tuple(sorted(U))
    if not space.is_open(U):
        raise SpaceError("global_sections needs an open set")
    labels = _stalk_labels(U, sheaf, cutoff)
    cols, at = _section_columns([(p,) for p in U], labels)
    elims = {d: Eliminator() for d in cols}
    for i, j in space.covering_pairs(within=U):
        dst = at.get((j,))
        if dst is None:
            continue            # nothing to match, and no restriction to compose
        m = sheaf.restriction(i, j)
        rows = {t: {n: -1} for t, n in dst.items()}
        for s, n in at.get((i,), {}).items():
            for t, c in m.get(s, ()):
                row = rows[t]
                row[n] = row.get(n, 0) + c
        for d, labs in labels[j].items():
            for t in labs:
                elims[d].add({k: v for k, v in rows[t].items() if v})
    return SectionSpace({d: list(e.pivots.values()) for d, e in elims.items()}, cols)


# ---------------------------------------------------------------------------
# cohomology from the chains of U


def cech_cohomology(space: FiniteSpace, U, sheaf: GradedSheaf, cutoff):
    """Sheaf cohomology of sheaf over the open U, from the chain complex of U.

    Cohomology over U is the derived limit of the stalks over the poset
    U (Bousfield-Kan): C^r is the sum, over strict chains p_0 < ... < p_r
    in U, of the stalk at p_r, and (da)_{p_0..p_{r+1}} = sum_{k<=r}
    (-1)^k a_{.. without p_k ..} + (-1)^{r+1} restriction(p_r, p_{r+1})
    a_{p_0..p_r}.  One loop builds every d^r by that formula, over
    positions into the columns that _section_columns gives the chains
    of length r + 1.  Returns one GradedSpace per cohomological degree,
    trailing zeros dropped.  The first, H^0, is the SectionSpace of the
    echelon of d^0 over the (point, label) columns of global_sections;
    the others are dimensions from ranks.
    """
    U = tuple(sorted(U))
    if not space.is_open(U):
        raise SpaceError("cech_cohomology needs an open set")
    labels = _stalk_labels(U, sheaf, cutoff)
    degrees = sorted({d for labs in labels.values() for d in labs})
    if not degrees:
        return [SectionSpace({}, {})]
    pulled = {}

    def pullback(i, j):
        """restriction(i, j) read backwards: target label -> ((source label, coefficient), ...)."""
        if (i, j) not in pulled:
            back = {}
            m = sheaf.restriction(i, j) if labels[i] else {}
            for labs in labels[i].values():
                for s in labs:
                    for t, c in m.get(s, ()):
                        back.setdefault(t, []).append((s, c))
            pulled[(i, j)] = back
        return pulled[(i, j)]

    out, chains = [], [(p,) for p in U]     # chains: the strict chains p_0 < ... < p_r of U, sorted
    while chains:
        r = len(chains[0]) - 1
        cols, at = _section_columns(chains, labels)
        chains = [c + (q,) for c in chains for q in space.minimal_open(c[-1]) if q != c[-1]]
        rows = {d: [] for d in degrees}     # d^r : C^r -> C^{r+1}, one row per (chain, label) of C^{r+1}
        last = -1 if r % 2 == 0 else 1      # (-1)^{r+1}
        for t in chains:
            if not labels[t[-1]]:
                continue
            faces = [(at[t[:k] + t[k + 1:]], 1 if k % 2 == 0 else -1) for k in range(r + 1)]
            back, src = pullback(t[-2], t[-1]), at.get(t[:-1])
            for d, labs in labels[t[-1]].items():
                for lab in labs:
                    row = {f[lab]: e for f, e in faces}
                    for s, c in back.get(lab, ()):
                        row[src[s]] = last * c
                    rows[d].append(row)
        if r:
            ranks = {d: sparse_rank(rows[d]) for d in degrees}
            out.append(GradedSpace(dims={d: len(cols.get(d, ())) - ranks[d] - below[d] for d in degrees}))
        else:   # the echelon of d^0 is kept as H^0
            h0 = {d: Eliminator() for d in degrees}
            for d, e in h0.items():
                for row in rows[d]:
                    e.add(row)
            ranks = {d: e.rank for d, e in h0.items()}
            out.append(SectionSpace({d: list(e.pivots.values()) for d, e in h0.items()}, cols))
        below = ranks
    while len(out) > 1 and not out[-1].dims:
        out.pop()
    return out
