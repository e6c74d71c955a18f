"""Global sections of H with the face-wise product: the extension algebra.

The algebra is computed blockwise as compatible families.  Sheaf
cohomology from the chain complex of the face poset is a second,
independent route to the same answer (its H^0 is the kernel of d^0 over
every comparable pair), run as the report concentration_check next to
the vanishing report over all G-stable opens.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field

from .faces import closed_face, downward_closed_families, family_name, g_stable_open
from .hsheaf import HSheaf, unit_label
from .isotropy import DatumError, set_name
from .linalg import _subtract, rank
from .posets import cech_cohomology


@dataclass
class BasisElement:
    index: int
    block: tuple      # (i, j) catalog indices
    degree: int
    vector: dict      # (face key, stalk label) -> int or Fraction, shared with the SectionSpace
    name: str


class ExtAlgebra:
    """Graded associative unital algebra presented degreewise by basis
    and multiplication table, read by rows (row, unmemoized, for ext) or
    by pairs (multiply, memoized, for the checks; a pair is
    HSheaf.multiply_sections).

    Basis vectors stay keyed on (face key, stalk label), in their order;
    products and pivot tables are keyed on H's packed columns (face base +
    label code, see HSheaf.code), so a product column is an int sum.
    """

    def __init__(self, H: HSheaf):
        self.H = H
        self.catalog = H.catalog
        self.cutoff = H.cutoff
        self.sections = {}
        self.basis = []
        self.by_block = {}        # ids sorted by degree
        self._degrees = {}        # block -> degrees of its ids
        self.truncated_pairs = 0
        self._table = {}
        self._coord = {}          # (block, degree) -> {packed pivot: (basis index, packed vector or None)}
        self._faces = None        # block -> face key -> [(y, label code, coeff)] in basis order, built by row
        self._crowded = None      # (block, face key) where a basis vector has several entries, built by row
        n = len(self.catalog)
        for i, j in itertools.product(range(n), repeat=2):
            sec = H.sections(H.blocks[(i, j)])
            self.sections[(i, j)] = sec
            ids = []
            for d in sorted(sec.vectors):
                for v in sec.vectors[d]:
                    idx = len(self.basis)
                    name = f"e{idx}"
                    self.basis.append(BasisElement(idx, (i, j), d, v, name))
                    ids.append(idx)
            self.by_block[(i, j)] = tuple(ids)
            self._degrees[(i, j)] = [self.basis[k].degree for k in ids]
        self.idempotents = {}
        for a in range(n):
            vec = diagonal_unit(H.blocks[(a, a)].sheaf, self.sections[(a, a)])
            coeffs = self.express((a, a), 0, vec)
            if coeffs is None:
                raise DatumError(f"diagonal unit of block {a}:{a} is not in its degree-0 basis")
            self.idempotents[a] = coeffs

    # -- coordinates

    def express(self, block, degree, vector):
        """Coefficients {basis index: c} of a vector in the degree part of the
        block basis, or None if it lies outside that span (as a vector with
        entries of another degree or off the slots does); see _settle."""
        packed = self.H._packed(vector)
        return None if packed is None else self._settle(block, degree, packed)

    def _settle(self, block, degree, vector):
        """express over packed columns.  A degree part of the basis is reduced
        echelon (kernel_basis): the pivot min(b) of a basis vector b is an entry
        of no other, so b's coefficient is the vector's entry there, and the
        vector is in the span exactly when subtracting those multiples leaves
        nothing; a one-entry vector exactly when its column is the pivot of a
        one-entry basis vector, which one lookup settles."""
        if not vector:
            return {}
        pivots = self._pivots(block, degree)
        if len(vector) == 1:
            (c, a), = vector.items()
            hit = pivots.get(c)
            return {hit[0]: a} if hit is not None and hit[1] is None else None
        coeffs, res = {}, dict(vector)
        for c, a in vector.items():
            hit = pivots.get(c)
            if hit is not None:
                i, row = hit
                coeffs[i] = a
                _subtract(res, {c: 1} if row is None else row, a)
        return None if res else coeffs

    def _pivots(self, block, degree):
        """{packed min(b): (index of b, packed b, or None if b has one entry)} over
        the degree part of block, built on first use; min(b) is in tuple order."""
        pivots = self._coord.get((block, degree))
        if pivots is None:
            H, pivots = self.H, self._coord.setdefault((block, degree), {})
            for b in (self.basis[i] for i in self.by_block[block] if self.basis[i].degree == degree):
                (f, lab), many = min(b.vector), len(b.vector) > 1
                pivots[H._face_base[f] + H.code(lab)] = (b.index, H._packed(b.vector) if many else None)
        return pivots

    # -- products

    def partners(self, block, degree):
        """Ids y of block with degree + deg y <= cutoff, in basis order."""
        return self.by_block[block][:bisect_right(self._degrees[block], self.cutoff - degree)]

    def row(self, x: int, block):
        """Yields (y, {z: c} in increasing z) in basis order for the nonzero
        products of basis[x] with its partners in block; the partners the
        cutoff drops are counted in truncated_pairs.  A face index holds
        (y, label code, coefficient) per face of the partners, and a product
        column at a face is face base + codes of x's label, the twist and
        y's label.  If x has one entry at f and no basis vector of block has
        two at f, the first three are fixed for the row: each product is one
        int addition and one pivot lookup.  Otherwise one sweep over the
        faces of x sums packed product vectors, each settled by _settle.  A
        product off the span raises DatumError.  Nothing is memoized.
        """
        bx = self.basis[x]
        ids = self.partners(block, bx.degree)
        self.truncated_pairs += len(self.by_block[block]) - len(ids)
        (a, b), (b2, c) = bx.block, block
        if not ids or b != b2:
            return
        H = self.H
        if self._faces is None:
            self._faces, self._crowded = {blk: {} for blk in self.by_block}, set()
            for by in self.basis:
                faces = self._faces[by.block]
                for (f, lab), cy in by.vector.items():
                    entries = faces.setdefault(f, [])
                    if entries and entries[-1][0] == by.index:
                        self._crowded.add((by.block, f))
                    entries.append((by.index, H.code(lab), cy))
        basis, last, faces, dx = self.basis, ids[-1], self._faces[block], bx.degree
        (f, xlab), cx = next(iter(bx.vector.items()))
        if len(bx.vector) > 1 or (block, f) in self._crowded:
            products = {}       # y -> packed product vector, summed over the faces x shares with y
            for (f, xlab), cx in bx.vector.items():
                entries = faces.get(f)
                tw = None if entries is None else H._twist_code(a, b, c, f)
                if tw is None:
                    continue
                base = H._face_base[f] + H.code(xlab) + tw
                for y, ycode, cy in entries:
                    if y > last:
                        break
                    vec = products.get(y)
                    if vec is None:
                        vec = products[y] = {}
                    key = base + ycode
                    if v := vec.get(key, 0) + cx * cy:
                        vec[key] = v
                    else:
                        del vec[key]
            for y in sorted(products):
                if out := self._express_product((a, c), dx + basis[y].degree, products[y]):
                    yield y, out if len(out) == 1 else dict(sorted(out.items()))
            return
        tw = H._twist_code(a, b, c, f)
        if tw is None:
            return
        base, degree, pivots = H._face_base[f] + H.code(xlab) + tw, None, None
        for y, ycode, cy in faces.get(f, ()):
            if y > last:
                break
            if (d := dx + basis[y].degree) != degree:
                degree, pivots = d, self._pivots((a, c), d)
            hit = pivots.get(base + ycode)
            if hit is None or hit[1] is not None:
                raise DatumError("product of sections is not a section")
            yield y, {hit[0]: cx * cy}

    def multiply(self, x: int, y: int):
        """Structure constants {z index: coefficient} of basis[x] * basis[y],
        {} for non-composable blocks or zero products; memoized.  An index
        outside the basis, or a pair past the cutoff, raises ValueError
        (partners never returns one).
        """
        key = (x, y)
        if key not in self._table:
            if not (0 <= x < len(self.basis) and 0 <= y < len(self.basis)):
                raise ValueError(f"basis index out of range({len(self.basis)}): {x}, {y}")
            bx, by = self.basis[x], self.basis[y]
            degree = bx.degree + by.degree
            if degree > self.cutoff:
                raise ValueError(f"{bx.name} * {by.name} has degree {degree}, past the cutoff {self.cutoff}")
            (a, b), (b2, c) = bx.block, by.block
            self._table[key] = {} if b != b2 else self._express_product(
                (a, c), degree, self.H.multiply_sections(a, b, c, bx.vector, by.vector))
        return self._table[key]

    def _express_product(self, block, degree, packed):
        """_settle for a packed product of sections, which must be a section."""
        out = self._settle(block, degree, packed)
        if out is None:
            raise DatumError("product of sections is not a section")
        return out

    def unit_coeffs(self):
        """The unit of the algebra as {basis index: coefficient}: the sum of the
        idempotents, which lie in distinct diagonal blocks."""
        return {k: v for coeffs in self.idempotents.values() for k, v in coeffs.items()}

    def element_product(self, xs, ys):
        """Product of two algebra elements {basis index: coefficient}, through multiply."""
        out = {}
        for x, cx in xs.items():
            for y, cy in ys.items():
                for z, cz in self.multiply(x, y).items():
                    out[z] = out.get(z, 0) + cx * cy * cz
        return {z: v for z, v in out.items() if v}

    def block_hilbert(self, block):
        return self.sections[block].hilbert(self.cutoff)

    def dims(self):
        out = {}
        for b in self.basis:
            out[b.degree] = out.get(b.degree, 0) + 1
        return out


def ext_algebra(H: HSheaf) -> ExtAlgebra:
    return ExtAlgebra(H)


def diagonal_unit(sheaf, sections):
    """The degree-0 unit of a diagonal block: the unit_label of every stalk
    that has one.  Raises DatumError unless the family lies in sections,
    the block's global sections (decided by the constraint rows).
    """
    vec = {}
    for p in sorted(sheaf.stalks):
        lab = unit_label(sheaf.stalks[p])
        if lab is not None:
            vec[(p, lab)] = 1
    if not sections.contains(0, vec):
        raise DatumError("diagonal unit is not a global section")
    return vec


@dataclass
class ExtModule:
    label: int
    elements: tuple          # basis indices of the column blocks (b, label)
    ext: ExtAlgebra
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._members = frozenset(self.elements)

    def action(self, e: int, x: int):
        """Left action of algebra basis element e on module element x."""
        if x not in self._members:
            raise DatumError("element is not in the module")
        return self.ext.multiply(e, x)


def ext_module(ext: ExtAlgebra, a: int) -> ExtModule:
    n = len(ext.catalog)
    if not 0 <= a < n:
        raise DatumError(f"unknown label index {a}")
    ids = []
    for b in range(n):
        ids.extend(ext.by_block[(b, a)])
    return ExtModule(label=a, elements=tuple(sorted(ids)), ext=ext)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ReportEntry:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    ok: bool
    entries: list

    def failures(self):
        return [e for e in self.entries if not e.ok]


def vanishing_report(H: HSheaf) -> Report:
    """Čech cohomology of H' vanishes in positive degrees on every
    G-stable open, and the closed-face sections surject onto the
    punctured-star sections in the Mayer-Vietoris step: one entry per
    record of vanishing_walk.

    One complex is computed per (sheaf, U ∩ Z), for this call only,
    where Z is the down-closure of the support S of the sheaf (the
    points with a label of degree at most the cutoff).  The complex over
    U depends on U only through U ∩ Z: a chain p_0 < ... < p_r of U
    carries a term only if p_r is in S, and then every p_k <= p_r lies
    in Z, so the chains of U that carry a term, the matrices between
    them and their column order are those of the chains of U ∩ Z
    (the chain complex of a sheaf on a poset; Curry, Sheaves, Cosheaves
    and Applications, arXiv:1303.3255).  U ∩ Z need not be open, so a
    complex is built on the first U that has it.  Point sets are int
    masks (FiniteSpace.mask), so each key is one AND.
    """
    entries = [report_entry(*record) for record in vanishing_walk(H)]
    return Report(ok=all(e.ok for e in entries), entries=entries)


def vanishing_walk(H: HSheaf):
    """The records (ok, kind, family name, key, payload) of the vanishing
    report, in its order.  Per G-stable open: ("vanishing", (i, j), dims
    of H^0, H^1, ...) for each nonzero block, then ("mv-surjectivity",
    delta, step detail) for each nonempty orbit maximal in the family.
    A block is ok when its dims list H^0 alone (cech_cohomology drops
    trailing zeros).  One step is run per nonempty orbit (each is maximal in its own
    down-closure), and a family reports the steps of its maximal orbits.
    Nothing is built per (open, block) but the record; report_entry makes
    its ReportEntry.
    """
    datum, space = H.datum, H.space
    cohomology = {}     # see _cohomology
    steps = {delta: _mv_surjectivity(H, delta, cohomology) for delta in datum.S if delta}
    above = {delta: {s for s in datum.S if set(delta) < set(s)} for delta in steps}
    blocks = [(key, blk.sheaf, _closure(H, blk.sheaf, cohomology))
              for key, blk in sorted(H.blocks.items()) if not blk.zero]
    for fam in downward_closed_families(datum):
        U = g_stable_open(datum, space, fam)
        umask, famname = space.mask(U), family_name(fam)
        for key, sheaf, z in blocks:
            dims = cohomology.get((sheaf, umask & z))
            if dims is None:
                dims = _cohomology(H, U, sheaf, cohomology)
            yield len(dims) == 1, "vanishing", famname, key, dims
        members = set(fam)
        for delta in fam:
            if delta and members.isdisjoint(above[delta]):
                ok, detail = steps[delta]
                yield ok, "mv-surjectivity", famname, delta, detail


def report_entry(ok, kind, famname, key, payload) -> ReportEntry:
    """The ReportEntry of a vanishing_walk record."""
    if kind == "vanishing":
        i, j = key
        higher = {str(p): dims for p, dims in enumerate(payload[1:], 1) if dims}
        return ReportEntry(name=f"vanishing[{famname}][{i}:{j}]", ok=ok,
                           details={"open": famname, "block": [i, j], "higher": higher})
    return ReportEntry(name=f"mv-surjectivity[{famname}][{set_name(key)}]", ok=ok, details=dict(payload))


def _cohomology(H: HSheaf, U, sheaf, memo):
    """Dimensions of H^0, H^1, ... of sheaf over the open U (a sorted
    tuple), from one chain complex per (sheaf, U ∩ Z) kept in memo under
    (sheaf, mask of U ∩ Z); memo also keeps each sheaf's mask of Z under
    the sheaf (_closure).  See vanishing_report."""
    key = (sheaf, H.space.mask(U) & _closure(H, sheaf, memo))
    if key not in memo:
        memo[key] = [h.dims for h in cech_cohomology(H.space, U, sheaf, H.cutoff)]
    return memo[key]


def _closure(H: HSheaf, sheaf, memo):
    """The mask of Z, the down-closure of the points where sheaf has a label
    of degree at most the cutoff; computed once per sheaf and kept in memo."""
    z = memo.get(sheaf)
    if z is None:
        space, cutoff = H.space, H.cutoff
        support = {p for p in space.points if any(d <= cutoff for d in sheaf.stalks[p].dims)}
        z = memo[sheaf] = space.mask(q for q in space.points if not support.isdisjoint(space.minimal_open(q)))
    return z


def _mv_surjectivity(H: HSheaf, delta, cohomology):
    """The Mayer-Vietoris step of the vanishing argument at the orbit
    delta, blockwise.

    The step peels the faces over delta off a G-stable open whose
    family has delta maximal, restricted to the orbits away from the
    block's forbidden divisors F; blocks with delta meeting F are
    skipped.  What it leaves of the star of the closed face cf is the
    punctured star U': the faces of minimal_open(cf) not over delta.
    U' is the same in every family and every block, since each face of
    the star lies over a subset of delta, and each proper subset of
    delta is in the family (which is downward closed) and misses F.
    Sections over U' must be hit by the closed-face stalk, and U'
    itself carries no higher cohomology.  Both are read from one complex
    per (sheaf, U' ∩ Z) in cohomology, the memo of vanishing_walk.  Each
    passing sheaf is settled once per call.
    """
    face = closed_face(H.datum, delta)
    cf = face.key()
    over = {f.key() for f in H.datum.faces() if f.orbit == face.orbit}
    uprime = tuple(q for q in H.space.minimal_open(cf) if q not in over)
    detail = {"closed_face": cf}
    settled = set()     # sheaves that passed
    for (i, j), blk in sorted(H.blocks.items()):
        if blk.zero:
            continue
        forbidden = set(H.catalog.dprime(i)) | set(H.catalog.dprime(j))
        if set(delta) & forbidden or blk.sheaf in settled:
            continue
        h0, *hs = _cohomology(H, uprime, blk.sheaf, cohomology)
        if any(hs):
            detail["block"] = [i, j]
            detail["higher"] = hs
            return False, detail
        st = blk.stalk(cf)
        for d, dim in h0.items():
            images = []
            for lab in st.basis.get(d, ()):
                fam_vec = {}
                for q in uprime:
                    img = blk.sheaf.apply(cf, q, {lab: 1})
                    for lab2, c in img.items():
                        fam_vec[(q, lab2)] = c
                images.append(fam_vec)
            if rank(images) != dim:
                detail["block"] = [i, j]
                detail["degree"] = d
                detail["intersection"] = list(uprime)
                return False, detail
        settled.add(blk.sheaf)
    return True, detail


PAIR_CAP = 4000     # Čech-side products checked by concentration_check


def concentration_check(H: HSheaf, ext: ExtAlgebra) -> Report:
    """Cohomology of each block over the whole space from the chain
    complex of the face poset: positive degrees vanish and H^0 (the
    kernel of d^0 across every comparable pair) matches the section
    algebra degreewise, as subspaces of the stalk product, and on
    structure constants (all composable pairs up to PAIR_CAP, then a
    deterministic truncation of the pair list).  Both bases are the
    canonical reduced echelon basis of their span over the same
    (point, label) columns, so the spans agree exactly when the bases
    are equal.  The complex and its comparison with the sections are
    computed once per distinct sheaf.
    """
    entries = []
    whole = H.space.points
    per_sheaf = {}      # sheaf -> (higher, H^0 dims, H^0 basis, spans match)
    cech_bases = {}
    for (i, j), blk in sorted(H.blocks.items()):
        sec = ext.sections[(i, j)]
        if blk.sheaf not in per_sheaf:
            hs = cech_cohomology(H.space, whole, blk.sheaf, H.cutoff)
            per_sheaf[blk.sheaf] = ({p: h.dims for p, h in enumerate(hs) if p > 0 and h.dims},
                                    hs[0].dims, hs[0].vectors, hs[0].vectors == sec.vectors)
        higher, h0_dims, vecs, span_match = per_sheaf[blk.sheaf]
        entries.append(ReportEntry(
            name=f"concentration[{i}:{j}]", ok=not higher,
            details={"block": [i, j], "higher": {str(k): v for k, v in higher.items()}}))
        entries.append(ReportEntry(
            name=f"dual-path[{i}:{j}]", ok=h0_dims == dict(sec.dims) and span_match,
            details={"block": [i, j], "cech": {str(k): v for k, v in h0_dims.items()},
                     "sections": {str(k): v for k, v in sec.dims.items()}}))
        cech_bases[(i, j)] = vecs
    # structure constants along the Čech bases against the section table
    expressed = {}      # (block, degree) -> section coordinates of each Čech basis vector

    def coordinates(block, d, vs):
        if (block, d) not in expressed:
            expressed[(block, d)] = [ext.express(block, d, v) for v in vs]
        return expressed[(block, d)]

    pairs_checked = 0
    ok_products = True
    n = len(H.catalog)
    for a, b, c in itertools.product(range(n), repeat=3):
        if pairs_checked >= PAIR_CAP:
            break
        for d1, vs1 in sorted(cech_bases[(a, b)].items()):
            for d2, vs2 in sorted(cech_bases[(b, c)].items()):
                if d1 + d2 > H.cutoff:
                    continue
                cs2 = coordinates((b, c), d2, vs2)
                for v1, c1 in zip(vs1, coordinates((a, b), d1, vs1)):
                    for v2, c2 in zip(vs2, cs2):
                        if pairs_checked >= PAIR_CAP:
                            break
                        prod = H.multiply_sections(a, b, c, v1, v2)
                        pairs_checked += 1
                        # a Čech vector outside the section span has no coordinates (None)
                        if None in (c1, c2) or ext.element_product(c1, c2) != ext._settle((a, c), d1 + d2, prod):
                            ok_products = False
    entries.append(ReportEntry(
        name="dual-path-products", ok=ok_products,
        details={"pairs_checked": pairs_checked}))
    return Report(ok=all(e.ok for e in entries), entries=entries)
