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

from .faces import FacePoint, closed_face, downward_closed_families, family_name, g_stable_open
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
    the table path packs such a column into one int: a face id (from the
    sorted face points) above one w-bit slot per divisor variable (the
    sorted union of the point orbits), then one per K-exponent.  A stored
    exponent is below 2^(w-1) and a twist exponent is 0 or 1, so a slot of
    x + y + twist stays under 2^w: no sum carries, packing is injective on
    such sums, and face base + codes of x, y and twist is the code of the
    label_product.
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
        self._codes = {}          # stalk label -> its packed int, one shared object per label
        self._twist_codes = {}    # (a, b, c, face key) -> packed twist (0 for the unit), None if zero
        w = (2 * self.cutoff + 2).bit_length()     # a label of degree <= cutoff has exponents <= cutoff / 2
        names = sorted({v for f in H.space.points for v in FacePoint.from_key(f).orbit})
        nk = max(len(e["generators"]) for e in H.datum.kdata.entries.values())
        self._slots = {v: w * k for k, v in enumerate([*names, *range(nk)])}   # variable or K index -> shift
        self._bound = 1 << (w - 1)
        self._face_base = {f: k << w * len(self._slots) for k, f in enumerate(H.space.points)}
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

    def _code(self, lab):
        """The packed int of a stalk label, cached, or None off the slots (a
        variable of no face, too many K-exponents, an exponent >= 2^(w-1))."""
        code = self._codes.get(lab)
        if code is None:
            pairs, slots = (*lab[0], *enumerate(lab[1])), self._slots
            if not all(v in slots and 0 <= e < self._bound for v, e in pairs):
                return None
            code = self._codes[lab] = sum(e << slots[v] for v, e in pairs)
        return code

    def _twist_code(self, a, b, c, f):
        """The packed product_twist of (a, b, c) at face f, or None for the zero map; cached."""
        if (a, b, c, f) not in self._twist_codes:
            tw = self.H.product_twist(a, b, c, f)
            self._twist_codes[(a, b, c, f)] = None if tw is None else self._code((tw, ()))
        return self._twist_codes[(a, b, c, f)]

    def _packed(self, vector):
        """{packed column: c} of a vector over (face key, stalk label), or None if a column does not pack."""
        out, bases, codes = {}, self._face_base, self._codes
        try:
            for (f, lab), a in vector.items():
                out[bases[f] + codes[lab]] = a
        except KeyError:        # a label met for the first time, or a column off the slots
            if any(f not in bases or self._code(lab) is None for f, lab in vector):
                return None
            return self._packed(vector)
        return out

    # -- coordinates

    def express(self, block, degree, vector):
        """Coefficients {basis index: c} of a vector in the degree part of the
        block basis, or None if it lies outside that span (as a vector with
        entries of another degree or off the slots does); see _settle."""
        packed = self._packed(vector)
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
            pivots = self._coord[(block, degree)] = {}
            for b in (self.basis[i] for i in self.by_block[block] if self.basis[i].degree == degree):
                (f, lab), many = min(b.vector), len(b.vector) > 1
                pivots[self._face_base[f] + self._code(lab)] = (b.index, self._packed(b.vector) if many else None)
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
        if self._faces is None:
            self._faces, self._crowded = {blk: {} for blk in self.by_block}, set()
            for by in self.basis:
                faces = self._faces[by.block]
                for (f, lab), cy in by.vector.items():
                    entries = faces.setdefault(f, [])
                    if entries and entries[-1][0] == by.index:
                        self._crowded.add((by.block, f))
                    entries.append((by.index, self._code(lab), cy))
        basis, last, faces, dx = self.basis, ids[-1], self._faces[block], bx.degree
        (f, xlab), cx = next(iter(bx.vector.items()))
        if len(bx.vector) > 1 or (block, f) in self._crowded:
            products = {}       # y -> packed product vector, summed over the faces x shares with y
            for (f, xlab), cx in bx.vector.items():
                entries = faces.get(f)
                tw = None if entries is None else self._twist_code(a, b, c, f)
                if tw is None:
                    continue
                base = self._face_base[f] + self._code(xlab) + tw
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
        tw = self._twist_code(a, b, c, f)
        if tw is None:
            return
        base, degree, pivots = self._face_base[f] + self._code(xlab) + tw, None, None
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
        {} for non-composable blocks or zero products; memoized.  A pair
        past the cutoff raises ValueError (partners never returns one).
        """
        key = (x, y)
        if key not in self._table:
            bx, by = self.basis[x], self.basis[y]
            degree = bx.degree + by.degree
            if degree > self.cutoff:
                raise ValueError(f"{bx.name} * {by.name} has degree {degree}, past the cutoff {self.cutoff}")
            (a, b), (b2, c) = bx.block, by.block
            self._table[key] = {} if b != b2 else self._express_product(
                (a, c), degree, self._packed(self.H.multiply_sections(a, b, c, bx.vector, by.vector)))
        return self._table[key]

    def _express_product(self, block, degree, packed):
        """_settle for a packed product of sections (None off the slots), which must be a section."""
        out = None if packed is None else self._settle(block, degree, packed)
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
    punctured-star sections in the Mayer-Vietoris step.  One complex is
    computed per (sheaf, open), and one step per nonempty orbit (each is
    maximal in its own down-closure), for this call only; each family
    reports the steps of its maximal orbits.
    """
    entries = []
    datum = H.datum
    cohomology = {}     # (sheaf, open) -> [dims of H^0, H^1, ...]
    steps = {delta: _mv_surjectivity(H, delta, cohomology) for delta in datum.S if delta}
    for fam in downward_closed_families(datum):
        U = g_stable_open(datum, H.space, fam)
        famname = family_name(fam)
        for (i, j), blk in sorted(H.blocks.items()):
            if blk.zero:
                continue
            _, *hs = _cohomology(H, U, blk.sheaf, cohomology)
            nonzero = {p: dims for p, dims in enumerate(hs, 1) if dims}
            entries.append(ReportEntry(
                name=f"vanishing[{famname}][{i}:{j}]",
                ok=not nonzero,
                details={"open": famname, "block": [i, j], "higher": {str(k): v for k, v in nonzero.items()}},
            ))
        # Mayer-Vietoris step at each maximal nonempty orbit of the family
        for delta in fam:
            if not delta or any(set(delta) < set(other) for other in fam):
                continue
            ok, detail = steps[delta]
            entries.append(ReportEntry(
                name=f"mv-surjectivity[{famname}][{set_name(delta)}]",
                ok=ok, details=dict(detail)))
    return Report(ok=all(e.ok for e in entries), entries=entries)


def _cohomology(H: HSheaf, U, sheaf, memo):
    """Dimensions of H^0, H^1, ... of sheaf over the open U (a sorted
    tuple), from one chain complex per (sheaf, U) kept in memo."""
    key = (sheaf, U)
    if key not in memo:
        memo[key] = [h.dims for h in cech_cohomology(H.space, U, sheaf, H.cutoff)]
    return memo[key]


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
    per (sheaf, open) in cohomology, the memo of vanishing_report.  Each
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
                        if None in (c1, c2) or ext.element_product(c1, c2) != ext.express((a, c), d1 + d2, prod):
                            ok_products = False
    entries.append(ReportEntry(
        name="dual-path-products", ok=ok_products,
        details={"pairs_checked": pairs_checked}))
    return Report(ok=all(e.ok for e in entries), entries=entries)
