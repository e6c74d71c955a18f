"""The sheaf of graded algebras H = ⊕ H^{ab} on the face space.

Per ordered label pair (a, b) the block H^{ab} is supported on

  fab       = faces (Δ,J) with Δ_a ∪ Δ_b ⊆ Δ ⊆ V ∖ (Δ'_a ∪ Δ'_b),
  fab_prime = faces with Δ_a ∪ Δ_b ⊆ Δ ⊆ V ∖ (Δ'_a symdiff Δ'_b) that
              meet Δ'_a ∩ Δ'_b,

where Δ'_x is the forbidden-divisor set of the label.  A fab face
carries Q[X_v; v ∈ Δ] placed so its unit sits in degree 2 d_ab
(d_ab = |Δ_a ∖ Δ_b|), tensored with the balanced K-part at its J; a
fab_prime face carries the stalk of its transport (Δ ∖ (Δ'_a ∩ Δ'_b), J)
and everything else is zero.  Restrictions kill dropped variables and
push K-monomials through the input maps; the product multiplies
polynomial parts twisted by the support-correction monomial and composes
K-parts.

The product is homogeneous.  Where the three blocks meet at a face they
share one K-module, and the twist is the product of X_v over
∇(Δ_a, Δ_b, Δ_c), where |∇(Δ_a, Δ_b, Δ_c)| = d_ab + d_bc - d_ac.  So the
product of stalk labels of degrees i and j has degree i + j, and callers
bound i + j by the cutoff before they multiply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import f2
from .algebra import mono, monomials_of_degree, twist_factor, twisted_tensor
from .faces import FacePoint, SymmetricDatum, build_faces
from .isotropy import DatumError, orbit_key
from .posets import FiniteSpace, GradedSheaf, GradedSpace, SectionSpace, global_sections


@dataclass
class BlockSupport:
    fab: tuple            # face keys
    fab_prime: tuple      # face keys
    transport: dict       # fab_prime key -> fab key
    d: int

    def __post_init__(self):
        self._members = frozenset(self.fab) | frozenset(self.fab_prime)

    def members(self) -> frozenset:
        """fab ⊔ fab_prime, built once."""
        return self._members

    def rep(self, face_key):
        return self.transport.get(face_key, face_key)


def support_sets(datum: SymmetricDatum, catalog, i, j) -> BlockSupport:
    """Support data of the block for catalog labels i, j."""
    la, lb = catalog.labels[i], catalog.labels[j]
    dpa, dpb = set(catalog.dprime(i)), set(catalog.dprime(j))
    lower = set(la.orbit) | set(lb.orbit)
    sym = (dpa - dpb) | (dpb - dpa)
    both = dpa & dpb
    fab, fprime, transport = [], [], {}
    for f in datum.faces():
        delta = set(f.orbit)
        if not lower <= delta:
            continue
        if not delta & (dpa | dpb):
            fab.append(f.key())
        elif not delta & sym and delta & both:
            fprime.append(f.key())
            transport[f.key()] = FacePoint(orbit=orbit_key(delta - both), j=f.j).key()
    return BlockSupport(
        fab=tuple(sorted(fab)),
        fab_prime=tuple(sorted(fprime)),
        transport=transport,
        d=len(set(la.orbit) - set(lb.orbit)),
    )


def validate_support_facts(space: FiniteSpace, datum: SymmetricDatum, sup: BlockSupport):
    """The three structural facts about supports; returns a problem list.

    (a) fab empty forces fab_prime empty; (b) fab ⊔ fab_prime is open in
    the closure of fab; (c) each fab_prime face has a unique transport
    in fab cut out by removing the shared forbidden divisors from its
    minimal open.
    """
    problems = []
    if not sup.fab and sup.fab_prime:
        problems.append("fab is empty but fab_prime is not")
    members = sup.members()
    closure = {p for f in sup.fab for p in space.points if space.leq(p, f)}
    for f in members:
        for p in set(space.minimal_open(f)) & closure:
            if p not in members:
                problems.append(f"support not open in the closure of fab at {f} via {p}")
    for f in sup.fab_prime:
        fp = FacePoint.from_key(f)
        # divisors removed by the transport; faces of U_f meeting them are cut out
        removed = set(fp.orbit) - set(FacePoint.from_key(sup.transport[f]).orbit)
        remaining = [p for p in space.minimal_open(f)
                     if not set(FacePoint.from_key(p).orbit) & removed]
        hits = [p for p in remaining if set(space.minimal_open(p)) == set(remaining)]
        if len(hits) != 1 or hits[0] != sup.transport[f] or hits[0] not in set(sup.fab):
            problems.append(f"transport of {f} is not the unique minimal open complement")
    return problems


class Block:
    """One block H^{ab}: its own support, and the graded sheaf it shares
    with every block of the same signature (read-only)."""

    def __init__(self, H, i, j):
        self.i, self.j = i, j
        self.support = support_sets(H.datum, H.catalog, i, j)
        self.sheaf = H.shared_sheaf(H.signature(self.support, i, j))
        self.zero = self.sheaf.min_degree() is None

    def stalk(self, key) -> GradedSpace:
        return self.sheaf.stalks[key]


class HSheaf:
    """All blocks of H over the face space, with the twisted product.

    A block depends on its label pair only through its signature (see
    signature); stalks, restriction maps, sheaves and global sections are
    memoized on it, so blocks with equal signatures share one read-only
    GradedSheaf.
    """

    def __init__(self, datum: SymmetricDatum, catalog, cutoff: int):
        self.datum = datum
        self.catalog = catalog
        self.cutoff = cutoff
        self.space = build_faces(datum)
        self._points = {key: FacePoint.from_key(key) for key in self.space.points}
        self._kparts = {}      # (J, target) -> GradedSpace of surviving K-monomials
        self._monomials = {}   # (orbit, k) -> monomials of degree k
        self._kimages = {}     # (J, J', K-exponents) -> sorted image terms
        self._stalks = {}      # (rep, 2 d_ab, target) -> GradedSpace
        self._maps = {}        # (rep1, rep2, 2 d_ab, target at rep1) -> label map
        self._sheaves = {}     # signature -> GradedSheaf
        self._sections = {}    # GradedSheaf -> SectionSpace over the whole space
        n = len(catalog)
        self.blocks = {(i, j): Block(self, i, j) for i in range(n) for j in range(n)}
        self._twists = {}
        self._labels = {}      # (x label, y label, twist) -> composed label

    # -- the shared pieces

    def signature(self, support: BlockSupport, i, j):
        """(2 d_ab, sorted (member, rep, χ_i + χ_j at the rep's J) triples)."""
        kdata, la, lb = self.datum.kdata, self.catalog.labels[i], self.catalog.labels[j]
        targets, entries = {}, []
        for key in sorted(support.members()):
            rep = support.rep(key)
            jkey = self._points[rep].j
            if jkey not in targets:
                targets[jkey] = f2.add(kdata.char_at(jkey, la.char), kdata.char_at(jkey, lb.char))
            entries.append((key, rep, targets[jkey]))
        return 2 * support.d, tuple(entries)

    def stalk_space(self, rep, twod, target) -> GradedSpace:
        """Q[X_v; v ∈ Δ_rep] ⊗ (K-monomials of character target at J_rep), shifted by twod."""
        key = (rep, twod, target)
        if key not in self._stalks:
            point = self._points[rep]
            kpart = self._kpart(point.j, target)
            cutoff = self.cutoff
            basis = {}
            for kd, kms in kpart.basis.items():
                for pd in range(0, cutoff - twod - kd + 1, 2):
                    d = twod + kd + pd
                    for pm in self._monomials_of(point.orbit, pd // 2):
                        for km in kms:
                            basis.setdefault(d, []).append((pm, km))
            self._stalks[key] = GradedSpace(basis={d: tuple(sorted(b)) for d, b in basis.items()})
        return self._stalks[key]

    def _kpart(self, jkey, target):
        if (jkey, target) not in self._kparts:
            module = self.datum.kdata.module(jkey)
            self._kparts[(jkey, target)] = twisted_tensor(module, target, (0,) * module.rank, self.cutoff)
        return self._kparts[(jkey, target)]

    def _monomials_of(self, orbit, k):
        if (orbit, k) not in self._monomials:
            self._monomials[(orbit, k)] = monomials_of_degree(orbit, k)
        return self._monomials[(orbit, k)]

    def _restriction_map(self, rep1, rep2, twod, target):
        """Label map stalk(rep1) -> stalk(rep2): dropped variables die, K-monomials map through J -> J'."""
        key = (rep1, rep2, twod, target)
        if key not in self._maps:
            p1, p2 = self._points[rep1], self._points[rep2]
            keep = set(p2.orbit)
            out = {}
            for labs in self.stalk_space(rep1, twod, target).basis.values():
                for pm, km in labs:
                    if not set(v for v, _ in pm) <= keep:
                        out[(pm, km)] = ()
                        continue
                    out[(pm, km)] = tuple(((pm, km2), c) for km2, c in self._kimage(p1.j, p2.j, km))
            self._maps[key] = out
        return self._maps[key]

    def _kimage(self, j1, j2, km):
        key = (j1, j2, km)
        if key not in self._kimages:
            self._kimages[key] = tuple(sorted(self.datum.kdata.apply_restriction(j1, j2, km).items()))
        return self._kimages[key]

    def shared_sheaf(self, signature):
        """The GradedSheaf of a block signature, built on its first request."""
        if signature not in self._sheaves:
            twod, entries = signature
            stalks, at = {}, {}
            for key, rep, target in entries:
                stalks[key] = self.stalk_space(rep, twod, target)
                at[key] = (rep, target)
            restrictions = {}
            for p, q in self.space.covering_pairs():
                if p in at and q in at:
                    (rep1, target), (rep2, _) = at[p], at[q]
                    restrictions[(p, q)] = self._restriction_map(rep1, rep2, twod, target)
            self._sheaves[signature] = GradedSheaf(self.space, stalks, restrictions)
        return self._sheaves[signature]

    def sections(self, block) -> SectionSpace:
        """Global sections of a block over the whole space, solved once per distinct sheaf."""
        if block.sheaf not in self._sections:
            self._sections[block.sheaf] = global_sections(self.space, self.space.points, block.sheaf,
                                                          self.cutoff)
        return self._sections[block.sheaf]

    # -- the product

    def product_twist(self, a, b, c, face_key):
        """Twist monomial for composing (a,b) with (b,c) into (a,c) at a face.

        Returns the monomial (possibly 1), or None for the zero map: the
        face misses one of the three supports, or the correction set is
        not alive on it.  On a face in all three supports the transports
        agree.  Cached per (a, b, c, face).
        """
        key = (a, b, c, face_key)
        if key in self._twists:
            return self._twists[key]
        sab, sbc, sac = (self.blocks[(a, b)].support, self.blocks[(b, c)].support,
                         self.blocks[(a, c)].support)
        tw = None
        if all(face_key in s.members() for s in (sab, sbc, sac)):
            reps = {sab.rep(face_key), sbc.rep(face_key), sac.rep(face_key)}
            if len(reps) != 1:
                raise DatumError("support transports disagree on a common face")
            orbit = self._points[reps.pop()].orbit
            labels = self.catalog.labels
            tw = twist_factor(orbit, labels[a].orbit, labels[b].orbit, labels[c].orbit)
        self._twists[key] = tw
        return tw

    def compose(self, a, b, c, face_key, xlab, ylab):
        """Stalk-level product of x ∈ H^{ab} and y ∈ H^{bc} at a face.

        Returns the label in H^{ac}, whose coefficient is 1 (the twist only
        contributes a monomial), or None for the zero map.  The label depends
        only on the two labels and the twist, and is cached on that key.
        """
        tw = self.product_twist(a, b, c, face_key)
        if tw is None:
            return None
        key = (xlab, ylab, tw)
        lab = self._labels.get(key)
        if lab is None:
            (pmx, kmx), (pmy, kmy) = xlab, ylab
            lab = self._labels[key] = mono(*pmx, *pmy, *tw), tuple(x + y for x, y in zip(kmx, kmy))
        return lab

    def multiply_sections(self, a, b, c, xvec, yvec):
        """Facewise product of section vectors of H^{ab} and H^{bc}.

        Vectors are sparse dicts over (face key, stalk label); the result
        is a vector over H^{ac} coordinates.
        """
        out = {}
        for (f, xlab), cx in xvec.items():
            for (g, ylab), cy in yvec.items():
                if g != f:
                    continue
                lab = self.compose(a, b, c, f, xlab, ylab)
                if lab is None:
                    continue
                key = (f, lab)
                v = out.get(key, 0) + cx * cy
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out


def build_H(datum: SymmetricDatum, catalog, cutoff: int) -> HSheaf:
    return HSheaf(datum, catalog, cutoff)


# ---------------------------------------------------------------------------
# structural checks used by the CLI battery and the tests


def check_vanishing_pattern(H: HSheaf):
    """Stalks vanish off fab ⊔ fab_prime, and fab stalks of a block with a
    surviving K-part are nonzero (the polynomial factor never dies)."""
    bad = []
    for (i, j), blk in H.blocks.items():
        members = blk.support.members()
        for key in H.space.points:
            st = blk.stalk(key)
            if key not in members and st.dims:
                bad.append((i, j, key, "stalk off the support"))
        if not blk.zero and H.datum.kdata.trivial:
            # with the default K-datum a nonzero block is nonzero on all of fab
            for key in blk.support.fab:
                if not blk.stalk(key).dims:
                    bad.append((i, j, key, "dead stalk on the support"))
    return bad


def check_transport_identity(H: HSheaf):
    """Restriction between a fab_prime face and its transport is the identity."""
    bad = []
    for (i, j), blk in H.blocks.items():
        for f in blk.support.fab_prime:
            t = blk.support.transport[f]
            if H.space.leq(f, t):
                m = blk.sheaf.restriction(f, t)
                for labs in blk.stalk(f).basis.values():
                    for lab in labs:
                        if m.get(lab) != ((lab, 1),):
                            bad.append((i, j, f, t, lab))
    return bad


def unit_label(stalk):
    """The unit label (1, trivial K-monomial) in degree 0 of a stalk, or None."""
    return next((lab for lab in stalk.basis.get(0, ()) if lab[0] == () and not any(lab[1])), None)


def check_diagonal_units(H: HSheaf):
    """Diagonal stalks contain the unit in degree 0; restrictions fix it;
    the unit acts as identity on every composable stalk basis element."""
    bad = []
    n = len(H.catalog)
    for a in range(n):
        blk = H.blocks[(a, a)]
        members = blk.support.members()
        for key in sorted(members):
            if unit_label(blk.stalk(key)) is None:
                bad.append((a, key, "missing unit"))
        for f1, f2 in H.space.covering_pairs():
            if f1 in members and f2 in members:
                u1 = unit_label(blk.stalk(f1))
                m = blk.sheaf.restriction(f1, f2)
                if u1 is not None and m.get(u1) is not None:
                    u2 = unit_label(blk.stalk(f2))
                    if u2 is not None and dict(m[u1]) != {u2: 1}:
                        bad.append((a, f1, f2, "restriction does not fix the unit"))
    # unit acts as identity
    for (a, b), blk in H.blocks.items():
        for key in sorted(blk.support.members()):
            for d, labs in sorted(blk.stalk(key).basis.items()):
                for lab in labs:
                    ua = ((), tuple(0 for _ in lab[1]))
                    left = H.compose(a, a, b, key, ua, lab)
                    right = H.compose(a, b, b, key, lab, ua)
                    if left != lab or right != lab:
                        bad.append((a, b, key, lab, "unit law fails"))
    return bad


RESTRICTION_PRODUCT_DEGREE = 8     # check_restriction_product covers products up to this degree


def check_restriction_product(H: HSheaf):
    """Restriction commutes with the product on covering pairs, for
    products of degree at most min(cutoff, RESTRICTION_PRODUCT_DEGREE)."""
    cut = min(H.cutoff, RESTRICTION_PRODUCT_DEGREE)
    bad = []
    n = len(H.catalog)
    pairs = H.space.covering_pairs()
    images = {}     # (sheaf, f1, f2, label) -> restriction of the label, shared by the blocks of a sheaf

    def image(sheaf, f1, f2, lab):
        key = (sheaf, f1, f2, lab)
        if key not in images:
            images[key] = sheaf.apply(f1, f2, {lab: 1})
        return images[key]

    for a, b, c in itertools.product(range(n), repeat=3):
        bab, bbc, bac = H.blocks[(a, b)], H.blocks[(b, c)], H.blocks[(a, c)]
        for f1, f2 in pairs:
            if f1 not in bab.support.members() or f1 not in bbc.support.members():
                continue
            for d1, labsx in sorted(bab.stalk(f1).basis.items()):
                for d2, labsy in sorted(bbc.stalk(f1).basis.items()):
                    if d1 + d2 > cut:
                        continue
                    for xl in labsx:
                        xr = image(bab.sheaf, f1, f2, xl)
                        for yl in labsy:
                            z = H.compose(a, b, c, f1, xl, yl)
                            zr = {} if z is None else bac.sheaf.apply(f1, f2, {z: 1})
                            yr = image(bbc.sheaf, f1, f2, yl)
                            prod = {}
                            for xl2, cx in xr.items():
                                for yl2, cy in yr.items():
                                    lab = H.compose(a, b, c, f2, xl2, yl2)
                                    if lab is not None:
                                        prod[lab] = prod.get(lab, 0) + cx * cy
                            prod = {k: v for k, v in prod.items() if v}
                            if prod != zr:
                                bad.append((a, b, c, f1, f2, xl, yl))
    return bad


def check_face_local_associativity(H: HSheaf):
    """Exhaustive twist-cocycle form of associativity over all label
    quadruples and faces; covers every basis triple in every degree
    because stalk products are twist monomials times exponent addition."""
    bad = []
    n = len(H.catalog)
    for f in H.space.points:
        # only the chains a -> b -> c -> d of blocks supported at f, in lexicographic order
        succ = [[y for y in range(n) if f in H.blocks[(x, y)].support.members()] for x in range(n)]
        for a in range(n):
            for b in succ[a]:
                for c in succ[b]:
                    for d in succ[c]:
                        # (x*y)*z path: twists for (a,b,c) then (a,c,d)
                        left = _twist_chain(H, f, (a, b, c), (a, c, d))
                        right = _twist_chain(H, f, (b, c, d), (a, b, d))
                        if left != right:
                            bad.append((f, a, b, c, d, left, right))
    return bad


def _twist_chain(H, f, trip1, trip2):
    t1 = H.product_twist(*trip1, f)
    if t1 is None:
        return None
    t2 = H.product_twist(*trip2, f)
    if t2 is None:
        return None
    return mono(*t1, *t2)
