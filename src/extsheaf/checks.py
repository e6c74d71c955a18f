"""The full invariant and oracle battery behind `check-all`.

Each check yields a ReportEntry; the battery is deterministic given the
seed, and every failure carries a counterexample payload in details.
"""

from __future__ import annotations

import bisect
import itertools
import random

from .algebra import twisted_tensor, twisted_tensor_relations
from .extalg import ExtAlgebra, Report, ReportEntry, concentration_check, report_entry, vanishing_walk
from .faces import FacePoint
from .hsheaf import (
    RESTRICTION_PRODUCT_DEGREE,
    HSheaf,
    check_diagonal_units,
    check_face_local_associativity,
    check_restriction_product,
    check_transport_identity,
    check_vanishing_pattern,
    validate_support_facts,
)
from .oracles import brute_sections, identity_fuzz, pp_hilbert, quadrant_check
from .posets import validate_intersection_axiom


def _entry(name, ok, **details):
    return ReportEntry(name=name, ok=bool(ok), details=details)


def _per_block_sheaf(H: HSheaf, compute):
    """[((i, j), compute(sheaf of block (i, j)))] in block order, with compute
    called once per distinct sheaf: blocks that share a sheaf share the result."""
    done = {}
    out = []
    for key, blk in sorted(H.blocks.items()):
        if blk.sheaf not in done:
            done[blk.sheaf] = compute(blk.sheaf)
        out.append((key, done[blk.sheaf]))
    return out


def poset_axiom_checks(H: HSheaf):
    sp = H.space
    out = []
    rep = validate_intersection_axiom(sp)
    out.append(_entry("poset.intersection-axiom", rep.ok, violations=rep.violations[:3]))
    bad = []
    for a in sp.points:
        fa = FacePoint.from_key(a)
        for b in sp.points:
            fb = FacePoint.from_key(b)
            want = set(fb.orbit) <= set(fa.orbit) and set(fa.j) <= set(fb.j)
            if sp.leq(a, b) != want:
                bad.append([a, b])
    out.append(_entry("poset.closure-biconditional", not bad, counterexamples=bad[:3]))
    bad = []
    for a, b in itertools.combinations(sp.points, 2):
        fa, fb = FacePoint.from_key(a), FacePoint.from_key(b)
        meet = FacePoint(orbit=tuple(sorted(set(fa.orbit) & set(fb.orbit))),
                         j=tuple(sorted(set(fa.j) | set(fb.j))))
        inter = set(sp.minimal_open(a)) & set(sp.minimal_open(b))
        if inter != set(sp.minimal_open(meet.key())):
            bad.append([a, b])
    out.append(_entry("poset.minimal-open-intersection-law", not bad, counterexamples=bad[:3]))
    return out


def sheaf_structure_checks(H: HSheaf, rng: random.Random):
    out = []
    bad = []
    for (i, j), blk in sorted(H.blocks.items()):
        probs = validate_support_facts(H.space, H.datum, blk.support)
        if probs:
            bad.append({"block": [i, j], "problems": probs[:2]})
    out.append(_entry("sheaf.support-facts", not bad, counterexamples=bad[:3]))
    v = check_vanishing_pattern(H)
    out.append(_entry("sheaf.stalk-vanishing-pattern", not v, counterexamples=[list(map(repr, x)) for x in v[:3]]))
    t = check_transport_identity(H)
    out.append(_entry("sheaf.transport-identity", not t, counterexamples=[list(map(repr, x)) for x in t[:3]]))
    bad = []
    for (i, j), probs in _per_block_sheaf(H, lambda sheaf: sheaf.validate_functoriality()):
        if probs:
            bad.append({"block": [i, j], "problems": [list(map(repr, p)) for p in probs[:2]]})
    out.append(_entry("sheaf.restriction-functoriality", not bad, counterexamples=bad[:3]))
    u = check_diagonal_units(H)
    out.append(_entry("sheaf.units", not u, counterexamples=[list(map(repr, x)) for x in u[:3]]))
    rp = check_restriction_product(H)
    out.append(_entry("sheaf.restriction-product", not rp, counterexamples=[list(map(repr, x)) for x in rp[:3]],
                      max_degree=min(H.cutoff, RESTRICTION_PRODUCT_DEGREE)))
    a = check_face_local_associativity(H)
    out.append(_entry("sheaf.associativity-twist-cocycle", not a,
                      counterexamples=[list(map(repr, x)) for x in a[:3]]))
    out.append(_entry("sheaf.associativity-sampled-triples", _sampled_triples(H, rng)))
    return out


STALK_TRIPLES = 400        # stalk-level triples drawn by _sampled_triples
EXHAUSTIVE_BASIS = 220     # ext.associativity tests every triple up to this basis size
SECTION_TRIPLES = 600      # and otherwise a seeded sample of this many triples


def _stalk_chains(H: HSheaf, rng: random.Random):
    """STALK_TRIPLES seeded composable stalk chains x ∈ H^{ab}, y ∈ H^{bc},
    z ∈ H^{cd} at one face with deg x + deg y + deg z <= cutoff.

    y is drawn among the partners of x that leave room for some z, and z
    among those that fit, so every x that starts a chain gives one.  Any
    other x is redrawn, under the same attempt cap as _section_associativity.
    """
    labels = range(len(H.catalog))
    pool = []
    for f in H.space.points:
        for a, b in itertools.product(labels, repeat=2):
            blk = H.blocks[(a, b)]
            if f in blk.support.members():
                for d, labs in sorted(blk.stalk(f).basis.items()):
                    for lab in labs:
                        pool.append((f, a, b, d, lab))
    if not pool:
        return
    partners = {}
    extensions = {}

    def composable(f, b):
        """Stalk labels (c, degree, label) of the blocks (b, c) at f in
        degree order, and their degrees; built once per (f, b)."""
        if (f, b) not in partners:
            found = sorted(((c, d2, lab) for c in labels if f in H.blocks[(b, c)].support.members()
                            for d2, labs in H.blocks[(b, c)].stalk(f).basis.items() for lab in labs),
                           key=lambda y: y[1])
            partners[(f, b)] = found, [y[1] for y in found]
        return partners[(f, b)]

    def extendable(f, b):
        """The y of composable(f, b) that some z follows, in order of deg y
        plus the least degree of such a z, and those sums; built once per (f, b)."""
        if (f, b) not in extensions:
            found = []
            for y in composable(f, b)[0]:
                degs = composable(f, y[0])[1]
                if degs:
                    found.append((y[1] + degs[0], y))
            found.sort(key=lambda e: e[0])
            extensions[(f, b)] = [y for _, y in found], [least for least, _ in found]
        return extensions[(f, b)]

    produced = attempts = 0
    while produced < STALK_TRIPLES and attempts < 50 * STALK_TRIPLES:
        attempts += 1
        f, a, b, d1, x = pool[rng.randrange(len(pool))]
        ys, least = extendable(f, b)
        k = bisect.bisect_right(least, H.cutoff - d1)
        if not k:
            continue
        c, d2, y = ys[rng.randrange(k)]
        zs, degs = composable(f, c)
        dd, _, z = zs[rng.randrange(bisect.bisect_right(degs, H.cutoff - d1 - d2))]
        produced += 1
        yield f, (a, b, c, dd), (x, y, z)


def _sampled_triples(H: HSheaf, rng: random.Random):
    """Direct stalk-level triple products both ways on seeded chains."""
    for f, (a, b, c, dd), labs in _stalk_chains(H, rng):
        x, y, z = map(H.code, labs)
        xy = H.compose(a, b, c, f, x, y)
        yz = H.compose(b, c, dd, f, y, z)
        left = None if xy is None else H.compose(a, c, dd, f, xy, z)
        right = None if yz is None else H.compose(a, b, dd, f, x, yz)
        if left != right:
            return False
    return True


def section_algebra_checks(H: HSheaf, ext: ExtAlgebra, rng: random.Random):
    out = []
    bad = []
    for x in range(len(ext.basis)):
        if ext.element_product(ext.idempotents[ext.basis[x].block[0]], {x: 1}) != {x: 1}:
            bad.append(x)
            break
    right_bad = []
    for x in range(len(ext.basis)):
        if ext.element_product({x: 1}, ext.idempotents[ext.basis[x].block[1]]) != {x: 1}:
            right_bad.append(x)
            break
    out.append(_entry("ext.unit-laws", not bad and not right_bad,
                      left_failures=bad[:3], right_failures=right_bad[:3]))
    gys = []
    for (i, j), blk in sorted(H.blocks.items()):
        floor = 2 * blk.support.d
        if blk.support.members():
            hil = ext.block_hilbert((i, j))
            if any(hil[d] for d in range(min(floor, len(hil)))):
                gys.append([i, j])
    out.append(_entry("ext.gysin-floor", not gys, counterexamples=gys[:3]))
    exhaustive = len(ext.basis) <= EXHAUSTIVE_BASIS
    ok, tested = _section_associativity(ext, rng, exhaustive)
    out.append(_entry("ext.associativity", ok, triples_tested=tested, exhaustive=exhaustive))
    return out


def _section_associativity(ext, rng, exhaustive):
    n = len(ext.catalog)
    follow = {}

    def followers(x, degree):
        """Ids y composable after x with degree + deg y <= cutoff; they depend
        only on the column label b of x and the degree, so are built once per (b, degree)."""
        b = ext.basis[x].block[1]
        if (b, degree) not in follow:
            follow[(b, degree)] = [y for c in range(n) for y in ext.partners((b, c), degree)]
        return follow[(b, degree)]

    def all_pairs():
        """(x, y, the z after them) of every triple, in basis order."""
        for x in range(len(ext.basis)):
            for y in followers(x, ext.basis[x].degree):
                yield x, y, followers(y, ext.basis[x].degree + ext.basis[y].degree)

    def sampled_triples():
        produced = 0
        attempts = 0
        while produced < SECTION_TRIPLES and attempts < 50 * SECTION_TRIPLES:
            attempts += 1
            x = rng.randrange(len(ext.basis))
            ys = followers(x, ext.basis[x].degree)
            if not ys:
                continue
            y = ys[rng.randrange(len(ys))]
            zs = followers(y, ext.basis[x].degree + ext.basis[y].degree)
            if not zs:
                continue
            z = zs[rng.randrange(len(zs))]
            produced += 1
            yield x, y, (z,)

    multiply = ext.multiply
    tested = 0
    for x, y, zs in (all_pairs() if exhaustive else sampled_triples()):
        xy = multiply(x, y)
        for z in zs:
            tested += 1
            # (xy)z and x(yz), each summed over the terms of its inner product
            left, right = {}, {}
            for w, c in xy.items():
                for v, cv in multiply(w, z).items():
                    left[v] = left.get(v, 0) + c * cv
            for w, c in multiply(y, z).items():
                for v, cv in multiply(x, w).items():
                    right[v] = right.get(v, 0) + c * cv
            if {v: c for v, c in left.items() if c} != {v: c for v, c in right.items() if c}:
                return False, tested
    return True, tested


def oracle_checks(H: HSheaf, ext: ExtAlgebra, seed: int, fan):
    out = []
    rng = random.Random(seed)
    # sections: brute force vs incremental on every block over the whole space
    bad = []
    brute = _per_block_sheaf(H, lambda sheaf: brute_sections(H.space, H.space.points, sheaf, H.cutoff))
    for (i, j), got in brute:
        want = ext.sections[(i, j)]
        if got.dims != dict(want.dims):
            bad.append({"block": [i, j], "brute": got.dims, "sections": dict(want.dims)})
    out.append(_entry("oracle.brute-sections", not bad, counterexamples=bad[:3]))
    # piecewise polynomials vs the trivial-label diagonal block (a fan is given exactly for toric data)
    if fan is not None:
        trivial = next((k for k, lab in enumerate(H.catalog.labels)
                        if lab.orbit == () and not any(lab.char)), None)
        if trivial is not None:
            hil = ext.block_hilbert((trivial, trivial))
            pp = pp_hilbert(fan, H.cutoff)
            out.append(_entry("oracle.piecewise-polynomials", hil == pp, block=hil, fan=pp))
    # twisted tensor: definitional relations vs the isotypic shortcut, once per distinct input
    bad = []
    kdata = H.datum.kdata
    chars = sorted({lab.char for lab in H.catalog.labels})
    agree = {}      # (module, ca, cb) -> the two routes give the same dims
    for jkey in sorted(kdata.entries):
        mod = kdata.module(jkey)
        if mod.rank > 3:
            continue
        for ra in chars:
            for rb in chars:
                ca, cb = kdata.char_at(jkey, ra), kdata.char_at(jkey, rb)
                if (mod, ca, cb) not in agree:
                    agree[(mod, ca, cb)] = (twisted_tensor(mod, ca, cb, min(H.cutoff, 12)).dims
                                            == twisted_tensor_relations(mod, ca, cb, min(H.cutoff, 12)).dims)
                if not agree[(mod, ca, cb)]:
                    bad.append({"J": list(jkey), "chars": [list(ca), list(cb)]})
    out.append(_entry("oracle.twisted-tensor-dual-implementation", not bad, counterexamples=bad[:3]))
    # quadrant components drawn from the S_Δ data of this datum
    phis = set()
    for s in H.datum.S:
        for la, lb in itertools.product(H.catalog.labels, repeat=2):
            phi = tuple(sorted(set(s) - (set(la.orbit) | set(lb.orbit))))
            if phi:
                phis.add(phi)
    qbad = []
    for phi in sorted(phis):
        comps = [tuple(sorted(c)) for k in range(len(phi) + 1)
                 for c in itertools.combinations(phi, k)]
        if len(comps) > 16:
            comps = sorted(rng.sample(comps, 16))
        rep = quadrant_check(phi, comps)
        if not rep.ok:
            qbad.append({"phi": list(phi), "entries": [e for e in rep.entries if not e["ok"]][:2]})
    out.append(_entry("oracle.quadrant", not qbad, counterexamples=qbad[:3], phis=len(phis)))
    fz = identity_fuzz(10_000, seed=seed)
    out.append(_entry("oracle.identity-fuzz", fz.ok, trials=fz.trials, seed=fz.seed,
                      failures=fz.failures[:3]))
    return out


def run_battery(H: HSheaf, ext: ExtAlgebra, seed: int, fan) -> Report:
    rng = random.Random(seed)
    entries = []
    entries += poset_axiom_checks(H)
    entries += sheaf_structure_checks(H, rng)
    entries += section_algebra_checks(H, ext, rng)
    entries += oracle_checks(H, ext, seed, fan)
    conc = concentration_check(H, ext)
    entries += conc.entries
    entries.append(vanishing_entry(H))
    return Report(ok=all(e.ok for e in entries), entries=entries)


def vanishing_entry(H: HSheaf):
    """The vanishing report as one entry: ok, its first three failures and the
    number of opens with a nonzero block.  It keeps no entry list: one walk
    (vanishing_walk) makes a ReportEntry only for the failures it prints."""
    van_ok, failures, opens = True, [], set()
    for ok, kind, famname, key, payload in vanishing_walk(H):
        if not ok:
            van_ok = False
            if len(failures) < 3:
                e = report_entry(ok, kind, famname, key, payload)
                failures.append({"name": e.name, "details": e.details})
        if kind == "vanishing":
            opens.add(famname)
    return _entry("vanishing-report", van_ok, failures=failures, opens_checked=len(opens))
