"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact; the cutoff is 20 unless stated otherwise.  The
shipped data is built once at module scope and shared.
"""

import io
import itertools
import random
from pathlib import Path

from extsheaf.algebra import TwoGroupModule, twisted_tensor, twisted_tensor_relations
from extsheaf.checks import poset_axiom_checks
from extsheaf.cli import document_datum, load_document, run as cli_run
from extsheaf.extalg import concentration_check, ext_algebra, vanishing_report
from extsheaf.hsheaf import build_H, check_diagonal_units, check_face_local_associativity
from extsheaf.isotropy import build_catalog
from extsheaf.oracles import brute_sections, identity_fuzz, pp_hilbert, quadrant_check
from extsheaf.posets import global_sections

CUTOFF = 20
SEED = 20260810
DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"
NAMES = ["p1_trivial", "p1_halfint", "p1xp1", "p2",
         "canonical_l1", "canonical_l2", "synthetic_symmetric_rank1"]

_cache = {}


def built(name):
    if name not in _cache:
        doc = load_document(str(DATA / f"{name}.json"))
        datum, dbasis, labels, fan = document_datum(doc)
        catalog = build_catalog(datum.isotropy, datum.V, labels)
        H = build_H(datum, catalog, CUTOFF)
        ext = ext_algebra(H)
        _cache[name] = (datum, catalog, H, ext, fan)
    return _cache[name]


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, text


def test_criterion_1_toric_equivariant_cohomology_match():
    ok = True
    for name in ["p1_trivial", "p1xp1", "p2"]:
        datum, catalog, H, ext, fan = built(name)
        trivial = next(k for k, lab in enumerate(catalog.labels)
                       if lab.orbit == () and not any(lab.char))
        got = ext.block_hilbert((trivial, trivial))
        want = pp_hilbert(fan, CUTOFF)
        ok = ok and got == want
    report(1, ok, "trivial diagonal block equals piecewise polynomials on the fan, degrees <= 20")


def test_criterion_2_gysin_shifts():
    ok = True
    for name in NAMES:
        datum, catalog, H, ext, fan = built(name)
        for (i, j), blk in sorted(H.blocks.items()):
            hil = ext.block_hilbert((i, j))
            floor = 2 * blk.support.d
            if blk.support.members() and any(hil[d] for d in range(min(floor, CUTOFF + 1))):
                ok = False
            # single closed orbit with trivial isotropy: a shifted polynomial ring
            orbits = {tuple(sorted(set(k.split("|")[0].split("+")) - {"-"}))
                      for k in blk.support.fab}
            if (datum.isotropy.m == 0 and not blk.support.fab_prime and len(orbits) == 1
                    and len(blk.support.fab) == 1):
                nvars = len(next(iter(orbits)))
                want = [0] * (CUTOFF + 1)
                for d in range(floor, CUTOFF + 1, 2):
                    k = (d - floor) // 2
                    want[d] = len(list(itertools.combinations_with_replacement(range(nvars), k)))
                if hil != want:
                    ok = False
    # the worked example: P^1 block (fixed point, open orbit)
    datum, catalog, H, ext, fan = built("p1_trivial")
    ok = ok and ext.block_hilbert((1, 0))[:6] == [0, 0, 1, 0, 1, 0]
    report(2, ok, "blocks vanish below twice the codimension and closed-orbit blocks are shifted polynomial rings")


def test_criterion_3_twisted_local_systems():
    datum, catalog, H, ext, fan = built("p1_halfint")
    names = {k: lab.name() for k, lab in enumerate(catalog.labels)}
    assert names == {0: "(-;0)", 1: "(-;1)", 2: "(r0;0)", 3: "(r1;0)"}
    zero = [0] * (CUTOFF + 1)
    ok = ext.block_hilbert((1, 1)) == [1] + [0] * CUTOFF
    ok = ok and ext.block_hilbert((1, 0)) == zero and ext.block_hilbert((0, 1)) == zero
    ok = ok and ext.block_hilbert((1, 2)) == zero and ext.block_hilbert((2, 1)) == zero
    ok = ok and ext.block_hilbert((1, 3)) == zero and ext.block_hilbert((3, 1)) == zero
    report(3, ok, "half-integral structure: Ext(sign,sign) = Q in degree 0; sign against trivial or skyscraper vanishes")


def test_criterion_4_vanishing_lemma():
    ok = True
    detail = ""
    for name in NAMES:
        datum, catalog, H, ext, fan = built(name)
        rep = vanishing_report(H)
        if not rep.ok:
            ok = False
            detail = f" first failure on {name}: {rep.failures()[0].name}"
    report(4, ok, "Čech cohomology of H' vanishes in positive degrees on every G-stable open" + detail)


def test_criterion_5_concentration_dual_path():
    ok = True
    for name in NAMES:
        datum, catalog, H, ext, fan = built(name)
        rep = concentration_check(H, ext)
        ok = ok and rep.ok
    report(5, ok, "H^0 of the chain complex of the face poset matches the section algebra degreewise and on products")


def test_criterion_6_algebra_laws_and_poset_axioms():
    ok = True
    rng = random.Random(SEED)
    covered = []
    for name in NAMES:
        datum, catalog, H, ext, fan = built(name)
        ok = ok and all(e.ok for e in poset_axiom_checks(H))
        ok = ok and check_face_local_associativity(H) == []
        ok = ok and check_diagonal_units(H) == []
        from extsheaf.checks import section_algebra_checks
        entries = section_algebra_checks(H, ext, rng)
        ok = ok and all(e.ok for e in entries)
        assoc = next(e.details for e in entries if e.name == "ext.associativity")
        covered.append(f"{name} {'all' if assoc['exhaustive'] else 'a sample of'} {assoc['triples_tested']}")
    report(6, ok, "unit laws hold on every basis element; associativity holds on the triples up to the cutoff "
                  f"({', '.join(covered)}); face-poset axioms pass exhaustively")


def test_criterion_7_quadrant_lemma():
    rng = random.Random(SEED)
    ok = True
    for n in range(1, 5):
        phi = tuple(f"x{i}" for i in range(n))
        comps = [tuple(sorted(c)) for k in range(n + 1) for c in itertools.combinations(phi, k)]
        families = []
        if 2 ** len(comps) <= 500:
            for mask in range(1, 2 ** len(comps)):
                families.append([comps[i] for i in range(len(comps)) if mask >> i & 1])
        else:
            for _ in range(500):
                fam = [c for c in comps if rng.random() < 0.5]
                families.append(fam or [comps[0]])
        for fam in families:
            if not quadrant_check(phi, fam).ok:
                ok = False
    report(7, ok, "punctured-quadrant cohomology vanishes for |Φ| <= 4 over enumerated component families (capped at 500, seeded)")


def test_criterion_8_identity_fuzz():
    rep = identity_fuzz(10_000, seed=SEED)
    report(8, rep.ok, f"10^4 random quadruples satisfy the twist cocycle and degree identities (seed {SEED})")


def test_criterion_9_oracle_independence():
    ok = True
    for name in NAMES:
        datum, catalog, H, ext, fan = built(name)
        for (i, j), blk in sorted(H.blocks.items()):
            got = brute_sections(H.space, H.space.points, blk.sheaf, CUTOFF)
            want = global_sections(H.space, H.space.points, blk.sheaf, CUTOFF)
            if got.dims != dict(want.dims):
                ok = False
    rng = random.Random(SEED)
    for _ in range(200):
        rank = rng.randint(0, 3)  # all elementary abelian 2-groups of order <= 8
        ngens = rng.randint(0, 3)
        mod = TwoGroupModule(
            rank=rank,
            degrees=tuple(2 * rng.randint(1, 3) for _ in range(ngens)),
            signs=tuple(tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(ngens)))
        rho = tuple(rng.randint(0, 1) for _ in range(rank))
        rhop = tuple(rng.randint(0, 1) for _ in range(rank))
        if twisted_tensor(mod, rho, rhop, 10).dims != twisted_tensor_relations(mod, rho, rhop, 10).dims:
            ok = False
    report(9, ok, "brute-force sections match the solver on every block; both twisted-tensor implementations agree (200 seeded draws)")


def test_criterion_10_determinism():
    ok = True
    for name in NAMES:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_run(["--input", str(DATA / f"{name}.json"), "--command", "check-all",
                            "--seed", str(SEED)], out=buf)
            outs.append((code, buf.getvalue()))
        ok = ok and outs[0] == outs[1] and outs[0][0] == 0
    report(10, ok, "two consecutive check-all runs over the full example suite are byte-identical")
