import itertools
import time
from pathlib import Path

import pytest

from extsheaf import cli

from extsheaf.faces import (
    FacePoint,
    KData,
    SymmetricDatum,
    build_faces,
    closed_face,
    downward_closed_families,
    g_stable_open,
)
from extsheaf.fans import Fan, toric_isotropy
from extsheaf.isotropy import DatumError, IsotropyFamily
from extsheaf.posets import validate_intersection_axiom

DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"


def canonical_datum(l):
    """Canonical compactification data: V = {v1..vl}, S all subsets,
    Jmap(Δ) = indices, D = F2^l with D_Δ spanned by the members of Δ."""
    names = [f"v{i}" for i in range(1, l + 1)]
    S = [tuple(sorted(c)) for k in range(l + 1) for c in itertools.combinations(names, k)]
    jmap = {s: tuple(int(v[1:]) for v in s) for s in S}
    subs = {s: tuple(tuple(1 if i == int(v[1:]) - 1 else 0 for i in range(l)) for v in s) for s in S}
    fam = IsotropyFamily(m=l, subspaces=subs, mode="symmetric")
    return SymmetricDatum(V=names, S=S, l=l, Jmap=jmap, isotropy=fam,
                          kdata=KData(m=l, l=l))


def toric_datum(fan):
    fam, _ = toric_isotropy(fan)
    S = fan.orbit_sets()
    return SymmetricDatum(V=fan.ray_names(), S=S, l=0, Jmap={s: () for s in S},
                          isotropy=fam, kdata=KData(m=fam.m, l=0))


P1 = Fan(rank=1, overlattice_gens=(), rays=((1,), (-1,)), max_cones=((0,), (1,)))
P1XP1 = Fan(rank=2, overlattice_gens=(),
            rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
            max_cones=((0, 2), (0, 3), (1, 2), (1, 3)))
P1X3 = Fan(rank=3, overlattice_gens=(),
           rays=tuple(tuple(s if k == i else 0 for k in range(3)) for i in range(3) for s in (1, -1)),
           max_cones=tuple(tuple(2 * i + s for i, s in enumerate(signs))
                           for signs in itertools.product((0, 1), repeat=3)))
P2 = Fan(rank=2, overlattice_gens=(),
         rays=((1, 0), (0, 1), (-1, -1)),
         max_cones=((0, 1), (1, 2), (0, 2)))


class TestBuildFaces:
    def test_l1_faces(self):
        datum = canonical_datum(1)
        sp = build_faces(datum)
        assert sp.points == ("-|-", "-|1", "v1|1")
        # the closed face ({v1},{1}) lies under the open face (∅,{1}) only
        assert sp.minimal_open("v1|1") == ("-|1", "v1|1")
        assert sp.minimal_open("-|-") == ("-|-", "-|1")
        assert sp.minimal_open("-|1") == ("-|1",)

    def test_l2_count(self):
        datum = canonical_datum(2)
        sp = build_faces(datum)
        assert len(sp.points) == 9  # sum over J of 2^|J|

    def test_intersection_law(self):
        for datum in [canonical_datum(1), canonical_datum(2), toric_datum(P1XP1)]:
            sp = build_faces(datum)
            assert validate_intersection_axiom(sp).ok
            # U_{(Δ,J)} ∩ U_{(Δ',J')} = U_{(Δ∩Δ', J∪J')} on all pairs
            for a, b in itertools.combinations(sp.points, 2):
                fa, fb = FacePoint.from_key(a), FacePoint.from_key(b)
                inter = set(sp.minimal_open(a)) & set(sp.minimal_open(b))
                expect = FacePoint(
                    orbit=tuple(sorted(set(fa.orbit) & set(fb.orbit))),
                    j=tuple(sorted(set(fa.j) | set(fb.j))))
                assert inter == set(sp.minimal_open(expect.key()))

    def test_closure_biconditional(self):
        datum = canonical_datum(2)
        sp = build_faces(datum)
        for a in sp.points:
            for b in sp.points:
                fa, fb = FacePoint.from_key(a), FacePoint.from_key(b)
                combinatorial = set(fb.orbit) <= set(fa.orbit) and set(fa.j) <= set(fb.j)
                assert sp.leq(a, b) == combinatorial


class TestOrbitSpace:
    def test_p1(self):
        sp = build_faces(toric_datum(P1))
        assert len(sp.points) == 3
        # the open orbit is the maximal point
        assert sp.minimal_open("-|-") == ("-|-",)

    def test_p1xp1(self):
        assert len(build_faces(toric_datum(P1XP1)).points) == 9

    def test_p2(self):
        assert len(build_faces(toric_datum(P2)).points) == 7

    def test_cone_poset_reversed(self):
        fan = P2
        datum = toric_datum(fan)
        sp = build_faces(datum)
        for a in sp.points:
            for b in sp.points:
                fa, fb = FacePoint.from_key(a), FacePoint.from_key(b)
                assert sp.leq(a, b) == (set(fb.orbit) <= set(fa.orbit))


class TestOpensAndClosedFaces:
    def test_g_stable_open(self):
        datum = canonical_datum(1)
        sp = build_faces(datum)
        assert g_stable_open(datum, sp, [()]) == ("-|-", "-|1")
        assert g_stable_open(datum, sp, [(), ("v1",)]) == tuple(sorted(sp.points))
        with pytest.raises(DatumError):
            g_stable_open(datum, sp, [("v1",)])

    def test_open_is_open(self):
        datum = canonical_datum(2)
        sp = build_faces(datum)
        for fam in downward_closed_families(datum):
            assert sp.is_open(g_stable_open(datum, sp, fam))

    def test_closed_face(self):
        datum = canonical_datum(1)
        assert closed_face(datum, ()) == FacePoint(orbit=(), j=())
        assert closed_face(datum, ("v1",)) == FacePoint(orbit=("v1",), j=(1,))
        sp = build_faces(datum)
        cf = closed_face(datum, ("v1",)).key()
        others = [p for p in sp.points if FacePoint.from_key(p).orbit == ("v1",)]
        assert all(sp.leq(cf, o) for o in others)


def mask_scan_families(datum):
    """Oracle: every subfamily of S, kept when it holds all proper subsets of its members."""
    out = []
    ss = list(datum.S)
    for mask in range(1 << len(ss)):
        fam = {ss[i] for i in range(len(ss)) if mask >> i & 1}
        if all(tuple(sub) in fam for s in fam for k in range(len(s)) for sub in itertools.combinations(s, k)):
            out.append(tuple(sorted(fam)))
    return sorted(out)


class TestDownwardClosedFamilies:
    def test_matches_the_mask_scan(self):
        datums = [cli.document_datum(cli.load_document(str(path)))[0]
                  for path in sorted(DATA.glob("*.json"))]
        datums += [canonical_datum(l) for l in (1, 2, 3)]
        assert len(datums) == 10
        for datum in datums:
            assert downward_closed_families(datum) == mask_scan_families(datum)

    def test_p1_cubed_is_fast(self):
        datum = toric_datum(P1X3)
        assert len(datum.S) == 27
        t0 = time.perf_counter()
        families = downward_closed_families(datum)
        assert time.perf_counter() - t0 < 1.0
        assert len(families) == 15_936 and families == sorted(families)


class TestKData:
    def kdatum_rank1(self):
        entries = {
            "-": {"tau_rank": 1, "to_open": [[1]], "generators": [{"degree": 2, "signs": [1]}]},
            "1": {"tau_rank": 1, "to_open": [[1]], "generators": [{"degree": 2, "signs": [1]}]},
            "restrictions": {"->1": {"tau_map": [[1]], "gens": [[["1", [1]]]]}},
        }
        return KData(m=1, l=1, entries=entries)

    def test_default_is_trivial_algebra_full_group(self):
        kd = KData(m=2, l=1)
        assert kd.module(()).rank == 2
        assert kd.module(()).degrees == ()
        assert kd.char_at((1,), (1, 0)) == (1, 0)

    def test_rank1_roundtrip(self):
        kd = self.kdatum_rank1()
        assert kd.module(()).degrees == (2,)
        img = kd.apply_restriction((), (1,), (3,))
        assert img == {(3,): 1}

    def test_rejects_inequivariant_restriction(self):
        entries = {
            "-": {"tau_rank": 1, "to_open": [[1]], "generators": [{"degree": 2, "signs": [1]}]},
            "1": {"tau_rank": 1, "to_open": [[1]], "generators": [{"degree": 2, "signs": [0]}]},
            "restrictions": {"->1": {"tau_map": [[1]], "gens": [[["1", [1]]]]}},
        }
        with pytest.raises(DatumError):
            KData(m=1, l=1, entries=entries)

    def test_rejects_degree_bump(self):
        entries = {
            "-": {"tau_rank": 0, "to_open": [], "generators": [{"degree": 2, "signs": []}]},
            "1": {"tau_rank": 0, "to_open": [], "generators": [{"degree": 4, "signs": []}]},
            "restrictions": {"->1": {"tau_map": [], "gens": [[["1", [1]]]]}},
        }
        with pytest.raises(DatumError):
            KData(m=0, l=1, entries=entries)

    def test_identity_restriction_is_cached(self):
        kd = self.kdatum_rank1()
        first = kd.restriction_data((1,), (1,))
        assert first == {"tau_map": ((1,),), "gens": ((((1,), 1),),)}
        assert kd.restriction_data((1,), (1,)) is first
        assert kd.apply_restriction((1,), (1,), (2,)) == {(2,): 1}


class TestFaceList:
    def test_faces_are_enumerated_once_and_copied_out(self):
        datum = canonical_datum(2)
        first = datum.faces()
        assert first == sorted(first, key=lambda f: (f.orbit, f.j))
        first.pop()
        assert len(datum.faces()) == len(first) + 1
        assert build_faces(datum).points == tuple(sorted(f.key() for f in datum.faces()))
