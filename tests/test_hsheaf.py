import itertools
from fractions import Fraction
from pathlib import Path

from extsheaf import cli
from extsheaf.algebra import mono, nabla
from extsheaf.fans import Fan, toric_datum
from extsheaf.hsheaf import (
    build_H,
    check_diagonal_units,
    check_face_local_associativity,
    check_restriction_product,
    check_transport_identity,
    check_vanishing_pattern,
    support_sets,
    validate_support_facts,
)
from extsheaf.isotropy import build_catalog

ONE = Fraction(1)
DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"

P1 = Fan(rank=1, overlattice_gens=(), rays=((1,), (-1,)), max_cones=((0,), (1,)))
P1_HALF = Fan(rank=1, overlattice_gens=((1,),), rays=((1,), (-1,)), max_cones=((0,), (1,)))


def build(fan, cutoff=8):
    datum, _ = toric_datum(fan)
    catalog = build_catalog(datum.isotropy, datum.V, "all")
    return datum, catalog, build_H(datum, catalog, cutoff)


class TestSupports:
    def test_p1_diagonal_open(self):
        datum, catalog, _ = build(P1)
        # catalog order: open orbit first, then the two fixed points
        sup = support_sets(datum, catalog, 0, 0)
        assert set(sup.fab) == {"-|-", "r0|-", "r1|-"}
        assert sup.fab_prime == () and sup.d == 0

    def test_halfint_sign_vs_trivial(self):
        datum, catalog, _ = build(P1_HALF)
        # labels: 0 = (∅, trivial), 1 = (∅, sign), 2 = ({r0}, triv), 3 = ({r1}, triv)
        sup = support_sets(datum, catalog, 1, 0)
        assert sup.fab == ("-|-",)
        assert sup.fab_prime == ()
        assert sup.dab_prime == ("r0", "r1")

    def test_halfint_sign_vs_skyscraper(self):
        datum, catalog, _ = build(P1_HALF)
        sup = support_sets(datum, catalog, 1, 2)
        assert sup.fab == () and sup.fab_prime == ()

    def test_halfint_sign_diagonal_transport(self):
        datum, catalog, H = build(P1_HALF)
        sup = support_sets(datum, catalog, 1, 1)
        assert sup.fab == ("-|-",)
        assert set(sup.fab_prime) == {"r0|-", "r1|-"}
        assert sup.transport == {"r0|-": "-|-", "r1|-": "-|-"}
        assert validate_support_facts(H.space, datum, sup) == []

    def test_support_facts_all_blocks(self):
        for fan in (P1, P1_HALF):
            datum, catalog, H = build(fan)
            for i in range(len(catalog)):
                for j in range(len(catalog)):
                    sup = support_sets(datum, catalog, i, j)
                    assert validate_support_facts(H.space, datum, sup) == []


class TestStalks:
    def test_p1_fixed_point_diagonal(self):
        _, _, H = build(P1)
        st = H.stalk(1, 1, "r0|-")
        assert st.hilbert(6) == [1, 0, 1, 0, 1, 0, 1]

    def test_gysin_shift(self):
        _, _, H = build(P1)
        # block (fixed point, open orbit) has d = 1: unit in degree 2
        st = H.stalk(1, 0, "r0|-")
        assert st.hilbert(6) == [0, 0, 1, 0, 1, 0, 1]
        assert H.blocks[(1, 0)].support.d == 1

    def test_halfint_character_mismatch_is_zero(self):
        _, _, H = build(P1_HALF)
        st = H.stalk(1, 0, "-|-")
        assert st.dims == {}
        assert H.blocks[(1, 0)].zero

    def test_vanishing_pattern(self):
        for fan in (P1, P1_HALF):
            _, _, H = build(fan)
            assert check_vanishing_pattern(H) == []


class TestRestrictions:
    def test_variable_killed_into_open_orbit(self):
        _, _, H = build(P1)
        blk = H.blocks[(0, 0)]
        m = blk.sheaf.restriction("r0|-", "-|-")
        x = (mono(("r0", 1)), ())
        unit = (mono(), ())
        assert m[x] == ()
        assert m[unit] == ((unit, ONE),)

    def test_transport_identity(self):
        for fan in (P1, P1_HALF):
            _, _, H = build(fan)
            assert check_transport_identity(H) == []

    def test_chain_composition(self):
        _, _, H = build(P1)
        for (i, j), blk in H.blocks.items():
            assert blk.sheaf.validate_functoriality() == []


class TestProduct:
    def test_unit_laws(self):
        for fan in (P1, P1_HALF):
            _, _, H = build(fan)
            assert check_diagonal_units(H) == []

    def test_euler_class_composition(self):
        _, _, H = build(P1)
        unit = (mono(), ())
        # Hom(L_0 -> L_+) unit in degree 0 composed with Hom(L_+ -> L_0)
        # unit in degree 2 lands on the Euler class X_+ of the fixed point
        z = H.compose(0, 1, 0, "r0|-", unit, unit)
        assert z == (((("r0", 1),), ()), ONE)

    def test_product_through_zero_stalk(self):
        _, _, H = build(P1_HALF)
        unit = (mono(), ())
        # (sign, trivial) is a zero block: composing through it gives None
        assert H.compose(1, 0, 0, "r0|-", unit, unit) is None

    def test_restriction_commutes_with_product(self):
        for fan in (P1, P1_HALF):
            _, _, H = build(fan, cutoff=6)
            assert check_restriction_product(H) == []

    def test_face_local_associativity(self):
        for fan in (P1, P1_HALF):
            _, _, H = build(fan)
            assert check_face_local_associativity(H) == []

    def test_direct_triple_products(self):
        _, _, H = build(P1, cutoff=10)
        # brute associativity on explicit stalk triples at the fixed point
        f = "r0|-"
        n = len(H.catalog)
        checked = 0
        for a, b, c, d in itertools.product(range(n), repeat=4):
            sup = [H.blocks[(a, b)], H.blocks[(b, c)], H.blocks[(c, d)]]
            if any(f not in s.support.members() for s in sup):
                continue
            for xl in (sup[0].stalk(f).basis or {}).get(2 * sup[0].support.d, ()):
                for yl in (sup[1].stalk(f).basis or {}).get(2 * sup[1].support.d + 2, ()):
                    for zl in (sup[2].stalk(f).basis or {}).get(2 * sup[2].support.d, ()):
                        xy = H.compose(a, b, c, f, xl, yl)
                        left = H.compose(a, c, d, f, xy[0], zl) if isinstance(xy, tuple) else None
                        yz = H.compose(b, c, d, f, yl, zl)
                        right = H.compose(a, b, d, f, xl, yz[0]) if isinstance(yz, tuple) else None
                        assert left == right
                        checked += 1
        assert checked > 0

    def test_empty_catalog(self):
        datum, _ = toric_datum(P1)
        catalog = build_catalog(datum.isotropy, datum.V, [])
        H = build_H(datum, catalog, 6)
        assert H.blocks == {}

    def test_p1_block_count(self):
        # three labels give nine blocks, each diagonal one unital
        _, catalog, H = build(P1)
        assert len(catalog) == 3 and len(H.blocks) == 9
        for a in range(3):
            blk = H.blocks[(a, a)]
            for key in sorted(blk.support.members()):
                assert ((), ()) in (blk.stalk(key).basis or {}).get(0, ())


class TestProductDegree:
    def test_nabla_size_is_the_degree_shift(self):
        """|∇(Δa, Δb, Δc)| = d_ab + d_bc - d_ac for every label triple of every shipped document."""
        for path in sorted(DATA.glob("*.json")):
            _, _, catalog, H, _ = cli._build(cli.load_document(str(path)), 0)
            n = len(catalog)
            for a, b, c in itertools.product(range(n), repeat=3):
                orbits = [catalog.labels[k].orbit for k in (a, b, c)]
                d = {pair: H.blocks[pair].support.d for pair in ((a, b), (b, c), (a, c))}
                assert len(nabla(*orbits)) == d[(a, b)] + d[(b, c)] - d[(a, c)], (path.name, a, b, c)
