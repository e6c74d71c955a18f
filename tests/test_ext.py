import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from extsheaf import checks, cli, extalg
from extsheaf.extalg import (
    concentration_check,
    diagonal_unit,
    ext_algebra,
    ext_module,
    vanishing_report,
)
from extsheaf.faces import downward_closed_families, g_stable_open
from extsheaf.fans import Fan, toric_datum
from extsheaf.hsheaf import build_H
from extsheaf.isotropy import DatumError, build_catalog
from extsheaf.posets import FiniteSpace, GradedSheaf, GradedSpace, SectionSpace, global_sections

ONE = Fraction(1)

P1 = Fan(rank=1, overlattice_gens=(), rays=((1,), (-1,)), max_cones=((0,), (1,)))
P1_HALF = Fan(rank=1, overlattice_gens=((1,),), rays=((1,), (-1,)), max_cones=((0,), (1,)))


def build_ext(fan, cutoff=10):
    datum, _ = toric_datum(fan)
    catalog = build_catalog(datum.isotropy, datum.V, "all")
    H = build_H(datum, catalog, cutoff)
    return H, ext_algebra(H)


class TestExtAlgebra:
    def test_p1_trivial_diagonal_hilbert(self):
        H, ext = build_ext(P1)
        assert ext.block_hilbert((0, 0)) == [1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2]

    def test_p1_gysin_block(self):
        H, ext = build_ext(P1)
        assert ext.block_hilbert((1, 0)) == [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        assert ext.block_hilbert((0, 1)) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_halfint_twisted_blocks(self):
        H, ext = build_ext(P1_HALF)
        # labels: 0 = (∅,0), 1 = (∅,1), 2 = ({r0},0), 3 = ({r1},0)
        assert ext.block_hilbert((1, 1)) == [1] + [0] * 10
        assert ext.block_hilbert((1, 0)) == [0] * 11
        assert ext.block_hilbert((1, 2)) == [0] * 11
        assert ext.block_hilbert((2, 1)) == [0] * 11

    def test_unit_is_sum_of_idempotents(self):
        H, ext = build_ext(P1)
        unit = ext.unit_coeffs()
        for x in range(len(ext.basis)):
            if ext.basis[x].degree > ext.cutoff - 0:
                continue
            acted = ext.element_product(unit, {x: 1})
            assert acted == {x: ONE}
        for a, coeffs in ext.idempotents.items():
            sq = {}
            for e1, c1 in coeffs.items():
                for e2, c2 in coeffs.items():
                    t = ext.multiply(e1, e2)
                    assert t != "truncated"
                    for z, cz in t.items():
                        sq[z] = sq.get(z, Fraction(0)) + c1 * c2 * cz
            assert {k: v for k, v in sq.items() if v} == coeffs

    def test_euler_class_in_section_algebra(self):
        H, ext = build_ext(P1)
        x0 = ext.by_block[(0, 1)][0]
        y0 = ext.by_block[(1, 0)][0]
        assert ext.basis[x0].degree == 0 and ext.basis[y0].degree == 2
        prod = ext.multiply(x0, y0)
        assert len(prod) == 1
        (z, c), = prod.items()
        assert ext.basis[z].block == (0, 0) and ext.basis[z].degree == 2 and c == ONE

    def test_element_product_is_bilinear(self):
        H, ext = build_ext(P1)
        xs, ys = ext.by_block[(0, 0)][:3], ext.by_block[(0, 1)][:2]
        for x, y in itertools.product(xs, ys):
            assert ext.element_product({x: 1}, {y: 1}) == ext.multiply(x, y)
        want = {}
        for (x, cx), (y, cy) in itertools.product(zip(xs, (2, -1, Fraction(1, 3))), zip(ys, (3, -5))):
            for z, cz in ext.multiply(x, y).items():
                want[z] = want.get(z, 0) + cx * cy * cz
        got = ext.element_product(dict(zip(xs, (2, -1, Fraction(1, 3)))), dict(zip(ys, (3, -5))))
        assert got == {z: c for z, c in want.items() if c} and got
        # zero coefficients leave no zero entries
        x, y = next((x, y) for x, y in itertools.product(xs, ys) if ext.multiply(x, y))
        assert ext.element_product({x: 0}, {y: 1}) == {}
        other = ys[0] if y == ys[1] else ys[1]
        assert ext.element_product({x: 1}, {y: 1, other: 0}) == ext.multiply(x, y)

    def test_gysin_floor(self):
        for fan in (P1, P1_HALF):
            H, ext = build_ext(fan)
            for (i, j), blk in H.blocks.items():
                if not blk.support.members():
                    continue
                hil = ext.block_hilbert((i, j))
                for d in range(min(2 * blk.support.d, len(hil))):
                    assert hil[d] == 0


class TestExtModules:
    def test_block_decomposition(self):
        H, ext = build_ext(P1)
        total = sorted(i for a in range(len(ext.catalog)) for i in ext_module(ext, a).elements)
        assert total == list(range(len(ext.basis)))

    def test_skyscraper_column_dims(self):
        H, ext = build_ext(P1)
        mod = ext_module(ext, 1)
        dims = {}
        for i in mod.elements:
            dims[ext.basis[i].degree] = dims.get(ext.basis[i].degree, 0) + 1
        by_hand = [ext.block_hilbert((b, 1)) for b in range(3)]
        for d in range(ext.cutoff + 1):
            assert dims.get(d, 0) == sum(h[d] for h in by_hand)

    def test_zero_column_module(self):
        H, ext = build_ext(P1_HALF)
        # the only nonzero block ending at the sign label is the diagonal one
        mod = ext_module(ext, 1)
        assert all(ext.basis[i].block == (1, 1) for i in mod.elements)

    def test_action_matches_table(self):
        H, ext = build_ext(P1)
        mod = ext_module(ext, 0)
        e = ext.by_block[(0, 1)][0]
        x = ext.by_block[(1, 0)][0]
        assert mod.action(e, x) == ext.multiply(e, x)

    def test_action_rejects_a_non_member(self):
        H, ext = build_ext(P1)
        mod = ext_module(ext, 0)
        e = ext.by_block[(0, 1)][0]
        outside = ext.by_block[(0, 1)][0]
        assert outside not in mod.elements
        for _ in range(2):
            with pytest.raises(DatumError, match="element is not in the module"):
                mod.action(e, outside)
        assert mod.action(e, ext.by_block[(1, 0)][0]) == ext.multiply(e, ext.by_block[(1, 0)][0])


class TestReports:
    def test_vanishing_p1(self):
        H, _ = build_ext(P1, cutoff=8)
        rep = vanishing_report(H)
        assert rep.ok, rep.failures()[:3]

    def test_vanishing_halfint(self):
        H, _ = build_ext(P1_HALF, cutoff=8)
        rep = vanishing_report(H)
        assert rep.ok, rep.failures()[:3]

    def test_concentration_p1(self):
        H, ext = build_ext(P1, cutoff=8)
        rep = concentration_check(H, ext)
        assert rep.ok, rep.failures()[:3]

    def test_concentration_halfint(self):
        H, ext = build_ext(P1_HALF, cutoff=8)
        rep = concentration_check(H, ext)
        assert rep.ok, rep.failures()[:3]

    def test_one_point_space_collapses(self):
        fan = P1
        datum, _ = toric_datum(fan)
        catalog = build_catalog(datum.isotropy, datum.V, [((), ())])
        H = build_H(datum, catalog, 6)
        rep = concentration_check(H, ext_algebra(H))
        assert rep.ok


class TestPolynomialKRestriction:
    def build(self):
        from extsheaf.faces import KData, SymmetricDatum
        from extsheaf.isotropy import IsotropyFamily

        # the degree-4 generator restricts to w4 + w2^2: a genuinely
        # polynomial image, still degree-preserving and equivariant
        entries = {
            "-": {"tau_rank": 1, "to_open": [[1]],
                  "generators": [{"degree": 2, "signs": [1]}, {"degree": 4, "signs": [0]}]},
            "1": {"tau_rank": 1, "to_open": [[1]],
                  "generators": [{"degree": 2, "signs": [1]}, {"degree": 4, "signs": [0]}]},
            "restrictions": {"->1": {"tau_map": [[1]],
                                     "gens": [[["1", [1, 0]]],
                                              [["1", [0, 1]], ["1", [2, 0]]]]}},
        }
        fam = IsotropyFamily(m=1, subspaces={(): (), ("v",): ((1,),)}, mode="symmetric")
        datum = SymmetricDatum(V=("v",), S=[(), ("v",)], l=1,
                               Jmap={(): (), ("v",): (1,)},
                               isotropy=fam, kdata=KData(m=1, l=1, entries=entries))
        catalog = build_catalog(datum.isotropy, datum.V, "all")
        H = build_H(datum, catalog, 12)
        return H, ext_algebra(H)

    def test_full_battery(self):
        from extsheaf.checks import run_battery

        H, ext = self.build()
        assert len(ext.basis) <= checks.EXHAUSTIVE_BASIS     # so every ext triple is tested
        rep = run_battery(H, ext, seed=3, fan=None)
        assert rep.ok, [e.name for e in rep.entries if not e.ok][:4]

    def test_sign_diagonal_counts_invariant_monomials(self):
        H, ext = self.build()
        # invariants of Q[u2 (sign), u4]: dimensions 1,2,3,4 in degrees 0,4,8,12
        assert ext.block_hilbert((1, 1)) == [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4]


DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"


def _composable(ext, x):
    b = ext.basis[x].block[1]
    return [blk for blk in sorted(ext.by_block) if blk[0] == b]


class TestDegreeBoundedTable:
    NAMES = ("p1_trivial", "canonical_l2")

    def _run_ext(self, name, monkeypatch):
        built = []

        def capture(H):
            built.append(ext_algebra(H))
            return built[-1]

        monkeypatch.setattr(cli, "ext_algebra", capture)
        doc = cli.load_document(str(DATA / f"{name}.json"))
        code, payload = cli.cmd_ext(cli._datum_catalog(doc), doc["cutoff"], cli.DEFAULT_SEED, None)
        assert code == 0
        return built[0], payload

    def test_partners_are_the_pairs_in_range(self):
        for name in self.NAMES:
            doc = cli.load_document(str(DATA / f"{name}.json"))
            ext = ext_algebra(_document_H(name, doc["cutoff"]))
            for x in range(len(ext.basis)):
                for blk in _composable(ext, x):
                    want = tuple(y for y in ext.by_block[blk]
                                 if ext.basis[x].degree + ext.basis[y].degree <= ext.cutoff)
                    assert ext.partners(blk, ext.basis[x].degree) == want

    def test_truncated_pairs_match_an_independent_count(self, monkeypatch):
        for name in self.NAMES:
            ext, payload = self._run_ext(name, monkeypatch)
            count = 0
            for x in range(len(ext.basis)):
                for blk in _composable(ext, x):
                    for y in ext.by_block[blk]:
                        bx, by = ext.basis[x], ext.basis[y]
                        if bx.degree + by.degree > ext.cutoff:
                            count += 1
                        elif ext.H.multiply_sections(bx.block[0], bx.block[1], by.block[1],
                                                     bx.vector, by.vector) == "truncated":
                            count += 1
            assert count > 0
            assert payload["truncated_pairs"] == count

    def test_table_holds_no_degree_truncated_pair(self, monkeypatch):
        # ext keeps no memo, so every pair it multiplies is recorded at _product
        product = extalg.ExtAlgebra._product
        for name in self.NAMES:
            multiplied = []

            def record(ext, x, y):
                multiplied.append((x, y))
                return product(ext, x, y)

            monkeypatch.setattr(extalg.ExtAlgebra, "_product", record)
            ext, _ = self._run_ext(name, monkeypatch)
            assert multiplied, name
            for x, y in multiplied:
                assert ext.basis[x].degree + ext.basis[y].degree <= ext.cutoff, (name, x, y)

    def test_ext_keeps_no_memo(self, monkeypatch):
        for name in self.NAMES:
            ext, payload = self._run_ext(name, monkeypatch)
            assert any(blk["table"] for blk in payload["blocks"]), name
            assert ext._table == {}, name


class TestTableRows:
    """row gives the nonzero products of multiply over partners, in basis order."""

    def _check(self, name, H):
        by_row, by_pair = ext_algebra(H), ext_algebra(H)
        products = truncated = 0
        for x in range(len(by_row.basis)):
            for blk in _composable(by_row, x):
                ids = by_pair.partners(blk, by_pair.basis[x].degree)
                want = [(y, m) for y in ids if (m := by_pair.multiply(x, y))]
                assert list(by_row.row(x, blk)) == want, (name, x, blk)
                products += len(want)
                truncated += len(by_pair.by_block[blk]) - len(ids)
        assert products > 0, name
        assert by_row.truncated_pairs == truncated > 0, name
        assert by_row._table == {}, name
        return by_row

    def test_shipped_documents(self):
        names = []
        for name, H in _shipped_H():
            self._check(name, H)
            names.append(name)
        assert len(names) == 7

    def test_vectors_on_several_faces(self):
        ext = self._check("P^3", _H(P3, 6))
        assert any(len({f for f, _ in b.vector}) > 1 for b in ext.basis)


class TestHomogeneousProducts:
    NAMES = ("p1_trivial", "p1_halfint", "canonical_l1", "synthetic_symmetric_rank1")

    def test_product_entries_have_the_summed_degree(self):
        for name in self.NAMES:
            doc = cli.load_document(str(DATA / f"{name}.json"))
            H = _document_H(name, doc["cutoff"])
            ext = ext_algebra(H)
            entries = 0
            for x, bx in enumerate(ext.basis):
                for blk in _composable(ext, x):
                    for y in ext.partners(blk, bx.degree):
                        by = ext.basis[y]
                        (a, b), (_, c) = bx.block, by.block
                        sheaf = H.blocks[(a, c)].sheaf
                        for f, lab in H.multiply_sections(a, b, c, bx.vector, by.vector):
                            assert sheaf.stalks[f].degree_of[lab] == bx.degree + by.degree, (name, x, y)
                            entries += 1
            assert entries > 0, name


class TestProductContract:
    def test_multiply_past_the_cutoff_raises(self):
        H, ext = build_ext(P1)
        x = ext.by_block[(0, 0)][-1]
        y = next(y for y in ext.by_block[(0, 0)]
                 if ext.basis[x].degree + ext.basis[y].degree > ext.cutoff)
        table, truncated = dict(ext._table), ext.truncated_pairs
        with pytest.raises(ValueError):
            ext.multiply(x, y)
        assert ext._table == table and ext.truncated_pairs == truncated

    def test_express_rejects_a_section_of_another_degree(self):
        H, ext = build_ext(P1)
        x = next(i for i in ext.by_block[(0, 0)] if ext.basis[i].degree == 2)
        assert ext.express((0, 0), 2, ext.basis[x].vector) == {x: 1}
        assert ext.express((0, 0), 4, ext.basis[x].vector) is None

    def test_express_rejects_a_sum_of_two_degrees(self):
        H, ext = build_ext(P1)
        x = next(i for i in ext.by_block[(0, 0)] if ext.basis[i].degree == 0)
        y = next(i for i in ext.by_block[(0, 0)] if ext.basis[i].degree == 2)
        vec = dict(ext.basis[x].vector)
        vec.update(ext.basis[y].vector)
        for degree in (0, 2):
            assert ext.express((0, 0), degree, vec) is None


P3 = Fan(rank=3, overlattice_gens=(),
         rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
         max_cones=tuple(itertools.combinations(range(4), 3)))
F1 = Fan(rank=2, overlattice_gens=(), rays=((1, 0), (0, 1), (-1, 1), (0, -1)),
         max_cones=((0, 1), (1, 2), (2, 3), (3, 0)))
P1X3 = Fan(rank=3, overlattice_gens=(),
           rays=tuple(tuple(s if k == i else 0 for k in range(3)) for i in range(3) for s in (1, -1)),
           max_cones=tuple(tuple(2 * i + s for i, s in enumerate(signs))
                           for signs in itertools.product((0, 1), repeat=3)))


def _shipped_H():
    for path in sorted(DATA.glob("*.json")):
        doc = cli.load_document(str(path))
        yield path.stem, _document_H(path.stem, doc["cutoff"])


def _H(fan, cutoff):
    datum, _ = toric_datum(fan)
    return build_H(datum, build_catalog(datum.isotropy, datum.V, "all"), cutoff)


def _document_H(name, cutoff=8):
    datum, _, catalog, _ = cli._datum_catalog(cli.load_document(str(DATA / f"{name}.json")))
    return build_H(datum, catalog, cutoff)


class TestRankDimensions:
    """Section dimensions are read off ranks; they must count the kernel basis."""

    def _check(self, name, H):
        for b, blk in sorted(H.blocks.items()):
            sec = global_sections(H.space, H.space.points, blk.sheaf, H.cutoff)
            by_rank = sec.hilbert(H.cutoff)
            assert sec._vectors is None
            by_basis = [len(sec.vectors.get(d, ())) for d in range(H.cutoff + 1)]
            assert by_rank == by_basis, (name, b)

    def test_shipped_documents(self):
        names = []
        for name, H in _shipped_H():
            self._check(name, H)
            names.append(name)
        assert len(names) == 7

    def test_generated_fans(self):
        for name, fan in (("P^3", P3), ("F_1", F1), ("(P^1)^3", P1X3)):
            self._check(name, _H(fan, 8))


class TestEchelonBasis:
    """express reads coordinates at the pivots of the ext basis, so every
    (block, degree) slice of it must be reduced echelon."""

    def _check(self, name, ext):
        for block, ids in sorted(ext.by_block.items()):
            slices = {}
            for x in ids:
                slices.setdefault(ext.basis[x].degree, []).append(x)
            for d, xs in slices.items():
                for x in xs:
                    v = ext.basis[x].vector
                    pivot = min(v)
                    assert v[pivot] == 1, (name, x)
                    assert [y for y in xs if pivot in ext.basis[y].vector] == [x], (name, x)
                    assert ext.express(block, d, v) == {x: 1}, (name, x)

    def test_shipped_documents(self):
        names = []
        for name, H in _shipped_H():
            self._check(name, ext_algebra(H))
            names.append(name)
        assert len(names) == 7

    def test_p3(self):
        ext = ext_algebra(_H(P3, 6))
        assert len(ext.basis) > 1000
        self._check("P^3", ext)

    def test_dual_path_needs_the_canonical_basis(self):
        # 2 b_0 spans what b_0 spans, but the section basis is no longer the
        # canonical one that the Čech H^0 basis is compared with
        H, ext = build_ext(P1, cutoff=8)
        sec = ext.sections[(0, 0)]
        d, (b0, *rest) = min(sec.vectors.items())
        scaled = SectionSpace(sec.rows, sec.columns)
        scaled._vectors = {**sec.vectors, d: ({k: 2 * a for k, a in b0.items()}, *rest)}
        ext.sections[(0, 0)] = scaled
        failed = [e.name for e in concentration_check(H, ext).entries if not e.ok]
        assert "dual-path[0:0]" in failed
        assert all(name.startswith("dual-path[") for name in failed)

    def test_cech_vector_off_the_section_span_fails_the_products(self):
        # a section basis without its degree-2 vector of block 1:0, which no product of
        # basis elements reaches: the Čech H^0 vector it leaves out has no section
        # coordinates (express gives None), and the product check used to raise
        # AttributeError on it instead of failing
        H = _document_H("p1_trivial", 6)
        sec = H.sections(H.blocks[(1, 0)])
        sec.vectors[2] = sec.vectors[2][1:]
        failed = [e.name for e in concentration_check(H, ext_algebra(H)).entries if not e.ok]
        assert failed == ["dual-path[1:0]", "dual-path-products"]


def _unit_label_sheaf(scale):
    """Two points a < b, each stalk the unit label in degree 0; restriction multiplies by scale."""
    sp = FiniteSpace(["a", "b"], [("a", "b")])
    u = ((), ())
    stalks = {p: GradedSpace(basis={0: (u,)}) for p in sp.points}
    return sp, GradedSheaf(sp, stalks, {("a", "b"): {u: ((u, scale),)}})


class TestDiagonalUnitCheck:
    def test_unit_section_passes(self):
        sp, sh = _unit_label_sheaf(1)
        vec = diagonal_unit(sh, global_sections(sp, sp.points, sh, 0))
        assert vec == {("a", ((), ())): 1, ("b", ((), ())): 1}

    def test_unit_off_the_sections_fails(self):
        sp, sh = _unit_label_sheaf(2)
        sec = global_sections(sp, sp.points, sh, 0)
        assert sec.dims == {0: 1}
        with pytest.raises(DatumError, match="diagonal unit is not a global section"):
            diagonal_unit(sh, sec)


class TestReportsComputeOnce:
    """vanishing_report and concentration_check build one Čech complex per
    (sheaf, open), and the Mayer-Vietoris step one open per region."""

    NAMES = ("p1xp1", "canonical_l2")

    def _count_cech(self, monkeypatch):
        seen = []
        real = extalg.cech_cohomology

        def counting(space, U, sheaf, cutoff):
            seen.append((sheaf, tuple(sorted(U))))
            return real(space, U, sheaf, cutoff)

        monkeypatch.setattr(extalg, "cech_cohomology", counting)
        return seen

    def test_vanishing_one_complex_per_sheaf_and_open(self, monkeypatch):
        for name in self.NAMES:
            H = _document_H(name)
            seen = self._count_cech(monkeypatch)
            rep = vanishing_report(H)
            assert rep.ok, name
            assert len(seen) == len(set(seen)), name
            # every (open, nonzero block) of the report is covered, by fewer complexes than blocks
            wanted = {(blk.sheaf, g_stable_open(H.datum, H.space, fam))
                      for fam in downward_closed_families(H.datum)
                      for blk in H.blocks.values() if not blk.zero}
            assert wanted <= set(seen), name
            visits = sum(e.name.startswith("vanishing[") for e in rep.entries)
            assert len(wanted) < visits, name

    def test_concentration_one_complex_per_sheaf(self, monkeypatch):
        for name in self.NAMES:
            H = _document_H(name)
            ext = ext_algebra(H)
            seen = self._count_cech(monkeypatch)
            assert concentration_check(H, ext).ok, name
            assert all(U == H.space.points for _, U in seen)
            assert sorted(id(s) for s, _ in seen) == sorted({id(b.sheaf) for b in H.blocks.values()})
            assert len(seen) < len(H.blocks), name

    def test_mv_step_one_open_per_region(self, monkeypatch):
        real_open, real_mv = extalg.g_stable_open, extalg._mv_surjectivity
        stack, per_call = [], []

        def counting_open(datum, space, region):
            if stack:
                stack[-1].append(tuple(region))
            return real_open(datum, space, region)

        def recording_mv(*args):
            stack.append([])
            try:
                return real_mv(*args)
            finally:
                per_call.append(stack.pop())

        monkeypatch.setattr(extalg, "g_stable_open", counting_open)
        monkeypatch.setattr(extalg, "_mv_surjectivity", recording_mv)
        for name in self.NAMES:
            per_call.clear()
            assert vanishing_report(_document_H(name)).ok, name
            assert per_call and all(len(regions) == len(set(regions)) for regions in per_call), name


class TestBatteryOncePerSheaf:
    """The battery runs the brute-force section oracle and the functoriality
    check once per distinct block sheaf, and still reports every block."""

    def test_brute_sections(self, monkeypatch):
        H = _document_H("p1xp1")
        ext = ext_algebra(H)
        seen = []
        real = checks.brute_sections

        def counting(space, U, sheaf, cutoff):
            seen.append(sheaf)
            return real(space, U, sheaf, cutoff)

        monkeypatch.setattr(checks, "brute_sections", counting)
        entries = {e.name: e for e in checks.oracle_checks(H, ext, seed=2026, fan=None)}
        assert entries["oracle.brute-sections"].ok
        assert sorted(map(id, seen)) == sorted({id(b.sheaf) for b in H.blocks.values()})
        assert len(seen) < len(H.blocks)

    def test_functoriality(self, monkeypatch):
        H = _document_H("p1xp1")
        seen = []
        real = GradedSheaf.validate_functoriality

        def counting(sheaf):
            seen.append(sheaf)
            return real(sheaf)

        monkeypatch.setattr(GradedSheaf, "validate_functoriality", counting)
        entries = {e.name: e for e in checks.sheaf_structure_checks(H, random.Random(2026))}
        assert entries["sheaf.restriction-functoriality"].ok
        assert sorted(map(id, seen)) == sorted({id(b.sheaf) for b in H.blocks.values()})

    def test_a_failing_sheaf_is_reported_for_every_block(self, monkeypatch):
        H = _document_H("p1xp1")
        shared = next(b.sheaf for b in H.blocks.values()
                      if sum(c.sheaf is b.sheaf for c in H.blocks.values()) > 1)
        owners = [list(key) for key, b in sorted(H.blocks.items()) if b.sheaf is shared]
        real = GradedSheaf.validate_functoriality
        monkeypatch.setattr(GradedSheaf, "validate_functoriality",
                            lambda sheaf: [("p", "q", "r", "s")] if sheaf is shared else real(sheaf))
        entries = {e.name: e for e in checks.sheaf_structure_checks(H, random.Random(2026))}
        entry = entries["sheaf.restriction-functoriality"]
        assert not entry.ok
        assert [c["block"] for c in entry.details["counterexamples"]] == owners[:3]
