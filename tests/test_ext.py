import collections
import hashlib
import importlib.util
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from extsheaf import checks, cli, extalg
from extsheaf.algebra import mono
from extsheaf.extalg import (
    concentration_check,
    diagonal_unit,
    ext_algebra,
    ext_module,
    vanishing_report,
)
from extsheaf.faces import FacePoint, closed_face, downward_closed_families, family_name, g_stable_open
from extsheaf.fans import Fan, toric_datum
from extsheaf.hsheaf import HSheaf, build_H
from extsheaf.isotropy import DatumError, build_catalog, set_name
from extsheaf.posets import FiniteSpace, GradedSheaf, GradedSpace, SectionSpace, cech_cohomology, global_sections

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

    def test_index_outside_the_basis_raises(self):
        # -n once read basis[0], and n escaped as an IndexError; neither is memoized
        ext = ext_algebra(_document_H("p1_trivial", 6))
        n, mod = len(ext.basis), ext_module(ext, 0)
        x = mod.elements[0]
        assert n == 29
        for bad in (-n, -1, n):
            for read in (lambda: ext.multiply(bad, x), lambda: ext.multiply(x, bad),
                         lambda: mod.action(bad, x)):
                with pytest.raises(ValueError, match="out of range"):
                    read()
        assert ext._table == {}
        assert mod.action(x, x) == ext.multiply(x, x)


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

    def _ext(self, name, monkeypatch):
        """ext on a shipped document: (the ExtAlgebra it built, exit code, stdout)."""
        built = []

        def capture(H):
            built.append(ext_algebra(H))
            return built[-1]

        monkeypatch.setattr(cli, "ext_algebra", capture)
        buf = io.StringIO()
        code = cli.run(["--input", str(DATA / f"{name}.json"), "--command", "ext"], out=buf)
        assert len(built) == 1
        return built[0], code, buf.getvalue()

    def _run_ext(self, name, monkeypatch):
        ext, code, out = self._ext(name, monkeypatch)
        assert code == 0
        return ext, json.loads(out)

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
                            count += 1      # truncated pairs are the degree-truncated pairs
                        else:
                            assert isinstance(ext.H.multiply_sections(bx.block[0], bx.block[1], by.block[1],
                                                                      bx.vector, by.vector), dict)
            assert count > 0
            assert payload["truncated_pairs"] == count

    def test_table_holds_no_degree_truncated_pair(self, monkeypatch):
        # ext keeps no memo, and a row settles each product it makes against the
        # pivot table of the product's block and degree (one lookup, or express);
        # so the degrees those reads ask for cover every pair the table multiplies
        pivots = extalg.ExtAlgebra._pivots
        for name in self.NAMES:
            read = set()

            def record(ext, block, degree):
                read.add((block, degree))
                return pivots(ext, block, degree)

            monkeypatch.setattr(extalg.ExtAlgebra, "_pivots", record)
            ext, code, out = self._ext(name, monkeypatch)
            # before the exit code: a row that multiplies a pair past the cutoff
            # reads a pivot table of that degree, finds no section there and
            # makes ext exit 2, so this is the assertion that names the fault
            assert read and max(degree for _, degree in read) <= ext.cutoff, name
            assert code == 0, name
            basis = {b.name: b for b in ext.basis}
            made = {(basis[z].block, basis[x].degree + basis[y].degree)
                    for blk in json.loads(out)["blocks"] for x, y, z, _ in blk["table"]}
            assert made and made <= read, name

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

    def test_generated_f1_and_l3(self):
        # l=3 at cutoff 8: 1,208 of its 2,240 basis vectors have several entries,
        # so its rows take both the pivot lookup and the sweep over x's faces
        self._check("F_1", _H(F1, 8))
        ext = self._check("l=3", _l3_H())
        assert (sum(len(b.vector) > 1 for b in ext.basis), len(ext.basis)) == (1208, 2240)

    def test_one_entry_rows_make_no_product_vector(self, monkeypatch):
        # a one-entry x settles each product at a pivot: no product vector, no express
        ext = ext_algebra(_document_H("p1xp1"))
        calls = []
        monkeypatch.setattr(HSheaf, "multiply_sections", lambda *args: calls.append("multiply_sections"))
        monkeypatch.setattr(extalg.ExtAlgebra, "express", lambda *args: calls.append("express"))
        products = 0
        for x, bx in enumerate(ext.basis):
            if len(bx.vector) == 1:
                for blk in _composable(ext, x):
                    for y, product in ext.row(x, blk):
                        assert len(product) == 1, (x, y)
                        products += 1
        assert products > 0 and calls == []

    def test_partner_with_two_entries_on_the_face(self):
        # y becomes y + y2, basis vectors of one degree with distinct labels at the face
        # f of a one-entry x: still a section, so row and multiply agree on it
        H = _document_H("p1xp1", 6)
        by_row, by_pair = ext_algebra(H), ext_algebra(H)
        x, blk, y, y2 = next(
            (x, blk, y, y2) for x, bx in enumerate(by_row.basis) if len(bx.vector) == 1
            for (f, _), in [bx.vector] if bx.block[0] != bx.block[1]
            for blk in _composable(by_row, x) if H.product_twist(*bx.block, blk[1], f) is not None
            for y, y2 in itertools.combinations(by_row.partners(blk, bx.degree), 2)
            if by_row.basis[y].degree == by_row.basis[y2].degree
            and len({k for k in {**by_row.basis[y].vector, **by_row.basis[y2].vector} if k[0] == f}) == 2)
        for ext in (by_row, by_pair):
            vy, vy2 = ext.basis[y].vector, ext.basis[y2].vector
            ext.basis[y].vector = {k: vy.get(k, 0) + vy2.get(k, 0) for k in {**vy, **vy2}}
        for x2 in by_row.by_block[by_row.basis[x].block]:
            got = list(by_row.row(x2, blk))
            assert got == [(z, m) for z in by_pair.partners(blk, by_pair.basis[x2].degree)
                           if (m := by_pair.multiply(x2, z))], x2
            if x2 == x:
                assert len(dict(got)[y]) == 2
        (f, _), = by_row.basis[x].vector
        assert (blk, f) in by_row._crowded


def _brute_product(H, a, b, c, xvec, yvec):
    """Facewise product over every pair of entries, with the label product
    transcribed from its definition (no codes), then packed."""
    out = {}
    for (f, (pmx, kmx)), cx in xvec.items():
        for (g, (pmy, kmy)), cy in yvec.items():
            tw = H.product_twist(a, b, c, f)
            if f == g and tw is not None:
                key = (f, (mono(*pmx, *pmy, *tw), tuple(p + q for p, q in zip(kmx, kmy))))
                out[key] = out.get(key, 0) + cx * cy
    return H._packed({k: v for k, v in out.items() if v})


class TestMultiplySections:
    """multiply_sections pairs the entries of x and y that share a face."""

    def test_p3_vectors_on_several_faces(self):
        H = _H(P3, 4)
        ext = ext_algebra(H)
        pairs = 0
        for x, bx in enumerate(ext.basis):
            if len({f for f, _ in bx.vector}) == 1:
                continue
            for blk in _composable(ext, x):
                for y in ext.partners(blk, bx.degree):
                    by = ext.basis[y]
                    (a, b), (_, c) = bx.block, by.block
                    want = _brute_product(H, a, b, c, bx.vector, by.vector)
                    assert H.multiply_sections(a, b, c, bx.vector, by.vector) == want, (x, y)
                    pairs += bool(want)
        assert pairs > 0

    def test_one_entry_vectors(self, monkeypatch):
        # one entry times one entry: compose at a shared face, {} at another face
        # or where the twist is dead (which no shipped document has with both stalks nonzero)
        H = _document_H("p1xp1", 2)
        n = len(H.catalog)
        seen = set()
        for a, b, c in itertools.product(range(n), repeat=3):
            xs = [{(f, lab): 2} for f in sorted(H.blocks[(a, b)].support.members())
                  for labs in H.blocks[(a, b)].stalk(f).basis.values() for lab in labs]
            ys = [{(f, lab): Fraction(-1, 3)} for f in sorted(H.blocks[(b, c)].support.members())
                  for labs in H.blocks[(b, c)].stalk(f).basis.values() for lab in labs]
            for xvec, yvec in itertools.product(xs, ys):
                got = H.multiply_sections(a, b, c, xvec, yvec)
                assert got == _brute_product(H, a, b, c, xvec, yvec), (a, b, c, xvec, yvec)
                ((f, _),), ((g, _),) = xvec, yvec
                seen.add("product" if got else "other face" if f != g else "dead twist")
                if got:
                    shared = (a, b, c, xvec, yvec)
        assert seen == {"product", "other face"}
        # a dead twist, read afresh: the twist codes are cached from the products above
        monkeypatch.setattr(H, "product_twist", lambda *args: None)
        monkeypatch.setattr(H, "_twist_codes", {})
        assert H.multiply_sections(*shared) == {}

    def test_cancelling_terms_are_dropped(self):
        # (p + q) * (q - p) at one face: the two p*q terms cancel, p*p and q*q stay;
        # the entries at a second face have no partner there
        H = _H(P3, 4)
        f = next(f for f in sorted(H.blocks[(0, 0)].support.members())
                 if len(H.blocks[(0, 0)].stalk(f).basis.get(2, ())) >= 2)
        p, q = H.blocks[(0, 0)].stalk(f).basis[2][:2]
        g, u = next((g, labs[0]) for g in sorted(H.blocks[(0, 0)].support.members()) if g != f
                    for labs in [H.blocks[(0, 0)].stalk(g).basis.get(0, ())] if labs)
        xvec = {(f, p): 1, (f, q): 1, (g, u): 1}
        yvec = {(f, q): 1, (f, p): -1}
        out = H.multiply_sections(0, 0, 0, xvec, yvec)
        assert out == _brute_product(H, 0, 0, 0, xvec, yvec)
        p, q, base = H.code(p), H.code(q), H._face_base[f]
        assert base + H.compose(0, 0, 0, f, p, q) not in out
        assert out == {base + H.compose(0, 0, 0, f, q, q): 1, base + H.compose(0, 0, 0, f, p, p): -1}


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
                        columns = {H._face_base[f] + H.code(lab): (f, lab) for f, st in sheaf.stalks.items()
                                   for labs in st.basis.values() for lab in labs}
                        for key in H.multiply_sections(a, b, c, bx.vector, by.vector):
                            f, lab = columns[key]
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

    def test_express_rejects_an_extra_non_pivot_entry(self):
        # the coefficient read at the pivot is right; only the residual rejects the vector
        ext = ext_algebra(_H(P3, 2))

        def extra_key(block, x):
            """A non-pivot entry of another basis vector of x's degree part, not an entry of x."""
            d = ext.basis[x].degree
            part = [ext.basis[i].vector for i in ext.by_block[block] if ext.basis[i].degree == d]
            return min({k for w in part for k in w} - {min(w) for w in part} - set(ext.basis[x].vector),
                       default=None)

        block, x, k = next((block, x, k) for block, ids in sorted(ext.by_block.items()) for x in ids
                           if (k := extra_key(block, x)) is not None)
        bx = ext.basis[x]
        assert ext.express(block, bx.degree, bx.vector) == {x: 1}
        assert ext.express(block, bx.degree, {**bx.vector, k: 1}) is None

    def test_express_one_entry_needs_a_one_entry_basis_vector(self):
        # a one-entry vector at the pivot of a basis vector b is in the span only
        # when b has no other entry; its coefficient is the entry
        longer = single = 0
        for H in (_document_H("p1xp1", 8), _H(P3, 4)):
            ext = ext_algebra(H)
            for b in ext.basis:
                got = ext.express(b.block, b.degree, {min(b.vector): Fraction(2, 3)})
                if len(b.vector) > 1:
                    assert got is None, b.name
                    longer += 1
                else:
                    assert got == {b.index: Fraction(2, 3)}, b.name
                    single += 1
        assert longer > 0 and single > 0

    def test_express_rejects_a_sum_of_two_degrees(self):
        H, ext = build_ext(P1)
        x = next(i for i in ext.by_block[(0, 0)] if ext.basis[i].degree == 0)
        y = next(i for i in ext.by_block[(0, 0)] if ext.basis[i].degree == 2)
        vec = dict(ext.basis[x].vector)
        vec.update(ext.basis[y].vector)
        for degree in (0, 2):
            assert ext.express((0, 0), degree, vec) is None


class TestPackedColumns:
    """Products add packed label codes (HSheaf.code); a column is face base + code."""

    def test_packed_sum_is_the_code_of_the_label_product(self):
        # every face-local composable (x label, y label, twist), of any degree, on the
        # 7 shipped documents at their cutoffs and on four of them at the cutoffs 0 and 2,
        # whose slots are the narrowest (w = 2 and w = 3)
        triples = 0
        small = [(name, cutoff) for name in ("p1_trivial", "p1xp1", "canonical_l2", "synthetic_symmetric_rank1")
                 for cutoff in (0, 2)]
        for name, H in [*_shipped_H(), *((f"{name} at {c}", _document_H(name, c)) for name, c in small)]:
            n = len(H.catalog)
            for f in H.space.points:
                seen = set()
                for a, b, c in itertools.product(range(n), repeat=3):
                    tw, sx, sy = H.product_twist(a, b, c, f), H.blocks[(a, b)].stalk(f), H.blocks[(b, c)].stalk(f)
                    if tw is None or (id(sx), id(sy), tw) in seen:
                        continue
                    seen.add((id(sx), id(sy), tw))
                    for xl in (lab for labs in sx.basis.values() for lab in labs):
                        for yl in (lab for labs in sy.basis.values() for lab in labs):
                            # the label product transcribed from its definition
                            lab = mono(*xl[0], *yl[0], *tw), tuple(p + q for p, q in zip(xl[1], yl[1]))
                            got = H.compose(a, b, c, f, H.code(xl), H.code(yl))
                            assert H._packed({(f, lab): 1}) == {H._face_base[f] + got: 1}, (name, f, xl, yl)
                            triples += 1
        assert triples > 100000

    def test_express_rejects_a_label_past_the_slots(self):
        # (u, e * 2^w) would pack onto (v, e) of the next slot: a one-entry basis vector
        H = _document_H("p1xp1")
        ext = ext_algebra(H)
        slot = {s: v for v, s in H._slots.items()}
        w = (2 * ext.cutoff + 2).bit_length()
        b, f, v, e, km = next((b, f, v, e, km) for b in ext.basis if len(b.vector) == 1
                              for (f, (pm, km)), in [b.vector] if len(pm) == 1
                              for (v, e), in [pm] if H._slots[v] >= w)
        u = slot[H._slots[v] - w]
        assert b.vector == {(f, (((v, e),), km)): 1}
        for lab in ((((u, e << w),), km), (((u, H._bound),), km), ((("zz", 1),), km),
                    (((v, e),), km + (0,) * len(H._slots))):
            for vec in ({(f, lab): 1}, {(f, lab): 1, **b.vector}):
                assert ext.express(b.block, b.degree, vec) is None, lab
        assert ext.express(b.block, b.degree, {("no|face", (((v, e),), km)): 1}) is None

    def test_unit_twist_is_computed_once(self, monkeypatch):
        # the unit twist packs to 0, which must still count as cached
        H = _document_H("p1xp1")
        ext, calls, twist = ext_algebra(H), collections.Counter(), H.product_twist
        monkeypatch.setattr(H, "product_twist", lambda *key: calls.update([key]) or twist(*key))
        for x in range(len(ext.basis)):
            for blk in _composable(ext, x):
                list(ext.row(x, blk))
        assert calls and max(calls.values()) == 1
        assert any(H._twist_codes[key] == 0 for key in calls)


class TestProductOffTheSpan:
    """A product that is not in the section span stops the table with DatumError:
    block 0:0 of p1_trivial at cutoff 6 loses its last top-degree basis vector,
    on which products land."""

    MESSAGE = "product of sections is not a section"

    @staticmethod
    def _dropped(H):
        sec = H.sections(H.blocks[(0, 0)])
        top = max(sec.vectors)
        sec.vectors[top] = sec.vectors[top][:-1]
        return H

    def test_row_raises(self):
        ext = ext_algebra(self._dropped(_document_H("p1_trivial", 6)))
        with pytest.raises(DatumError) as exc:
            for x in ext.by_block[(0, 0)]:
                list(ext.row(x, (0, 0)))
        assert str(exc.value) == self.MESSAGE

    def test_one_term_product_on_a_multi_entry_pivot(self):
        # a one-entry basis vector z gains the pivot of another as a second entry:
        # a one-term product at z's pivot is then outside the span
        ext = ext_algebra(_document_H("p1_trivial", 6))
        x, blk, y, z = next((x, blk, y, z) for x, bx in enumerate(ext.basis) if len(bx.vector) == 1
                            for blk in _composable(ext, x) for y, product in ext.row(x, blk)
                            for z in product if ext.basis[z].degree > 0
                            and ext.basis[z].block not in (bx.block, blk))
        bz = ext.basis[z]
        w = next(w for w in ext.by_block[bz.block] if ext.basis[w].degree == bz.degree
                 and len(ext.basis[w].vector) == 1 and min(ext.basis[w].vector) > min(bz.vector))
        for read in (lambda e: list(e.row(x, blk)), lambda e: e.multiply(x, y)):
            e = ext_algebra(_document_H("p1_trivial", 6))
            e.basis[z].vector = {**bz.vector, **ext.basis[w].vector}
            with pytest.raises(DatumError) as exc:
                read(e)
            assert str(exc.value) == self.MESSAGE

    def test_product_of_another_degree(self, monkeypatch):
        # the product shifted by 2 in degree: the label is the pivot of a one-entry
        # basis vector two degrees up, which a lookup keyed on the block alone would take.
        # One fault, a twist code one exponent up in the slot of the face's first
        # variable, reaches row and multiply, since both add H's codes
        H, ext = build_ext(P1)
        x = next(i for i in ext.by_block[(0, 0)] if ext.basis[i].degree == 2 and len(ext.basis[i].vector) == 1)
        y = ext.by_block[(0, 0)][0]
        (f, (pmx, kmx)), = ext.basis[x].vector
        (pmy, kmy) = next(l for g, l in ext.basis[y].vector if g == f)
        pm = mono(*pmx, *pmy)
        lab = mono(*pm, (pm[0][0], 1)), tuple(p + q for p, q in zip(kmx, kmy))
        assert ext.express((0, 0), 4, {(f, lab): 1}) is not None
        assert lab[0][0][0] == FacePoint.from_key(f).orbit[0]
        twist_code, step = H._twist_code, 1 << H._slots[lab[0][0][0]]
        monkeypatch.setattr(H, "_twist_code", lambda *key: twist_code(*key) + step)
        for read in (lambda: next(ext.row(x, (0, 0))), lambda: ext.multiply(x, y)):
            with pytest.raises(DatumError) as exc:
                read()
            assert str(exc.value) == self.MESSAGE

    def test_ext_exits_2(self, monkeypatch):
        build = cli.build_H
        monkeypatch.setattr(cli, "build_H", lambda *args: self._dropped(build(*args)))
        buf = io.StringIO()
        code = cli.run(["--input", str(DATA / "p1_trivial.json"), "--command", "ext", "--cutoff", "6"],
                       out=buf)
        assert code == 2
        assert json.loads(buf.getvalue()) == {"error": {"kind": "datum-invalid", "message": self.MESSAGE}}


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


def _l3_H():
    """The rank-3 canonical datum at cutoff 8, as perfbench/documents.py generates it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_documents", Path(__file__).resolve().parents[1] / "perfbench" / "documents.py")
    docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docs)
    datum, _, catalog, _ = cli._datum_catalog(json.loads(docs.dump(docs.canonical_symmetric(3, cutoff=8))))
    return build_H(datum, catalog, 8)


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

    def test_missing_idempotent_is_a_datum_error(self):
        # the diagonal unit passes the constraint rows but lies outside a degree-0
        # basis that lost its vector: no idempotent, so no algebra
        H = _document_H("p1_trivial", 6)
        del H.sections(H.blocks[(0, 0)]).vectors[0]
        with pytest.raises(DatumError, match="diagonal unit of block 0:0"):
            ext_algebra(H)

    def test_missing_idempotent_exits_2(self, monkeypatch):
        sections = HSheaf.sections

        def without_unit(H, block):
            sec = sections(H, block)
            if (block.i, block.j) == (0, 0):
                sec.vectors.pop(0, None)
            return sec

        monkeypatch.setattr(HSheaf, "sections", without_unit)
        argv = ["--input", str(DATA / "p1_trivial.json"), "--command", "ext", "--cutoff", "6"]
        out = io.StringIO()
        assert cli.run(argv, out=out) == 2
        assert json.loads(out.getvalue())["error"]["kind"] == "datum-invalid"


class TestReportsComputeOnce:
    """vanishing_report builds one Čech complex per (sheaf, U ∩ Z), Z the
    down-closure of the sheaf's support, concentration_check one per sheaf,
    and vanishing_report runs one Mayer-Vietoris step per nonempty orbit,
    over its punctured star."""

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
        # one complex per distinct (sheaf, U ∩ Z): the (open, nonzero block)
        # visits of the report, and even their distinct (sheaf, open) pairs,
        # outnumber the complexes
        for name in self.NAMES:
            H = _document_H(name)
            seen = self._count_cech(monkeypatch)
            rep = vanishing_report(H)
            assert rep.ok, name
            cut = _cut_by_closure(H)
            cuts = [cut(sheaf, U) for sheaf, U in seen]
            assert len(cuts) == len(set(cuts)), name
            opens = {(blk.sheaf, g_stable_open(H.datum, H.space, fam))
                     for fam in downward_closed_families(H.datum)
                     for blk in H.blocks.values() if not blk.zero}
            assert {cut(sheaf, U) for sheaf, U in opens} <= set(cuts), name
            visits = sum(e.name.startswith("vanishing[") for e in rep.entries)
            assert len(seen) < len(opens) < visits, name

    def test_concentration_one_complex_per_sheaf(self, monkeypatch):
        for name in self.NAMES:
            H = _document_H(name)
            ext = ext_algebra(H)
            seen = self._count_cech(monkeypatch)
            assert concentration_check(H, ext).ok, name
            assert all(U == H.space.points for _, U in seen)
            assert sorted(id(s) for s, _ in seen) == sorted({id(b.sheaf) for b in H.blocks.values()})
            assert len(seen) < len(H.blocks), name

    def test_mv_step_once_per_orbit(self, monkeypatch):
        real_mv, real_cohomology = extalg._mv_surjectivity, extalg._cohomology
        stack, opens = [], {}       # opens: orbit -> the opens its step computes on

        def recording_mv(H, delta, cohomology):
            stack.append(delta)
            opens[delta] = set()
            try:
                return real_mv(H, delta, cohomology)
            finally:
                stack.pop()

        def recording_cohomology(H, U, sheaf, memo):
            if stack:
                opens[stack[-1]].add(U)
            return real_cohomology(H, U, sheaf, memo)

        monkeypatch.setattr(extalg, "_mv_surjectivity", recording_mv)
        monkeypatch.setattr(extalg, "_cohomology", recording_cohomology)
        for name, steps in zip(self.NAMES, (8, 3)):
            opens.clear()
            H = _document_H(name)
            assert vanishing_report(H).ok, name
            orbits = [s for s in H.datum.S if s]
            assert len(orbits) == steps and sorted(opens) == sorted(orbits), name
            # the open of the step before it was made a function of the orbit:
            # the star of the closed face inside the G-stable open of the family
            # without delta and without the orbits meeting the forbidden divisors
            old = {delta: set() for delta in orbits}
            for fam in downward_closed_families(H.datum):
                for delta in fam:
                    if not delta or any(set(delta) < set(other) for other in fam):
                        continue
                    star = set(H.space.minimal_open(closed_face(H.datum, delta).key()))
                    for (i, j), blk in sorted(H.blocks.items()):
                        forbidden = set(H.catalog.dprime(i)) | set(H.catalog.dprime(j))
                        if blk.zero or set(delta) & forbidden:
                            continue
                        region = [s for s in fam if not set(s) & forbidden and s != delta]
                        old[delta].add(tuple(sorted(star & set(g_stable_open(H.datum, H.space, region)))))
            assert old == opens, name
            assert all(len(us) == 1 for us in opens.values()), name
            if name == "canonical_l2":
                assert any(closed_face(H.datum, delta).j for delta in orbits)


def _cut_by_closure(H):
    """(sheaf, open) -> (sheaf, the points of the open in Z), Z the down-closure
    of the points where the sheaf has a label of degree at most the cutoff."""
    closures = {}

    def cut(sheaf, U):
        if sheaf not in closures:
            support = [p for p in H.space.points if any(d <= H.cutoff for d in sheaf.stalks[p].dims)]
            closures[sheaf] = {q for q in H.space.points if any(H.space.leq(q, p) for p in support)}
        return sheaf, frozenset(closures[sheaf].intersection(U))

    return cut


class TestVanishingWalk:
    """The memo key (sheaf, U ∩ Z) gives every (open, block) the cohomology of
    its own open, and check-all's vanishing-report entry, made without an entry
    list, is the one the report's entries give."""

    def test_dims_match_a_fresh_complex_on_the_open(self):
        for name, H in (("p1xp1", _document_H("p1xp1", 6)), ("canonical_l2", _document_H("canonical_l2", 6)),
                        ("P^3", _H(P3, 6))):
            opens = {family_name(fam): g_stable_open(H.datum, H.space, fam)
                     for fam in downward_closed_families(H.datum)}
            fresh, visits = {}, 0     # (sheaf, open) -> dims of H^0, H^1, ... from a complex on that open
            for ok, kind, famname, key, dims in extalg.vanishing_walk(H):
                if kind != "vanishing":
                    continue
                sheaf, U = H.blocks[key].sheaf, opens[famname]
                if (sheaf, U) not in fresh:
                    fresh[(sheaf, U)] = [h.dims for h in cech_cohomology(H.space, U, sheaf, H.cutoff)]
                assert dims == fresh[(sheaf, U)], (name, famname, key)
                assert ok == (len(dims) == 1), (name, famname, key)
                visits += 1
            assert visits == len(opens) * sum(not b.zero for b in H.blocks.values()), name

    @staticmethod
    def _entry_of_report(H):
        # check-all's entry as it was read off the full entry list
        rep = vanishing_report(H)
        return rep.ok, {"failures": [{"name": e.name, "details": e.details} for e in rep.failures()[:3]],
                        "opens_checked": len({e.details.get("open") for e in rep.entries if "open" in e.details})}

    def _check(self, H, ok):
        want = self._entry_of_report(H)
        battery = {e.name: e for e in checks.run_battery(H, ext_algebra(H), 2026, None).entries}
        got = battery["vanishing-report"]
        assert (got.ok, got.details) == want
        assert got.ok == ok and len(got.details["failures"]) == (0 if ok else 3)
        assert got.details["opens_checked"] == len(downward_closed_families(H.datum))

    def test_check_all_entry_matches_the_report(self):
        self._check(_document_H("p1xp1", 6), ok=True)

    def test_check_all_entry_under_a_failing_step(self, monkeypatch):
        # the short_rank mutant of test_a_failing_step_fails_in_every_family
        H = _document_H("p1xp1")
        delta = max(H.datum.S, key=len)
        real_mv, real_rank = extalg._mv_surjectivity, extalg.rank
        stack = []

        def tracking_mv(H, orbit, cohomology):
            stack.append(orbit)
            try:
                return real_mv(H, orbit, cohomology)
            finally:
                stack.pop()

        monkeypatch.setattr(extalg, "_mv_surjectivity", tracking_mv)
        monkeypatch.setattr(extalg, "rank", lambda rows: real_rank(rows) - (stack[-1] == delta))
        self._check(H, ok=False)

    def test_check_all_entry_under_a_sheaf_with_higher_cohomology(self, monkeypatch):
        # one sheaf gets a nonzero H^1 on every open where it has a label
        H = _document_H("p1xp1", 6)
        sheaf = next(b.sheaf for _, b in sorted(H.blocks.items()) if not b.zero)
        real = extalg.cech_cohomology

        def mutant(space, U, sh, cutoff):
            hs = real(space, U, sh, cutoff)
            if sh is not sheaf or not any(sh.stalks[p].dims for p in U):
                return hs
            return [hs[0], GradedSpace(dims={2: 1})] + hs[2:]

        monkeypatch.setattr(extalg, "cech_cohomology", mutant)
        self._check(H, ok=False)
        names = [f["name"] for f in self._entry_of_report(H)[1]["failures"]]
        assert any(n.startswith("vanishing[") for n in names)


class TestMayerVietorisSteps:
    """The entries of vanishing_report are pinned, a failing step fails in
    every family that peels its orbit, and every step passes on (P^1)^3."""

    # sha256 of json.dumps([[name, ok, details] for each entry]) of
    # vanishing_report at the document's cutoff
    VANISHING = {
        "canonical_l1": "c0489527eeb32a6df35f4c8590be8d3542a775483b78a8298a0f3ea0076d2e18",
        "canonical_l2": "991adc51c9b3e728c942704b6876c08a41f2418fda0ef95b8db9ece88c6d3529",
        "p1_halfint": "dc73fe16d8efe320b3c00b929540aac47a13b03c37ac269e84e18fa4ffa205e7",
        "p1_trivial": "90fe8d17c38d6f77035f47255a4bf7d06af7b01db61af5388532734841182999",
        "p1xp1": "1f17e9d1c06884b71403f875478b26ed88bf684407f7909fcb8e873cc5a1c7f6",
        "p2": "a63dfb17755b0f324af0e59336cbe02e9884db71a4b41ec6ed455fa2c88c0789",
        "synthetic_symmetric_rank1": "d8df0ac30f21f151bf78097a24f6f6228db7777536411d2d58c5179ddad387fe",
    }

    def test_vanishing_entries_pinned(self):
        seen = {}
        for name, H in _shipped_H():
            rep = vanishing_report(H)
            blob = json.dumps([[e.name, e.ok, e.details] for e in rep.entries])
            seen[name] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert seen == self.VANISHING

    def test_a_failing_step_fails_in_every_family(self, monkeypatch):
        H = _document_H("p1xp1")
        delta = max(H.datum.S, key=len)
        real_mv, real_rank = extalg._mv_surjectivity, extalg.rank
        stack = []

        def tracking_mv(H, orbit, cohomology):
            stack.append(orbit)
            try:
                return real_mv(H, orbit, cohomology)
            finally:
                stack.pop()

        def short_rank(rows):
            # the image of the closed face of delta falls one short
            return real_rank(rows) - (stack[-1] == delta)

        monkeypatch.setattr(extalg, "_mv_surjectivity", tracking_mv)
        monkeypatch.setattr(extalg, "rank", short_rank)
        rep = vanishing_report(H)
        suffix = f"][{set_name(delta)}]"
        failed = [e for e in rep.entries if not e.ok]
        assert len(failed) > 1 and all(e.name.startswith("mv-surjectivity[") for e in failed)
        assert all(e.name.endswith(suffix) for e in failed)
        assert len(failed) == sum(e.name.endswith(suffix) for e in rep.entries)
        face = closed_face(H.datum, delta)
        punctured = [q for q in H.space.minimal_open(face.key())
                     if FacePoint.from_key(q).orbit != face.orbit]
        first = failed[0].details
        assert first["closed_face"] == face.key() and first["intersection"] == punctured
        for e in failed:
            assert e.details == first
            assert {"block", "degree", "intersection"} <= set(e.details)
        assert len({id(e.details) for e in rep.entries}) == len(rep.entries)
        argv = ["--input", str(DATA / "p1xp1.json"), "--command", "check-all", "--cutoff", "8"]
        out = io.StringIO()
        assert cli.run(argv, out=out) == 3
        checks_out = {c["name"]: c for c in json.loads(out.getvalue())["checks"]}
        assert checks_out["vanishing-report"]["status"] == "fail"

    def test_every_step_passes_on_p1_cubed(self):
        H = _H(P1X3, 8)
        orbits = [s for s in H.datum.S if s]
        assert len(orbits) == 26
        cohomology = {}
        for delta in orbits:
            ok, detail = extalg._mv_surjectivity(H, delta, cohomology)
            assert ok, detail


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

    def test_twisted_tensor_once_per_input(self, monkeypatch):
        # canonical_l2 asks 64 (J, chars) pairs of 16 distinct (module, ca, cb)
        H = _document_H("canonical_l2")
        ext = ext_algebra(H)
        calls = {"twisted_tensor": [], "twisted_tensor_relations": []}
        for name, seen in calls.items():
            monkeypatch.setattr(checks, name, lambda *args, real=getattr(checks, name), seen=seen:
                                seen.append(args[:3]) or real(*args))
        entries = {e.name: e for e in checks.oracle_checks(H, ext, seed=2026, fan=None)}
        assert entries["oracle.twisted-tensor-dual-implementation"].ok
        for seen in calls.values():
            assert len(seen) == len(set(seen)) == 16

    def test_twisted_tensor_counterexample_per_pair(self, monkeypatch):
        # one distinct input that fails is reported at each of its (J, chars) pairs
        H = _document_H("canonical_l2")
        ext = ext_algebra(H)
        kdata = H.datum.kdata
        chars = sorted({lab.char for lab in H.catalog.labels})
        pairs = {}      # (module, ca, cb) -> its (J, chars) pairs in loop order
        for j in sorted(kdata.entries):
            for ra, rb in itertools.product(chars, repeat=2):
                ca, cb = kdata.char_at(j, ra), kdata.char_at(j, rb)
                pairs.setdefault((kdata.module(j), ca, cb), []).append({"J": list(j), "chars": [list(ca), list(cb)]})
        bad, want = next((key, found) for key, found in pairs.items() if len(found) > 1)
        real = checks.twisted_tensor_relations
        monkeypatch.setattr(checks, "twisted_tensor_relations", lambda *args: GradedSpace(basis={99: ((),)})
                            if args[:3] == bad else real(*args))
        entry = {e.name: e for e in checks.oracle_checks(H, ext, seed=2026, fan=None)}[
            "oracle.twisted-tensor-dual-implementation"]
        assert not entry.ok and entry.details["counterexamples"] == want[:3]

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


class TestStalkChains:
    """sheaf.associativity-sampled-triples tests STALK_TRIPLES composable
    stalk chains under the cutoff, not the few of its draws that compose."""

    @pytest.mark.parametrize("name", ["p1xp1", "p2"])
    def test_every_sampled_chain_is_tested(self, monkeypatch, name):
        H = _document_H(name, cutoff=20)
        chains = []
        real = checks._stalk_chains

        def recording(H, rng):
            for chain in real(H, rng):
                chains.append(chain)
                yield chain

        monkeypatch.setattr(checks, "_stalk_chains", recording)
        assert checks._sampled_triples(H, random.Random(2026))
        assert len(chains) == checks.STALK_TRIPLES == 400
        for f, (a, b, c, d), (x, y, z) in chains:
            degrees = [H.blocks[key].stalk(f).degree_of[lab]
                       for key, lab in (((a, b), x), ((b, c), y), ((c, d), z))]
            assert sum(degrees) <= H.cutoff
