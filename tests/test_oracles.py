import itertools
import math
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

from extsheaf import algebra, oracles
from extsheaf.fans import Fan, toric_datum
from extsheaf.hsheaf import build_H
from extsheaf.isotropy import build_catalog
from extsheaf.oracles import (
    FuzzReport,
    brute_sections,
    identity_fuzz,
    membership_table_check,
    pp_hilbert,
    quadrant_check,
)
from extsheaf.posets import FiniteSpace, GradedSheaf, GradedSpace, global_sections

ONE = Fraction(1)

P1 = Fan(rank=1, overlattice_gens=(), rays=((1,), (-1,)), max_cones=((0,), (1,)))
P2 = Fan(rank=2, overlattice_gens=(),
         rays=((1, 0), (0, 1), (-1, -1)),
         max_cones=((0, 1), (1, 2), (0, 2)))


class TestPpHilbert:
    def test_p1(self):
        assert pp_hilbert(P1, 8) == [1, 0, 2, 0, 2, 0, 2, 0, 2]

    def test_p2_degree2(self):
        hil = pp_hilbert(P2, 6)
        assert hil[0] == 1
        assert hil[2] == 3

    def test_single_chart_plain_polynomials(self):
        from extsheaf.oracles import pp_hilbert_cones

        # one smooth chart: no gluing conditions, plain polynomial ring
        assert pp_hilbert_cones(2, ((1, 0), (0, 1)), ((0, 1),), 6) == [1, 0, 2, 0, 3, 0, 4]

    def test_incomplete_fan_rejected(self):
        from extsheaf.isotropy import DatumError

        with pytest.raises(DatumError):
            Fan(rank=2, overlattice_gens=(), rays=((1, 0), (0, 1)), max_cones=((0, 1),))


class TestBruteSections:
    def random_monomial_sheaf(self, rng):
        # random subset-poset with variable-killing restrictions: functorial
        ground = ["a", "b", "c"]
        pts = sorted({tuple(sorted(rng.sample(ground, rng.randint(0, 3))))
                      for _ in range(rng.randint(2, 5))} | {()})
        keys = {p: "+".join(p) or "-" for p in pts}
        leq = [(keys[p], keys[q]) for p in pts for q in pts if set(q) < set(p)]
        space = FiniteSpace(keys.values(), leq)
        cutoff = 6

        def poly_basis(vs):
            out = {}
            for k in range(cutoff // 2 + 1):
                monos = []
                for combo in itertools.combinations_with_replacement(vs, k):
                    acc = {}
                    for v in combo:
                        acc[v] = acc.get(v, 0) + 1
                    monos.append(tuple(sorted(acc.items())))
                if monos:
                    out[2 * k] = tuple(sorted(set(monos)))
            return out

        stalks = {keys[p]: GradedSpace(basis=poly_basis(p)) for p in pts}
        rest = {}
        for p in pts:
            for q in pts:
                if set(q) < set(p):
                    m = {}
                    for labs in stalks[keys[p]].basis.values():
                        for pm in labs:
                            if {v for v, _ in pm} <= set(q):
                                m[pm] = ((pm, ONE),)
                            else:
                                m[pm] = ()
                    rest[(keys[p], keys[q])] = m
        return space, GradedSheaf(space, stalks, rest), cutoff

    def test_random_agreement(self):
        rng = random.Random(11)
        for _ in range(100):
            space, sheaf, cutoff = self.random_monomial_sheaf(rng)
            got = brute_sections(space, space.points, sheaf, cutoff)
            want = global_sections(space, space.points, sheaf, cutoff)
            assert got.dims == dict(want.dims)

    def test_zero_sheaf(self):
        space = FiniteSpace(["x", "y"], [("x", "y")])
        sheaf = GradedSheaf(space, {p: GradedSpace(basis={}) for p in space.points}, {})
        assert brute_sections(space, space.points, sheaf, 4).dims == {}

    def test_constant_sheaf_connected(self):
        space = FiniteSpace(["x", "y", "z"], [("x", "y"), ("x", "z")])
        stalks = {p: GradedSpace(basis={0: ("c",)}) for p in space.points}
        rest = {(i, j): {"c": (("c", ONE),)} for i, j in space.covering_pairs()}
        sheaf = GradedSheaf(space, stalks, rest)
        assert brute_sections(space, space.points, sheaf, 0).dims == {0: 1}

    def test_engine_blocks(self):
        datum, _ = toric_datum(P2)
        catalog = build_catalog(datum.isotropy, datum.V, "all")
        H = build_H(datum, catalog, 8)
        for (i, j), blk in H.blocks.items():
            got = brute_sections(H.space, H.space.points, blk.sheaf, 8)
            want = global_sections(H.space, H.space.points, blk.sheaf, 8)
            assert got.dims == dict(want.dims), (i, j)


class TestQuadrant:
    def test_phi1(self):
        rep = quadrant_check(("x",), [(), ("x",)])
        assert rep.ok

    def test_phi2_phi3_all_components(self):
        for n in (2, 3):
            phi = tuple(f"x{i}" for i in range(n))
            comps = [tuple(sorted(c)) for k in range(n + 1) for c in itertools.combinations(phi, k)]
            rep = quadrant_check(phi, comps)
            assert rep.ok

    def test_constant_summand_surjectivity(self):
        rep = quadrant_check(("x", "y"), [()])
        assert rep.ok
        assert rep.entries[0]["h0"] == 1

    def test_component_validation(self):
        with pytest.raises(ValueError):
            quadrant_check(("x",), [("y",)])


class TestFuzz:
    def test_ten_thousand_trials(self):
        rep = identity_fuzz(10_000, seed=20260810)
        assert rep.ok and rep.trials == 10_000

    def test_membership_table(self):
        assert membership_table_check() == []

    def test_degenerate_quadruple(self):
        from extsheaf.algebra import nabla
        assert nabla({"a"}, {"a"}, {"a"}) == set()


def counter_fuzz(trials, seed):
    """identity_fuzz with the cocycle compared as Counter multisets, the
    engine's nabla recomputed at every use and no memo: the oracle for the
    set form, on the same quadruples."""
    engine_nabla, transcription = algebra.nabla, oracles._nabla
    failures = []
    for t, quad in enumerate(oracles._fuzz_quadruples(trials, seed)):
        a, b, c, d = quad
        if engine_nabla(a, b, c) != transcription(a, b, c):
            failures.append({"trial": t, "kind": "transcription", "sets": [sorted(x) for x in quad]})
        left = Counter(engine_nabla(a, b, c)) + Counter(engine_nabla(a, c, d))
        right = Counter(engine_nabla(b, c, d)) + Counter(engine_nabla(a, b, d))
        if left != right:
            failures.append({"trial": t, "kind": "cocycle", "sets": [sorted(x) for x in quad]})
        if len(a - b) + len(b - c) != len(a - c) + len(engine_nabla(a, b, c)):
            failures.append({"trial": t, "kind": "degree", "sets": [sorted(x) for x in quad]})
        if len(failures) > 10:
            break
    return FuzzReport(ok=not failures, trials=trials, seed=seed, failures=failures)


WRONG_NABLAS = {
    "first-term-only": lambda d, dp, dpp: set(dp) - (set(d) | set(dpp)),
    "second-term-keeps-dp": lambda d, dp, dpp: (set(dp) - (set(d) | set(dpp))) | (set(d) & set(dpp)),
    "symmetric-difference": lambda d, dp, dpp: set(d) ^ set(dpp),
    "middle-minus-outer": lambda d, dp, dpp: (set(dp) - set(d)) | (set(dpp) - set(dp)),
}


class TestFuzzSetForm:
    """The set-algebra cocycle test gives the same FuzzReport as the Counter form."""

    @pytest.mark.parametrize("seed", [2026, 7, 1, 501])
    def test_same_report(self, seed):
        assert identity_fuzz(3000, seed) == counter_fuzz(3000, seed)

    @pytest.mark.parametrize("name", sorted(WRONG_NABLAS))
    def test_same_failures_under_a_wrong_nabla(self, monkeypatch, name):
        monkeypatch.setattr(algebra, "nabla", WRONG_NABLAS[name])
        for seed in (2026, 7):
            got, want = identity_fuzz(3000, seed), counter_fuzz(3000, seed)
            assert got == want and not got.ok and got.failures, (name, seed)

    def test_cocycle_failures_without_the_transcription_check(self, monkeypatch):
        # the same wrong formula on both sides: only the cocycle and degree tests can catch it
        kinds = set()
        for name, wrong in sorted(WRONG_NABLAS.items()):
            monkeypatch.setattr(algebra, "nabla", wrong)
            monkeypatch.setattr(oracles, "_nabla", wrong)
            got, want = identity_fuzz(3000, 2026), counter_fuzz(3000, 2026)
            assert got == want and not got.ok, name
            kinds |= {f["kind"] for f in got.failures}
        assert kinds == {"cocycle", "degree"}


class _Scripted:
    """Stands in for random.Random: randrange answers from a script and
    records its bound."""

    def __init__(self, answers):
        self.answers = iter(answers)
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return next(self.answers)


class TestFuzzDraws:
    """The exact tables behind the fuzz, the two draws per trial, and the
    memo that checks each distinct quadruple once."""

    SUBSETS = [frozenset(c) for k in range(3) for c in itertools.combinations(("g0", "g1"), k)]

    def test_tables(self):
        tables = oracles._fuzz_tables()
        assert [len(t) for t in tables] == [1, 2, 6, 12, 60, 60, 420, 840, 2520]
        for s, table in enumerate(tables):
            counts = Counter(table)
            ground = [f"g{i}" for i in range(s)]
            assert set(counts) == {frozenset(c) for k in range(s + 1)
                                   for c in itertools.combinations(ground, k)}
            # each size is equally likely, and each subset within its size
            assert {n * (s + 1) * math.comb(s, len(S)) for S, n in counts.items()} == {len(table)}

    def test_every_index_decodes_to_one_quadruple(self, monkeypatch):
        # s = 3: the 12^4 indices give every ordered quadruple of table entries once
        table = oracles._fuzz_tables()[3]
        n = len(table)
        rng = _Scripted(v for i in range(n ** 4) for v in (3, i))
        monkeypatch.setattr(oracles, "random", types.SimpleNamespace(Random=lambda seed: rng))
        quads = list(oracles._fuzz_quadruples(n ** 4, 0))
        assert rng.bounds == [9, n ** 4] * n ** 4
        assert Counter(quads) == Counter(itertools.product(table, repeat=4))

    def test_each_distinct_quadruple_checked_once(self, monkeypatch):
        calls = []
        real = algebra.nabla
        monkeypatch.setattr(algebra, "nabla", lambda *sets: calls.append(sets) or real(*sets))
        assert identity_fuzz(10_000, 2026).ok
        distinct = set(oracles._fuzz_quadruples(10_000, 2026))
        assert len(distinct) == 6424
        assert len(calls) == 4 * len(distinct)

    def _reports(self, monkeypatch, quads):
        monkeypatch.setattr(oracles, "_fuzz_quadruples", lambda trials, seed: iter(quads[:trials]))
        return identity_fuzz(len(quads), 0), counter_fuzz(len(quads), 0)

    def _kinds(self, monkeypatch, quad):
        return {f["kind"] for f in self._reports(monkeypatch, [quad])[1].failures}

    def test_a_repeated_quadruple_is_reported_at_each_trial(self, monkeypatch):
        for name, wrong in sorted(WRONG_NABLAS.items()):
            monkeypatch.setattr(algebra, "nabla", wrong)
            quads = list(itertools.product(self.SUBSETS, repeat=4))
            bad = next(q for q in quads if self._kinds(monkeypatch, q))
            good = next(q for q in quads if not self._kinds(monkeypatch, q))
            got, want = self._reports(monkeypatch, [bad, good, bad, good, bad])
            assert got == want, name
            assert {f["trial"] for f in got.failures} == {0, 2, 4}, name
            assert all(f["sets"] == [sorted(x) for x in bad] for f in got.failures), name

    @pytest.mark.parametrize("position", range(4))
    def test_quadruples_that_differ_in_one_set_are_checked_apart(self, monkeypatch, position):
        monkeypatch.setattr(algebra, "nabla", WRONG_NABLAS["first-term-only"])
        for good in itertools.product(self.SUBSETS, repeat=4):
            if self._kinds(monkeypatch, good):
                continue
            for s in self.SUBSETS:
                bad = good[:position] + (s,) + good[position + 1:]
                if self._kinds(monkeypatch, bad):
                    got, want = self._reports(monkeypatch, [good, bad])
                    assert got == want and {f["trial"] for f in got.failures} == {1}
                    return
        pytest.fail("no pair of quadruples differs in one set and in the result")
