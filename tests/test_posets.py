import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from extsheaf import cli
from extsheaf.faces import downward_closed_families, g_stable_open
from extsheaf.hsheaf import build_H
from extsheaf.oracles import brute_sections, dense_rank
from extsheaf.posets import (
    FiniteSpace,
    GradedSheaf,
    GradedSpace,
    SpaceError,
    cech_cohomology,
    global_sections,
    validate_intersection_axiom,
)

ONE = Fraction(1)
DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"


def constant_sheaf(space, gens=("c",)):
    stalks = {p: GradedSpace(basis={0: gens}) for p in space.points}
    rest = {(i, j): {g: ((g, ONE),) for g in gens} for i, j in space.covering_pairs()}
    return GradedSheaf(space, stalks, rest)


def chain_space():
    return FiniteSpace(["a", "b"], [("a", "b")])


def vee_space():
    # closed point c under both open points a and b
    return FiniteSpace(["a", "b", "c"], [("c", "a"), ("c", "b")])


def pseudo_circle():
    # two open points a, b; two closed points c, d, each below both
    return FiniteSpace(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")])


def pseudo_sphere():
    # minimal 6-point model of S^2: c1, c2 < b1, b2 < a1, a2
    below = [("c1", "b1"), ("c1", "b2"), ("c2", "b1"), ("c2", "b2"),
             ("b1", "a1"), ("b1", "a2"), ("b2", "a1"), ("b2", "a2")]
    above = [(c, a) for c in ("c1", "c2") for a in ("a1", "a2")]
    return FiniteSpace(["a1", "a2", "b1", "b2", "c1", "c2"], below + above)


def sphere_model(levels):
    # minimal model of S^(levels-1): two points per level, each below every point of the levels above
    points = [f"{i}{s}" for i in range(levels) for s in "+-"]
    return FiniteSpace(points, [(p, q) for p in points for q in points if p[0] < q[0]])


def total_order(n):
    points = [f"t{i}" for i in range(n)]
    return FiniteSpace(points, itertools.combinations(points, 2))


class TestFiniteSpace:
    def test_minimal_open_chain(self):
        assert chain_space().minimal_open("a") == ("a", "b")

    def test_minimal_open_maximal_point(self):
        assert chain_space().minimal_open("b") == ("b",)

    def test_minimal_open_closed_point_under_two(self):
        # 3-point interval model with the closed face under both others
        assert vee_space().minimal_open("c") == ("a", "b", "c")

    def test_unknown_point(self):
        with pytest.raises(SpaceError):
            chain_space().minimal_open("zz")

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(SpaceError):
            FiniteSpace(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_non_transitive(self):
        with pytest.raises(SpaceError):
            FiniteSpace(["a", "b", "c"], [("a", "b"), ("b", "c")])

    def test_openness(self):
        sp = vee_space()
        assert sp.is_open({"a"})
        assert sp.is_open({"a", "b", "c"})
        assert not sp.is_open({"c"})


class TestIntersectionAxiom:
    def test_incomparable_no_common_upper(self):
        sp = FiniteSpace(["a", "b"], [])
        rep = validate_intersection_axiom(sp)
        assert rep.ok and rep.empty_pairs == 1

    def test_vee_passes(self):
        assert validate_intersection_axiom(vee_space()).ok

    def test_diamond_violation(self):
        # U_c ∩ U_d = {a, b} has two minimal points -> not a minimal open
        rep = validate_intersection_axiom(pseudo_circle())
        assert not rep.ok
        assert rep.violations[0]["pair"] == ["c", "d"]


class TestCech:
    def test_constant_sheaf_contractible(self):
        sp = vee_space()
        sh = constant_sheaf(sp)
        hs = cech_cohomology(sp, sp.points, sh, 4)
        assert hs[0].dims == {0: 1}
        assert all(not h.dims for h in hs[1:])

    def test_pseudo_circle(self):
        sp = pseudo_circle()
        sh = constant_sheaf(sp)
        hs = cech_cohomology(sp, sp.points, sh, 4)
        # matches the simplicial cohomology of the circle
        assert hs[0].dims == {0: 1}
        assert hs[1].dims == {0: 1}
        assert all(not h.dims for h in hs[2:])

    def test_minimal_open_exactness(self):
        sp = pseudo_circle()
        sh = constant_sheaf(sp, gens=("x", "y"))
        for p in sp.points:
            hs = cech_cohomology(sp, sp.minimal_open(p), sh, 4)
            assert hs[0].dims == sh.stalks[p].dims
            assert all(not h.dims for h in hs[1:])

    def test_order_invariance(self):
        # same space with renamed (hence reordered) points gives equal dims
        sp1 = pseudo_circle()
        sh1 = constant_sheaf(sp1)
        ren = {"a": "p3", "b": "p0", "c": "p2", "d": "p1"}
        sp2 = FiniteSpace(ren.values(), [(ren[i], ren[j]) for i, j in [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")]])
        sh2 = constant_sheaf(sp2)
        h1 = cech_cohomology(sp1, sp1.points, sh1, 2)
        h2 = cech_cohomology(sp2, sp2.points, sh2, 2)
        assert [h.dims for h in h1] == [h.dims for h in h2]

    def test_pseudo_sphere(self):
        # U_c1 ∩ U_c2 is a pseudo-circle, so the minimal-open cover is not
        # Leray here; the chain complex still gives the cohomology of S^2
        sp = pseudo_sphere()
        hs = cech_cohomology(sp, sp.points, constant_sheaf(sp), 2)
        assert [h.dims for h in hs] == [{0: 1}, {}, {0: 1}]

    def test_h0_matches_brute_sections(self):
        # every G-stable open and every nonzero block of two shipped documents
        for name in ("p2", "canonical_l2"):
            doc = cli.load_document(str(DATA / f"{name}.json"))
            cutoff = doc["cutoff"]
            datum, _, catalog, _ = cli._datum_catalog(doc)
            H = build_H(datum, catalog, cutoff)
            for fam in downward_closed_families(datum):
                U = g_stable_open(datum, H.space, fam)
                for (i, j), blk in sorted(H.blocks.items()):
                    if blk.zero:
                        continue
                    hs = cech_cohomology(H.space, U, blk.sheaf, cutoff)
                    want = brute_sections(H.space, U, blk.sheaf, cutoff).dims
                    assert hs[0].dims == want, (name, fam, i, j)
                    assert hs[0]._vectors is None     # the basis waits for its first read
                    assert {d: len(vs) for d, vs in hs[0].vectors.items() if vs} == want, (name, fam, i, j)

    def test_non_open_rejected(self):
        sp = vee_space()
        with pytest.raises(SpaceError):
            cech_cohomology(sp, {"c"}, constant_sheaf(sp), 4)

    def test_cutoff_below_min_degree(self):
        sp = chain_space()
        stalks = {p: GradedSpace(basis={4: ("u",)}) for p in sp.points}
        sh = GradedSheaf(sp, stalks, {("a", "b"): {"u": (("u", ONE),)}})
        with pytest.raises(SpaceError):
            cech_cohomology(sp, sp.points, sh, 2)

    def test_min_degree_is_the_lowest_occupied_degree(self):
        sp = chain_space()
        stalks = {"a": GradedSpace(basis={4: ("u",), 6: ()}), "b": GradedSpace(basis={2: ("v",)})}
        assert GradedSheaf(sp, stalks, {("a", "b"): {"u": ()}}).min_degree() == 2
        assert GradedSheaf(sp, {}, {}).min_degree() is None

    def test_degree_changing_restriction_rejected(self):
        # the degree rule is checked once, when the sheaf is built
        sp = chain_space()
        stalks = {"a": GradedSpace(basis={0: ("u",)}), "b": GradedSpace(basis={2: ("v",)})}
        with pytest.raises(SpaceError, match="degree-preserving"):
            GradedSheaf(sp, stalks, {("a", "b"): {"u": (("v", ONE),)}})

    def test_restriction_into_a_missing_label_rejected(self):
        # used to escape global_sections and cech_cohomology as KeyError: ('b', 'w')
        sp = chain_space()
        stalks = {"a": GradedSpace(basis={0: ("u",)}), "b": GradedSpace(basis={0: ("v",)})}
        with pytest.raises(SpaceError, match="'w' is not a basis label"):
            GradedSheaf(sp, stalks, {("a", "b"): {"u": (("w", ONE),)}})
        with pytest.raises(SpaceError, match="'x' is not a basis label"):
            GradedSheaf(sp, stalks, {("a", "b"): {"x": (("v", ONE),)}})

    def test_repeated_restriction_target_is_summed_once(self):
        # u -> v + v is u -> 2v for apply, the section solve and the Čech H^0 alike,
        # and a zero coefficient is dropped when the sheaf is built
        sp = chain_space()
        stalks = {"a": GradedSpace(basis={0: ("u", "w")}), "b": GradedSpace(basis={0: ("v",)})}
        sh = GradedSheaf(sp, stalks, {("a", "b"): {"u": (("v", 1), ("v", 1)), "w": (("v", 0),)}})
        assert sh.restriction("a", "b") == {"u": (("v", 2),), "w": ()}
        assert sh.apply("a", "b", {"u": 1}) == {"v": 2}
        want = ({("a", "u"): 1, ("b", "v"): 2}, {("a", "w"): 1})
        assert global_sections(sp, sp.points, sh, 0).vectors == {0: want}
        assert cech_cohomology(sp, sp.points, sh, 0)[0].vectors == {0: want}


def dense_cech(space, U, sheaf, cutoff, last_sign):
    """Dimensions of each H^r over U from the coboundary written out as dense matrices.

    C^r has one column per (chain p_0 < ... < p_r in U, label at p_r);
    the row of d^r at (t, label) is sum_{k<=r} (-1)^k at (t without t_k,
    label), plus last_sign(r) times the restriction along t_r < t_{r+1}
    read at label.  Also returns whether every d^r d^(r-1) vanishes.
    """
    U = sorted(U)
    chains = [[(p,) for p in U]]
    while chains[-1]:
        chains.append([c + (q,) for c in chains[-1] for q in U if q != c[-1] and space.leq(c[-1], q)])
    degrees = sorted({d for p in U for d in sheaf.stalks[p].dims if d <= cutoff})

    def basis(r, d):
        level = chains[r] if r < len(chains) else []
        return [(c, lab) for c in level for lab in sheaf.stalks[c[-1]].basis.get(d, ())]

    def coboundary(r, d):
        at = {key: n for n, key in enumerate(basis(r, d))}
        rows = []
        for t, lab in basis(r + 1, d):
            row = [0] * len(at)
            for k in range(r + 1):
                row[at[(t[:k] + t[k + 1:], lab)]] += (-1) ** k
            m = sheaf.restriction(t[-2], t[-1])
            for s in sheaf.stalks[t[-2]].basis.get(d, ()):
                row[at[(t[:-1], s)]] += last_sign(r) * sum(c for u, c in m.get(s, ()) if u == lab)
            rows.append(row)
        return rows

    dims, is_complex = [], True
    for r in range(max(1, len(chains) - 1)):
        dims.append({})
        for d in degrees:
            lower, upper = coboundary(r - 1, d) if r else [], coboundary(r, d)
            if upper and lower:
                is_complex &= all(sum(a * b for a, b in zip(row, col)) == 0
                                  for row in upper for col in zip(*lower))
            n = len(basis(r, d)) - (dense_rank(upper) if upper else 0) - (dense_rank(lower) if lower else 0)
            if n:
                dims[-1][d] = n
    while len(dims) > 1 and not dims[-1]:
        dims.pop()
    return dims, is_complex


def right_sign(r):
    return (-1) ** (r + 1)


def wrong_sign_at_odd_r(r):
    return -1


def weighted_sheaf(space, rng, n):
    """A seeded random sheaf: n lines, each the constant sheaf on a random closed set in degree 0 or 2,
    with random weights w at each point, so that a restriction i < j multiplies by w_j / w_i there."""
    support, degree, weight = [], [], []
    for _ in range(n):
        tops = rng.sample(space.points, rng.randint(1, len(space.points)))
        support.append({p for p in space.points if any(space.leq(p, q) for q in tops)})
        degree.append(rng.choice((0, 2)))
        weight.append({p: Fraction(rng.choice((1, 2, 3, -1, -5)), rng.choice((1, 2, 7))) for p in space.points})
    stalks = {p: GradedSpace(basis={d: [("e", k) for k in range(n) if p in support[k] and degree[k] == d]
                                    for d in (0, 2)})
              for p in space.points}
    rest = {(i, j): {("e", k): ((("e", k), weight[k][j] / weight[k][i]),) for k in range(n) if j in support[k]}
            for i, j in space.covering_pairs()}
    return GradedSheaf(space, stalks, rest)


def opens(space):
    return [U for n in range(len(space.points) + 1) for U in itertools.combinations(space.points, n)
            if space.is_open(U)]


class TestCechSign:
    """Every H^r against a dense coboundary; the sign of the restriction term changes with r."""

    def test_weighted_sheaves_on_model_spaces(self):
        rng = random.Random(2026)
        for sp in (vee_space(), pseudo_circle(), pseudo_sphere(), total_order(4)):
            for _ in range(5):
                sh = weighted_sheaf(sp, rng, 4)
                for U in opens(sp):
                    want, is_complex = dense_cech(sp, U, sh, 2, right_sign)
                    assert is_complex, U
                    assert [h.dims for h in cech_cohomology(sp, U, sh, 2)] == want, U

    def test_chains_of_four_points_tell_the_sign(self):
        # with the sign of r = 0 at every r, the complex breaks but on chains of at most three
        # points (pseudo_sphere, the p1xp1 face poset) the dimensions happen to stay; with
        # four points H^1 comes out negative
        for sp, want in ((total_order(4), [{0: 2}]), (sphere_model(4), [{0: 2}, {}, {}, {0: 2}])):
            sh = constant_sheaf(sp, gens=("x", "y"))
            assert dense_cech(sp, sp.points, sh, 0, right_sign) == (want, True)
            wrong, is_complex = dense_cech(sp, sp.points, sh, 0, wrong_sign_at_odd_r)
            assert not is_complex and wrong[1][0] < 0
            assert [h.dims for h in cech_cohomology(sp, sp.points, sh, 0)] == want

    def test_face_blocks_of_p1xp1(self):
        doc = cli.load_document(str(DATA / "p1xp1.json"))
        datum, _, catalog, _ = cli._datum_catalog(doc)
        H = build_H(datum, catalog, 2)
        blocks = [blk for _, blk in sorted(H.blocks.items()) if not blk.zero][:8]
        for fam in downward_closed_families(datum):
            U = g_stable_open(datum, H.space, fam)
            for blk in blocks:
                want, is_complex = dense_cech(H.space, U, blk.sheaf, 2, right_sign)
                assert is_complex, fam
                assert [h.dims for h in cech_cohomology(H.space, U, blk.sheaf, 2)] == want, fam


class TestSections:
    def test_skyscraper_on_open_point(self):
        # stalk Q[X] on the open point b, zero on a
        sp = chain_space()
        xbasis = {2 * k: (("X", k),) for k in range(0, 4)}
        stalks = {"b": GradedSpace(basis=xbasis), "a": GradedSpace(basis={})}
        sh = GradedSheaf(sp, stalks, {})
        sec = global_sections(sp, ("b",), sh, 6)
        assert sec.dims == {0: 1, 2: 1, 4: 1, 6: 1}
        # over the whole space the zero stalk at the closed point forces 0
        sec2 = global_sections(sp, sp.points, sh, 6)
        assert sec2.dims == {}

    def test_empty_open(self):
        sp = chain_space()
        sec = global_sections(sp, (), constant_sheaf(sp), 3)
        assert sec.dims == {}

    def test_h0_equals_sections(self):
        sp = pseudo_circle()
        sh = constant_sheaf(sp, gens=("x", "y"))
        for U in [sp.points, sp.minimal_open("c"), ("a",), ("a", "b")]:
            if not sp.is_open(U):
                continue
            hs = cech_cohomology(sp, U, sh, 2)
            sec = global_sections(sp, U, sh, 2)
            assert hs[0].dims == sec.dims

    def test_negative_degree_carrier(self):
        # carriers admit negative degrees; only the H-sheaf stalks reject them
        sp = chain_space()
        stalks = {p: GradedSpace(basis={-2: ("w",), 0: ("c",)}) for p in sp.points}
        rest = {("a", "b"): {"w": (("w", ONE),), "c": (("c", ONE),)}}
        sh = GradedSheaf(sp, stalks, rest)
        sec = global_sections(sp, sp.points, sh, 0)
        assert sec.dims == {-2: 1, 0: 1}

    def test_p1_trivial_block_dims(self):
        # P^1 orbit poset: open orbit o, fixed points f+, f-; stalks Q, Q[X+], Q[X-]
        sp = FiniteSpace(["f+", "f-", "o"], [("f+", "o"), ("f-", "o")])
        cut = 8
        def poly(var):
            return {2 * k: ((var, k),) for k in range(cut // 2 + 1)}
        stalks = {
            "o": GradedSpace(basis={0: (("1", 0),)}),
            "f+": GradedSpace(basis=poly("X+")),
            "f-": GradedSpace(basis=poly("X-")),
        }
        rest = {
            ("f+", "o"): {("X+", 0): ((("1", 0), ONE),)},
            ("f-", "o"): {("X-", 0): ((("1", 0), ONE),)},
        }
        sh = GradedSheaf(sp, stalks, rest)
        sec = global_sections(sp, sp.points, sh, cut)
        assert sec.hilbert(cut) == [1, 0, 2, 0, 2, 0, 2, 0, 2]
        hs = cech_cohomology(sp, sp.points, sh, cut)
        assert hs[0].dims == sec.dims
        assert all(not h.dims for h in hs[1:])


def brute_hasse(space, dom):
    """Covering pairs inside dom straight from the definition."""
    return tuple((i, j) for i in sorted(dom) for j in sorted(dom)
                 if i != j and space.leq(i, j)
                 and not any(k not in (i, j) and space.leq(i, k) and space.leq(k, j) for k in dom))


class TestHasseEdges:
    def test_cached_tuple_matches_brute_force(self):
        for sp in (chain_space(), vee_space(), pseudo_circle()):
            edges = sp.covering_pairs()
            assert isinstance(edges, tuple)
            assert edges == brute_hasse(sp, sp.points)
            assert sp.covering_pairs() is edges

    def test_within_an_open(self):
        sp = pseudo_circle()
        for U in [("a",), ("a", "b"), ("a", "b", "c"), sp.points]:
            assert sp.is_open(U)
            assert sp.covering_pairs(within=U) == brute_hasse(sp, U)

    def test_within_rejects_non_open(self):
        with pytest.raises(SpaceError):
            vee_space().covering_pairs(within=("c",))

    def test_shipped_face_spaces(self):
        for path in sorted(DATA.glob("*.json")):
            doc = cli.load_document(str(path))
            datum, _, catalog, _ = cli._datum_catalog(doc)
            H = build_H(datum, catalog, 0)
            edges = H.space.covering_pairs()
            assert isinstance(edges, tuple), path.stem
            assert edges == brute_hasse(H.space, H.space.points), path.stem
            for fam in downward_closed_families(datum):
                U = g_stable_open(datum, H.space, fam)
                assert H.space.covering_pairs(within=U) == brute_hasse(H.space, U), (path.stem, fam)


class TestLazySections:
    def test_dimensions_before_vectors(self):
        sp = pseudo_circle()
        sec = global_sections(sp, sp.points, constant_sheaf(sp, gens=("x", "y")), 2)
        assert sec.dims == {0: 2}
        assert sec._vectors is None
        assert [len(vs) for d, vs in sorted(sec.vectors.items())] == [2]
        assert sec.vectors is sec.vectors

    def test_contains(self):
        sp = chain_space()
        sh = constant_sheaf(sp)
        sec = global_sections(sp, sp.points, sh, 0)
        assert sec.contains(0, {("a", "c"): 1, ("b", "c"): 1})
        assert sec.contains(0, {})
        assert not sec.contains(0, {("a", "c"): 1})
        assert not sec.contains(0, {("a", "c"): 1, ("b", "c"): 2})
        assert not sec.contains(2, {("a", "c"): 1, ("b", "c"): 1})

    def test_contains_over_position_rows(self):
        # the rows are over positions into the sorted columns; contains maps keys
        # to positions, so it must agree with the span of the basis vectors
        doc = cli.load_document(str(DATA / "p1xp1.json"))
        datum, _, catalog, _ = cli._datum_catalog(doc)
        H = build_H(datum, catalog, 4)
        rejected = 0
        for _, blk in sorted(H.blocks.items())[:6]:
            sec = H.sections(blk)
            for d, vs in sec.vectors.items():
                cols = sec.columns[d]
                assert cols == sorted(cols)
                assert all(isinstance(n, int) for row in sec.rows[d] for n in row)
                span = dense_rank([[v.get(k, 0) for k in cols] for v in vs])
                for i, v in enumerate(vs):
                    assert sec.contains(d, v)
                    k = cols[(3 * i) % len(cols)]
                    changed = {**v, k: v.get(k, 0) + 1}
                    inside = dense_rank([[w.get(c, 0) for c in cols] for w in (*vs, changed)]) == span
                    assert sec.contains(d, changed) == inside
                    rejected += not inside
                    assert not sec.contains(d, {**v, ("no such point", "x"): 1})
        assert rejected > 10
