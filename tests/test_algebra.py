import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from extsheaf import cli
from extsheaf.algebra import (
    TRIVIAL_MODULE,
    TwoGroupModule,
    mono,
    monomials_of_degree,
    nabla,
    twist_factor,
    twisted_tensor,
    twisted_tensor_relations,
)
from extsheaf.f2 import bits
from extsheaf.faces import FacePoint
from extsheaf.hsheaf import build_H, unit_label
from extsheaf.posets import GradedSpace

DATA = Path(__file__).resolve().parents[1] / "src" / "extsheaf" / "data"

subsets = st.sets(st.sampled_from("abcdefgh"))


def set_nabla(*sets):
    """nabla on name sets: masks over their sorted union (bit k for the k-th
    name), and the result decoded back into names."""
    ground = sorted(set().union(*sets))
    m = nabla(*(sum(1 << ground.index(v) for v in set(s)) for s in sets))
    return {v for k, v in enumerate(ground) if m >> k & 1}


class TestNabla:
    def test_direct(self):
        assert set_nabla({"a"}, {"b"}, {"a"}) == {"a", "b"}

    def test_unit_law(self):
        for dpp in [set(), {"a"}, {"a", "b"}]:
            assert set_nabla({"a", "c"}, {"a", "c"}, dpp) == set()

    def test_singleton(self):
        assert set_nabla(set(), {"b"}, set()) == {"b"}

    def test_every_four_bit_triple_is_the_set_formula(self):
        # the engine's bitwise majority form against (Δ' ∖ (Δ ∪ Δ'')) ∪ ((Δ ∩ Δ'') ∖ Δ') on the decoded sets
        def members(m):
            return {k for k in range(4) if m >> k & 1}

        for d, dp, dpp in itertools.product(range(16), repeat=3):
            D, P, Q = members(d), members(dp), members(dpp)
            assert nabla(d, dp, dpp) == sum(1 << k for k in (P - (D | Q)) | ((D & Q) - P)), (d, dp, dpp)

    @given(subsets, subsets, subsets, subsets)
    def test_degree_identity(self, a, b, c, _):
        lhs = len(a - b) + len(b - c)
        assert lhs == len(a - c) + len(set_nabla(a, b, c))

    @given(subsets, subsets, subsets, subsets)
    def test_cocycle_multiset(self, a, b, c, d):
        from collections import Counter

        left = Counter(set_nabla(a, b, c)) + Counter(set_nabla(a, c, d))
        right = Counter(set_nabla(b, c, d)) + Counter(set_nabla(a, b, d))
        assert left == right


class TestTwistFactor:
    def test_monomial_readoff(self):
        # nabla(∅, {a}, ∅) = {a} lives on the face, so the twist is X_a
        assert twist_factor({"a", "b"}, set(), {"a"}, set()) == mono(("a", 1))

    def test_outside_face_is_zero(self):
        assert twist_factor({"b"}, {"b"}, {"a"}, {"b"}) is None

    def test_equal_labels_unit(self):
        assert twist_factor(set(), {"x"}, {"x"}, {"y"}) == ()


def relation_dims(module, rho, rhop, cutoff):
    return twisted_tensor_relations(module, rho, rhop, cutoff).hilbert(cutoff)


class TestTwistedTensor:
    def test_trivial_group_is_identity(self):
        mod = TwoGroupModule(rank=0, degrees=(2, 4), signs=((), ()))
        out = twisted_tensor(mod, (), (), 8)
        assert out.hilbert(8) == [1, 0, 1, 0, 2, 0, 2, 0, 3]
        assert relation_dims(mod, (), (), 8) == out.hilbert(8)

    def test_z2_on_scalars(self):
        mod = TwoGroupModule(rank=1, degrees=(), signs=())
        sign, triv = bits([1]), bits([0])
        assert twisted_tensor(mod, sign, sign, 4).dims == {0: 1}
        assert twisted_tensor(mod, triv, sign, 4).dims == {}
        assert relation_dims(mod, sign, sign, 4) == [1, 0, 0, 0, 0]
        assert relation_dims(mod, triv, sign, 4) == [0, 0, 0, 0, 0]

    def test_z2_sign_action_on_polynomial(self):
        mod = TwoGroupModule(rank=1, degrees=(2,), signs=((1,),))
        triv = bits([0])
        out = twisted_tensor(mod, triv, triv, 8)
        assert out.hilbert(8) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert relation_dims(mod, triv, triv, 8) == out.hilbert(8)

    def test_random_agreement(self):
        rng = random.Random(7)
        for _ in range(25):
            rank = rng.randint(0, 3)
            ngens = rng.randint(0, 3)
            degs = tuple(2 * rng.randint(1, 3) for _ in range(ngens))
            signs = tuple(tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(ngens))
            mod = TwoGroupModule(rank=rank, degrees=degs, signs=signs)
            rho = tuple(rng.randint(0, 1) for _ in range(rank))
            rhop = tuple(rng.randint(0, 1) for _ in range(rank))
            fast = twisted_tensor(mod, rho, rhop, 8)
            slow = twisted_tensor_relations(mod, rho, rhop, 8)
            assert fast.dims == slow.dims

    def test_bad_character_length(self):
        with pytest.raises(ValueError):
            twisted_tensor(TRIVIAL_MODULE, (1,), (), 4)


def _sheaf(name, cutoff=8):
    datum, _, catalog, _ = cli._datum_catalog(cli.load_document(str(DATA / f"{name}.json")))
    return build_H(datum, catalog, cutoff)


def _labels(H, a, b, f):
    """(degree, label) pairs of the stalk of block (a, b) at face f."""
    return [(d, lab) for d, labs in sorted(H.blocks[(a, b)].stalk(f).basis.items()) for lab in labs]


def _composable(H):
    """Every (f, a, b, c, d1, x, d2, y): x, y stalk labels of (a, b), (b, c) at f, d1 + d2 <= cutoff."""
    n = len(H.catalog)
    for f in H.space.points:
        for a, b, c in itertools.product(range(n), repeat=3):
            for d1, x in _labels(H, a, b, f):
                for d2, y in _labels(H, b, c, f):
                    if d1 + d2 <= H.cutoff:
                        yield f, a, b, c, d1, x, d2, y


def _decoded(H, a, c, f, d):
    """{label code: label} of the stalk of block (a, c) at face f in degree d."""
    return {H.code(lab): lab for lab in H.blocks[(a, c)].stalk(f).basis.get(d, ())}


class TestTwistedProduct:
    """HSheaf.compose, the one stalk product, on label codes: K-exponents add,
    and the polynomial parts multiply times the ∇ twist."""

    NAMES = ("synthetic_symmetric_rank1", "canonical_l2")

    def test_unit_times_unit(self):
        for name in self.NAMES:
            H = _sheaf(name)
            for a in range(len(H.catalog)):
                blk = H.blocks[(a, a)]
                for f in sorted(blk.support.members()):
                    u = unit_label(blk.stalk(f))
                    assert u is not None and H.compose(a, a, a, f, H.code(u), H.code(u)) == H.code(u), (name, a, f)

    def test_trivial_group_plain_product(self):
        # the polynomial part is the product of the polynomial parts times
        # X_v over ∇(Δa, Δb, Δc), zero unless ∇ lives on the face's transport
        for name in self.NAMES + ("p1xp1",):
            H = _sheaf(name)
            orbits = [lab.orbit for lab in H.catalog.labels]
            nonzero = 0
            for f, a, b, c, d1, x, d2, y in _composable(H):
                z = H.compose(a, b, c, f, H.code(x), H.code(y))
                sac = H.blocks[(a, c)].support
                nab = set_nabla(orbits[a], orbits[b], orbits[c])
                if f not in sac.members() or not nab <= set(FacePoint.from_key(sac.rep(f)).orbit):
                    assert z is None, (name, f, a, b, c)
                    continue
                km = tuple(p + q for p, q in zip(x[1], y[1]))
                assert z == H.code((mono(*x[0], *y[0], *((v, 1) for v in nab)), km)), (name, f, x, y)
                nonzero += 1
            assert nonzero, name

    def test_even_powers_compose(self):
        # the K-part of a product is the sum of the two K-parts
        H = _sheaf("synthetic_symmetric_rank1")
        assert sum(1 for f in H.space.points for a, b in H.blocks
                   for _, lab in _labels(H, a, b, f) if any(lab[1])) == 32
        products = 0
        for name in self.NAMES:
            H = _sheaf(name)
            for f, a, b, c, d1, x, d2, y in _composable(H):
                z = H.compose(a, b, c, f, H.code(x), H.code(y))
                if z is not None:
                    km = _decoded(H, a, c, f, d1 + d2)[z][1]
                    assert km == tuple(p + q for p, q in zip(x[1], y[1])), (name, f, x, y)
                    products += any(km)
        assert products > 0

    def test_survivor_validation(self):
        # every product lies in the H^{ac} stalk basis in degree d1 + d2
        for name in self.NAMES:
            H = _sheaf(name)
            for f, a, b, c, d1, x, d2, y in _composable(H):
                z = H.compose(a, b, c, f, H.code(x), H.code(y))
                if z is not None:
                    assert z in _decoded(H, a, c, f, d1 + d2), (name, f, x, y)

    def test_associativity_on_survivors(self):
        for name in self.NAMES:
            H = _sheaf(name)
            n = len(H.catalog)
            triples = 0
            for f, a, b, c, d1, x, d2, y in _composable(H):
                x, y = H.code(x), H.code(y)
                xy = H.compose(a, b, c, f, x, y)
                for d in range(n):
                    for d3, w in _labels(H, c, d, f):
                        if d1 + d2 + d3 > H.cutoff:
                            continue
                        w = H.code(w)
                        yw = H.compose(b, c, d, f, y, w)
                        left = None if xy is None else H.compose(a, c, d, f, xy, w)
                        right = None if yw is None else H.compose(a, b, d, f, x, yw)
                        assert left == right, (name, f, a, b, c, d, x, y, w)
                        triples += 1
            assert triples, name


class TestHilbert:
    def test_polynomial_ring(self):
        basis = {2 * k: tuple(monomials_of_degree(["X"], k)) for k in range(4)}
        assert GradedSpace(basis=basis).hilbert(6) == [1, 0, 1, 0, 1, 0, 1]

    def test_zero_space(self):
        assert GradedSpace().hilbert(4) == [0, 0, 0, 0, 0]

    def test_two_variables(self):
        basis = {2 * k: tuple(monomials_of_degree(["X", "Y"], k)) for k in range(3)}
        assert GradedSpace(basis=basis).hilbert(4) == [1, 0, 2, 0, 3]
