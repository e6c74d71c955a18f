import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from extsheaf.algebra import (
    TRIVIAL_MODULE,
    TwistedElement,
    TwoGroupModule,
    hilbert_series,
    mono,
    monomials_of_degree,
    nabla,
    twist_factor,
    twisted_product,
    twisted_tensor,
    twisted_tensor_relations,
)
from extsheaf.f2 import bits
from extsheaf.posets import GradedSpace

subsets = st.sets(st.sampled_from("abcdefgh"))


class TestNabla:
    def test_direct(self):
        assert nabla({"a"}, {"b"}, {"a"}) == {"a", "b"}

    def test_unit_law(self):
        for dpp in [set(), {"a"}, {"a", "b"}]:
            assert nabla({"a", "c"}, {"a", "c"}, dpp) == set()

    def test_singleton(self):
        assert nabla(set(), {"b"}, set()) == {"b"}

    @given(subsets, subsets, subsets, subsets)
    def test_degree_identity(self, a, b, c, _):
        lhs = len(a - b) + len(b - c)
        assert lhs == len(a - c) + len(nabla(a, b, c))

    @given(subsets, subsets, subsets, subsets)
    def test_cocycle_multiset(self, a, b, c, d):
        from collections import Counter

        left = Counter(nabla(a, b, c)) + Counter(nabla(a, c, d))
        right = Counter(nabla(b, c, d)) + Counter(nabla(a, b, d))
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


class TestTwistedProduct:
    def z2x(self):
        return TwoGroupModule(rank=1, degrees=(2,), signs=((1,),))

    def test_unit_times_unit(self):
        mod = TwoGroupModule(rank=1, degrees=(), signs=())
        triv = bits([0])
        one = TwistedElement.make(mod, triv, triv, {(): Fraction(1)})
        assert twisted_product(one, one) == one

    def test_trivial_group_plain_product(self):
        mod = TwoGroupModule(rank=0, degrees=(2,), signs=((),))
        x = TwistedElement.make(mod, (), (), {(1,): Fraction(1)})
        xx = twisted_product(x, x)
        assert xx.coeffs == (((2,), Fraction(1)),)

    def test_even_powers_compose(self):
        mod = self.z2x()
        triv = bits([0])
        x2 = TwistedElement.make(mod, triv, triv, {(2,): Fraction(1)})
        x4 = twisted_product(x2, x2)
        assert x4.coeffs == (((4,), Fraction(1)),)

    def test_survivor_validation(self):
        mod = self.z2x()
        triv = bits([0])
        with pytest.raises(ValueError):
            TwistedElement.make(mod, triv, triv, {(1,): Fraction(1)})

    def test_non_composable(self):
        mod = TwoGroupModule(rank=1, degrees=(), signs=())
        sign, triv = bits([1]), bits([0])
        a = TwistedElement.make(mod, sign, sign, {(): Fraction(1)})
        b = TwistedElement.make(mod, triv, triv, {(): Fraction(1)})
        with pytest.raises(ValueError):
            twisted_product(a, b)

    def test_associativity_on_survivors(self):
        # chain triv -> sign -> triv -> triv across three composable elements
        mod = TwoGroupModule(rank=1, degrees=(2, 4), signs=((1,), (0,)))
        triv, sign = bits([0]), bits([1])
        x = TwistedElement.make(mod, triv, triv, {(0, 1): Fraction(1), (2, 0): Fraction(-1)})
        y = TwistedElement.make(mod, sign, triv, {(1, 1): Fraction(2)})
        z = TwistedElement.make(mod, triv, sign, {(1, 0): Fraction(1)})
        left = twisted_product(twisted_product(x, y), z)
        right = twisted_product(x, twisted_product(y, z))
        assert left == right


class TestHilbert:
    def test_polynomial_ring(self):
        basis = {2 * k: tuple(monomials_of_degree(["X"], k)) for k in range(4)}
        assert hilbert_series(GradedSpace(basis=basis), 6) == [1, 0, 1, 0, 1, 0, 1]

    def test_zero_space(self):
        assert hilbert_series(GradedSpace(), 4) == [0, 0, 0, 0, 0]

    def test_two_variables(self):
        basis = {2 * k: tuple(monomials_of_degree(["X", "Y"], k)) for k in range(3)}
        assert hilbert_series(GradedSpace(basis=basis), 4) == [1, 0, 2, 0, 3]
