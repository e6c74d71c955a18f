import itertools
import random

from extsheaf import f2


def span(rows, m):
    """Every F2 combination of rows, by enumeration."""
    out = set()
    for coeffs in itertools.product((0, 1), repeat=len(rows)):
        v = (0,) * m
        for c, r in zip(coeffs, rows):
            if c:
                v = tuple((a + b) % 2 for a, b in zip(v, r))
        out.add(v)
    return out


def random_rows(rng, m):
    return [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(rng.randint(0, m + 2))]


def cases(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        yield m, random_rows(rng, m)


class TestEchelon:
    def test_reduced_sorted_and_same_span(self):
        for m, rows in cases(11):
            ech = f2.echelon(rows)
            pivots = [r.index(1) for r in ech]
            assert pivots == sorted(set(pivots))
            for r, p in zip(ech, pivots):
                assert [other[p] for other in ech] == [int(other is r) for other in ech]
            assert span(ech, m) == span(rows, m)
            assert len(span(ech, m)) == 2 ** len(ech)

    def test_unique_for_every_spanning_set(self):
        for m, rows in cases(12, count=60):
            ech = f2.echelon(rows)
            assert f2.echelon(reversed(rows)) == ech
            assert f2.echelon(list(ech) + rows) == ech


class TestCoordinates:
    def test_in_span_rebuilds_and_off_span_is_none(self):
        for m, rows in cases(13):
            ech = f2.echelon(rows)
            inside = span(rows, m)
            for vec in itertools.product((0, 1), repeat=m):
                coords = f2.coordinates(ech, vec)
                if vec not in inside:
                    assert coords is None
                    continue
                rebuilt = (0,) * m
                for c, r in zip(coords, ech):
                    if c:
                        rebuilt = f2.add(rebuilt, r)
                assert rebuilt == vec


class TestMaps:
    def test_image_and_pullback_are_adjoint(self):
        rng = random.Random(14)
        for _ in range(100):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            matrix = tuple(tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(n))
            for g in itertools.product((0, 1), repeat=n):
                for chi in itertools.product((0, 1), repeat=k):
                    assert f2.dot(f2.image(g, matrix), chi) == f2.dot(g, f2.pullback(chi, matrix))

    def test_identity_fixes_rows_and_characters(self):
        for n in range(5):
            ident = f2.identity(n)
            for g in itertools.product((0, 1), repeat=n):
                assert f2.image(g, ident) == g
                assert f2.pullback(g, ident) == g

    def test_bits(self):
        assert f2.bits("0110") == (0, 1, 1, 0)
        assert f2.bits([1, 0, 3]) == (1, 0, 1)
