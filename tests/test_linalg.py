import itertools
import random
from fractions import Fraction

from extsheaf.fans import coords_in_lattice
from extsheaf.linalg import Coordinates, abs_det, kernel_basis, solve_in_span


def _combo(basis, coeffs):
    out = {}
    for b, c in zip(basis, coeffs):
        for k, v in b.items():
            out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def _leibniz(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


BASIS = [{"a": Fraction(1), "b": Fraction(2)}, {"b": Fraction(3), "c": Fraction(-1)}]


class TestCoordinates:
    def test_exact_coefficients_in_span(self):
        coords = Coordinates(BASIS)
        target = _combo(BASIS, [Fraction(1, 3), Fraction(-5, 2)])
        assert coords.of(target) == {0: Fraction(1, 3), 1: Fraction(-5, 2)}
        assert solve_in_span(BASIS, target) == [Fraction(1, 3), Fraction(-5, 2)]

    def test_none_outside_span(self):
        assert Coordinates(BASIS).of({"a": Fraction(1)}) is None
        assert solve_in_span(BASIS, {"d": Fraction(1)}) is None

    def test_empty_basis(self):
        coords = Coordinates([])
        assert coords.of({}) == {}
        assert coords.of({"a": Fraction(1)}) is None
        assert solve_in_span([], {}) == []

    def test_basis_given_as_generator(self):
        target = _combo(BASIS, [Fraction(2), Fraction(7)])
        assert Coordinates(dict(b) for b in BASIS).of(target) == {0: Fraction(2), 1: Fraction(7)}
        assert solve_in_span((dict(b) for b in BASIS), target) == [Fraction(2), Fraction(7)]


def test_kernel_basis_independent_of_row_order():
    rows = [{0: Fraction(1), 1: Fraction(2), 3: Fraction(-1)},
            {1: Fraction(1), 2: Fraction(1)},
            {0: Fraction(1), 1: Fraction(3), 2: Fraction(1), 3: Fraction(-1)},
            {2: Fraction(4), 4: Fraction(1)}]
    want = kernel_basis(rows, range(5))
    assert len(want) == 2
    for perm in itertools.permutations(rows):
        assert kernel_basis(list(perm), range(5)) == want
    for v in want:
        for r in rows:
            assert sum(c * v.get(k, 0) for k, c in r.items()) == 0


def test_coords_in_lattice_rejects_fractional_coordinates():
    basis = [[2, 0], [1, 1]]
    assert coords_in_lattice(basis, [3, 1]) == [1, 1]
    assert coords_in_lattice(basis, [1, 0]) is None


def test_abs_det_matches_leibniz():
    rng = random.Random(2026)
    for n in (3, 4):
        for _ in range(40):
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                mat[-1] = [x + y for x, y in zip(mat[0], mat[1])]
            rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in mat]
            assert abs_det(rows) == abs(_leibniz(mat))
