import itertools
import random
from fractions import Fraction

from extsheaf.cli import _frac
from extsheaf.fans import coords_in_lattice
from extsheaf.linalg import Eliminator, abs_det, kernel_basis, rank, solve_in_span
from extsheaf.oracles import dense_rank, dense_rref


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
    """Coordinates in a fixed basis, through solve_in_span."""

    def test_exact_coefficients_in_span(self):
        target = _combo(BASIS, [Fraction(1, 3), Fraction(-5, 2)])
        assert solve_in_span(BASIS, target) == [Fraction(1, 3), Fraction(-5, 2)]

    def test_none_outside_span(self):
        assert solve_in_span(BASIS, {"a": Fraction(1)}) is None
        assert solve_in_span(BASIS, {"d": Fraction(1)}) is None

    def test_empty_basis(self):
        assert solve_in_span([], {}) == []
        assert solve_in_span([], {"a": Fraction(1)}) is None

    def test_basis_given_as_generator(self):
        target = _combo(BASIS, [Fraction(2), Fraction(7)])
        assert solve_in_span((dict(b) for b in BASIS), target) == [Fraction(2), Fraction(7)]

    def test_pivot_rows_that_combine_several_basis_vectors(self):
        # not in echelon form: eliminating makes pivot rows out of several vectors
        basis = [{"a": 1, "b": 1}, {"a": 1, "b": 2, "c": 1}, {"b": 1, "c": 3}]
        assert solve_in_span(basis, _combo(basis, [2, -3, 5])) == [2, -3, 5]
        assert solve_in_span(basis, {"a": 1}) == [Fraction(5, 2), Fraction(-3, 2), Fraction(1, 2)]
        assert solve_in_span(basis, basis[1]) == [0, 1, 0]
        assert solve_in_span(basis, {"a": 1, "d": 1}) is None

    def test_matches_dense_rref(self):
        # coordinates of v solve B^T c = v: the last column of the reduced
        # augmented system [B^T | v], with no pivot there
        rng = random.Random(11)
        cols = "abcdef"
        checked = outside = 0
        for _ in range(80):
            k = rng.randint(1, 4)
            basis = [{c: rng.randint(-3, 3) for c in cols if rng.random() < 0.6} for _ in range(k)]
            basis = [{c: v for c, v in b.items() if v} for b in basis]
            if dense_rank([[b.get(c, 0) for c in cols] for b in basis]) < k:
                continue
            if rng.random() < 0.5:
                target = _combo(basis, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis])
            else:
                target = {c: rng.randint(-2, 2) for c in cols if rng.random() < 0.5}
                target = {c: v for c, v in target.items() if v}
            aug = [[Fraction(b.get(c, 0)) for b in basis] + [Fraction(target.get(c, 0))] for c in cols]
            pivots = dense_rref(aug)
            got = solve_in_span(basis, target)
            if k in pivots:
                assert got is None
                outside += 1
            else:
                want = [0] * k
                for r, i in enumerate(pivots):
                    want[i] = aug[r][k]
                assert got == want
                checked += 1
        assert checked > 10 and outside > 10


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


def _entries(vectors):
    return [c for v in vectors for c in v.values()]


class TestIntFirst:
    # the incidence rows of a directed graph: a totally unimodular matrix,
    # so every pivot of every elimination order is +-1
    ROWS = [{u: 1, v: -1} for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]]

    def test_unit_pivots_keep_ints(self):
        kernel = kernel_basis(self.ROWS, range(6))
        assert kernel and all(type(c) is int for c in _entries(kernel))
        assert type(rank(self.ROWS)) is int
        elim = Eliminator()
        for r in self.ROWS:
            elim.add(r)
        assert all(type(c) is int for c in _entries(elim.pivots.values()))
        got = solve_in_span(self.ROWS[:2], {0: 2, 1: 1, 2: -3})
        assert got == [2, 3]
        assert all(type(c) is int for c in got)

    def test_pivot_two_gives_a_half(self):
        got = solve_in_span([{"a": 2, "b": 4}], {"a": 1, "b": 2})
        assert got == [Fraction(1, 2)]
        assert type(got[0]) is Fraction
        (row,) = kernel_basis([{0: 1, 1: 2}], range(2))
        assert row == {0: 1, 1: Fraction(-1, 2)}

    def test_scaled_rows_keep_integral_entries_as_ints(self):
        (row,) = kernel_basis([{0: 1, 1: 2}], range(2))
        assert type(row[0]) is int and type(row[1]) is Fraction
        elim = Eliminator()
        elim.add({0: 2, 1: 4, 2: 3})
        assert elim.pivots[0] == {0: 1, 1: 2, 2: Fraction(3, 2)}
        assert [type(c) for c in elim.pivots[0].values()] == [int, int, Fraction]

    def test_never_a_float(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = [{j: rng.randint(-3, 3) for j in range(5) if rng.random() < 0.6} for _ in range(4)]
            rows = [{k: v for k, v in r.items() if v} for r in rows]
            vals = _entries(kernel_basis(rows, range(5)))
            basis = [r for r in rows if r]
            target = {k: 3 * v for k, v in basis[0].items()} if basis else {}
            got = solve_in_span(basis, target)
            vals += got
            assert all(type(c) in (int, Fraction) for c in vals)

    def test_back_substitution_keeps_integral_entries_as_ints(self):
        # clearing row 0 at pivot 1 sums two halves into an integral entry
        kernel = kernel_basis([{0: 2, 1: 1, 2: 1}, {1: 1, 2: -1}], range(3))
        assert kernel == [{0: 1, 1: -1, 2: -1}]
        assert all(type(c) is int for c in _entries(kernel))

    def test_frac_renders_ints_and_fractions_alike(self):
        assert _frac(3) == _frac(Fraction(3)) == "3"
        assert _frac(Fraction(-1, 2)) == "-1/2"


def _random_system(rng, keys):
    """Sparse rows over keys, a third of them combinations of earlier rows."""
    rows = []
    for _ in range(rng.randint(1, len(keys) + 2)):
        if len(rows) > 1 and rng.random() < 0.35:
            row = _combo(rng.sample(rows, 2), [rng.randint(-2, 2), Fraction(rng.randint(1, 3), 2)])
        else:
            row = {k: rng.randint(-3, 3) for k in keys if rng.random() < 0.4}
            row = {k: v for k, v in row.items() if v}
        rows.append(row)
    return rows


def _dense(rows, keys):
    return [[Fraction(r.get(k, 0)) for k in keys] for r in rows]


class TestEchelonEliminator:
    """The echelon store and its kernel basis against the dense oracle, over
    int keys and over nested tuple keys (dense columns in sorted key order)."""

    KEYS = {
        "int": list(range(7)),
        "tuple": sorted(((p,), ("lab", i % 3, (i,))) for p in range(3) for i in range(3)),
    }

    def _systems(self, seed):
        rng = random.Random(seed)
        for kind, keys in self.KEYS.items():
            for _ in range(60):
                yield keys, _random_system(rng, keys), rng

    def test_rank_matches_dense_rank(self):
        dependent = 0
        for keys, rows, _ in self._systems(24):
            elim = Eliminator()
            for r in rows:
                elim.add(r)
            want = dense_rank(_dense(rows, keys))
            assert elim.rank == rank(rows) == want
            dependent += want < len(rows)
            for p, row in elim.pivots.items():
                assert p == min(row) and row[p] == 1
        assert dependent > 20

    def test_reduce_clears_pivots_and_is_empty_exactly_on_the_span(self):
        inside = outside = 0
        for keys, rows, rng in self._systems(25):
            elim = Eliminator()
            for r in rows:
                elim.add(r)
            if rng.random() < 0.5:
                target = _combo(rows, [rng.randint(-2, 2) for _ in rows])
            else:
                target = {k: rng.randint(-2, 2) for k in keys if rng.random() < 0.4}
                target = {k: v for k, v in target.items() if v}
            res = elim.reduce(target)
            assert not any(k in elim.pivots for k in res)
            spanned = dense_rank(_dense(rows + [target], keys)) == dense_rank(_dense(rows, keys))
            assert (res == {}) == spanned
            coeffs, res2 = elim.coordinates(target)
            assert res2 == res
            assert _combo([elim.pivots[p] for p in coeffs] + [res], list(coeffs.values()) + [1]) == target
            inside += spanned
            outside += not spanned
        assert inside > 20 and outside > 20

    def test_kernel_basis_matches_dense_rref(self):
        for keys, rows, _ in self._systems(26):
            mat = _dense(rows, keys)
            pivots = dense_rref(mat)
            raw = []
            for f in (c for c in range(len(keys)) if c not in pivots):
                v = [Fraction(0)] * len(keys)
                v[f] = Fraction(1)
                for r, p in enumerate(pivots):
                    v[p] = -mat[r][f]
                raw.append(v)
            # the kernel's own reduced echelon form, read off a second dense rref
            n = len(dense_rref(raw))
            want = [{keys[c]: x for c, x in enumerate(v) if x} for v in raw[:n]]
            got = kernel_basis(rows, keys)
            assert got == want
            leads = [min(v) for v in got]
            assert leads == sorted(leads)
            for v, p in zip(got, leads):
                assert v[p] == 1
                assert sum(p in w for w in got) == 1
            assert all(type(c) is int for c in _entries(got) if c.denominator == 1)
