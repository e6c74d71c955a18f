"""Independent ground-truth generators.

Nothing here shares an elimination routine with the engine: this module
carries its own dense Gaussian elimination over Q.  The oracles are
piecewise polynomial functions on fans (classical description of the
equivariant cohomology of a smooth complete toric variety), a
brute-force section solver over every comparable pair at once, the
punctured-quadrant cohomology computation, and randomized checks of the
two support-set identities behind the twisted product.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .fans import Fan
from .posets import FiniteSpace, GradedSheaf, GradedSpace

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense elimination owned by the oracles


def dense_rref(rows):
    """Reduced row echelon form in place; returns the list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_rank(rows):
    return len(dense_rref([list(r) for r in rows]))


def dense_kernel_dim(rows, ncols):
    return ncols - dense_rank(rows)


# ---------------------------------------------------------------------------
# piecewise polynomials on a fan


def _homogeneous_exponents(nvars, k):
    if nvars == 0:
        return [()] if k == 0 else []
    out = []

    def rec(i, remaining, acc):
        if i == nvars - 1:
            out.append(tuple(acc + [remaining]))
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, acc + [e])

    rec(0, k, [])
    return sorted(out)


def _expand_substitution(exps, span_rows, nt):
    """Coefficients of prod_i (sum_j t_j span[j][i])^{e_i} as a dict over
    t-exponent tuples."""
    poly = {tuple(0 for _ in range(nt)): ONE}
    for i, e in enumerate(exps):
        lin = {}
        for j in range(nt):
            c = Fraction(span_rows[j][i])
            if c:
                key = tuple(1 if a == j else 0 for a in range(nt))
                lin[key] = c
        for _ in range(e):
            nxt = {}
            for k1, v1 in poly.items():
                for k2, v2 in lin.items():
                    k = tuple(a + b for a, b in zip(k1, k2))
                    nxt[k] = nxt.get(k, Fraction(0)) + v1 * v2
            poly = nxt
            if not poly:
                break
    return poly


def pp_hilbert(fan: Fan, cutoff: int):
    """Dimension per degree of continuous piecewise polynomial functions.

    Degree 2k holds the homogeneous degree-k polynomials per maximal
    cone, glued along the spans of pairwise intersections (the common
    rays).  This is the classical model of the equivariant cohomology of
    the associated smooth complete toric variety.  Completeness is
    enforced by the Fan constructor.
    """
    return pp_hilbert_cones(fan.rank, fan.rays, fan.max_cones, cutoff)


def pp_hilbert_cones(rank, rays, cones, cutoff):
    """Piecewise polynomial dimensions over an explicit cone list (no
    completeness requirement; a single chart gives the plain polynomial
    ring)."""
    n = rank
    out = [0] * (cutoff + 1)
    for k in range(0, cutoff // 2 + 1):
        monos = _homogeneous_exponents(n, k)
        pos = {}
        for ci in range(len(cones)):
            for mi in range(len(monos)):
                pos[(ci, mi)] = len(pos)
        rows = []
        for ci, cj in itertools.combinations(range(len(cones)), 2):
            shared = sorted(set(cones[ci]) & set(cones[cj]))
            span = [rays[i] for i in shared]
            nt = len(span)
            tmonos = {}
            for mi, exps in enumerate(monos):
                for tkey, c in _expand_substitution(exps, span, nt).items():
                    tmonos.setdefault(tkey, {})[mi] = c
            for tkey, comb in sorted(tmonos.items()):
                row = [Fraction(0)] * len(pos)
                for mi, c in comb.items():
                    row[pos[(ci, mi)]] += c
                    row[pos[(cj, mi)]] -= c
                if any(row):
                    rows.append(row)
        out[2 * k] = dense_kernel_dim(rows, len(pos))
    return out


# ---------------------------------------------------------------------------
# brute-force sections


def brute_sections(space: FiniteSpace, U, sheaf: GradedSheaf, cutoff) -> GradedSpace:
    """Sections over U via the full pairwise-compatibility system.

    Every comparable pair contributes its constraint block; no covering
    reduction, no incremental solving.  Must agree with the engine's
    global_sections on every sheaf the engine constructs.
    """
    U = tuple(sorted(U))
    if not space.is_open(U):
        raise ValueError("brute_sections needs an open set")
    cols = {}
    for p in U:
        for d, labs in sheaf.stalks[p].basis.items():
            if d <= cutoff:
                cols.setdefault(d, []).extend((p, lab) for lab in labs)
    dims = {}
    for d in sorted(cols):
        order = {c: i for i, c in enumerate(sorted(cols[d]))}
        rows = []
        for i, j in space.comparable_pairs(within=U):
            m = sheaf.restriction(i, j)
            per_target = {t: {} for t in sheaf.stalks[j].basis.get(d, ())}
            for s in sheaf.stalks[i].basis.get(d, ()):
                for t, c in m.get(s, ()):
                    per_target[t][(i, s)] = per_target[t].get((i, s), Fraction(0)) + c
            for t, lhs in sorted(per_target.items(), key=lambda kv: repr(kv[0])):
                row = [Fraction(0)] * len(order)
                for key, c in lhs.items():
                    row[order[key]] += c
                row[order[(j, t)]] -= ONE
                if any(row):
                    rows.append(row)
        dim = dense_kernel_dim(rows, len(order))
        if dim:
            dims[d] = dim
    return GradedSpace(dims=dims)


# ---------------------------------------------------------------------------
# the punctured quadrant


@dataclass
class QuadrantReport:
    ok: bool
    entries: list = field(default_factory=list)


def quadrant_space(phi):
    """Poset of quadrant strata indexed by subsets of phi (zero-sets);
    the origin is the stratum with all coordinates zero."""
    phi = tuple(sorted(phi))
    points = []
    leq = []
    subsets = [tuple(sorted(s)) for k in range(len(phi) + 1) for s in itertools.combinations(phi, k)]
    keyof = {s: "Q" + ("+".join(s) if s else "0") for s in subsets}
    for s in subsets:
        points.append(keyof[s])
        for t in subsets:
            if set(t) < set(s):
                leq.append((keyof[s], keyof[t]))
    return FiniteSpace(points, leq), keyof


def _component_sheaf(space, keyof, phi, comp):
    """Constant sheaf on the closed union of strata whose zero-set
    contains the component, extended by zero."""
    comp = set(comp)
    stalks = {}
    for s, key in keyof.items():
        alive = comp <= set(s)
        stalks[key] = GradedSpace(basis={0: ("c",)} if alive else {})
    rest = {}
    for i, j in space.covering_pairs():
        if stalks[i].dims and stalks[j].dims:
            rest[(i, j)] = {"c": (("c", ONE),)}
    return GradedSheaf(space, stalks, rest)


def quadrant_check(phi, components) -> QuadrantReport:
    """Čech cohomology of the component sheaves on the punctured quadrant.

    The cover is by the maximal minimal-opens U_{phi minus one point};
    all their intersections are minimal opens, on which sections are
    exact, so the complex computes the true cohomology.  Asserts
    vanishing above degree 0 and surjectivity of restriction from the
    full quadrant.
    """
    phi = tuple(sorted(phi))
    if not phi:
        raise ValueError("the quadrant needs at least one coordinate")
    for comp in components:
        if not set(comp) <= set(phi):
            raise ValueError(f"component {sorted(comp)} escapes the coordinate set")
    space, keyof = quadrant_space(phi)
    origin = keyof[phi]
    punctured = [p for p in space.points if p != origin]
    maximal = [keyof[tuple(sorted(set(phi) - {x}))] for x in phi]
    entries = []
    for comp in sorted(set(tuple(sorted(c)) for c in components)):
        sheaf = _component_sheaf(space, keyof, phi, comp)
        # Čech over the maximal opens; each intersection is U of a stratum
        terms = {}
        for r in range(len(maximal)):
            for chain in itertools.combinations(sorted(maximal), r + 1):
                inter = set(space.minimal_open(chain[0]))
                for p in chain[1:]:
                    inter &= set(space.minimal_open(p))
                minima = [q for q in inter if set(space.minimal_open(q)) == inter]
                terms[chain] = minima[0] if inter else None
        dims = {}
        rows_by_level = {}
        for chain, mpt in sorted(terms.items()):
            lvl = len(chain) - 1
            if mpt is not None and sheaf.stalks[mpt].dims:
                dims.setdefault(lvl, []).append(chain)
        for lvl in sorted(dims):
            tgt = dims.get(lvl + 1, [])
            order = {c: i for i, c in enumerate(dims[lvl])}
            rows = []
            for tchain in tgt:
                row = [Fraction(0)] * len(order)
                for k in range(len(tchain)):
                    sub = tchain[:k] + tchain[k + 1:]
                    if sub in order:
                        row[order[sub]] += ONE if k % 2 == 0 else -ONE
                if any(row):
                    rows.append(row)
            rows_by_level[lvl] = rows
        hs = {}
        for lvl in sorted(dims):
            c_dim = len(dims[lvl])
            rk = dense_rank(rows_by_level.get(lvl, []))
            rk_prev = dense_rank(rows_by_level.get(lvl - 1, [])) if lvl - 1 in dims else 0
            hs[lvl] = c_dim - rk - rk_prev
        higher = {lvl: v for lvl, v in hs.items() if lvl > 0 and v}
        # H^0(Q) -> H^0(Q \ 0): sections over the whole quadrant are the stalk
        # at the origin, which is Q; the restriction hits every section of the
        # punctured part iff that part is connected or empty.
        h0 = hs.get(0, 0)
        surjective = h0 <= 1
        entries.append({
            "component": list(comp),
            "higher": {str(k): v for k, v in higher.items()},
            "h0": h0,
            "surjective": surjective,
            "ok": not higher and surjective,
        })
    return QuadrantReport(ok=all(e["ok"] for e in entries), entries=entries)


# ---------------------------------------------------------------------------
# identity fuzzing


def _nabla(d, dp, dpp):
    # deliberately re-derived here rather than imported: the oracle checks
    # the engine's formula against an independent transcription
    return (set(dp) - (set(d) | set(dpp))) | ((set(d) & set(dpp)) - set(dp))


@dataclass
class FuzzReport:
    ok: bool
    trials: int
    seed: int
    failures: list = field(default_factory=list)


FUZZ_GROUND = tuple(f"g{i}" for i in range(8))


def _fuzz_tables():
    """One tuple T_s per prefix size s = 0..8 of FUZZ_GROUND.

    Each subset S of the first s elements appears L_s / ((s+1)·C(s,|S|))
    times, where L_s = lcm_k (s+1)·C(s,k), so a uniform entry of T_s has
    |S| uniform in 0..s and S uniform among the subsets of that size.
    """
    tables = []
    for s in range(len(FUZZ_GROUND) + 1):
        weights = [(s + 1) * math.comb(s, k) for k in range(s + 1)]
        length = math.lcm(*weights)
        table = []
        for k, weight in enumerate(weights):
            for subset in itertools.combinations(FUZZ_GROUND[:s], k):
                table += [frozenset(subset)] * (length // weight)
        tables.append(tuple(table))
    return tables


def _fuzz_quadruples(trials: int, seed: int):
    """`trials` seeded quadruples of frozensets, two RNG calls each: a
    prefix size s, then one index below L_s^4 read as four base-L_s
    digits into T_s (see _fuzz_tables)."""
    tables = _fuzz_tables()
    rng = random.Random(seed)
    for _ in range(trials):
        table = tables[rng.randrange(len(tables))]
        n = len(table)
        i, a = divmod(rng.randrange(n ** 4), n)
        i, b = divmod(i, n)
        d, c = divmod(i, n)
        yield table[a], table[b], table[c], table[d]


def _fuzz_kinds(engine_nabla, a, b, c, d):
    """The failure kinds of one quadruple, in report order, as a tuple: the
    empty tuple is shared by every quadruple that passes."""
    kinds = []
    abc = engine_nabla(a, b, c)
    if abc != _nabla(a, b, c):
        kinds.append("transcription")
    acd, bcd, abd = engine_nabla(a, c, d), engine_nabla(b, c, d), engine_nabla(a, b, d)
    if abc | acd != bcd | abd or abc & acd != bcd & abd:
        kinds.append("cocycle")
    if len(a - b) + len(b - c) != len(a - c) + len(abc):
        kinds.append("degree")
    return tuple(kinds)


def identity_fuzz(trials: int, seed: int) -> FuzzReport:
    """Random support quadruples must satisfy the twist cocycle identity
    (as multisets) and the degree bookkeeping identity, exactly.

    Each trial draws a prefix size s uniform in 0..8, then four sets
    independently: |S| uniform in 0..s and S uniform among the subsets of
    the first s ground elements of that size.  That takes two RNG calls
    per trial (see _fuzz_quadruples).  The checks of a quadruple depend on
    nothing else, so each distinct quadruple is checked once per call and
    a repeat records the same failures under its own trial number.

    The engine's nabla returns sets, and for sets A, B, C, D the multiset
    sums agree, A + B = C + D, exactly when A | B = C | D and
    A & B = C & D; the cocycle is tested in that form.
    """
    from .algebra import nabla as engine_nabla

    failures = []
    checked = {}
    for t, quad in enumerate(_fuzz_quadruples(trials, seed)):
        kinds = checked.get(quad)
        if kinds is None:
            kinds = checked[quad] = _fuzz_kinds(engine_nabla, *quad)
        for kind in kinds:
            failures.append({"trial": t, "kind": kind, "sets": [sorted(x) for x in quad]})
        if len(failures) > 10:
            break
    return FuzzReport(ok=not failures, trials=trials, seed=seed, failures=failures)


def membership_table_check():
    """Exhaustive membership patterns of the degree identity on singletons."""
    bad = []
    for pattern in itertools.product((0, 1), repeat=3):
        a, b, c = ({"x"} if bit else set() for bit in pattern)
        if len(a - b) + len(b - c) != len(a - c) + len(_nabla(a, b, c)):
            bad.append(pattern)
    return bad
