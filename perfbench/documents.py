"""Input documents of the benchmark: the shipped data and the generated ladder.

Every generator returns a plain JSON document in the format the extsheaf
CLI reads.  Toric documents can be put through a seeded change of lattice
basis and ray order (`disguise`), which leaves the variety, and so every
Hilbert series, unchanged while giving the program new input bytes.
"""

from __future__ import annotations

import itertools
import json
import random

SHIPPED = ["p1_trivial", "p1_halfint", "p1xp1", "p2",
           "canonical_l1", "canonical_l2", "synthetic_symmetric_rank1"]


def toric_document(rays, max_cones, overlattice_generators=(), cutoff=20):
    return {
        "cutoff": cutoff,
        "labels": "all",
        "mode": "toric",
        "toric": {
            "lattice_rank": len(rays[0]),
            "max_cones": [list(c) for c in max_cones],
            "overlattice_generators": [list(g) for g in overlattice_generators],
            "rays": [list(r) for r in rays],
        },
    }


def projective_space(n, cutoff=20):
    """P^n: rays e_1..e_n and -(e_1+...+e_n); every n of them span a cone."""
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return toric_document(rays, itertools.combinations(range(n + 1), n), cutoff=cutoff)


def product_of_lines(n, overlattice_generators=(), cutoff=20):
    """(P^1)^n: rays +-e_i; a cone picks one sign per coordinate.

    Overlattice generators are given at doubled scale, as in the CLI
    format: (1, 0) adds (1/2, 0) to the lattice.
    """
    rays = []
    for i in range(n):
        for sign in (1, -1):
            rays.append(tuple(sign if k == i else 0 for k in range(n)))
    cones = [tuple(2 * i + s for i, s in enumerate(signs))
             for signs in itertools.product((0, 1), repeat=n)]
    return toric_document(rays, cones, overlattice_generators, cutoff=cutoff)


def hirzebruch(a, cutoff=20):
    """Hirzebruch surface F_a: rays (1,0), (0,1), (-1,a), (0,-1) in cyclic order."""
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return toric_document(rays, [(0, 1), (1, 2), (2, 3), (3, 0)], cutoff=cutoff)


def canonical_symmetric(l, cutoff=20):
    """Canonical compactification datum of rank l.

    V = {v1..vl}, S = all subsets (by size, then lexicographic), J(Δ) the
    indices of Δ, D = F2^l with D_Δ spanned by the unit vectors of Δ.
    """
    names = [f"v{i}" for i in range(1, l + 1)]
    subsets = [c for k in range(l + 1) for c in itertools.combinations(names, k)]

    def key(s):
        return "+".join(s) if s else "-"

    return {
        "cutoff": cutoff,
        "labels": "all",
        "mode": "symmetric",
        "symmetric": {
            "D_subspaces": {key(s): [[1 if i == int(v[1:]) - 1 else 0 for i in range(l)] for v in s]
                            for s in subsets},
            "Jmap": {key(s): [int(v[1:]) for v in s] for s in subsets},
            "S": [list(s) for s in subsets],
            "V": names,
            "l": l,
            "m": l,
        },
    }


def _unimodular(n, rng):
    """A random matrix in GL_n(Z) with small entries: a signed permutation
    times a few elementary row operations."""
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[(rng.choice((1, -1)) if j == perm[i] else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    return mat


def disguise(doc, rng):
    """The same toric variety in another lattice basis and ray order."""
    t = doc["toric"]
    n = t["lattice_rank"]
    g = _unimodular(n, rng)

    def apply(v):
        return [sum(g[i][k] * v[k] for k in range(n)) for i in range(n)]

    order = list(range(len(t["rays"])))
    rng.shuffle(order)                      # new position p holds old ray order[p]
    where = {old: new for new, old in enumerate(order)}
    cones = [sorted(where[i] for i in c) for c in t["max_cones"]]
    rng.shuffle(cones)
    out = dict(doc)
    out["toric"] = {
        "lattice_rank": n,
        "max_cones": cones,
        "overlattice_generators": [apply(v) for v in t["overlattice_generators"]],
        "rays": [apply(t["rays"][old]) for old in order],
    }
    return out


# name -> (generator, cutoff).  Sizes at cutoff: P^3 15 faces and 225 blocks,
# (P^1)^3 27 faces and 729 blocks, P^4 31 faces at a lower cutoff because its
# basis grows fastest; the rest are small surfaces and the rank-3 symmetric case.
LADDER = {
    "p3": (lambda c: projective_space(3, c), 20),
    "p1x3": (lambda c: product_of_lines(3, cutoff=c), 20),
    "p4": (lambda c: projective_space(4, c), 8),
    "canonical_l3": (lambda c: canonical_symmetric(3, c), 12),
    "hirzebruch1": (lambda c: hirzebruch(1, c), 20),
    "hirzebruch2": (lambda c: hirzebruch(2, c), 20),
    "hirzebruch3": (lambda c: hirzebruch(3, c), 20),
    "p1x2_halfint": (lambda c: product_of_lines(2, [(1, 0)], c), 20),
}


def ladder_documents(seed):
    """The ladder as {name: document}; toric members disguised by the seed."""
    rng = random.Random(seed)
    out = {}
    for name, (make, cutoff) in LADDER.items():
        doc = make(cutoff)
        out[name] = disguise(doc, rng) if doc["mode"] == "toric" else doc
    return out


def dump(doc):
    """The on-disk form of a document, matching the shipped data files."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
