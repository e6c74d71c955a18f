"""Face spaces of symmetric varieties and orbit spaces of toric varieties.

A face is a pair (Δ, J): Δ runs over the orbit set S (a downward-closed
family of divisor subsets) and J over supersets of Jmap(Δ) inside
{1..l}.  The closure relation is (Δ,J) <= (Δ',J') iff Δ' ⊆ Δ and
J ⊆ J', so the minimal open around (Δ,J) consists of the faces with
smaller orbit set and larger J.  Toric data is the l = 0 specialization
where every face is just its orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import f2
from .algebra import TwoGroupModule
from .isotropy import DatumError, IsotropyFamily, orbit_key, set_name
from .linalg import exact
from .posets import FiniteSpace


@dataclass(frozen=True)
class FacePoint:
    orbit: tuple
    j: tuple

    def key(self):
        return f"{set_name(self.orbit)}|{set_name(self.j)}"

    @staticmethod
    def from_key(key):
        ob, jj = key.split("|")
        orbit = () if ob == "-" else tuple(ob.split("+"))
        j = () if jj == "-" else tuple(int(x) for x in jj.split("+"))
        return FacePoint(orbit=orbit, j=j)


class KData:
    """Per-J invariant algebras with their component-group actions.

    Entries, one per subset J of {1..l}:
      tau_rank: rank of tau_J over F2;
      to_open:  rows mapping the tau_J basis into D (the open-orbit
                component group), used to pull label characters back;
      generators: (degree, sign-bits) pairs defining a free graded
                commutative algebra with a diagonal tau_J action;
      restrictions: for covering pairs J ⊂ J' a group map tau_{J'} ->
                tau_J (rows) and an image polynomial per generator.

    The default (absent) K-datum is the entry dict with tau_J = D,
    identity to_open and tau_map and no generators (the scalar algebra
    everywhere), read and validated like any other; this is exactly the
    toric specialization of the stalk formula.
    """

    def __init__(self, m, l, entries=None):
        self.m = m
        self.l = l
        self.trivial = entries is None
        js = [tuple(sorted(c)) for k in range(l + 1) for c in itertools.combinations(range(1, l + 1), k)]
        pairs = {f"{set_name(j)}>{set_name(jp)}": (j, jp)
                 for j in js for jp in js if set(j) < set(jp) and len(jp) == len(j) + 1}
        if entries is None:
            ident = f2.identity(m)
            entries = {set_name(j): {"tau_rank": m, "to_open": ident} for j in js}
            entries["restrictions"] = {key: {"tau_map": ident} for key in pairs}
        unknown = sorted(set(entries) - {set_name(j) for j in js} - {"restrictions"})
        if unknown:
            raise DatumError(f"K-datum key {unknown[0]!r} is not a subset J of 1..{l}")
        self.entries = {}
        for j in js:
            if set_name(j) not in entries:
                raise DatumError(f"K-datum entry missing for J = {set_name(j)}")
            e = entries[set_name(j)]
            gens = tuple((int(g["degree"]), f2.bits(g["signs"])) for g in e.get("generators", ()))
            rank = int(e["tau_rank"])
            to_open = tuple(f2.bits(row) for row in e["to_open"])
            if len(to_open) != rank or any(len(r) != m for r in to_open):
                raise DatumError(f"to_open at J = {set_name(j)} must be a {rank} x {m} bit matrix")
            if any(len(s) != rank for _, s in gens):
                raise DatumError(f"generator signs at J = {set_name(j)} must have length {rank}")
            if any(d <= 0 or d % 2 for d, _ in gens):
                raise DatumError("K-datum generator degrees must be positive even integers")
            self.entries[j] = {"tau_rank": rank, "to_open": to_open, "generators": gens}
        rest = entries.get("restrictions", {})
        unknown = sorted(set(rest) - set(pairs))
        if unknown:
            raise DatumError(f"K-datum restriction {unknown[0]!r} is not a covering pair J>J'")
        self._restrictions = {}
        for key, pair in pairs.items():
            if key not in rest:
                raise DatumError(f"K-datum restriction missing for {key}")
            r = rest[key]
            tau_map = tuple(f2.bits(row) for row in r["tau_map"])
            gens = tuple(
                tuple((tuple(int(e) for e in exps), exact(Fraction(str(c)))) for c, exps in poly)
                for poly in r.get("gens", ()))
            self._restrictions[pair] = {"tau_map": tau_map, "gens": gens}
        self._module_cache = {}
        self._chain_cache = {}
        self._validate()

    def module(self, j) -> TwoGroupModule:
        j = tuple(sorted(j))
        if j not in self._module_cache:
            e = self.entries[j]
            degs = tuple(d for d, _ in e["generators"])
            signs = tuple(s for _, s in e["generators"])
            self._module_cache[j] = TwoGroupModule(rank=e["tau_rank"], degrees=degs, signs=signs)
        return self._module_cache[j]

    def char_at(self, j, rho):
        """Character of tau_J induced from a character of D via to_open."""
        return f2.pullback(rho, self.entries[tuple(sorted(j))]["to_open"])

    def restriction_data(self, j, jp):
        """Composite (tau_map, generator image polynomials) for J ⊆ J'."""
        key = tuple(sorted(j)), tuple(sorted(jp))
        if key not in self._chain_cache:
            j, jp = key
            if j == jp:
                e = self.entries[j]
                gens = tuple(((exps, 1),) for exps in f2.identity(len(e["generators"])))
                data = {"tau_map": f2.identity(e["tau_rank"]), "gens": gens}
            else:
                mid = tuple(sorted(set(j) | {min(set(jp) - set(j))}))
                data = self._compose(self._restrictions[(j, mid)], self.restriction_data(mid, jp),
                                     len(self.entries[jp]["generators"]))
            self._chain_cache[key] = data
        return self._chain_cache[key]

    def _compose(self, first, second, n_out):
        # group maps compose tau_{J'} -> tau_mid -> tau_J
        tau = tuple(f2.image(row, first["tau_map"]) for row in second["tau_map"])
        gens = []
        for poly in first["gens"]:  # image of a J-generator in mid-generators
            acc = {}
            for exps, coeff in poly:
                for k, v in _substitute(exps, second["gens"], n_out).items():
                    acc[k] = acc.get(k, 0) + coeff * v
            gens.append(tuple(sorted((k, v) for k, v in acc.items() if v)))
        return {"tau_map": tau, "gens": tuple(gens)}

    def apply_restriction(self, j, jp, exps):
        """Image of the monomial with the given exponents under J -> J'."""
        return _substitute(exps, self.restriction_data(j, jp)["gens"],
                           len(self.entries[tuple(sorted(jp))]["generators"]))

    def _validate(self):
        for (j, jp), r in self._restrictions.items():
            ej, ejp = self.entries[j], self.entries[jp]
            if len(r["tau_map"]) != ejp["tau_rank"] or any(len(row) != ej["tau_rank"] for row in r["tau_map"]):
                raise DatumError(f"tau_map for {set_name(j)}>{set_name(jp)} has the wrong shape")
            # t-compatibility: to_open_{J'} = tau_map . to_open_J
            for row, target in zip(r["tau_map"], ejp["to_open"]):
                if f2.image(row, ej["to_open"]) != tuple(target):
                    raise DatumError(f"to_open maps for {set_name(j)}>{set_name(jp)} are incompatible")
            if len(r["gens"]) != len(ej["generators"]):
                raise DatumError(f"restriction {set_name(j)}>{set_name(jp)} must cover every generator")
            modp = self.module(jp)
            for (deg, sign), poly in zip(ej["generators"], r["gens"]):
                pulled = f2.pullback(sign, r["tau_map"])
                for exps, coeff in poly:
                    if len(exps) != len(ejp["generators"]):
                        raise DatumError("restriction image has the wrong number of exponents")
                    d2 = sum(d * e for (d, _), e in zip(ejp["generators"], exps))
                    if d2 != deg:
                        raise DatumError(f"restriction {set_name(j)}>{set_name(jp)} does not preserve degree")
                    if modp.monomial_character(exps) != pulled:
                        raise DatumError(f"restriction {set_name(j)}>{set_name(jp)} is not equivariant")
        # diamond path-independence
        js = sorted(self.entries)
        for j in js:
            for add in itertools.combinations(sorted(set(range(1, self.l + 1)) - set(j)), 2):
                jp = tuple(sorted(set(j) | set(add)))
                paths = []
                for x in add:
                    mid = tuple(sorted(set(j) | {x}))
                    a = self._restrictions[(j, mid)]
                    b = self._restrictions[(mid, jp)]
                    paths.append(self._compose(a, b, len(self.entries[jp]["generators"])))
                if paths[0] != paths[1]:
                    raise DatumError(f"K-datum restrictions around {set_name(j)}..{set_name(jp)} do not commute")


def _substitute(exps, images, nvars):
    """The monomial with the given exponents, with generator gi replaced by the
    polynomial images[gi] ((exponents, coefficient) pairs in nvars variables)."""
    out = {(0,) * nvars: 1}
    for gi, e in enumerate(exps):
        image = dict(images[gi])
        for _ in range(e):
            step = {}
            for ka, va in out.items():
                for kb, vb in image.items():
                    k = tuple(a + b for a, b in zip(ka, kb))
                    step[k] = step.get(k, 0) + va * vb
            out = {k: v for k, v in step.items() if v}
    return out


@dataclass
class SymmetricDatum:
    """Combinatorial input: divisors, orbit set, Jmap, isotropy, K-datum."""

    V: tuple
    S: tuple
    l: int
    Jmap: dict
    isotropy: IsotropyFamily
    kdata: KData

    def __post_init__(self):
        self.V = tuple(sorted(self.V))
        if any(("|" in v or "+" in v) for v in self.V):
            raise DatumError("divisor names must not contain '|' or '+'")
        self.S = tuple(sorted(orbit_key(s) for s in self.S))
        sset = set(self.S)
        if len(sset) != len(self.S):
            raise DatumError("duplicate orbits in S")
        if () not in sset:
            raise DatumError("S must contain the empty orbit")
        for s in self.S:
            if not set(s) <= set(self.V):
                raise DatumError(f"orbit {s} uses unknown divisors")
            for k in range(len(s) + 1):
                for sub in itertools.combinations(s, k):
                    if tuple(sub) not in sset:
                        raise DatumError(f"S is not downward closed: {sub} missing under {s}")
        self.Jmap = {orbit_key(k): frozenset(int(x) for x in v) for k, v in self.Jmap.items()}
        if set(self.Jmap) != sset:
            raise DatumError("Jmap must be defined exactly on S")
        if self.Jmap[()]:
            raise DatumError("Jmap(∅) must be empty")
        for s in self.S:
            if not self.Jmap[s] <= set(range(1, self.l + 1)):
                raise DatumError(f"Jmap({s}) escapes 1..l")
            for t in self.S:
                if set(t) <= set(s) and not self.Jmap[t] <= self.Jmap[s]:
                    raise DatumError(f"Jmap is not monotone between {t} and {s}")
        if set(self.isotropy.orbits) != sset:
            raise DatumError("isotropy family must be indexed exactly by S")
        if self.kdata.m != self.isotropy.m or self.kdata.l != self.l:
            raise DatumError("K-datum shape does not match the datum")
        self._faces = None

    def faces(self):
        """Every face (Δ, J), sorted; enumerated on the first call only."""
        if self._faces is None:
            out = []
            full = set(range(1, self.l + 1))
            for s in self.S:
                base = self.Jmap[s]
                extra = sorted(full - base)
                for k in range(len(extra) + 1):
                    for add in itertools.combinations(extra, k):
                        out.append(FacePoint(orbit=s, j=tuple(sorted(base | set(add)))))
            self._faces = tuple(sorted(out, key=lambda f: (f.orbit, f.j)))
        return list(self._faces)


def build_faces(datum: SymmetricDatum) -> FiniteSpace:
    """The face space: points (Δ,J), with (Δ,J) <= (Δ',J') iff Δ' ⊆ Δ and J ⊆ J'."""
    faces = datum.faces()
    keys = {f: f.key() for f in faces}
    leq = []
    for f in faces:
        for g in faces:
            if f != g and set(g.orbit) <= set(f.orbit) and set(f.j) <= set(g.j):
                leq.append((keys[f], keys[g]))
    return FiniteSpace([keys[f] for f in faces], leq)


def closed_face(datum: SymmetricDatum, orbit) -> FacePoint:
    key = orbit_key(orbit)
    if key not in set(datum.S):
        raise DatumError(f"{key} is not an orbit")
    return FacePoint(orbit=key, j=tuple(sorted(datum.Jmap[key])))


def g_stable_open(datum: SymmetricDatum, space: FiniteSpace, sprime):
    """Faces over a downward-closed subfamily of S, as a sorted key tuple."""
    sp = {orbit_key(s) for s in sprime}
    if not sp <= set(datum.S):
        raise DatumError("S' must be a subset of S")
    for s in sp:
        for k in range(len(s)):
            for sub in itertools.combinations(s, k):
                if tuple(sub) not in sp:
                    raise DatumError(f"S' is not downward closed at {s}")
    out = [f.key() for f in datum.faces() if f.orbit in sp]
    return tuple(sorted(out))


def downward_closed_families(datum: SymmetricDatum):
    """All downward-closed subfamilies of S (the G-stable opens), sorted.

    Order ideals are enumerated recursively as bit masks over S: orbits
    are decided by size, and an orbit may join only once every orbit one
    divisor smaller beneath it has, so only order ideals are visited.
    """
    ss = list(datum.S)
    bit = {s: 1 << k for k, s in enumerate(ss)}
    order = sorted(ss, key=len)
    need = [sum(bit[sub] for sub in itertools.combinations(s, len(s) - 1)) if s else 0 for s in order]
    masks = []

    def rec(k, mask):
        if k == len(order):
            masks.append(mask)
            return
        rec(k + 1, mask)
        if need[k] & mask == need[k]:
            rec(k + 1, mask | bit[order[k]])

    rec(0, 0)
    return sorted(tuple(s for k, s in enumerate(ss) if mask >> k & 1) for mask in masks)


def family_name(fam):
    """Display name of a family of orbits: their set_names joined by ',';
    '(empty)' for the empty family."""
    return ",".join(set_name(s) for s in fam) or "(empty)"
