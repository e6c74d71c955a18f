"""F2-linear model of component groups, monodromy signs, and label catalogs.

All component groups are elementary abelian of exponent 2: a single
F2-space D of rank m together with a monotone family of subspaces D_Δ
indexed by the orbit set S encodes every tau_Δ = D / D_Δ.  A label is an
orbit together with a character of D vanishing on its subspace; around
each divisor the character either extends (+1) or forces extension by
zero (-1), which yields the forbidden-divisor set of the label.
Subspaces are reduced echelon bit rows; the arithmetic is in ``f2``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import f2


class DatumError(ValueError):
    """Invalid combinatorial input data (exit code 2 in the CLI)."""


# ---------------------------------------------------------------------------
# characters


def characters_vanishing_on(m, rows):
    """All F2 functionals on F2^m that kill the span of rows, sorted."""
    return sorted(chi for chi in itertools.product((0, 1), repeat=m)
                  if not any(f2.pullback(chi, rows)))


# ---------------------------------------------------------------------------
# the isotropy family


def orbit_key(divisors):
    return tuple(sorted(divisors))


def set_name(items):
    """Display name of a finite set: its items joined by '+', '-' when empty."""
    return "+".join(map(str, items)) if items else "-"


@dataclass(frozen=True)
class IsotropyFamily:
    """D = F2^m with a monotone subspace per orbit; subspaces are stored
    as reduced echelon row tuples keyed by orbit_key."""

    m: int
    subspaces: dict
    mode: str  # "symmetric" or "toric"

    def __post_init__(self):
        for key, rows in self.subspaces.items():
            if any(len(r) != self.m for r in rows):
                raise DatumError(f"subspace rows at {orbit_key(key)} must have length {self.m}")
        subs = {orbit_key(k): f2.echelon(v) for k, v in self.subspaces.items()}
        object.__setattr__(self, "subspaces", subs)
        if orbit_key(()) not in subs:
            raise DatumError("the empty orbit is missing from the family")
        if subs[orbit_key(())]:
            raise DatumError("D_∅ must be the zero subspace")
        for key, rows in subs.items():
            r = len(rows)
            if r > min(len(key), self.m):
                raise DatumError(f"dim D_Δ exceeds min(|Δ|, m) at {key}")
            if self.mode == "symmetric" and r != len(key):
                raise DatumError(f"symmetric mode needs dim D_Δ = |Δ| at {key}")
        for a, b in itertools.permutations(subs, 2):
            if set(a) <= set(b):
                if any(f2.coordinates(subs[b], row) is None for row in subs[a]):
                    raise DatumError(f"family is not monotone between {a} and {b}")

    @property
    def orbits(self):
        return sorted(self.subspaces)

    def subspace(self, divisors):
        key = orbit_key(divisors)
        if key not in self.subspaces:
            raise DatumError(f"{key} is not an orbit of the family")
        return self.subspaces[key]


@dataclass
class QuotientGroup:
    """D / D_Δ presented by coset representatives (standard vectors at
    the non-pivot coordinates of the subspace)."""

    rank: int
    reps: tuple
    subspace: tuple


def component_group(fam: IsotropyFamily, divisors) -> QuotientGroup:
    rows = fam.subspace(divisors)
    pivots = {r.index(1) for r in rows}
    reps = tuple(e for j, e in enumerate(f2.identity(fam.m)) if j not in pivots)
    return QuotientGroup(rank=fam.m - len(rows), reps=reps, subspace=rows)


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class Label:
    orbit: tuple
    char: tuple

    def name(self):
        ch = "".join(str(b) for b in self.char) if self.char else "-"
        return f"({set_name(self.orbit)};{ch})"


def monodromy(fam: IsotropyFamily, label: Label, v) -> int:
    """-1 iff the label's character is nonzero on D_{Δ ∪ {v}}."""
    if v in label.orbit:
        raise DatumError(f"divisor {v!r} already lies in the orbit")
    bigger = orbit_key(label.orbit + (v,))
    rows = fam.subspace(bigger)  # raises if not an orbit
    return -1 if any(f2.pullback(label.char, rows)) else 1


def delta_prime(fam: IsotropyFamily, label: Label, all_divisors):
    """Divisors v outside the orbit with Δ ∪ {v} an orbit and monodromy -1."""
    out = []
    for v in sorted(set(all_divisors) - set(label.orbit)):
        if orbit_key(label.orbit + (v,)) in fam.subspaces:
            if monodromy(fam, label, v) == -1:
                out.append(v)
    return tuple(out)


@dataclass
class LabelCatalog:
    """Sorted label list with derived forbidden-divisor sets.

    Extension consistency is enforced eagerly: for every label and every
    orbit Δ between the label's orbit and the complement of its
    forbidden set, the character must vanish on D_Δ.
    """

    labels: tuple
    delta_primes: tuple

    def __len__(self):
        return len(self.labels)

    def dprime(self, i):
        return self.delta_primes[i]


def build_catalog(fam: IsotropyFamily, all_divisors, selection="all") -> LabelCatalog:
    if selection == "all":
        labels = []
        for key in fam.orbits:
            for chi in characters_vanishing_on(fam.m, fam.subspaces[key]):
                labels.append(Label(orbit=key, char=chi))
    else:
        labels = []
        seen = set()
        for orbit, chi in selection:
            lab = Label(orbit=orbit_key(orbit), char=f2.bits(chi))
            if lab.orbit not in fam.subspaces:
                raise DatumError(f"label orbit {lab.orbit} is not in the orbit set")
            if len(lab.char) != fam.m:
                raise DatumError("label character length must equal the rank of D")
            if any(f2.pullback(lab.char, fam.subspaces[lab.orbit])):
                raise DatumError(f"character of {lab.name()} does not vanish on its subspace")
            if lab in seen:
                raise DatumError(f"duplicate label {lab.name()}")
            seen.add(lab)
            labels.append(lab)
    labels = tuple(sorted(labels, key=lambda l: (len(l.orbit), l.orbit, l.char)))
    dps = tuple(delta_prime(fam, lab, all_divisors) for lab in labels)
    # extension consistency across the whole support range of each label
    for lab, dp in zip(labels, dps):
        lo, hi = set(lab.orbit), set(all_divisors) - set(dp)
        for key in fam.orbits:
            if lo <= set(key) <= hi and any(f2.pullback(lab.char, fam.subspaces[key])):
                raise DatumError(
                    f"character of {lab.name()} fails to vanish on D_Δ for Δ={key};"
                    " inconsistent extension data")
    return LabelCatalog(labels=labels, delta_primes=dps)
