"""Polynomial algebras on degree-2 generators, support twists, and the
balanced tensor product for elementary abelian 2-groups.

Monomials in divisor variables are sorted tuples of (name, exponent)
pairs; the variable X_v has degree 2.  Twists multiply a composed class
by the product of X_v over the support-correction set computed by
``nabla``; the correction is truncated to the variables alive on the
face at hand, everything else maps to 0.

Sign actions of F2^k are diagonal on chosen generators, so a character
is an F2 bit row (see ``f2``) evaluated multiplicatively as +-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import f2
from .linalg import Eliminator
from .posets import GradedSpace


# ---------------------------------------------------------------------------
# monomials


def mono(*pairs):
    """Canonical monomial from (variable, exponent) pairs."""
    acc = {}
    for v, e in pairs:
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def _exponents(weights, degree):
    """Exponent tuples e with sum(w * e) == degree, lexicographically sorted."""
    if not weights:
        return [()] if degree == 0 else []
    partial = [((), degree)]        # (leading exponents, degree left for the rest)
    for w in weights[:-1]:
        partial = [(e + (x,), left - x * w) for e, left in partial for x in range(left // w + 1)]
    w = weights[-1]
    return [e + (left // w,) for e, left in partial if left >= 0 and left % w == 0]


def monomials_of_degree(variables, k):
    """All exponent patterns of total degree k in the given variables, sorted."""
    variables = sorted(variables)
    return sorted(mono(*zip(variables, exps)) for exps in _exponents((1,) * len(variables), k))


# ---------------------------------------------------------------------------
# the support-correction set and twist factors


def nabla(d, dp, dpp):
    """(Δ' ∖ (Δ ∪ Δ'')) ∪ ((Δ ∩ Δ'') ∖ Δ')."""
    d, dp, dpp = set(d), set(dp), set(dpp)
    return (dp - (d | dpp)) | ((d & dpp) - dp)


def twist_factor(face_divisors, da, db, dc):
    """Product of X_v over nabla(da, db, dc) truncated to the face.

    Returns the monomial if every corrected variable is alive on the
    face, otherwise None (the zero element).
    """
    nab = nabla(da, db, dc)
    if not nab <= set(face_divisors):
        return None
    return mono(*((v, 1) for v in nab))


# ---------------------------------------------------------------------------
# diagonal two-group modules


@dataclass(frozen=True)
class TwoGroupModule:
    """Free graded-commutative algebra on generators with a diagonal
    action of F2^rank: generator i has even degree degrees[i] and sign
    character signs[i] (a bit row of length rank)."""

    rank: int
    degrees: tuple
    signs: tuple

    def __post_init__(self):
        if any(d <= 0 or d % 2 for d in self.degrees):
            raise ValueError("generator degrees must be positive even integers")
        if any(len(s) != self.rank for s in self.signs):
            raise ValueError("sign rows must match the group rank")

    def monomial_character(self, exps):
        chi = (0,) * self.rank
        for e, s in zip(exps, self.signs):
            if e % 2:
                chi = f2.add(chi, s)
        return chi

    def monomials(self, degree):
        """Exponent tuples of the given total degree, lexicographically sorted."""
        return _exponents(self.degrees, degree)


TRIVIAL_MODULE = TwoGroupModule(rank=0, degrees=(), signs=())


def twisted_tensor(module: TwoGroupModule, rho, rhop, cutoff) -> GradedSpace:
    """Balanced tensor of the twisted group algebra against Hom(V_rho, V_rho').

    Production route (isotypic shortcut): for diagonal actions the
    balanced relations identify h ⊗ w ⊗ m with sign multiples of
    h ⊗ 1 ⊗ 1 and kill h unless the character of h equals rho + rho';
    the surviving monomials form the basis.
    """
    _check_chars(module, rho, rhop)
    target = f2.add(rho, rhop)
    basis = {}
    for d in range(0, cutoff + 1, 2):
        keep = [m for m in module.monomials(d) if module.monomial_character(m) == target]
        if keep:
            basis[d] = tuple(keep)
    return GradedSpace(basis=basis)


def twisted_tensor_relations(module: TwoGroupModule, rho, rhop, cutoff) -> GradedSpace:
    """Definitional oracle: quotient of H ⊗ C[W] ⊗ Hom by the balanced
    bilinearity relations, solved degreewise by exact elimination.

    Only sensible for small groups (|W| <= 8 in the acceptance battery);
    shares no elimination strategy with the shortcut above.
    """
    _check_chars(module, rho, rhop)
    if module.rank > 3:
        raise ValueError("relation oracle is limited to groups of order <= 8")
    group = [tuple(bits) for bits in itertools.product((0, 1), repeat=module.rank)]
    dims = {}
    for d in range(0, cutoff + 1, 2):
        monos = module.monomials(d)
        cols = [(m, w) for m in monos for w in group]
        if not cols:
            continue
        colpos = {c: i for i, c in enumerate(cols)}
        rows = []
        # x = h ⊗ u;  x·(w ⊗ w') = (h·w) ⊗ (w' u w)  must equal  rho'(w) rho(w') x
        for m in monos:
            chi = module.monomial_character(m)
            for u in group:
                for w in group:
                    for wp in group:
                        lhs = (m, f2.add(f2.add(wp, u), w))
                        sign = (-1) ** f2.dot(chi, w)
                        rhs_coeff = (-1) ** (f2.dot(rhop, w) + f2.dot(rho, wp))
                        row = {}
                        row[colpos[lhs]] = row.get(colpos[lhs], 0) + sign
                        row[colpos[(m, u)]] = row.get(colpos[(m, u)], 0) - rhs_coeff
                        row = {k: v for k, v in row.items() if v}
                        if row:
                            rows.append(row)
        elim = Eliminator()
        for r in rows:
            elim.add(r)
        n = len(cols) - elim.rank
        if n:
            dims[d] = n
    return GradedSpace(dims=dims)


def _check_chars(module, rho, rhop):
    for chi in (rho, rhop):
        if len(chi) != module.rank:
            raise ValueError("character length does not match the group rank")
