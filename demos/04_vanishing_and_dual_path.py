"""The two verification theorems at work on P^1 x P^1.

Every G-stable open (downward-closed family of orbits) must have
vanishing higher cohomology for every block of H, computed from the
chain complex of the open (the stalk at p_r over each strict chain
p_0 < ... < p_r), and the H^0 of that complex over the whole space,
the kernel of d^0 across every comparable pair, must agree with the
section solver: two independent code paths to the extension algebra.
"""

from extsheaf import Fan, build_H, build_catalog, ext_algebra, toric_datum
from extsheaf.extalg import concentration_check, vanishing_report
from extsheaf.faces import downward_closed_families

CUT = 10
fan = Fan(rank=2, overlattice_gens=(),
          rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
          max_cones=((0, 2), (0, 3), (1, 2), (1, 3)))
datum, _ = toric_datum(fan)
catalog = build_catalog(datum.isotropy, datum.V, "all")
H = build_H(datum, catalog, CUT)
ext = ext_algebra(H)

fams = downward_closed_families(datum)
print(f"{len(catalog)} labels, {len(fams)} G-stable opens, cutoff {CUT}")

rep = vanishing_report(H)
higher = [e for e in rep.entries if e.name.startswith("vanishing")]
mv = [e for e in rep.entries if e.name.startswith("mv")]
print(f"vanishing entries: {len(higher)} (all ok: {all(e.ok for e in higher)})")
print(f"Mayer-Vietoris entries: {len(mv)} (all ok: {all(e.ok for e in mv)})")

conc = concentration_check(H, ext)
print(f"concentration/dual-path entries: {len(conc.entries)} (all ok: {conc.ok})")
print("\ndims of the full extension algebra by degree:")
print(" ", {d: n for d, n in sorted(ext.dims().items())})
