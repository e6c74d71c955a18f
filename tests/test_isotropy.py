import pytest

from extsheaf.f2 import echelon
from extsheaf.fans import Fan, toric_isotropy
from extsheaf.isotropy import (
    DatumError,
    IsotropyFamily,
    Label,
    build_catalog,
    component_group,
    delta_prime,
    monodromy,
)


def p1_family(with_d=True):
    """P^1 orbit set; D = F2 with D_ray = D when with_d (the half-integral case)."""
    full = ((1,),) if with_d else ()
    return IsotropyFamily(
        m=1 if with_d else 0,
        subspaces={(): (), ("r0",): full, ("r1",): full},
        mode="toric",
    )


P1_FAN = dict(rank=1, overlattice_gens=((1,),), rays=((1,), (-1,)), max_cones=((0,), (1,)))


class TestF2:
    def test_echelon(self):
        rows = echelon([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert rows == ((1, 0, 1), (0, 1, 1))

    def test_family_monotonicity_enforced(self):
        with pytest.raises(DatumError):
            IsotropyFamily(m=1, subspaces={(): (), ("a",): ((1,),), ("a", "b"): ()}, mode="toric")

    def test_symmetric_mode_dimension(self):
        with pytest.raises(DatumError):
            IsotropyFamily(m=2, subspaces={(): (), ("a",): ()}, mode="symmetric")


class TestComponentGroup:
    def test_zero_subspace(self):
        fam = p1_family()
        q = component_group(fam, ())
        assert q.rank == 1 and q.reps == ((1,),)

    def test_full_subspace(self):
        fam = p1_family()
        assert component_group(fam, ("r0",)).rank == 0

    def test_p1_with_d(self):
        fam = p1_family()
        assert component_group(fam, ()).rank == 1
        assert component_group(fam, ("r1",)).rank == 0


class TestMonodromy:
    def test_trivial_character(self):
        fam = p1_family()
        lab = Label(orbit=(), char=(0,))
        assert monodromy(fam, lab, "r0") == 1

    def test_sign_character(self):
        fam = p1_family()
        lab = Label(orbit=(), char=(1,))
        assert monodromy(fam, lab, "r0") == -1
        assert monodromy(fam, lab, "r1") == -1

    def test_character_vanishing_on_increment(self):
        # rank 2: D_a = <e1>, character e2* vanishes there -> +1
        fam = IsotropyFamily(m=2, subspaces={(): (), ("a",): ((1, 0),)}, mode="toric")
        lab = Label(orbit=(), char=(0, 1))
        assert monodromy(fam, lab, "a") == 1


class TestDeltaPrime:
    def test_trivial(self):
        fam = p1_family()
        assert delta_prime(fam, Label(orbit=(), char=(0,)), ["r0", "r1"]) == ()

    def test_sign(self):
        fam = p1_family()
        assert delta_prime(fam, Label(orbit=(), char=(1,)), ["r0", "r1"]) == ("r0", "r1")

    def test_skyscraper(self):
        fam = p1_family()
        assert delta_prime(fam, Label(orbit=("r0",), char=(0,)), ["r0", "r1"]) == ()


class TestToricIsotropy:
    def test_trivial_overlattice(self):
        fan = Fan(rank=1, overlattice_gens=(), rays=((1,), (-1,)), max_cones=((0,), (1,)))
        fam, basis = toric_isotropy(fan)
        assert fam.m == 0 and basis == ()
        assert all(rows == () for rows in fam.subspaces.values())

    def test_p1_half_integral(self):
        fan = Fan(**P1_FAN)
        fam, basis = toric_isotropy(fan)
        assert fam.m == 1
        assert fam.subspaces[("r0",)] == ((1,),)
        assert fam.subspaces[("r1",)] == ((1,),)

    def test_p1xp1_half_horizontal(self):
        fan = Fan(
            rank=2,
            overlattice_gens=((1, 0),),
            rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
            max_cones=((0, 2), (0, 3), (1, 2), (1, 3)),
        )
        fam, _ = toric_isotropy(fan)
        assert fam.m == 1
        horizontal = {"r0", "r1"}
        for orbit, rows in fam.subspaces.items():
            expect = ((1,),) if set(orbit) & horizontal else ()
            assert rows == expect, orbit

    def test_component_group_open_orbit_is_d(self):
        fam, _ = toric_isotropy(Fan(**P1_FAN))
        assert component_group(fam, ()).rank == fam.m


class TestFanValidation:
    def test_rejects_non_primitive_ray(self):
        with pytest.raises(DatumError):
            Fan(rank=1, overlattice_gens=(), rays=((2,), (-1,)), max_cones=((0,), (1,)))

    def test_rejects_incomplete(self):
        with pytest.raises(DatumError):
            Fan(rank=1, overlattice_gens=(), rays=((1,),), max_cones=((0,),))

    def test_rejects_same_side_cones(self):
        with pytest.raises(DatumError):
            Fan(rank=2, overlattice_gens=(),
                rays=((1, 0), (0, 1), (1, 1)),
                max_cones=((0, 1), (0, 2)))

    def test_rejects_non_smooth(self):
        # cone on (1,0),(1,2) has index 2
        with pytest.raises(DatumError):
            Fan(rank=2, overlattice_gens=(),
                rays=((1, 0), (1, 2), (-1, -1)),
                max_cones=((0, 1), (1, 2), (0, 2)))

    def test_p2_smooth_complete(self):
        fan = Fan(rank=2, overlattice_gens=(),
                  rays=((1, 0), (0, 1), (-1, -1)),
                  max_cones=((0, 1), (1, 2), (0, 2)))
        assert len(fan.orbit_sets()) == 7


class TestCatalog:
    def test_all_labels_p1_with_d(self):
        fam = p1_family()
        cat = build_catalog(fam, ["r0", "r1"], "all")
        names = [lab.name() for lab in cat.labels]
        assert names == ["(-;0)", "(-;1)", "(r0;0)", "(r1;0)"]
        assert cat.delta_primes[1] == ("r0", "r1")

    def test_explicit_labels_validated(self):
        fam = p1_family()
        with pytest.raises(DatumError):
            build_catalog(fam, ["r0", "r1"], [(("r0",), (1,))])

    def test_inconsistent_family_rejected(self):
        # character vanishes on D_a and D_b but not on D_ab: inconsistent extension
        fam = IsotropyFamily(
            m=2,
            subspaces={(): (), ("a",): ((1, 0),), ("b",): ((1, 0),), ("a", "b"): ((1, 0), (0, 1))},
            mode="toric",
        )
        with pytest.raises(DatumError):
            build_catalog(fam, ["a", "b"], [((), (0, 1))])
