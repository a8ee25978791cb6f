from fractions import Fraction

import pytest

from yamabe_bifurcation import (
    FamilyError,
    degeneracy_instants,
    flat_torus,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    round_sphere,
)
from test_acceptance import _homothetic_instants


class TestMakeFamily:
    def test_thresholds(self, sphere_hemisphere):
        fam = sphere_hemisphere
        assert fam.m == 4
        assert fam.threshold1 == Fraction(2, 3)
        assert fam.threshold2 == Fraction(2, 3)

    def test_rejects_boundary_first_factor(self):
        with pytest.raises(FamilyError, match="closed"):
            make_family(interval_neumann(1), hemisphere_neumann(2, 1))

    def test_rejects_closed_second_factor(self):
        with pytest.raises(FamilyError, match="boundary"):
            make_family(round_sphere(2, 1), round_sphere(2, 1))

    def test_rejects_low_dimension(self):
        with pytest.raises(FamilyError, match="dimension"):
            make_family(round_sphere(1, 1), interval_neumann(1))


class TestHomothety:
    def test_instant_sets_coincide(self, sphere_hemisphere):
        window = (Fraction(1, 100), 20)
        base = [inst.s for inst in degeneracy_instants(sphere_hemisphere, window)]
        assert _homothetic_instants(sphere_hemisphere, window) == base
