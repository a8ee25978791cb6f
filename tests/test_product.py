from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe_bifurcation import (
    FamilyError,
    degeneracy_instants,
    flat_torus,
    hemisphere_neumann,
    homothety_reparametrization,
    interval_neumann,
    make_family,
    round_sphere,
    scalar_curvature_at,
)


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


class TestGeometry:
    def test_scalar_curvature_path(self, sphere_hemisphere):
        assert scalar_curvature_at(sphere_hemisphere, 1) == 4
        assert scalar_curvature_at(sphere_hemisphere, Fraction(1, 2)) == 6
        assert scalar_curvature_at(sphere_hemisphere, 2) == 3

    def test_scalar_curvature_rejects_nonpositive_s(self, sphere_hemisphere):
        with pytest.raises(ValueError):
            scalar_curvature_at(sphere_hemisphere, 0)

    def test_product_boundary_stays_minimal(self, sphere_hemisphere):
        # H scales as H2/sqrt(s) under s*g2, so a minimal boundary stays minimal
        for s in (Fraction(1, 3), 1, 7):
            scaled = sphere_hemisphere.factor2.rescaled_metric(s)
            assert scaled.boundary_minimal
            assert make_family(sphere_hemisphere.factor1, scaled).factor2 is scaled


class TestHomothety:
    def test_instant_sets_coincide(self, sphere_hemisphere):
        repar, to_base = homothety_reparametrization(sphere_hemisphere)
        window = (Fraction(1, 100), 20)
        base = [inst.s for inst in degeneracy_instants(sphere_hemisphere, window)]
        other = repar.degeneracy_instant_set(window)
        assert [to_base(s) for s in other] == base

    def test_sigma_is_s_times_original(self, sphere_hemisphere):
        from yamabe_bifurcation import branch_from_indices, sigma_value

        repar, _ = homothety_reparametrization(sphere_hemisphere)
        for i, j in [(0, 1), (1, 0), (2, 1), (1, 3)]:
            br = branch_from_indices(sphere_hemisphere, i, j)
            for s in (Fraction(1, 3), 1, Fraction(8, 5)):
                assert repar.sigma_value(i, j, s) == s * sigma_value(br, s)


@given(s=st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=40))
@settings(max_examples=40, deadline=None)
def test_homothety_zero_preservation(s):
    """A branch value vanishes in one parametrization iff it vanishes in the
    other at the very same parameter (volume normalization never moves zeros)."""
    from yamabe_bifurcation import branch_from_indices, sigma_value

    fam = make_family(round_sphere(2, 1), hemisphere_neumann(2, 1))
    repar, _ = homothety_reparametrization(fam)
    for i, j in [(0, 1), (1, 0), (1, 1), (2, 0)]:
        br = branch_from_indices(fam, i, j)
        assert (sigma_value(br, s) == 0) == (repar.sigma_value(i, j, s) == 0)
