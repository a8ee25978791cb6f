from fractions import Fraction

import pytest
from hypothesis import settings

from yamabe_bifurcation import (
    custom_spectrum,
    flat_torus,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    round_sphere,
)
from yamabe_bifurcation import spectra

# Every property sets max_examples but TestVerify::test_passes_on_random_closed_form_families and
# TestDegeneratePair::test_one_rule_near_zero, which take it from the profile: 40 in Tier-1, 400
# under --hypothesis-profile verify-fuzz (CI)
settings.register_profile("tier-1", max_examples=40)
settings.register_profile("verify-fuzz", max_examples=400)
settings.load_profile("tier-1")


@pytest.fixture(autouse=True)
def no_level_tables():
    """Each test starts with no level table, as a process does.  Equal factors share one
    table, so a table that another test built, perhaps under a patched level function
    or ``_MAX_LEVELS``, would otherwise answer this test's queries."""
    spectra._TABLES.clear()


@pytest.fixture
def enumerations(monkeypatch):
    """The bounds that catalog factors are enumerated to, by ``spectra._round_levels``, from here on."""
    bounds = []
    enumerate_parts = spectra._round_levels

    def counting(parts, bound, label):
        bounds.append(bound)
        return enumerate_parts(parts, bound, label)

    monkeypatch.setattr(spectra, "_round_levels", counting)
    return bounds


@pytest.fixture
def sphere_hemisphere():
    """S^2 x S^2_+ with unit radii: m = 4, T1 = T2 = 2/3, both curvatures positive."""
    return make_family(round_sphere(2, 1), hemisphere_neumann(2, 1))


@pytest.fixture
def sphere_interval():
    """S^2 x [0, pi]: m = 3, T1 = 1, T2 = 0."""
    return make_family(round_sphere(2, 1), interval_neumann(1))


@pytest.fixture
def torus_interval():
    """T^2(2pi, 2pi) x [0, pi]: both curvatures zero."""
    return make_family(flat_torus([1, 1]), interval_neumann(1))


@pytest.fixture
def torus_hemisphere():
    """T^2(2pi, 2pi) x S^2_+: R1 = 0, R2 = 2, m = 4."""
    return make_family(flat_torus([1, 1]), hemisphere_neumann(2, 1))


@pytest.fixture
def cancelling_family():
    """Constructed pair where an increasing and a decreasing branch of equal
    multiplicity vanish together at s = 1, so the index jump cancels there."""
    f1 = custom_spectrum(
        2, 3, [(0, 1), (Fraction(1, 2), 2), (2, 2)], 10, label="cancel-closed"
    )
    f2 = custom_spectrum(
        2, 3, [(0, 1), (Fraction(1, 2), 1), (2, 2)], 10,
        has_boundary=True, boundary_minimal=True, label="cancel-boundary",
    )
    return make_family(f1, f2)


@pytest.fixture
def degenerate_pair_family():
    """m = 5, R1 = 10, rho_1^(1) = 5/2 = T1 and R2 = 5, rho_1^(2) = 5/4 = T2."""
    f1 = custom_spectrum(3, 10, [(0, 1), (Fraction(5, 2), 2)], 10, label="deg-closed")
    f2 = custom_spectrum(
        2, 5, [(0, 1), (Fraction(5, 4), 2)], 10,
        has_boundary=True, boundary_minimal=True, label="deg-boundary",
    )
    return make_family(f1, f2)
