import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe_bifurcation import (
    IncompleteSpectrumError,
    SpectrumFormatError,
    custom_from_file,
    custom_spectrum,
    even_harmonic_multiplicity,
    flat_torus,
    harmonic_multiplicity,
    hemisphere_neumann,
    interval_neumann,
    round_sphere,
)
from yamabe_bifurcation.oracle import even_harmonic_dimension, harmonic_dimension
from yamabe_bifurcation import spectra
from yamabe_bifurcation.spectra import Round, _round_levels


class TestInterval:
    def test_unit_interval(self):
        spec = interval_neumann(1)
        assert [e for e, _ in spec.eigenvalues_leq(9)] == [0, 1, 4, 9]
        assert all(m == 1 for _, m in spec.eigenvalues_leq(9))
        assert spec.dim == 1 and spec.scalar_curvature == 0
        assert spec.has_boundary and spec.boundary_minimal

    def test_lambda_two_first_nonzero(self):
        assert interval_neumann(2).level(1) == (Fraction(1, 4), 1)

    def test_cutoff_ten_has_four_entries(self):
        # frozen from the finite-difference Neumann oracle (N=2000): the
        # first four eigenvalues of [0, pi] are 0, 1, 4, 9 and the fifth is 16
        assert len(interval_neumann(1).eigenvalues_below(10)) == 4

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            interval_neumann(0)
        with pytest.raises(ValueError):
            interval_neumann(Fraction(-1, 2))


class TestSphere:
    def test_unit_two_sphere(self):
        spec = round_sphere(2, 1)
        assert spec.eigenvalues_leq(12) == [(0, 1), (2, 3), (6, 5), (12, 7)]
        assert spec.scalar_curvature == 2
        assert not spec.has_boundary

    def test_circle(self):
        spec = round_sphere(1, 1)
        assert spec.eigenvalues_leq(9) == [(0, 1), (1, 2), (4, 2), (9, 2)]
        assert spec.scalar_curvature == 0

    def test_three_sphere_radius_four(self):
        spec = round_sphere(3, 4)
        assert spec.level(1) == (Fraction(3, 4), 4)
        assert spec.scalar_curvature == Fraction(6, 4)

    def test_multiplicities_match_harmonic_kernel_oracle(self):
        for n in (2, 3, 4):
            spec = round_sphere(n, 1)
            for k in range(13):
                assert spec.level(k)[1] == harmonic_dimension(n, k)

    def test_partial_sums_match_all_harmonics(self):
        # sum of multiplicities up to K = dimension of harmonics of degree <= K
        for n in (2, 3):
            spec = round_sphere(n, 1)
            total = 0
            for k in range(9):
                total += spec.level(k)[1]
                assert total == sum(harmonic_dimension(n, j) for j in range(k + 1))

    @pytest.mark.parametrize("make", [round_sphere, hemisphere_neumann])
    def test_rejects_nonpositive_radius(self, make):
        for r2 in (0, -1):
            with pytest.raises(ValueError, match="^radius squared must be positive$"):
                make(2, r2)


class TestHemisphere:
    def test_unit_hemisphere(self):
        spec = hemisphere_neumann(2, 1)
        assert spec.eigenvalues_leq(6) == [(0, 1), (2, 2), (6, 3)]
        assert spec.has_boundary and spec.boundary_minimal

    def test_constants_multiplicity(self):
        assert hemisphere_neumann(2, Fraction(7, 3)).level(0) == (0, 1)

    def test_two_sphere_mults_are_k_plus_one(self):
        spec = hemisphere_neumann(2, 1)
        for k in range(21):
            assert spec.level(k)[1] == k + 1

    def test_multiplicities_match_even_harmonic_oracle(self):
        for n in (2, 3, 4):
            spec = hemisphere_neumann(n, 1)
            for k in range(11):
                assert spec.level(k)[1] == even_harmonic_dimension(n, k)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            hemisphere_neumann(1, 1)


class TestTorus:
    def test_square_torus(self):
        spec = flat_torus([1, 1])
        assert spec.eigenvalues_leq(5) == [(0, 1), (1, 4), (2, 4), (4, 4), (5, 8)]
        assert spec.scalar_curvature == 0

    def test_circle_limit(self):
        assert flat_torus([1]).eigenvalues_leq(9) == round_sphere(1, 1).eigenvalues_leq(9)

    def test_rectangular(self):
        # L2 = 2pi, pi: ell = 1, 1/4 -> eigenvalues k1^2 + 4 k2^2
        spec = flat_torus([1, Fraction(1, 4)])
        assert spec.eigenvalues_leq(4) == [(0, 1), (1, 2), (4, 4)]

    @given(
        ells=st.lists(st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=7), min_size=1, max_size=3),
        point=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        offset=st.sampled_from([0, Fraction(-1, 10**9), Fraction(1, 10**9)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_brute_force_lattice_count(self, ells, point, offset):
        # bounds on (or just off) the eigenvalue of a lattice point, so that
        # bound * ell is often a perfect square on some axis
        bound = max(sum((Fraction(k * k) / ell for k, ell in zip(point, ells)), Fraction(0)) + offset, 0)
        ranges = []
        for ell in ells:  # every k with k^2/ell <= bound, counted up one at a time
            kmax = 0
            while Fraction((kmax + 1) ** 2) / ell <= bound:
                kmax += 1
            ranges.append(range(-kmax, kmax + 1))
        counts = Counter(sum(Fraction(k * k) / ell for k, ell in zip(kvec, ells)) for kvec in product(*ranges))
        expected = sorted((value, count) for value, count in counts.items() if value <= bound)
        assert flat_torus(ells).eigenvalues_leq(bound) == expected

    def test_four_dimensional_box(self):
        ells = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]
        bound = 3  # k^2/ell <= 3 needs |k| <= 2 on every axis
        lattice = product(range(-3, 4), repeat=4)
        counts = Counter(sum(Fraction(k * k) / ell for k, ell in zip(kvec, ells)) for kvec in lattice)
        expected = sorted((value, count) for value, count in counts.items() if value <= bound)
        assert flat_torus(ells).eigenvalues_leq(bound) == expected

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            flat_torus([])
        with pytest.raises(ValueError):
            flat_torus([1, 0])


_ROUND_PARTS = st.lists(
    st.builds(Round, st.integers(1, 4), st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 12)), st.booleans()),
    min_size=1, max_size=3,
)


@given(parts=_ROUND_PARTS, data=st.data())
@settings(max_examples=200, deadline=None)
def test_round_levels_is_the_merged_outer_sum(parts, data):
    """The integer fold gives the levels <= bound of the product: the outer sum of each
    part's closed-form levels k(k+n-1)/r2, equal sums merged, for a bound on one of the
    sums, 1e-9 to either side of it, its float, or a float anywhere."""
    columns = [[(Fraction(k * (k + n - 1)) / r2, (even_harmonic_multiplicity if half else harmonic_multiplicity)(n, k))
                for k in range(6)] for n, r2, half in parts]
    sums = Counter({0: 1})
    for column in columns:
        outer = Counter()
        for r, m in sums.items():
            for q, mq in column:
                outer[r + q] += m * mq
        sums = outer
    # a sum <= reach takes each part's level from the first six of its column
    reach = min(column[-1][0] for column in columns)
    on = data.draw(st.sampled_from(sorted(v for v in sums if v <= reach)))
    bound = data.draw(st.sampled_from([
        on, on + Fraction(1, 10**9), max(on - Fraction(1, 10**9), 0), float(on), data.draw(st.floats(0, float(reach))),
    ]))
    bound = min(bound, reach)
    expected = sorted((value, count) for value, count in sums.items() if value <= bound)
    assert _round_levels(tuple(parts), bound, "P") == expected


@pytest.mark.parametrize("spec", [flat_torus([10**400]), flat_torus([1, 10**400]), hemisphere_neumann(2, 10**400)])
def test_too_many_levels_to_enumerate(spec):
    with pytest.raises(IncompleteSpectrumError, match=r": the eigenvalues up to 3 are too many to enumerate$"):
        spec.eigenvalues_leq(3)


def test_level_cap(monkeypatch):
    """An enumeration holds at most _MAX_LEVELS levels, and a product at most
    _MAX_LEVELS level pairs r + q <= bound: the circle k^2 has 4 levels up
    to 9, and T^2 has 6 pairs up to 4 (0+0, 0+1, 0+4, 1+0, 1+1, 4+0)."""
    monkeypatch.setattr(spectra, "_MAX_LEVELS", 4)
    assert len(interval_neumann(1).eigenvalues_leq(9)) == 4
    with pytest.raises(IncompleteSpectrumError, match=r"^I\(lambda=1\): the eigenvalues up to 16 are too many"):
        interval_neumann(1).eigenvalues_leq(16)
    monkeypatch.setattr(spectra, "_MAX_LEVELS", 6)
    assert flat_torus([1, 1]).eigenvalues_leq(4) == [(0, 1), (1, 4), (2, 4), (4, 4)]
    monkeypatch.setattr(spectra, "_MAX_LEVELS", 5)
    monkeypatch.setattr(spectra, "_TABLES", {})  # the table made under the cap 6 holds the levels up to 4
    with pytest.raises(IncompleteSpectrumError, match=r"^T\^2\(l2/4pi2=\[1,1\]\): the eigenvalues up to 4 are too many"):
        flat_torus([1, 1]).eigenvalues_leq(4)


def test_oversized_product_is_refused_before_any_part_is_enumerated(monkeypatch):
    """The circles of T^2(10^12, 10^12) each hold about 7 * 10^5 levels up to
    1/2, whose pairs all sum to <= 1: far more than _MAX_LEVELS pairs, so the
    refusal reads the circles' counts and enumerates neither."""
    enumerated = []
    monkeypatch.setattr(spectra, "harmonic_multiplicity", lambda n, k: enumerated.append((n, k)))
    with pytest.raises(IncompleteSpectrumError, match=r": the eigenvalues up to 1 are too many to enumerate$"):
        flat_torus([10**12, 10**12]).eigenvalues_leq(1)
    assert enumerated == []


def test_oversized_part_is_refused_before_its_column_is_built(monkeypatch):
    """Under a cap of 4 levels the circle k^2 has 5 levels up to 16: the refusal reads its
    count and builds no column, which for a part past the cap of 10^7 would hold gigabytes."""
    monkeypatch.setattr(spectra, "_MAX_LEVELS", 4)
    built = []
    monkeypatch.setattr(spectra, "harmonic_multiplicity", lambda n, k: built.append((n, k)))
    with pytest.raises(IncompleteSpectrumError, match=r": the eigenvalues up to 16 are too many to enumerate$"):
        flat_torus([1]).eigenvalues_leq(16)
    assert built == []


def _level_by_level(eig, mult, bound, strict):
    """The levels k = 0, 1, ... up to the first eigenvalue past the bound."""
    out, k = [], 0
    while eig(k) < bound or (not strict and eig(k) == bound):
        out.append((eig(k), mult(k)))
        k += 1
    return out


@given(
    kind=st.sampled_from(["sphere", "hemisphere", "interval"]),
    n=st.integers(1, 6),
    radius=st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=12),
    k=st.integers(0, 25),
    shift=st.sampled_from(["on", "just above", "just below", "float", "float ulp up", "float ulp down"]),
)
@settings(max_examples=200, deadline=None)
def test_round_kinds_match_a_level_by_level_loop(kind, n, radius, k, shift):
    # radius is r2 for the sphere and hemisphere and lambda for the interval
    if kind == "interval":
        n, r2, mult = 1, radius * radius, lambda k: 1
        make = lambda: interval_neumann(radius)
    elif kind == "sphere":
        r2, mult = radius, lambda k: harmonic_multiplicity(n, k)
        make = lambda: round_sphere(n, radius)
    else:
        n = max(n, 2)
        r2, mult = radius, lambda k: even_harmonic_multiplicity(n, k)
        make = lambda: hemisphere_neumann(n, radius)
    eig = lambda k: Fraction(k * (k + n - 1)) / r2
    on = eig(k)
    bound = {
        "on": on,
        "just above": on + Fraction(1, 10**9),
        "just below": max(on - Fraction(1, 10**9), 0),
        "float": float(on),
        "float ulp up": math.nextafter(float(on), math.inf),
        "float ulp down": max(math.nextafter(float(on), -math.inf), 0.0),
    }[shift]
    leq = _level_by_level(eig, mult, bound, strict=False)
    assert spectra._round_levels(make().parts, bound, "") == leq  # the enumeration itself, not only the filtered table
    assert make().eigenvalues_leq(bound) == leq
    assert make().eigenvalues_below(bound) == _level_by_level(eig, mult, bound, strict=True)
    spec = make()
    assert [spec.level(i) for i in range(k + 2)] == [(eig(i), mult(i)) for i in range(k + 2)]


class TestEigenvaluesBelow:
    def test_strict_inequality(self):
        assert interval_neumann(1).eigenvalues_below(5) == [(0, 1), (1, 1), (4, 1)]
        assert round_sphere(2, 1).eigenvalues_below(2) == [(0, 1)]

    def test_custom_beyond_completeness_errors(self):
        spec = custom_spectrum(2, 1, [(0, 1), (2, 2)], 3)
        with pytest.raises(IncompleteSpectrumError):
            spec.eigenvalues_below(10)

    def test_extension_is_a_prefix(self):
        for spec in (interval_neumann(1), round_sphere(3, 2), flat_torus([1, Fraction(2, 3)])):
            small = spec.eigenvalues_below(100)
            assert small[0][0] == 0
            assert all(a < b for (a, _), (b, _) in zip(small, small[1:]))
            assert spec.eigenvalues_below(1000)[: len(small)] == small


class TestCustomFile:
    def write(self, tmp_path, body, name="factor.spec"):
        path = tmp_path / name
        path.write_text(body)
        return path

    def test_roundtrip(self, tmp_path):
        path = self.write(
            tmp_path,
            "# sample factor\n"
            "dim = 2\nscalar_curvature = 3\nhas_boundary = false\n"
            "boundary_minimal = false\nlambda_max = 3\n"
            "eig 0 1\neig 2.5 3\n",
        )
        spec = custom_from_file(path)
        assert spec.eigenvalues_leq(3) == [(0, 1), (Fraction(5, 2), 3)]
        assert spec.tolerance is None

    def test_dimension_below_one_rejected(self, tmp_path):
        for dim in (0, -3):
            with pytest.raises(ValueError, match=f"dimension must be at least 1, got {dim}"):
                custom_spectrum(dim, 0, [(0, 1)], 9)
            path = self.write(
                tmp_path,
                f"dim = {dim}\nscalar_curvature = 0\nhas_boundary = false\n"
                "boundary_minimal = false\nlambda_max = 9\neig 0 1\n",
            )
            with pytest.raises(SpectrumFormatError, match=f"dimension must be at least 1, got {dim}"):
                custom_from_file(path)

    @pytest.mark.parametrize("dim", [2.7, Fraction(5, 2), 0.5])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match=f"^custom: dimension must be an integer, got {dim}$"):
            custom_spectrum(dim, 1, [(0, 1), (2, 2)], 3)

    def test_integral_dimension_of_another_type_accepted(self):
        assert custom_spectrum(3.0, 1, [(0, 1), (2, 2)], 3).dim == 3

    def test_unsorted_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "dim = 2\nscalar_curvature = 0\nhas_boundary = false\n"
            "boundary_minimal = false\nlambda_max = 9\n"
            "eig 0 1\neig 2 2\neig 1 5\n",
        )
        with pytest.raises(SpectrumFormatError, match="increasing"):
            custom_from_file(path)

    def test_missing_zero_head_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "dim = 2\nscalar_curvature = 0\nhas_boundary = false\n"
            "boundary_minimal = false\nlambda_max = 9\neig 1 1\n",
        )
        with pytest.raises(SpectrumFormatError, match="eigenvalue 0"):
            custom_from_file(path)

    def test_nonminimal_boundary_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "dim = 2\nscalar_curvature = 1\nhas_boundary = true\n"
            "boundary_minimal = false\nlambda_max = 9\neig 0 1\n",
        )
        with pytest.raises(SpectrumFormatError, match="minimal"):
            custom_from_file(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = self.write(
            tmp_path,
            "dim = 2\nscalar_curvature = 0\nhas_boundary = false\n"
            "boundary_minimal = false\nlambda_max = 9\neig zero 1\n",
        )
        with pytest.raises(SpectrumFormatError, match="line 6"):
            custom_from_file(path)

    def test_eig_must_be_the_whole_first_word(self, tmp_path):
        path = self.write(
            tmp_path,
            "dim = 2\nscalar_curvature = 0\nhas_boundary = false\n"
            "boundary_minimal = false\nlambda_max = 9\neig 0 1\neigen 2 3\n",
        )
        with pytest.raises(SpectrumFormatError, match="^line 7: unrecognized line 'eigen 2 3'$"):
            custom_from_file(path)

    def test_tolerance_selects_float_mode(self, tmp_path):
        path = self.write(
            tmp_path,
            "dim = 2\nscalar_curvature = 1.5\nhas_boundary = false\n"
            "boundary_minimal = false\nlambda_max = 9\ntolerance = 1e-9\n"
            "eig 0 1\neig 2.5 3\n",
        )
        spec = custom_from_file(path)
        assert spec.tolerance == 1e-9
        assert isinstance(spec.scalar_curvature, float)
