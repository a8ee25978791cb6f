import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yamabe_bifurcation import (
    custom_spectrum,
    degeneracy_instants,
    flat_torus,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    morse_index,
    round_sphere,
)
from yamabe_bifurcation.oracle import (
    _monomials,
    _smallest_tridiagonal_eigenvalues,
    brute_force_index,
    brute_force_indices,
    dense_scan_degeneracy,
    even_harmonic_dimension,
    fd_interval_spectrum,
    harmonic_dimension,
)


class TestFiniteDifference:
    def test_unit_interval_against_catalog(self):
        grid = fd_interval_spectrum(1, 2000, 5)
        exact = [float(e) for e, _ in interval_neumann(1).eigenvalues_leq(16)]
        assert len(exact) == 5
        for got, want in zip(grid.eigenvalues, exact):
            assert abs(got - want) <= max(grid.error_estimate * max(want, 1.0), 1e-8)

    def test_scaled_interval(self):
        grid = fd_interval_spectrum(2, 2000, 4)
        exact = [0.0, 0.25, 1.0, 2.25]
        for got, want in zip(grid.eigenvalues, exact):
            assert abs(got - want) < 1e-5

    def test_second_order_convergence(self):
        """Halving h should cut the error of lambda_2 = 4 by about 4x."""
        coarse = fd_interval_spectrum(1, 500, 3).eigenvalues[2]
        fine = fd_interval_spectrum(1, 1000, 3).eigenvalues[2]
        ratio = abs(coarse - 4.0) / abs(fine - 4.0)
        assert 3.5 < ratio < 4.5

    @pytest.mark.parametrize("length_over_pi", [1, Fraction(3, 2)])
    def test_matches_closed_form_of_the_stencil(self, length_over_pi):
        """The stencil's own eigenvalues are (4/h^2) sin^2(k pi h / (2L))."""
        grid = fd_interval_spectrum(length_over_pi, 2000, 10)
        length = math.pi * float(length_over_pi)
        h = length / 2000
        norm = 4.0 / h**2
        for k, got in enumerate(grid.eigenvalues):
            want = norm * math.sin(k * math.pi * h / (2 * length)) ** 2
            assert abs(got - want) <= 16 * sys.float_info.epsilon * norm

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fd_interval_spectrum(1, 8, 2)
        with pytest.raises(ValueError):
            fd_interval_spectrum(1, 100, 80)
        with pytest.raises(ValueError):
            fd_interval_spectrum(0, 100, 2)


class TestSturmBisection:
    def test_matches_eigvalsh_on_random_tridiagonals(self):
        rng = np.random.default_rng(20150)
        for trial in range(150):
            n = int(rng.integers(1, 61))
            diag = rng.normal(scale=float(rng.choice([1e-3, 1, 1e3])), size=n)
            off = rng.normal(size=n - 1)
            if trial % 3 == 0:  # split into blocks; equal diagonals give multiple eigenvalues
                off[rng.random(n - 1) < 0.4] = 0.0
                diag[rng.random(n) < 0.5] = 1.0
            want = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            count = int(rng.integers(1, n + 1))
            got = _smallest_tridiagonal_eigenvalues(diag.tolist(), off.tolist(), count)
            norm = max(abs(want[0]), abs(want[-1]))
            assert np.abs(np.array(got) - want[:count]).max() <= 1e-9 * norm

    def test_zero_matrix(self):
        assert _smallest_tridiagonal_eigenvalues([0.0, 0.0, 0.0], [0.0, 0.0], 3) == [0.0, 0.0, 0.0]


class TestHarmonicDimensions:
    def test_known_values(self):
        assert [harmonic_dimension(2, k) for k in range(5)] == [1, 3, 5, 7, 9]
        assert harmonic_dimension(3, 1) == 4
        assert harmonic_dimension(3, 2) == 9

    def test_even_known_values(self):
        assert [even_harmonic_dimension(2, k) for k in range(5)] == [1, 2, 3, 4, 5]
        assert even_harmonic_dimension(3, 1) == 3
        assert even_harmonic_dimension(3, 2) == 6

    def test_even_plus_odd_is_full(self):
        """An odd harmonic polynomial in x_{n+1} is fixed by its normal
        derivative on x_{n+1} = 0, any polynomial of degree k-1 in n
        variables, so the odd part has dimension C(n+k-2, n-1)."""
        for n in (2, 3, 4):
            for k in range(11):
                assert harmonic_dimension(n, k) - even_harmonic_dimension(n, k) == math.comb(n + k - 2, n - 1)

    @staticmethod
    def _full_matrix_kernel_dimension(monomials, nvars):
        """Kernel dimension from the rank of the whole Laplacian matrix, with
        no parity blocks."""
        if sum(monomials[0]) < 2:
            return len(monomials)
        images = sorted({
            mono[:var] + (mono[var] - 2,) + mono[var + 1:]
            for mono in monomials for var in range(nvars) if mono[var] >= 2
        })
        rows = {image: row for row, image in enumerate(images)}
        matrix = np.zeros((len(images), len(monomials)))
        for col, mono in enumerate(monomials):
            for var in range(nvars):
                e = mono[var]
                if e >= 2:
                    matrix[rows[mono[:var] + (e - 2,) + mono[var + 1:]], col] += e * (e - 1)
        return len(monomials) - int(np.linalg.matrix_rank(matrix))

    def test_block_ranks_match_the_full_matrix_rank(self):
        for n, top in ((1, 12), (2, 12), (3, 12), (4, 8)):
            for k in range(top + 1):
                monos = _monomials(k, n + 1)
                assert harmonic_dimension(n, k) == self._full_matrix_kernel_dimension(monos, n + 1)
                if n >= 2:
                    even = [m for m in monos if m[-1] % 2 == 0]
                    assert even_harmonic_dimension(n, k) == self._full_matrix_kernel_dimension(even, n + 1)

    def test_limits_enforced(self):
        with pytest.raises(ValueError):
            harmonic_dimension(5, 2)
        with pytest.raises(ValueError):
            even_harmonic_dimension(2, 13)


class TestDenseScan:
    def test_bijection_with_exact_zeros(self, sphere_hemisphere):
        window = (0.01, 20)
        brackets = dense_scan_degeneracy(sphere_hemisphere, window, 100000, lam=60)
        exact = [
            float(inst.s)
            for inst in degeneracy_instants(sphere_hemisphere, (Fraction(1, 100), 20))
        ]
        assert len(brackets) == len(exact)
        for (lo, hi), s in zip(brackets, exact):
            assert lo - 1e-9 <= s <= hi + 1e-9

    def test_rigid_family_finds_nothing(self, torus_interval):
        assert dense_scan_degeneracy(torus_interval, (0.01, 100), 5000, lam=50) == []

    def test_bracket_width(self, sphere_interval):
        for lo, hi in dense_scan_degeneracy(sphere_interval, (0.5, 10), 5000, lam=30):
            assert hi - lo <= 2e-10 * lo + 1e-12

    def test_coarse_grid_rejected(self, sphere_hemisphere):
        with pytest.raises(ValueError):
            dense_scan_degeneracy(sphere_hemisphere, (0.1, 10), 100, lam=30)

    @staticmethod
    def _every_branch_scan(fam, window, samples, lam):
        """The reference: the same scan with every pair of levels sampled."""
        s_lo, s_hi = float(window[0]), float(window[1])
        grid = np.geomspace(s_lo, s_hi, samples)
        inv = 1.0 / grid
        bound = fam.coerce(lam)
        a_values = (np.array([float(r) for r, _ in fam.factor1.eigenvalues_leq(bound)]) - float(fam.threshold1)).tolist()
        b_values = (np.array([float(r) for r, _ in fam.factor2.eigenvalues_leq(bound)]) - float(fam.threshold2)).tolist()
        brackets = []
        for a, b in itertools.islice(itertools.product(a_values, b_values), 1, None):
            values = a + b * inv
            signs = np.sign(values)
            for end in (0, -1):
                if abs(values[end]) <= 1e-12 * (abs(a) + abs(b) * inv[end]):
                    signs[end] = 0.0
            for idx in np.nonzero(signs == 0.0)[0]:
                s = grid[idx]
                brackets.append((s * (1 - 1e-12), s * (1 + 1e-12)))
            for idx in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                lo, hi = grid[idx], grid[idx + 1]
                flo = a + b / lo
                while hi - lo > 1e-10 * lo:
                    mid = 0.5 * (lo + hi)
                    fmid = a + b / mid
                    if fmid == 0.0:
                        lo = hi = mid
                        break
                    if flo * fmid < 0:
                        hi = mid
                    else:
                        lo, flo = mid, fmid
                brackets.append((lo, hi))
        brackets.sort()
        merged = []
        for lo, hi in brackets:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    @given(data=st.data(), float_mode=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_same_brackets_as_sampling_every_branch(self, data, float_mode):
        """Skipping the pairs whose coefficients share a sign changes no
        bracket, down to the last bit: on exact and float custom families,
        with levels on T1 or T2 (a == 0 or b == 0) and window ends on
        instants."""
        dims = data.draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]))
        m = sum(dims)
        value = float if float_mode else Fraction
        factors, shifted = [], []
        for idx, dim in enumerate(dims):
            curvature = value(data.draw(st.fractions(-6, 6, max_denominator=4)))
            threshold = curvature / (m - 1)  # as the family computes it
            pool = st.fractions(Fraction(1, 6), 12, max_denominator=6).map(value)
            if threshold > 0:
                pool = st.one_of(pool, st.just(threshold))
            levels = [value(0)]
            for level in sorted(set(data.draw(st.lists(pool, max_size=5)))):
                if level - levels[-1] > 1e-6:  # float mode merges closer levels
                    levels.append(level)
            factors.append(custom_spectrum(
                dim, curvature, [(level, 1 + k % 3) for k, level in enumerate(levels)], 12,
                has_boundary=idx == 1, boundary_minimal=idx == 1,
                tolerance=1e-9 if float_mode else None,
            ))
            shifted.append([level - threshold for level in levels])
        fam = make_family(*factors)
        instants = sorted({-b / a for a in shifted[0] for b in shifted[1] if a * b < 0})
        end = st.fractions(Fraction(1, 8), 40, max_denominator=8).map(value)
        if instants:
            end = st.one_of(end, st.sampled_from(instants))
        window = sorted((data.draw(end), data.draw(end)))
        assume(window[0] < window[1])
        samples = data.draw(st.sampled_from([1000, 1999]))
        assert repr(dense_scan_degeneracy(fam, window, samples, 12)) == repr(
            self._every_branch_scan(fam, window, samples, 12)
        )


class TestBruteForceIndex:
    def test_matches_engine_between_instants(self, sphere_hemisphere):
        instants = [
            inst.s for inst in degeneracy_instants(sphere_hemisphere, (Fraction(1, 100), 20))
        ]
        probes = [Fraction(1, 200)] + [
            (a + b) / 2 for a, b in zip(instants, instants[1:])
        ] + [25]
        for s in probes:
            assert brute_force_index(sphere_hemisphere, s, lam=300) == morse_index(
                sphere_hemisphere, s
            )

    def test_matches_engine_other_families(self, sphere_interval, torus_hemisphere):
        for fam, probes in (
            (sphere_interval, [Fraction(1, 2), 2, Fraction(13, 2)]),
            (torus_hemisphere, [Fraction(1, 5), Fraction(1, 2), 5]),
        ):
            for s in probes:
                assert brute_force_index(fam, s, lam=200) == morse_index(fam, s)

    def test_insufficient_lambda_rejected(self, sphere_hemisphere):
        with pytest.raises(ValueError):
            brute_force_index(sphere_hemisphere, Fraction(1, 100), lam=10)
        with pytest.raises(ValueError):
            brute_force_indices(sphere_hemisphere, [(1.0, 300.0), (0.01, 10.0)])

    @staticmethod
    def _double_loop(fam, s, lam):
        """The per-point double loop over exact levels converted to float."""
        t1, t2 = float(fam.threshold1), float(fam.threshold2)
        count = 0
        for i, (r1, m1) in enumerate(fam.factor1.eigenvalues_leq(fam.coerce(lam))):
            for j, (r2, m2) in enumerate(fam.factor2.eigenvalues_leq(fam.coerce(lam * s))):
                if (i, j) != (0, 0) and float(r1) - t1 + (float(r2) - t2) / s < 0:
                    count += m1 * m2
        return count

    @pytest.mark.parametrize("name", ["sphere_hemisphere", "sphere_interval", "torus_hemisphere", "exact custom"])
    def test_indices_match_single_points(self, name, request):
        """One table for many points gives what each point gives alone,
        whatever the order of the points and their bounds."""
        if name == "exact custom":
            fam = make_family(
                custom_spectrum(2, 3, [(0, 1), (Fraction(1, 2), 2), (2, 2)], 2000),
                custom_spectrum(2, 3, [(0, 1), (Fraction(1, 2), 1), (2, 2)], 2000,
                                has_boundary=True, boundary_minimal=True),
            )
        else:
            fam = request.getfixturevalue(name)
        points = []
        for s in (25.0, 0.005, 1.0, 0.37, 1.0, 6.5, 0.1):
            theta = max(float(fam.threshold1 + fam.threshold2 / fam.coerce(s)), 0.0)
            points += [(s, theta + 1), (s, theta + 40)]
        got = brute_force_indices(fam, points)
        assert got == [brute_force_index(fam, s, lam) for s, lam in points]
        assert got == [self._double_loop(fam, s, lam) for s, lam in points]
        assert brute_force_indices(fam, []) == []


def _float_custom():
    return custom_spectrum(2, 1, [(0, 1), (0.5, 2), (1.5, 1), (4.0, 2)], 10, tolerance=1e-9)


_SPECTRA = {
    "interval": lambda: interval_neumann(Fraction(3, 2)),
    "sphere": lambda: round_sphere(3, 2),
    "hemisphere": lambda: hemisphere_neumann(2),
    "torus": lambda: flat_torus([1, Fraction(2, 3)]),
    "exact custom": lambda: custom_spectrum(
        2, 1, [(0, 1), (Fraction(1, 2), 2), (Fraction(3, 2), 1), (4, 2)], 10
    ),
    "float custom": _float_custom,
}
_BOUNDS = [Fraction(3, 2), 4, Fraction(17, 2), 0]
# 1.5 - 0.5e-9 takes in the level 1.5 only within the tolerance
_FLOAT_BOUNDS = [1.5, 4.0, 8.5, 0.0, 1.4999999995]


class TestLevelTable:
    """Each spectrum serves every query from one table of its largest
    enumeration; a fresh spectrum, asked once, is the reference."""

    @pytest.mark.parametrize("name", sorted(_SPECTRA))
    def test_any_order_of_bounds_matches_a_fresh_spectrum(self, name):
        make = _SPECTRA[name]
        for order in itertools.permutations(_FLOAT_BOUNDS if name == "float custom" else _BOUNDS):
            spec = make()
            for bound in order:
                assert spec.eigenvalues_leq(bound) == make().eigenvalues_leq(bound)
                assert spec.eigenvalues_below(bound) == make().eigenvalues_below(bound)
            assert [spec.level(k) for k in range(4)] == [make().level(k) for k in range(4)]

    def test_float_bound_takes_in_levels_within_the_tolerance(self):
        assert _float_custom().eigenvalues_leq(1.4999999995)[-1] == (1.5, 1)
        assert _float_custom().eigenvalues_below(1.5000000005)[-1] == (0.5, 2)

    def test_rescaled_metric_has_its_own_table(self):
        spec = round_sphere(2)
        spec.eigenvalues_leq(50)
        scaled = spec.rescaled_metric(2)
        assert scaled.eigenvalues_leq(10) == [(Fraction(e, 2), m) for e, m in spec.eigenvalues_leq(20)]
        assert spec.eigenvalues_leq(10) == [(0, 1), (2, 3), (6, 5)]

    def test_smaller_bound_after_larger_does_not_enumerate(self):
        spec = interval_neumann(1)
        bounds = []

        def counting(bound):
            bounds.append(bound)
            return spec.enum_leq(bound)

        counted = spec._replace(enum_leq=counting)
        assert len(counted.eigenvalues_leq(100)) == 11
        assert bounds == [100]  # enumerated up to the argument, not beyond
        counted.eigenvalues_leq(10)
        counted.eigenvalues_below(50)
        assert counted.level(10) == (100, 1)
        assert bounds == [100]
        counted.eigenvalues_leq(101)
        assert bounds == [100, 101]
