import functools
import itertools
import math
import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yamabe_bifurcation import (
    custom_spectrum,
    degeneracy_instants,
    even_harmonic_multiplicity,
    flat_torus,
    harmonic_multiplicity,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    morse_index,
    oracle,
    round_sphere,
    scalars,
    spectra,
)
from yamabe_bifurcation.bifurcation import enumeration_bounds
from yamabe_bifurcation.oracle import (
    _grid_point,
    _monomials,
    _smallest_tridiagonal_eigenvalues,
    brute_force_indices,
    dense_scan_degeneracy,
    even_harmonic_dimension,
    fd_interval_spectrum,
    harmonic_dimension,
    kernel_rank_degree_limit,
)
from yamabe_bifurcation.spectra import Round


class TestFiniteDifference:
    def test_unit_interval_against_catalog(self):
        values = fd_interval_spectrum(2000, 5)
        exact = [float(e) for e, _ in interval_neumann(1).eigenvalues_leq(16)]
        assert len(exact) == 5
        # lambda_k^FD = (4/h^2) sin^2(k pi h / (2L)), h/L = 1/2000: relative error ~ (k pi h / L)^2 / 12, O(h^2)
        worst = (5 * math.pi / 2000) ** 2 / 12
        for got, want in zip(values, exact):
            assert abs(got - want) <= max(worst * max(want, 1.0), 1e-8)

    def test_second_order_convergence(self):
        """Halving h should cut the error of lambda_2 = 4 by about 4x."""
        coarse = fd_interval_spectrum(500, 3)[2]
        fine = fd_interval_spectrum(1000, 3)[2]
        ratio = abs(coarse - 4.0) / abs(fine - 4.0)
        assert 3.5 < ratio < 4.5

    @pytest.mark.parametrize("length_over_pi", [1, Fraction(3, 2)])
    def test_matches_closed_form_of_the_stencil(self, length_over_pi):
        """The stencil's own eigenvalues on [0, pi*lambda] are (4/h^2) sin^2(k pi h / (2L)),
        h = L/N: those of [0, pi] divided by lambda^2, the scaling verify relies on."""
        values = fd_interval_spectrum(2000, 10)
        length = math.pi * float(length_over_pi)
        h = length / 2000
        norm = 4.0 / h**2
        for k, got in enumerate(values):
            want = norm * math.sin(k * math.pi * h / (2 * length)) ** 2
            assert abs(got / float(length_over_pi) ** 2 - want) <= 16 * sys.float_info.epsilon * norm

    @staticmethod
    def _stencil(grid_points, length_over_pi=1):
        """The whole N-row Neumann stencil on [0, pi*lambda] and its norm."""
        h = math.pi * float(length_over_pi) / grid_points
        diag = [2.0 / h**2] * grid_points
        diag[0] = diag[-1] = 1.0 / h**2
        return diag, [-1.0 / h**2] * (grid_points - 1), 4.0 / h**2

    @pytest.mark.parametrize("grid_points", [16, 17, 64, 96, 100, 101, 1000, 2000, 2001, 4000])
    def test_mirror_blocks_equal_the_full_stencil(self, grid_points):
        """The mirror blocks give the eigenvalues of the whole stencil, for
        odd counts (where the even block gives one more) and even ones, and
        for even sizes whose split recurses several levels: 64 down to a
        2-row stencil, 96 to a 3-row one, 100 to a 25-row one, 1000 and 4000
        to 125 rows.  On the small sizes every count up to N/4 is asked for,
        up to where the eigenvalues no longer grow like k^2: an odd block
        that owes as many eigenvalues as its even block gives starts its
        last one from the count past the last even eigenvalue, and one that
        owes a single eigenvalue, with the constant mode as its only seed,
        bisects."""
        diag, off, norm = self._stencil(grid_points)
        for count in range(1, grid_points // 4 + 1) if grid_points <= 101 else (1, 3, 10):
            want = _smallest_tridiagonal_eigenvalues(diag, off, count)
            got = fd_interval_spectrum(grid_points, count)
            assert len(got) == count
            assert max(abs(g - w) for g, w in zip(got, want)) <= 16 * sys.float_info.epsilon * norm

    @pytest.mark.parametrize("length_over_pi", [1, Fraction(3, 2), 2, Fraction(5, 2), 3])
    def test_work_is_bounded(self, monkeypatch, length_over_pi):
        """The recursive mirror split, each odd block counted first at the
        eigenvalues of its even block, takes about 30,000 Sturm rows, counts
        and Newton passes together; unseeded it took 53,000, and the whole
        stencil takes 124,000-126,000.  On the stencil of any length, the
        constant mode closes at once, and the geometric midpoints reach the
        next eigenvalue, 1/lambda^2 at the bottom of a Gershgorin interval
        1.6e6/lambda^2 wide, in a few counts, where midpoints take 26 passes."""
        work = {"calls": 0, "rows": 0}

        def counted(loop):
            def run(diag, *args):
                work["calls"] += 1
                work["rows"] += len(diag)
                return loop(diag, *args)
            return run

        monkeypatch.setattr(oracle, "_sturm_pass", counted(oracle._sturm_pass))
        monkeypatch.setattr(oracle, "_sturm_count", counted(oracle._sturm_count))
        fd_interval_spectrum(2000, 10)
        assert work["rows"] <= 32_000
        work["calls"] = 0
        diag, off, norm = self._stencil(2000, length_over_pi)
        assert abs(_smallest_tridiagonal_eigenvalues(diag, off, 1)[0]) <= 16 * sys.float_info.epsilon * norm
        assert work["calls"] <= 2
        work["calls"] = 0
        assert _smallest_tridiagonal_eigenvalues(diag, off, 2)[1] == pytest.approx(1 / float(length_over_pi) ** 2, 1e-6)
        assert work["calls"] <= 14

    def test_guard_count_catches_a_missed_eigenvalue(self, monkeypatch):
        smallest = oracle._smallest_tridiagonal_eigenvalues
        monkeypatch.setattr(oracle, "_smallest_tridiagonal_eigenvalues",
                            lambda diag, off, count, seeds=(): smallest(diag, off, count + 1, seeds)[1:])
        with pytest.raises(ArithmeticError):
            fd_interval_spectrum(2000, 10)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fd_interval_spectrum(8, 2)
        with pytest.raises(ValueError):
            fd_interval_spectrum(100, 80)


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

    def test_count_only_loop_agrees_with_the_full_pass(self):
        """_sturm_count gives the count of _sturm_pass, also on pivots that
        are exactly 0 (x on a diagonal entry of a split matrix) and on a
        positive pivot below pivmin, which counts as negative."""
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(100):
            n = int(rng.integers(1, 30))
            diag = rng.normal(size=n)
            off = rng.normal(size=n - 1)
            off[rng.random(n - 1) < 0.4] = 0.0
            cases += [(diag.tolist(), off.tolist(), float(x)) for x in [*diag, *rng.normal(size=5)]]
        for diag, off, x in cases:
            off_sq, pivmin = oracle._pass_inputs(off)
            assert oracle._sturm_count(diag, off_sq, x, pivmin) == oracle._sturm_pass(diag, off_sq, x, pivmin)[0]
        # the first pivot, 1e-310, is positive and below pivmin
        assert oracle._sturm_count([1e-310, 2.0], [0.0, 0.0], 0.0, sys.float_info.min) == 1

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

    def test_one_block_rank_per_weight(self, monkeypatch):
        """Every parity class of one weight has the same block rank, and
        the kernel dimension, with no block ranked before, ranks one block
        per weight."""
        ranked = []
        exact_rank = oracle._exact_rank
        monkeypatch.setattr(oracle, "_exact_rank",
                            lambda columns, rows: ranked.append(rows) or exact_rank(columns, rows))
        monkeypatch.setattr(oracle, "_RANKS", {})
        for n in range(1, 5):
            for k in range(13):
                for free in (n + 1, n):
                    weights = range(k % 2, min(k, free) + 1, 2)
                    for weight in weights:
                        ranks = {oracle._block_rank(n, (k - weight) // 2, odd)
                                 for odd in itertools.combinations(range(free), weight)}
                        assert len(ranks) == 1
                    ranked.clear()
                    oracle._RANKS.clear()
                    oracle._laplacian_kernel_dimension(n, k, free)
                    assert len(ranked) == len(weights)

    def test_exact_rank_raises_on_a_repeated_lowest_row(self):
        """A lowest row that repeats before every row has one raises, whether
        the columns are dependent or not: the count never eliminates."""
        with pytest.raises(ArithmeticError, match="row 0"):
            oracle._exact_rank([{0: 1, 1: 3}, {0: 2, 1: 6}], 2)
        with pytest.raises(ArithmeticError, match="row 0"):
            oracle._exact_rank([{0: 2, 2: 1}, {1: 1}, {0: 1}], 3)

    def test_exact_rank_equals_numpy_rank_on_distinct_lowest_rows(self):
        """On 300 random sparse integer matrices whose columns have distinct
        lowest rows until every row has one, and any nonzero columns after,
        the count is numpy's rank; many have more columns than rows."""
        rng = random.Random(1)
        wide = 0
        for rows in range(1, 7):
            for _ in range(50):
                cols = rng.randint(1, rows + 3)
                leads = rng.sample(range(rows), min(cols, rows)) + [rng.randrange(rows) for _ in range(cols - rows)]
                columns = [{lead: rng.choice([-3, -2, -1, 1, 2, 3]),
                            **{r: v for r in range(lead + 1, rows) if rng.random() < 0.5 and (v := rng.randint(-3, 3))}}
                           for lead in leads]
                matrix = np.zeros((rows, cols), dtype=np.int64)
                for k, column in enumerate(columns):
                    for r, v in column.items():
                        matrix[r, k] = v
                assert oracle._exact_rank(columns, rows) == np.linalg.matrix_rank(matrix)
                wide += cols > rows
        assert wide > 100

    def test_exact_ranks_equal_the_closed_forms(self):
        for n in range(1, 95):
            for k in range(kernel_rank_degree_limit(n, 12) + 1):
                assert harmonic_dimension(n, k) == harmonic_multiplicity(n, k)
                if n >= 2:
                    assert even_harmonic_dimension(n, k) == even_harmonic_multiplicity(n, k)

    def test_degree_budget_shrinks_with_the_dimension(self):
        """n <= 4 keeps k <= 12; past it, the budget's largest basis is that
        of n = 4, k = 12, with 1820 monomials of 5 exponents."""
        limits = [kernel_rank_degree_limit(n, 12) for n in range(1, 97)]
        assert limits[:4] == [12, 12, 12, 12]
        assert limits[4:8] == [8, 6, 5, 4]
        assert limits == sorted(limits, reverse=True)
        assert limits[93:] == [1, 0, 0]  # n = 94, 95, 96
        assert kernel_rank_degree_limit(9100, 12) == -1

    def test_limits_enforced(self):
        for n, k in ((4, 13), (5, 9), (8, 5), (95, 1)):
            assert kernel_rank_degree_limit(n, k) == k - 1
            with pytest.raises(ValueError):
                harmonic_dimension(n, k)
            with pytest.raises(ValueError):
                even_harmonic_dimension(n, k)


def _draw_custom_family(data, float_mode, lambda_max, near=False):
    """A random exact or float custom family whose factors are complete up to
    ``lambda_max``, with levels on a positive threshold T1 or T2 (a == 0 or
    b == 0) and, if ``near``, within 3e-10 relative of one; and its instants,
    -b/a over the pairs with a * b < 0."""
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
            if near:
                pool = st.one_of(pool, st.integers(-3, 3).map(lambda k, t=threshold: t * (1 + value(k) / 10**10)))
        levels = [value(0)]
        for level in sorted(set(data.draw(st.lists(pool, max_size=5)))):
            if level - levels[-1] > 1e-6:  # float mode merges closer levels
                levels.append(level)
        factors.append(custom_spectrum(
            dim, curvature, [(level, 1 + k % 3) for k, level in enumerate(levels)], lambda_max,
            has_boundary=idx == 1, boundary_minimal=idx == 1,
            tolerance=1e-9 if float_mode else None,
        ))
        shifted.append([level - threshold for level in levels])
    return make_family(*factors), sorted({-b / a for a in shifted[0] for b in shifted[1] if a * b < 0})


class TestDenseScan:
    def test_bijection_with_exact_zeros(self, sphere_hemisphere):
        window = (0.01, 20)
        brackets = dense_scan_degeneracy(sphere_hemisphere, window, 100000, 60, 60)
        exact = [
            float(inst.s)
            for inst in degeneracy_instants(sphere_hemisphere, (Fraction(1, 100), 20))
        ]
        assert len(brackets) == len(exact)
        for (lo, hi), s in zip(brackets, exact):
            assert lo - 1e-9 <= s <= hi + 1e-9

    def test_rigid_family_finds_nothing(self, torus_interval):
        assert dense_scan_degeneracy(torus_interval, (0.01, 100), 5000, 50, 50) == []

    def test_bracket_width(self, sphere_interval):
        for lo, hi in dense_scan_degeneracy(sphere_interval, (0.5, 10), 5000, 30, 30):
            assert hi - lo <= 2e-10 * lo + 1e-12

    @pytest.mark.parametrize("tolerance, brackets", [(None, 5), (1e-9, 3)], ids=["exact", "float"])
    def test_zeros_within_the_tolerance_are_one_bracket(self, tolerance, brackets):
        """Closed levels 0, 1 and 1 + 1e-8 at R = -30 against boundary levels
        0 and 1 at R = 6: the twin levels give two pairs of zeros 1e-8
        relative apart.  Exact, they are five instants and five brackets;
        at tolerance 1e-9 each pair is one chain of the engine's, and one
        bracket."""
        value = Fraction if tolerance is None else float
        fam = make_family(
            custom_spectrum(2, -30, [(value(0), 1), (value(1), 1), (value("1.00000001"), 1)], 100,
                            tolerance=tolerance),
            custom_spectrum(2, 6, [(value(0), 1), (value(1), 1)], 100, has_boundary=True, boundary_minimal=True,
                            tolerance=tolerance),
        )
        window = (Fraction(1, 20), 1) if tolerance is None else (0.05, 1.0)
        found = dense_scan_degeneracy(fam, window, 20000, *enumeration_bounds(fam, window))
        assert len(found) == brackets == len(degeneracy_instants(fam, window))

    def test_coarse_grid_rejected(self, sphere_hemisphere):
        with pytest.raises(ValueError):
            dense_scan_degeneracy(sphere_hemisphere, (0.1, 10), 100, 30, 30)

    # at (0.1, 3.3) the float pow alone ends one ulp short of s_hi
    @pytest.mark.parametrize("window", [(0.01, 20.0), (0.1, 10.0), (1e-3, 150.0), (3.0, 3.0 * (1 + 1e-12)),
                                        (0.1, 3.3)])
    @pytest.mark.parametrize("samples", [1000, 1999, 20000])
    def test_grid_has_exact_ends_and_never_decreases(self, window, samples):
        points = [_grid_point(*window, samples, i) for i in range(samples)]
        assert points[0] == window[0] and points[-1] == window[1]
        assert all(x <= y for x, y in zip(points, points[1:]))

    @staticmethod
    def _every_branch_scan(fam, window, samples, lam):
        """The reference: the same scan with every pair of levels sampled at
        every point of the oracle's grid."""
        s_lo, s_hi = float(window[0]), float(window[1])
        grid = np.array([_grid_point(s_lo, s_hi, samples, i) for i in range(samples)])
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
        return [(float(lo), float(hi)) for lo, hi in merged]

    @given(data=st.data(), float_mode=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_same_brackets_as_sampling_every_branch(self, data, float_mode):
        """Skipping the pairs whose coefficients share a sign changes no
        bracket, down to the last bit: on exact and float custom families,
        with levels on T1 or T2 (a == 0 or b == 0) and window ends on
        instants."""
        value = float if float_mode else Fraction
        fam, instants = _draw_custom_family(data, float_mode, 12)
        end = st.fractions(Fraction(1, 8), 40, max_denominator=8).map(value)
        if instants:
            end = st.one_of(end, st.sampled_from(instants))
        window = sorted((data.draw(end), data.draw(end)))
        assume(window[0] < window[1])
        samples = data.draw(st.sampled_from([1000, 1999]))
        assert repr(dense_scan_degeneracy(fam, window, samples, 12, 12)) == repr(
            self._every_branch_scan(fam, window, samples, 12)
        )

    @staticmethod
    def _bisected_pair_brackets(a, b, point, samples, tol):
        """The reference: ``_pair_brackets`` with its sign flip found by
        bisection over the whole grid, as before the search started at the
        zero's grid index."""
        last = samples - 1
        grid = range(samples)

        def sign(i):
            value = a + b * (1.0 / point(i))
            return (value > 0) - (value < 0)

        first, final = sign(0), sign(last)
        up = (final > first) - (final < first)
        run = range(0) if first else grid
        if up:
            start = bisect_left(grid, 0, key=lambda i: up * sign(i))
            run = range(start, bisect_right(grid, 0, start, key=lambda i: up * sign(i)))
        ends = [end for end in (0, last) for inv in (1.0 / point(end),)
                if abs(a + b * inv) <= 1e-12 * (abs(a) + abs(b) * inv)]
        brackets = [(s * (1 - 1e-12), s * (1 + 1e-12)) for s in map(point, set(run).union(ends))]
        if tol is not None and a:
            zero, s_lo, s_hi = -b / a, point(0), point(last)
            end = s_lo if zero < s_lo else s_hi if zero > s_hi else None
            if end is not None and scalars.close(zero, end, tol):
                brackets.append((min(zero, end) * (1 - 1e-12), max(zero, end) * (1 + 1e-12)))
        if up and not run and {run.start - 1, run.start}.isdisjoint(ends):
            lo, hi = point(run.start - 1), point(run.start)
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
        return brackets

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_flip_search_from_the_zero_gives_the_bisected_brackets(self, data):
        """The search that starts at the grid index of -b/a gives the
        brackets of bisection over the whole grid, down to the last bit, on
        random pairs and windows and on zeros placed where a guess can miss:
        on a grid point, within 1e-12 of a window end, just outside the
        window, and -b/a past the float range when |a| is tiny against |b|;
        exact and in float mode at a tolerance."""
        s_lo = data.draw(st.floats(1e-4, 1e4))
        s_hi = s_lo * data.draw(st.sampled_from([1 + 1e-12, 1 + 1e-9, 1.5, 40.0, 1e6]))
        assume(s_lo < s_hi)
        samples = data.draw(st.integers(1000, 20000))
        point = functools.partial(_grid_point, s_lo, s_hi, samples)
        a = data.draw(st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-6))
        where = data.draw(st.sampled_from(["random", "grid point", "window end", "outside", "tiny a"]))
        if where == "random":
            b = data.draw(st.floats(-1e6, 1e6))
        elif where == "tiny a":
            a, b = data.draw(st.sampled_from([5e-324, -1e-300, 1e-20, 0.0])), data.draw(st.floats(-1e3, 1e3))
        else:
            if where == "grid point":
                zero = point(data.draw(st.integers(0, samples - 1)))
            else:
                end = data.draw(st.sampled_from([s_lo, s_hi]))
                shift = data.draw(st.floats(-1e-12, 1e-12) if where == "window end" else st.sampled_from([-2e-9, 2e-9]))
                zero = end * (1 + shift)
            b = -a * zero
        tol = data.draw(st.sampled_from([None, 1e-9]))
        got = sorted(oracle._pair_brackets(a, b, point, samples, tol))
        assert repr(got) == repr(sorted(self._bisected_pair_brackets(a, b, point, samples, tol)))

    @pytest.mark.parametrize("samples", [1000, 20000])
    @pytest.mark.parametrize("a, b", [(1.0, -0.37), (-2.5, 3.0), (1e-3, -2e-5), (7.0, -7.0 * 3.3)])
    def test_one_zero_in_the_window_samples_a_handful_of_points(self, a, b, samples):
        """A pair whose zero -b/a lies inside the window reads 7 grid
        points: both window ends, the two points around its grid index, the
        upper one again for the run of zeros, and the two again as the ends
        of the bracket it narrows; bisection over the grid read 24 to 35."""
        calls = []
        grid = functools.partial(_grid_point, 0.01, 10.0, samples)
        brackets = oracle._pair_brackets(a, b, lambda i: calls.append(i) or grid(i), samples, None)
        assert len(brackets) == 1 and brackets[0][0] <= -b / a <= brackets[0][1]
        assert len(calls) <= 7

    def test_same_brackets_as_sampling_on_a_narrow_window(self, sphere_hemisphere):
        """A window 1e-12 wide around an instant, where many grid points
        coincide, so the zero run and the flip fall among equal points."""
        s = float(degeneracy_instants(sphere_hemisphere, (1, 2))[0].s)
        for window in ((s * (1 - 5e-13), s * (1 + 5e-13)), (s, s * (1 + 1e-12)), (s * (1 - 1e-12), s)):
            brackets = dense_scan_degeneracy(sphere_hemisphere, window, 1000, 60, 60)
            assert brackets
            assert repr(brackets) == repr(self._every_branch_scan(sphere_hemisphere, window, 1000, 60))


class TestBruteForceIndex:
    def test_matches_engine_between_instants(self, sphere_hemisphere):
        instants = [
            inst.s for inst in degeneracy_instants(sphere_hemisphere, (Fraction(1, 100), 20))
        ]
        probes = [Fraction(1, 200)] + [
            (a + b) / 2 for a, b in zip(instants, instants[1:])
        ] + [25]
        for s in probes:
            assert brute_force_indices(sphere_hemisphere, [(s, 300, 300 * s)])[0] == morse_index(sphere_hemisphere, s)

    def test_matches_engine_other_families(self, sphere_interval, torus_hemisphere):
        for fam, probes in (
            (sphere_interval, [Fraction(1, 2), 2, Fraction(13, 2)]),
            (torus_hemisphere, [Fraction(1, 5), Fraction(1, 2), 5]),
        ):
            for s in probes:
                assert brute_force_indices(fam, [(s, 200, 200 * s)])[0] == morse_index(fam, s)

    @staticmethod
    def _double_loop(fam, s, lam1, lam2):
        """The per-point double loop over exact levels converted to float."""
        t1, t2 = float(fam.threshold1), float(fam.threshold2)
        count = 0
        for i, (r1, m1) in enumerate(fam.factor1.eigenvalues_leq(fam.coerce(lam1))):
            for j, (r2, m2) in enumerate(fam.factor2.eigenvalues_leq(fam.coerce(lam2))):
                if (i, j) != (0, 0) and float(r1) - t1 + (float(r2) - t2) / s < 0:
                    count += m1 * m2
        return count

    @staticmethod
    def _outer_sum(fam, points):
        """The reference: for each point, the outer sum of the two float
        coefficient tables, its negative entries masked, (0, 0) dropped, and
        the outer product of the multiplicities summed under the mask.  In
        float mode a coefficient x with |x| <= tol * max(1, |x|) reads 0."""
        points = [tuple(map(fam.coerce, point)) for point in points]
        (r1, m1), (r2, m2) = (
            (np.array([float(r) for r, _ in levels]), np.array([m for _, m in levels], dtype=np.int64))
            for levels in (fam.factor1.eigenvalues_leq(max(lam1 for _, lam1, _ in points)),
                           fam.factor2.eigenvalues_leq(max(lam2 for _, _, lam2 in points)))
        )
        a, b = r1 - float(fam.threshold1), r2 - float(fam.threshold2)
        if fam.tolerance is not None:
            a, b = (np.where(np.abs(x) <= fam.tolerance * np.maximum(1.0, np.abs(x)), 0.0, x) for x in (a, b))
        counts = []
        for s, lam1, lam2 in points:
            s = float(s)
            n1 = np.searchsorted(r1, float(lam1), side="right")
            n2 = np.searchsorted(r2, float(lam2), side="right")
            negative = a[:n1, None] + (b[:n2] / s)[None, :] < 0
            if negative.size:
                negative[0, 0] = False
            counts.append(int(np.outer(m1[:n1], m2[:n2])[negative].sum()))
        return counts

    @given(data=st.data(), float_mode=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_same_counts_as_the_outer_sum(self, data, float_mode):
        """On exact and float custom families with levels on a threshold or
        within 3e-10 relative of one, at points on and off the instants, each
        with the boundary bound lam1 * s or one past T2 + s*T1."""
        value = float if float_mode else Fraction
        fam, instants = _draw_custom_family(data, float_mode, 1000, near=True)
        instants = [s for s in instants if 1 / 8 <= s <= 40]  # lam1 * s stays below 1000
        where = st.fractions(Fraction(1, 8), 40, max_denominator=8).map(value)
        if instants:
            where = st.one_of(where, st.sampled_from(instants))
        points = []
        for s in data.draw(st.lists(where, min_size=1, max_size=4)):
            lam1 = max(fam.threshold1 + fam.threshold2 / s, 0) + value(data.draw(st.sampled_from([0, 1, 12])))
            lam2 = data.draw(st.sampled_from([lam1 * s, max(fam.threshold2 + s * fam.threshold1, 0) + 1]))
            points.append((s, lam1, lam2))
        assert brute_force_indices(fam, points) == self._outer_sum(fam, points)

    def test_same_counts_as_the_outer_sum_on_a_torus(self):
        fam = make_family(flat_torus([2, 1]), hemisphere_neumann(2, 2))
        points = []
        for k in range(40):
            s = Fraction(k + 1, 8)
            lam = max(fam.threshold1 + fam.threshold2 / s, 0) + 5 * (k % 4)
            points.append((s, lam, lam * s))
        assert brute_force_indices(fam, points) == self._outer_sum(fam, points)

    def test_same_counts_as_the_outer_sum_when_either_factor_is_longer(self, sphere_hemisphere):
        """At small s the closed factor has more levels within its bound than
        the boundary factor, and at large s the boundary factor has more, so
        each factor is walked at some points and bisected at others.  Each
        point reads both factors to their bounds at s, T1 + T2/s and
        T2 + s*T1, as verify's probes do, or 1 or 12 past them."""
        fam = sphere_hemisphere
        points = []
        for s in (Fraction(1, 300), Fraction(1, 40), Fraction(1, 3), 1, 7, 50, 300):
            theta1, theta2 = fam.threshold1 + fam.threshold2 / s, fam.threshold2 + s * fam.threshold1
            points += [(s, theta1 + extra, theta2 + extra) for extra in (0, 1, 12)]
        longer = {(len(fam.factor1.eigenvalues_leq(lam1)) > len(fam.factor2.eigenvalues_leq(lam2)))
                  for _, lam1, lam2 in points}
        assert longer == {True, False}
        assert brute_force_indices(fam, points) == self._outer_sum(fam, points)

    @pytest.mark.parametrize("name", ["sphere_hemisphere", "sphere_interval", "torus_hemisphere", "exact custom"])
    def test_indices_match_single_points(self, name, request):
        """One table for many points gives what each point gives alone,
        whatever the order of the points and their bounds, also where the
        boundary bound is below lam1 * s."""
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
            theta1 = max(float(fam.threshold1 + fam.threshold2 / fam.coerce(s)), 0.0)
            theta2 = max(float(fam.threshold2 + fam.coerce(s) * fam.threshold1), 0.0)
            points += [(s, theta1 + 1, (theta1 + 1) * s), (s, theta1 + 40, (theta1 + 40) * s),
                       (s, theta1 + 40, theta2 + 1)]
        assert any(lam2 < lam1 * s for s, lam1, lam2 in points)
        got = brute_force_indices(fam, points)
        assert got == [brute_force_indices(fam, [point])[0] for point in points]
        assert got == [self._double_loop(fam, *point) for point in points]
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
        bounds = _FLOAT_BOUNDS if name == "float custom" else _BOUNDS
        fresh = {}
        for bound in bounds:  # each from a table of its own, as in a fresh process
            spectra._TABLES.clear()
            fresh[bound] = make().eigenvalues_leq(bound), make().eigenvalues_below(bound)
        top = fresh[max(bounds)][0]
        for order in itertools.permutations(bounds):
            spectra._TABLES.clear()
            spec = make()
            for bound in order:
                assert (spec.eigenvalues_leq(bound), spec.eigenvalues_below(bound)) == fresh[bound]
            # level k is the k-th level up to any bound that holds it (T^2 has sides of unequal length)
            assert [spec.level(k) for k in range(len(top))] == top

    def test_float_bound_takes_in_levels_within_the_tolerance(self):
        assert _float_custom().eigenvalues_leq(1.4999999995)[-1] == (1.5, 1)
        assert _float_custom().eigenvalues_below(1.5000000005)[-1] == (0.5, 2)

    def test_rescaled_metric_has_its_own_table(self):
        spec = round_sphere(2)
        spec.eigenvalues_leq(50)
        scaled = spec._replace(parts=(Round(2, Fraction(2), False),))
        assert scaled.eigenvalues_leq(10) == [(Fraction(e, 2), m) for e, m in spec.eigenvalues_leq(20)]
        assert spec.eigenvalues_leq(10) == [(0, 1), (2, 3), (6, 5)]

    def test_smaller_bound_after_larger_does_not_enumerate(self, enumerations):
        spec = interval_neumann(1)
        assert len(spec.eigenvalues_leq(100)) == 11
        assert enumerations == [100]  # enumerated up to the argument, not beyond
        spec.eigenvalues_leq(10)
        spec.eigenvalues_below(50)
        assert spec.level(10) == (100, 1)
        assert enumerations == [100]
        spec.eigenvalues_leq(101)
        assert enumerations == [100, 101]

    def test_level_is_one_enumeration(self, enumerations):
        """Level k of [0, pi*lambda] is k^2/lambda^2, read by one enumeration to that bound,
        however short the interval."""
        spec = interval_neumann("1e-300")
        assert spec.level(9) == (81 / spec.parts[0].r2, 1)
        assert enumerations == [81 / spec.parts[0].r2]
