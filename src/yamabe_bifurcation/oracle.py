"""Independent ground-truth computations used to validate the engine.

Everything here is intentionally naive -- bisection, echelon ranks,
exhaustive counts, dense grids -- and pure Python, and shares no
computation with the exact engine it checks, only the closeness rule
``scalars.close`` of float mode:

* finite-difference Neumann spectrum of [0, pi], by bisection on Sturm
  counts with Newton steps, on the even and odd mirror blocks of the stencil
  (Cantoni & Butler 1976), checked by one count on the whole stencil.  The
  odd block is counted first at the even block's eigenvalues, which
  interlace with its own, so Newton starts at once in each bracket; the
  method is in the docstring of ``fd_interval_spectrum`` and its helpers,
* harmonic-polynomial dimension counts by the exact rank of the Laplacian
  matrix on monomials, one block per parity class of the exponents (the
  Laplacian keeps them), by an echelon count that raises on a repeated
  lowest row, for the degrees whose monomial basis is within a fixed
  budget.  A permutation of the variables maps each class onto every other
  class of its weight and commutes with the Laplacian, so one block per
  weight is ranked and counted once for each class of that weight,
* sign-change scan for degeneracy instants on a dense log-spaced grid.  A
  branch a + b/s with a > 0, b >= 0 or a < 0, b <= 0 is skipped: its
  sampled value a + b*(1/s) adds two terms of one sign, so it has the
  strict sign of a at every grid point and never passes the 1e-12
  window-end test.  For the other pairs, the grid never decreases and
  fl(1/g), fl(b*x) and fl(a + y) are each monotone, so the sampled signs
  are a run of the sign at s_min, a run of zeros and a run of the sign at
  s_max, which meet at the grid index of the float zero -b/a if the signs
  flip there, or else where bisection over grid indices finds.  The
  brackets are thus bit for bit those of sampling every pair at every point.
  Brackets that overlap merge, and so do two whose far ends are one value
  by ``scalars.close``, so a chain of zeros that the engine counts as one
  instant is one bracket, unless two of its zeros are apart by less than
  the tolerance but by more than it less a bracket's width (1e-10 relative),
* brute-force Morse index over every pair of factor levels within the two
  bounds that come with each point, one per factor, as the scan takes its
  two, from one float coefficient list per factor; here and in the scan, a
  float-mode coefficient that ``scalars.close`` puts at 0 reads 0.0, as in
  the engine.  a_i + b_j/s is monotone in each float coefficient, so for each
  level of the factor with fewer levels within its bound, the other's with
  a_i + b_j/s < 0 are a prefix, found by bisection, counted by prefix sums.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import scalars
from .product import ProductFamily


def _sturm_pass(diag: Sequence[float], off_sq: Sequence[float], x: float, pivmin: float) -> Tuple[int, float]:
    """One LDL^T pass over T - xI: the number of eigenvalues below x (the
    negative pivots q_i) and the Newton step 1 / sum(q_i'/q_i) for
    det(T - xI), with q_i' = -1 + b_{i-1}^2 q_{i-1}' / q_{i-1}^2.  ``off_sq``
    holds 0 and then the squared off-diagonal; a pivot smaller than
    ``pivmin`` in magnitude is replaced by -pivmin, as in LAPACK's dstebz.
    The step is NaN when the sum vanishes."""
    count = 0
    q = 1.0
    ratio = total = 0.0  # ratio = q_i'/q_i
    for a, b2 in zip(diag, off_sq):
        t = b2 / q
        q = a - x - t
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        ratio = (t * ratio - 1.0) / q
        total += ratio
    return count, (1.0 / total if total else math.nan)


def _sturm_count(diag: Sequence[float], off_sq: Sequence[float], x: float, pivmin: float) -> int:
    """The count of ``_sturm_pass``, from the same pivots, without the
    Newton step."""
    count = 0
    q = 1.0
    for a, b2 in zip(diag, off_sq):
        q = a - x - b2 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


def _gershgorin(diag: Sequence[float], off: Sequence[float]) -> Tuple[float, float, float]:
    """The Gershgorin interval of the symmetric tridiagonal matrix and the
    bisection width 2 eps ||T|| that it bounds."""
    radius = list(map(abs, off))
    reach = list(map(operator.add, [0.0] + radius, radius + [0.0]))
    lowest, highest = min(map(operator.sub, diag, reach)), max(map(operator.add, diag, reach))
    return lowest, highest, 2 * sys.float_info.epsilon * max(abs(lowest), abs(highest))


def _pass_inputs(off: Sequence[float]) -> Tuple[List[float], float]:
    """The ``off_sq`` and ``pivmin`` arguments of ``_sturm_pass``."""
    off_sq = [0.0] + [b * b for b in off]
    return off_sq, sys.float_info.min * max([1.0] + off_sq)


def _midpoint(lo: float, hi: float) -> float:
    """Where to count next in the bracket (lo, hi): at the geometric
    midpoint while the bracket spans more than a factor of 4 above 0, at
    the midpoint after."""
    return math.sqrt(lo) * math.sqrt(hi) if 0 < 4 * lo < hi else 0.5 * (lo + hi)


def _smallest_tridiagonal_eigenvalues(diag: Sequence[float], off: Sequence[float], count: int,
                                      seeds: Sequence[float] = ()) -> List[float]:
    """The ``count`` smallest eigenvalues of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``, ascending, by bisection
    on Sturm counts (Barth, Martin & Wilkinson 1967) inside the Gershgorin
    interval, down to an absolute width of 2 eps ||T||.  Every count narrows
    the brackets of all the eigenvalues it separates.  A bracket that spans
    more than a factor of 4 above 0 is split at its geometric midpoint, so
    that a small eigenvalue of a stiff matrix is reached in a few counts.

    The first counts are at ``seeds``, ascending points >= 0 that should
    separate the eigenvalues (an interlacing block's), and, if only ``count``,
    at one as far past the last in square root as it is past the one before.

    Once an eigenvalue is alone in its bracket, the next point is the
    Newton iterate of det(T - xI) from the last one, as long as it falls
    inside the bracket; a bracket that is alone when its search starts
    starts at its sqrt-midpoint.  When the Newton step is below a quarter
    of the width, one count half a width inside the bracket closes it; a
    count that does not confirm the Newton estimate only moves the bracket
    end, and the search goes on.  Only a pass whose Newton step is read
    computes it (``_sturm_pass``); the others only count (``_sturm_count``).
    Otherwise the first count is taken half a width above the Gershgorin
    lower end, so that an eigenvalue on it (the constant mode of a Neumann
    stencil) is closed by that count alone."""
    lowest, highest, width = _gershgorin(diag, off)
    off_sq, pivmin = _pass_inputs(off)
    lo = [lowest] * count
    hi = [highest] * count
    below_lo = [0] * count  # eigenvalues counted below each bracket end
    below_hi = [len(diag)] * count

    def narrow(x, below, first):
        for other in range(first, count):
            if other < below:
                if x < hi[other]:
                    hi[other], below_hi[other] = x, below
            elif x > lo[other]:
                lo[other], below_lo[other] = x, below

    extra = [(2 * math.sqrt(seeds[-1]) - math.sqrt(seeds[-2])) ** 2] if count == len(seeds) > 1 else []
    for x in [*seeds[:count + 1], *extra]:
        narrow(x, _sturm_count(diag, off_sq, x, pivmin), 0)
    for k in range(count):
        x = lowest + 0.5 * width if k == 0 else _midpoint(lo[k], hi[k])
        newton = False  # whether the pass at x is to give the Newton step
        if below_hi[k] - below_lo[k] == 1 and lo[k] >= 0:  # alone: Newton from the sqrt-midpoint
            start = (0.5 * (math.sqrt(lo[k]) + math.sqrt(hi[k]))) ** 2
            x, newton = (start, True) if lo[k] < start < hi[k] else (x, newton)
        while hi[k] - lo[k] > width:
            if newton:
                below, step = _sturm_pass(diag, off_sq, x, pivmin)
            else:
                below, step = _sturm_count(diag, off_sq, x, pivmin), math.nan
            narrow(x, below, k)
            isolated = below_hi[k] - below_lo[k] == 1
            # a NaN step (from a count-only pass) fails both tests
            if isolated and abs(step) <= 0.25 * width:
                x, newton = (x + 0.5 * width if x == lo[k] else x - 0.5 * width), False
            elif isolated and lo[k] < x - step < hi[k]:
                x, newton = x - step, True
            else:
                x, newton = _midpoint(lo[k], hi[k]), isolated
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _mirror_eigenvalues(diag: List[float], off: List[float], count: int) -> List[float]:
    """The ``count`` smallest eigenvalues of the Neumann stencil (``diag``,
    ``off``), ascending.  One of an even size of at least 4 splits into its
    two mirror blocks: the even block, the Neumann stencil of half the rows,
    splits again by the same rule, and the odd block is bisected from the
    even block's eigenvalues, which interlace with its own.  Any other
    stencil is bisected whole, so that its first count closes the constant
    mode."""
    rows, c = len(diag), diag[0]
    if rows < 4 or rows % 2:
        return _smallest_tridiagonal_eigenvalues(diag, off, count)
    half = rows // 2
    evens, odds = (count + 1) // 2, count // 2  # the blocks take turns, even first
    even_diag, odd_diag, half_off = diag[:half], diag[:half], off[:half - 1]
    # u_{N/2+1} = +-u_{N/2} adds -+c to the last diagonal entry
    even_diag[-1] -= c
    odd_diag[-1] += c
    even = _mirror_eigenvalues(even_diag, half_off, evens)
    return sorted(even + _smallest_tridiagonal_eigenvalues(odd_diag, half_off, odds, even))


def fd_interval_spectrum(grid_points: int, count: int) -> Tuple[float, ...]:
    """First ``count`` Neumann eigenvalues of -d^2/dx^2 on [0, pi], whose exact values
    are k^2, and lambda^2 times those of [0, pi*lambda], which no float need hold.

    Cell-centered second-order stencil: nodes x_i = (i - 1/2) h, ghost values
    reflected across the boundary (u_0 = u_1, u_{N+1} = u_N), which encodes
    the zero-derivative condition and keeps the tridiagonal matrix symmetric.

    The stencil is its own mirror image, so its eigenvectors are even
    (u_{N+1-i} = u_i) or odd (u_{N+1-i} = -u_i), and each kind solves a
    block of half the rows, closed at the middle by the mirror condition.
    Its eigenvalues are simple and the k-th eigenvector changes sign k
    times, so the blocks take turns from the constant mode (even) on: the
    ceil(count/2) smallest of the even block and the floor(count/2)
    smallest of the odd block are the count smallest.  The stencil splits
    when N is even, and the even block, the Neumann stencil of N/2 rows
    with the same h, splits the same way, down to an odd size; an odd N is
    bisected whole.  One Sturm count on the whole stencil just above the
    largest eigenvalue found must find exactly ``count``.
    """
    if grid_points < 16:
        raise ValueError("need at least 16 grid points")
    if count > grid_points // 4:
        raise ValueError("too many eigenvalues requested for this grid")
    h = math.pi / grid_points
    c = 1.0 / h**2
    diag = [2.0 * c] * grid_points
    diag[0] = diag[-1] = c
    off = [-c] * (grid_points - 1)
    values = _mirror_eigenvalues(diag, off, count)
    # 16 eps ||T|| above: past the rounding of the bracket and of both passes
    _, _, width = _gershgorin(diag, off)
    off_sq, pivmin = _pass_inputs(off)
    if values and _sturm_count(diag, off_sq, values[-1] + 8 * width, pivmin) != count:
        raise ArithmeticError("the mirror blocks missed an eigenvalue of the stencil")
    return tuple(values)


@functools.lru_cache(maxsize=None)
def _monomials(total: int, nvars: int) -> Tuple[Tuple[int, ...], ...]:
    """The exponent tuples of the degree-``total`` monomials in ``nvars``
    variables; cached, so the result is shared and immutable."""
    if nvars == 1:
        return ((total,),)
    return tuple((head,) + rest for head in range(total + 1) for rest in _monomials(total - head, nvars - 1))


def _exact_rank(columns: Iterable[Dict[int, int]], rows: int) -> int:
    """Rank of an integer matrix with ``rows`` rows and nonzero sparse
    columns ({row: nonzero entry}), by an echelon count: the number of
    distinct lowest rows, recorded until every row has one.  A lowest row
    that repeats before then raises ArithmeticError: the count is no rank."""
    leads = set()
    for col in columns:
        if len(leads) == rows:
            break
        lead = min(col)
        if lead in leads:
            raise ArithmeticError(f"two columns have their lowest entry in row {lead}")
        leads.add(lead)
    return len(leads)


# the exponents in the degree-12 monomial basis in 5 variables, the largest
# basis of the n <= 4, k <= 12 checks; no check within it costs more than
# the n = 4 sphere's (11 ms for k <= 12 on a 2-core x86-64 box, Python 3.11)
_BASIS_BUDGET = 5 * math.comb(16, 4)
_RANKS: Dict[Tuple[int, int, int], int] = {}  # (n, |f|, |p|) -> block rank, for the whole process


def kernel_rank_degree_limit(n: int, most: int) -> int:
    """The largest degree k <= ``most`` whose monomial basis in n+1
    variables, C(n+k, n) monomials of n+1 exponents each, is within the
    budget of the kernel-rank oracles; -1 when none is."""
    return next((k for k in range(most, -1, -1) if (n + 1) * math.comb(n + k, n) <= _BASIS_BUDGET), -1)


def _block_rank(n: int, size: int, odd) -> int:
    """The exact rank of the Laplacian's block on the monomials
    x^p (x^2)^f in n+1 variables with |f| = ``size``, where p is 1 on the
    variables in ``odd`` and 0 elsewhere: x^p (x^2)^f maps to
    sum_v e_v (e_v - 1) x^p (x^2)^(f - 1_v), e_v = p_v + 2 f_v.  For
    |f| = 0 the block is one zero column and no row."""
    rows = {f: row for row, f in enumerate(_monomials(size - 1, n + 1))}
    # from the largest first exponent down, the columns' lowest rows are new
    columns = ({rows[f[:v] + (f[v] - 1,) + f[v + 1:]]: e * (e - 1)
                for v in range(n + 1) if f[v] for e in ((v in odd) + 2 * f[v],)}
               for f in reversed(_monomials(size, n + 1)))
    return _exact_rank(columns, len(rows))


def _laplacian_kernel_dimension(n: int, k: int, free: int) -> int:
    """Dimension of the kernel of the Laplacian on the degree-k polynomials
    in n+1 variables whose exponents are even from variable ``free`` on.
    The Laplacian keeps the parity class p in {0,1}^(n+1) of every
    monomial, so its matrix has one block per class (``_block_rank``).  A
    permutation of the first ``free`` variables maps a class onto every
    other class of the same weight |p| and commutes with the Laplacian, so
    the C(free, |p|) blocks of one weight have the same rank, and the one
    with p odd on the first |p| variables is ranked once for all of them
    and for every later call (``_RANKS``), a hemisphere's or a sphere's."""
    if kernel_rank_degree_limit(n, k) != k:
        raise ValueError(f"degree {k} in {n + 1} variables is past the kernel-rank budget")
    total = 0
    for weight in range(k % 2, min(k, free) + 1, 2):
        size = (k - weight) // 2  # |f|
        rank = _RANKS.get(key := (n, size, weight))
        if rank is None:
            rank = _RANKS[key] = _block_rank(n, size, range(weight))
        total += math.comb(free, weight) * (math.comb(n + size, n) - rank)
    return total


def harmonic_dimension(n: int, k: int) -> int:
    """Dimension of degree-k harmonic polynomials in n+1 variables, by rank
    of the Laplacian acting on the monomial basis."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    return _laplacian_kernel_dimension(n, k, n + 1)


def even_harmonic_dimension(n: int, k: int) -> int:
    """Dimension of degree-k harmonic polynomials in n+1 variables that are
    even in the last variable.  The Laplacian preserves that parity, so the
    kernel is computed on the parity classes even in it alone."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2, k >= 0")
    return _laplacian_kernel_dimension(n, k, n)


def _grid_point(s_lo: float, s_hi: float, samples: int, i: int) -> float:
    """Point i of the scan's grid: s_lo * (s_hi/s_lo)**(i/(samples - 1)),
    at most s_hi, and s_hi at i = samples - 1.  The points never decrease
    as long as the float pow does not in its exponent, as the tests check."""
    return s_hi if i == samples - 1 else min(s_lo * (s_hi / s_lo) ** (i / (samples - 1)), s_hi)


def _pair_brackets(a: float, b: float, point, samples: int, tol: Optional[float]) -> List[Tuple[float, float]]:
    """The brackets of the sampled a + b*(1/s), whose raw signs are monotone
    along the grid: one around each point where it is zero, or within 1e-12
    of its terms on a window end (no neighbor to flip with), and its sign
    flip, found from the zero's grid index or by bisection, and narrowed to
    relative width 1e-10.  In float mode, as in the engine's walk, a zero
    -b/a past a window end but within ``tol`` of it lies in the window: its
    bracket runs from the end to it."""
    last = samples - 1
    grid = range(samples)
    s_lo, s_hi, zero = point(0), point(last), -b / a if a else math.inf

    def sign(s):
        value = a + b * (1.0 / s)
        return (value > 0) - (value < 0)

    first, final = sign(s_lo), sign(s_hi)
    up = (final > first) - (final < first)  # orients the signs to never decrease
    run = range(0) if first else grid  # when the sign stays put
    if up:
        def key(i):
            return up * sign(point(i))
        share = math.log(zero / s_lo) / math.log(s_hi / s_lo) if s_lo < zero < s_hi else 0.0
        start = max(1, math.ceil(share * last)) if share < 1 else last
        if not key(start - 1) < 0 <= key(start):
            start = bisect_left(grid, 0, key=key)
        run = range(start, start if key(start) > 0 else bisect_right(grid, 0, start, key=key))
    ends = [end for end, inv in ((0, 1.0 / s_lo), (last, 1.0 / s_hi))
            if abs(a + b * inv) <= 1e-12 * (abs(a) + abs(b) * inv)]
    brackets = [(s * (1 - 1e-12), s * (1 + 1e-12)) for s in map(point, set(run).union(ends))]
    if tol is not None and a:
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


def _coefficients(levels, threshold, tol: Optional[float]) -> List[float]:
    """The float coefficients r - threshold of the levels; in float mode a
    coefficient x that ``scalars.close`` puts at 0 is 0.0, as the engine reads it."""
    values = [float(r) - float(threshold) for r, _ in levels]
    return values if tol is None else [0.0 if scalars.close(x, 0, tol) else x for x in values]


def dense_scan_degeneracy(
    fam: ProductFamily, window, samples: int, lam1, lam2
) -> List[Tuple[float, float]]:
    """Bracket every zero in the window of the branches whose levels are at
    most ``lam1`` on the closed factor and ``lam2`` on the boundary factor,
    by the sign changes of sigma on a dense log-spaced grid, whose points are
    computed where read.  A bracket merges into the one before it when they
    overlap, or when ``scalars.close`` makes its upper end and the lower end
    of the one before one value: their zeros are then a chain of the engine's."""
    if samples < 1000:
        raise ValueError("sample grid too coarse; use at least 1000 samples")
    s_lo, s_hi = float(window[0]), float(window[1])
    if not (0 < s_lo < s_hi):
        raise ValueError("window must satisfy 0 < s_min < s_max")
    point = functools.partial(_grid_point, s_lo, s_hi, samples)
    a_values = _coefficients(fam.factor1.eigenvalues_leq(fam.coerce(lam1)), fam.threshold1, fam.tolerance)
    b_values = _coefficients(fam.factor2.eigenvalues_leq(fam.coerce(lam2)), fam.threshold2, fam.tolerance)
    brackets = []
    # the first pair, (0, 0), is the constants', not a branch
    for a, b in itertools.islice(itertools.product(a_values, b_values), 1, None):
        if not ((a > 0 and b >= 0) or (a < 0 and b <= 0)):  # else it keeps a strict sign
            brackets += _pair_brackets(a, b, point, samples, fam.tolerance)
    brackets.sort()
    merged: List[Tuple[float, float]] = []
    for k, (lo, hi) in enumerate(brackets):
        if merged and (lo <= merged[-1][1] or scalars.close(hi, brackets[k - 1][0], fam.tolerance)):
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def brute_force_indices(fam: ProductFamily, points: Sequence[Tuple[float, float, float]]) -> List[int]:
    """For each (s, lam1, lam2): sum the multiplicities of all (i, j) != (0, 0)
    with rho_i <= lam1, rho_j <= lam2 and sigma_{i,j}(s) < 0.  Each factor's
    levels become one float list, at the largest bound any point gives it,
    taken in the family's scalars, so that an exact bound reads no level
    past it.  The pairs with sigma_{i,j}(s) < 0 are a prefix in j for each i, and in i for each j."""
    points = [tuple(map(fam.coerce, point)) for point in points]
    if any(s <= 0 for s, _, _ in points):
        raise ValueError("family parameter s must be positive")
    if not points:
        return []
    levels1 = fam.factor1.eigenvalues_leq(max(lam1 for _, lam1, _ in points))
    levels2 = fam.factor2.eigenvalues_leq(max(lam2 for _, _, lam2 in points))
    r1, m1 = [float(r) for r, _ in levels1], [m for _, m in levels1]
    r2, m2 = [float(r) for r, _ in levels2], [m for _, m in levels2]
    a_values = _coefficients(levels1, fam.threshold1, fam.tolerance)
    b_values = _coefficients(levels2, fam.threshold2, fam.tolerance)
    below1, below2 = (list(itertools.accumulate(m, initial=0)) for m in (m1, m2))  # below[k] = sum(m[:k])
    counts = []
    for s, lam1, lam2 in points:
        s = float(s)
        n1, n2 = bisect_right(r1, float(lam1)), bisect_right(r2, float(lam2))
        if n1 <= n2:  # walk the factor with fewer levels in its bound, bisect the other
            count = sum(m * below2[bisect_left(b_values, True, 0, n2, key=lambda b: a + b / s >= 0)]
                        for a, m in zip(a_values[:n1], m1))
        else:
            count = sum(m * below1[bisect_left(a_values, True, 0, n1, key=lambda a: a + b / s >= 0)]
                        for b, m in zip(b_values[:n2], m2))
        if n1 and n2 and a_values[0] + b_values[0] / s < 0:  # the constants' (0, 0) is not a branch
            count -= m1[0] * m2[0]
        counts.append(count)
    return counts
