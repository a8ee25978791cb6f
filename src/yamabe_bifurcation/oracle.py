"""Independent ground-truth computations used to validate the engine.

Everything here is intentionally naive -- bisection, dense linear algebra,
exhaustive counts, dense scans -- and shares no computation with the exact
engine it checks:

* finite-difference Neumann spectrum of the interval, by bisection on Sturm
  counts, with a Newton step on det(T - xI) taken from the same LDL^T pass
  once an eigenvalue is alone in its bracket,
* harmonic-polynomial dimension counts by the numeric rank of the explicit
  Laplacian matrix on monomials.  The Laplacian keeps the parity of every
  exponent, so the matrix is built block by block, one block per parity
  class, and the blocks of one weight (number of odd exponents) share a
  shape and are ranked in one stacked call,
* dense sign-change scan for degeneracy instants.  A branch a + b/s
  vanishes only when a and b have strictly opposite signs, so a pair with
  a > 0, b >= 0 or a < 0, b <= 0 is skipped.  Under IEEE rounding its
  sampled value a + b*(1/s) adds two terms of one sign: it has the strict
  sign of a at every grid point, and its magnitude is the sum |a| + |b|/s
  that the 1e-12 window-end test scales, so it gives no bracket.  The scan
  therefore returns the same brackets, bit for bit, as one that samples
  every pair.  Pairs with a == 0 are still sampled,
* brute-force Morse index, counted over every pair of factor levels from one
  float table per factor.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .product import ProductFamily


class GridSpectrum(NamedTuple):
    grid_points: int
    eigenvalues: Tuple[float, ...]
    error_estimate: float  # worst-case relative discretization error, O(h^2)


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


def _smallest_tridiagonal_eigenvalues(diag: Sequence[float], off: Sequence[float], count: int) -> List[float]:
    """The ``count`` smallest eigenvalues of the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``, ascending, by bisection
    on Sturm counts (Barth, Martin & Wilkinson 1967) inside the Gershgorin
    interval, down to an absolute width of 2 eps ||T||.  Every count narrows
    the brackets of all the eigenvalues it separates.

    Once an eigenvalue is alone in its bracket, the next point is the Newton
    iterate of det(T - xI) from the last one, as long as it falls inside the
    bracket.  When the Newton step is below a quarter of the width, one count
    half a width inside the bracket closes it; a count that does not confirm
    the Newton estimate only moves the bracket end, and the search goes on."""
    radius = [abs(b) for b in off]
    discs = list(zip(diag, [0.0] + radius, radius + [0.0]))
    lowest = min(d - left - right for d, left, right in discs)
    highest = max(d + left + right for d, left, right in discs)
    width = 2 * sys.float_info.epsilon * max(abs(lowest), abs(highest))
    off_sq = [0.0] + [b * b for b in off]
    pivmin = sys.float_info.min * max([1.0] + off_sq)
    lo = [lowest] * count
    hi = [highest] * count
    below_lo = [0] * count  # eigenvalues counted below each bracket end
    below_hi = [len(diag)] * count
    for k in range(count):
        x = 0.5 * (lo[k] + hi[k])
        while hi[k] - lo[k] > width:
            below, step = _sturm_pass(diag, off_sq, x, pivmin)
            for other in range(k, count):
                if other < below:
                    if x < hi[other]:
                        hi[other], below_hi[other] = x, below
                elif x > lo[other]:
                    lo[other], below_lo[other] = x, below
            isolated = below_hi[k] - below_lo[k] == 1
            if isolated and abs(step) <= 0.25 * width:
                x = x + 0.5 * width if x == lo[k] else x - 0.5 * width
            elif isolated and lo[k] < x - step < hi[k]:
                x -= step
            else:
                x = 0.5 * (lo[k] + hi[k])
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def fd_interval_spectrum(length_over_pi, grid_points: int, count: int) -> GridSpectrum:
    """First ``count`` Neumann eigenvalues of -d^2/dx^2 on [0, pi*lambda].

    Cell-centered second-order stencil: nodes x_i = (i - 1/2) h, ghost values
    reflected across the boundary (u_0 = u_1, u_{N+1} = u_N), which encodes
    the zero-derivative condition and keeps the tridiagonal matrix symmetric.
    """
    if grid_points < 16:
        raise ValueError("need at least 16 grid points")
    if count > grid_points // 4:
        raise ValueError("too many eigenvalues requested for this grid")
    length = math.pi * float(length_over_pi)
    if length <= 0:
        raise ValueError("interval length must be positive")
    h = length / grid_points
    diag = [2.0 / h**2] * grid_points
    diag[0] = diag[-1] = 1.0 / h**2
    off = [-1.0 / h**2] * (grid_points - 1)
    values = _smallest_tridiagonal_eigenvalues(diag, off, count)
    # lambda_k^FD = (4/h^2) sin^2(k pi h / (2 L)); relative error ~ (k pi h / L)^2 / 12
    worst = (count * math.pi * h / length) ** 2 / 12.0
    return GridSpectrum(grid_points, tuple(values), worst)


def _monomials(total: int, nvars: int) -> List[Tuple[int, ...]]:
    if nvars == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        out.extend((head,) + rest for rest in _monomials(total - head, nvars - 1))
    return out


def _laplacian_kernel_dimension(degree: int, nvars: int, free: int) -> int:
    """Dimension of the kernel of the Laplacian on the degree-``degree``
    polynomials in ``nvars`` variables whose exponents are even from variable
    ``free`` on.

    The Laplacian lowers one exponent by 2, so it keeps the parity class
    p in {0,1}^nvars of every monomial: its matrix is block diagonal, with
    one block per class on the monomials x^p (x^2)^f, |f| = (degree - |p|)/2.
    x^p (x^2)^f maps to sum_v e_v (e_v - 1) x^p (x^2)^(f - 1_v), with
    e_v = p_v + 2 f_v, and every f' with |f'| = |f| - 1 is such an image.
    The blocks of the classes of one weight |p| have one shape, so each
    weight is one stacked numeric rank, each block with its own tolerance."""
    total = 0
    for weight in range(degree % 2, min(degree, free) + 1, 2):
        parities = np.array([
            [v in odd for v in range(nvars)] for odd in itertools.combinations(range(free), weight)
        ], dtype=np.int64)
        classes = len(parities)
        size = (degree - weight) // 2  # |f|
        if size == 0:  # x^p alone, which the Laplacian kills
            total += classes
            continue
        halves = _monomials(size, nvars)  # the f of one block's columns
        rows = {f: row for row, f in enumerate(_monomials(size - 1, nvars))}
        row, col, var, half = np.array([
            (rows[f[:v] + (f[v] - 1,) + f[v + 1:]], c, v, f[v])
            for c, f in enumerate(halves) for v in range(nvars) if f[v]
        ]).T
        exponent = 2 * half + parities[:, var]  # one row per class
        blocks = np.zeros((classes, len(rows), len(halves)))
        blocks[:, row, col] = exponent * (exponent - 1)
        total += classes * len(halves) - int(np.linalg.matrix_rank(blocks).sum())
    return total


def harmonic_dimension(n: int, k: int) -> int:
    """Dimension of degree-k harmonic polynomials in n+1 variables, by rank
    of the Laplacian acting on the monomial basis."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    if n > 4 or k > 12:
        raise ValueError("dense rank computation limited to n <= 4, k <= 12")
    return _laplacian_kernel_dimension(k, n + 1, n + 1)


def even_harmonic_dimension(n: int, k: int) -> int:
    """Dimension of degree-k harmonic polynomials in n+1 variables that are
    even in the last variable.  The Laplacian preserves that parity, so the
    kernel is computed on the parity classes even in it alone."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2, k >= 0")
    if n > 4 or k > 12:
        raise ValueError("dense rank computation limited to n <= 4, k <= 12")
    return _laplacian_kernel_dimension(k, n + 1, n)


def _float_table(spectrum, bound) -> Tuple[np.ndarray, np.ndarray]:
    """The levels up to ``bound`` as arrays of float values and integer
    multiplicities."""
    levels = spectrum.eigenvalues_leq(bound)
    return np.array([float(r) for r, _ in levels]), np.array([m for _, m in levels], dtype=np.int64)


def dense_scan_degeneracy(
    fam: ProductFamily, window, samples: int, lam1, lam2
) -> List[Tuple[float, float]]:
    """Bracket every zero in the window of the branches whose levels are at
    most ``lam1`` on the closed factor and ``lam2`` on the boundary factor,
    by sampling sigma on a dense log-spaced grid and bisecting each sign
    change down to relative width 1e-10; overlapping brackets (coincident
    zeros) are merged."""
    if samples < 1000:
        raise ValueError("sample grid too coarse; use at least 1000 samples")
    s_lo, s_hi = float(window[0]), float(window[1])
    if not (0 < s_lo < s_hi):
        raise ValueError("window must satisfy 0 < s_min < s_max")
    grid = np.geomspace(s_lo, s_hi, samples)
    inv = 1.0 / grid
    # Python floats, since each flip is bisected in scalar arithmetic
    a_values = (_float_table(fam.factor1, fam.coerce(lam1))[0] - float(fam.threshold1)).tolist()
    b_values = (_float_table(fam.factor2, fam.coerce(lam2))[0] - float(fam.threshold2)).tolist()
    brackets = []
    # the first pair, (0, 0), is the constants', not a branch
    for a, b in itertools.islice(itertools.product(a_values, b_values), 1, None):
        if (a > 0 and b >= 0) or (a < 0 and b <= 0):
            continue  # a + b/s keeps a strict sign on the whole grid; see the module docstring
        values = a + b * inv
        signs = np.sign(values)
        # a zero on a window end rounds to a tiny value and has no neighbor to flip with
        for end in (0, -1):
            if abs(values[end]) <= 1e-12 * (abs(a) + abs(b) * inv[end]):
                signs[end] = 0.0
        exact_hits = np.nonzero(signs == 0.0)[0]
        for idx in exact_hits:
            s = grid[idx]
            brackets.append((s * (1 - 1e-12), s * (1 + 1e-12)))
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        for idx in flips:
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
    merged: List[Tuple[float, float]] = []
    for lo, hi in brackets:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def brute_force_indices(fam: ProductFamily, points: Sequence[Tuple[float, float]]) -> List[int]:
    """For each (s, lam): sum the multiplicities of all (i, j) != (0, 0) with
    rho_i <= lam, rho_j <= lam*s and sigma_{i,j}(s) < 0.  Each factor's
    levels become one float table, at the largest bound any point needs,
    taken in the family's scalars, so that an exact bound reads no level
    past it; each point is one outer sum over the table's leading part.  No
    cleverness."""
    points = [(fam.coerce(s), fam.coerce(lam)) for s, lam in points]
    for s, lam in points:
        if s <= 0:
            raise ValueError("family parameter s must be positive")
        if lam < fam.threshold1 + fam.threshold2 / s:
            raise ValueError("lambda bound below R(s)/(m-1); enumeration would be incomplete")
    if not points:
        return []
    r1, m1 = _float_table(fam.factor1, max(lam for _, lam in points))
    r2, m2 = _float_table(fam.factor2, max(lam * s for s, lam in points))
    t1 = float(fam.threshold1)
    t2 = float(fam.threshold2)
    counts = []
    for s, lam in points:
        s, lam = float(s), float(lam)
        n1 = np.searchsorted(r1, lam, side="right")
        n2 = np.searchsorted(r2, lam * s, side="right")
        negative = (r1[:n1] - t1)[:, None] + ((r2[:n2] - t2) / s)[None, :] < 0
        if negative.size:  # the constants' (0, 0) is not a branch
            negative[0, 0] = False
        counts.append(int(np.outer(m1[:n1], m2[:n2])[negative].sum()))
    return counts


def brute_force_index(fam: ProductFamily, s, lam) -> int:
    """The brute-force Morse index at one point; see brute_force_indices."""
    return brute_force_indices(fam, [(s, lam)])[0]
