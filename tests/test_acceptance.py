"""Acceptance suite: one pass/fail line per criterion (run with -s to stream).

Criterion 1 appears twice: a literal test that compares the engine with a
hand-written list of instants, and an oracle-verified companion that checks
the same list against the dense-scan and brute-force oracles.

The literal lists follow from the branch formula in closed form. For
S^2 x S^2_+ with unit radii, m = 4 and R1 = R2 = 2, so T1 = T2 = 2/3, and
both factor spectra are k(k + 1). Then

    sigma_{i,j}(s) = (i(i+1) - 2/3) + (j(j+1) - 2/3)/s

has a zero only when its coefficients have opposite signs, which happens
only on the branches (i, 0) and (0, j):

    (i, 0): s = 2 / (3 i(i+1) - 2)   -> 1/2, 1/8, 1/17, 1/29, 1/44, 1/62,
                                        1/83, 1/107, ...
    (0, j): s = (3 j(j+1) - 2) / 2   -> 2, 8, 17, 29, ...

The family is symmetric under s <-> 1/s. On the symmetric window (1/20, 20)
the instants are the six values 1/17, 1/8, 1/2, 2, 8, 17. On the window
(1/100, 20) the branches (4, 0) to (7, 0) add 1/29, 1/44, 1/62 and 1/83,
which gives ten; (8, 0) at 1/107 and (0, 4) at 29 fall outside.
"""

from fractions import Fraction

import pytest

from yamabe_bifurcation import (
    EigenBranch,
    FamilyCase,
    Monotonicity,
    branch_from_indices,
    branch_zero,
    classify_family,
    custom_spectrum,
    degeneracy_instants,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    morse_index,
    round_sphere,
    sigma_value,
)
from yamabe_bifurcation.bifurcation import enumeration_bounds
from yamabe_bifurcation.oracle import (
    brute_force_indices,
    dense_scan_degeneracy,
    even_harmonic_dimension,
    fd_interval_spectrum,
    harmonic_dimension,
)


def report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


WINDOW = (Fraction(1, 100), 20)
WIDE = (Fraction(1, 1000), 1000)

FULL_INSTANTS = [
    Fraction(1, 83), Fraction(1, 62), Fraction(1, 44), Fraction(1, 29),
    Fraction(1, 17), Fraction(1, 8), Fraction(1, 2),
    Fraction(2), Fraction(8), Fraction(17),
]


def test_criterion_1_literal(sphere_hemisphere):
    """Literal instant lists for S^2 x S^2_+ over (0.01, 20) and (1/20, 20)."""
    expected = [
        Fraction(1, 83),  # (7, 0): 2 / (3*56 - 2)
        Fraction(1, 62),  # (6, 0): 2 / (3*42 - 2)
        Fraction(1, 44),  # (5, 0): 2 / (3*30 - 2)
        Fraction(1, 29),  # (4, 0): 2 / (3*20 - 2)
        Fraction(1, 17),  # (3, 0): 2 / (3*12 - 2)
        Fraction(1, 8),   # (2, 0): 2 / (3*6 - 2)
        Fraction(1, 2),   # (1, 0): 2 / (3*2 - 2)
        Fraction(2),      # (0, 1): (3*2 - 2) / 2
        Fraction(8),      # (0, 2): (3*6 - 2) / 2
        Fraction(17),     # (0, 3): (3*12 - 2) / 2
    ]
    # the symmetric window keeps the three innermost branches on each side
    expected_symmetric = [
        Fraction(1, 17), Fraction(1, 8), Fraction(1, 2),
        Fraction(2), Fraction(8), Fraction(17),
    ]
    result = classify_family(sphere_hemisphere, WINDOW)
    got = [ci.instant.s for ci in result.instants]
    symmetric = classify_family(sphere_hemisphere, (Fraction(1, 20), 20))
    got_symmetric = [ci.instant.s for ci in symmetric.instants]
    report(
        "criterion 1 (literal instant list)",
        got == expected and got_symmetric == expected_symmetric,
        "10 instants on (1/100, 20), 6 on (1/20, 20)",
    )


def test_criterion_1_oracle_verified(sphere_hemisphere):
    """The same scan checked against the independent oracles first."""
    brackets = dense_scan_degeneracy(sphere_hemisphere, (0.01, 20), 100000, 60, 60)
    ok = len(brackets) == len(FULL_INSTANTS) and all(
        lo - 1e-9 <= float(s) <= hi + 1e-9
        for s, (lo, hi) in zip(FULL_INSTANTS, brackets)
    )

    result = classify_family(sphere_hemisphere, WINDOW)
    got = [ci.instant.s for ci in result.instants]
    ok = ok and got == FULL_INSTANTS
    ok = ok and all(ci.certified for ci in result.instants)

    by_s = {ci.instant.s: ci for ci in result.instants}
    ok = ok and (by_s[Fraction(1, 2)].n_minus, by_s[Fraction(1, 2)].n_plus) == (3, 0)
    ok = ok and (by_s[Fraction(2)].n_minus, by_s[Fraction(2)].n_plus) == (0, 2)

    # brute-force the one-sided indices before believing the engine's pairs
    for ci in result.instants:
        s = float(ci.instant.s)
        eps = s * 1e-4
        probes = [(s - eps, 3000, 3000 * (s - eps)), (s + eps, 3000, 3000 * (s + eps))]
        ok = ok and brute_force_indices(sphere_hemisphere, probes) == [ci.n_minus, ci.n_plus]

    report(
        "criterion 1 (oracle-verified instants)",
        ok,
        f"{len(got)} instants, index pairs (3,0) at 1/2 and (0,2) at 2, all certified",
    )


def test_criterion_2_two_sided_accumulation(sphere_hemisphere):
    narrow = {i.s for i in degeneracy_instants(sphere_hemisphere, WINDOW)}
    wide = {i.s for i in degeneracy_instants(sphere_hemisphere, WIDE)}
    added = wide - narrow
    ok = bool(added)
    ok = ok and all(s < Fraction(1, 17) or s > 17 for s in added)
    # counts in a fixed compact subwindow are stable under widening
    sub = lambda instants: sorted(s for s in instants if Fraction(1, 20) <= s <= 20)
    ok = ok and sub(narrow) == sub(wide)
    report(
        "criterion 2 (two-sided accumulation)",
        ok,
        f"widening added {len(added)} instants, all outside [1/17, 17]",
    )


def test_criterion_3_rigidity(torus_interval):
    result = classify_family(torus_interval, WIDE)
    ok = result.case is FamilyCase.RIGID_NON_POSITIVE and result.instants == ()
    report("criterion 3 (non-positive rigidity)", ok, "zero instants over (1e-3, 1e3)")


def test_criterion_4_one_sided(sphere_interval, torus_hemisphere):
    window = (Fraction(1, 10), 20)
    inc = classify_family(sphere_interval, window)
    ok = inc.case is FamilyCase.INCREASING_UNBOUNDED
    ok = ok and [ci.instant.s for ci in inc.instants] == [1, 4, 9, 16]

    dec = classify_family(torus_hemisphere, window)
    ok = ok and dec.case is FamilyCase.DECREASING_TO_ZERO
    ok = ok and [ci.instant.s for ci in dec.instants] == [
        Fraction(2, 15), Fraction(1, 6), Fraction(1, 3), Fraction(2, 3),
    ]

    # derived check: branch_zero arithmetic and the dense-scan oracle agree
    for fam, cls in ((sphere_interval, inc), (torus_hemisphere, dec)):
        zeros = set()
        for i, (r1, _) in enumerate(fam.factor1.eigenvalues_leq(25)):
            for j, (r2, _) in enumerate(fam.factor2.eigenvalues_leq(25)):
                if i + j == 0:
                    continue
                z = branch_zero(branch_from_indices(fam, i, j))
                if z is not None and window[0] <= z <= window[1]:
                    zeros.add(z)
        ok = ok and sorted(zeros) == [ci.instant.s for ci in cls.instants]
        brackets = dense_scan_degeneracy(fam, (0.1, 20), 50000, 30, 30)
        ok = ok and len(brackets) == len(cls.instants)
    report("criterion 4 (one-sided sequences)", ok)


def test_criterion_5_taxonomy(sphere_hemisphere, sphere_interval, torus_hemisphere):
    ok = True
    for fam in (sphere_hemisphere, sphere_interval, torus_hemisphere):
        levels1 = fam.factor1.eigenvalues_leq(1000)
        levels2 = fam.factor2.eigenvalues_leq(1000)
        for i, (r1, m1) in enumerate(levels1):
            for j, (r2, m2) in enumerate(levels2):
                if i + j == 0:
                    continue
                br = EigenBranch(i, j, r1 - fam.threshold1, r2 - fam.threshold2, m1 * m2)
                z = branch_zero(br)
                ok = ok and (z is not None) == (br.a * br.b < 0)
                if z is not None:
                    ok = ok and z > 0 and sigma_value(br, z) == 0
                want = (
                    Monotonicity.DECREASING if br.b > 0
                    else Monotonicity.INCREASING if br.b < 0
                    else Monotonicity.CONSTANT
                )
                ok = ok and br.monotonicity is want

    # boundary cases through constructed branches: a = 0 and b = 0
    flat_in_a = EigenBranch(1, 1, Fraction(0), Fraction(3), 1)
    ok = ok and branch_zero(flat_in_a) is None
    ok = ok and sigma_value(flat_in_a, Fraction(1, 9)) > 0
    constant = EigenBranch(2, 1, Fraction(-4), Fraction(0), 2)
    ok = ok and branch_zero(constant) is None
    ok = ok and constant.monotonicity is Monotonicity.CONSTANT
    ok = ok and sigma_value(constant, 1) == sigma_value(constant, 100) == -4
    report("criterion 5 (branch-zero taxonomy)", ok, "all branches with rho <= 1e3")


def _homothetic_instants(fam, window):
    """The degeneracy instants on the window of the homothetic family
    (1/s) g1 (+) g2, by a double loop over the level pairs: at s its branch
    is s times that of g_s, the affine a*s + b, which vanishes at -b/a."""
    s_min, s_max = map(fam.coerce, window)
    lam1, lam2 = enumeration_bounds(fam, (s_min, s_max))
    found = set()
    for r1, _ in fam.factor1.eigenvalues_leq(max(lam1, 0)):
        for r2, _ in fam.factor2.eigenvalues_leq(max(lam2, 0)):
            a, b = r1 - fam.threshold1, r2 - fam.threshold2
            if (r1, r2) != (0, 0) and a != 0 and s_min <= -b / a <= s_max:
                found.add(-b / a)
    return sorted(found)


def test_criterion_6_homothety(sphere_hemisphere, sphere_interval, torus_hemisphere, torus_interval):
    ok = True
    window = (Fraction(1, 10), 10)
    for fam in (sphere_hemisphere, sphere_interval, torus_hemisphere, torus_interval):
        base = [inst.s for inst in degeneracy_instants(fam, window)]
        ok = ok and base == _homothetic_instants(fam, window)
    report("criterion 6 (homothety invariance)", ok, "identical exact instant sets")


def test_criterion_7_catalog_validation():
    ok = True
    values = fd_interval_spectrum(2000, 10)
    exact = interval_neumann(1).eigenvalues_leq(90)
    for k in range(10):
        want = float(exact[k][0])
        got = values[k]
        err = abs(got - want) / max(want, 1.0)
        ok = ok and err < 1e-3

    for n in (2, 3, 4):
        hemi = hemisphere_neumann(n, 1)
        ok = ok and all(
            hemi.level(k)[1] == even_harmonic_dimension(n, k) for k in range(11)
        )
        sphere = round_sphere(n, 1)
        ok = ok and all(
            sphere.level(k)[1] == harmonic_dimension(n, k) for k in range(13)
        )
    report("criterion 7 (catalog vs oracles)", ok, "FD rel err < 1e-3; kernel ranks match")


def test_criterion_8_jump_cancellation(cancelling_family):
    result = classify_family(cancelling_family, (Fraction(1, 4), 4))
    middle = next(ci for ci in result.instants if ci.instant.s == 1)
    ok = not middle.certified and middle.n_minus == middle.n_plus
    ok = ok and middle.instant.total_multiplicity == 4
    others = [ci for ci in result.instants if ci.instant.s != 1]
    ok = ok and all(ci.certified for ci in others)
    report(
        "criterion 8 (jump cancellation)",
        ok,
        f"s = 1 uncertified with n- = n+ = {middle.n_minus}",
    )
