from fractions import Fraction

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from yamabe_bifurcation import (
    DegeneracyInstantError,
    DegeneratePairError,
    EigenBranch,
    FamilyCase,
    IncompleteSpectrumError,
    Monotonicity,
    RecountError,
    YamabeError,
    branch_from_indices,
    branch_zero,
    classify_family,
    critical_indices,
    custom_spectrum,
    degeneracy_instants,
    index_jump,
    is_degenerate_pair,
    make_family,
    morse_index,
    sigma_value,
)
from yamabe_bifurcation import bifurcation, cli, scalars
from yamabe_bifurcation.oracle import brute_force_indices

WINDOW = (Fraction(1, 100), 20)

# zeros of the ten branches of S^2 x S^2_+ that vanish inside (0.01, 20),
# cross-checked against the dense sign-change scan oracle in test_oracle.py
SPHERE_HEMI_INSTANTS = [
    Fraction(1, 83),
    Fraction(1, 62),
    Fraction(1, 44),
    Fraction(1, 29),
    Fraction(1, 17),
    Fraction(1, 8),
    Fraction(1, 2),
    Fraction(2),
    Fraction(8),
    Fraction(17),
]


class TestBranches:
    def test_coefficients_and_values(self, sphere_hemisphere):
        br = branch_from_indices(sphere_hemisphere, 0, 1)
        assert (br.a, br.b, br.multiplicity) == (Fraction(-2, 3), Fraction(4, 3), 2)
        assert sigma_value(br, 1) == Fraction(2, 3)
        assert sigma_value(br, 2) == 0
        assert br.monotonicity is Monotonicity.DECREASING

    def test_zero_taxonomy_examples(self, sphere_hemisphere):
        assert branch_zero(branch_from_indices(sphere_hemisphere, 0, 1)) == 2
        assert branch_zero(branch_from_indices(sphere_hemisphere, 1, 0)) == Fraction(1, 2)
        assert branch_zero(branch_from_indices(sphere_hemisphere, 2, 0)) == Fraction(1, 8)
        assert branch_zero(branch_from_indices(sphere_hemisphere, 1, 1)) is None

    def test_domain_excludes_constants(self):
        with pytest.raises(ValueError):
            EigenBranch(0, 0, Fraction(1), Fraction(1), 1)

    def test_constant_branch(self):
        br = EigenBranch(1, 0, Fraction(2), Fraction(0), 3)
        assert br.monotonicity is Monotonicity.CONSTANT
        assert branch_zero(br) is None
        assert sigma_value(br, Fraction(1, 7)) == sigma_value(br, 7) == 2

    def test_zero_coefficient_a_means_no_zero(self):
        br = EigenBranch(1, 1, Fraction(0), Fraction(5, 3), 2)
        assert branch_zero(br) is None
        assert br.monotonicity is Monotonicity.DECREASING

    @given(
        a=st.fractions(min_value=-10, max_value=10, max_denominator=12),
        b=st.fractions(min_value=-10, max_value=10, max_denominator=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_iff_strictly_opposite_signs(self, a, b):
        br = EigenBranch(1, 1, a, b, 1)
        z = branch_zero(br)
        if (a > 0 and b < 0) or (a < 0 and b > 0):
            assert z == -b / a and z > 0
            assert sigma_value(br, z) == 0
        else:
            assert z is None
            # sign of sigma never crosses zero on a sample of the ray
            signs = {
                (sigma_value(br, s) > 0) - (sigma_value(br, s) < 0)
                for s in (Fraction(1, 97), Fraction(1, 3), 1, 5, 101)
            }
            assert not ({1, -1} <= signs)


def _attained(fam):
    """Whether level i* of the closed factor equals T1 and level j* of the
    boundary factor equals T2."""
    i_star, j_star = critical_indices(fam)
    return fam.factor1.level(i_star)[0] == fam.threshold1, fam.factor2.level(j_star)[0] == fam.threshold2


class TestCriticalIndices:
    def test_strict_case(self, sphere_hemisphere):
        assert critical_indices(sphere_hemisphere) == (1, 1)
        assert _attained(sphere_hemisphere) == (False, False)
        assert not is_degenerate_pair(sphere_hemisphere)

    def test_one_sided_equality(self, sphere_interval):
        assert critical_indices(sphere_interval) == (1, 0)
        assert _attained(sphere_interval) == (False, True)
        assert not is_degenerate_pair(sphere_interval)

    def test_zero_zero_carve_out(self, torus_interval):
        assert critical_indices(torus_interval) == (0, 0)
        assert _attained(torus_interval) == (True, True)
        assert not is_degenerate_pair(torus_interval)

    def test_degenerate_pair(self, degenerate_pair_family):
        assert critical_indices(degenerate_pair_family) == (1, 1)
        assert _attained(degenerate_pair_family) == (True, True)
        assert is_degenerate_pair(degenerate_pair_family)


class TestDegeneracyInstants:
    def test_sphere_hemisphere_window(self, sphere_hemisphere):
        instants = degeneracy_instants(sphere_hemisphere, WINDOW)
        assert [inst.s for inst in instants] == SPHERE_HEMI_INSTANTS

    def test_branch_data_at_half(self, sphere_hemisphere):
        (inst,) = degeneracy_instants(sphere_hemisphere, (Fraction(2, 5), 1))
        assert inst.s == Fraction(1, 2)
        assert [(br.i, br.j) for br in inst.branches] == [(1, 0)]
        assert inst.total_multiplicity == 3
        assert inst.jump == -3  # increasing branch leaves the negative part

    def test_window_endpoints_included(self, sphere_hemisphere):
        instants = degeneracy_instants(sphere_hemisphere, (Fraction(1, 2), 2))
        assert [inst.s for inst in instants] == [Fraction(1, 2), 2]

    def test_sphere_interval_sequence(self, sphere_interval):
        instants = degeneracy_instants(sphere_interval, (Fraction(1, 10), 10))
        assert [inst.s for inst in instants] == [1, 4, 9]
        # each zero comes from the simple branch (0, j), so the jump is +1
        assert all(inst.jump == 1 for inst in instants)
        assert all(inst.total_multiplicity == 1 for inst in instants)

    def test_rigid_family_is_empty(self, torus_interval):
        assert degeneracy_instants(torus_interval, (Fraction(1, 1000), 1000)) == []

    def test_torus_hemisphere_sequence(self, torus_hemisphere):
        instants = degeneracy_instants(torus_hemisphere, (Fraction(1, 10), 10))
        assert [inst.s for inst in instants] == [
            Fraction(2, 15),
            Fraction(1, 6),
            Fraction(1, 3),
            Fraction(2, 3),
        ]

    def test_degenerate_pair_refused(self, degenerate_pair_family):
        with pytest.raises(DegeneratePairError):
            degeneracy_instants(degenerate_pair_family, (Fraction(1, 10), 10))

    def test_insufficient_budget_raises(self, sphere_hemisphere):
        with pytest.raises(IncompleteSpectrumError):
            degeneracy_instants(sphere_hemisphere, WINDOW, lam=5)

    def test_cancelling_instant_merges_branches(self, cancelling_family):
        instants = degeneracy_instants(cancelling_family, (Fraction(1, 4), 4))
        assert [inst.s for inst in instants] == [Fraction(1, 2), 1, 2]
        middle = instants[1]
        assert [(br.i, br.j) for br in middle.branches] == [(0, 2), (2, 0)]
        assert middle.total_multiplicity == 4
        assert middle.jump == 0


class TestMorseIndex:
    def test_frozen_values(self, sphere_hemisphere):
        assert morse_index(sphere_hemisphere, 1) == 0
        assert morse_index(sphere_hemisphere, 3) == 2
        assert morse_index(sphere_hemisphere, Fraction(1, 4)) == 3

    def test_refuses_degeneracy_instant(self, sphere_hemisphere):
        with pytest.raises(DegeneracyInstantError):
            morse_index(sphere_hemisphere, Fraction(1, 2))
        with pytest.raises(DegeneracyInstantError):
            morse_index(sphere_hemisphere, 2)

    def test_nonpositive_threshold_gives_zero(self, torus_interval):
        assert morse_index(torus_interval, Fraction(1, 5)) == 0
        assert morse_index(torus_interval, 50) == 0


class TestIndexJump:
    def test_frozen_pairs(self, sphere_hemisphere):
        instants = degeneracy_instants(sphere_hemisphere, (Fraction(2, 5), 3))
        by_s = {inst.s: inst for inst in instants}
        assert index_jump(sphere_hemisphere, by_s[Fraction(1, 2)]) == (3, 0, True)
        assert index_jump(sphere_hemisphere, by_s[Fraction(2)]) == (0, 2, True)

    def test_jump_matches_signed_count(self, sphere_hemisphere):
        for inst in degeneracy_instants(sphere_hemisphere, WINDOW):
            n_minus, n_plus, certified = index_jump(sphere_hemisphere, inst)
            assert n_plus - n_minus == inst.jump
            assert certified

    def test_cancellation_not_certified(self, cancelling_family):
        instants = degeneracy_instants(cancelling_family, (Fraction(1, 4), 4))
        middle = next(inst for inst in instants if inst.s == 1)
        n_minus, n_plus, certified = index_jump(cancelling_family, middle)
        assert n_minus == n_plus
        assert not certified


class TestClassification:
    def test_both_positive(self, sphere_hemisphere):
        cls = classify_family(sphere_hemisphere, WINDOW)
        assert cls.case is FamilyCase.BOTH_POSITIVE
        assert "0 and at +inf" in cls.accumulation
        assert [ci.instant.s for ci in cls.instants] == SPHERE_HEMI_INSTANTS
        assert all(ci.certified for ci in cls.instants)
        sides = {ci.side for ci in cls.instants}
        assert sides == {"tending-to-zero", "unbounded"}

    def test_rigid(self, torus_interval):
        cls = classify_family(torus_interval, (Fraction(1, 100), 100))
        assert cls.case is FamilyCase.RIGID_NON_POSITIVE
        assert cls.instants == ()

    def test_decreasing_to_zero(self, torus_hemisphere):
        cls = classify_family(torus_hemisphere, (Fraction(1, 10), 10))
        assert cls.case is FamilyCase.DECREASING_TO_ZERO
        assert all(ci.side == "tending-to-zero" for ci in cls.instants)

    def test_increasing_unbounded(self, sphere_interval):
        cls = classify_family(sphere_interval, (Fraction(1, 10), 10))
        assert cls.case is FamilyCase.INCREASING_UNBOUNDED
        assert [ci.instant.s for ci in cls.instants] == [1, 4, 9]
        assert all(ci.side == "unbounded" for ci in cls.instants)

    def test_degenerate_pair(self, degenerate_pair_family):
        cls = classify_family(degenerate_pair_family, (Fraction(1, 10), 10))
        assert cls.case is FamilyCase.DEGENERATE_PAIR
        assert cls.instants == ()

    def test_accumulation_stable_under_window_refinement(self, torus_hemisphere):
        counts = []
        for delta in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
            cls = classify_family(torus_hemisphere, (delta, 1))
            assert cls.case is FamilyCase.DECREASING_TO_ZERO
            assert cls.accumulation.endswith("accumulating at 0")
            counts.append(len(cls.instants))
        # shrinking the left endpoint only ever reveals more instants
        assert counts[0] < counts[1] < counts[2]


class TestEqualityBoundaryCases:
    def test_threshold_attained_on_closed_factor_only(self):
        # rho_1^(1) = T1 = 1 exactly: the (1, j) branches are a = 0, never zero
        f1 = custom_spectrum(2, 3, [(0, 1), (1, 2), (3, 2)], 20, label="eq-closed")
        f2 = custom_spectrum(
            2, 3, [(0, 1), (2, 2)], 20,
            has_boundary=True, boundary_minimal=True, label="plain-boundary",
        )
        fam = make_family(f1, f2)
        assert not is_degenerate_pair(fam)
        assert branch_zero(branch_from_indices(fam, 1, 1)) is None
        instants = degeneracy_instants(fam, (Fraction(1, 10), 10))
        assert all((br.i, br.j)[0] != 1 for inst in instants for br in inst.branches)

    def test_threshold_attained_on_boundary_factor_only(self):
        # rho_1^(2) = T2 = 1: the (i, 1) branches are constant in s
        f1 = custom_spectrum(2, 3, [(0, 1), (Fraction(5, 2), 2)], 20, label="plain-closed")
        f2 = custom_spectrum(
            2, 3, [(0, 1), (1, 2), (3, 2)], 20,
            has_boundary=True, boundary_minimal=True, label="eq-boundary",
        )
        fam = make_family(f1, f2)
        assert not is_degenerate_pair(fam)
        br = branch_from_indices(fam, 1, 1)
        assert br.monotonicity is Monotonicity.CONSTANT
        assert branch_zero(br) is None

    def test_lemma_taxonomy_exhaustive(self, sphere_hemisphere):
        """Every branch with factor eigenvalues up to 10^3 obeys the taxonomy:
        sign(a)*sign(b) < 0 gives exactly one zero, otherwise none, and the
        monotonicity matches the sign of b."""
        fam = sphere_hemisphere
        for i, (r1, m1) in enumerate(fam.factor1.eigenvalues_leq(1000)):
            for j, (r2, m2) in enumerate(fam.factor2.eigenvalues_leq(1000)):
                if i == 0 and j == 0:
                    continue
                br = branch_from_indices(fam, i, j)
                z = branch_zero(br)
                if br.a * br.b < 0:
                    assert z == -br.b / br.a > 0
                    assert sigma_value(br, z) == 0
                else:
                    assert z is None
                expected = (
                    Monotonicity.DECREASING if br.b > 0
                    else Monotonicity.INCREASING if br.b < 0
                    else Monotonicity.CONSTANT
                )
                assert br.monotonicity is expected


def _custom_pair(t1, t2, levels1, levels2, tolerance=None):
    """Closed and boundary custom factors of dimension 2 (m = 4, R = 3T),
    declared complete up to 1000."""
    num = float if tolerance else Fraction
    f1 = custom_spectrum(2, num(3 * t1), [(num(e), m) for e, m in levels1], num(1000),
                         tolerance=tolerance, label="closed")
    f2 = custom_spectrum(2, num(3 * t2), [(num(e), m) for e, m in levels2], num(1000),
                         has_boundary=True, boundary_minimal=True,
                         tolerance=tolerance, label="boundary")
    return make_family(f1, f2)


# built once: constructing strategies on every draw dominates the run time
_STEPS = st.lists(st.integers(1, 18).map(lambda k: Fraction(k, 6)), min_size=1, max_size=5)
_MULTIPLICITY = st.integers(1, 3)
_MAGNITUDE = st.integers(1, 16).map(lambda k: Fraction(k, 4))
_THRESHOLD = {True: _MAGNITUDE, False: st.one_of(st.just(Fraction(0)), _MAGNITUDE.map(lambda t: -t))}
_SIGNS = st.sampled_from([(True, True), (True, False), (False, True), (False, False)])
_WINDOW_END = st.integers(3, 1000).map(lambda k: Fraction(k, 50))


def _levels(draw):
    levels, value = [(Fraction(0), 1)], Fraction(0)
    for step in draw(_STEPS):
        value += step
        levels.append((value, draw(_MULTIPLICITY)))
    return levels


def _with_window(draw, t1, t2, levels1, levels2):
    """Exact family data, a window whose ends are often branch zeros
    themselves, and the distinct zeros in [1/20, 20]."""
    zeros = sorted({
        (t2 - r2) / (r1 - t1)
        for i, (r1, _) in enumerate(levels1)
        for j, (r2, _) in enumerate(levels2)
        if i + j > 0 and (r1 - t1) * (r2 - t2) < 0
        and Fraction(1, 20) <= (t2 - r2) / (r1 - t1) <= 20
    })
    end = st.one_of(_WINDOW_END, st.sampled_from(zeros)) if zeros else _WINDOW_END
    s_min, s_max = sorted((draw(end), draw(end)))
    assume(s_min < s_max)
    return (t1, t2, levels1, levels2), (s_min, s_max), zeros


@st.composite
def _families_and_windows(draw):
    """The data (t1, t2, levels1, levels2) of a random exact family in one of
    the four curvature-sign cases, with a window and the zeros, as
    ``_with_window`` gives them."""
    pos1, pos2 = draw(_SIGNS)
    return _with_window(draw, draw(_THRESHOLD[pos1]), draw(_THRESHOLD[pos2]), _levels(draw), _levels(draw))


_MULTIPLES = st.sets(st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]), min_size=2, max_size=8)


@st.composite
def _coincident_families(draw):
    """The data of a random exact family with positive thresholds whose levels
    other than 0 lie k steps from the threshold, k in +-{1, 2, 3, 4, 6}, so
    that many branch zeros coincide, with a window and the zeros, as
    ``_with_window`` gives them."""
    thresholds = draw(_MAGNITUDE), draw(_MAGNITUDE)
    step = draw(st.sampled_from([Fraction(1, 6), Fraction(1, 10), Fraction(2, 7)]))
    levels = [[(Fraction(0), 1)] + [(t + k * step, draw(_MULTIPLICITY))
                                    for k in sorted(draw(_MULTIPLES)) if t + k * step > 0]
              for t in thresholds]
    return _with_window(draw, *thresholds, *levels)


_NUDGE = st.floats(-4, 4)  # in tolerances


@st.composite
def _near_threshold_float_families(draw):
    """A random float family at tol 1e-9 in one of the four curvature-sign
    cases whose level nearest each positive threshold is moved to within 4
    tolerances of it, so that some branch coefficients lie within a few
    tolerances of 0, with a window."""
    pos1, pos2 = draw(_SIGNS)
    thresholds = draw(_THRESHOLD[pos1]), draw(_THRESHOLD[pos2])
    levels = []
    for t in thresholds:
        values = [(float(e), m) for e, m in _levels(draw)]
        if t > 0:
            k = min(range(1, len(values)), key=lambda k: abs(values[k][0] - t))
            values[k] = (float(t) * (1 + draw(_NUDGE) * 1e-9), values[k][1])
        levels.append(sorted(values))
    s_min, s_max = sorted((draw(_WINDOW_END), draw(_WINDOW_END)))
    assume(s_min < s_max)
    return _custom_pair(*thresholds, *levels, tolerance=1e-9), (s_min, s_max)


def _pairs(cases, tolerance=None):
    """(family, window) of each (data, window, zeros) case."""
    return cases.map(lambda case: (_custom_pair(*case[0], tolerance=tolerance), case[1]))


# random float families: float copies of the sweep data and of coincident
# zeros, which round apart in floats, and near-threshold levels
_FLOAT_FAMILIES = st.one_of(
    _pairs(_families_and_windows(), 1e-9),
    _near_threshold_float_families(),
    _pairs(_coincident_families(), 1e-9),
)


_TOLERANCES = st.sampled_from([1e-9, 1e-4, 0.2])
_NEAR = st.floats(-3, 3)  # in tolerances
_GAP = st.floats(1.01, 2.5)  # in tolerances


@st.composite
def _near_zero_float_families(draw):
    """A float family (dimensions 2 and 2, so R = 3T) whose first levels lie
    a few tolerances apart and whose thresholds lie within 3 tolerances of
    one of them, sometimes with a far level after them; with its listed
    levels of each factor and a window.  Several levels can then read a
    threshold."""
    tol = draw(_TOLERANCES)
    thresholds, listed = [], []
    for _ in range(2):
        levels, value = [(0.0, 1)], 0.0
        for _ in range(draw(st.integers(0, 3))):
            value += draw(_GAP) * tol
            levels.append((value, draw(_MULTIPLICITY)))
        thresholds.append(draw(st.sampled_from(levels))[0] + draw(_NEAR) * tol)
        if draw(st.booleans()):
            levels.append((value + draw(st.floats(1, 5)), draw(_MULTIPLICITY)))
        listed.append(levels)
    try:
        fam = make_family(
            custom_spectrum(2, 3 * thresholds[0], listed[0], 100.0, tolerance=tol, label="closed"),
            custom_spectrum(2, 3 * thresholds[1], listed[1], 100.0, has_boundary=True,
                            boundary_minimal=True, tolerance=tol, label="boundary"),
        )
    except ValueError:  # levels of tolerance 0.2 past 1 need gaps of 0.2 * level
        reject()
    s_min = draw(st.floats(0.05, 2))
    return fam, listed, (s_min, s_min * draw(st.floats(1.1, 20)))


class TestDegeneratePair:
    """A pair is degenerate when some branch (i, j) != (0, 0) has both
    coefficients of sign 0, however many levels read each threshold."""

    # the two float families of the README's exit-2 example: several levels read a threshold
    REPRODUCERS = {
        # T1 = 0.15, T2 = 0.1 at tolerance 0.2: levels 0 and 0.3 read T1, level 0 reads T2
        "B": (0.2, (0.45, [(0.0, 1), (0.3, 1), (3.0, 2)]), (0.3, [(0.0, 1), (2.0, 2)])),
        # T1 = T2 = 9e-10 at tolerance 1e-9: levels 0 and 1.5e-9 read T1, level 0 reads T2
        "A": (1e-9, (2.7e-9, [(0.0, 1), (1.5e-9, 2), (5.0, 3)]), (2.7e-9, [(0.0, 1), (3.0, 2)])),
    }

    @pytest.mark.parametrize("name", sorted(REPRODUCERS))
    def test_several_levels_read_a_threshold(self, name):
        """Branch (1, 0) reads 0 for every s, although level 0 is the first
        level at each threshold, so (i*, j*) = (0, 0)."""
        tol, (r1, levels1), (r2, levels2) = self.REPRODUCERS[name]
        fam = make_family(
            custom_spectrum(2, r1, levels1, 100.0, tolerance=tol, label="closed"),
            custom_spectrum(2, r2, levels2, 100.0, has_boundary=True, boundary_minimal=True,
                            tolerance=tol, label="boundary"),
        )
        assert critical_indices(fam) == (0, 0)
        assert is_degenerate_pair(fam)
        assert classify_family(fam, (0.5, 2.0)).case is FamilyCase.DEGENERATE_PAIR
        with pytest.raises(DegeneratePairError, match="^closed x boundary$"):
            degeneracy_instants(fam, (0.5, 2.0))

    @given(_near_zero_float_families())
    @settings(derandomize=True, deadline=None)  # max_examples from the profile: see conftest.py
    def test_one_rule_near_zero(self, case):
        """is_degenerate_pair is the brute force over the listed levels, and
        classify_family returns, DegeneratePair exactly then, or raises a
        YamabeError, never anything else."""
        fam, listed, window = case
        tol = fam.tolerance
        zeros1, zeros2 = ([k for k, (r, _) in enumerate(levels) if scalars.sign(r - t, tol) == 0]
                          for levels, t in zip(listed, (fam.threshold1, fam.threshold2)))
        degenerate = any(i + j > 0 for i in zeros1 for j in zeros2)
        assert is_degenerate_pair(fam) == degenerate
        try:
            case = classify_family(fam, window).case
        except YamabeError:
            assert not degenerate
        else:
            assert (case is FamilyCase.DEGENERATE_PAIR) == degenerate


class TestSweep:
    @given(st.one_of(_families_and_windows(), _coincident_families()))
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_brute_force(self, case):
        data, (s_min, s_max), zeros = case
        fam = _custom_pair(*data)
        assume(not is_degenerate_pair(fam))
        cls = classify_family(fam, (s_min, s_max))
        assert [ci.instant.s for ci in cls.instants] == [z for z in zeros if s_min <= z <= s_max]
        probes = []
        if cls.instants:
            first, last = cls.instants[0], cls.instants[-1]
            if first.instant.s != s_min:
                probes.append((s_min, first.n_minus))
            if last.instant.s != s_max:
                probes.append((s_max, last.n_plus))
        for left, right in zip(cls.instants, cls.instants[1:]):
            assert left.n_plus == right.n_minus
            probes.append(((left.instant.s + right.instant.s) / 2, left.n_plus))
        for s, expected in probes:
            lam = max(fam.threshold1 + fam.threshold2 / s, 0) + 1
            assert brute_force_indices(fam, [(s, lam, lam * s)]) == [expected]

    def test_needs_completeness_only_up_to_enumeration_bounds(self):
        levels1 = [(0, 1), (Fraction(1, 2), 2), (2, 1), (Fraction(5, 2), 3)]
        levels2 = [(0, 1), (Fraction(1, 3), 1), (Fraction(3, 2), 2), (3, 1)]

        def family(lambda_max):
            return make_family(
                custom_spectrum(2, 3, levels1, lambda_max, label="closed"),
                custom_spectrum(2, 3, levels2, lambda_max, has_boundary=True,
                                boundary_minimal=True, label="boundary"),
            )

        window = (Fraction(1, 2), 2)
        assert bifurcation.enumeration_bounds(family(100), window) == (3, 3)
        tight = classify_family(family(3), window).instants
        assert [(ci.instant.s, ci.n_minus, ci.n_plus) for ci in tight] == [
            (Fraction(1, 2), 10, 12), (Fraction(2, 3), 12, 8), (1, 8, 11), (2, 11, 12),
        ]
        assert tight == classify_family(family(100), window).instants

    def test_missed_instant_fails_the_recount(self, sphere_hemisphere, monkeypatch):
        real = bifurcation._search

        def dropping_one(fam, window, lam):
            instants, start = real(fam, window, lam)
            return instants[:5] + instants[6:], start

        monkeypatch.setattr(bifurcation, "_search", dropping_one)
        with pytest.raises(RecountError):
            classify_family(sphere_hemisphere, WINDOW)


    @given(st.one_of(_pairs(_families_and_windows()), _pairs(_coincident_families()),
                     _near_threshold_float_families()))
    @settings(max_examples=150, deadline=None)
    def test_search_gives_the_index_before_the_first_instant(self, case):
        """The starting index that the window walk gives equals a separate
        count at the first instant, also where a window end is a branch zero
        and where coefficients lie within a few tolerances of 0."""
        fam, window = case
        assume(not is_degenerate_pair(fam))
        cls = classify_family(fam, window)
        assume(cls.instants)
        first = cls.instants[0]
        assert first.n_minus == index_jump(fam, first.instant)[0]

    def test_many_instants_on_torus_times_hemisphere(self, torus_hemisphere):
        """T^2 x S^2_+ over (1/5000, 1): 992 instants, all certified, with the
        same first and last indices as the three-walk classification gave."""
        cls = classify_family(torus_hemisphere, (Fraction(1, 5000), 1))
        assert len(cls.instants) == 992
        assert all(ci.certified for ci in cls.instants)
        first, last = cls.instants[0], cls.instants[-1]
        assert (first.instant.s, first.n_minus, first.n_plus) == (Fraction(1, 4998), 10476, 10468)
        assert (last.instant.s, last.n_minus, last.n_plus) == (Fraction(2, 3), 4, 0)


class TestFloatMode:
    # the increasing branch (1, 0) vanishes at s = T2/(rho_1 - T1) = 20/113,
    # where s*(theta - rho_1) rounds to -1.6e-16 in floating point
    LEVELS1 = [(0, 1), (Fraction(41, 10), 2)]
    LEVELS2 = [(0, 1), (Fraction(11, 2), 1)]

    def test_index_at_an_i0_branch_zero(self):
        exact = _custom_pair(Fraction(1, 3), Fraction(2, 3), self.LEVELS1, self.LEVELS2)
        fam = _custom_pair(Fraction(1, 3), Fraction(2, 3), self.LEVELS1, self.LEVELS2, 1e-9)
        (inst,) = degeneracy_instants(fam, (Fraction(1, 10), 1))
        assert [(br.i, br.j) for br in inst.branches] == [(1, 0)]
        with pytest.raises(DegeneracyInstantError):
            morse_index(fam, inst.s)
        (exact_inst,) = degeneracy_instants(exact, (Fraction(1, 10), 1))
        assert index_jump(fam, inst) == index_jump(exact, exact_inst) == (2, 0, True)

    @given(st.one_of(_families_and_windows(), _coincident_families()))
    @settings(max_examples=100, deadline=None)
    def test_float_copy_reproduces_the_exact_sweep(self, case):
        """Float copies (tol 1e-9) of exact data whose distinct zeros and
        branch values lie far more than tol apart give the exact instants
        within tol, with the same branches and indices (coincident exact
        zeros, which round apart in floats, chain into one instant), the
        closing recount never raises, and verify's probe indices match
        morse_index."""
        data, window, _ = case
        exact = _custom_pair(*data)
        assume(not is_degenerate_pair(exact))
        approx = _custom_pair(*data, tolerance=1e-9)
        want = classify_family(exact, window).instants
        got = classify_family(approx, window).instants
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g.instant.s - w.instant.s) <= 1e-9 * max(1, w.instant.s)
            assert [(br.i, br.j) for br in g.instant.branches] == [(br.i, br.j) for br in w.instant.branches]
            assert (g.n_minus, g.n_plus, g.certified, g.side) == (w.n_minus, w.n_plus, w.certified, w.side)
        # verify skips a probe within tol of an instant in s; morse_index
        # refuses one with a branch value within tol of R(s)/(m-1)
        for s, index in cli._probe_indices(approx, window, got):
            try:
                expected = morse_index(approx, s)
            except DegeneracyInstantError:
                expected = None
            assert index == expected

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.1, 0.9),
        st.sampled_from([1e-6, 1e-4, 1e-2]),
    )
    @settings(max_examples=100)
    def test_close_is_symmetric(self, a, b, f, tol):
        assert scalars.close(a, b, tol) == scalars.close(b, a, tol)
        # farther than tol * |a| from a, but within tol * |far|
        far = a * (1 + tol * (1 + f * tol))
        if abs(a) >= 1:
            assert scalars.close(a, far, tol) and scalars.close(far, a, tol)

    def test_levels_within_a_few_tolerances_of_a_threshold(self):
        """Branch (1, 1) has a = 0 and b = -2.9e-9 at tol 1e-9: the recount
        compares the product eigenvalue with theta at scale tol * theta and
        calls the branch vanishing at s = 1, while the zero search compares
        b with 0 at scale tol and finds no zero (ROADMAP item 6)."""
        closed = custom_spectrum(3, 4.0, [(0.0, 1), (1.0, 1)], 60.0, tolerance=1e-9, label="closed")
        boundary = custom_spectrum(
            2, 10.0, [(0.0, 1), (2.4999999970659577, 3), (3.4999999970659577, 2)], 60.0,
            has_boundary=True, boundary_minimal=True, tolerance=1e-9, label="boundary",
        )
        cls = classify_family(make_family(closed, boundary), (Fraction(1, 5), 2))
        assert all(ci.certified for ci in cls.instants)

    def test_threshold_within_the_tolerance_of_0_adds_nothing(self):
        """T1 = 1e-12/3 has sign 0, so the boundary factor, complete only up
        to T2 = 2, is read to T2, not to T2 + s_max*T1 = 2 + 3.3e-7, which
        lies past its bound by more than the tolerance."""
        closed = custom_spectrum(2, 1e-12, [(0.0, 1), (1.0, 2)], 100.0, tolerance=1e-9, label="closed")
        boundary = custom_spectrum(2, 6.0, [(0.0, 1), (1.5, 2)], 2.0, has_boundary=True,
                                   boundary_minimal=True, tolerance=1e-9, label="boundary")
        fam = make_family(closed, boundary)
        window = (0.5, 1e6)
        assert bifurcation.enumeration_bounds(fam, window)[1] == 2.0
        got = classify_family(fam, window).instants
        assert [(scalars.fmt(ci.instant.s, 1e-9), [(br.i, br.j) for br in ci.instant.branches],
                 ci.n_minus, ci.n_plus) for ci in got] == [
            ("0.50000000000016664", [(1, 1)], 8, 4), ("2.0000000000006666", [(1, 0)], 4, 2)]

    @given(_near_threshold_float_families())
    @settings(max_examples=60, deadline=None)
    def test_one_sign_rule_near_the_thresholds(self, case):
        """With levels within a few tolerances of the thresholds, the zero
        search and the Morse-index count judge every branch by the same rule:
        classification never raises, consecutive instants agree on the index
        between them, and every probe index of verify equals morse_index, or
        is None where morse_index refuses."""
        fam, window = case
        assume(not is_degenerate_pair(fam))
        got = classify_family(fam, window).instants
        for left, right in zip(got, got[1:]):
            assert left.n_plus == right.n_minus
        for s, index in cli._probe_indices(fam, window, got):
            try:
                expected = morse_index(fam, s)
            except DegeneracyInstantError:
                expected = None
            assert index == expected

    @given(_FLOAT_FAMILIES, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_clusters_do_not_depend_on_the_order_of_the_zeros(self, case, rng):
        """The walk's zeros, shuffled before the merge, give the same
        clusters with the same reported s."""
        fam, (s_min, s_max) = case
        assume(not is_degenerate_pair(fam))
        zeros = bifurcation._walk(fam, fam.coerce(s_min), fam.coerce(s_max))[3]

        def clusters(found):
            return [(s, sorted(branches)) for s, branches in bifurcation._merge_zeros(found, fam.tolerance)]

        assert clusters(rng.sample(zeros, len(zeros))) == clusters(zeros)

    @given(_FLOAT_FAMILIES, st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_ends_on_instants_are_included(self, case, data):
        """As test_window_endpoints_included checks in exact mode, the window
        is closed: from the largest branch zero of one instant of a wider
        window to the smallest of a later one, it gives both instants, with
        every branch, and every instant between them."""
        fam, window = case
        assume(not is_degenerate_pair(fam))
        wide = degeneracy_instants(fam, window)
        assume(len(wide) >= 2)
        first, last = sorted(data.draw(st.lists(st.integers(0, len(wide) - 1), min_size=2, max_size=2, unique=True)))
        lo = max(branch_zero(br) for br in wide[first].branches)
        hi = min(branch_zero(br) for br in wide[last].branches)
        assert degeneracy_instants(fam, (lo, hi)) == wide[first:last + 1]

    def test_chained_zeros_merge_into_one_instant(self):
        """Zeros at 1, 1 + 0.6e-9 and 1 + 1.2e-9 chain within the tolerance
        1e-9 although the outer two are not close: one instant, jump +3."""
        f1 = custom_spectrum(2, 3.0, [(0.0, 1), (0.25, 1), (0.5, 1)], 10.0, tolerance=1e-9, label="closed")
        f2 = custom_spectrum(
            2, 3.0, [(0.0, 1), (1.5000000003, 1), (1.7500000009, 1), (2.0, 1)], 10.0,
            has_boundary=True, boundary_minimal=True, tolerance=1e-9, label="boundary",
        )
        cls = classify_family(make_family(f1, f2), (0.5, 5.0))
        (chain,) = [ci for ci in cls.instants if abs(ci.instant.s - 1) < 1e-6]
        assert chain.instant.s == 1.0
        assert [(br.i, br.j) for br in chain.instant.branches] == [(0, 3), (1, 2), (2, 1)]
        assert chain.instant.jump == 3
        assert chain.n_plus - chain.n_minus == 3

    @pytest.mark.parametrize("window", [(0.5, 1.0000000005), (1.0000000001, 3.0)], ids=["last", "first"])
    def test_chain_counted_over_its_zeros(self, window):
        """The same chain as the first or the last instant of the window: the
        index is counted over all its zeros, 1 to 1 + 1.2e-9, so the branch
        (1, 2), whose zero is not close to s = 1, still counts as vanishing
        and the closing recount agrees with the jumps."""
        f1 = custom_spectrum(2, 3.0, [(0.0, 1), (0.25, 1), (0.5, 1)], 10.0, tolerance=1e-9, label="closed")
        f2 = custom_spectrum(
            2, 3.0, [(0.0, 1), (1.5000000003, 1), (1.7500000009, 1), (2.0, 1)], 10.0,
            has_boundary=True, boundary_minimal=True, tolerance=1e-9, label="boundary",
        )
        fam = make_family(f1, f2)
        (chain,) = [ci for ci in classify_family(fam, window).instants if abs(ci.instant.s - 1) < 1e-6]
        assert (chain.n_minus, chain.n_plus) == (5, 8)
        assert index_jump(fam, chain.instant) == (5, 8, True)
