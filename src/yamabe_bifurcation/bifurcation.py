"""Eigenvalue branches of J_s, degeneracy instants and Morse-index jumps.

The operator J_s = Laplacian(g_s) - R(s)/(m-1) on zero-mean functions has the
explicit eigenvalue branches

    sigma_{i,j}(s) = a_{i,j} + b_{i,j}/s,   a = rho_i^(1) - T1,  b = rho_j^(2) - T2,

over i, j >= 0 with i + j > 0, with multiplicity mu_i^(1) * mu_j^(2).  Each
branch is strictly monotone or constant, so it has at most one zero, at
s = -b/a, and it has one exactly when a and b have strictly opposite signs.
Degeneracy instants are the zeros; an instant is a certified bifurcation
instant when the Morse index differs on its two sides.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import scalars
from .errors import (
    DegeneracyInstantError,
    DegeneratePairError,
    IncompleteSpectrumError,
    RecountError,
)
from .product import ProductFamily
from .scalars import Scalar


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"


class _EigenBranch(NamedTuple):
    i: int
    j: int
    a: Scalar  # rho_i^(1) - T1
    b: Scalar  # rho_j^(2) - T2
    multiplicity: int
    tolerance: Optional[float] = None

    @property
    def monotonicity(self) -> Monotonicity:
        # sigma'(s) = -b/s^2
        s = scalars.sign(self.b, self.tolerance)
        if s > 0:
            return Monotonicity.DECREASING
        if s < 0:
            return Monotonicity.INCREASING
        return Monotonicity.CONSTANT


class EigenBranch(_EigenBranch):
    # a NamedTuple body may not define __new__, so the checks live in a subclass
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, i, j, a, b, multiplicity, tolerance=None):
        if i < 0 or j < 0 or i + j == 0:
            raise ValueError("branch indices must satisfy i, j >= 0 and i + j > 0")
        if multiplicity < 1:
            raise ValueError("branch multiplicity must be positive")
        return super().__new__(cls, i, j, a, b, multiplicity, tolerance)


class CriticalIndices(NamedTuple):
    i_star: int
    j_star: int


class DegeneracyInstant(NamedTuple):
    s: Scalar
    branches: Tuple[EigenBranch, ...]
    total_multiplicity: int
    jump: int  # n_{s+} - n_{s-}


class FamilyCase(enum.Enum):
    BOTH_POSITIVE = "BothPositive"
    RIGID_NON_POSITIVE = "RigidNonPositive"
    DECREASING_TO_ZERO = "DecreasingToZero"
    INCREASING_UNBOUNDED = "IncreasingUnbounded"
    DEGENERATE_PAIR = "DegeneratePair"


class CertifiedInstant(NamedTuple):
    instant: DegeneracyInstant
    n_minus: int
    n_plus: int
    certified: bool
    side: str  # "tending-to-zero" | "unbounded" | "mixed"


class FamilyClassification(NamedTuple):
    case: FamilyCase
    instants: Tuple[CertifiedInstant, ...]
    accumulation: str
    window: Tuple[Scalar, Scalar]


def branch_from_indices(fam: ProductFamily, i: int, j: int) -> EigenBranch:
    r1, m1 = fam.factor1.level(i)
    r2, m2 = fam.factor2.level(j)
    return EigenBranch(
        i=i,
        j=j,
        a=r1 - fam.threshold1,
        b=r2 - fam.threshold2,
        multiplicity=m1 * m2,
        tolerance=fam.tolerance,
    )


def sigma_value(branch: EigenBranch, s) -> Scalar:
    if s <= 0:
        raise ValueError("family parameter s must be positive")
    return branch.a + branch.b / s


def _zero(a, b, sa, sb) -> Optional[Scalar]:
    """The zero -b/a of a + b/s, present exactly when the judged signs sa of a
    and sb of b are strictly opposite; None otherwise."""
    return -b / a if sa * sb < 0 else None


def branch_zero(branch: EigenBranch) -> Optional[Scalar]:
    """The unique zero -b/a in (0, inf), present exactly when a and b have
    strictly opposite signs; None otherwise (absence is a value).  In float
    mode a coefficient within the tolerance of 0 counts as 0."""
    tol = branch.tolerance
    return _zero(branch.a, branch.b, scalars.sign(branch.a, tol), scalars.sign(branch.b, tol))


def _column(spectrum, threshold, bound, tol) -> List[Tuple[Scalar, int, int]]:
    """(r - threshold, its scalars.sign, multiplicity) for each level r <= bound;
    in float mode a coefficient within the tolerance of 0 has sign 0."""
    return [(c, scalars.sign(c, tol), m) for r, m in spectrum.eigenvalues_leq(bound) for c in (r - threshold,)]


def _threshold_signs(fam: ProductFamily) -> Tuple[List[int], ...]:
    """Each factor's coefficient signs, rho - T by the coefficient rule, of its
    levels up to its threshold T: a run of -1, then the levels that read T
    (sign 0), at most one in exact mode and possibly several in float mode."""
    return tuple([sign for _, sign, _ in _column(spec, t, t, fam.tolerance)]
                 for spec, t in ((fam.factor1, fam.threshold1), (fam.factor2, fam.threshold2)))


def critical_indices(fam: ProductFamily) -> CriticalIndices:
    """In each factor, the least level index whose coefficient has sign >= 0:
    its count of -1s.  For a threshold <= 0 this is level 0 (eigenvalue 0)."""
    return CriticalIndices(*(signs.count(-1) for signs in _threshold_signs(fam)))


def is_degenerate_pair(fam: ProductFamily) -> bool:
    """Some branch sigma_{i,j} with (i, j) != (0, 0) has both coefficients of
    sign 0, so the walk reads it as 0 for every s.  (0, 0) is the constants,
    outside the domain of J_s."""
    zeros1, zeros2 = ([k for k, sign in enumerate(signs) if sign == 0] for signs in _threshold_signs(fam))
    return any(i or j for i in zeros1 for j in zeros2)


def _require_budget(lam, needed, what):
    if lam is not None and lam < needed:
        raise IncompleteSpectrumError(
            f"enumeration bound {what} requires eigenvalues up to {needed} "
            f"but only {lam} was allowed; raise lambda-max"
        )


def enumeration_bounds(fam: ProductFamily, window) -> Tuple[Scalar, Scalar]:
    """How far each factor is read for the window [s_min, s_max], or for a
    point (s, s): no branch past these bounds on rho_i and rho_j vanishes or
    is negative in it.  As levels are >= 0, sigma_{i,j}(s) <= 0 means
    rho_i <= T1 + T2/s and rho_j <= T2 + s*T1, each taken where it peaks:
    T2/s at s_min for T2 > 0 and at s_max for T2 < 0, so that at a point the
    first bound is R(s)/(m-1); s*T1 at s_max for T1 > 0 and at s_min for
    T1 < 0, each sign judged by the coefficient rule.  A threshold within
    the tolerance of 0 adds nothing to the other factor's bound: every
    rho - T of its own factor then has sign >= 0, so only the other
    factor's coefficients of sign <= 0 can make sigma <= 0."""
    s_min, s_max = window
    t1, t2 = fam.threshold1, fam.threshold2
    sign1, sign2 = scalars.sign(t1, fam.tolerance), scalars.sign(t2, fam.tolerance)
    return (t1 + (t2 / (s_min if sign2 > 0 else s_max) if sign2 else 0),
            t2 + (t1 * (s_max if sign1 > 0 else s_min) if sign1 else 0))


def _merge_zeros(found: List[Tuple[Scalar, EigenBranch]], tol) -> List[Tuple[Scalar, List[EigenBranch]]]:
    """Group branch zeros, recorded as (s, branch), into instants, ascending.

    The zeros are sorted and each is chained to the next when scalars.close
    holds: when they are equal in exact mode, and in float mode when they
    differ by at most tol * max(1, |a|, |b|), which for positive zeros is
    tol * max(1, |larger|).  close is symmetric and, on a sorted list, that
    single linkage is transitive, so the clusters do not depend on the order
    of recording.  A cluster's s is the zero of its first branch in the
    recording order: the decreasing branches by (i, j), then the increasing
    branches by (j, i)."""
    clusters: List[List[Tuple[Scalar, EigenBranch]]] = []
    for s, branch in sorted(found, key=lambda zero: zero[0]):
        if clusters and scalars.close(s, clusters[-1][-1][0], tol):
            clusters[-1].append((s, branch))
        else:
            clusters.append([(s, branch)])

    def recorded(zero):
        br = zero[1]
        return (True, br.j, br.i) if br.b < 0 else (False, br.i, br.j)

    return [(min(cluster, key=recorded)[0], [branch for _, branch in cluster]) for cluster in clusters]


def _walk(fam: ProductFamily, lo, hi) -> Tuple[int, int, int, List[Tuple[Scalar, EigenBranch]]]:
    """(below, increasing, decreasing, zeros) on [lo, hi], a window, a point
    or the zeros of one instant: the total multiplicity of the branches
    (i + j > 0) with sigma_{i,j} < 0 there, and of the increasing and the
    decreasing branches that vanish there, and the vanishing branches as
    (zero, branch).  Every branch is monotone, so the Morse index is
    below + increasing just left of the first zero in [lo, hi] and
    below + decreasing just right of the last.

    A branch's sign on [lo, hi] is 0 when its zero lies there within the
    tolerance, else that of a right of the zero and of b left of it, or that
    of its nonzero coefficient when it has no zero.  sigma <= 0 at s means
    b <= -a*s, where the least a*s is a*lo for a > 0, a*hi for a < 0 and 0 for
    sign 0, so row i stops past that; each factor is read once, as a column
    of (coefficient, sign, multiplicity), up to its enumeration_bounds."""
    tol = fam.tolerance
    need1, need2 = enumeration_bounds(fam, (lo, hi))
    column2 = _column(fam.factor2, fam.threshold2, need2, tol)
    below = increasing = 0
    zeros = []
    for i, (a, sa, m1) in enumerate(_column(fam.factor1, fam.threshold1, need1, tol)):
        bound = -a * (lo if sa > 0 else hi) if sa else 0
        for j, (b, sb, m2) in enumerate(column2):
            if scalars.gt(b, bound, tol):
                break
            if not (i or j):
                continue
            zero = _zero(a, b, sa, sb)
            if zero is None:
                sign = sa or sb
            elif scalars.lt(zero, lo, tol):
                sign = sa
            elif scalars.gt(zero, hi, tol):
                sign = sb
            else:
                sign = 0
            if sign < 0:
                below += m1 * m2
            elif sign == 0:
                zeros.append((zero, EigenBranch(i, j, a, b, m1 * m2, tol)))
                increasing += m1 * m2 if sb < 0 else 0
    return below, increasing, sum(br.multiplicity for _, br in zeros) - increasing, zeros


def _search(fam: ProductFamily, window, lam) -> Tuple[List[DegeneracyInstant], int]:
    """degeneracy_instants, plus the Morse index just left of the first
    instant, read off the same window walk."""
    if is_degenerate_pair(fam):
        raise DegeneratePairError(fam.label)
    s_min, s_max = fam.coerce(window[0]), fam.coerce(window[1])
    if not (0 < s_min < s_max):
        raise ValueError("window must satisfy 0 < s_min < s_max")

    need1, need2 = enumeration_bounds(fam, (s_min, s_max))
    _require_budget(lam, need1, "for the closed factor")
    _require_budget(lam, need2, "for the boundary factor")

    below, increasing, _, found = _walk(fam, s_min, s_max)
    instants = []
    for s, branches in _merge_zeros(found, fam.tolerance):
        branches = tuple(sorted(branches, key=lambda br: (br.i, br.j)))
        jump = sum(br.multiplicity if br.monotonicity is Monotonicity.DECREASING else -br.multiplicity
                   for br in branches)
        instants.append(DegeneracyInstant(s, branches, sum(br.multiplicity for br in branches), jump))
    return instants, below + increasing


def degeneracy_instants(fam: ProductFamily, window, lam=None) -> List[DegeneracyInstant]:
    """All degeneracy instants with s_min <= s <= s_max, ascending, coincident
    branch zeros merged into one instant with summed multiplicity and the
    signed index jump attached.  The enumeration bounds are computed from the
    window, so the list is provably complete; ``lam``, when given, caps the
    budget and raises if it is insufficient."""
    return _search(fam, window, lam)[0]


def _span(instant: DegeneracyInstant) -> Tuple[Scalar, Scalar]:
    """The least and the largest zero of the instant's branches, one chain
    within the tolerance (a single point in exact mode)."""
    zeros = [branch_zero(br) for br in instant.branches]
    return min(zeros), max(zeros)


def morse_index(fam: ProductFamily, s) -> int:
    """n_s: total multiplicity of branches (i + j > 0) with sigma_{i,j}(s) < 0,
    i.e. product eigenvalues other than the constants' zero strictly below
    R(s)/(m-1).  Exact check that s is not a degeneracy instant."""
    s = fam.coerce(s)
    if s <= 0:
        raise ValueError("family parameter s must be positive")
    below, _, _, zeros = _walk(fam, s, s)
    if zeros:
        raise DegeneracyInstantError(f"s = {scalars.fmt(s, fam.tolerance)} is a degeneracy instant; "
                                     "use index_jump instead")
    return below


def index_jump(fam: ProductFamily, instant: DegeneracyInstant) -> Tuple[int, int, bool]:
    """Morse indices just below and just above the instant, counted at the
    instant itself.  certified means n_minus != n_plus, in which case the
    instant is a bifurcation instant."""
    below, increasing, decreasing, _ = _walk(fam, *_span(instant))
    return below + increasing, below + decreasing, increasing != decreasing


def _side(branches: Sequence[EigenBranch]) -> str:
    kinds = {br.monotonicity for br in branches}
    if kinds == {Monotonicity.INCREASING}:
        return "tending-to-zero"
    if kinds == {Monotonicity.DECREASING}:
        return "unbounded"
    return "mixed"


_ACCUMULATION = {
    FamilyCase.BOTH_POSITIVE: "instants accumulate at 0 and at +inf",
    FamilyCase.RIGID_NON_POSITIVE: "no degeneracy instants; locally rigid on (0, +inf)",
    FamilyCase.DECREASING_TO_ZERO: "instants form a decreasing sequence accumulating at 0",
    FamilyCase.INCREASING_UNBOUNDED: "instants form an increasing unbounded sequence",
    FamilyCase.DEGENERATE_PAIR: "0 is an eigenvalue of J_s for every s; index-jump certification inapplicable",
}


def classify_family(fam: ProductFamily, window, lam=None) -> FamilyClassification:
    """Case tag from the curvature signs and the degenerate-pair test, plus
    the certified degeneracy instants found in the window."""
    tol = fam.tolerance
    window = (fam.coerce(window[0]), fam.coerce(window[1]))
    try:
        instants, n_plus = _search(fam, window, lam)
    except DegeneratePairError:
        return FamilyClassification(case=FamilyCase.DEGENERATE_PAIR, instants=(),
                                    accumulation=_ACCUMULATION[FamilyCase.DEGENERATE_PAIR], window=window)
    pos1 = scalars.gt(fam.factor1.scalar_curvature, 0, tol)
    pos2 = scalars.gt(fam.factor2.scalar_curvature, 0, tol)
    if pos1 and pos2:
        case = FamilyCase.BOTH_POSITIVE
    elif not pos1 and not pos2:
        case = FamilyCase.RIGID_NON_POSITIVE
    elif pos2:
        case = FamilyCase.DECREASING_TO_ZERO
    else:
        case = FamilyCase.INCREASING_UNBOUNDED

    # the index changes only at instants, and there by the exact jump
    certified = []
    for inst in instants:
        n_minus, n_plus = n_plus, n_plus + inst.jump
        certified.append(CertifiedInstant(instant=inst, n_minus=n_minus, n_plus=n_plus,
                                          certified=n_minus != n_plus, side=_side(inst.branches)))
    if instants:
        recount = index_jump(fam, instants[-1])[1]
        if recount != n_plus:
            raise RecountError(
                f"{fam.label}: the Morse index after s = {scalars.fmt(instants[-1].s, tol)} "
                f"recounts to {recount}, but the exact jumps sum to {n_plus}"
            )
    return FamilyClassification(case=case, instants=tuple(certified), accumulation=_ACCUMULATION[case],
                                window=window)
