"""Value semantics of the result records: immutable, equal by value,
hashable, copied with ``_replace``."""

import copy
import re
from fractions import Fraction

import pytest

from yamabe_bifurcation import (
    CertifiedInstant,
    CriticalIndices,
    DegeneracyInstant,
    EigenBranch,
    FactorSpectrum,
    FamilyCase,
    FamilyClassification,
    ProductFamily,
    hemisphere_neumann,
    round_sphere,
)
from yamabe_bifurcation.spectra import Round

SPHERE = round_sphere(2)
HEMISPHERE = hemisphere_neumann(2)


def _branch():
    return EigenBranch(0, 1, Fraction(-2, 3), Fraction(4, 3), 3)


def _instant():
    return DegeneracyInstant(Fraction(2), (_branch(),), 3, 3)


def _certified():
    return CertifiedInstant(_instant(), 0, 3, True, "unbounded")


RECORDS = {
    "EigenBranch": _branch,
    "CriticalIndices": lambda: CriticalIndices(1, 1),
    "DegeneracyInstant": _instant,
    "CertifiedInstant": _certified,
    "FamilyClassification": lambda: FamilyClassification(
        FamilyCase.BOTH_POSITIVE, (_certified(),), "accumulate", (Fraction(1), Fraction(3))
    ),
    "ProductFamily": lambda: ProductFamily(SPHERE, HEMISPHERE),
    "FactorSpectrum": lambda: SPHERE._replace(),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
class TestValueSemantics:
    def test_equal_by_value_and_hashable(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fields_are_read_only(self, make):
        record = make()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_copies_are_equal(self, make):
        record = make()
        for duplicate in (copy.copy(record), copy.deepcopy(record)):
            assert type(duplicate) is type(record) and duplicate == record

    def test_replace_keeps_the_type(self, make):
        record = make()
        name = record._fields[0]
        duplicate = record._replace(**{name: getattr(record, name)})
        assert type(duplicate) is type(record) and duplicate == record and duplicate is not record


class TestEigenBranchChecks:
    @pytest.mark.parametrize("i, j", [(0, 0), (-1, 2), (2, -1)])
    def test_bad_indices(self, i, j):
        with pytest.raises(ValueError, match=re.escape("branch indices must satisfy i, j >= 0 and i + j > 0")):
            EigenBranch(i, j, Fraction(1), Fraction(1), 1)

    def test_multiplicity_zero(self):
        with pytest.raises(ValueError, match="^branch multiplicity must be positive$"):
            EigenBranch(1, 0, Fraction(1), Fraction(1), 0)

    def test_replace_checks_too(self):
        with pytest.raises(ValueError, match="^branch multiplicity must be positive$"):
            _branch()._replace(multiplicity=0)
        with pytest.raises(ValueError, match="i \\+ j > 0"):
            _branch()._replace(j=0)

    def test_keywords_and_default_tolerance(self):
        br = EigenBranch(i=1, j=0, a=Fraction(1), b=Fraction(0), multiplicity=2)
        assert br.tolerance is None and br == EigenBranch(1, 0, Fraction(1), Fraction(0), 2, None)


class TestFactorSpectrum:
    def test_equality_compares_the_fields(self):
        assert round_sphere(2) == round_sphere(2) and hash(round_sphere(2)) == hash(round_sphere(2))
        assert SPHERE != HEMISPHERE
        assert SPHERE != SPHERE._replace(label="renamed")

    def test_copies_share_the_table(self, enumerations):
        SPHERE.eigenvalues_leq(50)
        for duplicate in (copy.copy(SPHERE), copy.deepcopy(SPHERE), round_sphere(2)):
            assert duplicate == SPHERE
            assert duplicate.eigenvalues_leq(10) == [(0, 1), (2, 3), (6, 5)]
        assert enumerations == [50]

    def test_replace_shares_the_table_unless_the_parts_change(self, enumerations):
        SPHERE.eigenvalues_leq(50)
        renamed = SPHERE._replace(label="renamed")
        assert renamed != SPHERE and renamed.label == "renamed" and renamed.dim == SPHERE.dim
        assert renamed.eigenvalues_leq(50) == SPHERE.eigenvalues_leq(50) and enumerations == [50]
        SPHERE._replace(parts=(Round(2, Fraction(2), False),)).eigenvalues_leq(6)
        assert enumerations == [50, 6]

    def test_replace_reads_the_new_parts(self):
        """The levels are those of the parts: S^2(r2 = 2) has 0, 1, 3, 6 up to 6, not S^2(r2 = 1)'s 0, 2, 6."""
        spec = SPHERE._replace(parts=(Round(2, Fraction(2), False),))
        assert [eig for eig, _ in spec.eigenvalues_leq(6)] == [0, 1, 3, 6]
        assert spec.level(3) == (6, 7)

    def test_no_attribute_can_be_added(self):
        with pytest.raises(AttributeError):
            SPHERE.table = (50, [])

    def test_positional_and_default_fields(self):
        spec = FactorSpectrum(1, Fraction(0), True, True, "seg", (((Fraction(0), 1),),))
        assert spec.lambda_max is None and spec.tolerance is None
        assert spec.eigenvalues_leq(5) == [(0, 1)]
