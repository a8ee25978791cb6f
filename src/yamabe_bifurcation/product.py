"""The one-parameter product family g_s = g1 (+) s*g2.

Factor one is closed, factor two has minimal boundary; the total dimension m
must be at least 3.  The family owns the two thresholds T_i = R_i/(m-1) that
drive the whole branch analysis downstream.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import scalars
from .errors import FamilyError
from .scalars import Scalar
from .spectra import FactorSpectrum


class ProductFamily(NamedTuple):
    factor1: FactorSpectrum
    factor2: FactorSpectrum

    @property
    def m(self) -> int:
        return self.factor1.dim + self.factor2.dim

    @property
    def tolerance(self) -> Optional[float]:
        return self.factor1.tolerance

    @property
    def threshold1(self) -> Scalar:
        """T1 = R1/(m-1), recomputed from the stored curvature every time."""
        return self.factor1.scalar_curvature / (self.m - 1)

    @property
    def threshold2(self) -> Scalar:
        return self.factor2.scalar_curvature / (self.m - 1)

    @property
    def label(self) -> str:
        return f"{self.factor1.label} x {self.factor2.label}"

    def coerce(self, value) -> Scalar:
        """Bring a user-supplied number into the family's scalar representation."""
        return scalars.as_scalar(value, self.tolerance)


def make_family(factor1: FactorSpectrum, factor2: FactorSpectrum) -> ProductFamily:
    if factor1.has_boundary:
        raise FamilyError(f"factor1 ({factor1.label}) must be closed")
    if not factor2.has_boundary:
        raise FamilyError(f"factor2 ({factor2.label}) must have a boundary")
    if not factor2.boundary_minimal:
        raise FamilyError(f"factor2 ({factor2.label}) must have minimal boundary (H = 0)")
    if factor1.dim + factor2.dim < 3:
        raise FamilyError(
            f"total dimension {factor1.dim + factor2.dim} < 3"
        )
    if factor1.tolerance != factor2.tolerance:
        raise FamilyError(
            "factors use incompatible numeric representations "
            f"(tolerances {factor1.tolerance} and {factor2.tolerance})"
        )
    return ProductFamily(factor1, factor2)
