"""The one-parameter product family g_s = g1 (+) s*g2.

Factor one is closed, factor two has minimal boundary; the total dimension m
must be at least 3.  The family owns the two thresholds T_i = R_i/(m-1) that
drive the whole branch analysis downstream.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

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


def scalar_curvature_at(fam: ProductFamily, s) -> Scalar:
    """R(s) = R1 + R2/s, constant on the product for every s > 0."""
    s = fam.coerce(s)
    if s <= 0:
        raise ValueError("family parameter s must be positive")
    return fam.factor1.scalar_curvature + fam.factor2.scalar_curvature / s


class ReparametrizedFamily(NamedTuple):
    """The family {(1/s) g1 (+) g2}: at parameter s the whole product metric
    is the homothety (1/s) * g_s, so its J-operator spectrum is s times the
    original one and the two degeneracy sets coincide."""

    base: ProductFamily

    @property
    def label(self) -> str:
        return f"(1/s){self.base.factor1.label} x {self.base.factor2.label}"

    def sigma_value(self, i: int, j: int, s) -> Scalar:
        """Branch value of the reparametrized family: at parameter s the
        metric is the homothety (1/s)*g_s, so the branch is the affine map
        a*s + b (s times the original branch)."""
        s = self.base.coerce(s)
        if s <= 0:
            raise ValueError("family parameter s must be positive")
        a, b = self._coefficients(i, j)
        return a * s + b

    def _coefficients(self, i: int, j: int) -> Tuple[Scalar, Scalar]:
        fam = self.base
        r1, _ = fam.factor1.level(i)
        r2, _ = fam.factor2.level(j)
        return r1 - fam.threshold1, r2 - fam.threshold2

    def degeneracy_instant_set(self, window, lam=None) -> List[Scalar]:
        """Zeros of the affine branches a*s + b inside the window, computed by
        solving each linear equation directly (not by delegating to the base
        family's engine)."""
        from .bifurcation import enumeration_bounds

        fam = self.base
        s_min = fam.coerce(window[0])
        s_max = fam.coerce(window[1])
        if not (0 < s_min < s_max):
            raise ValueError("window must satisfy 0 < s_min < s_max")
        need1, need2 = enumeration_bounds(fam, (s_min, s_max))
        found = set()
        levels1 = fam.factor1.eigenvalues_leq(max(need1, 0))
        levels2 = fam.factor2.eigenvalues_leq(max(need2, 0))
        for r1, _ in levels1:
            a = r1 - fam.threshold1
            for r2, _ in levels2:
                if r1 == 0 and r2 == 0:
                    continue
                b = r2 - fam.threshold2
                if a == 0:
                    continue  # constant-in-s after unscaling: no isolated zero
                s = -b / a
                if s_min <= s <= s_max:
                    found.add(s)
        return sorted(found)


def homothety_reparametrization(fam: ProductFamily) -> Tuple[ReparametrizedFamily, "callable"]:
    """The reparametrized family together with the map between degeneracy
    instants of the two parametrizations (the identity)."""
    return ReparametrizedFamily(fam), lambda s: s
