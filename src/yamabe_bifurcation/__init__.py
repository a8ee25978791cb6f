"""Degeneracy and bifurcation instants for product metrics g1 (+) s*g2.

Exact eigenvalue branches of the conformal-variation operator
J_s = Laplacian - R/(m-1) on a closed factor times a minimal-boundary factor,
with Morse-index jumps certifying bifurcation of constant-scalar-curvature
solutions along the family.
"""

from .bifurcation import (
    CertifiedInstant,
    CriticalIndices,
    DegeneracyInstant,
    EigenBranch,
    FamilyCase,
    FamilyClassification,
    Monotonicity,
    branch_from_indices,
    branch_zero,
    classify_family,
    critical_indices,
    degeneracy_instants,
    index_jump,
    is_degenerate_pair,
    morse_index,
    sigma_value,
)
from .errors import (
    ConfigError,
    DegeneracyInstantError,
    DegeneratePairError,
    FamilyError,
    IncompleteSpectrumError,
    RecountError,
    SpectrumFormatError,
    YamabeError,
)
from .product import ProductFamily, make_family
from .spectra import (
    FactorSpectrum,
    custom_from_file,
    custom_spectrum,
    even_harmonic_multiplicity,
    flat_torus,
    harmonic_multiplicity,
    hemisphere_neumann,
    interval_neumann,
    round_sphere,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
