"""Degeneracy and bifurcation instants for product metrics g1 (+) s*g2.

Exact eigenvalue branches of the conformal-variation operator
J_s = Laplacian - R/(m-1) on a closed factor times a minimal-boundary factor,
with Morse-index jumps certifying bifurcation of constant-scalar-curvature
solutions along the family.  A public name is imported from its defining module
when first read (PEP 562), so reading factor spectra loads no branch engine.
"""

import importlib

# defining module -> the public names it gives the package
_NAMES = {
    "bifurcation": "CertifiedInstant CriticalIndices DegeneracyInstant EigenBranch FamilyCase FamilyClassification "
                   "Monotonicity branch_from_indices branch_zero classify_family critical_indices "
                   "degeneracy_instants index_jump is_degenerate_pair morse_index sigma_value".split(),
    "errors": "ConfigError DegeneracyInstantError DegeneratePairError FamilyError IncompleteSpectrumError "
              "RecountError SpectrumFormatError YamabeError".split(),
    "product": ["ProductFamily", "make_family"],
    "scalars": [],
    "spectra": "FactorSpectrum custom_from_file custom_spectrum even_harmonic_multiplicity flat_torus "
               "harmonic_multiplicity hemisphere_neumann interval_neumann round_sphere".split(),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted([*_NAMES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _NAMES and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")  # a submodule binds itself here
    return module if name in _NAMES else getattr(module, name)
