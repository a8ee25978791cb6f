"""Exception hierarchy shared by all modules."""


class YamabeError(Exception):
    """Base class for all library errors."""


class SpectrumFormatError(YamabeError):
    """Malformed custom spectrum file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncompleteSpectrumError(YamabeError):
    """A result would need eigenvalues beyond the spectrum's completeness bound."""


class FamilyError(YamabeError):
    """Invalid factor combination for a product family."""


class DegeneratePairError(YamabeError):
    """Some branch sigma_{i,j}, (i, j) != (0, 0), has both coefficients
    rho_i - T1 and rho_j - T2 of sign 0 by the coefficient rule (exactly 0,
    or in float mode within the tolerance of 0), so 0 is an eigenvalue of J_s
    for every s.  The message is the family's label."""


class DegeneracyInstantError(YamabeError):
    """Morse index requested exactly at a degeneracy instant."""


class RecountError(YamabeError):
    """The Morse index recounted after the last instant differs from the one
    summed from the exact jumps, so some instant was missed."""


class ConfigError(YamabeError):
    """Bad CLI flags or config file."""
