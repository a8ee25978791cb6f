"""Spectral models of the factor manifolds.

A ``FactorSpectrum`` is the data the product construction actually consumes:
dimension, constant scalar curvature, boundary flags, and the ordered distinct
Laplace eigenvalues with multiplicities (Neumann eigenvalues when the factor
has a boundary).  Catalog constructors cover the interval, the round sphere,
the closed hemisphere and the flat torus; any other factor can be supplied as
a text file via :func:`custom_from_file`.  A factor's levels come from its
parts alone.  A catalog factor is a product of ``Round`` parts: eigenvalues
k(k+n-1)/r2, k >= 0, with harmonic multiplicities on S^n and even-harmonic
ones on its closed hemisphere.  The interval [0, pi*lambda] is one part,
n = 1, r2 = lambda^2: the closed half circle of radius lambda, whose even
harmonics are simple.  A flat torus is the product of its circles S^1, whose
levels convolve: theta_{AxB} = theta_A * theta_B, on integers over the lcm
D of the p of each r2 = p/q, each distinct sum one ``Fraction`` at the end.

Every catalog spectrum satisfies a completeness contract: asked for all
eigenvalues up to a cutoff, it returns a provably complete finite list, for
any cutoff.  Custom spectra are complete only up to their declared
``lambda_max``; asking beyond it raises ``IncompleteSpectrumError`` instead of
silently truncating.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import scalars
from .errors import IncompleteSpectrumError, SpectrumFormatError
from .scalars import Scalar, as_exact

Level = Tuple[Scalar, int]

# the most levels, or level pairs of a product, one enumeration may hold: about 1.9 GB at 187 B a level
_MAX_LEVELS = 10**7

# a catalog factor's parts -> (largest bound enumerated, its levels); a table lives as long as the process
_TABLES = {}


class FactorSpectrum(NamedTuple):
    """One factor manifold, reduced to its spectral data.

    ``parts`` is what the factor is the product of, and all its levels come
    from them: its ``Round`` parts for a catalog factor, whose levels are
    enumerated by ``_round_levels`` into one table of the largest bound so
    far, kept in the module's ``_TABLES`` under the parts' value; or one
    tuple of its listed levels for a custom one, which is its table.  Equal
    factors, copies and ``_replace`` of other fields share a table; new
    parts read their own.  ``lambda_max`` None means complete for every
    cutoff, ``tolerance`` None exact rational mode.
    """

    dim: int
    scalar_curvature: Scalar
    has_boundary: bool
    boundary_minimal: bool
    label: str
    parts: tuple
    lambda_max: Optional[Scalar] = None
    tolerance: Optional[float] = None

    def _levels_upto(self, bound) -> Sequence[Level]:
        """A custom factor's listed levels, or the round parts' table, enumerated afresh to a ``bound`` beyond it."""
        if not isinstance(self.parts[0], Round):
            return self.parts[0]
        table = _TABLES.get(self.parts)
        if table is None or bound > table[0]:
            table = _TABLES[self.parts] = (bound, _round_levels(self.parts, bound, self.label))
        return table[1]

    def _prefix(self, bound, past) -> List[Level]:
        if self.lambda_max is not None and scalars.gt(bound, self.lambda_max, self.tolerance):
            raise IncompleteSpectrumError(
                f"{self.label}: spectrum is only complete up to {scalars.fmt(self.lambda_max, self.tolerance)}, "
                f"but eigenvalues up to {scalars.fmt(bound, self.tolerance)} are required"
            )
        # a bound below 0 reads no level, unless level 0 lies within the tolerance of it
        levels = self._levels_upto(max(bound, 0))
        # the levels whose eigenvalue is past(eigenvalue, bound) form a suffix of the table
        end = bisect.bisect_left(levels, True, key=lambda lv: past(lv[0], bound, self.tolerance))
        return list(levels[:end])

    def eigenvalues_leq(self, bound) -> List[Level]:
        """All (eigenvalue, multiplicity) with eigenvalue <= bound, ascending."""
        return self._prefix(bound, scalars.gt)

    def eigenvalues_below(self, bound) -> List[Level]:
        """All (eigenvalue, multiplicity) with eigenvalue strictly < bound."""
        return self._prefix(bound, scalars.ge)

    def level(self, index: int) -> Level:
        """The ``index``-th distinct eigenvalue with its multiplicity."""
        if index < 0:
            raise ValueError("negative level index")
        if isinstance(self.parts[0], Round):
            # each part's levels 0..index, the other parts' at 0, are index + 1 distinct levels up to its level index
            bound = min(Fraction(index * (index + part.n - 1)) / part.r2 for part in self.parts)
            return self._levels_upto(bound)[index]
        levels = self.parts[0]
        if index >= len(levels):
            raise IncompleteSpectrumError(f"{self.label}: level {index} lies beyond the declared "
                                          f"completeness bound {scalars.fmt(self.lambda_max, self.tolerance)}")
        return levels[index]


def harmonic_multiplicity(n: int, k: int) -> int:
    """Multiplicity of the k-th distinct eigenvalue of the round n-sphere:
    C(n+k, n) - C(n+k-2, n)."""
    if k == 0:
        return 1
    return math.comb(n + k, n) - math.comb(n + k - 2, n)


def even_harmonic_multiplicity(n: int, k: int) -> int:
    """Neumann multiplicity on the closed hemisphere of S^n: degree-k
    harmonics even under the equatorial reflection.  Restriction to the
    equatorial hyperplane maps them one to one onto the degree-k polynomials
    in n variables, C(n+k-1, n-1) of them."""
    return math.comb(n + k - 1, n - 1)


class Round(NamedTuple):
    """S^n of radius^2 ``r2``, or its closed hemisphere when ``half`` (for n = 1,
    the interval [0, pi*sqrt(r2)]): eigenvalues k(k+n-1)/r2, k >= 0, with the
    harmonic multiplicities, or the even-harmonic ones on a hemisphere, whose
    totally geodesic boundary is minimal; R = n(n-1)/r2."""

    n: int
    r2: Fraction
    half: bool

    def count(self, bound) -> int:
        """The number of levels <= ``bound``: k(k+n-1) <= bound*r2 iff (2k+n-1)^2 <= (n-1)^2 + 4*floor(bound*r2)."""
        n, cap = self.n, math.floor(Fraction(bound) * self.r2)  # Fraction keeps a float bound exact
        top = (math.isqrt((n - 1) ** 2 + 4 * cap) - (n - 1)) // 2
        return top + 1


def _round_levels(parts: Tuple[Round, ...], bound, label) -> List[Level]:
    """The levels <= ``bound`` of the product of the round ``parts``, named ``label``.  With each r2 = p/q
    and D the lcm of the p, a part's level k is the integer k(k+n-1)*q*(D/p) over D, and so are their sums."""
    # the levels <= bound/2 of the first two parts pair into sums <= bound: the fold makes as many pairs or more
    middle = Fraction(bound) / 2
    pairs = parts[0].count(middle) * parts[1].count(middle) if len(parts) > 1 else 0
    if pairs > _MAX_LEVELS or any(part.count(bound) > _MAX_LEVELS for part in parts):
        raise IncompleteSpectrumError(f"{label}: the eigenvalues up to {scalars.fmt(bound)} are too many to enumerate")
    den = math.lcm(*(part.r2.numerator for part in parts))
    top = math.floor(Fraction(bound) * den)  # Fraction keeps a float bound exact
    levels = [(0, 1)]  # the product of no parts
    for part in parts:
        n, scale = part.n, part.r2.denominator * (den // part.r2.numerator)
        multiplicity = even_harmonic_multiplicity if part.half else harmonic_multiplicity
        column = [(k * (k + n - 1) * scale, multiplicity(n, k)) for k in range(part.count(bound))]
        values, rows, pairs = [v for v, _ in column], [], 0
        for r, m in levels:
            # the levels ascend, so the q <= top - r are a prefix of the column
            row = bisect.bisect_right(values, top - r)
            pairs += row
            if pairs > _MAX_LEVELS:
                raise IncompleteSpectrumError(f"{label}: the eigenvalues up to {scalars.fmt(bound)} are too many to enumerate")
            rows.append((r, m, row))
        sums = {}
        for r, m, row in rows:
            for q, mq in column[:row]:
                sums[r + q] = sums.get(r + q, 0) + m * mq
        levels = sorted(sums.items())
    return [(Fraction(v, den), m) for v, m in levels]


def _factor(parts: Tuple[Round, ...], label: str) -> FactorSpectrum:
    """The product of the round ``parts``, named ``label``: dimensions and scalar curvatures
    add, and a half part gives it a minimal boundary."""
    if any(part.r2 <= 0 for part in parts):
        raise ValueError("radius squared must be positive")
    half = any(part.half for part in parts)
    return FactorSpectrum(
        dim=sum(part.n for part in parts),
        scalar_curvature=sum(Fraction(part.n * (part.n - 1)) / part.r2 for part in parts),
        has_boundary=half,
        boundary_minimal=half,  # for the interval, vacuously
        label=label,
        parts=parts,
    )


def interval_neumann(lam) -> FactorSpectrum:
    """Neumann spectrum of the segment [0, pi*lam]: k^2/lam^2, simple."""
    lam = as_exact(lam)
    if lam <= 0:
        raise ValueError("interval length must be positive")
    return _factor((Round(1, lam * lam, True),), f"I(lambda={scalars.fmt(lam)})")


def round_sphere(n: int, radius_sq=1) -> FactorSpectrum:
    """Round n-sphere of radius^2 = r2: eigenvalues k(k+n-1)/r2 with the
    harmonic-polynomial multiplicities; R = n(n-1)/r2."""
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    r2 = as_exact(radius_sq)
    return _factor((Round(n, r2, False),), f"S^{n}(r2={scalars.fmt(r2)})")


def hemisphere_neumann(n: int, radius_sq=1) -> FactorSpectrum:
    """Closed hemisphere of S^n with Neumann condition on the (totally
    geodesic, hence minimal) equator.  Same eigenvalues as the sphere, with
    the even-harmonic multiplicities."""
    if n < 2:
        raise ValueError("hemisphere dimension must be >= 2 (the equator must be a manifold)")
    r2 = as_exact(radius_sq)
    return _factor((Round(n, r2, True),), f"S^{n}+(r2={scalars.fmt(r2)})")


def flat_torus(squared_lengths: Sequence) -> FactorSpectrum:
    """Flat torus with side lengths L_i, specified as ell_i = L_i^2/(4 pi^2).

    Demanding rational ell_i makes the eigenvalues sum_i k_i^2/ell_i exact
    rationals in absolute units (the 4 pi^2 factor cancels); a torus with
    L = 2 pi in every direction has ell = 1 and the integer-lattice spectrum.
    It is the product of its circles, the parts S^1(r2 = ell_i), of levels
    k^2/ell_i and multiplicities 1, 2, 2, ... (theta series multiply).
    """
    ells = [as_exact(v) for v in squared_lengths]
    if not ells:
        raise ValueError("torus needs at least one side length")
    if any(v <= 0 for v in ells):
        raise ValueError("torus squared lengths must be positive")
    return _factor(tuple(Round(1, ell, False) for ell in ells),
                   f"T^{len(ells)}(l2/4pi2=[{','.join(scalars.fmt(v) for v in ells)}])")


def custom_spectrum(
    dim: int,
    scalar_curvature,
    levels: Sequence[Tuple],
    lambda_max,
    has_boundary: bool = False,
    boundary_minimal: bool = False,
    tolerance: Optional[float] = None,
    label: str = "custom",
) -> FactorSpectrum:
    """A user-supplied finite spectrum, complete up to ``lambda_max``."""
    tol = tolerance if tolerance is None else _finite_tolerance(tolerance)
    if dim != int(dim):
        raise ValueError(f"{label}: dimension must be an integer, got {dim}")
    if dim < 1:
        raise ValueError(f"{label}: dimension must be at least 1, got {dim}")
    coerced: List[Level] = []
    for eig, mult in levels:
        eig = scalars.as_scalar(eig, tol)
        mult = int(mult)
        if mult < 1:
            raise ValueError(f"{label}: multiplicity must be >= 1, got {mult}")
        coerced.append((eig, mult))
    if not coerced or not scalars.close(coerced[0][0], 0, tol) or coerced[0][1] != 1:
        raise ValueError(f"{label}: spectrum must start with eigenvalue 0 of multiplicity 1")
    for (a, _), (b, _) in zip(coerced, coerced[1:]):
        if not scalars.lt(a, b, tol):
            raise ValueError(f"{label}: eigenvalues must be strictly increasing")
    if has_boundary and not boundary_minimal:
        raise ValueError(f"{label}: a boundary factor must have minimal boundary (H = 0)")
    lam_max = scalars.as_scalar(lambda_max, tol)
    if scalars.lt(lam_max, coerced[-1][0], tol):
        raise ValueError(f"{label}: lambda_max below the largest listed eigenvalue")

    return FactorSpectrum(
        dim=int(dim),
        scalar_curvature=scalars.as_scalar(scalar_curvature, tol),
        has_boundary=has_boundary,
        boundary_minimal=boundary_minimal,
        label=label,
        parts=(tuple(coerced),),
        lambda_max=lam_max,
        tolerance=tol,
    )


def _lines(path, error):
    """(line number, text) of each line of the UTF-8 file ``path`` that holds
    more than blanks and a ``#`` comment, the comment stripped; ``error(message)``
    is raised when the file is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text ({exc})")
    for num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line


_BOOL = {"true": True, "false": False}
_HEADER_KEYS = ("dim", "scalar_curvature", "has_boundary", "boundary_minimal", "lambda_max", "tolerance")


def _finite_tolerance(tol, error=ValueError):
    """``tol`` when it is positive and finite, else ``error`` is raised."""
    if not tol > 0:  # NaN too
        raise error("tolerance must be positive")
    if tol == math.inf:
        raise error("tolerance must be finite")
    return tol


def custom_from_file(path) -> FactorSpectrum:
    """Parse the line-oriented custom spectrum format.

    Header keys: dim, scalar_curvature, has_boundary, boundary_minimal,
    lambda_max, and optionally tolerance (presence selects floating mode);
    any other key is an error.  Then one ``eig <value> <multiplicity>`` line
    per distinct eigenvalue.
    """
    header = {}
    rows = []
    for num, line in _lines(path, lambda message: SpectrumFormatError(f"{path}: {message}")):
        parts = line.split()
        if parts[0] == "eig":
            if len(parts) != 3:
                raise SpectrumFormatError("expected 'eig <value> <multiplicity>'", num)
            try:
                rows.append(((parts[1], num), int(parts[2])))
            except ValueError:
                raise SpectrumFormatError(f"bad multiplicity {parts[2]!r}", num)
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise SpectrumFormatError(f"unknown header key {key!r}", num)
            if key in header:
                raise SpectrumFormatError(f"repeated header key {key!r} (first on line {header[key][1]})", num)
            header[key] = (value.strip(), num)
        else:
            raise SpectrumFormatError(f"unrecognized line {line!r}", num)

    def setting(key, parse, message="bad {key} {value!r}", entry=None):
        """``parse`` of header ``key``'s (value, line number), or of ``entry``; a missing key,
        or a value ``parse`` rejects, raises SpectrumFormatError at that line, with ``message``
        of the key and value unless ``parse`` raised one with its own."""
        if entry is None and key not in header:
            raise SpectrumFormatError(f"missing header key {key!r}")
        value, num = entry or header[key]
        try:
            return parse(value)
        except SpectrumFormatError as exc:
            raise SpectrumFormatError(str(exc), num)
        except (ValueError, ZeroDivisionError, TypeError, KeyError):
            raise SpectrumFormatError(message.format(key=key, value=value), num)

    # the settings are read, and so checked, in this order
    finite = lambda text: _finite_tolerance(float(text), SpectrumFormatError)
    tol = setting("tolerance", finite) if "tolerance" in header else None
    dim = setting("dim", int)
    scalar = lambda value: scalars.as_scalar(value, tol)
    curvature = setting("scalar_curvature", scalar)
    lam_max = setting("lambda_max", scalar)
    levels = [(setting("eigenvalue", scalar, entry=entry), mult) for entry, mult in rows]
    flags = [setting(key, _BOOL.__getitem__, "{key} must be true or false")
             for key in ("has_boundary", "boundary_minimal")]
    try:
        return custom_spectrum(dim, curvature, levels, lam_max, *flags, tolerance=tol, label=str(path))
    except ValueError as exc:
        raise SpectrumFormatError(str(exc))
