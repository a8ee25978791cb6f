"""The four qualitative regimes, decided by the factor curvature signs.

Non-positive curvature on both factors forces rigidity; one positive factor
gives a one-sided sequence of instants; two positive factors give two-sided
accumulation. A constructed degenerate pair shows the excluded case where
zero is an eigenvalue for every s and index-jump certification cannot apply.
"""

from fractions import Fraction

from yamabe_bifurcation import (
    DegeneratePairError,
    classify_family,
    custom_spectrum,
    degeneracy_instants,
    flat_torus,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    round_sphere,
)

WINDOW = (Fraction(1, 10), 20)

families = [
    make_family(flat_torus([1, 1]), interval_neumann(1)),
    make_family(round_sphere(2, 1), interval_neumann(1)),
    make_family(flat_torus([1, 1]), hemisphere_neumann(2, 1)),
    make_family(round_sphere(2, 1), hemisphere_neumann(2, 1)),
]

for fam in families:
    result = classify_family(fam, WINDOW)
    instants = ", ".join(str(ci.instant.s) for ci in result.instants) or "none"
    print(f"{fam.label}")
    print(f"  {result.case.value}: {result.accumulation}")
    print(f"  instants in [{WINDOW[0]}, {WINDOW[1]}]: {instants}\n")

# Degenerate pair: both thresholds hit exactly by a positive eigenvalue.
f1 = custom_spectrum(3, 10, [(0, 1), (Fraction(5, 2), 2)], 10, label="M1")
f2 = custom_spectrum(
    2, 5, [(0, 1), (Fraction(5, 4), 2)], 10,
    has_boundary=True, boundary_minimal=True, label="M2",
)
pair = make_family(f1, f2)
print(f"{pair.label}: {classify_family(pair, WINDOW).case.value}")
try:
    degeneracy_instants(pair, WINDOW)
except DegeneratePairError as exc:
    print(f"  degeneracy_instants refuses the degenerate pair {exc}")
