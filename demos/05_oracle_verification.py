"""Cross-checking the exact engine against naive independent computations.

The engine finds branch zeros by exact rational arithmetic; the oracles use
finite differences, dense sign-change scans, matrix ranks, and double loops.
None of the oracle code touches the engine's formulas, which is the point.
"""

from fractions import Fraction

from yamabe_bifurcation import (
    degeneracy_instants,
    hemisphere_neumann,
    interval_neumann,
    make_family,
    morse_index,
    round_sphere,
)
from yamabe_bifurcation.oracle import (
    brute_force_indices,
    dense_scan_degeneracy,
    even_harmonic_dimension,
    fd_interval_spectrum,
    harmonic_dimension,
)

print("1. interval spectrum: second-order finite differences vs k^2")
exact = [float(e) for e, _ in interval_neumann(1).eigenvalues_leq(25)]
for got, want in zip(fd_interval_spectrum(2000, 6), exact):
    print(f"   FD {got:12.8f}  exact {want:4.1f}  err {abs(got - want):.2e}")

print("\n2. sphere/hemisphere multiplicities vs Laplacian kernel ranks")
for k in range(6):
    full = harmonic_dimension(2, k)
    even = even_harmonic_dimension(2, k)
    print(
        f"   k = {k}: sphere {round_sphere(2, 1).level(k)[1]} = rank count {full}, "
        f"hemisphere {hemisphere_neumann(2, 1).level(k)[1]} = even count {even}"
    )

fam = make_family(round_sphere(2, 1), hemisphere_neumann(2, 1))

print("\n3. exact degeneracy instants vs dense sign-change scan")
instants = degeneracy_instants(fam, (Fraction(1, 100), 20))
brackets = dense_scan_degeneracy(fam, (0.01, 20), 100000, 60, 60)
for inst, (lo, hi) in zip(instants, brackets):
    inside = lo <= float(inst.s) <= hi
    print(f"   s = {str(inst.s):>5} in [{lo:.10f}, {hi:.10f}]: {inside}")

print("\n4. Morse index vs brute-force double loop")
for s in (Fraction(1, 4), 1, 3, 12):
    engine = morse_index(fam, s)
    brute = brute_force_indices(fam, [(s, 500, 500 * s)])[0]
    print(f"   s = {s}: engine {engine}, brute force {brute}, agree: {engine == brute}")
