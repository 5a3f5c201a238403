"""Walkthrough: graded dimension series of group cohomology.

Every invariant in this package starts from the numbers
dim H^n(G; F) for F the rationals or a prime field.  This script prints
the closed-form series for each supported family and shows the Kunneth
convolution at work: a product's record pairs its factors' entries and
convolves their series.  A family states its series once, as the trivial
entry of its per-prime record (GroupSpec.simple_series); series_bundle
collects them, one per field.
"""

from eulerchar import (
    parse_spec,
    series_bundle,
    series_cyclic,
    series_elementary_abelian,
)

N = 6

print("== cyclic groups ==")
print("Z/4 over F2: ", series_cyclic(4, 2, N).dims, " (all ones: 2 divides 4)")
print("Z/4 over F3: ", series_cyclic(4, 3, N).dims, " (coprime characteristic kills everything)")
print("Z/4 over Q:  ", series_cyclic(4, None, N).dims, " (finite groups have no rational cohomology)")
print()

print("== elementary abelian groups ==")
for p, k in [(2, 2), (2, 3), (3, 2), (5, 3)]:
    [(_, dims)] = parse_spec(f"E({p},{k})").simple_series(p, N)  # the trivial module, a p-group's only simple
    print(f"(Z/{p})^{k} over F{p}: {dims}")
print()
print("For odd p the algebra is exterior in degree one tensor polynomial in")
print("degree two; over F2 it is polynomial in degree one.  Both give the")
print("same dimensions, binomial(k + n - 1, n).")
print()

print("== Kunneth convolution ==")
a = series_cyclic(3, 3, N)
[(_, prod)] = parse_spec("Prod(C(3),C(3))").simple_series(3, N)  # trivial x trivial, the one simple
print("Z/3 series:           ", a.dims)
print("Z/3 x Z/3 by Kunneth: ", tuple(prod))
print("closed form E(3,2):   ", series_elementary_abelian(3, 2, 3, N).dims)
print()

print("== semidirect products ==")
print("J(2) = (Z/2)^2 x| Z/3 is the alternating group A4.")
for series in series_bundle(parse_spec("J(2)"), N).values():  # Q, F2, F3
    print(f"A4 over {series.field_name:>2}: {series.dims}")
print()
print("Over F2 only the monomials with exponent sum divisible by 3 survive;")
print("over F3 the coefficients concentrate on the cyclic complement.")
