"""Walkthrough: the invariants e_n and mu_n.

e_n(G) bounds Euler characteristics from below through ordinary
cohomology; mu_n(G) is the minimal normalized partial Euler
characteristic of an n-step resolution, computed through Swan's
cohomological formula.  Together they sandwich the minimal Euler
characteristic q_{2n}(G).
"""

from eulerchar import (
    ElementaryAbelian,
    Frobenius,
    compute_mun,
    parse_spec,
    swan_report,
)

print("== elementary abelian groups: polynomial growth ==")
print(" k   mu_1  mu_2  mu_3  mu_4   (p = 3)")
for k in range(1, 9):
    spec = ElementaryAbelian(3, k)
    values = [compute_mun(spec, n).mu for n in (1, 2, 3, 4)]
    print("{:>2}   {:>4}  {:>4}  {:>4}  {:>4}".format(k, *values))
print()
print("mu_n(E_k) grows like a degree-n polynomial in k; the differences")
print("mu_n - mu_{n-1} are the lower-bound polynomials for q_{2n}.")
print()

print("== the J_k family: high rank, tiny mu_2 ==")
print(" k    e_2  mu_2")
for k in range(2, 11):
    row = swan_report(Frobenius(k), 2).row(2)
    print("{:>2}   {:>4}  {:>4}".format(k, row.e_n, row.mu_n))
print()
print("mu_2(J_k) = 1 for k >= 3: the character contributions cancel in")
print("every twist except the pairwise ones, which contribute exactly 1.")
print("Groups needing arbitrarily many generators still admit 2-step")
print("resolutions of minimal size.")
print()

print("== degree four for A4 ==")
print("mu_4(A4) =", compute_mun(Frobenius(2), 4).mu)
print("A rational homology 8-sphere with fundamental group A4 exists.")
print()

print("== a full report ==")
rep = swan_report(parse_spec("J(2)"), 4)
print("degree table for A4 (e_n, mu_n, mu'_n):")
for row in rep.rows:
    print(f"  n={row.n}: e={row.e_n} mu={row.mu_n} mu'={row.mu_prime_n} exceptional={row.exceptional.value}")
