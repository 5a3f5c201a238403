"""Walkthrough: the resolution engine and the brute-force cochain oracle.

Every closed form ships with an independent check: dimensions read off a
free F_pG-resolution, and, for small groups in low degrees, dimensions of
bar cochain cohomology.  Both use exact Gaussian elimination over F_p and
never consult the series or character machinery.
"""

from eulerchar import (
    FpModule,
    cochain_cohomology_dim,
    parse_spec,
    rank_mod_p,
    realize,
    semidirect_character_module,
    verify_series,
)
from eulerchar.resolution import Resolution

print("== exact ranks over small fields ==")
mat = [[2, 0, 1], [0, 3, 1], [2, 3, 2]]
for p in (2, 3, 5):
    print(f"  rank over F{p}:", rank_mod_p(mat, p))
print("Packed bitsets carry F2, two bitplanes carry F3, numpy the rest.")
print()

print("== closed forms against the resolution engine ==")
for text, p in [("E(2,3)", 2), ("E(3,2)", 3), ("J(2)", 2), ("J(2)", 3)]:
    rows = verify_series(parse_spec(text), p, 3)
    verdict = "all match" if all(r.match for r in rows) else "MISMATCH"
    dims = " ".join(str(r.oracle) for r in rows)
    group = realize(parse_spec(text))
    bar = " ".join(str(cochain_cohomology_dim(group, FpModule.trivial(p, group.order), r.n).h) for r in rows)
    print(f"  {text:>7} over F{p}: engine dims {dims} ({verdict}), bar cochain dims {bar}")
print()

print("== a single degree, with the rank bookkeeping shown ==")
a4 = realize(parse_spec("J(2)"))
result = cochain_cohomology_dim(a4, FpModule.trivial(2, 12), 2)
print(f"  A4, degree 2 over F2: cochain dims {result.dim_cochains},")
print(f"  rank d^1 = {result.rank_prev}, rank d^2 = {result.rank_here}, h^2 = {result.h}")
print()

print("== twisted coefficients ==")
spec = parse_spec("U(3,1,1,2)")  # the symmetric group on three letters
g = realize(spec)
print("  S3 with sign coefficients over F3:")
sign = semidirect_character_module(spec, 1, g)
dims = [cochain_cohomology_dim(g, sign, t).h for t in range(4)]
print("  h^0..h^3 =", dims, "(bar cochains)")
print("  h^0..h^3 =", list(Resolution(g, 3).cohomology_dims([sign], 3)[0]), "(free resolution)")
print("  The invariants flip between trivial and sign twists degree by degree.")
