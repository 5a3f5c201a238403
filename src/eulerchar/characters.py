"""The cohomology of E_k x| C per F_p-simple, read off the characters of
H*(E_k; F_p) as a C-module, and the Swan sum over any family's simples.

A one-dimensional representation of C = Z/m over a splitting field of
characteristic coprime to m is identified with a residue r mod m, its
exponent relative to a fixed primitive character.  The degree-one part of
H*(E_k; F_p) is a sum of such characters, given as a tuple of exponents
(Semidirect.exps), and every degree's character is a Counter from
residues to positive multiplicities.  All the invariant-dimension
bookkeeping done here depends only on exponents, so no field elements are
ever materialized.

Conventions:
  - Bockstein image = the degree-one character in odd characteristic; in
                      characteristic 2 the squares, exponents doubled
  - twist beta      = the one-dimensional module L(beta) on which C acts
                      by alpha^beta and E_k trivially (over F_p when
                      m | p - 1: swan.semidirect_character_module);
                      h^t(G; L(beta)) is the multiplicity of beta in
                      graded_characters(m, exps, p, t)[t]
  - F_p-simple      = a simple F_pG-module of E_k x| C; E_k = O_p(G) acts
                      trivially on it, so it is a simple F_pC-module: the
                      sum of the twists of one Frobenius orbit
                      O = {beta p^i mod m}, of dimension |O|.  When
                      m | p - 1 every orbit is one twist; otherwise
                      (J(k) for k >= 2, Usd(2,7;1,2,4), ...) an orbit
                      can hold several

graded_characters returns all degrees 0..n of H*(E_k; F_p) as one
table, one Counter per degree, the coefficients of the generating function

    p = 2:  prod_a 1 / (1 - t x^a)
    p odd:  prod_a (1 + t x^a) / (1 - t^2 x^a)

over the exponents a, where t counts degree and x^r is the twist r.  The
table is filled by a single walk over the exponents in ascending residue
order, one pass over the degrees per factor, so no degree is built twice
and no two tables are convolved.  It is also where the kernel checks its
inputs, once per call: p coprime to m, n >= 0 and m at most
MAX_ENUMERATION_MODULUS.  orbit_series reads the same table per
F_p-simple, the record of GroupSpec.simple_series: one entry per orbit,
and only the support is walked, never range(m).  alternating_sum is the
package's one signed sum over degrees, swan_formula the one Swan sum over
a list of simples (a family's record, GroupSpec.swan_record, or supplied
modules), and parity_floor the one clamp of a Swan sum.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import EulerCharError

# Exhaustive character enumeration is linear in m; cap it so a bad spec
# cannot stall the process.
MAX_ENUMERATION_MODULUS = 1 << 20


def graded_characters(m: int, exps: Sequence[int], p: int, n: int) -> list[Counter[int]]:
    """Characters of the degree-0..n cohomology of (Z/p)^k as Z/m-modules, from one table pass.

    exps are the exponents of the degree-one part; degree t comes back as
    a Counter from residues mod m to positive multiplicities.  In odd
    characteristic the cohomology is exterior on degree-one generators
    tensored with polynomial on their Bocksteins in degree two; in
    characteristic 2 it is polynomial on the degree-one generators.

    Exponent a multiplies the table by 1 / (1 - t x^a) at p = 2, and by
    (1 + t x^a) / (1 - t^2 x^a) at odd p.  Each factor is a pass that adds
    degree d - step, shifted by a, into degree d: descending d reads
    degree d - step before a has reached it, so a is used at most once
    (the exterior class); ascending d reads it after, so a repeats.
    """
    if math.gcd(p, m) != 1:
        raise EulerCharError(f"characteristic {p} must be coprime to modulus {m}")
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    if m > MAX_ENUMERATION_MODULUS:
        raise EulerCharError(f"modulus {m} exceeds enumeration cap {MAX_ENUMERATION_MODULUS}")
    table: list[Counter[int]] = [Counter() for _ in range(n + 1)]
    table[0][0] = 1
    # (step, degrees) per factor: the polynomial generator in degree 1 at
    # p = 2; the exterior class in degree 1 and its Bockstein in degree 2
    passes = [(1, range(1, n + 1))] if p == 2 else [(1, range(n, 0, -1)), (2, range(2, n + 1))]
    for alpha in sorted(a % m for a in exps):
        for step, degrees in passes:
            for d in degrees:
                here = table[d]
                for r, c in table[d - step].items():
                    here[(r + alpha) % m] += c
    return table


def alternating_sum(dims, n: int) -> int:
    """dims[n] - dims[n-1] + ... +- dims[0] (n >= 0): the signed sum of Swan's formula and of e_n."""
    return sum(dims[n::-2]) - (sum(dims[n - 1::-2]) if n else 0)


def orbit_series(m: int, exps: Sequence[int], p: int, n: int) -> list[tuple[int, list[int]]]:
    """(|O|, |O| h^0..h^n(G; L(beta))) per Frobenius orbit O = {beta p^i mod m} with cohomology, {0} first.

    The F_pG-simples of G = E_k x| C: the simple of orbit O has dimension
    |O|, and h^t(G; S_O) = sum of h^t(G; L(beta)) over beta in O, each equal
    since Galois-conjugate twists have equal cohomology.  Read off one
    graded_characters pass, walking only the support of each degree; a
    twist's orbit is traced the first time it appears.
    """
    records: list[tuple[int, list[int]]] = []
    orbit_dims: dict[int, list[int]] = {}  # beta -> the dims of its orbit's record
    for t, graded in enumerate(graded_characters(m, exps, p, n)):
        for beta, count in graded.items():
            dims = orbit_dims.get(beta)
            if dims is None:
                orbit = [beta]
                while (member := orbit[-1] * p % m) != beta:
                    orbit.append(member)
                dims = [0] * (n + 1)
                orbit_dims.update(dict.fromkeys(orbit, dims))
                records.append((len(orbit), dims))
            dims[t] += count
    return records


def swan_formula(n: int, simples) -> int:
    """max over (dim S, h^0..h^n(G; S)) in `simples` of ceil(alternating_sum / dim S), without floors."""
    return max(-(-alternating_sum(dims, n) // dim) for dim, dims in simples)


def parity_floor(n: int, value: int) -> int:
    """A Swan alternating sum clamped by the floors of a nontrivial group: mu_n >= 1 (n even), >= 0 (n odd)."""
    return max(1 if n % 2 == 0 else 0, value)
