"""The cohomology of E_k x| C per F_p-simple, read off the characters of
H*(E_k; F_p) as a C-module.

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

graded_characters returns all degrees 0..n of
H^t = sum_s Lambda^s (x) S^((t-s)/2) from one pass over the exponents in
ascending residue order (_power_table), as one Counter per degree: one
symmetric table up to n for p = 2, whose degree s is S^s; for odd p one
exterior table up to n and one symmetric table up to n // 2, and degree
t summed straight into one Counter, the convolution of exterior[s] with
symmetric[(t - s) / 2] over s = t mod 2.  It is also where the kernel
checks its inputs, once per call: p coprime to m, n >= 0 and m at most
MAX_ENUMERATION_MODULUS.  orbit_series reads the same pass per
F_p-simple, the record of GroupSpec.simple_series: one entry per orbit,
and only the support is walked, never range(m).  alternating_sum is the
package's one signed sum over degrees, and parity_floor the one clamp of
a Swan sum.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import EulerCharError

# Exhaustive character enumeration is linear in m; cap it so a bad spec
# cannot stall the process.
MAX_ENUMERATION_MODULUS = 1 << 20


def _power_table(m: int, slots: Sequence[int], top: int, exterior: bool) -> list[Counter[int]]:
    """Characters of the exterior (or symmetric) powers in degrees 0..top.

    One pass over the character slots: slot alpha extends every degree
    d - 1 to degree d.  Descending d reads degree d - 1 before alpha has
    reached it, so a slot is used at most once (exterior); ascending d
    reads it after, so slots repeat (symmetric).
    """
    table: list[Counter[int]] = [Counter() for _ in range(top + 1)]
    table[0][0] = 1
    degrees = range(top, 0, -1) if exterior else range(1, top + 1)
    for alpha in slots:
        for d in degrees:
            here = table[d]
            for r, c in table[d - 1].items():
                here[(r + alpha) % m] += c
    return table


def graded_characters(m: int, exps: Sequence[int], p: int, n: int) -> list[Counter[int]]:
    """Characters of the degree-0..n cohomology of (Z/p)^k as Z/m-modules, from one table pass.

    exps are the exponents of the degree-one part; degree t comes back as
    a Counter from residues mod m to positive multiplicities.  In odd
    characteristic the cohomology is exterior on degree-one generators
    tensored with polynomial on their Bocksteins in degree two; in
    characteristic 2 it is polynomial on the degree-one generators.
    """
    if math.gcd(p, m) != 1:
        raise EulerCharError(f"characteristic {p} must be coprime to modulus {m}")
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    if m > MAX_ENUMERATION_MODULUS:
        raise EulerCharError(f"modulus {m} exceeds enumeration cap {MAX_ENUMERATION_MODULUS}")
    slots = sorted(a % m for a in exps)
    if p == 2:
        return _power_table(m, slots, n, exterior=False)
    exterior = _power_table(m, slots, n, exterior=True)
    symmetric = _power_table(m, slots, n // 2, exterior=False)
    out = []
    for t in range(n + 1):
        total: Counter[int] = Counter()
        for s in range(t % 2, t + 1, 2):  # Lambda^s (x) S^((t - s) / 2)
            bocksteins = symmetric[(t - s) // 2].items()
            for r, c in exterior[s].items():
                for q, d in bocksteins:
                    total[(r + q) % m] += c * d
        out.append(total)
    return out


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


def parity_floor(n: int, value: int) -> int:
    """A Swan alternating sum clamped by the floors of a nontrivial group: mu_n >= 1 (n even), >= 0 (n odd)."""
    return max(1 if n % 2 == 0 else 0, value)
