"""Multiset arithmetic on characters of a finite cyclic group, and the
cohomology of E_k x| C per twist (twisted_series) and per F_p-simple
(orbit_series).

A one-dimensional representation of C = Z/m over a splitting field of
characteristic coprime to m is identified with a residue r mod m, its
exponent relative to a fixed primitive character.  A representation that
splits into one-dimensional pieces is then a multiset of residues.  All
the invariant-dimension bookkeeping done here depends only on exponents,
so no field elements are ever materialized.

Conventions:
  - tensor product  = convolution of exponent multisets
  - C-invariants    = multiplicity of the residue 0
  - Bockstein image = the degree-one character in odd characteristic; in
                      characteristic 2 the squares, exponents doubled
  - twist beta      = the one-dimensional module L(beta) on which C acts
                      by alpha^beta and E_k trivially (over F_p when
                      m | p - 1: swan.semidirect_character_module);
                      h^t(G; L(beta)) is the multiplicity of beta in
                      graded_characters(chars, p, t)[t]
  - F_p-simple      = a simple F_pG-module of E_k x| C; E_k = O_p(G) acts
                      trivially on it, so it is a simple F_pC-module: the
                      sum of the twists of one Frobenius orbit
                      O = {beta p^i mod m}, of dimension |O|.  When
                      m | p - 1 every orbit is one twist; otherwise
                      (J(k) for k >= 2, Usd(2,7;1,2,4), ...) an orbit
                      can hold several

Power tables: the exterior and symmetric powers of every degree up to a
top degree come from one pass over the character slots (_power_table),
each slot extending degree d - 1 to degree d.  exterior_power and
symmetric_power read the top entry of such a table.  graded_characters
returns all degrees 0..n of H^t = sum_s Lambda^s (x) S^((t-s)/2) from one
table pass: one symmetric table up to n for p = 2; for odd p one exterior
table up to n and one symmetric table up to n // 2.  An odd-p degree t is
summed straight into one Counter, the convolution of exterior[s] with
symmetric[(t - s) / 2] over s = t mod 2, and wrapped in one CharMultiset
per degree.  twisted_series reads every twist's series off one
graded_characters call; its beta = 0 entry is the series with trivial
coefficients, listed first.  orbit_series reads the same pass per
F_p-simple instead, the record of GroupSpec.simple_series: one entry per
orbit, so a J(k) record is about k times shorter than its twist list, and
only the support is walked, never range(m).  alternating_sum is the
package's one signed sum over degrees, and parity_floor the one clamp of
a Swan sum.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

from .errors import EulerCharError

# Exhaustive character enumeration is linear in m; cap it so a bad spec
# cannot stall the process.
MAX_ENUMERATION_MODULUS = 1 << 20


class CharMultiset:
    """Multiset of character exponents mod m with nonnegative multiplicities."""

    __slots__ = ("m", "_counts")

    def __init__(self, m: int, counts: Mapping[int, int] | None = None):
        if m < 1:
            raise EulerCharError(f"modulus must be >= 1, got {m}")
        self.m = m
        cleaned: dict[int, int] = {}
        for r, c in (counts or {}).items():
            if c < 0:
                raise EulerCharError(f"negative multiplicity {c} for residue {r}")
            if not 0 <= r < m:
                raise EulerCharError(f"residue {r} out of range [0, {m})")
            if c:
                cleaned[r] = cleaned.get(r, 0) + c
        self._counts = cleaned

    @classmethod
    def from_elements(cls, m: int, elements: Iterable[int]) -> "CharMultiset":
        return cls(m, Counter(e % m for e in elements))

    @property
    def dim(self) -> int:
        """Total multiplicity, i.e. the dimension of the underlying module."""
        return sum(self._counts.values())

    def multiplicity(self, r: int) -> int:
        return self._counts.get(r % self.m, 0)

    def items(self):
        return sorted(self._counts.items())

    def elements(self) -> list[int]:
        out: list[int] = []
        for r, c in self.items():
            out.extend([r] * c)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharMultiset)
            and self.m == other.m
            and self._counts == other._counts
        )

    def __hash__(self) -> int:
        return hash((self.m, tuple(self.items())))

    def __repr__(self) -> str:
        inside = ", ".join(f"{r}:{c}" for r, c in self.items())
        return f"CharMultiset(mod {self.m}; {{{inside}}})"

    def _require_same_modulus(self, other: "CharMultiset") -> None:
        if self.m != other.m:
            raise EulerCharError(f"modulus mismatch: {self.m} != {other.m}")

    def union(self, other: "CharMultiset") -> "CharMultiset":
        """Multiset union (direct sum of representations)."""
        self._require_same_modulus(other)
        merged = Counter(self._counts)
        merged.update(other._counts)
        return CharMultiset(self.m, merged)

    def tensor(self, other: "CharMultiset") -> "CharMultiset":
        """Character of the tensor product: convolution of exponents."""
        self._require_same_modulus(other)
        out: Counter[int] = Counter()
        for r, c in self._counts.items():
            for s, d in other._counts.items():
                out[(r + s) % self.m] += c * d
        return CharMultiset(self.m, out)

    def scaled(self, unit: int) -> "CharMultiset":
        """Multiply every exponent by a unit mod m (relabel the generator of C)."""
        if math.gcd(unit, self.m) != 1:
            raise EulerCharError(f"{unit} is not a unit mod {self.m}")
        out: Counter[int] = Counter()
        for r, c in self._counts.items():
            out[(r * unit) % self.m] += c
        return CharMultiset(self.m, out)

    def invariants_dim(self) -> int:
        """Dimension of the C-fixed subspace: multiplicity of exponent 0."""
        return self._counts.get(0, 0)


def _power_table(chars: CharMultiset, top: int, exterior: bool) -> list[Counter[int]]:
    """Characters of the exterior (or symmetric) powers in degrees 0..top.

    One pass over the character slots: slot alpha extends every degree
    d - 1 to degree d.  Descending d reads degree d - 1 before alpha has
    reached it, so a slot is used at most once (exterior); ascending d
    reads it after, so slots repeat (symmetric).
    """
    m = chars.m
    table: list[Counter[int]] = [Counter() for _ in range(top + 1)]
    table[0][0] = 1
    degrees = range(top, 0, -1) if exterior else range(1, top + 1)
    for alpha in chars.elements():
        for d in degrees:
            here = table[d]
            for r, c in list(table[d - 1].items()):
                here[(r + alpha) % m] += c
    return table


def exterior_power(chars: CharMultiset, s: int) -> CharMultiset:
    """s-th exterior power of a sum of one-dimensional characters.

    Slots are distinct even when exponents repeat, so the total
    multiplicity is C(dim, s).
    """
    if s < 0:
        raise EulerCharError("exterior power degree must be >= 0")
    return CharMultiset(chars.m, _power_table(chars, s, exterior=True)[s])


def symmetric_power(chars: CharMultiset, j: int) -> CharMultiset:
    """j-th symmetric power: monomials of degree j in the character slots."""
    if j < 0:
        raise EulerCharError("symmetric power degree must be >= 0")
    return CharMultiset(chars.m, _power_table(chars, j, exterior=False)[j])


def graded_characters(chars: CharMultiset, p: int, n: int) -> list[CharMultiset]:
    """Characters of the degree-0..n cohomology of (Z/p)^k as C-modules, from one table pass.

    The input is the character of the degree-one part.  In odd
    characteristic the cohomology is exterior on degree-one generators
    tensored with polynomial on their Bocksteins in degree two; in
    characteristic 2 it is polynomial on the degree-one generators.
    """
    _require_coprime(p, chars.m)
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    m = chars.m
    if p == 2:
        symmetric = _power_table(chars, n, exterior=False)
        return [CharMultiset(m, counts) for counts in symmetric]
    exterior = _power_table(chars, n, exterior=True)
    symmetric = _power_table(chars, n // 2, exterior=False)
    out = []
    for t in range(n + 1):
        total: Counter[int] = Counter()
        for s in range(t % 2, t + 1, 2):  # Lambda^s (x) S^((t - s) / 2)
            bocksteins = symmetric[(t - s) // 2].items()
            for r, c in exterior[s].items():
                for q, d in bocksteins:
                    total[(r + q) % m] += c * d
        out.append(CharMultiset(m, total))
    return out


def alternating_sum(dims, n: int) -> int:
    """dims[n] - dims[n-1] + ... +- dims[0] (n >= 0): the signed sum of Swan's formula and of e_n."""
    return sum(dims[n::-2]) - (sum(dims[n - 1::-2]) if n else 0)


def twisted_series(chars: CharMultiset, p: int, n: int) -> dict[int, list[int]]:
    """{beta: h^0..h^n(G; L(beta))} for G = E_k x| C, from each degree's support; a missing beta has none.

    Degree 0 is the trivial character alone, so beta = 0 (trivial
    coefficients) is always the first key.
    """
    _require_coprime(p, chars.m)
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    _require_enumerable(chars.m)
    series: dict[int, list[int]] = {}
    for t, graded in enumerate(graded_characters(chars, p, n)):
        for beta, count in graded._counts.items():
            dims = series.get(beta)
            if dims is None:
                dims = series[beta] = [0] * (n + 1)
            dims[t] = count
    return series


def orbit_series(chars: CharMultiset, p: int, n: int) -> list[tuple[int, list[int]]]:
    """(|O|, |O| h^0..h^n(G; L(beta))) per Frobenius orbit O = {beta p^i mod m} with cohomology, {0} first.

    The F_pG-simples of G = E_k x| C: the simple of orbit O has dimension
    |O|, and h^t(G; S_O) = sum of h^t(G; L(beta)) over beta in O, each equal
    since Galois-conjugate twists have equal cohomology.  Read off one
    graded_characters pass, walking only the support of each degree; a
    twist's orbit is traced the first time it appears.
    """
    _require_coprime(p, chars.m)
    if n < 0:
        raise EulerCharError("degree must be >= 0")
    _require_enumerable(chars.m)
    m = chars.m
    records: list[tuple[int, list[int]]] = []
    orbit_dims: dict[int, list[int]] = {}  # beta -> the dims of its orbit's record
    for t, graded in enumerate(graded_characters(chars, p, n)):
        for beta, count in graded._counts.items():
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


def twisted_euler(chars: CharMultiset, p: int, n: int) -> list[int]:
    """The alternating sums of twisted_series, indexed by beta (0 off its support); may be negative when p = 2."""
    series = twisted_series(chars, p, n)
    totals = [0] * chars.m
    for beta, dims in series.items():
        totals[beta] = alternating_sum(dims, n)
    return totals


def parity_floor(n: int, value: int) -> int:
    """A Swan alternating sum clamped by the floors of a nontrivial group: mu_n >= 1 (n even), >= 0 (n odd)."""
    return max(1 if n % 2 == 0 else 0, value)


def _require_coprime(p: int, m: int) -> None:
    if math.gcd(p, m) != 1:
        raise EulerCharError(f"characteristic {p} must be coprime to modulus {m}")


def _require_enumerable(m: int) -> None:
    if m > MAX_ENUMERATION_MODULUS:
        raise EulerCharError(
            f"modulus {m} exceeds enumeration cap {MAX_ENUMERATION_MODULUS}"
        )
