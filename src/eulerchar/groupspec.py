"""Symbolic group families, the spec grammar, and small concrete tables.

Supported families, with the grammar heads that spell them:

    Semidirect           Usd(p,m;a1,...,ak)  (Z/p)^k x| Z/m, the generator of
                                             Z/m acting with eigenvalues
                                             alpha^a1, ..., alpha^ak
                         1, C(m)             k = 0: Z/m, and 1 is C(1)
                         E(p,k)              m = 1: (Z/p)^k
                         U(p,k,a,m)          every exponent one unit a mod m
                         J(k)                p = 2, m = 2^k - 1, exponents
                                             2^0, ..., 2^(k-1) mod m: Z/m
                                             multiplying F_(2^k) by a field
                                             generator
    Product              Prod(s,t)
    Quaternion           Q(4n)               generalized quaternion/dicyclic
    TableGroup           Table(path)         explicit multiplication table

Each family is one GroupSpec subclass, and everything the package knows
about the family lives there.  A new family implements

    a reader          registered in FAMILIES under its grammar head: it
                      reads the fields after the head off the parser
                      (_Parser.integers reads head(a,b,...)) and returns
                      the family's spec
    order, __str__    |G| and the spec string parse_spec reads back
    table()           its multiplication table; realize() checks it
    simple_series(p, n_max)
                      optional: (dim S, h^0..h^n_max(G; S)) per simple
                      F_pG-module S with cohomology, the trivial module
                      first, or None where the family does not know the
                      list (the default).  The entries are the simples
                      over F_p itself: for Semidirect at its vector prime,
                      one entry per Frobenius orbit of twists
                      (characters.orbit_series), its dim the orbit size.
                      swan.series_bundle reads the trivial entry for e_n
                      (through fp_series, else the resolution engine
                      computes it); swan_record concatenates the lists
                      over the primes dividing |G|, the Swan record that
                      swan reads every mu_n from, mu_1 = d(G) - 1 included
    known_period()    optional: the period in closed form, None for G trivial
                      or with a subgroup C_p x C_p (default: the realized
                      group's ConcreteGroup.period up to MAX_ORDER, else None)

A new spelling of an existing family is a head in FAMILIES and a reader
that returns that family's spec, as 1, C, E, U and J return a Semidirect
(cyclic_spec, elementary_spec, isotypic_spec, frobenius_spec).  The spec
keeps the string it was spelled as, outside equality, so every rule reads
the group and the output the spelling.

Product's record is the Kunneth record: over a field
H^*(H x K; S [x] T) = H^*(H; S) (x) H^*(K; T) (Brown, Cohomology of Groups,
ch. V), and the outer products S [x] T are the simples of H x K over a
splitting field (Curtis-Reiner I), so a pair of the factors' entries gives
one entry, dims multiplied and series convolved.  A factor of order prime
to p gives its trivial simple only (Maschke).  Two Frobenius orbits of
sizes a, b > 1 give gcd(a, b) F_p-simples with equal cohomology, listed as
one entry: the Swan ratio, and so every mu_n, is the same.

A spec declares one fact, the field GroupSpec.exceptional: whether the
periodic resolutions of G are exceptional, None where undeclared
(Quaternion(8, exceptional=False), or dataclasses.replace on a parsed
spec).  Everything else is read off the group: the period by
known_period() in closed form where the family has one, and d(G) by swan
off the Swan record like every other mu_n; a spec without them up to
MAX_ORDER is realized once (GroupSpec.group), and the rest come from its
table (ConcreteGroup.period, ConcreteGroup.generator_count,
ConcreteGroup.is_solvable).

numpy enters only where a spec is realized: the table() methods,
ConcreteGroup and the table builders below import it when they run.
Parsing a spec, its order, primes and simple series load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .characters import orbit_series
from .errors import EulerCharError, RealizeError, SpecError
from .series import (
    DimSeries,
    is_prime,
    prime_factors,
    series_cyclic,
    series_elementary_abelian,
    trivial_series,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

# Smallest primitive polynomial over GF(2) per degree, bit i = coeff of x^i.
# Any other primitive choice gives an isomorphic group; fixing one keeps the
# multiplication tables reproducible.
PRIMITIVE_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x402B,
    15: 0x8003,
    16: 0x1002D,
}

ASSOCIATIVITY_CHECK_LIMIT = 128
DEFAULT_MAX_ORDER = 4096
MAX_ORDER = 64  # largest group the cohomology paths realize


@dataclass(frozen=True)
class GroupSpec:
    """Base class for symbolic group descriptions (see the module docstring)."""

    exceptional: bool | None = field(default=None, kw_only=True)

    def order(self) -> int:
        raise NotImplementedError

    def primes(self) -> list[int]:
        return prime_factors(self.order())

    def table(self) -> np.ndarray:
        """The multiplication table on indices 0..order-1, identity at 0."""
        raise RealizeError(f"cannot realize spec {self!r}")

    @cached_property
    def group(self) -> "ConcreteGroup":
        """The group realized up to MAX_ORDER, built once per spec; every cohomology path reads it."""
        return realize(self, max_order=MAX_ORDER)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]] | None:
        """(dim S, h^0..h^n_max(G; S)) per simple F_pG-module S with cohomology, trivial S first; None if unknown."""
        return None

    def fp_series(self, p: int, n_max: int) -> DimSeries | None:
        """dim H^n(G; F_p) for n = 0..n_max, the trivial entry of simple_series; None if unknown."""
        simples = self.simple_series(p, n_max)
        return None if simples is None else DimSeries(p, tuple(simples[0][1]))

    def known_period(self) -> int | None:
        """The cohomological period of G, read off the realized group; None for G trivial, not periodic or past MAX_ORDER."""
        return self.group.period if 1 < self.order() <= MAX_ORDER else None

    def swan_record(self, n_max: int) -> list[tuple[int, Sequence[int]]] | None:
        """simple_series at every prime dividing |G|, concatenated; None where a prime's is unknown.

        The trivial group has no prime, and one simple over any field.
        """
        primes = self.primes()
        record = [] if primes else [(1, trivial_series(2, n_max).dims)]
        for p in primes:
            series = self.simple_series(p, n_max)
            if series is None:
                return None
            record += series
        return record


@dataclass(frozen=True)
class Product(GroupSpec):
    left: GroupSpec
    right: GroupSpec

    @classmethod
    def parse_args(cls, parser: "_Parser") -> "Product":
        parser.expect("(")
        left = parser.spec()
        parser.expect(",")
        right = parser.spec()
        parser.expect(")")
        return cls(left, right)

    def order(self) -> int:
        return self.left.order() * self.right.order()

    def __str__(self) -> str:
        return f"Prod({self.left},{self.right})"

    def table(self) -> np.ndarray:
        # each factor is checked on its own: the associativity check of the
        # product stops at ASSOCIATIVITY_CHECK_LIMIT
        left, right = ConcreteGroup(self.left.table()), ConcreteGroup(self.right.table())
        nr = right.order
        a = left.mul[:, None, :, None] * nr
        b = right.mul[None, :, None, :]
        return (a + b).reshape(left.order * nr, left.order * nr)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]] | None:
        """The Kunneth record (see the module docstring): an entry per pair of the factors' entries."""
        # a factor of order prime to p contributes its trivial simple only, series 1, 0, ..., 0 (Maschke),
        # which pairs each entry of the other factor with itself
        factors = [factor.simple_series(p, n_max) for factor in (self.left, self.right) if factor.order() % p == 0]
        if None in factors:
            return None
        if len(factors) < 2:
            return factors[0] if factors else [(1, [1] + [0] * n_max)]
        left, right = factors
        return [
            (a * b, [sum(s[i] * t[n - i] for i in range(n + 1)) for n in range(n_max + 1)])
            for a, s in left
            for b, t in right
        ]

    def known_period(self) -> int | None:
        """The lcm of the factors' periods for coprime orders: a Sylow subgroup and its normalizer lie in one factor."""
        if math.gcd(self.left.order(), self.right.order()) > 1:
            return None  # a prime dividing both orders gives an element of order p in each factor (Cauchy)
        periods = [factor.known_period() for factor in (self.left, self.right) if factor.order() > 1]
        return None if not periods or None in periods else math.lcm(*periods)


@dataclass(frozen=True)
class Semidirect(GroupSpec):
    """(Z/p)^k x| Z/m, the generator of Z/m acting with eigenvalues alpha^a for a in exps.

    alpha is a primitive m-th root of unity over F_p and k = len(exps);
    k = 0 is Z/m, and m = 1 is (Z/p)^k.  `spelling` is the string the spec
    prints as when a reader other than Usd built it (1, C, E, U, J); it
    takes no part in equality, so one group spelled two ways is one spec.
    """

    p: int
    exps: tuple[int, ...]
    m: int
    spelling: str | None = field(default=None, compare=False, kw_only=True)

    def __post_init__(self):
        if not is_prime(self.p):
            raise SpecError(f"semidirect base {self.p} is not prime")
        if self.m < 1:
            raise SpecError(f"cyclic complement order must be >= 1, got {self.m}")
        if math.gcd(self.p, self.m) != 1:
            raise SpecError(f"gcd({self.p},{self.m}) != 1: complement order must be prime to p")
        for a in self.exps:
            if not 0 <= a < self.m:
                raise SpecError(f"exponent {a} out of range [0,{self.m})")
        # the eigenvalues of a matrix over F_p are closed under Frobenius
        if sorted(self.exps) != sorted(self.p * a % self.m for a in self.exps):
            raise SpecError(
                f"exponents {tuple(self.exps)} mod {self.m} are not stable under multiplication by {self.p}: no such group over F_{self.p}"
            )

    @classmethod
    def parse_args(cls, parser: "_Parser") -> "Semidirect":
        parser.expect("(")
        p = parser.integer()
        parser.expect(",")
        m = parser.integer()
        parser.expect(";")
        exps = [parser.integer()]
        while parser.peek() == ",":
            parser.expect(",")
            exps.append(parser.integer())
        parser.expect(")")
        return cls(p, tuple(exps), m)

    @property
    def k(self) -> int:
        return len(self.exps)

    def order(self) -> int:
        return self.p**self.k * self.m

    def __str__(self) -> str:
        return self.spelling or f"Usd({self.p},{self.m};{','.join(map(str, self.exps))})"

    def table(self) -> np.ndarray:
        import numpy as np
        m, k = self.m, self.k
        # Z/(2^k - 1) multiplying F_(2^k) by a field generator u, eigenvalues u^(2^i), as in J(k)
        if self.p == 2 and m == 2**k - 1 > 1 and sorted(self.exps) == sorted(pow(2, i, m) for i in range(k)):
            if k not in PRIMITIVE_POLY:
                raise RealizeError(f"no built-in primitive polynomial for k = {k} (supported: 1..{max(PRIMITIVE_POLY)})")
            return _semidirect_table(2, _companion_matrix_gf2(PRIMITIVE_POLY[k], k), m)
        zeta = unit_of_order(self.p, m) if k else 1  # refuses m not dividing p - 1
        action = np.diag([pow(zeta, a, self.p) for a in self.exps]).astype(np.int64)
        return _semidirect_table(self.p, action, m)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]]:
        if p != self.p or not self.exps:
            # (Z/p)^k is normal of order prime to p: only the trivial simple has cohomology; with
            # k = 0, G = Z/m and p != self.p, or p = self.p prime to |G| (Maschke)
            return [(1, series_cyclic(self.m, p, n_max).dims)]
        if self.m == 1:
            # (Z/p)^k in closed form: a nontrivial simple module of an abelian group has no cohomology
            return [(1, series_elementary_abelian(p, self.k, p, n_max).dims)]
        return orbit_series(self.m, self.exps, p, n_max)

    def known_period(self) -> int | None:
        """2 m / gcd(a, m) for k = 1, the p-period 2 |G : C_G(Z/p)|, as N = C at the primes of m; 2 for k = 0."""
        if self.k >= 2 or self.order() == 1:
            return None  # the normal subgroup (Z/p)^k
        return 2 * self.m // math.gcd(self.exps[0] if self.k else 0, self.m)


def cyclic_spec(m: int, spelling: str | None = None) -> Semidirect:
    """C(m), and 1 for m = 1: Z/m, no exponents; the vector prime, the least prime not dividing m, does nothing."""
    if m < 1:
        raise SpecError(f"cyclic order must be >= 1, got {m}")
    p = next(q for q in range(2, m + 2) if m % q and is_prime(q))  # a prime factor of m + 1 qualifies
    return Semidirect(p, (), m, spelling=spelling or f"C({m})")


def elementary_spec(p: int, k: int) -> Semidirect:
    """E(p,k): (Z/p)^k, the trivial action of Z/1."""
    if not is_prime(p):
        raise SpecError(f"elementary abelian base {p} is not prime")
    if k < 0:
        raise SpecError(f"rank must be >= 0, got {k}")
    return Semidirect(p, (0,) * k, 1, spelling=f"E({p},{k})")


def isotypic_spec(p: int, k: int, a: int, m: int) -> Semidirect:
    """U(p,k,a,m): (Z/p)^k x| Z/m with every eigenvalue alpha^a, a faithful action."""
    spec = Semidirect(p, (a,) * k, m, spelling=f"U({p},{k},{a},{m})")
    # faithful action: the eigenvalue alpha^a must have order exactly m
    if math.gcd(a, m) != 1:
        raise SpecError(f"eigenvalue exponent {a} has order {m // math.gcd(a, m)} < {m}; the action must be faithful")
    return spec


def frobenius_spec(k: int) -> Semidirect:
    """J(k): (Z/2)^k x| Z/(2^k-1), the cyclic factor multiplying F_(2^k) by a field generator.

    Its eigenvalues are the k Galois conjugates of that generator, exponents
    2^0, ..., 2^(k-1) mod m.
    """
    m = 2**k - 1
    return Semidirect(2, tuple((1 << i) % m for i in range(k)), m, spelling=f"J({k})")


@dataclass(frozen=True)
class Quaternion(GroupSpec):
    """Generalized quaternion group <a, b | a^{2n} = 1, b^2 = a^n, bab^-1 = a^-1>."""

    n4: int

    def __post_init__(self):
        if self.n4 < 8 or self.n4 % 4 != 0:
            raise SpecError(f"quaternion order must be a multiple of 4 and >= 8, got {self.n4}")

    def order(self) -> int:
        return self.n4

    def __str__(self) -> str:
        return f"Q({self.n4})"

    def table(self) -> np.ndarray:
        return _quaternion_table(self.n4)

    def known_period(self) -> int:
        # b inverts <a>: at 2 a cyclic Sylow subgroup with N = C, or a generalized quaternion one; at odd p, |N : C| = 2
        return 4


@dataclass(frozen=True)
class TableGroup(GroupSpec):
    path: str

    @classmethod
    def parse_args(cls, parser: "_Parser") -> "TableGroup":
        parser.expect("(")
        parser.skip_ws()
        start = parser.pos
        depth = 0
        while parser.pos < len(parser.text):
            ch = parser.text[parser.pos]
            if ch == ")" and depth == 0:
                break
            depth += ch == "("
            depth -= ch == ")"
            parser.pos += 1
        path = parser.text[start : parser.pos].strip()
        parser.expect(")")
        if not path:
            parser.error("empty table path")
        return cls(path)

    def order(self) -> int:
        return self._order

    @cached_property
    def _order(self) -> int:
        """The order on the header line, read once per spec; `table()` reads the body."""
        try:
            with open(self.path) as fh:
                return int(fh.readline().split()[0])
        except (OSError, ValueError, IndexError) as exc:
            raise RealizeError(f"cannot read table file {self.path}: {exc}") from exc

    def __str__(self) -> str:
        return f"Table({self.path})"

    def table(self) -> np.ndarray:
        return load_table(self.path)


# grammar head -> its reader, which returns the spec of one family
FAMILIES = {
    "1": lambda parser: cyclic_spec(1, "1"),
    "C": lambda parser: cyclic_spec(*parser.integers(1)),
    "E": lambda parser: elementary_spec(*parser.integers(2)),
    "U": lambda parser: isotypic_spec(*parser.integers(4)),
    "Usd": Semidirect.parse_args,
    "J": lambda parser: frobenius_spec(*parser.integers(1)),
    "Prod": Product.parse_args,
    "Q": lambda parser: Quaternion(*parser.integers(1)),
    "Table": TableGroup.parse_args,
}


# ---------------------------------------------------------------------------
# Grammar:  1 | C(m) | E(p,k) | U(p,k,a,m) | Usd(p,m;a1,...,ak) | J(k)
#           | Prod(spec,spec) | Q(4n) | Table(path)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise SpecError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.error(f"expected '{ch}', found '{found}'")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def integers(self, count: int) -> list[int]:
        """(a,b,...) with `count` integers."""
        self.expect("(")
        values = [self.integer()]
        for _ in range(count - 1):
            self.expect(",")
            values.append(self.integer())
        self.expect(")")
        return values

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]

    def spec(self) -> GroupSpec:
        if self.peek() == "1":
            self.pos += 1
            head = "1"
        else:
            head = self.name()
        if not head:
            self.error("expected a family name or '1'")
        if head not in FAMILIES:
            self.error(f"unknown family '{head}'")
        return FAMILIES[head](self)


def parse_spec(text: str) -> GroupSpec:
    """Parse a group-spec string; invariants are checked on construction."""
    parser = _Parser(text)
    spec = parser.spec()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing characters after spec")
    return spec


# ---------------------------------------------------------------------------
# Concrete realizations


class ConcreteGroup:
    """A finite group as a multiplication table on indices 0..order-1.

    Index 0 is the identity.  Tables of order <= 128 are fully checked for
    associativity on construction by Light's test (Clifford-Preston, The
    Algebraic Theory of Semigroups I, 1961): (x b) y = x (b y) for all x, y
    and every b in `generating_set`.  The elements b passing it are closed
    under products, and the generating set's products reach every element,
    so this is the full associativity check at n^2 memory per generator.
    Larger tables only get the cheap row and column permutation checks.
    """

    def __init__(self, mul):
        import numpy as np
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise RealizeError(f"multiplication table must be square, got shape {mul.shape}")
        n = mul.shape[0]
        if n < 1:
            raise RealizeError("group must have at least one element")
        if mul.min() < 0 or mul.max() >= n:
            raise RealizeError("table entries out of range")
        if not np.array_equal(mul[0], np.arange(n)) or not np.array_equal(mul[:, 0], np.arange(n)):
            raise RealizeError("index 0 must be the identity")
        # seen[x, x y] and seen[x y, y]: every entry of a row (column) is hit exactly when it is a permutation
        index = np.arange(n)
        seen = np.zeros((n, n), dtype=bool)
        seen[index[:, None], mul] = True
        if not seen.all():
            raise RealizeError("rows of the table are not permutations")
        seen[:] = False
        seen[mul, index] = True
        if not seen.all():
            raise RealizeError("columns of the table are not permutations")
        self.mul = mul
        self.order = n
        if n <= ASSOCIATIVITY_CHECK_LIMIT:
            gens = np.array(self.generating_set, dtype=np.int64)
            # [i, x, y] = (x b_i) y and x (b_i y)
            left = mul.take(mul.take(gens, axis=1).T, axis=0)
            right = mul.take(mul.take(gens, axis=0), axis=1).transpose(1, 0, 2)
            if not (left == right).all():
                raise RealizeError("multiplication table is not associative")
        # each row is a permutation, so it holds the identity 0 exactly once
        self.inv = mul.argmin(axis=1)

    @cached_property
    def generating_set(self) -> list[int]:
        """Elements generating the group, each outside the subgroup of the earlier ones.

        Every element is a product of them: the members are grown from the
        identity by right multiplication only, which needs no associativity,
        so the set is valid for the associativity check of the table too.
        """
        return self._walk({0}, range(self.order))[0]

    def burnside_basis(self, p: int) -> list[int]:
        """Elements of a p-group, each outside <the earlier ones> Phi(G); they generate G.

        Phi(G) = G^p [G, G] is the Frattini subgroup, and the elements map
        to a basis of G / Phi(G), so there are d(G) of them (Burnside's basis
        theorem).  Phi is generated by the p-th powers g^p and the
        commutators [g, s] = g^-1 s^-1 g s for s in `generating_set`: the
        subgroup those commutators generate is normal, as
        [x, s]^y = [xy, s] [y, s]^-1, and contains [g, st] = [g, t] [g, s]^t,
        so it is [G, G].  The elements are then taken in index order by the
        walk of `generating_set` started from Phi instead of the identity; Phi
        is normal, so what it reaches is the subgroup <earlier ones> Phi.
        """
        import numpy as np
        if set(prime_factors(self.order)) - {p}:
            raise EulerCharError(f"a Burnside basis needs a {p}-group, got order {self.order}")
        mul, inv, gens = self.mul, self.inv, self.generating_set
        powers = np.arange(self.order)
        for _ in range(p - 1):
            powers = mul[powers, np.arange(self.order)]
        commutators = mul[mul[inv[:, None], inv[gens]], mul[:, gens]]  # [g, s] at (g, s)
        frattini = self._walk({0}, np.union1d(powers, commutators).tolist())[1]
        return self._walk(frattini, range(self.order))[0]

    def generator_count(self) -> int:
        """d(G), the least t such that some t elements generate G, by a search on the table.

        Level t holds subgroups generated by t elements, one generating
        tuple each.  <H, g> is skipped when g already lies in some <H, g'>
        of the same level, as then it is contained in that one; every
        t-generated subgroup stays inside a kept one, so G is reached at the
        level d(G).
        """
        level = {frozenset({0}): ()}
        t = 0
        while all(len(sub) < self.order for sub in level):
            following = {}
            for sub, gens in level.items():
                reached = set(sub)
                for g in range(self.order):
                    if g not in reached:
                        extended = frozenset(self._walk({0}, gens + (g,))[1])
                        reached |= extended
                        following.setdefault(extended, gens + (g,))
            level = following
            t += 1
        return t

    def is_solvable(self) -> bool:
        """Whether the derived series G >= G' >= G'' >= ... reaches 1.

        Each term is the subgroup that the commutators
        [x, y] = x^-1 y^-1 x y of the term before generate.
        """
        import numpy as np
        term = np.arange(self.order)
        while len(term) > 1:
            commutators = self.mul[self.mul[self.inv[term][:, None], self.inv[term]], self.mul[np.ix_(term, term)]]
            derived = self._walk({0}, np.unique(commutators).tolist())[1]
            if len(derived) == len(term):
                return False
            term = np.array(sorted(derived))
        return True

    def _walk(self, members: set[int], candidates) -> tuple[list[int], set[int]]:
        """The candidates taken, in order, and the members they grow to.

        A candidate is taken when it is not a member yet; the members are then
        closed under right multiplication by every candidate taken so far.
        The members before a candidate is taken are closed under the earlier
        ones, so only the new members meet every column.
        """
        members = set(members)
        gens: list[int] = []
        columns: list[list[int]] = []  # columns[i][x] = x gens[i]
        for g in candidates:
            if g in members:
                continue
            gens.append(g)
            column = self.mul[:, g].tolist()
            columns.append(column)
            frontier = [y for x in members if (y := column[x]) not in members]
            members.update(frontier)
            while frontier:
                x = frontier.pop()
                for column in columns:
                    y = column[x]
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return gens, members

    def p_prime_quotient(self, p: int) -> "ConcreteGroup":
        """G / O_p'(G), where O_p'(G) is the largest normal subgroup of order prime to p; self when it is 1.

        A p-group is returned at once.  Otherwise the p'-elements are the g
        with g^m = 1, m the p'-part of |G|, taken by binary powering on the
        table.  The core grows from {1}: for each p'-element outside it, the
        walk of its conjugacy class from the core gives the normal closure
        of core and class (the core is normal, so the walk's core <class> is
        a subgroup), kept as the new core when its order is prime to p.
        Each element of O_p' is kept, as its closure stays inside O_p', and
        no other element is, as its closure would be a normal p'-subgroup
        outside O_p'; so the core ends as O_p'(G) in any element order, and
        a refused class is not walked again.  The cosets are labelled in
        index order of their least element, the identity coset 0, and the
        quotient table goes through ConcreteGroup's checks.
        """
        import numpy as np
        m = self.order
        while m % p == 0:
            m //= p
        if m == 1:
            return self
        index = np.arange(self.order)
        power, base = np.zeros_like(index), index
        for bit in bin(m)[:1:-1]:
            if bit == "1":
                power = self.mul[power, base]
            base = self.mul[base, base]
        core, outside = {0}, set()
        for g in np.flatnonzero(power == 0).tolist():
            if g not in core and g not in outside:
                conjugates = self.mul[self.mul[self.inv, g], index].tolist()  # x^-1 g x over x
                closure = self._walk(core, conjugates)[1]
                if len(closure) % p:
                    core = closure
                else:
                    outside.update(conjugates)
        if len(core) == 1:
            return self
        label = np.full(self.order, -1)
        members = list(core)
        reps = []
        for g in range(self.order):
            if label[g] < 0:
                label[self.mul[g, members]] = len(reps)
                reps.append(g)
        return ConcreteGroup(label[self.mul[np.ix_(reps, reps)]])

    @cached_property
    def period(self) -> int | None:
        """The cohomological period of G; None when G is trivial or has a subgroup C_p x C_p.

        G is periodic exactly when no x of order p commutes with an element of
        order p outside <x> (Cartan-Eilenberg XII.11).  The period is then the
        lcm of Swan's p-periods 2 |N_G(P) : C_G(P)|, P a Sylow p-subgroup (The
        p-period of a finite group, Illinois J. Math. 4, 1960): 2 or 4 at p = 2,
        for P cyclic or generalized quaternion.  At odd p, P = <x>, and
        N_G(P) / C_G(P) acts freely on the conjugates of x in P: the ones that
        commute with x, as with x they span a p-group that <x> fills.
        """
        rows, inv, orders = self.mul.tolist(), self.inv.tolist(), self.element_orders()
        periods = []
        for p in prime_factors(self.order):
            of_order_p = [x for x in range(self.order) if orders[x] == p]
            if any(sum(rows[x][y] == rows[y][x] for y in of_order_p) > p - 1 for x in of_order_p):
                return None
            sylow = math.gcd(self.order, p**self.order)  # |G|_p
            tops = [x for x in range(self.order) if orders[x] == sylow]
            if p == 2:
                periods.append(2 if tops else 4)
            else:
                x = tops[0]
                conjugates = {rows[rows[g][x]][inv[g]] for g in range(self.order)}
                periods.append(2 * sum(rows[x][c] == rows[c][x] for c in conjugates))
        return math.lcm(*periods) if periods else None

    def element_orders(self) -> list[int]:
        rows = self.mul.tolist()
        orders = []
        for g in range(self.order):
            x, k = g, 1
            while x != 0:
                x = rows[x][g]
                k += 1
            orders.append(k)
        return orders

    def is_abelian(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def relabel(self, perm) -> "ConcreteGroup":
        """Conjugate the table by a permutation with perm[0] == 0."""
        import numpy as np
        perm = np.asarray(perm, dtype=np.int64)
        if perm[0] != 0:
            raise RealizeError("relabeling must keep the identity at index 0")
        new = np.empty_like(self.mul)
        new[np.ix_(perm, perm)] = perm[self.mul]
        return ConcreteGroup(new)


def _vector_indices(vectors: np.ndarray, p: int) -> np.ndarray:
    """The lexicographic index of each vector along the last axis of `vectors`."""
    import numpy as np
    k = vectors.shape[-1]
    return vectors @ (p ** np.arange(k - 1, -1, -1, dtype=np.int64))


def _semidirect_table(p: int, action: np.ndarray, m: int) -> np.ndarray:
    """Table for F_p^k x| Z/m, the generator of Z/m acting by `action`.

    Elements are pairs (v, c) indexed lexicographically as vec_index*m + c,
    with (v,c)(w,d) = (v + action^c w, c + d).  The table is one broadcast
    over (v, c, w, d) of two index tables, the sums v + w and the images
    action^c w, laid out with (w, d) as the contiguous last axis.
    """
    import numpy as np
    k = action.shape[0]
    cyclic = (np.arange(m)[:, None] + np.arange(m)) % m  # [c, d]: c + d mod m
    if not k:
        return cyclic  # no vector part: Z/m, and no power of the 0 x 0 action to form
    vecs = np.indices((p,) * k).reshape(k, -1).T.astype(np.int64)  # F_p^k in lexicographic order, one per row
    powers = [np.eye(k, dtype=np.int64)]
    for _ in range(1, m):
        powers.append(powers[-1] @ action % p)
    acted = _vector_indices(vecs @ np.transpose(powers, (0, 2, 1)) % p, p)  # [c, w]: action^c w
    vsum = _vector_indices((vecs[:, None] + vecs) % p, p)  # [v, w]: v + w
    # [v, c, (w, d)]: the index of v + action^c w, times m, plus c + d mod m
    table = np.repeat(vsum[:, acted] * m, m, axis=2)
    table += np.tile(cyclic, len(vecs))
    return table.reshape(len(vecs) * m, len(vecs) * m)


def _companion_matrix_gf2(poly: int, k: int) -> np.ndarray:
    """Multiplication by a root of poly on the basis {1, u, ..., u^(k-1)}."""
    import numpy as np
    mat = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        mat[i + 1, i] = 1
    for i in range(k):
        mat[i, k - 1] = (poly >> i) & 1
    return mat


def _quaternion_table(n4: int) -> np.ndarray:
    """Dicyclic table: elements a^i b^e indexed as i*2 + e, a of order n4 / 2.

    a^i a^j b^f = a^(i+j) b^f, and with b a^j = a^-j b and b^2 = a^(n4/4),
    a^i b a^j b^f = a^(i-j) b^(1+f).  One broadcast over (i, e, j, f).
    """
    import numpy as np
    two_n = n4 // 2
    i, e, j, f = np.ix_(np.arange(two_n), np.arange(2), np.arange(two_n), np.arange(2))
    power = i + (1 - 2 * e) * j + e * f * (two_n // 2)
    return ((power % two_n) * 2 + (e ^ f)).reshape(n4, n4)


def load_table(path: str) -> np.ndarray:
    import numpy as np
    try:
        with open(path) as fh:
            first = fh.readline().split()
            if len(first) != 1:
                raise RealizeError(f"{path}: first line must contain the group order")
            n = int(first[0])
            rows = []
            for line in fh:
                if line.strip():
                    rows.append([int(tok) for tok in line.split()])
    except OSError as exc:
        raise RealizeError(f"cannot read table file {path}: {exc}") from exc
    except ValueError as exc:
        raise RealizeError(f"malformed table file {path}: {exc}") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise RealizeError(f"{path}: expected {n} rows of {n} entries")
    return np.asarray(rows, dtype=np.int64)


def smallest_primitive_root(p: int) -> int:
    """Smallest generator of the unit group of F_p."""
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise RealizeError(f"no primitive root mod {p}")


def unit_of_order(p: int, m: int) -> int:
    """Canonical element of multiplicative order m in F_p; needs m | p-1."""
    if m == 1:
        return 1
    if (p - 1) % m != 0:
        raise RealizeError(
            f"no element of order {m} in F_{p}: eigenvalues are not realizable over the prime field (requires m | p-1)"
        )
    return pow(smallest_primitive_root(p), (p - 1) // m, p)


def realize(spec: GroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    """Build the multiplication table of a spec, refusing orders above max_order."""
    order = spec.order()
    if order > max_order:
        raise RealizeError(f"|G| = {order} exceeds max_order = {max_order}")
    return ConcreteGroup(spec.table())
