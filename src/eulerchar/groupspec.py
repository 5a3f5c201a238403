"""Symbolic group families, the spec grammar, and small concrete tables.

Supported families (grammar string in parentheses):

    Trivial              (1)
    Cyclic               (C(m))
    ElementaryAbelian    (E(p,k))            (Z/p)^k
    SemidirectIsotypic   (U(p,k,a,m))        (Z/p)^k x| Z/m, every eigenvalue
                                             character equal to alpha^a
    Semidirect           (Usd(p,m;a1,...,ak)) general eigenvalue exponents
    Frobenius            (J(k))              (Z/2)^k x| Z/(2^k-1), the cyclic
                                             factor multiplying by a primitive
                                             field element
    Product              (Prod(s,t))
    Quaternion           (Q(4n))             generalized quaternion/dicyclic
    TableGroup           (Table(path))       explicit multiplication table

Each family is one GroupSpec subclass, and everything the package knows
about the family lives there.  A new family implements

    head              its grammar head, registered in FAMILIES
    parse_args        how the parser reads its arguments; the default
                      reads the positional fields as integers, head(a,b,...)
    order, __str__    |G| and the spec string parse_spec reads back
    table()           its multiplication table; realize() checks it
    simple_series(p, n_max)
                      optional: (dim S, h^0..h^n_max(G; S)) per simple
                      F_pG-module S with cohomology, the trivial module
                      first, or None where the family does not know the
                      list (the default).  The entries are the simples
                      over F_p itself: for CyclicSemidirect at its vector
                      prime, one entry per Frobenius orbit of twists
                      (characters.orbit_series), its dim the orbit size.
                      swan.series_bundle reads the trivial entry for e_n
                      (through fp_series, else the resolution engine
                      computes it); swan._swan_simples reads the whole
                      list for mu_n, once per call
    known_cyclic()    optional: whether the spec shows G cyclic (default:
                      order 1 or a prime)
    known_not_periodic()
                      optional: whether the spec alone shows a subgroup
                      C_p x C_p, so that G has no periodic cohomology
                      (default: False, unsettled)

The three (Z/p)^k x| Z/m families share CyclicSemidirect, which validates
p, m and the eigenvalue exponents and holds their table and simples.
Product alone overrides fp_series: it knows its trivial series at every
prime, the factors' convolved, but its other simples only for a p-group.

Metadata (minimal generator count d, declared cohomological period,
solvability, exceptionality of periodic resolutions) is always declared by
the caller, never computed; operations that need a missing field raise
MissingMetadataError.  with_meta refuses d = 0 on a nontrivial group.

numpy enters only where a spec is realized: the table() methods,
ConcreteGroup and the table builders below import it when they run.
Parsing a spec, its order, primes and simple series load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .characters import CharMultiset, orbit_series
from .errors import EulerCharError, MissingMetadataError, RealizeError, SpecError
from .series import (
    DimSeries,
    is_prime,
    prime_factors,
    series_cyclic,
    series_elementary_abelian,
    series_product,
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
class GroupMeta:
    """Caller-declared facts about a group; None means undeclared."""

    d: int | None = None
    period: int | None = None
    solvable: bool | None = None
    exceptional: bool | None = None

    def __post_init__(self):
        if self.d is not None and self.d < 0:
            raise SpecError(f"generator count d must be >= 0, got {self.d}")
        if self.period is not None:
            if self.period <= 0 or self.period % 2 != 0:
                raise SpecError(f"declared period must be a positive even integer, got {self.period}")


_NO_META = GroupMeta()


@dataclass(frozen=True)
class GroupSpec:
    """Base class for symbolic group descriptions (see the module docstring)."""

    meta: GroupMeta = field(default=_NO_META, kw_only=True)

    @classmethod
    def parse_args(cls, parser: "_Parser") -> "GroupSpec":
        """Read the positional fields as integers: head(a,b,...), or no parentheses if none."""
        count = len(cls.__match_args__)  # the dataclass's positional fields
        if count == 0:
            return cls()
        parser.expect("(")
        values = [parser.integer()]
        for _ in range(count - 1):
            parser.expect(",")
            values.append(parser.integer())
        parser.expect(")")
        return cls(*values)

    def with_meta(self, **kwargs) -> "GroupSpec":
        spec = replace(self, meta=replace(self.meta, **kwargs))
        if spec.meta.d == 0 and spec.order() > 1:
            raise SpecError(f"generator count d = 0 declared for {spec}, but a nontrivial group has d >= 1")
        return spec

    def order(self) -> int:
        raise NotImplementedError

    def primes(self) -> list[int]:
        return prime_factors(self.order())

    def require_meta(self, name: str) -> object:
        value = getattr(self.meta, name)
        if value is None:
            raise MissingMetadataError(name, f"{self} requires declared metadata '{name}'")
        return value

    def table(self) -> np.ndarray:
        """The multiplication table on indices 0..order-1, identity at 0."""
        raise RealizeError(f"cannot realize spec {self!r}")

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]] | None:
        """(dim S, h^0..h^n_max(G; S)) per simple F_pG-module S with cohomology, trivial S first; None if unknown."""
        return None

    def fp_series(self, p: int, n_max: int) -> DimSeries | None:
        """dim H^n(G; F_p) for n = 0..n_max, the trivial entry of simple_series; None if unknown."""
        simples = self.simple_series(p, n_max)
        return None if simples is None else DimSeries(p, tuple(simples[0][1]))

    def known_cyclic(self) -> bool:
        """Whether the spec shows G cyclic; False leaves it unsettled."""
        order = self.order()
        return order == 1 or is_prime(order)

    def known_not_periodic(self) -> bool:
        """Whether the spec alone shows a subgroup C_p x C_p; False leaves it unsettled.

        G has periodic cohomology exactly when it has no such subgroup
        (Cartan-Eilenberg XII.11), so a declared period is then false.
        """
        return False


@dataclass(frozen=True)
class Trivial(GroupSpec):
    head = "1"

    def order(self) -> int:
        return 1

    def __str__(self) -> str:
        return "1"

    def table(self) -> np.ndarray:
        import numpy as np
        return np.zeros((1, 1), dtype=np.int64)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]]:
        return [(1, trivial_series(p, n_max).dims)]


@dataclass(frozen=True)
class Cyclic(GroupSpec):
    m: int
    head = "C"

    def __post_init__(self):
        if self.m < 1:
            raise SpecError(f"cyclic order must be >= 1, got {self.m}")

    def order(self) -> int:
        return self.m

    def __str__(self) -> str:
        return f"C({self.m})"

    def table(self) -> np.ndarray:
        import numpy as np
        idx = np.arange(self.m, dtype=np.int64)
        return (idx[:, None] + idx[None, :]) % self.m

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]]:
        # a nontrivial simple module of an abelian group has no cohomology
        return [(1, series_cyclic(self.m, p, n_max).dims)]

    def known_cyclic(self) -> bool:
        return True


@dataclass(frozen=True)
class ElementaryAbelian(GroupSpec):
    p: int
    k: int
    head = "E"

    def __post_init__(self):
        if not is_prime(self.p):
            raise SpecError(f"elementary abelian base {self.p} is not prime")
        if self.k < 0:
            raise SpecError(f"rank must be >= 0, got {self.k}")

    def order(self) -> int:
        return self.p**self.k

    def __str__(self) -> str:
        return f"E({self.p},{self.k})"

    def table(self) -> np.ndarray:
        import numpy as np
        return _semidirect_table(self.p, np.eye(self.k, dtype=np.int64), 1)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]]:
        # a nontrivial simple module of an abelian group has no cohomology
        return [(1, series_elementary_abelian(self.p, self.k, p, n_max).dims)]

    def known_not_periodic(self) -> bool:
        return self.k >= 2


@dataclass(frozen=True)
class Product(GroupSpec):
    left: GroupSpec
    right: GroupSpec
    head = "Prod"

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

    def fp_series(self, p: int, n_max: int) -> DimSeries | None:
        left, right = self.left.fp_series(p, n_max), self.right.fp_series(p, n_max)
        return None if left is None or right is None else series_product(left, right)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]] | None:
        # in characteristic p the trivial module is a p-group's only simple one
        series = self.fp_series(p, n_max) if self.primes() == [p] else None
        return None if series is None else [(1, series.dims)]

    def known_cyclic(self) -> bool:
        left, right = self.left, self.right
        return math.gcd(left.order(), right.order()) == 1 and left.known_cyclic() and right.known_cyclic()

    def known_not_periodic(self) -> bool:
        # a prime dividing both orders gives an element of order p in each factor (Cauchy)
        left, right = self.left, self.right
        return math.gcd(left.order(), right.order()) > 1 or left.known_not_periodic() or right.known_not_periodic()


class CyclicSemidirect(GroupSpec):
    """(Z/p)^k x| Z/m, the generator of Z/m acting with eigenvalues alpha^a for a in exps.

    alpha is a primitive m-th root of unity over F_p.  Subclasses provide
    p, m, k and the exponent tuple exps; m | p - 1 realizes the action
    diagonally over F_p.
    """

    def __post_init__(self):
        if self.k < 1:
            raise SpecError(f"rank must be >= 1, got {self.k}")
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

    def order(self) -> int:
        return self.p**self.k * self.m

    def exponents(self) -> CharMultiset:
        return CharMultiset.from_elements(self.m, self.exps)

    def table(self) -> np.ndarray:
        import numpy as np
        zeta = unit_of_order(self.p, self.m)
        action = np.diag([pow(zeta, a, self.p) for a in self.exps]).astype(np.int64)
        return _semidirect_table(self.p, action, self.m)

    def simple_series(self, p: int, n_max: int) -> list[tuple[int, Sequence[int]]]:
        if p != self.p:
            # (Z/p)^k is normal of order prime to p: only the trivial simple has cohomology
            return [(1, series_cyclic(self.m, p, n_max).dims)]
        return orbit_series(self.exponents(), p, n_max)

    def known_cyclic(self) -> bool:
        # Z/p x Z/m with gcd(p, m) = 1 when the action is trivial; a nontrivial
        # action makes G nonabelian, and k >= 2 gives a subgroup (Z/p)^2
        return self.k == 1 and not any(self.exps)

    def known_not_periodic(self) -> bool:
        return self.k >= 2  # the normal subgroup (Z/p)^k


@dataclass(frozen=True)
class SemidirectIsotypic(CyclicSemidirect):
    """(Z/p)^k x| Z/m with all k eigenvalue characters equal to alpha^a."""

    p: int
    k: int
    a: int
    m: int
    head = "U"

    def __post_init__(self):
        super().__post_init__()
        # faithful action: the eigenvalue alpha^a must have order exactly m
        if math.gcd(self.a, self.m) != 1:
            raise SpecError(
                f"eigenvalue exponent {self.a} has order {self.m // math.gcd(self.a, self.m)} < {self.m}; the action must be faithful"
            )

    @property
    def exps(self) -> tuple[int, ...]:
        return (self.a,) * self.k

    def __str__(self) -> str:
        return f"U({self.p},{self.k},{self.a},{self.m})"


@dataclass(frozen=True)
class Semidirect(CyclicSemidirect):
    """(Z/p)^k x| Z/m with eigenvalue characters alpha^{a_1},...,alpha^{a_k}."""

    p: int
    exps: tuple[int, ...]
    m: int
    head = "Usd"

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

    def __str__(self) -> str:
        exps = ",".join(str(a) for a in self.exps)
        return f"Usd({self.p},{self.m};{exps})"


@dataclass(frozen=True)
class Frobenius(CyclicSemidirect):
    """(Z/2)^k x| Z/(2^k-1); the cyclic part multiplies by a field generator.

    The eigenvalues are the k Galois conjugates of that generator, exponents
    2^0, ..., 2^(k-1); m does not divide p - 1 = 1 (for k > 1), so the
    action is a companion matrix instead of a diagonal one.
    """

    k: int
    head = "J"
    p = 2

    @property
    def m(self) -> int:
        return 2**self.k - 1

    @property
    def exps(self) -> tuple[int, ...]:
        m = self.m
        return tuple((1 << i) % m for i in range(self.k))

    def __str__(self) -> str:
        return f"J({self.k})"

    def table(self) -> np.ndarray:
        if self.k not in PRIMITIVE_POLY:
            raise RealizeError(
                f"no built-in primitive polynomial for k = {self.k} (supported: 1..{max(PRIMITIVE_POLY)})"
            )
        return _semidirect_table(2, _companion_matrix_gf2(PRIMITIVE_POLY[self.k], self.k), self.m)


@dataclass(frozen=True)
class Quaternion(GroupSpec):
    """Generalized quaternion group <a, b | a^{2n} = 1, b^2 = a^n, bab^-1 = a^-1>."""

    n4: int
    head = "Q"

    def __post_init__(self):
        if self.n4 < 8 or self.n4 % 4 != 0:
            raise SpecError(f"quaternion order must be a multiple of 4 and >= 8, got {self.n4}")

    def order(self) -> int:
        return self.n4

    def __str__(self) -> str:
        return f"Q({self.n4})"

    def table(self) -> np.ndarray:
        return _quaternion_table(self.n4)


@dataclass(frozen=True)
class TableGroup(GroupSpec):
    path: str
    head = "Table"

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

    def known_cyclic(self) -> bool:
        # realized up to MAX_ORDER: cyclic when some element has order |G|
        if super().known_cyclic():
            return True
        if self.order() > MAX_ORDER:
            return False
        group = realize(self, max_order=MAX_ORDER)
        return group.order in group.element_orders()


# grammar head -> family
FAMILIES = {
    cls.head: cls
    for cls in (Trivial, Cyclic, ElementaryAbelian, SemidirectIsotypic, Semidirect, Frobenius, Product, Quaternion, TableGroup)
}


def frobenius_exponents(k: int) -> CharMultiset:
    """Eigenvalue exponents {2^0, ..., 2^(k-1)} mod 2^k - 1 of the J_k action."""
    return Frobenius(k).exponents()


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
        return FAMILIES[head].parse_args(self)


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

    def _walk(self, members: set[int], candidates) -> tuple[list[int], set[int]]:
        """The candidates taken, in order, and the members they grow to.

        A candidate is taken when it is not a member yet; the members are then
        closed under right multiplication by every candidate taken so far.
        """
        members = set(members)
        gens: list[int] = []
        columns: list[list[int]] = []  # columns[i][x] = x gens[i]
        for g in candidates:
            if g in members:
                continue
            gens.append(g)
            columns.append(self.mul[:, g].tolist())
            frontier = list(members)
            while frontier:
                x = frontier.pop()
                for column in columns:
                    y = column[x]
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return gens, members

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def element_orders(self) -> list[int]:
        orders = []
        for g in range(self.order):
            x, k = g, 1
            while x != 0:
                x = self.multiply(x, g)
                k += 1
            orders.append(k)
        return orders

    def is_abelian(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def center_size(self) -> int:
        return int((self.mul == self.mul.T).all(axis=1).sum())

    def relabel(self, perm) -> "ConcreteGroup":
        """Conjugate the table by a permutation with perm[0] == 0."""
        import numpy as np
        perm = np.asarray(perm, dtype=np.int64)
        if perm[0] != 0:
            raise RealizeError("relabeling must keep the identity at index 0")
        new = np.empty_like(self.mul)
        new[np.ix_(perm, perm)] = perm[self.mul]
        return ConcreteGroup(new)


def _vector_table(p: int, k: int) -> np.ndarray:
    """All vectors of F_p^k in lexicographic order, one per row."""
    import numpy as np
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.indices((p,) * k).reshape(k, -1).T
    return grids.astype(np.int64)


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
    vecs = _vector_table(p, k)
    powers = [np.eye(k, dtype=np.int64)]
    for _ in range(1, m):
        powers.append(powers[-1] @ action % p)
    acted = _vector_indices(vecs @ np.transpose(powers, (0, 2, 1)) % p, p)  # [c, w]: action^c w
    vsum = _vector_indices((vecs[:, None] + vecs) % p, p)  # [v, w]: v + w
    # [v, c, (w, d)]: the index of v + action^c w, times m, plus c + d mod m
    table = np.repeat(vsum[:, acted] * m, m, axis=2)
    table += np.tile((np.arange(m)[:, None] + np.arange(m)) % m, len(vecs))
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
