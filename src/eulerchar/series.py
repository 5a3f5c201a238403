"""Closed-form graded dimension series of group cohomology.

A DimSeries records dim H^0 .. dim H^N of one group with coefficients in
one field, either the rationals (p = None) or a prime field F_p.  Each
family states its series with trivial coefficients as the first entry of
its spec class's `simple_series` (`groupspec`), built from the functions
here, for E_k x| C from characters.orbit_series, and for a product as the
Kunneth convolution of the factors' entries (field coefficients, so there
is no Tor correction); check_series_args checks the field and the degree
once for every caller.

Series are dense integer tuples; the degrees this package ever needs stay
below ~20, so nothing sparse is warranted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EulerCharError, TruncationError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class DimSeries:
    """dims[n] = dim H^n(G; F) for F = Q (p is None) or F = F_p."""

    p: int | None
    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise EulerCharError("a dimension series needs at least degree 0")
        if self.dims[0] != 1:
            raise EulerCharError("degree-0 dimension must be 1 for trivial coefficients")
        if min(self.dims) < 0:
            raise EulerCharError("dimensions must be nonnegative")

    @property
    def n_max(self) -> int:
        return len(self.dims) - 1

    @property
    def field_name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    def dim(self, n: int) -> int:
        if n > self.n_max:
            raise TruncationError(f"series over {self.field_name} truncated at degree {self.n_max}, requested {n}")
        return self.dims[n]


def trivial_series(field: int | None, n_max: int) -> DimSeries:
    return DimSeries(field, (1,) + (0,) * n_max)


def series_cyclic(m: int, field: int | None, n_max: int) -> DimSeries:
    """Series of Z/m: all ones when the characteristic divides m, else trivial."""
    if m < 1:
        raise EulerCharError(f"need m >= 1, got {m}")
    if field is not None and m % field == 0:
        return DimSeries(field, (1,) * (n_max + 1))
    return trivial_series(field, n_max)


def series_elementary_abelian(p: int, k: int, field: int | None, n_max: int) -> DimSeries:
    """Series of (Z/p)^k.

    Over F_p with p odd this is exterior on k degree-one generators times
    polynomial on k degree-two generators; over F_2 polynomial on k
    degree-one generators.  Any other field kills everything above degree 0.
    """
    if field != p or k == 0:
        return trivial_series(field, n_max)
    if p == 2:
        dims = tuple(math.comb(k + n - 1, n) for n in range(n_max + 1))
    else:
        dims = []
        for n in range(n_max + 1):
            total = 0
            for i in range(n % 2, n + 1, 2):
                j = (n - i) // 2
                total += math.comb(k, i) * math.comb(k + j - 1, j)
            dims.append(total)
        dims = tuple(dims)
    return DimSeries(field, dims)


def check_series_args(field: int | None, n_max: int) -> None:
    """Refuse coefficients other than Q or a prime field F_p, and a negative top degree."""
    if field is not None and not is_prime(field):
        raise EulerCharError(f"coefficients must be Q or a prime field F_p, got p = {field}")
    if n_max < 0:
        raise EulerCharError(f"n_max must be >= 0, got {n_max}")
