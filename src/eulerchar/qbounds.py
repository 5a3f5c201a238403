"""Bounds and feasibility verdicts for the minimal Euler characteristic.

q_{2n}(G) is the minimum of (-1)^n chi(M) over closed orientable
2n-manifolds with (n-1)-connected universal cover and fundamental group G.
For finite G the package assembles

    max(e_n(G), mu'_n(G) - mu'_{n-1}(G))  <=  q_{2n}(G)  <=  2 mu'_n(G)

together with exact values for nontrivial groups of cohomological period P
(GroupSpec.known_period: 2 when P divides n+2, 0 when it divides n+1), and
for n = 2 a verdict on whether G can be the fundamental group of a rational
homology 4-sphere.  Each emitted verdict cites the rules that produced it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import EulerCharError, UnsupportedFamilyError
from .groupspec import GroupSpec
from .series import DimSeries
from .swan import Exceptionality, compute_en, compute_mun, series_bundle

# Exact values established by finer (Tate cohomology) arguments than this
# package computes; reported as annotations next to the computed interval.
KNOWN_EXACT_Q4 = {"A4": 4, "A5": 4}

# order -> (name, primes): the only group of that order with h^1(G; F_p) = 0 at
# each of the primes.  h^1(G; F_p) = dim Hom(G, F_p) is 0 exactly when p does not
# divide |G / [G, G]|: A4 is the only group of order 12 whose abelianization
# (C3) has odd order, and A5 the only perfect group of order 60.
_NAMED_BY_H1 = {12: ("A4", (2,)), 60: ("A5", (2, 3, 5))}


class VerdictKind(enum.Enum):
    IMPOSSIBLE_QS = "impossible"
    REALIZABLE_QS = "realizable"
    OPEN = "open"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: str


@dataclass(frozen=True)
class QBoundReport:
    spec: GroupSpec
    n: int
    lower: int
    upper: int | None
    exact: int | None
    verdict: Verdict
    citations: tuple[str, ...]
    notes: tuple[str, ...] = ()
    annotations: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise EulerCharError(f"inverted interval [{self.lower}, {self.upper}]")
        if self.exact is not None:
            if self.exact < self.lower or (self.upper is not None and self.exact > self.upper):
                raise EulerCharError(
                    f"exact value {self.exact} outside interval [{self.lower}, {self.upper}]"
                )
        if not self.citations:
            raise EulerCharError("a report must cite the rules it applied")


def bounds_from_invariants(
    e_n: int, mu_prime_n: int | None, mu_prime_prev: int | None, n: int
) -> tuple[int, int | None]:
    """Theorem-A style interval from the invariants of one group.

    A mu' of None (no path to it) drops the terms it enters, so the
    upper bound may be None and the lower bound e_n alone.
    """
    if n < 2:
        raise EulerCharError("bounds are defined for n >= 2")
    lower = e_n
    if mu_prime_n is not None and mu_prime_prev is not None:
        lower = max(lower, mu_prime_n - mu_prime_prev)
    return lower, None if mu_prime_n is None else 2 * mu_prime_n


def periodic_exact_value(period: int, n: int) -> int | None:
    """Exact q_{2n} for a nontrivial group of even cohomological period: 2, 0, or undetermined."""
    if period <= 0 or period % 2 != 0:
        raise EulerCharError(f"cohomological periods are positive even integers, got {period}")
    if (n + 2) % period == 0:
        return 2
    if (n + 1) % period == 0:
        return 0
    return None


def euler_sign_check(n: int, chi: int) -> bool:
    """chi > 0 exactly when n is even (nontrivial finite fundamental group)."""
    return (chi > 0) == (n % 2 == 0)


def annotation_for(spec: GroupSpec, n: int, bundle: dict[int | None, DimSeries]) -> dict:
    """Known exact values shipped as data, for the group that its order and the bundle's h^1 name."""
    name, primes = _NAMED_BY_H1.get(spec.order(), (None, ()))
    if n != 2 or name is None or any(bundle[p].dims[1] for p in primes):
        return {}
    return {"name": name, "q4": KNOWN_EXACT_Q4[name], "source": "known-value-annotation"}


def q_bound_report(spec: GroupSpec, n: int, memory_budget=None) -> QBoundReport:
    """Assemble the q_{2n} interval, exact value, and verdict for one group."""
    if n < 2:
        raise EulerCharError("q_{2n} bounds are assembled for n >= 2")
    citations: list[str] = []
    notes: list[str] = []

    bundle = series_bundle(spec, n, memory_budget)
    e_n = compute_en(bundle.values(), n)
    citations.append("cohomological-lower-bound")
    mu_n = mu_prime_n = mu_prime_prev = None
    try:
        res = compute_mun(spec, n, memory_budget=memory_budget)
        mu_n, mu_prime_n = res.mu, res.mu_prime
        notes.extend(res.notes)
        if res.exceptional is Exceptionality.DECLARED:
            notes.append("declared exceptional pair: mu'_n = 0 < mu_n = 1")
        citations.append("double-resolution-upper-bound")
    except UnsupportedFamilyError as exc:
        notes.append(f"mu_{n} unavailable: {exc}")
    if mu_prime_n is not None:
        try:
            mu_prime_prev = compute_mun(spec, n - 1, memory_budget=memory_budget).mu_prime
            citations.append("resolution-difference-lower-bound")
        except UnsupportedFamilyError as exc:
            notes.append(f"mu_{n - 1} unavailable, lower bound uses e_n only: {exc}")
    lower, upper = bounds_from_invariants(e_n, mu_prime_n, mu_prime_prev, n)

    exact = None
    # the trivial group has no period; q_{2n}(1) = 2(-1)^n (S^{2n}) is pinned by the interval
    if (period := spec.known_period()) is not None:
        exact = periodic_exact_value(period, n)
        if exact is not None:
            citations.append("periodicity-exact-value")

    verdict = _verdict(n, lower, mu_n, citations)
    annotations = annotation_for(spec, n, bundle)
    if annotations:
        citations.append("known-value-annotation")
    return QBoundReport(
        spec=spec,
        n=n,
        lower=lower,
        upper=upper,
        exact=exact,
        verdict=verdict,
        citations=tuple(dict.fromkeys(citations)),
        notes=tuple(notes),
        annotations=annotations,
    )


def _verdict(n: int, lower: int, mu_n: int | None, citations: list[str]) -> Verdict:
    if n % 2 == 1:
        citations.append("euler-characteristic-sign")
        return Verdict(
            VerdictKind.IMPOSSIBLE_QS,
            "rational homology spheres need chi = 2, impossible in dimensions 2n with n odd",
        )
    if mu_n == 1:
        citations.append("minimal-resolution-realizability")
        return Verdict(
            VerdictKind.REALIZABLE_QS,
            f"mu_{n} = 1: a minimal resolution thickens to a rational homology {2 * n}-sphere",
        )
    if lower > 2:
        return Verdict(VerdictKind.IMPOSSIBLE_QS, f"q_{2 * n} >= {lower} > 2")
    return Verdict(VerdictKind.OPEN, "interval does not decide realizability")
